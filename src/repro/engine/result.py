"""Run artifacts: what an executed :class:`ExperimentSpec` leaves behind.

The engine's :class:`RunResult` is the serializable sibling of
:class:`repro.protocols.base.RunResult` (the live harness object with
replicas, trees and the recorded history).  It carries everything the
paper-level analyses derive from a run — the classification verdict
against the refinement hierarchy, fork statistics, convergence and
fairness summaries, network counters and wall-clock timings — as plain
dictionaries, so results can be dumped to JSON, shipped back from a
worker process, and diffed across sweeps.

Only ``spec.execute()`` attaches the live objects (``result.run`` /
``result.classification_result``); a sweep's results, cache hits and
JSON round-trips are data alone, those two fields ``None``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.analysis.convergence import convergence_summary
from repro.analysis.fairness import fairness_report
from repro.analysis.forks import fork_statistics, merge_statistics
from repro.core.consistency_index import ConsistencyIndex, monitor_summary
from repro.core.degradation import DegradationMonitor
from repro.engine.registry import ProtocolEntry
from repro.engine.spec import ExperimentSpec
from repro.workload.merit import uniform_merit, zipf_merit

__all__ = ["RunResult", "analyse_run"]


def _json_safe(value: Any) -> Any:
    """Replace non-finite floats so the payload is strict-JSON clean."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


@dataclass
class RunResult:
    """Serializable artifact of one executed experiment."""

    spec: ExperimentSpec
    protocol_name: str
    classification: Dict[str, Any]
    forks: Dict[str, float]
    convergence: Dict[str, Any]
    fairness: Dict[str, Any]
    network: Dict[str, Any]
    blocks: Dict[str, Any]
    timings: Dict[str, float]
    #: Consistency-monitor verdict summary; only present when the spec opted
    #: into ``monitor=True`` (kept out of the payload otherwise so existing
    #: artifacts and cache entries stay byte-identical).
    consistency: Optional[Dict[str, Any]] = None
    #: Degradation-monitor summary (divergence depth over time, heal
    #: metrics); only present when the spec injected a registered fault
    #: model, same opt-in serialization rule as ``consistency``.
    degradation: Optional[Dict[str, Any]] = None
    run: Optional[Any] = field(default=None, repr=False, compare=False)
    classification_result: Optional[Any] = field(default=None, repr=False, compare=False)

    # -- convenience --------------------------------------------------------

    @property
    def label(self) -> str:
        return self.spec.label or self.spec.protocol

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form; ``timings`` are the only non-deterministic keys."""
        data = {
            "spec": self.spec.to_dict(),
            "protocol_name": self.protocol_name,
            "classification": dict(self.classification),
            "forks": dict(self.forks),
            "convergence": dict(self.convergence),
            "fairness": dict(self.fairness),
            "network": dict(self.network),
            "blocks": dict(self.blocks),
            "timings": dict(self.timings),
        }
        if self.consistency is not None:
            data["consistency"] = dict(self.consistency)
        if self.degradation is not None:
            data["degradation"] = dict(self.degradation)
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def stable_dict(self) -> Dict[str, Any]:
        """:meth:`to_dict` minus ``timings`` — the deterministic payload.

        Every key left is a pure function of the spec, so two executions
        of the same cell (serial vs pooled, first attempt vs retried,
        shard vs whole-grid) compare equal on this form.  The shard-merge
        and chaos-retry invariants are asserted against it.
        """
        data = self.to_dict()
        data.pop("timings", None)
        return data

    def stable_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.stable_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            protocol_name=data["protocol_name"],
            classification=dict(data["classification"]),
            forks=dict(data["forks"]),
            convergence=dict(data["convergence"]),
            fairness=dict(data["fairness"]),
            network=dict(data["network"]),
            blocks=dict(data["blocks"]),
            timings=dict(data["timings"]),
            consistency=(
                dict(data["consistency"]) if data.get("consistency") is not None else None
            ),
            degradation=(
                dict(data["degradation"]) if data.get("degradation") is not None else None
            ),
        )


def analyse_run(
    spec: ExperimentSpec,
    entry: ProtocolEntry,
    run: Any,
    run_seconds: float,
) -> RunResult:
    """Derive every paper-level statistic from a finished protocol run: the
    classification, monitor and degradation all read one index of its purged history."""
    from repro.protocols.classification import classify_run

    started = time.perf_counter()
    scorer = spec.build_score()
    history = run.history.without_failed_appends()
    index = ConsistencyIndex.from_history(history)
    classification = classify_run(run, score=scorer, index=index)
    reports = (classification.strong_report, classification.eventual_report)
    consistency = monitor_summary(reports, index, len(history)) if spec.monitor else None
    degradation = DegradationMonitor.of_run(run, index) if run.fault is not None else None

    forks = merge_statistics(
        {pid: fork_statistics(replica.tree) for pid, replica in run.replicas.items()}
    )
    summary = convergence_summary(run.final_chains())

    merit_name = spec.workload.merit or entry.fairness_merit
    if merit_name == "zipf":
        merit = zipf_merit(spec.replicas, exponent=spec.workload.merit_exponent)
    else:
        merit = uniform_merit(spec.replicas)
    reference_tree = next(iter(run.replicas.values())).tree
    fairness = fairness_report(reference_tree, merit)

    analysis_seconds = time.perf_counter() - started

    classification_dict: Dict[str, Any] = {
        "label": (
            classification.refinement.label()
            if classification.refinement is not None
            else "(no criterion satisfied)"
        ),
        "consistency": str(classification.consistency),
        "oracle_kind": str(classification.oracle_kind),
        "k": _json_safe(classification.k),
        "matches_paper": classification.matches_paper,
        "expected": (
            classification.expected.label() if classification.expected is not None else None
        ),
        "describe": classification.describe(),
    }

    convergence_dict = {
        "replicas": summary.replicas,
        "min_score": summary.min_score,
        "max_score": summary.max_score,
        "common_prefix_score": summary.common_prefix_score,
        "mean_pairwise_mcps": summary.mean_pairwise_mcps,
        "fully_agreeing_pairs": summary.fully_agreeing_pairs,
        "total_pairs": summary.total_pairs,
        "agreement_ratio": summary.agreement_ratio,
        "max_divergence": summary.max_divergence,
    }

    fairness_dict = {
        "shares": dict(fairness.shares),
        "merits": dict(fairness.merits),
        "ratios": dict(fairness.ratios),
        "worst_ratio": fairness.worst_ratio,
        "blocks_counted": fairness.blocks_counted,
        "describe": fairness.describe(),
    }

    network_dict = {
        "messages_sent": run.network.messages_sent,
        "messages_delivered": run.network.messages_delivered,
        "messages_dropped": run.network.messages_dropped,
        "events_processed": run.network.simulator.events_processed,
        "virtual_duration": spec.duration,
    }
    if getattr(run.network.simulator, "callback_timer", None) is not None:
        # Callback profiling enabled (timed_callbacks, as in the ledger's
        # network.simulator.callback_s / drain_s rows):
        # surface how much of the drain loop was spent inside user callbacks.
        network_dict["callback_seconds"] = run.network.simulator.callback_seconds
        network_dict["drain_seconds"] = run.network.simulator.drain_seconds

    timings = {"run_seconds": run_seconds, "analysis_seconds": analysis_seconds}
    population = getattr(run, "population", None)
    if population is not None:
        # Population workload attached: surface the client-op volume and
        # the generator's share of the run (bounded under 15% by
        # tests/workload/test_population.py).
        network_dict["client_ops"] = population.total_ops
        timings["workload_generation_seconds"] = population.generation_seconds

    blocks_dict = {
        "created": {pid: r.blocks_created for pid, r in run.replicas.items()},
        "adopted": {pid: r.blocks_adopted for pid, r in run.replicas.items()},
        "tree_sizes": {pid: len(r.tree) for pid, r in run.replicas.items()},
    }

    quarantined = getattr(run.network, "messages_quarantined", 0)
    if quarantined:
        # Only emitted when churn actually absorbed traffic, so artifacts
        # of fault-free runs are byte-identical to pre-fault ones.
        network_dict["messages_quarantined"] = quarantined

    return RunResult(
        spec=spec,
        protocol_name=run.name,
        classification=classification_dict,
        forks={k: float(v) for k, v in forks.items()},
        convergence=convergence_dict,
        fairness=fairness_dict,
        network=network_dict,
        blocks=blocks_dict,
        timings=timings,
        consistency=consistency,
        degradation=degradation.summary() if degradation is not None else None,
        run=run,
        classification_result=classification,
    )
