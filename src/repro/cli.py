"""Command-line interface: regenerate the paper's artefacts from a shell.

``python -m repro <command>`` exposes the most useful entry points without
writing any Python:

* ``table1`` — run the seven system models and print the reproduced Table 1
  (exit status 1 when any row does not match the paper);
* ``classify`` — run a single system model and print its classification,
  fork statistics, convergence and fairness summaries (``--monitor``
  adds the consistency verdicts of the raw history, checked after the run
  by the :class:`~repro.core.consistency_index.ConsistencyMonitor`);
* ``hierarchy`` — print the Figure 8 / Figure 14 hierarchies;
* ``figures`` — check the Figure 2/3/4 example histories against both
  consistency criteria and print the verdicts;
* ``resume-run`` — finish an interrupted run from a checkpoint file
  written by ``--checkpoint-every`` (available on ``classify`` and, per
  sweep cell, on ``sweep``); the continued history is byte-identical to
  an uninterrupted run;
* ``fork-sweep`` — the fork-rate ablation (oracle bound × delay);
* ``sweep`` — expand a parameter grid into :class:`ExperimentSpec` cells
  (or one shard of it, ``--shard-index I/K``), run them serially or on a
  worker pool (``--jobs``, ``--backend``) with per-cell retries, timeouts
  and journaled resume (``--retries``, ``--timeout``,
  ``--journal``/``--resume``), and
  dump the results as JSON (``--cache DIR`` memoizes cells on their spec
  digest, so re-runs are served from disk without simulating anything).

Every command resolves system names through the protocol registry and
routes runs through the experiment engine (:mod:`repro.engine`), so a
system registered with ``@register_protocol`` is immediately available
here.  Every command accepts ``--seed`` so results are reproducible, and
prints plain text only (no plotting dependencies).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple, Union

from repro.analysis.report import render_classification_table, render_table
from repro.core.consistency import check_eventual_consistency, check_strong_consistency
from repro.core.hierarchy import message_passing_hierarchy, refinement_hierarchy
from repro.engine import (
    DEFAULT_CACHE_DIR,
    DEFAULT_CHECKPOINT_DIR,
    CellFailure,
    ChannelSpec,
    CheckpointCorruptionError,
    CheckpointWriter,
    ExperimentSpec,
    FaultSpec,
    FlakyExecutor,
    PoolExecutor,
    ResultCache,
    SerialExecutor,
    SweepRunner,
    TopologySpec,
    available_protocols,
    checkpoint_path_for,
    expand_grid,
    get_protocol,
    load_checkpoint,
    regime_spec,
    resume_spec_from_checkpoint,
    results_payload,
    spec_digest,
)
from repro.engine.executors import INJECTION_KINDS
from repro.network.faults import FAULTS
from repro.network.topology import TOPOLOGIES
from repro.protocols.base import process_ids
from repro.protocols.classification import reproduce_table1
from repro.workload.scenarios import figure2_history, figure3_history, figure4_history

__all__ = ["main", "build_parser"]


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--checkpoint-every`` / ``--checkpoint-dir`` pair (classify, sweep)."""
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            "snapshot the live run every N events (crash-safe atomic "
            "writes; killed runs resume via 'repro resume-run' and sweep "
            "retries resume from the latest per-cell snapshot)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory checkpoint files are written to "
            f"(default {DEFAULT_CHECKPOINT_DIR!r}; files are named "
            "<spec-digest>.ckpt)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    systems = sorted(available_protocols())
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable reproduction of 'Blockchain Abstract Data Type' (SPAA 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="reproduce Table 1 (system classification)")
    table1.add_argument("--replicas", type=int, default=5)
    table1.add_argument("--duration", type=float, default=100.0)
    table1.add_argument("--seed", type=int, default=7)

    classify = sub.add_parser("classify", help="run one system model and classify it")
    classify.add_argument("system", choices=systems)
    classify.add_argument("--replicas", type=int, default=5)
    classify.add_argument("--duration", type=float, default=120.0)
    classify.add_argument("--seed", type=int, default=7)
    classify.add_argument(
        "--fork-prone",
        action="store_true",
        help="use a fork-prone regime for the proof-of-work systems",
    )
    classify.add_argument(
        "--monitor",
        action="store_true",
        help="check consistency on the raw history after the run (ConsistencyMonitor)",
    )
    classify.add_argument(
        "--topology",
        default=None,
        metavar="KIND",
        help=(
            "dissemination topology: a registered kind "
            f"({', '.join(sorted(TOPOLOGIES.names()))}), "
            "'kind:key=value,...' for parameters "
            "(e.g. 'gossip:fanout=4'), or a JSON object"
        ),
    )
    classify.add_argument(
        "--fault",
        default=None,
        metavar="KIND",
        help=(
            "adversary to inject: a registered fault kind, "
            "'kind:key=value,...' for parameters (e.g. "
            "'partition:groups=[[\"p0\",\"p1\"],[\"p2\",\"p3\",\"p4\"]],heal_at=60'), "
            "or a JSON object; degradation metrics land in the output"
        ),
    )
    _add_checkpoint_arguments(classify)

    resume_run = sub.add_parser(
        "resume-run",
        help="finish an interrupted run from its checkpoint file",
    )
    resume_run.add_argument(
        "checkpoint",
        metavar="PATH",
        help=(
            "checkpoint file written by --checkpoint-every (classify or a "
            "sweep worker); the embedded spec resumes and is classified"
        ),
    )
    resume_run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="keep snapshotting the continued run every N events to PATH",
    )

    sub.add_parser("hierarchy", help="print the Figure 8 and Figure 14 hierarchies")

    sub.add_parser("figures", help="check the Figure 2/3/4 example histories")

    fork_sweep = sub.add_parser("fork-sweep", help="fork rate vs oracle bound and delay")
    fork_sweep.add_argument("--replicas", type=int, default=5)
    fork_sweep.add_argument("--duration", type=float, default=150.0)
    fork_sweep.add_argument("--seed", type=int, default=5)
    fork_sweep.add_argument("--jobs", type=int, default=1)

    sweep = sub.add_parser(
        "sweep",
        help="grid sweep (seeds × delays × drops × replicas) through the engine",
    )
    sweep.add_argument("--protocol", required=True, choices=systems)
    sweep.add_argument("--replicas", type=int, default=5)
    sweep.add_argument("--duration", type=float, default=100.0)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--seeds", default=None, help="seed axis, e.g. '0:8', '1,2,5' or '3'")
    sweep.add_argument("--delays", default=None, help="channel delta axis, e.g. '1.0,2.0,4.0'")
    sweep.add_argument("--drops", default=None, help="drop-probability axis, e.g. '0.0,0.3'")
    sweep.add_argument("--replica-counts", default=None, help="replica-count axis, e.g. '4,6,8'")
    sweep.add_argument("--token-rates", default=None, help="token-rate axis, e.g. '0.1,0.4'")
    sweep.add_argument(
        "--clients",
        default=None,
        help="client-population axis, e.g. '100,1000,10000' (workload.clients)",
    )
    sweep.add_argument(
        "--client-rate",
        type=float,
        default=None,
        help="operations per client per time unit for every cell (default: runner's)",
    )
    sweep.add_argument("--oracle-bounds", default=None, help="oracle bound axis, e.g. '1,2,inf'")
    sweep.add_argument(
        "--topology",
        default=None,
        metavar="KIND",
        help="base topology for every cell (same forms as classify --topology)",
    )
    sweep.add_argument(
        "--topologies",
        default=None,
        metavar="KINDS",
        help=(
            "topology axis: comma-separated registered kinds, e.g. 'full,gossip,ring' "
            "(grid cells are labelled topology=<kind>)"
        ),
    )
    sweep.add_argument(
        "--fault",
        default=None,
        metavar="KIND",
        help="adversary for every cell (same forms as classify --fault)",
    )
    sweep.add_argument(
        "--fork-prone",
        action="store_true",
        help="start from the protocol's fork-prone regime before applying axes",
    )
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial)")
    sweep.add_argument(
        "--backend",
        default=None,
        choices=("serial", "pool"),
        help=(
            "execution backend; default derives from --jobs (serial for 1, "
            "pool otherwise) and --checkpoint-every implies pool"
        ),
    )
    sweep.add_argument(
        "--shard-index",
        default=None,
        metavar="I/K",
        help=(
            "run only shard I of K (cells I, I+K, I+2K, ... of the grid) on "
            "whichever backend; shards sharing --cache DIR merge into the "
            "full sweep byte-identically"
        ),
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-cell wall-clock budget; an over-budget worker is killed and "
            "the cell retried (enforced by process backends)"
        ),
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-attempt failed cells up to N times (exponential backoff + seeded jitter)",
    )
    sweep.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base delay before the first retry (doubles per retry; 0 disables sleeping)",
    )
    sweep.add_argument(
        "--max-failures",
        type=int,
        default=0,
        metavar="N",
        help=(
            "abort once more than N cells fail every attempt; failed cells up "
            "to the threshold degrade to CellFailure artifacts in the payload "
            "(-1 = never abort; default 0 preserves fail-fast)"
        ),
    )
    sweep.add_argument(
        "--journal",
        nargs="?",
        const="sweep.journal.jsonl",
        default=None,
        metavar="PATH",
        help=(
            "append per-cell progress (digest, attempts, status, error) to "
            "PATH (default 'sweep.journal.jsonl'); enables --resume"
        ),
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip cells the journal marks complete (successes served from "
            "--cache, failures reconstructed); requires --journal and --cache"
        ),
    )
    sweep.add_argument(
        "--flaky-rates",
        default=None,
        metavar="KIND=P,...",
        help=(
            "chaos testing: wrap the backend in a FlakyExecutor injecting "
            "faults at the given seeded per-attempt rates, e.g. "
            "'exception=0.2,hang=0.1,kill=0.05'"
        ),
    )
    sweep.add_argument(
        "--flaky-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed for --flaky-rates injection decisions (per cell digest and attempt)",
    )
    sweep.add_argument(
        "--monitor",
        action="store_true",
        help=(
            "check each cell's raw history for consistency after the run "
            "(ConsistencyMonitor; verdicts land in the JSON results)"
        ),
    )
    _add_checkpoint_arguments(sweep)
    sweep.add_argument("--out", default="sweep_results.json", help="JSON results path")
    sweep.add_argument(
        "--cache",
        nargs="?",
        const=DEFAULT_CACHE_DIR,
        default=None,
        metavar="DIR",
        help=(
            "memoize cells on their spec digest under DIR "
            f"(default {DEFAULT_CACHE_DIR!r}); cached cells are served from "
            "disk byte-identically, with zero simulator events"
        ),
    )

    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _usage_error(command: str, message: str) -> NoReturn:
    """One ``repro <command>: error: ...`` line on stderr, exit status 2."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_axis(text: Optional[str], cast: Callable[[str], Any], flag: str) -> Optional[List[Any]]:
    """Parse ``'0:8'`` (range), ``'a,b,c'`` (list) or a single value; an
    axis with no value would make a grid of no cells, a usage error."""
    if text is None:
        return None
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            values = [cast(str(v)) for v in range(int(lo), int(hi))]
        else:
            values = [cast(v) for v in text.split(",") if v != ""]
    except ValueError:
        expected = "'lo:hi', 'a,b,c' or a single value"
        _usage_error("sweep", f"cannot parse {flag} value {text!r} (expected {expected})")
    if not values:
        _usage_error("sweep", f"{flag} {text!r} gives no values")
    return values


def _parse_bound(text: str) -> float:
    if text.strip() in ("inf", "∞", "none", "None"):
        return math.inf
    return float(text)


def _require_positive(value: Optional[float], flag: str, command: str) -> None:
    """Loudly reject non-positive or NaN resilience knobs (``None`` = unset = fine)."""
    if value is not None and not value > 0:
        _usage_error(command, f"{flag} must be > 0, got {value!r}")


def _require_finite(values: Sequence[float], flag: str) -> None:
    """Reject a negative, infinite or NaN rate before any cell runs."""
    for value in values:
        if not 0 <= value < math.inf:
            _usage_error("sweep", f"{flag} must be a finite number >= 0, got {value!r}")


def _split_topology_params(rest: str) -> List[str]:
    """Split ``key=value,key=value`` on top-level commas only.

    Commas inside brackets, braces or quotes belong to a JSON value
    (``members=["p0","p1"]``), not to the pair separator.
    """
    pairs: List[str] = []
    depth = 0
    quote: Optional[str] = None
    current = ""
    for char in rest:
        if quote is not None:
            current += char
            if char == quote:
                quote = None
        elif char in "\"'":
            quote = char
            current += char
        elif char in "[{":
            depth += 1
            current += char
        elif char in "]}":
            depth -= 1
            current += char
        elif char == "," and depth == 0:
            pairs.append(current)
            current = ""
        else:
            current += char
    pairs.append(current)
    return pairs


def _parse_component(command: str, text: str, spec_cls, vocabulary, field_keys=()):
    """Parse ``--fault`` / ``--topology``: a kind, ``kind:key=value,...``, or JSON.

    Values go through :func:`json.loads` when they parse (so
    ``heal_at=60`` is a number, ``at={"p4": 30}`` a mapping,
    ``members=["p5"]`` a list, ``include_observers=false`` a bool) and
    stay strings otherwise.  A key in ``field_keys`` is a field of the
    spec; every other key is a constructor parameter of the registered
    model.  All three forms go through ``spec_cls.from_dict``.  The
    arguments ``vocabulary.build`` would pass (the seed included) are
    bound to the registered class's signature and the model is built
    once, so a missing, unknown or wrongly typed one is a usage error of
    ``command`` (exit 2) here, before any run starts.
    """
    noun = vocabulary.noun
    text = text.strip()
    try:
        if text.startswith("{"):
            data: Any = json.loads(text)
        elif ":" in text:
            kind, _, rest = text.partition(":")
            data = {"kind": kind.strip(), "params": {}}
            for pair in _split_topology_params(rest):
                if not pair:
                    continue
                key, eq, raw = pair.partition("=")
                if not eq:
                    _usage_error(command, f"{noun} parameter {pair!r} is not 'key=value'")
                try:
                    value = json.loads(raw)
                except json.JSONDecodeError:
                    value = raw
                key = key.strip()
                (data if key in field_keys else data["params"])[key] = value
        else:
            data = text
        spec = spec_cls.from_dict(data)
    except json.JSONDecodeError as error:
        _usage_error(command, f"cannot parse {noun} JSON {text!r} ({error})")
    except (TypeError, ValueError) as error:
        _usage_error(command, f"{noun} {text!r}: {error}")
    if spec.kind not in vocabulary:
        registered = ", ".join(sorted(vocabulary.names()))
        _usage_error(command, f"unknown {noun} {spec.kind!r} (registered: {registered})")
    signature = inspect.signature(vocabulary[spec.kind])
    supplied = vocabulary.arguments(spec.kind, spec.params)
    try:
        signature.bind_partial(**supplied)  # an unknown name before a missing one
        signature.bind(**supplied)
        spec.build(0)
    except (TypeError, ValueError) as error:
        _usage_error(command, f"{noun} {spec.kind!r}: {error}")
    return spec


def _parse_fault(command: str, text: str) -> FaultSpec:
    """``--fault``; ``seed`` is the spec field, every other key a parameter."""
    return _parse_component(command, text, FaultSpec, FAULTS, ("seed",))


def _check_fault_members(command: str, fault: FaultSpec, replica_counts: Sequence[int]) -> None:
    """Refuse a fault naming a replica some run will not have: exit 2, before any run.

    The smallest replica count implies the fewest ids, so it is the one
    checked, by the same :meth:`~repro.network.faults.FaultModel.check_members`
    a run's ``install`` calls.
    """
    n = min(replica_counts)
    try:
        fault.build(0).check_members(process_ids(n))
    except ValueError as error:
        _usage_error(
            command, f"fault {fault.kind!r}: {error} (a run of {n} replicas has p0..p{n - 1})"
        )


def _check_channels(command: str, specs: Sequence[ExperimentSpec]) -> None:
    """Refuse a channel some cell could not build: exit 2, before any run.

    Each distinct channel of the grid is built once, by the same
    :meth:`~repro.engine.spec.ChannelSpec.build` a run calls (the seed
    only seeds the delays, so any will do).
    """
    channels = {
        json.dumps(spec.channel.to_dict(), sort_keys=True): spec.channel
        for spec in specs
        if spec.channel is not None
    }
    for channel in channels.values():
        try:
            channel.build(0)
        except ValueError as error:
            _usage_error(command, f"channel {channel.kind!r}: {error}")


def _parse_topology(command: str, text: str) -> TopologySpec:
    """``--topology``; every key, ``seed`` included, is a topology parameter."""
    return _parse_component(command, text, TopologySpec, TOPOLOGIES)


def _regime_spec(
    system: str,
    *,
    replicas: int,
    duration: float,
    seed: int,
    fork_prone: bool,
) -> ExperimentSpec:
    """Base spec for one system, optionally in its fork-prone regime."""
    entry = get_protocol(system)
    regime = entry.fork_prone if (fork_prone and entry.fork_prone) else {}
    return regime_spec(system, regime, n=replicas, duration=duration, seed=seed)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_table1(args: argparse.Namespace) -> Tuple[str, int]:
    """The table, and exit status 1 when any row's match column says no."""
    results = reproduce_table1(n=args.replicas, duration=args.duration, seed=args.seed)
    differs = any(result.matches_paper is False for result in results.values())
    return render_classification_table(results), int(differs)


def _cmd_classify(args: argparse.Namespace) -> str:
    _require_positive(args.checkpoint_every, "--checkpoint-every", "classify")
    spec = _regime_spec(
        args.system,
        replicas=args.replicas,
        duration=args.duration,
        seed=args.seed,
        fork_prone=args.fork_prone,
    )
    if args.monitor:
        spec = spec.with_updates(monitor=True)
    if args.topology is not None:
        spec = spec.with_updates(topology=_parse_topology("classify", args.topology))
    if args.fault is not None:
        spec = spec.with_updates(fault=_parse_fault("classify", args.fault))
        _check_fault_members("classify", spec.fault, [args.replicas])
    if args.checkpoint_every is not None:
        # The file is named by the digest of the knob-free spec, so the
        # path is stable however often the cadence changes.
        directory = args.checkpoint_dir or DEFAULT_CHECKPOINT_DIR
        path = checkpoint_path_for(directory, spec_digest(spec))
        spec = spec.with_updates(
            checkpoint_every=args.checkpoint_every, checkpoint_path=path
        )
    record = spec.execute()
    return _render_classification(record)


def _render_classification(record) -> str:
    lines = [
        record.classification["describe"],
        "",
        f"blocks/replica (mean): {record.forks['mean_blocks']:.1f}",
        f"fork points/replica (mean): {record.forks['mean_forks']:.2f}",
        f"wasted block ratio (mean): {record.forks['mean_wasted_ratio']:.3f}",
        f"final common prefix score: {record.convergence['common_prefix_score']}",
        f"replica agreement ratio: {record.convergence['agreement_ratio']:.2f}",
        "",
        record.fairness["describe"],
    ]
    if record.consistency is not None:
        verdicts = record.consistency["properties"]
        lines.extend(
            [
                "",
                "consistency monitor (post-hoc, raw history):",
                f"  strong consistency: {record.consistency['strong']}"
                f"  eventual consistency: {record.consistency['eventual']}",
                "  "
                + "  ".join(f"{name}={holds}" for name, holds in verdicts.items()),
                f"  reads={record.consistency['reads']}"
                f"  events={record.consistency['events']}"
                f"  blocks indexed={record.consistency['blocks_indexed']}",
            ]
        )
    if record.degradation is not None:
        deg = record.degradation
        heal = (
            f"  heal_at={deg['heal_at']}  healed_at={deg['healed_at']}"
            f"  time_to_heal={deg['time_to_heal']}"
            if deg["heal_at"] is not None
            else "  (no heal time announced)"
        )
        lines.extend(
            [
                "",
                "degradation monitor (divergence among correct replicas):",
                f"  max divergence depth: {deg['max_divergence_depth']}"
                f"  final: {deg['final_divergence_depth']}"
                f"  reads: {deg['reads']}",
                heal,
            ]
        )
    return "\n".join(lines)


def _cmd_resume_run(args: argparse.Namespace) -> str:
    _require_positive(args.checkpoint_every, "--checkpoint-every", "resume-run")
    try:
        snapshot = load_checkpoint(args.checkpoint)
    except FileNotFoundError:
        raise SystemExit(
            f"repro resume-run: error: no checkpoint at {args.checkpoint!r}"
        ) from None
    except CheckpointCorruptionError as error:
        raise SystemExit(f"repro resume-run: error: {error}") from None
    if snapshot.spec is None:
        raise SystemExit(
            "repro resume-run: error: checkpoint carries no experiment spec "
            "(it was written by a raw checkpoint sink, not the CLI/sweep path)"
        )
    spec = ExperimentSpec.from_dict(snapshot.spec)
    writer = (
        CheckpointWriter(args.checkpoint, spec=snapshot.spec)
        if args.checkpoint_every is not None
        else None
    )
    record = resume_spec_from_checkpoint(
        spec, snapshot, every=args.checkpoint_every, writer=writer
    )
    header = (
        f"resumed {spec.label or spec.protocol!r} from {args.checkpoint} "
        f"(clock {snapshot.clock:.2f}, {snapshot.event_count} events, "
        f"phase {snapshot.phase!r})"
    )
    return f"{header}\n\n{_render_classification(record)}"


def _cmd_hierarchy(_: argparse.Namespace) -> str:
    lines = ["Figure 8 — full hierarchy (a -> b: a is stronger than b)"]
    for vertex, weaker in refinement_hierarchy().items():
        targets = ", ".join(w.label() for w in weaker) or "(bottom)"
        lines.append(f"  {vertex.label():28s} -> {targets}")
    lines.append("")
    lines.append("Figure 14 — message-passing feasible vertices (Theorem 4.8)")
    feasible = message_passing_hierarchy()
    for vertex in refinement_hierarchy():
        verdict = "implementable" if vertex in feasible else "IMPOSSIBLE"
        lines.append(f"  {vertex.label():28s} {verdict}")
    return "\n".join(lines)


def _cmd_figures(_: argparse.Namespace) -> str:
    rows: List[List[object]] = []
    for name, history, expected_sc, expected_ec in (
        ("Figure 2", figure2_history(), True, True),
        ("Figure 3", figure3_history(), False, True),
        ("Figure 4", figure4_history(), False, False),
    ):
        sc = check_strong_consistency(history).holds
        ec = check_eventual_consistency(history).holds
        status = "as in paper" if (sc, ec) == (expected_sc, expected_ec) else "MISMATCH"
        rows.append([name, sc, ec, status])
    return render_table(
        ["history", "strong consistency", "eventual consistency", "verdict"],
        rows,
        title="Figures 2–4 — example histories",
    )


def _cmd_fork_sweep(args: argparse.Namespace) -> str:
    bounds = (1.0, 2.0, math.inf)
    deltas = (1.0, 2.0, 4.0)
    specs = [
        ExperimentSpec(
            protocol="bitcoin",
            replicas=args.replicas,
            duration=args.duration,
            seed=args.seed,
            channel=ChannelSpec(
                kind="synchronous", params={"delta": delta, "min_delay": delta / 4}
            ),
            oracle_k=bound,
            params={"token_rate": 0.4},
            label=f"k={bound} delta={delta}",
        )
        for bound in bounds
        for delta in deltas
    ]
    records = SweepRunner(jobs=args.jobs).run(specs)
    rows = [
        [
            "∞" if math.isinf(spec.oracle_k) else int(spec.oracle_k),
            spec.channel.params["delta"],
            round(record.forks["mean_blocks"], 1),
            round(record.forks["mean_forks"], 2),
            round(record.forks["mean_wasted_ratio"], 3),
        ]
        for spec, record in zip(specs, records)
    ]
    return render_table(
        ["k", "delay", "blocks/replica", "fork points/replica", "wasted ratio"],
        rows,
        title="Fork-rate ablation",
    )


def _parse_shard(text: str) -> tuple:
    """``'I/K'`` → ``(I, K)`` with range validation (0-based index)."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        _usage_error("sweep", f"cannot parse --shard-index {text!r} (expected I/K, e.g. 0/4)")
    if count < 1 or not 0 <= index < count:
        _usage_error("sweep", f"--shard-index {text!r} out of range (need 0 <= I < K)")
    return index, count


def _parse_flaky_rates(text: str) -> Dict[str, float]:
    """``'exception=0.2,hang=0.1'`` → rate mapping, kinds validated."""
    rates: Dict[str, float] = {}
    for item in text.split(","):
        if not item:
            continue
        try:
            kind, value = item.split("=", 1)
            rates[kind.strip()] = float(value)
        except ValueError:
            _usage_error(
                "sweep", f"cannot parse --flaky-rates item {item!r} (expected KIND=PROBABILITY)"
            )
    unknown = sorted(set(rates) - set(INJECTION_KINDS))
    if unknown:
        _usage_error(
            "sweep",
            f"unknown injection kind(s) {', '.join(map(repr, unknown))}; "
            f"registered: {', '.join(INJECTION_KINDS)}",
        )
    return rates


def _build_sweep_executor(args: argparse.Namespace):
    """Serial or pool (``--checkpoint-every`` implies pool), maybe made flaky.

    ``None`` means "let the runner derive the default from --jobs".
    """
    rates = _parse_flaky_rates(args.flaky_rates) if args.flaky_rates is not None else None
    executor = None
    if args.checkpoint_every is not None:
        if args.backend == "serial":
            _usage_error(
                "sweep",
                "--checkpoint-every requires a process backend (pool), not --backend serial",
            )
        executor = PoolExecutor(
            jobs=args.jobs,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir or DEFAULT_CHECKPOINT_DIR,
        )
    elif args.backend is not None:
        executor = SerialExecutor() if args.backend == "serial" else PoolExecutor(jobs=args.jobs)
    if rates is None:
        return executor
    if executor is None:
        executor = SerialExecutor() if args.jobs <= 1 else PoolExecutor(jobs=args.jobs)
    return FlakyExecutor(executor, rates=rates, seed=args.flaky_seed)


def _cmd_sweep(args: argparse.Namespace) -> str:
    _require_positive(args.timeout, "--timeout", "sweep")
    _require_positive(args.checkpoint_every, "--checkpoint-every", "sweep")
    if args.retries < 0:
        _usage_error("sweep", f"--retries must be >= 0, got {args.retries}")
    base = _regime_spec(
        args.protocol,
        replicas=args.replicas,
        duration=args.duration,
        seed=args.seed,
        fork_prone=args.fork_prone,
    )
    if args.monitor:
        base = base.with_updates(monitor=True)
    if args.topology is not None:
        base = base.with_updates(topology=_parse_topology("sweep", args.topology))
    if args.fault is not None:
        base = base.with_updates(fault=_parse_fault("sweep", args.fault))

    axes: Dict[str, Sequence[Any]] = {}
    if args.topologies is not None:
        kinds = []
        for item in args.topologies.split(","):
            if item == "":
                continue
            if ":" in item or item.lstrip().startswith("{"):
                _usage_error(
                    "sweep",
                    "--topologies takes bare registered kinds; "
                    "use --topology (base spec) for parameterized topologies",
                )
            kinds.append(_parse_topology("sweep", item).kind)
        axes["topology"] = kinds
    seeds = _parse_axis(args.seeds, int, "--seeds")
    if seeds is not None:
        axes["seed"] = seeds
    replica_counts = _parse_axis(args.replica_counts, int, "--replica-counts")
    if replica_counts is not None:
        if min(replica_counts) < 1:
            _usage_error("sweep", f"--replica-counts must be >= 1, got {min(replica_counts)}")
        axes["replicas"] = replica_counts
    delays = _parse_axis(args.delays, float, "--delays")
    if delays is not None:
        axes["channel.delta"] = delays
    drops = _parse_axis(args.drops, float, "--drops")
    if drops is not None:
        axes["channel.drop_probability"] = drops
    token_rates = _parse_axis(args.token_rates, float, "--token-rates")
    if token_rates is not None:
        _require_finite(token_rates, "--token-rates")
        axes["params.token_rate"] = token_rates
    clients = _parse_axis(args.clients, int, "--clients")
    if clients is not None:
        axes["workload.clients"] = clients
    if args.client_rate is not None:
        import dataclasses

        _require_finite([args.client_rate], "--client-rate")
        base = base.with_updates(
            workload=dataclasses.replace(base.workload, client_rate=args.client_rate)
        )
    bounds = _parse_axis(args.oracle_bounds, _parse_bound, "--oracle-bounds")
    if bounds is not None:
        axes["oracle_k"] = bounds
    if base.fault is not None:
        _check_fault_members("sweep", base.fault, replica_counts or [args.replicas])

    specs = expand_grid(base, axes)
    _check_channels("sweep", specs)
    shard = _parse_shard(args.shard_index) if args.shard_index is not None else None
    executor = _build_sweep_executor(args)
    cache = ResultCache(args.cache) if args.cache is not None else None
    if args.resume and args.journal is None:
        _usage_error("sweep", "--resume requires --journal")
    if args.resume and cache is None:
        _usage_error(
            "sweep",
            "--resume requires --cache (completed cells are restored from the result cache)",
        )
    runner = SweepRunner(
        jobs=args.jobs,
        cache=cache,
        executor=executor,
        retries=args.retries,
        timeout=args.timeout,
        backoff=args.retry_backoff,
        max_failures=None if args.max_failures < 0 else args.max_failures,
        journal=args.journal,
        resume=args.resume,
        shard=shard,
    )
    records = runner.run(specs)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results_payload(records, shard=shard), handle, sort_keys=True, indent=2)
        handle.write("\n")

    rows = []
    for record in records:
        if isinstance(record, CellFailure):
            rows.append(
                [
                    record.label,
                    record.spec.seed,
                    f"FAILED after {record.attempts} attempt(s)",
                    record.error.get("type") or "-",
                    "-",
                ]
            )
        else:
            rows.append(
                [
                    record.label,
                    record.spec.seed,
                    record.classification["label"],
                    round(record.forks["mean_forks"], 2),
                    round(record.convergence["agreement_ratio"], 2),
                ]
            )
    table = render_table(
        ["cell", "seed", "classification", "fork points/replica", "agreement"],
        rows,
        title=f"Sweep — {args.protocol} ({len(records)} cells, jobs={args.jobs})",
    )
    summary = f"wrote {len(records)} cells to {args.out}"
    if shard is not None:
        summary += f" [shard {shard[0]}/{shard[1]}: {len(records)}/{len(specs)} grid cells]"
    if cache is not None:
        summary += (
            f" ({runner.last_cache_hits}/{len(records)} cells from cache {args.cache})"
        )
    if runner.last_resumed:
        summary += f", {runner.last_resumed} resumed from journal"
    if runner.last_failures:
        summary += f", {runner.last_failures} FAILED (see payload)"
    return f"{table}\n\n{summary}"


#: Each command returns its output, or its output and a nonzero exit status.
_COMMANDS: Dict[str, Callable[[argparse.Namespace], Union[str, Tuple[str, int]]]] = {
    "table1": _cmd_table1,
    "classify": _cmd_classify,
    "resume-run": _cmd_resume_run,
    "hierarchy": _cmd_hierarchy,
    "figures": _cmd_figures,
    "fork-sweep": _cmd_fork_sweep,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    duration = getattr(args, "duration", None)
    if duration is not None and not 0 <= duration < math.inf:
        # Every spec refuses it (a NaN or negative horizon), or it never ends.
        _usage_error(args.command, f"--duration must be a finite number >= 0, got {duration!r}")
    for flag in ("replicas", "jobs"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            _usage_error(args.command, f"--{flag} must be >= 1, got {value}")
    output = _COMMANDS[args.command](args)
    status = 0
    if isinstance(output, tuple):
        output, status = output
    try:
        print(output, flush=True)  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader left early (``| head``): as the Python docs advise, point
        # stdout at devnull so the flush at exit has nothing left to raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
