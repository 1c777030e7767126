"""Classification of protocol runs in the refinement hierarchy (Table 1).

Given a protocol run (its recorded history plus the oracle it used), the
classifier determines which refined ADT the execution belongs to:

* the oracle coordinate is read off the oracle's fork bound ``k``
  (``k = 1`` → frugal no-fork, finite ``k`` → frugal, ``∞`` → prodigal);
* the consistency coordinate is the *strongest* criterion the recorded
  history satisfies (SC if the Strong-Consistency checker accepts it, else
  EC if the Eventual-Consistency checker accepts it, else "none").

``reproduce_table1`` runs all seven system models of Section 5 with
comparable parameters and tabulates their classification next to the
paper's expected row, which is exactly what the Table 1 bench prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.consistency import ConsistencyReport, check_consistency
from repro.core.consistency_index import ConsistencyIndex
from repro.core.hierarchy import Consistency, OracleKind, Refinement
from repro.core.score import ScoreFunction
from repro.protocols.base import RunResult

__all__ = [
    "ClassificationResult",
    "classify_run",
    "reproduce_table1",
    "PAPER_TABLE1",
    "TABLE1_SYSTEMS",
]


#: The order in which Table 1 runs are executed and reported.
TABLE1_SYSTEMS: Tuple[str, ...] = (
    "bitcoin",
    "ethereum",
    "byzcoin",
    "algorand",
    "peercensus",
    "redbelly",
    "hyperledger",
)

#: The paper's Table 1, as (consistency, oracle kind, k) per system.
PAPER_TABLE1: Dict[str, Refinement] = {
    "bitcoin": Refinement.ec_prodigal(),
    "ethereum": Refinement.ec_prodigal(),
    "algorand": Refinement.sc_frugal(1),
    "byzcoin": Refinement.sc_frugal(1),
    "peercensus": Refinement.sc_frugal(1),
    "redbelly": Refinement.sc_frugal(1),
    "hyperledger": Refinement.sc_frugal(1),
}


@dataclass(frozen=True)
class ClassificationResult:
    """Where one run landed in the hierarchy, with the supporting evidence."""

    name: str
    refinement: Optional[Refinement]
    consistency: str
    oracle_kind: str
    k: float
    strong_report: ConsistencyReport
    eventual_report: ConsistencyReport
    expected: Optional[Refinement] = None

    @property
    def matches_paper(self) -> Optional[bool]:
        """``True``/``False`` against Table 1, ``None`` when no expectation is set."""
        if self.expected is None:
            return None
        if self.refinement is None:
            return False
        return (
            self.refinement.consistency == self.expected.consistency
            and self.refinement.oracle == self.expected.oracle
            and self.refinement.k == self.expected.k
        )

    def describe(self) -> str:
        label = self.refinement.label() if self.refinement is not None else "(no criterion satisfied)"
        suffix = ""
        if self.expected is not None:
            verdict = "matches" if self.matches_paper else "DIFFERS FROM"
            suffix = f"  [{verdict} paper: {self.expected.label()}]"
        return f"{self.name:12s} -> {label}{suffix}"


def _oracle_coordinates(k: float) -> Tuple[str, float]:
    if k == math.inf:
        return OracleKind.PRODIGAL, math.inf
    return OracleKind.FRUGAL, float(k)


def classify_run(
    run: RunResult,
    score: Optional[ScoreFunction] = None,
    expected: Optional[Refinement] = None,
    index: Optional[ConsistencyIndex] = None,
) -> ClassificationResult:
    """Classify one run by its history purged of failed appends (``index``: that purge's)."""
    # One index, and the three properties SC and EC share evaluated once.
    history = run.history.without_failed_appends() if index is None else None
    strong, eventual = check_consistency(history, score, index=index)

    oracle_kind, k = _oracle_coordinates(run.oracle.k)
    if strong.holds:
        consistency = Consistency.STRONG
    elif eventual.holds:
        consistency = Consistency.EVENTUAL
    else:
        consistency = "none"

    refinement: Optional[Refinement] = None
    if consistency in (Consistency.STRONG, Consistency.EVENTUAL):
        refinement = Refinement(consistency, oracle_kind, k)

    return ClassificationResult(
        name=run.name,
        refinement=refinement,
        consistency=consistency,
        oracle_kind=oracle_kind,
        k=k,
        strong_report=strong,
        eventual_report=eventual,
        expected=expected if expected is not None else PAPER_TABLE1.get(run.name),
    )


def reproduce_table1(
    *,
    n: int = 6,
    duration: float = 120.0,
    seed: int = 7,
    runners: Optional[Dict[str, Callable[[], RunResult]]] = None,
) -> Dict[str, ClassificationResult]:
    """Run every system of Table 1 and classify it.

    Each row is now a declarative :class:`~repro.engine.spec.ExperimentSpec`
    built from the protocol registry's ``table1`` regime metadata (the
    proof-of-work systems run fork-prone there, so the *guarantee*
    difference between them and the consensus systems is visible in the
    recorded histories, as in the paper's Section 5 discussion).

    ``runners`` may override/extend the default set (used by the benches to
    tweak durations); each runner must return a :class:`RunResult`.
    """
    # Imported here to keep module import light and avoid cycles.
    from repro.engine import table1_spec

    overrides = dict(runners) if runners else {}
    order = list(TABLE1_SYSTEMS) + [name for name in overrides if name not in TABLE1_SYSTEMS]

    results: Dict[str, ClassificationResult] = {}
    for name in order:
        if name in overrides:
            results[name] = classify_run(overrides[name]())
            continue
        record = table1_spec(name, n=n, duration=duration, seed=seed).execute()
        if record.classification_result is None:  # spec.execute() always attaches it
            raise RuntimeError(f"{name}: spec.execute() returned no live classification")
        results[name] = record.classification_result
    return results
