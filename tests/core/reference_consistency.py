"""The brute-force consistency checkers: the single designated oracle.

These reproduce, verbatim, the original O(R²·L) checker code that compared
materialized chains pair by pair and worded every violation.  They exist
for the tests only: ``test_consistency_equivalence.py`` and the property
and scaling suites require the checkers of :mod:`repro.core.consistency`
to reproduce them exactly (:func:`bounded` states how).  Do not "optimize"
them.

The oracle's primitives are defined here as well: the orders of
Definition 2.4 over recorded events (:func:`process_order`,
:func:`operation_order`, :func:`program_order` and its total refinement
:func:`precedes`) and the divergence of two chains (:func:`diverges`).

The stricter *all-pairs* reading of Eventual Prefix — every pair of later
reads, not only the limit reads — lives here too
(:func:`all_pairs_eventual_prefix`): it rejects any history with a
transient fork, and the tests use it to tell the two readings apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.block import Block, Blockchain
from repro.core.consistency import (
    WITNESS_LIMIT,
    BlockValidator,
    ConsistencyReport,
    PropertyResult,
)
from repro.core.history import Event, EventKind, History
from repro.core.score import LengthScore, ScoreFunction, mcps


def process_order(e: Event, e_prime: Event) -> bool:
    """``e ↦ e'``: same process and ``e`` occurs earlier."""
    return e.process == e_prime.process and e.eid < e_prime.eid


def operation_order(e: Event, e_prime: Event) -> bool:
    """``e ≺ e'`` per Definition 2.4.

    Either ``e`` is an invocation and ``e'`` the response of the same
    operation, or ``e`` is a response that occurs (in real time) before
    the invocation ``e'`` of another operation.
    """
    if (
        e.kind is EventKind.INVOCATION
        and e_prime.kind is EventKind.RESPONSE
        and e.op_id == e_prime.op_id
        and e.process == e_prime.process
    ):
        return True
    return (
        e.kind is EventKind.RESPONSE
        and e_prime.kind is EventKind.INVOCATION
        and e.eid < e_prime.eid
    )


def program_order(e: Event, e_prime: Event) -> bool:
    """``e ↗ e'``: the union of process order and operation order."""
    if e.eid == e_prime.eid:
        return False
    return process_order(e, e_prime) or operation_order(e, e_prime)


def precedes(e: Event, e_prime: Event) -> bool:
    """Total-order refinement of ``↗``: the recorder's clock totally orders
    events and refines ``↗``, so ``e.eid < e'.eid`` is "``e`` before
    ``e'``" for recorded executions."""
    return e.eid < e_prime.eid


def diverges(a: Blockchain, b: Blockchain) -> bool:
    """``True`` iff neither chain is a prefix of the other."""
    return not (a.is_prefix_of(b) or b.is_prefix_of(a))


def bounded(reference):
    """A reference result (or report) under the count + first-witnesses contract.

    The oracle words every violation; the live checkers count them all and
    word the first :data:`WITNESS_LIMIT`.  ``checker_result ==
    bounded(oracle_result)`` therefore compares name, verdict, count, the
    witnesses and ``details`` in one equality.
    """
    if isinstance(reference, ConsistencyReport):
        return replace(reference, results=tuple(bounded(r) for r in reference.results))
    return replace(
        reference,
        violations=reference.violations[:WITNESS_LIMIT],
        count=len(reference.violations),
    )


def all_pairs_eventual_prefix(
    history: History, score: Optional[ScoreFunction] = None
) -> PropertyResult:
    """Eventual Prefix over *every* pair of later reads (no limit views)."""
    scorer = score if score is not None else LengthScore()
    return _ReferenceEventualPrefixChecker(scorer, require_all_pairs=True).check(history)


@dataclass(frozen=True)
class _ReferenceBlockValidityChecker:
    """Brute-force oracle: revalidate every block of every read."""

    validator: Optional[BlockValidator] = None

    name: str = "block-validity"

    def check(self, history: History) -> PropertyResult:
        violations: List[str] = []
        appended: Dict[str, int] = {}
        for inv in history.append_invocations():
            block = inv.argument
            if isinstance(block, Block):
                # Earliest append invocation time for each block id.
                appended.setdefault(block.block_id, inv.eid)

        for read in history.read_responses():
            chain = read.chain
            for block in chain:
                if block.is_genesis:
                    continue
                if self.validator is not None and not self.validator(block):
                    violations.append(
                        f"read {read.eid} at {read.process} returned invalid "
                        f"block {block.block_id}"
                    )
                first_append = appended.get(block.block_id)
                if first_append is None:
                    violations.append(
                        f"read {read.eid} at {read.process} returned block "
                        f"{block.block_id} that was never appended"
                    )
                elif first_append >= read.eid:
                    violations.append(
                        f"read {read.eid} at {read.process} returned block "
                        f"{block.block_id} appended only later (event {first_append})"
                    )
        return PropertyResult(self.name, not violations, tuple(violations))


@dataclass(frozen=True)
class _ReferenceLocalMonotonicReadChecker:
    """Brute-force oracle: rescore both chains of every consecutive pair."""

    score: ScoreFunction = field(default_factory=LengthScore)

    name: str = "local-monotonic-read"

    def check(self, history: History) -> PropertyResult:
        violations: List[str] = []
        for process in history.processes:
            reads = history.read_responses(process)
            for earlier, later in zip(reads, reads[1:]):
                s_earlier = self.score(earlier.chain)
                s_later = self.score(later.chain)
                if s_earlier > s_later:
                    violations.append(
                        f"process {process}: read {earlier.eid} scored {s_earlier} "
                        f"but later read {later.eid} scored {s_later}"
                    )
        return PropertyResult(self.name, not violations, tuple(violations))


@dataclass(frozen=True)
class _ReferenceStrongPrefixChecker:
    """Brute-force oracle: element-wise chain comparison per read pair."""

    name: str = "strong-prefix"

    def check(self, history: History) -> PropertyResult:
        violations: List[str] = []
        reads = history.read_responses()
        for i in range(len(reads)):
            chain_i = reads[i].chain
            for j in range(i + 1, len(reads)):
                chain_j = reads[j].chain
                if diverges(chain_i, chain_j):
                    violations.append(
                        f"reads {reads[i].eid} ({reads[i].process}) and "
                        f"{reads[j].eid} ({reads[j].process}) returned diverging "
                        f"chains {chain_i} vs {chain_j}"
                    )
        return PropertyResult(self.name, not violations, tuple(violations))


@dataclass(frozen=True)
class _ReferenceEverGrowingTreeChecker:
    """Brute-force oracle: rescan the whole read list per read."""

    score: ScoreFunction = field(default_factory=LengthScore)
    stall_threshold: Optional[int] = None

    name: str = "ever-growing-tree"

    def check(self, history: History) -> PropertyResult:
        violations: List[str] = []
        stalled: Dict[int, int] = {}
        reads = history.read_responses()
        scores = [self.score(r.chain) for r in reads]
        for i, read in enumerate(reads):
            s = scores[i]
            later = [
                (other, scores[j])
                for j, other in enumerate(reads)
                if precedes(read, other)
            ]
            if not later:
                continue
            not_growing = [o for o, sc in later if sc <= s]
            grew = any(sc > s for _, sc in later)
            if not grew:
                stalled[read.eid] = len(not_growing)
                if (
                    self.stall_threshold is not None
                    and len(not_growing) >= self.stall_threshold
                ):
                    violations.append(
                        f"read {read.eid} at {read.process} (score {s}) is followed "
                        f"by {len(not_growing)} reads none of which exceeds its score"
                    )
        return PropertyResult(
            self.name,
            not violations,
            tuple(violations),
            details={"stalled_reads": stalled},
        )


@dataclass(frozen=True)
class _ReferenceEventualPrefixChecker:
    """Brute-force oracle: rebuild limit views and mcps per read."""

    score: ScoreFunction = field(default_factory=LengthScore)
    require_all_pairs: bool = False

    name: str = "eventual-prefix"

    def check(self, history: History) -> PropertyResult:
        violations: List[str] = []
        reads = history.read_responses()
        scores = {r.eid: self.score(r.chain) for r in reads}

        for read in reads:
            s = scores[read.eid]
            later = [r for r in reads if precedes(read, r)]
            if not later:
                continue
            if self.require_all_pairs:
                candidates = later
            else:
                last_per_process: Dict[str, Event] = {}
                for r in later:
                    last_per_process[r.process] = r  # later reads are time-ordered
                candidates = list(last_per_process.values())
            for i in range(len(candidates)):
                for j in range(i + 1, len(candidates)):
                    a, b = candidates[i], candidates[j]
                    if not diverges(a.chain, b.chain):
                        continue
                    shared = mcps(a.chain, b.chain, self.score)
                    if shared < s:
                        violations.append(
                            f"after read {read.eid} (score {s}), reads {a.eid} "
                            f"({a.process}) and {b.eid} ({b.process}) share a prefix "
                            f"of score only {shared}"
                        )
        return PropertyResult(self.name, not violations, tuple(violations))


def _reference_strong_consistency(
    history: History,
    score: Optional[ScoreFunction] = None,
    validator: Optional[BlockValidator] = None,
    stall_threshold: Optional[int] = None,
) -> ConsistencyReport:
    """SC through the brute-force oracles (the equivalence tests)."""
    scorer = score if score is not None else LengthScore()
    results = (
        _ReferenceBlockValidityChecker(validator).check(history),
        _ReferenceLocalMonotonicReadChecker(scorer).check(history),
        _ReferenceStrongPrefixChecker().check(history),
        _ReferenceEverGrowingTreeChecker(scorer, stall_threshold).check(history),
    )
    return ConsistencyReport("BT Strong Consistency", results)


def _reference_eventual_consistency(
    history: History,
    score: Optional[ScoreFunction] = None,
    validator: Optional[BlockValidator] = None,
    stall_threshold: Optional[int] = None,
    require_all_pairs: bool = False,
) -> ConsistencyReport:
    """EC through the brute-force oracles (the equivalence tests)."""
    scorer = score if score is not None else LengthScore()
    results = (
        _ReferenceBlockValidityChecker(validator).check(history),
        _ReferenceLocalMonotonicReadChecker(scorer).check(history),
        _ReferenceEverGrowingTreeChecker(scorer, stall_threshold).check(history),
        _ReferenceEventualPrefixChecker(scorer, require_all_pairs).check(history),
    )
    return ConsistencyReport("BT Eventual Consistency", results)
