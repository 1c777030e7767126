"""BT consistency criteria (Definitions 3.2–3.4).

The paper defines two consistency criteria over concurrent histories of
the BT-ADT, each a conjunction of properties:

* **BT Strong Consistency (SC)** = Block Validity ∧ Local Monotonic Read ∧
  Strong Prefix ∧ Ever Growing Tree.
* **BT Eventual Consistency (EC)** = Block Validity ∧ Local Monotonic Read ∧
  Ever Growing Tree ∧ Eventual Prefix.

Every property checker below returns a :class:`PropertyResult` carrying a
boolean verdict *and* the witnesses of any violation (the offending events
and chains), because the theorem-level benches and the examples want to
show *why* a history fails, not merely that it does.

Performance
-----------

The checkers are evaluated on every classified run, and the original
implementations compared chains element-by-element for every pair of
reads — O(R²·L) on a history with R reads of chain length L, which made
analysing a long run cost far more than simulating it.  They now share a
:class:`~repro.core.consistency_index.ConsistencyIndex`: all read results
are merged into one analysis tree, chains are represented by their tips,
and divergence / ``mcps`` / chain scores become O(1) index queries — so a
criterion check is near-linear in the history size (plus the size of the
violation report itself, which both implementations must materialize).
The pre-index implementations are kept verbatim as the ``_Reference*``
oracles below: the randomized equivalence tests
(``tests/core/test_consistency_equivalence.py``) assert the rewritten
checkers reproduce their verdicts, violation strings and ``details``
byte-for-byte.  The indexed checkers are timed by the ledger rows
``core.consistency.{strong_fork,strong_chain,eventual}_s``
(``benchmarks/ledger``).

Finite-prefix interpretation
----------------------------

Ever Growing Tree and Eventual Prefix quantify over infinite histories
("the set of later reads ... is finite").  A finite recorded execution is
always a *prefix* of such a history, so literal evaluation would accept
everything.  We follow the standard prefix interpretation (documented in
DESIGN.md §5):

* *Ever Growing Tree* — a violation is reported only when a read of score
  ``s`` is followed by at least ``stall_threshold`` later reads, **all** of
  score ``≤ s`` (i.e. growth visibly stalled within the trace).  With the
  default ``stall_threshold=None`` the property is treated as
  non-falsifiable on finite traces (it always passes, but the result still
  reports the stalled reads so analyses can inspect them).

* *Eventual Prefix* — for each read of score ``s`` we look at the *final*
  read of every process that reads afterwards: those limit reads must
  pairwise share a common prefix of score ``≥ s``.  This captures "the
  divergent interval is finite" on a finite trace: by the end of the trace
  the replicas' latest views agree at least up to ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.block import Block, Blockchain
from repro.core.consistency_index import ConsistencyIndex
from repro.core.history import Event, History
from repro.core.score import LengthScore, ScoreFunction, mcps

__all__ = [
    "PropertyResult",
    "ConsistencyReport",
    "BlockValidityChecker",
    "LocalMonotonicReadChecker",
    "StrongPrefixChecker",
    "EverGrowingTreeChecker",
    "EventualPrefixChecker",
    "BTStrongConsistency",
    "BTEventualConsistency",
    "check_strong_consistency",
    "check_eventual_consistency",
]

BlockValidator = Callable[[Block], bool]


@dataclass(frozen=True)
class PropertyResult:
    """Verdict of a single consistency property on a history."""

    name: str
    holds: bool
    violations: Tuple[str, ...] = ()
    details: Dict[str, object] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        status = "OK" if self.holds else "VIOLATED"
        lines = [f"{self.name}: {status}"]
        lines.extend(f"  - {v}" for v in self.violations[:10])
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class ConsistencyReport:
    """Aggregate verdict of a criterion (conjunction of properties)."""

    criterion: str
    results: Tuple[PropertyResult, ...]

    @property
    def holds(self) -> bool:
        return all(r.holds for r in self.results)

    def __bool__(self) -> bool:
        return self.holds

    def result_for(self, name: str) -> PropertyResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)

    def describe(self) -> str:
        header = f"{self.criterion}: {'SATISFIED' if self.holds else 'NOT SATISFIED'}"
        return "\n".join([header] + [r.describe() for r in self.results])


def _shared_index(history: History, index: Optional[ConsistencyIndex]) -> ConsistencyIndex:
    """The union index backing a check: reuse the caller's or build one."""
    return index if index is not None else ConsistencyIndex.from_history(history)


# ---------------------------------------------------------------------------
# Individual properties
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockValidityChecker:
    """Block validity (Definition 3.2, first bullet).

    Every block of every chain returned by a read must (i) be valid and
    (ii) have been introduced by an ``append`` invocation that precedes the
    read response in program order.

    ``validator`` decides membership in ``B'``; the default accepts every
    block (matching executions driven by :class:`~repro.core.validity.AlwaysValid`),
    and callers that stage invalid blocks pass an explicit validator.
    The genesis block is exempt (it is valid by assumption and never
    appended).

    The check is index-backed: the validator verdict is memoized per
    block id (instead of revalidating a block once per read returning
    it), the earliest-append map comes off the shared index (built once
    per history), and reads whose chains contain no *possibly bad* block
    — decided by a per-block flag pushed down the analysis tree — are
    skipped without walking their chains at all.
    """

    validator: Optional[BlockValidator] = None

    name: str = "block-validity"

    def check(
        self, history: History, index: Optional[ConsistencyIndex] = None
    ) -> PropertyResult:
        index = _shared_index(history, index)
        validator = self.validator
        verdict_memo: Dict[str, bool] = {}

        def is_valid(block: Block) -> bool:
            verdict = verdict_memo.get(block.block_id)
            if verdict is None:
                assert validator is not None
                verdict = verdict_memo[block.block_id] = bool(validator(block))
            return verdict

        # A block is *possibly bad* if it is invalid, never appended, or
        # appended no earlier than the first read returning it (any later
        # read can only have a larger eid, so a block that is clean for
        # its first read is clean for every read).  ``path_bad`` counts
        # possibly-bad blocks on the root path; insertion order is
        # parents-first, so one forward pass suffices.
        path_bad: Dict[str, int] = {}
        for block_id in index.block_ids():
            block = index.block(block_id)
            if block.is_genesis:
                path_bad[block_id] = 0
                continue
            bad = validator is not None and not is_valid(block)
            if not bad:
                first_append = index.first_append(block_id)
                first_seen = index.first_seen_read(block_id)
                bad = first_append is None or (
                    first_seen is not None and first_append >= first_seen
                )
            parent = index.parent_of(block_id)
            assert parent is not None
            path_bad[block_id] = path_bad[parent] + (1 if bad else 0)

        violations: List[str] = []
        for read in history.read_responses():
            if path_bad.get(index.read_tip(read.eid), 0) == 0:
                continue
            # Possibly-bad block on the path: walk the chain and apply the
            # exact per-(read, block) rules of the reference oracle.
            for block in read.chain:
                if block.is_genesis:
                    continue
                if validator is not None and not is_valid(block):
                    violations.append(
                        f"read {read.eid} at {read.process} returned invalid "
                        f"block {block.block_id}"
                    )
                first_append = index.first_append(block.block_id)
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
class LocalMonotonicReadChecker:
    """Local Monotonic Read: per-process read scores never decrease."""

    score: ScoreFunction = field(default_factory=LengthScore)

    name: str = "local-monotonic-read"

    def check(
        self, history: History, index: Optional[ConsistencyIndex] = None
    ) -> PropertyResult:
        index = _shared_index(history, index)
        violations: List[str] = []
        for process in history.processes:
            reads = history.read_responses(process)
            scores = [index.score_of_read(r, self.score) for r in reads]
            for k in range(len(reads) - 1):
                s_earlier, s_later = scores[k], scores[k + 1]
                if s_earlier > s_later:
                    violations.append(
                        f"process {process}: read {reads[k].eid} scored {s_earlier} "
                        f"but later read {reads[k + 1].eid} scored {s_later}"
                    )
        return PropertyResult(self.name, not violations, tuple(violations))


@dataclass(frozen=True)
class StrongPrefixChecker:
    """Strong Prefix: every pair of read results is prefix-related.

    Fast path: the property holds iff every distinct tip lies on one root
    path of the analysis tree — verified by sorting the tips by height
    and checking consecutive ancestry (ancestry is transitive), O(R log R)
    instead of O(R²·L).  Only when that fails does the checker fall back
    to the pairwise sweep, with O(1) divergence tests, to reproduce the
    reference violation list exactly.
    """

    name: str = "strong-prefix"

    def check(
        self, history: History, index: Optional[ConsistencyIndex] = None
    ) -> PropertyResult:
        index = _shared_index(history, index)
        reads = history.read_responses()
        tips = [index.read_tip(r.eid) for r in reads]
        if index.tips_totally_ordered(tips):
            return PropertyResult(self.name, True, ())

        violations: List[str] = []
        for i in range(len(reads)):
            tip_i = tips[i]
            for j in range(i + 1, len(reads)):
                if not index.prefix_related(tip_i, tips[j]):
                    violations.append(
                        f"reads {reads[i].eid} ({reads[i].process}) and "
                        f"{reads[j].eid} ({reads[j].process}) returned diverging "
                        f"chains {reads[i].chain} vs {reads[j].chain}"
                    )
        return PropertyResult(self.name, not violations, tuple(violations))


@dataclass(frozen=True)
class EverGrowingTreeChecker:
    """Ever Growing Tree, under the finite-prefix interpretation.

    ``stall_threshold=None`` (default): the property is reported as
    holding, with the stalled-read statistics placed in ``details`` for
    inspection.  With an integer threshold ``n``, a violation is reported
    for a read of score ``s`` whenever at least ``n`` later reads exist and
    *none* of the later reads exceeds ``s``.

    One backward sweep computes the suffix maxima of the (index-backed)
    read scores; a read is stalled iff the suffix maximum of the later
    reads does not exceed its own score, in which case *every* later read
    is non-growing and the stall count is just the number of later reads.
    """

    score: ScoreFunction = field(default_factory=LengthScore)
    stall_threshold: Optional[int] = None

    name: str = "ever-growing-tree"

    def check(
        self, history: History, index: Optional[ConsistencyIndex] = None
    ) -> PropertyResult:
        index = _shared_index(history, index)
        reads = history.read_responses()
        n = len(reads)
        scores = [index.score_of_read(r, self.score) for r in reads]
        # suffix_max[i] = max score of reads[i+1:]; undefined for the last read.
        suffix_max: List[float] = [0.0] * n
        running: Optional[float] = None
        for i in range(n - 1, -1, -1):
            if running is not None:
                suffix_max[i] = running
            running = scores[i] if running is None or scores[i] > running else running

        violations: List[str] = []
        stalled: Dict[int, int] = {}
        for i, read in enumerate(reads):
            if i == n - 1:
                continue  # no later reads
            s = scores[i]
            if suffix_max[i] > s:
                continue  # the tree visibly grew past this read
            count = n - 1 - i
            stalled[read.eid] = count
            if self.stall_threshold is not None and count >= self.stall_threshold:
                violations.append(
                    f"read {read.eid} at {read.process} (score {s}) is followed "
                    f"by {count} reads none of which exceeds its score"
                )
        return PropertyResult(
            self.name,
            not violations,
            tuple(violations),
            details={"stalled_reads": stalled},
        )


@dataclass(frozen=True)
class EventualPrefixChecker:
    """Eventual Prefix (Definition 3.3), finite-prefix interpretation.

    For every read response ``r`` of score ``s``: consider, among the reads
    whose response follows ``r``, the *last* read of each process.  Those
    limit reads must pairwise share a maximal common prefix of score
    ``≥ s`` **or** be prefix-related.  (On the paper's infinite histories
    the criterion says "only finitely many later pairs diverge below
    ``s``"; a finite trace witnesses a violation when its final views hold
    *conflicting branches* below ``s``.  A pair where one chain simply lags
    behind the other is not counted as divergent: under Ever Growing Tree
    the lag is transient, and exempting it is what keeps the finite-prefix
    interpretation consistent with Theorem 3.1, ``H_SC ⊆ H_EC``.)

    Setting ``require_all_pairs=True`` strengthens the check to *every*
    pair of later reads (not just the limit reads); that stricter variant
    rejects any history with a transient fork and is used in tests to
    discriminate the two interpretations.

    The default mode runs as one backward sweep maintaining the limit
    views: each process's limit read is fixed the first time the sweep
    meets it, and the candidate *order* (first occurrence of each process
    among the later reads, matching the reference oracle's insertion
    order) is a move-to-front list.  Divergence tests are O(1) and the
    shared-prefix scores come off the LCA indexes, memoized per tip pair.
    """

    score: ScoreFunction = field(default_factory=LengthScore)
    require_all_pairs: bool = False

    name: str = "eventual-prefix"

    def check(
        self, history: History, index: Optional[ConsistencyIndex] = None
    ) -> PropertyResult:
        index = _shared_index(history, index)
        reads = history.read_responses()
        n = len(reads)
        scores = [index.score_of_read(r, self.score) for r in reads]
        tips = {r.eid: index.read_tip(r.eid) for r in reads}
        pair_memo: Dict[Tuple[str, str], float] = {}

        def pair_mcps(a: Event, b: Event) -> float:
            tip_a, tip_b = tips[a.eid], tips[b.eid]
            key = (tip_a, tip_b) if tip_a <= tip_b else (tip_b, tip_a)
            value = pair_memo.get(key)
            if value is None:
                value = pair_memo[key] = index.mcps_of_tips(
                    tip_a, tip_b, self.score, chains=(a.chain, b.chain)
                )
            return value

        if self.require_all_pairs:
            candidates_for = None  # sliced lazily below: every later read
        else:
            # Backward sweep: limit[p] is p's last read in the suffix (set
            # once), ``order`` tracks processes by first occurrence in the
            # suffix (move-to-front on prepend).
            limit: Dict[str, Event] = {}
            order: List[str] = []
            candidates_for = [()] * n
            for i in range(n - 1, -1, -1):
                candidates_for[i] = tuple(limit[p] for p in order)
                prepended = reads[i]
                process = prepended.process
                if process not in limit:
                    limit[process] = prepended
                    order.insert(0, process)
                elif order[0] != process:
                    order.remove(process)
                    order.insert(0, process)

        violations: List[str] = []
        for i, read in enumerate(reads):
            candidates = reads[i + 1 :] if candidates_for is None else candidates_for[i]
            if not candidates:
                continue
            s = scores[i]
            for x in range(len(candidates)):
                tip_x = tips[candidates[x].eid]
                for y in range(x + 1, len(candidates)):
                    a, b = candidates[x], candidates[y]
                    if index.prefix_related(tip_x, tips[b.eid]):
                        continue
                    shared = pair_mcps(a, b)
                    if shared < s:
                        violations.append(
                            f"after read {read.eid} (score {s}), reads {a.eid} "
                            f"({a.process}) and {b.eid} ({b.process}) share a prefix "
                            f"of score only {shared}"
                        )
        return PropertyResult(self.name, not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Criteria (conjunctions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BTStrongConsistency:
    """The BT Strong Consistency criterion (Definition 3.2).

    The four property checkers share one union index built from the
    history (callers holding an index already — e.g. the classifier
    evaluating both criteria — pass it in to skip the rebuild).
    """

    score: ScoreFunction = field(default_factory=LengthScore)
    validator: Optional[BlockValidator] = None
    stall_threshold: Optional[int] = None

    def check(
        self, history: History, index: Optional[ConsistencyIndex] = None
    ) -> ConsistencyReport:
        index = _shared_index(history, index)
        results = (
            BlockValidityChecker(self.validator).check(history, index),
            LocalMonotonicReadChecker(self.score).check(history, index),
            StrongPrefixChecker().check(history, index),
            EverGrowingTreeChecker(self.score, self.stall_threshold).check(history, index),
        )
        return ConsistencyReport("BT Strong Consistency", results)


@dataclass(frozen=True)
class BTEventualConsistency:
    """The BT Eventual Consistency criterion (Definition 3.4)."""

    score: ScoreFunction = field(default_factory=LengthScore)
    validator: Optional[BlockValidator] = None
    stall_threshold: Optional[int] = None
    require_all_pairs: bool = False

    def check(
        self, history: History, index: Optional[ConsistencyIndex] = None
    ) -> ConsistencyReport:
        index = _shared_index(history, index)
        results = (
            BlockValidityChecker(self.validator).check(history, index),
            LocalMonotonicReadChecker(self.score).check(history, index),
            EverGrowingTreeChecker(self.score, self.stall_threshold).check(history, index),
            EventualPrefixChecker(self.score, self.require_all_pairs).check(history, index),
        )
        return ConsistencyReport("BT Eventual Consistency", results)


def check_strong_consistency(
    history: History,
    score: Optional[ScoreFunction] = None,
    validator: Optional[BlockValidator] = None,
) -> ConsistencyReport:
    """Convenience wrapper: evaluate SC with default parameters."""
    return BTStrongConsistency(
        score=score if score is not None else LengthScore(),
        validator=validator,
    ).check(history)


def check_eventual_consistency(
    history: History,
    score: Optional[ScoreFunction] = None,
    validator: Optional[BlockValidator] = None,
) -> ConsistencyReport:
    """Convenience wrapper: evaluate EC with default parameters."""
    return BTEventualConsistency(
        score=score if score is not None else LengthScore(),
        validator=validator,
    ).check(history)


# ---------------------------------------------------------------------------
# Reference oracles — the pre-index brute-force implementations
# ---------------------------------------------------------------------------
#
# These reproduce, verbatim, the original O(R²·L) checker code that
# compared materialized chains pair by pair.  They exist for one consumer
# only: the randomized equivalence tests
# (tests/core/test_consistency_equivalence.py) use them as oracles for the
# indexed checkers above (verdicts, violation strings and ``details`` must
# match byte-for-byte).  Do not "optimize" them.


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
                if chain_i.diverges_from(chain_j):
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
                if history.precedes(read, other)
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
            later = [r for r in reads if history.precedes(read, r)]
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
                    if not a.chain.diverges_from(b.chain):
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
