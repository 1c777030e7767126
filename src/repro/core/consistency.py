"""BT consistency criteria (Definitions 3.2–3.4).

The paper defines two consistency criteria over concurrent histories of
the BT-ADT, each a conjunction of properties:

* **BT Strong Consistency (SC)** = Block Validity ∧ Local Monotonic Read ∧
  Strong Prefix ∧ Ever Growing Tree.
* **BT Eventual Consistency (EC)** = Block Validity ∧ Local Monotonic Read ∧
  Ever Growing Tree ∧ Eventual Prefix.

Every property checker below returns a :class:`PropertyResult`: the
verdict, the number of violations (``count``) and the first
:data:`WITNESS_LIMIT` of them in words (the offending events and chains),
because the theorem-level benches and the examples want to show *why* a
history fails, not merely that it does.

Performance
-----------

The checkers run on every classified run.  Compared chain by chain, the
pair properties cost O(R²·L) on R reads of chain length L; they read a
:class:`~repro.core.consistency_index.ConsistencyIndex` instead — the
union tree of all read results, the read table and the append map — and
nothing else (``history`` only builds an index when the caller has none).
Divergence / ``mcps`` / chain scores are O(1) queries there, the read
scores are computed once for the three properties that compare them, and
the pair properties *count* instead of enumerating, on violating
histories too.  Strong Prefix takes all pairs minus the comparable ones
(tip multiplicities accumulated root-first); Eventual Prefix tests each
diverging pair of final reads once against the running maximum of the
scores read before it and counts with one offline dominance sweep.  A
check is O(R·log V + P²) for V blocks and P processes, and a result holds
at most :data:`WITNESS_LIMIT` strings however many pairs violate: the
first ones in the brute-force order, found without visiting the others.

Each property is decided here and nowhere else: the streaming
:class:`~repro.core.consistency_index.ConsistencyMonitor` feeds an index
while the run is recorded and passes it to :func:`check_consistency`.
The brute-force checkers (``tests/core/reference_consistency.py``) are
the oracle: verdict, count, witnesses and ``details`` must match exactly.
The ledger rows ``core.consistency.{strong_fork,strong_chain,eventual}_s``
(``benchmarks/ledger``) time the checkers.

Finite-prefix interpretation
----------------------------

Ever Growing Tree and Eventual Prefix quantify over infinite histories
("the set of later reads ... is finite").  A finite recorded execution is
always a *prefix* of such a history, so literal evaluation would accept
everything.  We follow the standard prefix interpretation (this section
is its statement; ``tests/core/test_consistency.py`` pins both rules):

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

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.block import Block
from repro.core.consistency_index import ConsistencyIndex, count_exceeding_before
from repro.core.history import Event, History
from repro.core.score import LengthScore, ScoreFunction

__all__ = [
    "WITNESS_LIMIT",
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
    "check_consistency",
]

BlockValidator = Callable[[Block], bool]

#: How many violations a :class:`PropertyResult` words; ``count`` has all.
WITNESS_LIMIT = 10


@dataclass(frozen=True)
class PropertyResult:
    """Verdict of a single consistency property on a history.

    ``count`` is the number of violations and ``violations`` words the
    first :data:`WITNESS_LIMIT` of them, in the order a brute-force
    enumeration meets them.
    """

    name: str
    holds: bool
    violations: Tuple[str, ...] = ()
    details: Dict[str, object] = field(default_factory=dict)
    count: int = 0

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        status = "OK" if self.holds else "VIOLATED"
        lines = [f"{self.name}: {status}"]
        lines.extend(f"  - {v}" for v in self.violations[:WITNESS_LIMIT])
        if self.count > WITNESS_LIMIT:
            lines.append(f"  ... and {self.count - WITNESS_LIMIT} more")
        return "\n".join(lines)


class _Witnesses:
    """Every violation counted, the first :data:`WITNESS_LIMIT` worded."""

    def __init__(self) -> None:
        self.count = 0
        self.texts: List[str] = []

    def add(self, text: str) -> None:
        self.count += 1
        if self.count <= WITNESS_LIMIT:
            self.texts.append(text)

    def result(self, name: str, details: Optional[Dict[str, object]] = None) -> PropertyResult:
        return PropertyResult(name, not self.count, tuple(self.texts), details or {}, self.count)


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


def _shared_index(
    history: Optional[History], index: Optional[ConsistencyIndex]
) -> ConsistencyIndex:
    """The index a check reads, and all it reads: ``history`` only builds a missing one."""
    if index is None:
        if history is None:
            raise ValueError("a consistency check needs a history or an index")
        index = ConsistencyIndex.from_history(history)
    return index


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
        self, history: Optional[History], index: Optional[ConsistencyIndex] = None
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

        found = _Witnesses()
        for read in index.reads:
            if path_bad.get(index.read_tip(read.eid), 0) == 0:
                continue
            # Possibly-bad block on the path: walk the chain and apply the
            # exact per-(read, block) rules of the reference oracle.
            for block in read.chain:
                if block.is_genesis:
                    continue
                if validator is not None and not is_valid(block):
                    found.add(
                        f"read {read.eid} at {read.process} returned invalid "
                        f"block {block.block_id}"
                    )
                first_append = index.first_append(block.block_id)
                if first_append is None:
                    found.add(
                        f"read {read.eid} at {read.process} returned block "
                        f"{block.block_id} that was never appended"
                    )
                elif first_append >= read.eid:
                    found.add(
                        f"read {read.eid} at {read.process} returned block "
                        f"{block.block_id} appended only later (event {first_append})"
                    )
        return found.result(self.name)


@dataclass(frozen=True)
class LocalMonotonicReadChecker:
    """Local Monotonic Read: per-process read scores never decrease."""

    score: ScoreFunction = field(default_factory=LengthScore)

    name: str = "local-monotonic-read"

    def check(
        self, history: Optional[History], index: Optional[ConsistencyIndex] = None
    ) -> PropertyResult:
        index = _shared_index(history, index)
        reads, scores = index.reads, index.read_scores(self.score)
        last: Dict[str, int] = {}  # per process, where its latest read is
        drops: List[Tuple[str, int, int]] = []
        for i, read in enumerate(reads):
            k = last.get(read.process)
            if k is not None and scores[k] > scores[i]:
                drops.append((read.process, k, i))
            last[read.process] = i
        found = _Witnesses()
        for process, k, i in sorted(drops):  # the reference order: by process
            found.add(
                f"process {process}: read {reads[k].eid} scored {scores[k]} "
                f"but later read {reads[i].eid} scored {scores[i]}"
            )
        return found.result(self.name)


@dataclass(frozen=True)
class StrongPrefixChecker:
    """Strong Prefix: every pair of read results is prefix-related.

    The verdict and the count come from one pass over the analysis tree
    (:meth:`ConsistencyIndex.diverging_pair_count`), O(V + R).  Only a
    violated history pays for witnesses: a backward sweep tells how many
    later reads diverge from each read, so the enumeration in reference
    order (``i`` then ``j`` ascending) skips the reads with none and stops
    scanning a read once its pairs are all found.
    """

    name: str = "strong-prefix"

    def check(
        self, history: Optional[History], index: Optional[ConsistencyIndex] = None
    ) -> PropertyResult:
        index = _shared_index(history, index)
        reads = index.reads
        tips = [index.read_tip(r.eid) for r in reads]
        count = index.diverging_pair_count(tips)
        if not count:
            return PropertyResult(self.name, True)
        witnesses = islice(self._witnesses(reads, tips, index), WITNESS_LIMIT)
        return PropertyResult(self.name, False, tuple(witnesses), count=count)

    @staticmethod
    def _witnesses(
        reads: Sequence[Event], tips: Sequence[str], index: ConsistencyIndex
    ) -> Iterator[str]:
        for i, pending in enumerate(index.later_diverging_counts(tips)):
            j = i
            while pending:
                j += 1
                if not index.prefix_related(tips[i], tips[j]):
                    pending -= 1
                    yield (
                        f"reads {reads[i].eid} ({reads[i].process}) and "
                        f"{reads[j].eid} ({reads[j].process}) returned diverging "
                        f"chains {reads[i].chain} vs {reads[j].chain}"
                    )


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
        self, history: Optional[History], index: Optional[ConsistencyIndex] = None
    ) -> PropertyResult:
        index = _shared_index(history, index)
        reads, scores = index.reads, index.read_scores(self.score)
        n = len(reads)
        # suffix_max[i] = max score of reads[i+1:]; undefined for the last read.
        suffix_max: List[float] = [0.0] * n
        running: Optional[float] = None
        for i in range(n - 1, -1, -1):
            if running is not None:
                suffix_max[i] = running
            running = scores[i] if running is None or scores[i] > running else running

        found = _Witnesses()
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
                found.add(
                    f"read {read.eid} at {read.process} (score {s}) is followed "
                    f"by {count} reads none of which exceeds its score"
                )
        return found.result(self.name, {"stalled_reads": stalled})


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

    A process's limit read after ``r`` is its *final* read, as long as it
    reads after ``r`` at all, so the pairs to test are the diverging pairs
    of final reads, once each: read ``i`` sees such a pair iff ``i`` comes
    before both, and objects iff it outscores their shared prefix
    (:meth:`ConsistencyIndex.eventual_prefix_breaches`).  The count is a
    dominance count over those pairs; the witnesses follow the reference
    order — reads ascending, pairs by each process's first read after the
    read — visiting only reads that do object.
    """

    score: ScoreFunction = field(default_factory=LengthScore)

    name: str = "eventual-prefix"

    def check(
        self, history: Optional[History], index: Optional[ConsistencyIndex] = None
    ) -> PropertyResult:
        index = _shared_index(history, index)
        reads, scores = index.reads, index.read_scores(self.score)
        positions: Dict[str, List[int]] = {}  # per process, where it reads
        ceilings: List[Tuple[int, float]] = []  # increase points of the running maximum
        for i, read in enumerate(reads):
            positions.setdefault(read.process, []).append(i)
            if not ceilings or scores[i] > ceilings[-1][1]:
                ceilings.append((i, scores[i]))
        limits = [own[-1] for own in positions.values()]
        # Shared score per breached pair, keyed by its two final reads in
        # order: the pair is seen by the reads before the first of them.
        breached = {
            (cut, other): shared
            for cut, other, shared in index.eventual_prefix_breaches(limits, ceilings, self.score)
        }
        if not breached:
            return PropertyResult(self.name, True)
        count = count_exceeding_before(
            scores, [(cut, shared) for (cut, _), shared in breached.items()]
        )
        witnesses = islice(self._witnesses(reads, scores, positions, breached), WITNESS_LIMIT)
        return PropertyResult(self.name, False, tuple(witnesses), count=count)

    @staticmethod
    def _witnesses(
        reads: Sequence[Event],
        scores: Sequence[float],
        positions: Dict[str, List[int]],
        breached: Dict[Tuple[int, int], float],
    ) -> Iterator[str]:
        # floor[i]: the lowest shared score among the breached pairs read i
        # sees; read i objects to some pair iff it scores above.
        floor = [math.inf] * len(reads)
        for (cut, _), shared in breached.items():
            floor[cut - 1] = min(floor[cut - 1], shared)
        for i in range(len(reads) - 2, -1, -1):
            floor[i] = min(floor[i], floor[i + 1])
        for i, read in enumerate(reads):
            s = scores[i]
            if not s > floor[i]:
                continue
            # Final reads of the processes still reading, by first read after i.
            still_reading = sorted(
                (own[bisect_right(own, i)], own[-1]) for own in positions.values() if own[-1] > i
            )
            finals = [last for _, last in still_reading]
            for x, first in enumerate(finals):
                for second in finals[x + 1 :]:
                    shared = breached.get((first, second) if first < second else (second, first))
                    if shared is not None and shared < s:
                        a, b = reads[first], reads[second]
                        yield (
                            f"after read {read.eid} (score {s}), reads {a.eid} "
                            f"({a.process}) and {b.eid} ({b.process}) share a prefix "
                            f"of score only {shared}"
                        )


# ---------------------------------------------------------------------------
# Criteria (conjunctions)
# ---------------------------------------------------------------------------


_Common = Tuple[PropertyResult, PropertyResult, PropertyResult]


def _common_results(
    criterion: BTStrongConsistency | BTEventualConsistency, index: ConsistencyIndex
) -> _Common:
    """Block Validity, Local Monotonic Read, Ever Growing Tree: what SC and EC share."""
    return (
        BlockValidityChecker(criterion.validator).check(None, index),
        LocalMonotonicReadChecker(criterion.score).check(None, index),
        EverGrowingTreeChecker(criterion.score, criterion.stall_threshold).check(None, index),
    )


@dataclass(frozen=True)
class BTStrongConsistency:
    """The BT Strong Consistency criterion (Definition 3.2).

    The four property checkers share one union index built from the
    history (callers holding an index already pass it in to skip the
    rebuild; :func:`check_consistency` evaluates both criteria at once).
    """

    score: ScoreFunction = field(default_factory=LengthScore)
    validator: Optional[BlockValidator] = None
    stall_threshold: Optional[int] = None

    def check(
        self, history: Optional[History], index: Optional[ConsistencyIndex] = None
    ) -> ConsistencyReport:
        index = _shared_index(history, index)
        return self._report(_common_results(self, index), index)

    def _report(self, common: _Common, index: ConsistencyIndex) -> ConsistencyReport:
        validity, monotonic, growing = common
        strong_prefix = StrongPrefixChecker().check(None, index)
        return ConsistencyReport(
            "BT Strong Consistency", (validity, monotonic, strong_prefix, growing)
        )


@dataclass(frozen=True)
class BTEventualConsistency:
    """The BT Eventual Consistency criterion (Definition 3.4)."""

    score: ScoreFunction = field(default_factory=LengthScore)
    validator: Optional[BlockValidator] = None
    stall_threshold: Optional[int] = None

    def check(
        self, history: Optional[History], index: Optional[ConsistencyIndex] = None
    ) -> ConsistencyReport:
        index = _shared_index(history, index)
        return self._report(_common_results(self, index), index)

    def _report(self, common: _Common, index: ConsistencyIndex) -> ConsistencyReport:
        eventual_prefix = EventualPrefixChecker(self.score).check(None, index)
        return ConsistencyReport("BT Eventual Consistency", (*common, eventual_prefix))


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


def check_consistency(
    history: Optional[History],
    score: Optional[ScoreFunction] = None,
    validator: Optional[BlockValidator] = None,
    stall_threshold: Optional[int] = None,
    index: Optional[ConsistencyIndex] = None,
) -> Tuple[ConsistencyReport, ConsistencyReport]:
    """The SC and EC reports of one history, as ``(strong, eventual)``.

    One index — built from ``history``, or the caller's: the streaming
    :class:`~repro.core.consistency_index.ConsistencyMonitor` passes the
    one it fed while the run was recorded — and the three properties the
    criteria share evaluated once: both reports hold the same
    :class:`PropertyResult` objects.
    """
    scorer = score if score is not None else LengthScore()
    strong = BTStrongConsistency(scorer, validator, stall_threshold)
    eventual = BTEventualConsistency(scorer, validator, stall_threshold)
    index = _shared_index(history, index)
    common = _common_results(strong, index)
    return strong._report(common, index), eventual._report(common, index)
