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
histories too.  The per-read rules are numpy formulas over the index's
columnar read table (tip node, process code, eid:
:meth:`~repro.core.consistency_index.ConsistencyIndex.read_table`); only
the witnesses are worded one by one, from ``tolist()`` values.  Strong
Prefix takes all pairs minus the comparable ones (tip multiplicities
summed over root paths); Eventual Prefix tests each
diverging pair of final reads once against the running maximum of the
scores read before it and counts with one offline dominance sweep.  A
check is O(R·log V + P²) for V blocks and P processes, and a result holds
at most :data:`WITNESS_LIMIT` strings however many pairs violate: the
first ones in the brute-force order, found without visiting the others.

Each property is decided here and nowhere else: the
:class:`~repro.core.consistency_index.ConsistencyMonitor` fills an index
from a finished history and passes it to :func:`check_consistency`.
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

import numpy as np

from repro.core.block import Block
from repro.core.consistency_index import ConsistencyIndex, count_exceeding_before
from repro.core.history import History
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
        # its first read is clean for every read).  A read needs a look
        # only if a possibly-bad block lies on its tip's root path.
        bad = np.zeros(len(index), dtype=np.int64)
        for node, block_id in enumerate(index.block_ids()):
            block = index.block(block_id)
            if block.is_genesis:
                continue
            if validator is not None and not is_valid(block):
                bad[node] = 1
                continue
            first_append = index.first_append(block_id)
            first_seen = index.first_seen_read(block_id)
            if first_append is None or (first_seen is not None and first_append >= first_seen):
                bad[node] = 1

        found = _Witnesses()
        tips, procs, eids = index.read_table()
        names = index.process_names()
        for i in np.flatnonzero(index.on_path(bad)[tips]).tolist():
            eid = int(eids[i])
            read = f"read {eid} at {names[procs[i]]} returned"
            # Possibly-bad block on the path: walk the chain and apply the
            # exact per-(read, block) rules of the reference oracle.
            for block in index.chains[i]:
                if block.is_genesis:
                    continue
                if validator is not None and not is_valid(block):
                    found.add(f"{read} invalid block {block.block_id}")
                first_append = index.first_append(block.block_id)
                if first_append is None:
                    found.add(f"{read} block {block.block_id} that was never appended")
                elif first_append >= eid:
                    found.add(
                        f"{read} block {block.block_id} appended only later (event {first_append})"
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
        scores = index.read_scores(self.score)
        procs = index.read_table()[1]
        # Each read against its process's previous one: the reads grouped
        # by process, in arrival order within a group.
        order = np.argsort(procs, kind="stable")
        earlier, later = order[:-1], order[1:]
        drop = (procs[earlier] == procs[later]) & (scores[earlier] > scores[later])
        earlier, later = earlier[drop], later[drop]
        names = index.process_names()
        rank = np.empty(len(names), dtype=np.int64)
        rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
        first = np.lexsort((earlier, rank[procs[earlier]]))[:WITNESS_LIMIT]  # by process
        read = index.read
        texts = tuple(
            f"process {read(i).process}: read {read(k).eid} scored {scores_k} "
            f"but later read {read(i).eid} scored {scores_i}"
            for k, i, scores_k, scores_i in zip(
                earlier[first].tolist(),
                later[first].tolist(),
                scores[earlier[first]].tolist(),
                scores[later[first]].tolist(),
            )
        )
        return PropertyResult(self.name, not len(earlier), texts, {}, len(earlier))


@dataclass(frozen=True)
class StrongPrefixChecker:
    """Strong Prefix: every pair of read results is prefix-related.

    The verdict and the count come from one pass over the analysis tree
    (:meth:`ConsistencyIndex.diverging_pair_count`), O(V + R).  Only a
    violated history pays for witnesses: the index tells, per read, the
    last read diverging from it (:meth:`ConsistencyIndex.last_diverging`),
    so the enumeration in reference order (``i`` then ``j`` ascending)
    skips the reads with no later one and stops scanning a read there.
    """

    name: str = "strong-prefix"

    def check(
        self, history: Optional[History], index: Optional[ConsistencyIndex] = None
    ) -> PropertyResult:
        index = _shared_index(history, index)
        tips = index.read_table()[0]
        count = index.diverging_pair_count(tips)
        if not count:
            return PropertyResult(self.name, True)
        witnesses = islice(self._witnesses(tips, index), WITNESS_LIMIT)
        return PropertyResult(self.name, False, tuple(witnesses), count=count)

    @staticmethod
    def _witnesses(tips: np.ndarray, index: ConsistencyIndex) -> Iterator[str]:
        last = index.last_diverging(tips)
        for i in np.flatnonzero(last > np.arange(len(tips))).tolist():
            tip = index.block_id(int(tips[i]))
            for j in range(i + 1, int(last[i]) + 1):
                if not index.prefix_related(tip, index.block_id(int(tips[j]))):
                    a, b = index.read(i), index.read(j)
                    yield (
                        f"reads {a.eid} ({a.process}) and {b.eid} ({b.process}) "
                        f"returned diverging chains {a.chain} vs {b.chain}"
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
        scores = index.read_scores(self.score)
        # Read i is stalled iff no later read outscores it: the maximum of
        # scores[i+1:] (a reversed running maximum) does not exceed its own.
        later_max = np.maximum.accumulate(scores[::-1])[::-1][1:]
        stalled = np.flatnonzero(~(later_max > scores[:-1]))
        counts = len(scores) - 1 - stalled
        eids = index.read_table()[2]
        details = {"stalled_reads": dict(zip(eids[stalled].tolist(), counts.tolist()))}
        if self.stall_threshold is None:
            return PropertyResult(self.name, True, (), details)
        hits = stalled[counts >= self.stall_threshold]
        read = index.read
        texts = tuple(
            f"read {read(i).eid} at {read(i).process} (score {s}) is followed "
            f"by {len(scores) - 1 - i} reads none of which exceeds its score"
            for i, s in zip(
                hits[:WITNESS_LIMIT].tolist(), scores[hits[:WITNESS_LIMIT]].tolist()
            )
        )
        return PropertyResult(self.name, not len(hits), texts, details, len(hits))


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
        scores = index.read_scores(self.score)
        procs = index.read_table()[1]
        # Increase points of the running maximum: the first read, and each
        # read scoring above every read before it.
        first = np.ones(len(scores[:1]), dtype=bool)
        before = np.maximum.accumulate(scores)[:-1]
        rises = np.flatnonzero(np.concatenate((first, scores[1:] > before)))
        ceilings = list(zip(rises.tolist(), scores[rises].tolist()))
        # Each process's final read, in process-code order.
        _, from_end = np.unique(procs[::-1], return_index=True)
        limits = (len(scores) - 1 - from_end).tolist()
        # Shared score per breached pair, keyed by its two final reads in
        # order: the pair is seen by the reads before the first of them.
        breached = {
            (cut, other): shared
            for cut, other, shared in index.eventual_prefix_breaches(limits, ceilings, self.score)
        }
        if not breached:
            return PropertyResult(self.name, True)
        values = scores.tolist()
        count = count_exceeding_before(
            values, [(cut, shared) for (cut, _), shared in breached.items()]
        )
        positions: Dict[int, List[int]] = {}  # per process, where it reads
        for i, code in enumerate(procs.tolist()):
            positions.setdefault(code, []).append(i)
        witnesses = islice(self._witnesses(index, values, positions, breached), WITNESS_LIMIT)
        return PropertyResult(self.name, False, tuple(witnesses), count=count)

    @staticmethod
    def _witnesses(
        index: ConsistencyIndex,
        scores: Sequence[float],
        positions: Dict[int, List[int]],
        breached: Dict[Tuple[int, int], float],
    ) -> Iterator[str]:
        # floor[i]: the lowest shared score among the breached pairs read i
        # sees; read i objects to some pair iff it scores above.
        floor = [math.inf] * len(scores)
        for (cut, _), shared in breached.items():
            floor[cut - 1] = min(floor[cut - 1], shared)
        for i in range(len(scores) - 2, -1, -1):
            floor[i] = min(floor[i], floor[i + 1])
        for i, s in enumerate(scores):
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
                        a, b = index.read(first), index.read(second)
                        yield (
                            f"after read {index.read(i).eid} (score {s}), reads {a.eid} "
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

    One index — built from ``history``, or the caller's: the
    :class:`~repro.core.consistency_index.ConsistencyMonitor` passes the
    one it filled from the history it replayed — and the three properties
    the criteria share evaluated once: both reports hold the same
    :class:`PropertyResult` objects.
    """
    scorer = score if score is not None else LengthScore()
    strong = BTStrongConsistency(scorer, validator, stall_threshold)
    eventual = BTEventualConsistency(scorer, validator, stall_threshold)
    index = _shared_index(history, index)
    common = _common_results(strong, index)
    return strong._report(common, index), eventual._report(common, index)
