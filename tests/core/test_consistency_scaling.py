"""The prefix checkers at a size the pairwise sweep could not reach.

A 10 000-read, 48-process history whose replicas split over two branches
has ~25 M diverging read pairs: enumerating them (the pre-counting Strong
Prefix fallback) needed minutes and gigabytes.  The bounds below are
deterministic — ancestry queries counted through a subclass of the index,
allocations through ``tracemalloc`` — so they gate on any machine; the
wall-clock side is the ledger's ``read_audit`` workload.
"""

from __future__ import annotations

import math
import tracemalloc

import pytest

from repro.core.block import GENESIS, GENESIS_ID, Block, Blockchain
from repro.core.consistency import (
    WITNESS_LIMIT,
    EventualPrefixChecker,
    StrongPrefixChecker,
    check_consistency,
)
from repro.core.consistency_index import ConsistencyIndex, ConsistencyMonitor
from repro.core.history import HistoryRecorder

from tests.core.reference_consistency import (
    _ReferenceEventualPrefixChecker,
    _ReferenceStrongPrefixChecker,
    bounded,
)

READS = 10_000
PROCESSES = 48


class CountingIndex(ConsistencyIndex):
    """Counts every ancestry query the checkers make."""

    def __init__(self) -> None:
        super().__init__()
        self.queries = 0

    def is_prefix(self, ancestor_id, descendant_id):
        self.queries += 1
        return super().is_prefix(ancestor_id, descendant_id)

    def prefix_related(self, a, b):
        self.queries += 1
        return super().prefix_related(a, b)

    def lowest_common_ancestor(self, a, b):
        self.queries += 1
        return super().lowest_common_ancestor(a, b)


def two_branch_history(resolve: bool, reads: int = READS, rounds_per_height: int = 10):
    """Round-robin reads of 48 processes, half on each of two growing branches.

    With ``resolve`` the last two rounds all read the (longer) first
    branch — the fork heals, the history is EC but not SC.  Without it the
    halves stay apart to the end and the history is neither.  Returns the
    history and the number of reads that returned the second branch.
    """
    fork_reads = reads - 2 * PROCESSES if resolve else reads
    reads_per_height = rounds_per_height * PROCESSES
    top = reads // reads_per_height + 2
    rec = HistoryRecorder()
    chains = {}
    for branch in "ab":
        blocks, parent = [GENESIS], GENESIS_ID
        for height in range(1, top + 1):
            block = Block(f"{branch}{height}", parent)
            rec.complete("appender", "append", block, True)
            blocks.append(block)
            parent = block.block_id
            chains[branch, height] = Blockchain(tuple(blocks))
    on_second_branch = 0
    for k in range(reads):
        process = k % PROCESSES
        if k >= fork_reads:
            chain = chains["a", top]
        elif process < PROCESSES // 2:
            chain = chains["a", 1 + k // reads_per_height]
        else:
            chain = chains["b", 1 + k // reads_per_height]
            on_second_branch += 1
        rec.complete(f"p{process}", "read", None, chain)
    return rec.history(), on_second_branch


def measured_checks(history):
    """Both prefix checks on a counting index, under ``tracemalloc``."""
    index = CountingIndex().ingest(history)
    tracemalloc.start()
    try:
        strong_prefix = StrongPrefixChecker().check(history, index)
        eventual_prefix = EventualPrefixChecker().check(history, index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return strong_prefix, eventual_prefix, index.queries, peak


#: c = 1 in the c·(R·log R + P²) the checkers promise; they use far less.
QUERY_BOUND = READS * math.log2(READS) + PROCESSES**2
PEAK_BOUND = 16 * 2**20


def streamed_prefix_results(history):
    """The same two results asked of a monitor that observed ``history``.

    Observing is intake only — no ancestry query; the ask is the post-hoc
    evaluation, held to the post-hoc bounds; a second ask with no new
    event is answered from the kept reports.
    """
    monitor = ConsistencyMonitor()
    index = monitor.index = CountingIndex()
    monitor.replay(history)
    assert index.queries == 0
    tracemalloc.start()
    try:
        strong, eventual = monitor.reports()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < index.queries <= QUERY_BOUND
    assert peak < PEAK_BOUND
    asked = index.queries
    assert monitor.reports() == (strong, eventual)
    assert (monitor.strong_holds(), monitor.eventual_holds()) == (strong.holds, eventual.holds)
    assert index.queries == asked
    return strong.result_for("strong-prefix"), eventual.result_for("eventual-prefix")


def test_healed_fork_is_ec_not_sc_with_a_counted_verdict():
    history, on_second_branch = two_branch_history(resolve=True)
    assert len(history.read_responses()) == READS
    strong, eventual = check_consistency(history)
    assert not strong.holds and eventual.holds

    strong_prefix, eventual_prefix, queries, peak = measured_checks(history)
    assert strong_prefix == strong.result_for("strong-prefix")
    assert eventual_prefix == eventual.result_for("eventual-prefix")
    # Every read of one branch diverges from every read of the other.
    assert on_second_branch == 4_944
    assert strong_prefix.count == (READS - on_second_branch) * on_second_branch == 24_996_864
    assert len(strong_prefix.violations) == WITNESS_LIMIT
    assert strong_prefix.violations[0].startswith("reads 90 (p0) and 138 (p24) returned")
    assert eventual_prefix.count == 0 and not eventual_prefix.violations
    assert queries <= QUERY_BOUND
    assert peak < PEAK_BOUND
    assert streamed_prefix_results(history) == (strong_prefix, eventual_prefix)


def test_open_fork_counts_every_objecting_read():
    history, on_second_branch = two_branch_history(resolve=False)
    strong_prefix, eventual_prefix, queries, peak = measured_checks(history)
    assert strong_prefix.count == (READS - on_second_branch) * on_second_branch

    # The final reads of the two halves share only the genesis, and every
    # read scores above it: a pair of final reads is objected to by each
    # read before the earlier of the two.
    final = {k % PROCESSES: k for k in range(READS)}
    first_half, second_half = range(PROCESSES // 2), range(PROCESSES // 2, PROCESSES)
    assert not eventual_prefix.holds
    assert eventual_prefix.count == 5_740_512 == sum(
        min(final[a], final[b]) for a in first_half for b in second_half
    )
    assert len(eventual_prefix.violations) == WITNESS_LIMIT
    assert eventual_prefix.violations[0].startswith("after read 90 (score 1.0), reads")
    assert queries <= QUERY_BOUND
    assert peak < PEAK_BOUND
    assert streamed_prefix_results(history) == (strong_prefix, eventual_prefix)


@pytest.mark.parametrize("resolve", [True, False])
def test_witnesses_are_the_first_of_the_brute_force_order(resolve):
    """The same shapes at a size the oracle can enumerate."""
    history, _ = two_branch_history(resolve, reads=7 * PROCESSES, rounds_per_height=2)
    assert StrongPrefixChecker().check(history) == bounded(
        _ReferenceStrongPrefixChecker().check(history)
    )
    assert EventualPrefixChecker().check(history) == bounded(
        _ReferenceEventualPrefixChecker().check(history)
    )
