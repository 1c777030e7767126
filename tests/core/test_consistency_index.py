"""Unit tests for the union prefix index (ConsistencyIndex)."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np
import pytest

from repro.core.block import Block, Blockchain, GENESIS, GENESIS_ID
from repro.core.consistency import BlockValidityChecker
from repro.core.consistency_index import (
    ConsistencyIndex,
    ConsistencyMonitor,
    InconsistentChainError,
    count_exceeding_before,
)
from repro.core.history import Event, HistoryRecorder
from repro.core.score import LengthScore, WeightScore

from tests.core.reference_consistency import _ReferenceBlockValidityChecker, bounded


def _chain(*blocks: Block) -> Blockchain:
    return Blockchain((GENESIS, *blocks))


def _read(rec: HistoryRecorder, process: str, chain: Blockchain) -> Event:
    """Record a read returning ``chain``; its response event."""
    rec.complete(process, "read", None, chain)
    return rec.history()[-1]


def _merge(index: ConsistencyIndex, chain: Blockchain, read_eid: Optional[int] = None) -> int:
    """Merge ``chain`` into the index's tree without entering a read; its tip's node."""
    return index._merge(chain.blocks, read_eid)


def _nodes(index: ConsistencyIndex, *block_ids: str) -> np.ndarray:
    nodes = index.block_ids()
    return np.array([nodes.index(block_id) for block_id in block_ids], dtype=np.int64)


@pytest.fixture()
def forked_index():
    """Index holding two branches: a1-a2-a3 and b1-b2."""
    a1, a2, a3 = Block("a1", GENESIS_ID), Block("a2", "a1"), Block("a3", "a2", weight=2.0)
    b1, b2 = Block("b1", GENESIS_ID, weight=0.5), Block("b2", "b1")
    index = ConsistencyIndex()
    _merge(index, _chain(a1, a2, a3), read_eid=10)
    _merge(index, _chain(b1, b2), read_eid=20)
    _merge(index, _chain(a1, a2), read_eid=30)
    return index


class TestMerging:
    def test_blocks_inserted_once(self, forked_index):
        assert len(forked_index) == 6  # genesis + 5
        assert forked_index.block_ids() == ("b0", "a1", "a2", "a3", "b1", "b2")

    def test_known_chain_is_cheap_and_tracked(self, forked_index):
        a1, a2 = forked_index.block("a1"), forked_index.block("a2")
        known = len(forked_index)
        assert _merge(forked_index, _chain(a1, a2), read_eid=40) == _nodes(forked_index, "a2")[0]
        assert len(forked_index) == known  # nothing new inserted
        forked_index.add_read(_read(HistoryRecorder(), "p", _chain(a1, a2)))
        assert forked_index.read_tip(0) == "a2"
        assert forked_index.first_seen_read("a2") == 10

    def test_heights(self, forked_index):
        assert forked_index.height_of("a3") == 3
        assert forked_index.height_of("b2") == 2

    def test_first_seen_read_is_the_introducing_read(self, forked_index):
        assert forked_index.first_seen_read("a3") == 10
        assert forked_index.first_seen_read("b1") == 20
        # a2 arrived with the first chain, not the third.
        assert forked_index.first_seen_read("a2") == 10

    def test_conflicting_block_content_rejected(self, forked_index):
        impostor = Block("a2", "a1", weight=99.0)
        with pytest.raises(InconsistentChainError):
            _merge(forked_index, _chain(forked_index.block("a1"), impostor))

    def test_conflicting_genesis_content_rejected(self):
        from repro.core.block import genesis_block

        index = ConsistencyIndex()
        _merge(index, Blockchain((GENESIS,)))
        with pytest.raises(InconsistentChainError):
            _merge(index, Blockchain((genesis_block(payload=("tx",)),)))


class TestAncestry:
    def test_prefix_queries(self, forked_index):
        assert forked_index.prefix_related("a1", "a3")
        assert forked_index.prefix_related("a3", "a3")
        assert not forked_index.prefix_related("b1", "a3")
        assert not forked_index.prefix_related("b2", "a2")

    def test_labels_refresh_after_mutation(self, forked_index):
        a3 = forked_index.block("a3")
        assert not forked_index.prefix_related("a3", "b2")
        a4 = Block("a4", "a3")
        _merge(forked_index, _chain(forked_index.block("a1"), forked_index.block("a2"), a3, a4))
        assert forked_index.prefix_related("a3", "a4")
        assert not forked_index.prefix_related("a4", "b2")

    def test_lowest_common_ancestor(self, forked_index):
        assert forked_index.lowest_common_ancestor("a3", "b2") == GENESIS_ID
        assert forked_index.lowest_common_ancestor("a3", "a2") == "a2"
        assert forked_index.lowest_common_ancestor("a2", "a2") == "a2"


class TestScores:
    def test_path_scores(self, forked_index):
        assert forked_index.path_score("a3", LengthScore()) == 3.0
        assert forked_index.path_score("b2", WeightScore()) == pytest.approx(1.5)
        assert forked_index.path_score(
            "a3", WeightScore(min_increment=0.5)
        ) == pytest.approx(4.0 + 0.5 * 3)
        assert forked_index.path_score("a3", lambda chain: 1.0) is None

    def test_mcps_of_tips(self, forked_index):
        assert forked_index.mcps_of_tips("a3", "b2", LengthScore()) == 0.0
        assert forked_index.mcps_of_tips("a3", "a2", LengthScore()) == 2.0
        assert forked_index.mcps_of_tips("a3", "a2", WeightScore()) == pytest.approx(2.0)


class TestReadTable:
    def test_reads_keep_arrival_order_and_scores_follow(self, forked_index):
        rec = HistoryRecorder()
        a1, a2, a3, b1 = map(forked_index.block, ("a1", "a2", "a3", "b1"))
        first = _read(rec, "p", _chain(b1))
        forked_index.add_read(first)
        assert forked_index.reads == [first]
        assert forked_index.read_tip(0) == "b1"
        assert forked_index.read_scores(LengthScore()).tolist() == [1.0]
        second = _read(rec, "q", _chain(a1, a2, a3))
        forked_index.add_read(second)
        assert forked_index.reads == [first, second]
        # Extended for the new read; recomputed for another score function;
        # a score with no cached column scores the chains themselves.
        assert forked_index.read_scores(LengthScore()).tolist() == [1.0, 3.0]
        assert forked_index.read_scores(WeightScore()).tolist() == [0.5, 4.0]
        assert forked_index.read_scores(lambda chain: 2.0 * chain.length).tolist() == [2.0, 6.0]


class TestReadIntake:
    """A read whose tip object the index holds is entered in O(1); any
    other read is merged by the walk, content check included."""

    def test_an_equal_copy_of_a_known_chain_is_accepted(self, forked_index):
        rec = HistoryRecorder()
        copies = [replace(forked_index.block(b)) for b in ("a1", "a2", "a3")]
        assert copies[-1] is not forked_index.block("a3")
        forked_index.add_read(_read(rec, "p", _chain(*copies)))
        assert len(forked_index) == 6
        assert forked_index.read_tip(0) == "a3"
        assert forked_index.read_table()[0].tolist() == _nodes(forked_index, "a3").tolist()

    def test_a_known_id_with_other_content_is_refused(self, forked_index):
        rec = HistoryRecorder()
        impostor = Block("a2", "a1", weight=99.0)
        read = _read(rec, "p", _chain(forked_index.block("a1"), impostor))
        with pytest.raises(InconsistentChainError, match="'a2' carries different content"):
            forked_index.add_read(read)
        assert forked_index.reads == []

    def test_the_known_tip_object_takes_no_walk(self, forked_index, monkeypatch):
        rec = HistoryRecorder()
        a1, a2 = forked_index.block("a1"), forked_index.block("a2")
        monkeypatch.setattr(forked_index, "_merge", None)  # a walk would raise TypeError
        forked_index.add_read(_read(rec, "p", _chain(a1, a2)))
        forked_index.add_read(_read(rec, "q", _chain(a1, a2)))
        tips, processes, eids = forked_index.read_table()
        assert tips.tolist() == _nodes(forked_index, "a2", "a2").tolist()
        assert processes.tolist() == [0, 1]
        assert eids.tolist() == [read.eid for read in forked_index.reads]

    def test_a_replay_that_raises_counts_no_event(self):
        rec = HistoryRecorder()
        a1 = Block("a1", GENESIS_ID)
        rec.complete("p", "read", None, _chain(a1))
        rec.complete("q", "read", None, _chain(Block("a1", GENESIS_ID, weight=9.0)))
        monitor = ConsistencyMonitor()
        with pytest.raises(InconsistentChainError):
            monitor.replay(rec.history())
        assert monitor.events_seen == 0


class TestCounting:
    """The pair counts the prefix checkers decide from, on the two branches."""

    def test_diverging_pair_count(self, forked_index):
        # Zero iff the tips are totally ordered (the Strong Prefix verdict).
        index = forked_index
        assert index.diverging_pair_count(_nodes(index, "a1", "a2", "a3", "a1")) == 0
        assert index.diverging_pair_count(_nodes(index)) == 0
        assert index.diverging_pair_count(_nodes(index, "a1", "b2")) == 1
        # 3 reads on branch a × 2 on branch b; the genesis read joins neither side.
        tips = _nodes(index, "a3", "b1", "b0", "a1", "b2", "a3")
        assert index.diverging_pair_count(tips) == 6

    def test_on_path_sums_over_the_root_path(self, forked_index):
        weights = np.arange(1, 7, dtype=np.int64)  # b0, a1, a2, a3, b1, b2 weigh 1..6
        assert forked_index.on_path(weights).tolist() == [1, 3, 6, 10, 6, 12]

    def test_last_diverging(self, forked_index):
        tips = _nodes(forked_index, "a3", "b1", "b0", "a1", "b2", "a3")
        assert forked_index.last_diverging(tips).tolist() == [4, 5, -1, 4, 5, 4]
        assert forked_index.last_diverging(_nodes(forked_index, "a1", "a3")).tolist() == [-1, -1]

    def test_eventual_prefix_breaches(self, forked_index):
        # An eight-read table whose reads 5, 6 and 7 returned a3, a2 and b2.
        rec = HistoryRecorder()
        for ids in [()] * 5 + [("a1", "a2", "a3"), ("a1", "a2"), ("b1", "b2")]:
            chain = _chain(*map(forked_index.block, ids))
            forked_index.add_read(_read(rec, "p", chain))
        limits = [5, 7, 6]

        def breaches(ceilings):
            return list(forked_index.eventual_prefix_breaches(limits, ceilings, LengthScore()))

        # The branches share only the genesis (score 0): any positive score
        # read before the earlier limit read of a conflicting pair objects.
        assert breaches([(0, 1.0)]) == [(5, 7, 0.0), (6, 7, 0.0)]
        # ... a maximum reached at the cut itself, or later, does not,
        assert breaches([(0, 0.0), (5, 3.0)]) == [(6, 7, 0.0)]
        # and neither does a score no higher than the shared prefix.
        assert breaches([(0, 0.0)]) == []

    def test_count_exceeding_before(self):
        values = [1.0, 3.0, 2.0, 3.0, 0.5]
        assert count_exceeding_before(values, [(0, 0.0)]) == 0
        assert count_exceeding_before(values, [(5, 0.0)]) == 5
        assert count_exceeding_before(values, [(4, 2.0), (2, 1.0), (5, 3.0)]) == 2 + 1 + 0


class TestBlockValidityMemoization:
    """Satellite regression: the validator runs once per distinct block."""

    @staticmethod
    def _history_with_repeated_reads(reads: int):
        rec = HistoryRecorder()
        b1, b2 = Block("v1", GENESIS_ID), Block("v2", "v1")
        rec.complete("i", "append", b1, True)
        rec.complete("i", "append", b2, True)
        for _ in range(reads):
            rec.complete("i", "read", None, _chain(b1, b2))
        return rec.history()

    def test_validator_called_once_per_block(self):
        history = self._history_with_repeated_reads(reads=25)
        calls = []

        def counting_validator(block):
            calls.append(block.block_id)
            return True

        result = BlockValidityChecker(counting_validator).check(history)
        assert result.holds
        assert sorted(calls) == ["v1", "v2"]  # not 25 × 2

        # The reference oracle revalidates per read — the behaviour the
        # memoization removes.
        calls.clear()
        _ReferenceBlockValidityChecker(counting_validator).check(history)
        assert len(calls) == 50

    def test_memoized_verdicts_keep_violations_identical(self):
        history = self._history_with_repeated_reads(reads=7)
        validator = lambda block: block.block_id != "v2"  # noqa: E731
        indexed = BlockValidityChecker(validator).check(history)
        reference = _ReferenceBlockValidityChecker(validator).check(history)
        assert indexed == bounded(reference)
        assert not indexed.holds
        assert indexed.count == len(indexed.violations) == 7
