"""Unit tests for the consistency criteria (Definitions 3.2–3.4).

These tests exercise each property checker on handcrafted histories and
verify the paper's verdicts on the figure-level scenarios (Figures 2–4).
"""

from __future__ import annotations

import pytest

from repro.core.block import GENESIS, GENESIS_ID, Block, Blockchain
from repro.core.consistency import (
    WITNESS_LIMIT,
    BlockValidityChecker,
    BTEventualConsistency,
    BTStrongConsistency,
    EventualPrefixChecker,
    EverGrowingTreeChecker,
    LocalMonotonicReadChecker,
    StrongPrefixChecker,
    check_eventual_consistency,
    check_strong_consistency,
)
from repro.core.consistency_index import ConsistencyMonitor
from repro.core.history import HistoryRecorder
from repro.workload.scenarios import figure2_history, figure3_history, figure4_history

from tests.core.reference_consistency import (
    _reference_strong_consistency,
    all_pairs_eventual_prefix,
)


def _chain(*ids: str) -> Blockchain:
    blocks = [GENESIS]
    parent = GENESIS_ID
    for bid in ids:
        blocks.append(Block(bid, parent))
        parent = bid
    return Blockchain(tuple(blocks))


def _history_with_reads(reads):
    """reads: list of (process, chain); blocks are appended first."""
    rec = HistoryRecorder()
    appended = set()
    for _, chain in reads:
        for block in chain:
            if not block.is_genesis and block.block_id not in appended:
                rec.complete("appender", "append", block, True)
                appended.add(block.block_id)
    for process, chain in reads:
        rec.complete(process, "read", None, chain)
    return rec.history()


class TestBlockValidity:
    def test_holds_when_blocks_were_appended(self):
        history = _history_with_reads([("i", _chain("a", "b"))])
        assert BlockValidityChecker().check(history).holds

    def test_fails_when_block_never_appended(self):
        rec = HistoryRecorder()
        rec.complete("i", "read", None, _chain("ghost"))
        result = BlockValidityChecker().check(rec.history())
        assert not result.holds
        assert "never appended" in result.violations[0]

    def test_fails_when_append_happens_after_read(self):
        rec = HistoryRecorder()
        rec.complete("i", "read", None, _chain("late"))
        rec.complete("i", "append", Block("late", GENESIS_ID), True)
        result = BlockValidityChecker().check(rec.history())
        assert not result.holds
        assert "appended only later" in result.violations[0]

    def test_fails_when_block_is_invalid(self):
        history = _history_with_reads([("i", _chain("bad"))])
        validator = lambda block: block.block_id != "bad"  # noqa: E731
        result = BlockValidityChecker(validator).check(history)
        assert not result.holds

    def test_genesis_is_exempt(self):
        rec = HistoryRecorder()
        rec.complete("i", "read", None, Blockchain.genesis_only())
        assert BlockValidityChecker(lambda b: False).check(rec.history()).holds


class TestLocalMonotonicRead:
    def test_non_decreasing_scores_pass(self):
        history = _history_with_reads([("i", _chain("a")), ("i", _chain("a", "b"))])
        assert LocalMonotonicReadChecker().check(history).holds

    def test_decreasing_scores_fail(self):
        history = _history_with_reads([("i", _chain("a", "b")), ("i", _chain("a"))])
        result = LocalMonotonicReadChecker().check(history)
        assert not result.holds

    def test_only_same_process_pairs_matter(self):
        history = _history_with_reads([("i", _chain("a", "b")), ("j", _chain("a"))])
        assert LocalMonotonicReadChecker().check(history).holds

    def test_equal_scores_allowed(self):
        history = _history_with_reads([("i", _chain("a")), ("i", _chain("a"))])
        assert LocalMonotonicReadChecker().check(history).holds


class TestStrongPrefix:
    def test_prefix_related_reads_pass(self):
        history = _history_with_reads(
            [("i", _chain("a")), ("j", _chain("a", "b")), ("i", _chain("a", "b", "c"))]
        )
        assert StrongPrefixChecker().check(history).holds

    def test_divergent_reads_fail(self):
        history = _history_with_reads([("i", _chain("a")), ("j", _chain("x"))])
        result = StrongPrefixChecker().check(history)
        assert not result.holds
        assert "diverging" in result.violations[0]

    def test_single_read_trivially_holds(self):
        history = _history_with_reads([("i", _chain("a"))])
        assert StrongPrefixChecker().check(history).holds


class TestEverGrowingTree:
    def test_default_is_prefix_tolerant(self):
        history = _history_with_reads([("i", _chain("a")), ("j", _chain("a"))])
        result = EverGrowingTreeChecker().check(history)
        assert result.holds
        assert result.details["stalled_reads"]  # the stall is still reported

    def test_threshold_flags_stalled_growth(self):
        reads = [("i", _chain("a"))] + [("j", _chain("a"))] * 3
        history = _history_with_reads(reads)
        result = EverGrowingTreeChecker(stall_threshold=3).check(history)
        assert not result.holds

    def test_growth_resets_the_stall(self):
        reads = [("i", _chain("a")), ("j", _chain("a")), ("j", _chain("a", "b"))]
        history = _history_with_reads(reads)
        assert EverGrowingTreeChecker(stall_threshold=1).check(history).holds

    def test_no_later_reads_is_fine(self):
        history = _history_with_reads([("i", _chain("a"))])
        assert EverGrowingTreeChecker(stall_threshold=1).check(history).holds


class TestEventualPrefix:
    def test_converging_views_pass(self):
        history = _history_with_reads(
            [
                ("i", _chain("a")),
                ("j", _chain("x")),
                ("i", _chain("x", "y")),
                ("j", _chain("x", "y")),
            ]
        )
        assert EventualPrefixChecker().check(history).holds

    def test_permanently_divergent_views_fail(self):
        history = _history_with_reads(
            [
                ("i", _chain("a", "b")),
                ("j", _chain("x", "y")),
                ("i", _chain("a", "b", "c")),
                ("j", _chain("x", "y", "z")),
            ]
        )
        result = EventualPrefixChecker().check(history)
        assert not result.holds

    def test_all_pairs_mode_is_stricter(self):
        history = _history_with_reads(
            [
                ("i", _chain("a", "b")),
                ("j", _chain("x")),          # transient divergence below score 2
                ("i", _chain("a", "b", "c")),
                ("j", _chain("a", "b", "c")),
            ]
        )
        assert EventualPrefixChecker().check(history).holds
        assert not all_pairs_eventual_prefix(history).holds

    def test_single_process_never_diverges(self):
        history = _history_with_reads([("i", _chain("a")), ("i", _chain("a", "b"))])
        assert EventualPrefixChecker().check(history).holds


class TestMalformedRead:
    def test_read_without_a_chain_fails_loudly_and_like_the_oracle(self):
        """Regression: the indexed path raised a bare ``KeyError: <eid>``."""
        rec = HistoryRecorder()
        rec.complete("p", "read", None, _chain("a"))
        rec.complete("q", "read", None, None)
        history = rec.history()
        for check in (
            check_strong_consistency,
            check_eventual_consistency,
            _reference_strong_consistency,
        ):
            with pytest.raises(TypeError, match=r"q\.read.*carries no blockchain output"):
                check(history)
        # The streaming monitor documents that it skips such events.
        assert ConsistencyMonitor().replay(history).reads_seen == 1


class TestCriteriaOnFigures:
    def test_figure2_satisfies_sc_and_ec(self):
        history = figure2_history()
        assert check_strong_consistency(history).holds
        assert check_eventual_consistency(history).holds

    def test_figure3_satisfies_ec_but_not_sc(self):
        history = figure3_history()
        assert not check_strong_consistency(history).holds
        assert check_eventual_consistency(history).holds

    def test_figure4_satisfies_neither(self):
        history = figure4_history()
        assert not check_strong_consistency(history).holds
        assert not check_eventual_consistency(history).holds

    def test_sc_implies_ec_on_figures(self):
        # Theorem 3.1 on the concrete figures.
        for history in (figure2_history(), figure3_history(), figure4_history()):
            if check_strong_consistency(history).holds:
                assert check_eventual_consistency(history).holds


class TestReports:
    def test_report_exposes_individual_results(self):
        report = check_strong_consistency(figure2_history())
        assert report.result_for("strong-prefix").holds
        with pytest.raises(KeyError):
            report.result_for("unknown-property")

    def test_report_describe_mentions_status(self):
        report = check_strong_consistency(figure3_history())
        text = report.describe()
        assert "NOT SATISFIED" in text
        assert "strong-prefix" in text

    def test_count_has_every_violation_and_the_first_ten_are_worded(self):
        # 12 reads on each of two branches: 12 × 12 diverging pairs.
        reads = [("i", _chain("a")), ("j", _chain("x"))] * 12
        result = StrongPrefixChecker().check(_history_with_reads(reads))
        assert result.count == 144
        assert len(result.violations) == WITNESS_LIMIT == 10
        assert result.describe().endswith("... and 134 more")

    def test_bool_conversion(self):
        assert bool(check_strong_consistency(figure2_history()))
        assert not bool(check_strong_consistency(figure4_history()))

    def test_criteria_objects_are_reusable(self):
        strong = BTStrongConsistency()
        eventual = BTEventualConsistency()
        assert strong.check(figure2_history()).holds
        assert eventual.check(figure3_history()).holds
        assert not eventual.check(figure4_history()).holds
