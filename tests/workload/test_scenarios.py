"""Unit tests for the figure scenarios and history generators."""

from __future__ import annotations

import pytest

from repro.core.consistency import check_eventual_consistency, check_strong_consistency
from repro.core.history import EventKind
from repro.workload.scenarios import (
    figure2_history,
    figure3_history,
    figure4_history,
    figure13_history,
    generate_chain_history,
    generate_forked_history,
)
from tests.core.reference_consistency import diverges


class TestFigureHistories:
    def test_figure2_structure(self):
        history = figure2_history()
        assert set(history.processes) == {"i", "j"}
        assert len(history.read_responses()) == 6
        # i's reads have scores 2, 3, 4 — exactly the figure.
        scores_i = [r.chain.length for r in history.read_responses("i")]
        assert scores_i == [2, 3, 4]
        scores_j = [r.chain.length for r in history.read_responses("j")]
        assert scores_j == [1, 2, 4]

    def test_figure3_first_reads_diverge_final_reads_agree(self):
        history = figure3_history()
        first_i = history.read_responses("i")[0].chain
        first_j = history.read_responses("j")[0].chain
        assert diverges(first_i, first_j)
        last_i = history.read_responses("i")[-1].chain
        last_j = history.read_responses("j")[-1].chain
        assert last_i.ids == last_j.ids

    def test_figure4_final_reads_still_diverge(self):
        history = figure4_history()
        last_i = history.read_responses("i")[-1].chain
        last_j = history.read_responses("j")[-1].chain
        assert diverges(last_i, last_j)

    def test_figure13_contains_all_replication_events(self):
        history = figure13_history()
        assert len(history.replication_events(EventKind.SEND)) == 1
        assert len(history.replication_events(EventKind.RECEIVE)) == 3
        assert len(history.replication_events(EventKind.UPDATE)) == 3

    def test_figure13_drop_removes_events(self):
        history = figure13_history(drop_for=["j", "k"])
        assert len(history.replication_events(EventKind.RECEIVE)) == 1
        assert len(history.replication_events(EventKind.UPDATE)) == 1


class TestGenerators:
    def test_chain_history_is_strongly_consistent(self):
        for seed in range(5):
            history = generate_chain_history(n_processes=3, chain_length=8, seed=seed)
            assert check_strong_consistency(history).holds

    def test_chain_history_read_budget_respected(self):
        history = generate_chain_history(n_processes=2, chain_length=5, reads_per_process=4, seed=1)
        assert len(history.read_responses("p0")) == 4
        assert len(history.read_responses("p1")) == 4

    def test_chain_history_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_chain_history(n_processes=0)
        with pytest.raises(ValueError):
            generate_chain_history(chain_length=0)

    def test_forked_history_resolved_is_ec_not_sc(self):
        for seed in range(5):
            history = generate_forked_history(branch_length=4, resolve=True, seed=seed)
            assert not check_strong_consistency(history).holds
            assert check_eventual_consistency(history).holds

    def test_forked_history_unresolved_is_neither(self):
        for seed in range(5):
            history = generate_forked_history(branch_length=4, resolve=False, seed=seed)
            assert not check_strong_consistency(history).holds
            assert not check_eventual_consistency(history).holds

    def test_forked_history_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_forked_history(branch_length=0)
        with pytest.raises(ValueError):
            generate_forked_history(reads_per_process=0)
