"""Tests for the run classifier and the Table 1 reproduction."""

from __future__ import annotations

import pytest

from repro.core.consistency import BTEventualConsistency, BTStrongConsistency
from repro.core.hierarchy import Consistency, OracleKind, Refinement
from repro.protocols.classification import (
    PAPER_TABLE1,
    classify_run,
    reproduce_table1,
)
from repro.protocols.hyperledger import run_hyperledger
from repro.protocols.nakamoto import run_bitcoin
from repro.network.channels import SynchronousChannel
from repro.analysis.report import render_classification_table


class TestClassifyRun:
    def test_hyperledger_classifies_as_sc_frugal1(self):
        run = run_hyperledger(n=5, duration=80.0, seed=21)
        result = classify_run(run)
        assert result.refinement == Refinement.sc_frugal(1)
        assert result.matches_paper is True

    def test_bitcoin_in_fork_prone_regime_classifies_as_ec_prodigal(self):
        run = run_bitcoin(
            n=5, duration=150.0, token_rate=0.4, seed=21,
            channel=SynchronousChannel(delta=3.0, min_delay=0.5, seed=21),
        )
        result = classify_run(run)
        assert result.consistency == Consistency.EVENTUAL
        assert result.oracle_kind == OracleKind.PRODIGAL
        assert result.matches_paper is True

    def test_shared_properties_are_evaluated_once(self):
        """SC and EC have three properties in common: one result object each."""
        run = run_hyperledger(n=4, duration=60.0, seed=5)
        result = classify_run(run)
        strong, eventual = result.strong_report, result.eventual_report
        for name in ("block-validity", "local-monotonic-read", "ever-growing-tree"):
            assert strong.result_for(name) is eventual.result_for(name)
        history = run.history.without_failed_appends()
        assert strong == BTStrongConsistency().check(history)
        assert eventual == BTEventualConsistency().check(history)

    def test_describe_mentions_refinement_and_expectation(self):
        run = run_hyperledger(n=4, duration=60.0, seed=5)
        text = classify_run(run).describe()
        assert "R(BT-ADT_SC" in text
        assert "matches paper" in text

    def test_expected_defaults_to_paper_table(self):
        run = run_hyperledger(n=4, duration=60.0, seed=5)
        result = classify_run(run)
        assert result.expected == PAPER_TABLE1["hyperledger"]

    def test_unknown_system_has_no_expectation(self):
        run = run_hyperledger(n=4, duration=60.0, seed=5)
        run.name = "my-new-chain"
        result = classify_run(run)
        assert result.expected is None
        assert result.matches_paper is None


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self):
        return reproduce_table1(n=5, duration=100.0, seed=7)

    def test_all_seven_systems_are_classified(self, table):
        assert set(table) == set(PAPER_TABLE1)

    def test_every_system_matches_the_paper(self, table):
        mismatches = {name: r for name, r in table.items() if r.matches_paper is not True}
        assert not mismatches, f"classification mismatches: {list(mismatches)}"

    def test_pow_systems_are_ec_and_consensus_systems_are_sc(self, table):
        assert table["bitcoin"].consistency == Consistency.EVENTUAL
        assert table["ethereum"].consistency == Consistency.EVENTUAL
        for name in ("byzcoin", "algorand", "peercensus", "redbelly", "hyperledger"):
            assert table[name].consistency == Consistency.STRONG

    def test_rendered_table_lists_every_system(self, table):
        text = render_classification_table(table)
        for name in PAPER_TABLE1:
            assert name in text
        assert "Table 1" in text
