"""Unit tests for the fairness / chain-quality analysis."""

from __future__ import annotations

import pytest

from repro.analysis.fairness import creator_shares, fairness_report
from repro.core.block import GENESIS, GENESIS_ID, Block, Blockchain
from repro.core.blocktree import BlockTree
from repro.workload.merit import MeritDistribution, uniform_merit


def _chain_with_creators(creators):
    blocks = [GENESIS]
    parent = GENESIS_ID
    for index, creator in enumerate(creators):
        block = Block(f"blk{index}", parent, creator=creator)
        blocks.append(block)
        parent = block.block_id
    return Blockchain(tuple(blocks))


class TestCreatorShares:
    def test_shares_sum_to_one(self):
        chain = _chain_with_creators(["a", "a", "b", "c"])
        shares = creator_shares(chain)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["a"] == pytest.approx(0.5)

    def test_genesis_only_chain_has_no_shares(self):
        assert creator_shares(Blockchain((GENESIS,))) == {}

    def test_tree_input_counts_all_blocks(self):
        tree = BlockTree()
        tree.append(Block("x", GENESIS_ID, creator="a"))
        tree.append(Block("y", GENESIS_ID, creator="b"))
        shares = creator_shares(tree)
        assert shares == {"a": 0.5, "b": 0.5}

    def test_unknown_creator_is_bucketed(self):
        chain = _chain_with_creators([None])
        assert creator_shares(chain) == {"?": 1.0}


class TestFairnessReport:
    def test_perfectly_fair_run(self):
        chain = _chain_with_creators(["p0", "p1", "p0", "p1"])
        report = fairness_report(chain, uniform_merit(2))
        assert report.worst_ratio == pytest.approx(1.0)

    def test_starved_process_lowers_worst_ratio(self):
        chain = _chain_with_creators(["p0", "p0", "p0", "p1"])
        report = fairness_report(chain, uniform_merit(2))
        assert report.ratios["p1"] == pytest.approx(0.5)
        assert report.worst_ratio == pytest.approx(0.5)

    def test_zero_merit_processes_are_ignored(self):
        chain = _chain_with_creators(["writer", "writer"])
        merit = MeritDistribution((("writer", 1.0), ("reader", 0.0)))
        report = fairness_report(chain, merit)
        assert "reader" not in report.ratios
        assert report.worst_ratio == pytest.approx(1.0)

    def test_describe_lists_every_process(self):
        chain = _chain_with_creators(["p0", "p1"])
        text = fairness_report(chain, uniform_merit(2)).describe()
        assert "p0" in text and "p1" in text and "worst ratio" in text

    def test_explicit_process_restriction(self):
        chain = _chain_with_creators(["p0", "p1", "p2"])
        report = fairness_report(chain, uniform_merit(3), processes=("p0",))
        assert set(report.ratios) == {"p0"}
