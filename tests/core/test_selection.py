"""Unit tests for the selection functions f ∈ F."""

from __future__ import annotations

import pytest

from repro.core.block import GENESIS_ID, Block
from repro.core.blocktree import BlockTree
from repro.core.selection import (
    FixedTipSelection,
    GHOSTSelection,
    HeaviestChain,
    LongestChain,
    ScoreMaximizingSelection,
)
from repro.core.score import WeightScore


class TestLongestChain:
    def test_selects_longest_branch(self, forked_tree):
        assert LongestChain()(forked_tree).tip.block_id == "a3"

    def test_genesis_only_tree_returns_genesis_chain(self):
        chain = LongestChain()(BlockTree())
        assert chain.ids == (GENESIS_ID,)

    def test_lexicographic_tiebreak(self):
        tree = BlockTree()
        tree.append(Block("aaa", GENESIS_ID))
        tree.append(Block("zzz", GENESIS_ID))
        assert LongestChain()(tree).tip.block_id == "zzz"

    def test_result_is_a_path_of_the_tree(self, forked_tree):
        chain = LongestChain()(forked_tree)
        for parent, child in zip(chain.blocks, chain.blocks[1:]):
            assert child.parent_id == parent.block_id


class TestHeaviestChain:
    def test_prefers_heavier_shorter_branch(self):
        tree = BlockTree()
        tree.append(Block("light1", GENESIS_ID, weight=1.0))
        tree.append(Block("light2", "light1", weight=1.0))
        tree.append(Block("heavy", GENESIS_ID, weight=5.0))
        assert HeaviestChain()(tree).tip.block_id == "heavy"

    def test_equals_longest_for_unit_weights(self, forked_tree):
        assert HeaviestChain()(forked_tree).ids == LongestChain()(forked_tree).ids


class TestGHOST:
    def test_follows_heaviest_subtree_not_longest_chain(self):
        # Branch A is longer, but branch B's subtree holds more blocks.
        tree = BlockTree()
        tree.append(Block("a1", GENESIS_ID))
        tree.append(Block("a2", "a1"))
        tree.append(Block("a3", "a2"))
        tree.append(Block("b1", GENESIS_ID))
        for i in range(2, 6):
            tree.append(Block(f"b{i}", "b1"))
        ghost_tip = GHOSTSelection()(tree).tip.block_id
        assert ghost_tip.startswith("b")
        assert LongestChain()(tree).tip.block_id == "a3"

    def test_reduces_to_longest_chain_on_a_path(self, linear_tree):
        assert GHOSTSelection()(linear_tree).ids == LongestChain()(linear_tree).ids

    def test_genesis_only(self):
        assert GHOSTSelection()(BlockTree()).ids == (GENESIS_ID,)

    def test_deterministic_tiebreak(self):
        tree = BlockTree()
        tree.append(Block("aa", GENESIS_ID))
        tree.append(Block("zz", GENESIS_ID))
        assert GHOSTSelection()(tree).tip.block_id == "zz"


class TestScoreMaximizing:
    def test_custom_score_function(self, forked_tree):
        selection = ScoreMaximizingSelection(WeightScore())
        assert selection(forked_tree).tip.block_id == "a3"


class TestFixedTip:
    def test_unpinned_behaves_like_longest_chain(self, forked_tree):
        assert FixedTipSelection()(forked_tree).ids == LongestChain()(forked_tree).ids

    def test_pinned_returns_chain_to_tip(self, forked_tree):
        selection = FixedTipSelection(tip_id="b2")
        assert selection(forked_tree).tip.block_id == "b2"

    def test_pinned_to_missing_tip_falls_back(self, forked_tree):
        selection = FixedTipSelection(tip_id="nope")
        assert selection(forked_tree).tip.block_id == "a3"
