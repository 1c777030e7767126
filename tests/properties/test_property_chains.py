"""Property-based tests on chains, trees, scores and selection functions."""

from __future__ import annotations

from typing import List

from hypothesis import given, settings, strategies as st

from repro.core.block import GENESIS, GENESIS_ID, Block, Blockchain
from repro.core.blocktree import BlockTree
from repro.core.score import LengthScore, WeightScore, mcps
from repro.core.selection import GHOSTSelection, HeaviestChain, LongestChain


# --- strategies -------------------------------------------------------------


@st.composite
def chains(draw, max_length: int = 12) -> Blockchain:
    """A random chain rooted at genesis, with random per-block weights."""
    length = draw(st.integers(min_value=0, max_value=max_length))
    label = draw(st.text(alphabet="xyz", min_size=1, max_size=3))
    blocks = [GENESIS]
    parent = GENESIS_ID
    for i in range(length):
        weight = draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        block = Block(f"{label}_{i}", parent, weight=weight)
        blocks.append(block)
        parent = block.block_id
    return Blockchain(tuple(blocks))


@st.composite
def block_trees(draw, max_blocks: int = 20) -> BlockTree:
    """A random tree built by attaching blocks under random existing parents."""
    n = draw(st.integers(min_value=0, max_value=max_blocks))
    tree = BlockTree()
    ids = [GENESIS_ID]
    for i in range(n):
        parent = ids[draw(st.integers(min_value=0, max_value=len(ids) - 1))]
        weight = draw(st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
        block = Block(f"t{i}", parent, weight=weight)
        tree.append(block)
        ids.append(block.block_id)
    return tree


# --- chain properties ----------------------------------------------------------


class TestChainProperties:
    @given(chains())
    def test_prefix_relation_is_reflexive(self, chain):
        assert chain.is_prefix_of(chain)

    @given(chains())
    def test_every_prefix_is_a_prefix(self, chain):
        for length in range(chain.length + 1):
            assert chain.prefix(length).is_prefix_of(chain)

    @given(chains(), chains())
    def test_common_prefix_is_symmetric_and_bounded(self, a, b):
        cp_ab = a.common_prefix(b)
        cp_ba = b.common_prefix(a)
        assert cp_ab.ids == cp_ba.ids
        assert cp_ab.is_prefix_of(a) and cp_ab.is_prefix_of(b)
        assert cp_ab.length <= min(a.length, b.length)

    @given(chains(), chains())
    def test_mcps_matches_common_prefix_length(self, a, b):
        assert mcps(a, b) == float(a.common_prefix(b).length)

    @given(chains())
    def test_length_score_is_strictly_monotonic(self, chain):
        score = LengthScore()
        for length in range(1, chain.length + 1):
            assert score(chain.prefix(length)) > score(chain.prefix(length - 1))

    @given(chains())
    def test_weight_score_is_monotonic_for_positive_weights(self, chain):
        score = WeightScore()
        for length in range(1, chain.length + 1):
            assert score(chain.prefix(length)) > score(chain.prefix(length - 1))

    @given(chains(), chains())
    def test_prefix_relation_implies_mcps_equals_smaller_score(self, a, b):
        if a.is_prefix_of(b):
            assert mcps(a, b) == LengthScore()(a)


# --- tree / selection properties --------------------------------------------------


class TestTreeProperties:
    @given(block_trees())
    def test_selected_chain_is_a_path_of_the_tree(self, tree):
        for selection in (LongestChain(), HeaviestChain(), GHOSTSelection()):
            chain = selection(tree)
            assert chain.blocks[0].block_id == tree.genesis.block_id
            for parent, child in zip(chain.blocks, chain.blocks[1:]):
                assert child.parent_id == parent.block_id
                assert child.block_id in tree

    @given(block_trees())
    def test_longest_chain_reaches_tree_height(self, tree):
        assert LongestChain()(tree).length == tree.height

    @given(block_trees())
    def test_ghost_tip_is_a_leaf(self, tree):
        tip = GHOSTSelection()(tree).tip.block_id
        assert tip in tree.leaves()

    @given(block_trees())
    def test_heights_are_consistent_with_parents(self, tree):
        for block in tree:
            if block.is_genesis:
                assert tree.height_of(block.block_id) == 0
            else:
                assert (
                    tree.height_of(block.block_id)
                    == tree.height_of(block.parent_id) + 1
                )

    @given(block_trees())
    def test_leaf_count_plus_internal_matches_total(self, tree):
        leaves = set(tree.leaves())
        internal = {b.block_id for b in tree} - leaves
        assert len(leaves) + len(internal) == len(tree)

    @given(block_trees())
    def test_subtree_weight_of_root_is_total_weight(self, tree):
        total = sum(b.weight for b in tree)
        assert abs(tree.subtree_weight(tree.genesis.block_id) - total) < 1e-9

    @given(block_trees())
    def test_selection_is_deterministic(self, tree):
        for selection in (LongestChain(), HeaviestChain(), GHOSTSelection()):
            assert selection(tree).ids == selection(tree).ids
