"""Unit tests for the BlockTree structure."""

from __future__ import annotations

import random

import pytest

from repro.core.block import GENESIS, GENESIS_ID, Block
from repro.core.blocktree import BlockTree, DuplicateBlockError, UnknownParentError


class TestConstruction:
    def test_new_tree_contains_only_genesis(self):
        tree = BlockTree()
        assert len(tree) == 1
        assert GENESIS_ID in tree
        assert tree.height == 0

    def test_tree_rejects_non_genesis_root(self):
        with pytest.raises(ValueError):
            BlockTree(Block("b1", GENESIS_ID))


class TestAppend:
    def test_append_under_genesis(self):
        tree = BlockTree()
        tree.append(Block("x", GENESIS_ID))
        assert "x" in tree
        assert tree.height_of("x") == 1

    def test_append_requires_known_parent(self):
        tree = BlockTree()
        with pytest.raises(UnknownParentError):
            tree.append(Block("x", "missing"))

    def test_duplicate_append_rejected(self):
        tree = BlockTree()
        tree.append(Block("x", GENESIS_ID))
        with pytest.raises(DuplicateBlockError):
            tree.append(Block("x", GENESIS_ID))

    def test_second_genesis_rejected(self):
        tree = BlockTree()
        with pytest.raises(ValueError):
            tree.append(Block(GENESIS_ID, None))

    def test_append_returns_block(self):
        tree = BlockTree()
        block = Block("x", GENESIS_ID)
        assert tree.append(block) is block

    def test_contains_accepts_blocks_and_ids(self, linear_tree):
        assert "x1" in linear_tree
        assert Block("x1", GENESIS_ID) in linear_tree


class TestQueries:
    def test_heights_along_chain(self, linear_tree):
        assert linear_tree.height == 3
        assert linear_tree.height_of("x2") == 2

    def test_children(self, forked_tree):
        assert set(forked_tree.children_of(GENESIS_ID)) == {"a1", "b1"}

    def test_leaves(self, forked_tree):
        assert set(forked_tree.leaves()) == {"a3", "b2"}

    def test_chain_to(self, forked_tree):
        chain = forked_tree.chain_to("a3")
        assert chain.ids == (GENESIS_ID, "a1", "a2", "a3")

    def test_chain_to_unknown_raises(self, linear_tree):
        with pytest.raises(KeyError):
            linear_tree.chain_to("missing")

    def test_all_chains_one_per_leaf(self, forked_tree):
        chains = forked_tree.all_chains()
        assert len(chains) == 2
        tips = {c.tip.block_id for c in chains}
        assert tips == {"a3", "b2"}

    def test_fork_points_and_degree(self, forked_tree, linear_tree):
        assert forked_tree.fork_points() == (GENESIS_ID,)
        assert forked_tree.max_fork_degree() == 2
        assert linear_tree.fork_points() == ()
        assert linear_tree.max_fork_degree() == 1

    def test_subtree_weight_accumulates(self):
        tree = BlockTree()
        tree.append(Block("a", GENESIS_ID, weight=1.0))
        tree.append(Block("b", "a", weight=2.0))
        tree.append(Block("c", GENESIS_ID, weight=5.0))
        assert tree.subtree_weight("a") == pytest.approx(3.0)
        assert tree.subtree_weight(GENESIS_ID) == pytest.approx(8.0)

    def test_block_ids_in_insertion_order(self, linear_tree):
        assert linear_tree.block_ids() == (GENESIS_ID, "x1", "x2", "x3")


class TestCopy:
    def test_copy_is_independent(self, linear_tree):
        clone = linear_tree.copy()
        clone.append(Block("extra", "x3"))
        assert "extra" in clone
        assert "extra" not in linear_tree

class TestPresentation:
    def test_ascii_render_mentions_all_blocks(self, forked_tree):
        art = forked_tree.to_ascii()
        for bid in ("a1", "a2", "a3", "b1", "b2", GENESIS_ID):
            assert bid in art

    def test_repr_contains_summary(self, forked_tree):
        text = repr(forked_tree)
        assert "blocks=6" in text
        assert "leaves=2" in text


class TestIncrementalCaches:
    """height / leaves are maintained by append, not recomputed."""

    @staticmethod
    def _recomputed_height(tree: BlockTree) -> int:
        return max(tree.height_of(bid) for bid in tree.block_ids())

    @staticmethod
    def _recomputed_leaves(tree: BlockTree) -> tuple:
        return tuple(b for b in tree.block_ids() if not tree.children_of(b))

    def test_height_and_leaves_match_recomputation(self, forked_tree):
        assert forked_tree.height == self._recomputed_height(forked_tree)
        assert forked_tree.leaves() == self._recomputed_leaves(forked_tree)

    def test_caches_track_a_growing_fork(self):
        tree = BlockTree()
        tree.append(Block("a1", GENESIS_ID))
        tree.append(Block("b1", GENESIS_ID))
        assert tree.height == 1
        assert tree.leaves() == ("a1", "b1")
        tree.append(Block("a2", "a1"))
        assert tree.height == 2
        assert tree.leaves() == ("b1", "a2")
        assert tree.height == self._recomputed_height(tree)
        assert tree.leaves() == self._recomputed_leaves(tree)

    def test_copy_preserves_caches_independently(self, forked_tree):
        clone = forked_tree.copy()
        assert clone.height == forked_tree.height
        assert clone.leaves() == forked_tree.leaves()
        clone.append(Block("deep", "a3"))
        assert clone.height == forked_tree.height + 1
        assert "deep" in clone.leaves() and "deep" not in forked_tree.leaves()
        assert forked_tree.height == self._recomputed_height(forked_tree)
        assert clone.height == self._recomputed_height(clone)
        assert clone.leaves() == self._recomputed_leaves(clone)

class TestScoreIndexes:
    """cumulative weights, the version counter and the selection memo."""

    @staticmethod
    def _recomputed_cum_weight(tree: BlockTree, block_id: str) -> float:
        return sum(b.weight for b in tree.chain_to(block_id) if not b.is_genesis)

    def test_cumulative_weight_matches_chain_sum(self):
        tree = BlockTree()
        tree.append(Block("a", GENESIS_ID, weight=1.5))
        tree.append(Block("b", "a", weight=2.0))
        tree.append(Block("c", GENESIS_ID, weight=0.0))
        for bid in tree.block_ids():
            assert tree.cumulative_weight(bid) == pytest.approx(
                self._recomputed_cum_weight(tree, bid)
            )
        assert tree.cumulative_weight(GENESIS_ID) == 0.0

    def test_cumulative_weight_on_random_trees(self):
        rng = random.Random(5)
        tree = BlockTree()
        ids = [GENESIS_ID]
        for index in range(50):
            parent = rng.choice(ids)
            bid = f"w{index:03d}"
            tree.append(Block(bid, parent, weight=rng.choice((0.0, 0.5, 1.0, 3.0))))
            ids.append(bid)
        for bid in ids:
            assert tree.cumulative_weight(bid) == pytest.approx(
                self._recomputed_cum_weight(tree, bid)
            )

    def test_version_is_monotone_and_bumped_per_append(self):
        """The selection memo's guard: every append bumps it, a failed one does not."""
        tree = BlockTree()
        assert tree._version == 0
        tree.append(Block("a", GENESIS_ID))
        assert tree._version == 1
        with pytest.raises(DuplicateBlockError):
            tree.append(Block("a", GENESIS_ID))
        assert tree._version == 1  # failed appends do not mutate
        tree.append(Block("b", "a"))
        assert tree._version == 2

    def test_copy_carries_indexes_independently(self, forked_tree):
        clone = forked_tree.copy()
        clone.append(Block("deep", "a3", weight=2.5))
        assert clone.cumulative_weight("deep") == pytest.approx(
            self._recomputed_cum_weight(clone, "deep")
        )
        assert "deep" not in forked_tree

    def test_selection_memo_is_version_guarded(self):
        tree = BlockTree()
        tree.append(Block("a", GENESIS_ID))
        tree.cache_selection("probe", "chain-at-v1")
        assert tree.cached_selection("probe") == "chain-at-v1"
        tree.append(Block("b", "a"))
        assert tree.cached_selection("probe") is None  # invalidated by append
        tree.cache_selection("probe", "chain-at-v2")
        assert tree.cached_selection("probe") == "chain-at-v2"

    def test_selection_memo_tolerates_unhashable_keys(self):
        tree = BlockTree()
        unhashable = ["not", "hashable"]
        tree.cache_selection(unhashable, "ignored")  # type: ignore[arg-type]
        assert tree.cached_selection(unhashable) is None  # type: ignore[arg-type]


class TestIncrementalForkCaches:
    """fork_points / max_fork_degree are maintained by ``append`` (and
    duplicated by ``copy``) instead of full scans; these tests pin the
    caches to a from-scratch recomputation."""

    @staticmethod
    def _recomputed(tree: BlockTree):
        fork_points = {b for b in tree.block_ids() if len(tree.children_of(b)) >= 2}
        max_degree = max(
            (len(tree.children_of(b)) for b in tree.block_ids()), default=0
        )
        return fork_points, max_degree

    def _assert_caches_consistent(self, tree: BlockTree):
        fork_points, max_degree = self._recomputed(tree)
        assert set(tree.fork_points()) == fork_points
        assert tree.max_fork_degree() == max_degree

    def test_random_append_sequence(self):
        rng = random.Random(42)
        tree = BlockTree()
        ids = [GENESIS_ID]
        for i in range(120):
            parent = rng.choice(ids)
            block_id = f"r{i}"
            tree.append(Block(block_id, parent))
            ids.append(block_id)
            if i % 17 == 0:
                self._assert_caches_consistent(tree)
        self._assert_caches_consistent(tree)

    def test_bare_and_linear_degrees(self, linear_tree):
        assert BlockTree().max_fork_degree() == 0
        assert BlockTree().fork_points() == ()
        assert linear_tree.max_fork_degree() == 1

    def test_copy_duplicates_the_caches(self, forked_tree):
        clone = forked_tree.copy()
        self._assert_caches_consistent(clone)
        # Divergent appends must not leak between original and clone.
        clone.append(Block("c1", "b2"))
        clone.append(Block("c2", "b2"))  # b2 becomes a fork point in the clone only
        self._assert_caches_consistent(clone)
        self._assert_caches_consistent(forked_tree)
        assert "b2" in clone.fork_points()
        assert "b2" not in forked_tree.fork_points()
