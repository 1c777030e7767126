"""Columnar block index vs the dict index it replaced (the PR 10 oracle).

``BlockTree`` maintains its score indexes (heights, cumulative and
subtree weights) on preallocated numpy columns through
``_TreeColumns.append``; the pre-PR10 per-block
dicts are the test-side ``ReferenceBlockTree``
(``tests/network/reference_plane.py``).  These tests pin the two to each
other on randomized fork-heavy trees — every query, every selection rule
(indexed on the columns, brute force on the dicts), bit-identical floats
— and pin the columns through the checkpoint boundary (pickle) and
``copy()``.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.block import GENESIS_ID, Block
from repro.core.blocktree import BlockTree
from repro.core.selection import GHOSTSelection, HeaviestChain, LongestChain
from tests.network.reference_plane import (
    ReferenceBlockTree,
    ReferenceGHOSTSelection,
    ReferenceHeaviestChain,
    ReferenceLongestChain,
)

RULES = (LongestChain(), HeaviestChain(), GHOSTSelection())
REFERENCE_RULES = (
    ReferenceLongestChain(),
    ReferenceHeaviestChain(),
    ReferenceGHOSTSelection(),
)


def _grow_pair(seed: int, blocks: int = 120):
    """Grow one random fork-heavy tree on both indexes."""
    rng = random.Random(seed)
    columns = BlockTree()
    reference = ReferenceBlockTree()
    ids = [GENESIS_ID]
    for i in range(blocks):
        parent = rng.choice(ids[-8:] if rng.random() < 0.7 else ids)
        block_id = f"x{i}"
        weight = rng.choice((0.5, 1.0, 1.0, 2.5))
        columns.append(Block(block_id, parent, weight=weight))
        reference.append(Block(block_id, parent, weight=weight))
        ids.append(block_id)
    return columns, reference, ids


@pytest.mark.parametrize("seed", (1, 7, 23))
def test_columns_match_reference_queries(seed: int):
    columns, reference, ids = _grow_pair(seed)
    assert columns.leaves() == reference.leaves()
    assert columns.height == reference.height
    for block_id in ids:
        assert columns.height_of(block_id) == reference.height_of(block_id)
        # Bit-identical floats: the columnar maintenance performs the
        # same IEEE additions in the same order as the dict walk.
        assert columns.cumulative_weight(block_id) == reference.cumulative_weight(block_id)
        assert columns.subtree_weight(block_id) == reference.subtree_weight(block_id)


@pytest.mark.parametrize("seed", (1, 7, 23))
def test_columns_match_reference_selection(seed: int):
    columns, reference, _ = _grow_pair(seed)
    for rule, reference_rule in zip(RULES, REFERENCE_RULES):
        assert rule(columns).ids == reference_rule(reference).ids


@pytest.mark.parametrize("seed", (1, 23))
def test_columns_survive_pickle_roundtrip(seed: int):
    """Checkpoints capture and restore the new index columns."""
    columns, reference, ids = _grow_pair(seed)
    restored = pickle.loads(pickle.dumps(columns))
    assert restored._columns is not None
    assert restored.leaves() == columns.leaves()
    for block_id in ids:
        assert restored.height_of(block_id) == columns.height_of(block_id)
        assert restored.cumulative_weight(block_id) == columns.cumulative_weight(block_id)
        assert restored.subtree_weight(block_id) == columns.subtree_weight(block_id)
    for rule in RULES:
        assert rule(restored).ids == rule(columns).ids
    # The restored tree keeps growing identically on both planes.
    for i, tree in enumerate((restored, columns, reference)):
        tree.append(Block("post", "x0", weight=1.5))
    assert restored.subtree_weight(GENESIS_ID) == reference.subtree_weight(GENESIS_ID)
    assert restored.cumulative_weight("post") == reference.cumulative_weight("post")


def test_copy_isolates_columns():
    class Tagged(BlockTree):
        """Inherits the live ``copy()``, which builds ``type(self)``."""

    columns, reference, _ = _grow_pair(5, blocks=40)
    tagged = Tagged()
    for block_id in columns.block_ids()[1:]:
        tagged.append(columns.get(block_id))
    for tree in (columns, reference, tagged):
        clone = tree.copy()
        assert type(clone) is type(tree)
        clone.append(Block("only-in-clone", "x0"))
        assert "only-in-clone" in clone
        assert "only-in-clone" not in tree
        assert clone.subtree_weight("x0") != tree.subtree_weight("x0")


@pytest.mark.parametrize("seed", (2, 11, 31))
def test_lazily_settled_subtree_weights_are_bit_identical(seed: int):
    """Subtree weights settle when read: with non-dyadic weights (whose sums
    depend on the order they are added in) every read, copy and pickle
    interleaved between appends sees the eager dict walk's exact floats."""
    rng = random.Random(seed)
    tree, reference = BlockTree(), ReferenceBlockTree()
    ids = [GENESIS_ID]
    unsettled = 0
    for i in range(400):
        parent = rng.choice(ids[-6:] if rng.random() < 0.7 else ids)
        weight = rng.choice((0.1, 0.7, 0.3, 1.1, 1 / 3, 2.9e-3))
        for target in (tree, reference):
            target.append(Block(f"x{i}", parent, weight=weight))
        ids.append(f"x{i}")
        columns = tree._columns
        unsettled = max(unsettled, columns.size - columns.settled)
        roll = rng.random()
        if roll < 0.05:
            tree = tree.copy()
        elif roll < 0.1:
            tree = pickle.loads(pickle.dumps(tree))
        elif roll < 0.2:
            probe = rng.choice(ids)
            assert tree.subtree_weight(probe) == reference.subtree_weight(probe)
        elif roll < 0.25:
            assert GHOSTSelection()(tree).ids == ReferenceGHOSTSelection()(reference).ids
    assert unsettled >= 5  # reads were rare enough for debts to pile up
    for block_id in ids:
        assert tree.subtree_weight(block_id) == reference.subtree_weight(block_id)


def test_appends_leave_subtree_weights_unsettled_until_read():
    tree = BlockTree()
    tree.append(Block("a", GENESIS_ID, weight=0.1))
    tree.append(Block("b", "a", weight=0.7))
    columns = tree._columns
    assert (columns.settled, columns.size) == (1, 3)
    assert columns.subtree_weight[: columns.size].tolist() == [0.0, 0.1, 0.7]
    assert tree.subtree_weight(GENESIS_ID) == (0.0 + 0.1) + 0.7
    assert columns.settled == 3
    assert columns.subtree_weight[: columns.size].tolist() == [0.1 + 0.7, 0.1 + 0.7, 0.7]
