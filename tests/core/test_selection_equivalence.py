"""Randomized equivalence: index-backed selections vs. brute-force oracles.

The selection rules in :mod:`repro.core.selection` read incrementally
maintained per-leaf indexes instead of rematerializing every root-to-leaf
chain.  These tests pin down that the optimization is *behaviour-
preserving*: on hundreds of random trees — including tie-heavy trees,
where every branch has the same score and only the lexicographic
tie-break decides — each rule must return exactly the chain the original
brute-force implementation (the ``Reference*`` oracles of
``tests/network/reference_plane.py``) returns, and the version-guarded
memo must never leak a stale chain across mutations or copies.
"""

from __future__ import annotations

import random

import pytest

from repro.core.block import GENESIS_ID, Block
from repro.core.blocktree import BlockTree
from repro.core.score import LengthScore, WeightScore
from repro.core.selection import (
    GHOSTSelection,
    HeaviestChain,
    LongestChain,
    ScoreMaximizingSelection,
)
from tests.network.reference_plane import (
    ReferenceGHOSTSelection,
    ReferenceHeaviestChain,
    ReferenceLongestChain,
    ReferenceScoreMaximizingSelection,
)

#: (indexed rule, brute-force oracle) pairs under test.
RULES = [
    pytest.param(LongestChain(), ReferenceLongestChain(), id="longest"),
    pytest.param(HeaviestChain(), ReferenceHeaviestChain(), id="heaviest"),
    pytest.param(GHOSTSelection(), ReferenceGHOSTSelection(), id="ghost"),
    pytest.param(
        ScoreMaximizingSelection(WeightScore(min_increment=0.25)),
        ReferenceScoreMaximizingSelection(WeightScore(min_increment=0.25)),
        id="weight-with-increment",
    ),
]

TREES_PER_RULE = 200


def _random_tree(rng: random.Random) -> BlockTree:
    """A random tree; roughly half the samples are deliberately tie-heavy.

    Tie-heavy trees use a single unit weight and frequent forking, so many
    leaves share the maximal score and the winner is decided purely by the
    lexicographic tie-break — the branch most likely to diverge between
    two implementations.
    """
    tree = BlockTree()
    tie_heavy = rng.random() < 0.5
    n_blocks = rng.randrange(1, 40)
    ids = [GENESIS_ID]
    for index in range(n_blocks):
        if tie_heavy:
            parent = rng.choice(ids)
            weight = 1.0
        else:
            # Bias towards recent blocks for depth, with occasional forks.
            parent = rng.choice(ids[-6:]) if rng.random() < 0.7 else rng.choice(ids)
            weight = rng.choice((0.0, 0.5, 1.0, 1.0, 2.0))
        block_id = f"n{index:03d}_{rng.randrange(1000):03d}"
        tree.append(Block(block_id, parent, weight=weight))
        ids.append(block_id)
    return tree


@pytest.mark.parametrize("indexed, reference", RULES)
def test_indexed_selection_matches_reference_on_random_trees(indexed, reference):
    rng = random.Random(f"equivalence:{indexed!r}")  # stable per-rule stream
    for case in range(TREES_PER_RULE):
        tree = _random_tree(rng)
        got = indexed(tree)
        expected = reference(tree)
        assert got.ids == expected.ids, (
            f"case {case}: {indexed!r} selected {got.ids[-1]}, "
            f"reference selected {expected.ids[-1]}\n{tree.to_ascii()}"
        )


@pytest.mark.parametrize("indexed, reference", RULES)
def test_memoized_reads_stay_correct_across_mutations(indexed, reference):
    """Interleave appends with repeated reads: the version-guarded memo
    must serve only results computed at the current tree version."""
    rng = random.Random(1234)
    tree = BlockTree()
    ids = [GENESIS_ID]
    for index in range(60):
        parent = rng.choice(ids[-8:])
        block_id = f"m{index:03d}_{rng.randrange(100):02d}"
        tree.append(Block(block_id, parent, weight=rng.choice((1.0, 1.0, 2.0))))
        ids.append(block_id)
        first = indexed(tree)
        second = indexed(tree)  # memo hit — must be the same chain
        assert second.ids == first.ids
        assert first.ids == reference(tree).ids


def test_copies_do_not_share_stale_memo_entries():
    tree = BlockTree()
    tree.append(Block("a1", GENESIS_ID))
    rule = LongestChain()
    assert rule(tree).tip.block_id == "a1"  # memoized at this version

    clone = tree.copy()
    assert rule(clone).tip.block_id == "a1"  # valid: content-identical copy

    clone.append(Block("z1", "a1"))
    tree.append(Block("b1", "a1"))
    tree.append(Block("b2", "b1"))
    assert rule(clone).tip.block_id == "z1"
    assert rule(tree).tip.block_id == "b2"
    assert rule(clone).ids == ReferenceLongestChain()(clone).ids
    assert rule(tree).ids == ReferenceLongestChain()(tree).ids


def test_unhashable_score_functions_fall_back_without_memo():
    class ListScore:
        """Deliberately unhashable selection key (defines __eq__ only)."""

        def __eq__(self, other):  # pragma: no cover - never compared
            return self is other

        __hash__ = None  # type: ignore[assignment]

        def __call__(self, chain):
            return float(chain.length)

    tree = BlockTree()
    tree.append(Block("a1", GENESIS_ID))
    tree.append(Block("a2", "a1"))
    rule = ScoreMaximizingSelection(ListScore())
    assert rule(tree).tip.block_id == "a2"
    tree.append(Block("a3", "a2"))
    assert rule(tree).tip.block_id == "a3"


def test_generic_score_fallback_matches_reference():
    """A custom (hashable) score falls back to scoring chains — still
    equivalent to the brute-force oracle, and still memoizable."""

    class PayloadScore:
        def __call__(self, chain):
            return float(sum(len(b.payload) for b in chain.blocks))

        def __hash__(self):
            return hash(type(self))

        def __eq__(self, other):
            return type(other) is type(self)

    rng = random.Random(99)
    tree = BlockTree()
    ids = [GENESIS_ID]
    for index in range(30):
        parent = rng.choice(ids)
        block_id = f"p{index:03d}"
        payload = tuple(f"tx{j}" for j in range(rng.randrange(4)))
        tree.append(Block(block_id, parent, payload=payload))
        ids.append(block_id)
    indexed = ScoreMaximizingSelection(PayloadScore())
    reference = ReferenceScoreMaximizingSelection(PayloadScore())
    assert indexed(tree).ids == reference(tree).ids
    assert indexed(tree).ids == indexed(tree).ids
