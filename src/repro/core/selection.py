"""Selection functions ``f : BT -> BC``.

The BT-ADT is parameterized by a selection function ``f`` drawn from a set
``F``: ``f(bt)`` selects a blockchain from the BlockTree, and both the
``read()`` output and the parent of an appended block are defined through
it (Definition 3.1).  The paper leaves ``f`` generic "to suit the different
blockchain implementations" and names two concrete instances — the longest
chain and the heaviest chain — plus, in Section 5, the GHOST rule used by
Ethereum and the trivial projection used by single-chain (consensus-based)
systems.

All implementations here are *deterministic*: ties are broken by the
lexicographic order of the tip identifier, exactly as in the worked
example of Figure 2 ("in case of equality, selects the largest based on
the lexicographical order").  Determinism matters because the consistency
criteria are stated over read outputs; a nondeterministic ``f`` would make
the sequential specification ill-defined.

Performance: the simulator evaluates ``f(bt)`` on virtually every
delivery/mining event, so the rules below never rematerialize every
root-to-leaf chain.  They read the per-leaf score indexes the tree
maintains incrementally (heights for the length score, cumulative weights
for the weight score, subtree weights for GHOST) and only build the one
winning chain — then memoize it against the tree's ``version`` counter,
so repeated ``read()`` / tip queries between mutations cost O(1).  Each
rule has one implementation here; the brute-force originals are test
code (``tests/network/reference_plane.py``), which the randomized
equivalence tests (``tests/core/test_selection_equivalence.py``) hold
these rules to.  The indexed rules are timed by the ledger row
``core.selection.select_s`` (``benchmarks/ledger``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.core.block import Blockchain
from repro.core.blocktree import BlockTree
from repro.core.errors import Vocabulary
from repro.core.score import LengthScore, ScoreFunction, WeightScore


def _vector_tip(index, increment: float, by_length: bool) -> str:
    """Winning tip over a columnar leaf index (see ``BlockTree.leaf_index``).

    Reproduces a ``max`` over ``(score, leaf_id)`` keys exactly: the
    score expression performs the same IEEE-754 operations in the same
    order as ``WeightScore`` on the materialized chain (``cum +
    increment * height``), and score ties resolve to the
    lexicographically largest leaf id.
    Small leaf sets (the overwhelmingly common case — fork trees carry a
    handful of live leaves) arrive as plain lists and take a scalar
    max-key loop; large ones arrive as numpy columns and are scored in
    one vectorized expression.
    """
    leaf_ids, heights, cums = index
    if len(leaf_ids) == 1:
        return leaf_ids[0]
    if isinstance(heights, list):
        if by_length:
            scores = heights
        elif increment:
            scores = [cum + increment * height for cum, height in zip(cums, heights)]
        else:
            scores = cums
        best_score = scores[0]
        best_leaf = leaf_ids[0]
        for i in range(1, len(leaf_ids)):
            score = scores[i]
            if score > best_score:
                best_score = score
                best_leaf = leaf_ids[i]
            elif score == best_score and leaf_ids[i] > best_leaf:
                best_leaf = leaf_ids[i]
        return best_leaf
    if by_length:
        scores = heights
    elif increment:
        scores = cums + increment * heights
    else:
        scores = cums
    best = scores.max()
    ties = np.flatnonzero(scores == best)
    if len(ties) == 1:
        return leaf_ids[int(ties[0])]
    winner = None
    for i in ties.tolist():
        leaf = leaf_ids[i]
        if winner is None or leaf > winner:
            winner = leaf
    return winner

__all__ = [
    "SELECTIONS",
    "SelectionFunction",
    "LongestChain",
    "HeaviestChain",
    "GHOSTSelection",
    "ScoreMaximizingSelection",
    "FixedTipSelection",
]


@runtime_checkable
class SelectionFunction(Protocol):
    """Protocol for the paper's selection functions ``f ∈ F``.

    ``f(bt)`` must return a blockchain of ``bt`` (a root-to-vertex path);
    when the tree only contains the genesis block the returned chain is
    the genesis-only chain ``{b0}``.
    """

    def __call__(self, tree: BlockTree) -> Blockchain:
        """Select a chain from ``tree``."""
        ...


@dataclass(frozen=True)
class ScoreMaximizingSelection:
    """Select the leaf chain maximizing an arbitrary score function.

    This is the generic form of which :class:`LongestChain` and
    :class:`HeaviestChain` are the two named instances.  Ties on the score
    are broken lexicographically on the tip identifier.

    For the paper's two score families the per-leaf score is read straight
    off the tree's incremental indexes (no chain is built until the winner
    is known); an unknown :class:`ScoreFunction` falls back to scoring each
    leaf chain — once per chain, not twice.
    """

    score: ScoreFunction = field(default_factory=LengthScore)

    def __call__(self, tree: BlockTree) -> Blockchain:
        cached = tree.cached_selection(self)
        if cached is not None:
            return cached
        winner = self._select_tip(tree)
        if winner is not None:
            chain = tree.chain_to(winner)
        else:
            chain = self._select_by_scoring_chains(tree)
        tree.cache_selection(self, chain)
        return chain

    def _select_tip(self, tree: BlockTree) -> Optional[str]:
        """Winning tip from the per-leaf indexes, or ``None`` if the score
        function is not index-backed.

        The comparison key ``(score, leaf_id)`` reproduces exactly the
        brute-force semantics: maximal score first, lexicographically
        largest tip identifier among score ties.
        """
        score = self.score
        if isinstance(score, LengthScore):
            return _vector_tip(tree.leaf_index(), 0.0, True)
        if isinstance(score, WeightScore):
            return _vector_tip(tree.leaf_index(), score.min_increment, False)
        return None

    def _select_by_scoring_chains(self, tree: BlockTree) -> Blockchain:
        """Generic fallback: score every leaf chain exactly once."""
        score = self.score
        best: Optional[Tuple[float, str]] = None
        winner: Optional[Blockchain] = None
        for chain in tree.all_chains():
            key = (score(chain), chain.tip.block_id)
            if best is None or key > best:
                best, winner = key, chain
        assert winner is not None  # a tree always has >= 1 leaf
        return winner


#: Name -> selection class, the ``selection`` of an ``ExperimentSpec``.
SELECTIONS = Vocabulary("selection function")


@SELECTIONS.register("longest")
@dataclass(frozen=True)
class LongestChain:
    """The longest-chain rule (Bitcoin's original description, Figure 2)."""

    def __call__(self, tree: BlockTree) -> Blockchain:
        return _LONGEST(tree)


@SELECTIONS.register("heaviest")
@dataclass(frozen=True)
class HeaviestChain:
    """The heaviest-chain ("most accumulated work") rule.

    The paper notes that Bitcoin's ``f`` "returns the blockchain which has
    required the most computational work"; block weights model per-block
    difficulty.
    """

    def __call__(self, tree: BlockTree) -> Blockchain:
        return _HEAVIEST(tree)


@SELECTIONS.register("ghost")
@dataclass(frozen=True)
class GHOSTSelection:
    """The GHOST rule (Greedy Heaviest-Observed Sub-Tree).

    Used by the Ethereum model (Section 5.2): starting from the genesis
    block, repeatedly descend into the child whose *subtree* carries the
    most weight, until a leaf is reached.  Ties are broken
    lexicographically for determinism.

    The descent reads the tree's cached subtree weights (one comparison
    pass per level) and the resulting chain is memoized against the tree
    version, so repeated reads between mutations are O(1).
    """

    def __call__(self, tree: BlockTree) -> Blockchain:
        cached = tree.cached_selection(self)
        if cached is not None:
            return cached
        chain = tree.chain_to(tree.ghost_tip())
        tree.cache_selection(self, chain)
        return chain


# Shared, stateless rule instances: ``LongestChain``/``HeaviestChain`` (and
# the ``FixedTipSelection`` fallback) delegate here instead of constructing
# a fresh inner selection + score object on every call.  Sharing is safe —
# the instances are frozen and the memo lives on the tree, not the rule.
_LONGEST = ScoreMaximizingSelection(LengthScore())
_HEAVIEST = ScoreMaximizingSelection(WeightScore())


@SELECTIONS.register("fixed-tip")
@dataclass(frozen=True)
class FixedTipSelection:
    """Selection that follows an externally decided tip (consensus systems).

    Red Belly, Hyperledger Fabric and the other strongly consistent
    systems of Table 1 keep a *single* chain: the "selection" is the
    trivial projection from the (fork-free) tree to its unique chain.
    When a tip has been pinned (by the consensus/ordering layer) the
    selection returns the chain to that tip; otherwise it behaves as the
    longest-chain rule over what is necessarily a path.
    """

    tip_id: Optional[str] = None

    def __call__(self, tree: BlockTree) -> Blockchain:
        if self.tip_id is not None and self.tip_id in tree:
            cached = tree.cached_selection(self)
            if cached is not None:
                return cached
            chain = tree.chain_to(self.tip_id)
            tree.cache_selection(self, chain)
            return chain
        return _LONGEST(tree)
