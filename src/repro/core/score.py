"""Score functions, the ``mcps`` helper and prefix utilities.

Section 3.1.2 of the paper introduces:

* ``score : BC -> N`` — a *monotonically increasing* deterministic function
  mapping a blockchain to a natural number (its length, its cumulative
  work, ...).  Monotonicity means ``score(bc ⌢ {b}) > score(bc)``.
* ``s0 = score({b0})`` — the score of the genesis-only chain.
* ``mcps : BC × BC -> N`` — the score of the *maximal common prefix* of two
  chains, the quantity the Eventual Prefix property constrains.

Scores drive three of the four consistency properties (Local Monotonic
Read, Ever Growing Tree, Eventual Prefix), so they get their own module
with small, well-tested implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.block import Blockchain
from repro.core.errors import Vocabulary

__all__ = [
    "SCORES",
    "ScoreFunction",
    "LengthScore",
    "WeightScore",
    "mcps",
    "common_prefix_length",
]


@runtime_checkable
class ScoreFunction(Protocol):
    """Protocol for the paper's ``score`` functions.

    Implementations must be *deterministic* and *strictly increasing under
    extension*: ``score(bc ⌢ b) > score(bc)`` for every valid extension.
    """

    def __call__(self, chain: Blockchain) -> float:
        """Return the score of ``chain``."""
        ...


#: Name -> score class, the ``score`` of an ``ExperimentSpec``.
SCORES = Vocabulary("score function")


@SCORES.register("length")
@dataclass(frozen=True)
class LengthScore:
    """Score = number of non-genesis blocks (the paper's running example).

    ``score({b0}) = 0``, and each appended block increases the score by 1.
    """

    def __call__(self, chain: Blockchain) -> float:
        return float(chain.length)


@SCORES.register("weight")
@dataclass(frozen=True)
class WeightScore:
    """Score = cumulative weight of the chain ("most work", "heaviest").

    With all block weights equal to 1 this coincides with
    :class:`LengthScore`; with proof-of-work difficulty as weight it models
    Bitcoin's "most accumulated work" rule.  A strictly positive
    ``min_increment`` keeps the function monotonic even when individual
    blocks carry zero weight.
    """

    min_increment: float = 0.0

    def __call__(self, chain: Blockchain) -> float:
        base = sum(b.weight for b in chain.blocks if not b.is_genesis)
        return float(base + self.min_increment * chain.length)


def common_prefix_length(a: Blockchain, b: Blockchain) -> int:
    """Number of *non-genesis* blocks shared by the maximal common prefix.

    Both chains share at least the genesis block, so the underlying common
    prefix always exists; this helper returns its length score directly
    because that is what every caller needs.
    """
    shared = 0
    for x, y in zip(a.ids, b.ids):
        if x != y:
            break
        shared += 1
    # ``shared`` counts genesis too; the length score ignores genesis.
    return shared - 1


def mcps(a: Blockchain, b: Blockchain, score: ScoreFunction | None = None) -> float:
    """The paper's ``mcps(bc, bc')``: score of the maximal common prefix.

    Parameters
    ----------
    a, b:
        The two chains (typically two read results).
    score:
        The score function to apply to the common prefix.  Defaults to
        :class:`LengthScore`, the convention used in Figures 2–4.
    """
    scorer = score if score is not None else LengthScore()
    if isinstance(scorer, LengthScore):
        # Length of the common prefix is known from the id tuples alone;
        # skip materializing (and re-validating) the prefix chain.
        return float(common_prefix_length(a, b))
    return scorer(a.common_prefix(b))
