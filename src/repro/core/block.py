"""Blocks and blockchains.

A *block* is a vertex of the BlockTree (Section 3.1 of the paper).  The
paper treats blocks as opaque elements of a countable set ``B`` with a
distinguished subset ``B'`` of *valid* blocks; validity is evaluated by an
application-dependent predicate ``P`` (see :mod:`repro.core.validity`).

A *blockchain* ``bc`` is a path from a leaf of the BlockTree back to the
genesis block ``b0``.  We represent it root-first (genesis at index ``0``)
because every notation in the paper — ``{b0}^⌢ f(bt)``, prefix relations,
the ``mcps`` score — reads naturally in that direction.

Both types are immutable: blocks are frozen dataclasses and blockchains
are thin wrappers over tuples of blocks.  Immutability is what lets the
consistency checkers in :mod:`repro.core.consistency` compare thousands of
read results cheaply (hash-consed identifier tuples, cached heights).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Iterator, Optional, Tuple

__all__ = [
    "Block",
    "Blockchain",
    "GENESIS_ID",
    "GENESIS",
    "genesis_block",
    "BlockIdFactory",
]

#: Identifier of the genesis block ``b0``.  Every BlockTree is rooted here.
GENESIS_ID = "b0"


@dataclass(frozen=True)
class Block:
    """An element of the block set ``B``.

    Parameters
    ----------
    block_id:
        Globally unique identifier of the block.  The paper indexes blocks
        abstractly (``b_k`` is *some* block at height ``k``); we use opaque
        string identifiers and recover heights from the tree structure.
    parent_id:
        Identifier of the block this block extends.  ``None`` only for the
        genesis block.
    payload:
        Application content (e.g. transaction identifiers).  Kept as a
        tuple so blocks remain hashable.
    creator:
        Identifier of the process that produced the block (used by the
        protocol models and by fairness-style analyses).
    weight:
        Work/weight contributed by this block, used by weight-based score
        and selection functions (``heaviest chain'', GHOST).  The default
        of ``1.0`` makes weight-based and length-based scores coincide.
    token:
        Identifier of the oracle token consumed to append the block, when
        the block was produced through a refined append
        (:class:`repro.oracle.refinement.RefinedBTADT`).  ``None`` for
        blocks appended directly on the plain BT-ADT.
    round:
        Logical time (simulator round or scheduler step) at which the
        block was created.  Only used by analyses; never by the ADT
        semantics themselves.
    """

    block_id: str
    parent_id: Optional[str]
    payload: Tuple[Any, ...] = ()
    creator: Optional[str] = None
    weight: float = 1.0
    token: Optional[str] = None
    round: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.block_id, str) or not self.block_id:
            raise ValueError("block_id must be a non-empty string")
        if self.parent_id is None and self.block_id != GENESIS_ID:
            raise ValueError(
                f"only the genesis block {GENESIS_ID!r} may have no parent "
                f"(got block {self.block_id!r})"
            )
        if self.block_id == self.parent_id:
            raise ValueError(f"block {self.block_id!r} cannot be its own parent")
        if self.weight < 0:
            raise ValueError("block weight must be non-negative")

    @property
    def is_genesis(self) -> bool:
        """``True`` iff this block is the genesis block ``b0``."""
        return self.parent_id is None

    def with_parent(self, parent_id: str) -> "Block":
        """Return a copy of this block re-attached under ``parent_id``.

        Used by the refined append (Definition 3.7) where the oracle
        decides the parent (``last_block(f(bt))``) on behalf of the caller.
        """
        return replace(self, parent_id=parent_id)

    def with_token(self, token: str) -> "Block":
        """Return a copy of this block carrying oracle ``token``.

        This models the paper's ``b_ℓ^{tkn_h}`` notation: a block made
        valid by obtaining token ``tkn_h`` for parent ``b_h``.
        """
        return replace(self, token=token)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.block_id


def genesis_block(payload: Tuple[Any, ...] = ()) -> Block:
    """Return a fresh genesis block ``b0``.

    By assumption in the paper ``b0 ∈ B'`` (the genesis block is always
    valid); every :class:`repro.core.blocktree.BlockTree` is created
    already containing it.
    """
    return Block(block_id=GENESIS_ID, parent_id=None, payload=payload, weight=0.0)


#: A shared default genesis block.  Safe to share because blocks are frozen.
GENESIS = genesis_block()


class BlockIdFactory:
    """Deterministic generator of unique block identifiers.

    The paper's set ``B`` is countable; this factory enumerates it.  Each
    factory owns an independent counter so concurrent components (e.g.
    different protocol replicas) can create blocks without coordination as
    long as they use distinct prefixes.
    """

    def __init__(self, prefix: str = "b") -> None:
        if not prefix:
            raise ValueError("prefix must be non-empty")
        self._prefix = prefix
        self._counter = itertools.count(1)

    def __call__(self) -> str:
        return f"{self._prefix}{next(self._counter)}"

    def burn(self) -> None:
        """Use up the next identifier without formatting it."""
        next(self._counter)

    def make_block(
        self,
        parent_id: str,
        *,
        payload: Tuple[Any, ...] = (),
        creator: Optional[str] = None,
        weight: float = 1.0,
        round: Optional[int] = None,
    ) -> Block:
        """Create a new :class:`Block` with a fresh identifier."""
        return Block(
            block_id=self(),
            parent_id=parent_id,
            payload=payload,
            creator=creator,
            weight=weight,
            round=round,
        )


@dataclass(frozen=True)
class Blockchain:
    """A blockchain ``bc``: a path from the genesis block to some block.

    The paper defines ``BC`` as the set of paths from a leaf of ``bt`` to
    ``b0`` and writes ``{b0}^⌢ f(bt)`` for the chain returned by a read.
    We store the path root-first: ``blocks[0]`` is genesis, ``blocks[-1]``
    is the tip.

    Instances are immutable and cache their identifier tuple, so prefix
    comparisons (`issubclass` of paths) and the ``mcps`` computation in
    :mod:`repro.core.score` are tuple comparisons, not tree walks.
    :meth:`extended` grows a valid chain by one block, checking one link.
    """

    blocks: Tuple[Block, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a blockchain contains at least the genesis block")
        if not self.blocks[0].is_genesis:
            raise ValueError("a blockchain must start at the genesis block")
        for parent, child in zip(self.blocks, self.blocks[1:]):
            if child.parent_id != parent.block_id:
                raise ValueError(
                    f"broken chain: {child.block_id!r} does not extend "
                    f"{parent.block_id!r} (its parent is {child.parent_id!r})"
                )

    def extended(self, block: Block) -> "Blockchain":
        """This chain plus ``block``, checking only the new link (``self``
        holds the invariant already); a broken one raises as the constructor."""
        blocks = self.blocks + (block,)
        if block.parent_id != self.blocks[-1].block_id:
            return Blockchain(blocks)  # raises __post_init__'s ValueError
        chain = object.__new__(Blockchain)
        object.__setattr__(chain, "blocks", blocks)
        return chain

    # -- basic accessors -------------------------------------------------

    @cached_property
    def ids(self) -> Tuple[str, ...]:
        """Tuple of block identifiers, root-first (computed once per chain).

        Prefix comparisons and the ``mcps`` computation hammer this tuple,
        so it is cached on first access (safe: chains are immutable; the
        cache bypasses the frozen-dataclass ``__setattr__``).
        """
        return tuple(b.block_id for b in self.blocks)

    @property
    def tip(self) -> Block:
        """The last (leaf-most) block of the chain."""
        return self.blocks[-1]

    @property
    def length(self) -> int:
        """Number of non-genesis blocks (the paper's height/length score)."""
        return len(self.blocks) - 1

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    # -- structural relations ---------------------------------------------

    def prefix(self, length: int) -> "Blockchain":
        """Return the prefix containing ``length`` non-genesis blocks."""
        if length < 0 or length > self.length:
            raise ValueError(
                f"prefix length {length} out of range [0, {self.length}]"
            )
        return Blockchain(self.blocks[: length + 1])

    def is_prefix_of(self, other: "Blockchain") -> bool:
        """The paper's ``bc ⊑ bc'`` relation (``self`` prefixes ``other``)."""
        if len(self.blocks) > len(other.blocks):
            return False
        return self.ids == other.ids[: len(self.ids)]

    def common_prefix(self, other: "Blockchain") -> "Blockchain":
        """Return the maximal common prefix of the two chains.

        Both chains share at least the genesis block, so the result is
        never empty.
        """
        shared = 0
        for a, b in zip(self.ids, other.ids):
            if a != b:
                break
            shared += 1
        return Blockchain(self.blocks[:shared])

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "⌢".join(self.ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Blockchain({'->'.join(self.ids)})"
