"""Validity predicates ``P : B -> {true, false}``.

The BT-ADT is parameterized by an application-dependent predicate ``P``
that singles out the valid blocks ``B' ⊆ B`` (Section 3.1).  The paper's
running example is Bitcoin's rule — "a block is considered valid if it can
be connected to the current blockchain and does not contain transactions
that double spend a previous transaction" — and the creation process that
*produces* valid blocks is abstracted away into the token oracle
(Section 3.2).

This module provides the predicate combinators the rest of the library
uses.  Predicates are plain callables ``(block, tree) -> bool``: passing
the tree lets structural predicates (parent linkage, height limits) be
expressed without a global registry, while content predicates simply
ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Protocol, Set, Tuple, runtime_checkable

from repro.core.block import Block
from repro.core.blocktree import BlockTree

__all__ = [
    "ValidityPredicate",
    "AlwaysValid",
    "ParentInTree",
    "MembershipValidity",
    "NoDoubleSpend",
    "CompositeValidity",
]


@runtime_checkable
class ValidityPredicate(Protocol):
    """Protocol for the paper's predicate ``P``.

    ``predicate(block, tree)`` returns ``True`` iff ``block ∈ B'`` with
    respect to the current tree (some predicates are purely intrinsic and
    ignore ``tree``; passing it uniformly keeps the BT-ADT code simple).
    """

    def __call__(self, block: Block, tree: BlockTree) -> bool:
        """Decide whether ``block`` is valid."""
        ...


@dataclass(frozen=True)
class AlwaysValid:
    """``P(b) = ⊤`` for every block — the permissive baseline.

    Useful for exercising the raw BT-ADT semantics where, as the paper
    notes, "histories with no append operations are trivially admitted"
    and any block may enter the tree.
    """

    def __call__(self, block: Block, tree: BlockTree) -> bool:  # noqa: ARG002
        return True


@dataclass(frozen=True)
class ParentInTree:
    """Valid iff the block's parent is already a vertex of the tree.

    This is the structural half of the Bitcoin rule ("can be connected to
    the current blockchain").
    """

    def __call__(self, block: Block, tree: BlockTree) -> bool:
        if block.is_genesis:
            return True
        return block.parent_id in tree


@dataclass(frozen=True)
class MembershipValidity:
    """Valid iff the block identifier belongs to a fixed whitelist ``B'``.

    This is the most literal reading of the paper's countable set of valid
    blocks and is what the figure-level scenarios and several unit tests
    use to stage "invalid block" append attempts.
    """

    valid_ids: FrozenSet[str]

    @classmethod
    def of(cls, ids: Iterable[str]) -> "MembershipValidity":
        return cls(frozenset(ids))

    def __call__(self, block: Block, tree: BlockTree) -> bool:  # noqa: ARG002
        return block.is_genesis or block.block_id in self.valid_ids


@dataclass(frozen=True)
class NoDoubleSpend:
    """Valid iff the block spends no transaction already spent on its branch.

    Block payloads are interpreted as tuples of transaction identifiers;
    a block is invalid if any of its transactions already appears in one
    of its ancestors.  This is the content half of the Bitcoin rule.
    Transactions appearing on *other* branches do not invalidate the block
    (forks may temporarily double spend across branches — that is exactly
    the behaviour eventual consistency tolerates).
    """

    def __call__(self, block: Block, tree: BlockTree) -> bool:
        if block.is_genesis or not block.payload:
            return True
        if block.parent_id not in tree:
            # Cannot even locate the branch: defer to structural predicates.
            return True
        spent: Set[object] = set()
        cursor: Optional[str] = block.parent_id
        while cursor is not None:
            ancestor = tree.get(cursor)
            spent.update(ancestor.payload)
            cursor = ancestor.parent_id
        return not any(tx in spent for tx in block.payload)


@dataclass(frozen=True)
class CompositeValidity:
    """Conjunction of several predicates (all must accept the block)."""

    predicates: Tuple[ValidityPredicate, ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, *predicates: ValidityPredicate) -> "CompositeValidity":
        return cls(tuple(predicates))

    def __call__(self, block: Block, tree: BlockTree) -> bool:
        return all(p(block, tree) for p in self.predicates)
