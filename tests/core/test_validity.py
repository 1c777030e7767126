"""Unit tests for validity predicates P."""

from __future__ import annotations

import pytest

from repro.core.block import GENESIS, GENESIS_ID, Block
from repro.core.blocktree import BlockTree
from repro.core.validity import (
    AlwaysValid,
    CompositeValidity,
    MembershipValidity,
    NoDoubleSpend,
    ParentInTree,
)


@pytest.fixture()
def tree_with_spends() -> BlockTree:
    tree = BlockTree()
    tree.append(Block("s1", GENESIS_ID, payload=("coin1", "coin2")))
    tree.append(Block("s2", "s1", payload=("coin3",)))
    tree.append(Block("other", GENESIS_ID, payload=("coin9",)))
    return tree


class TestBasicPredicates:
    def test_always_valid(self, linear_tree):
        assert AlwaysValid()(Block("z", GENESIS_ID), linear_tree)

    def test_parent_in_tree(self, linear_tree):
        assert ParentInTree()(Block("z", "x3"), linear_tree)
        assert not ParentInTree()(Block("z", "missing"), linear_tree)
        assert ParentInTree()(GENESIS, linear_tree)

    def test_membership_validity(self, linear_tree):
        predicate = MembershipValidity.of(["good"])
        assert predicate(Block("good", GENESIS_ID), linear_tree)
        assert not predicate(Block("bad", GENESIS_ID), linear_tree)
        assert predicate(GENESIS, linear_tree)


class TestNoDoubleSpend:
    def test_fresh_spend_is_valid(self, tree_with_spends):
        block = Block("new", "s2", payload=("coin4",))
        assert NoDoubleSpend()(block, tree_with_spends)

    def test_respend_on_same_branch_is_invalid(self, tree_with_spends):
        block = Block("bad", "s2", payload=("coin1",))
        assert not NoDoubleSpend()(block, tree_with_spends)

    def test_respend_on_other_branch_is_allowed(self, tree_with_spends):
        # coin1 was spent on the s1 branch; spending it on the 'other' branch
        # is tolerated (forks may double spend across branches).
        block = Block("crossfork", "other", payload=("coin1",))
        assert NoDoubleSpend()(block, tree_with_spends)

    def test_empty_payload_is_valid(self, tree_with_spends):
        assert NoDoubleSpend()(Block("empty", "s2"), tree_with_spends)

    def test_unknown_parent_defers(self, tree_with_spends):
        block = Block("floating", "unknown", payload=("coin1",))
        assert NoDoubleSpend()(block, tree_with_spends)


class TestComposite:
    def test_conjunction_requires_all(self, linear_tree):
        predicate = CompositeValidity.of(ParentInTree(), MembershipValidity.of(["ok"]))
        assert predicate(Block("ok", "x3"), linear_tree)
        assert not predicate(Block("ok", "missing"), linear_tree)
        assert not predicate(Block("nope", "x3"), linear_tree)

    def test_empty_composite_accepts_everything(self, linear_tree):
        assert CompositeValidity()(Block("any", GENESIS_ID), linear_tree)

    def test_bitcoin_validity_combines_structure_and_spends(self, tree_with_spends):
        # The paper's Bitcoin example: connectable and double-spend free.
        predicate = CompositeValidity.of(ParentInTree(), NoDoubleSpend())
        assert predicate(Block("fine", "s2", payload=("coinX",)), tree_with_spends)
        assert not predicate(Block("orphan", "missing", payload=("coinX",)), tree_with_spends)
        assert not predicate(Block("dspend", "s2", payload=("coin2",)), tree_with_spends)
