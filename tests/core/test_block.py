"""Unit tests for blocks and blockchains."""

from __future__ import annotations

import pytest

from repro.core.block import (
    GENESIS,
    GENESIS_ID,
    Block,
    BlockIdFactory,
    Blockchain,
    genesis_block,
)
from tests.core.reference_consistency import diverges


class TestBlock:
    def test_genesis_has_no_parent(self):
        assert GENESIS.parent_id is None
        assert GENESIS.is_genesis

    def test_genesis_block_factory_is_valid_and_weightless(self):
        g = genesis_block()
        assert g.block_id == GENESIS_ID
        assert g.weight == 0.0

    def test_non_genesis_requires_parent(self):
        with pytest.raises(ValueError):
            Block("b1", None)

    def test_block_cannot_be_its_own_parent(self):
        with pytest.raises(ValueError):
            Block("b1", "b1")

    def test_block_id_must_be_nonempty_string(self):
        with pytest.raises(ValueError):
            Block("", GENESIS_ID)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Block("b1", GENESIS_ID, weight=-1.0)

    def test_with_parent_returns_reparented_copy(self):
        block = Block("b1", GENESIS_ID)
        moved = block.with_parent("x")
        assert moved.parent_id == "x"
        assert block.parent_id == GENESIS_ID  # original unchanged

    def test_with_token_stamps_token(self):
        block = Block("b1", GENESIS_ID)
        stamped = block.with_token("tkn_b0")
        assert stamped.token == "tkn_b0"
        assert block.token is None

    def test_blocks_are_hashable_and_equal_by_value(self):
        a = Block("b1", GENESIS_ID)
        b = Block("b1", GENESIS_ID)
        assert a == b
        assert hash(a) == hash(b)


class TestBlockIdFactory:
    def test_ids_are_unique_and_sequential(self):
        factory = BlockIdFactory()
        assert factory() == "b1"
        assert factory() == "b2"

    def test_prefix_is_respected(self):
        factory = BlockIdFactory(prefix="node_")
        assert factory().startswith("node_")

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            BlockIdFactory(prefix="")

    def test_make_block_links_parent_and_metadata(self):
        factory = BlockIdFactory()
        block = factory.make_block(GENESIS_ID, creator="p1", weight=2.0, round=3)
        assert block.parent_id == GENESIS_ID
        assert block.creator == "p1"
        assert block.weight == 2.0
        assert block.round == 3


class TestBlockchain:
    def test_must_start_at_genesis(self):
        with pytest.raises(ValueError):
            Blockchain((Block("b1", GENESIS_ID),))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            Blockchain(())

    def test_broken_link_rejected(self):
        b1 = Block("b1", GENESIS_ID)
        b3 = Block("b3", "b2")
        with pytest.raises(ValueError):
            Blockchain((GENESIS, b1, b3))

    def test_genesis_only_chain(self):
        chain = Blockchain((GENESIS,))
        assert chain.length == 0
        assert chain.tip == GENESIS

    def test_length_excludes_genesis(self, chain_factory):
        assert chain_factory("a", "b", "c").length == 3

    def test_ids_are_root_first(self, chain_factory):
        assert chain_factory("a", "b").ids == (GENESIS_ID, "a", "b")

    def test_prefix_and_bounds(self, chain_factory):
        chain = chain_factory("a", "b", "c")
        assert chain.prefix(2).ids == (GENESIS_ID, "a", "b")
        assert chain.prefix(0).ids == (GENESIS_ID,)
        with pytest.raises(ValueError):
            chain.prefix(4)
        with pytest.raises(ValueError):
            chain.prefix(-1)

    def test_is_prefix_of(self, chain_factory):
        short = chain_factory("a", "b")
        long = chain_factory("a", "b", "c")
        other = chain_factory("a", "x")
        assert short.is_prefix_of(long)
        assert not long.is_prefix_of(short)
        assert short.is_prefix_of(short)
        assert not other.is_prefix_of(long)

    def test_common_prefix(self, chain_factory):
        a = chain_factory("a", "b", "c")
        b = chain_factory("a", "b", "x", "y")
        assert a.common_prefix(b).ids == (GENESIS_ID, "a", "b")
        assert a.common_prefix(a).ids == a.ids

    def test_common_prefix_with_divergence_at_genesis(self, chain_factory):
        a = chain_factory("a")
        b = chain_factory("x")
        assert a.common_prefix(b).ids == (GENESIS_ID,)

    def test_diverges_from(self, chain_factory):
        """The reference checkers' divergence: neither chain prefixes the other."""
        a = chain_factory("a", "b")
        assert diverges(a, chain_factory("a", "x"))
        assert not diverges(a, chain_factory("a", "b", "c"))
        assert not diverges(a, chain_factory("a"))

    def test_iteration(self, chain_factory):
        chain = chain_factory("a", "b")
        assert [b.block_id for b in chain] == [GENESIS_ID, "a", "b"]
