"""Chain reads: ``BlockTree.chain_to`` extends the last chain it built.

Whatever order blocks are read in, and across ``copy()`` and a pickle
round trip, a read equals the chain a fresh walk from the block back to
the root builds; and reading a growing path validates a whole chain only
once, not once per read.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.block import GENESIS, GENESIS_ID, Block, Blockchain
from repro.core.blocktree import BlockTree
from repro.core.selection import LongestChain


def root_walk(tree: BlockTree, block_id: str) -> tuple:
    """The path from genesis to ``block_id``, walked parent by parent."""
    path = []
    cursor = block_id
    while cursor is not None:
        block = tree.get(cursor)
        path.append(block)
        cursor = block.parent_id
    return tuple(reversed(path))


#: One step of a random sequence: append under the i-th block, read the
#: i-th block (both modulo the tree's size), copy, or pickle round trip.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("read"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("copy"), st.just(0)),
        st.tuples(st.just("pickle"), st.just(0)),
    ),
    max_size=60,
)


class TestChainReadsEqualRootWalks:
    @settings(max_examples=150, deadline=None)
    @given(steps)
    def test_any_read_order_across_copies_and_pickles(self, ops):
        tree = BlockTree()
        ids = [GENESIS_ID]
        for kind, i in ops:
            if kind == "append":
                # Appending under the newest block half the time grows a
                # path, which is what the extension step serves.
                parent = ids[-1] if i % 2 else ids[i % len(ids)]
                ids.append(tree.append(Block(f"b{len(ids)}", parent)).block_id)
                continue
            if kind == "copy":
                original, tree = tree, tree.copy()
                assert original.chain_to(ids[-1]).blocks == root_walk(original, ids[-1])
            elif kind == "pickle":
                tree = pickle.loads(pickle.dumps(tree))
            block_id = ids[i % len(ids)] if kind == "read" else ids[-1]
            chain = tree.chain_to(block_id)
            assert chain.blocks == root_walk(tree, block_id)
            assert Blockchain(chain.blocks) == chain

    def test_a_repeated_read_returns_the_same_chain(self):
        tree = BlockTree()
        tree.append(Block("x", GENESIS_ID))
        assert tree.chain_to("x") is tree.chain_to("x")

    def test_unknown_block_raises(self):
        with pytest.raises(KeyError):
            BlockTree().chain_to("missing")


class TestExtension:
    def test_extended_checks_the_new_link(self):
        chain = Blockchain((GENESIS,))
        x = Block("x", GENESIS_ID)
        assert chain.extended(x) == Blockchain((GENESIS, x))

    def test_a_broken_link_raises_as_the_constructor_does(self):
        x, y = Block("x", GENESIS_ID), Block("y", "elsewhere")
        with pytest.raises(ValueError) as full:
            Blockchain((GENESIS, x, y))
        with pytest.raises(ValueError) as extended:
            Blockchain((GENESIS, x)).extended(y)
        assert str(extended.value) == str(full.value)
        assert "broken chain" in str(full.value)


def test_reads_of_a_growing_path_validate_one_whole_chain(monkeypatch):
    validated = []
    post_init = Blockchain.__post_init__

    def counting(chain):
        validated.append(len(chain.blocks))
        post_init(chain)

    monkeypatch.setattr(Blockchain, "__post_init__", counting)
    tree = BlockTree()
    parent = GENESIS_ID
    for i in range(300):
        parent = tree.append(Block(f"x{i}", parent)).block_id
        chain = LongestChain()(tree)
        assert chain.tip.block_id == parent and chain.length == i + 1
    assert len(validated) <= 2
