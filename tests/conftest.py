"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.block import GENESIS, Block, BlockIdFactory, Blockchain
from repro.core.blocktree import BlockTree
from repro.core.history import HistoryRecorder
from repro.network.simulator import Simulator
from repro.protocols import base


@pytest.fixture()
def ids() -> BlockIdFactory:
    """A fresh block-id factory per test."""
    return BlockIdFactory()


@pytest.fixture()
def recorder() -> HistoryRecorder:
    """A fresh history recorder per test."""
    return HistoryRecorder()


@pytest.fixture()
def linear_tree() -> BlockTree:
    """A tree holding the single chain b0 <- x1 <- x2 <- x3."""
    tree = BlockTree()
    parent = GENESIS.block_id
    for i in range(1, 4):
        block = Block(f"x{i}", parent)
        tree.append(block)
        parent = block.block_id
    return tree


@pytest.fixture()
def forked_tree() -> BlockTree:
    """A tree with two branches off the genesis block.

    Branch A: a1 <- a2 <- a3 (length 3); branch B: b1 <- b2 (length 2).
    """
    tree = BlockTree()
    parent = GENESIS.block_id
    for i in range(1, 4):
        block = Block(f"a{i}", parent)
        tree.append(block)
        parent = block.block_id
    parent = GENESIS.block_id
    for i in range(1, 3):
        block = Block(f"b{i}", parent)
        tree.append(block)
        parent = block.block_id
    return tree


def make_chain(*ids: str) -> Blockchain:
    """Helper: build a chain b0 <- ids[0] <- ids[1] <- ... (test utility)."""
    blocks = [GENESIS]
    parent = GENESIS.block_id
    for bid in ids:
        block = Block(bid, parent)
        blocks.append(block)
        parent = bid
    return Blockchain(tuple(blocks))


@pytest.fixture()
def chain_factory():
    """Expose :func:`make_chain` as a fixture."""
    return make_chain


@pytest.fixture()
def worker_starts(monkeypatch):
    """The pid of every ``multiprocessing`` process started during the test."""
    started = []
    original = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        original(self)
        started.append(self.pid)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return started


@pytest.fixture(params=Simulator.CORES)
def event_core(request, monkeypatch) -> str:
    """Every run the test makes drains on one event store, each in turn.

    ``run_protocol`` picks its store from the run's size
    (:func:`~repro.network.simulator.core_for_run`), so a small run
    would otherwise only ever reach the heap.  Pin one store with
    ``@pytest.mark.parametrize("event_core", ["array"], indirect=True)``.
    """
    monkeypatch.setattr(base, "core_for_run", lambda processes, clients=None: request.param)
    return request.param
