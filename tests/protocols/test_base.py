"""Unit tests for the replica framework and run harness."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.block import GENESIS_ID, Block
from repro.core.history import EventKind
from repro.network.channels import SynchronousChannel
from repro.network.simulator import Network, Simulator
from repro.oracle.tape import DeterministicTape, TapeFamily
from repro.oracle.theta import ProdigalOracle
from repro.protocols.base import (
    BlockchainReplica,
    Mempool,
    ReplicaConfig,
    RunResult,
    run_protocol,
)
from repro.oracle.theta import ValidatedBlock


def _attached_replica(read_interval: float = 0.0) -> tuple[Network, BlockchainReplica]:
    network = Network(Simulator(), SynchronousChannel(seed=1))
    oracle = ProdigalOracle(tapes=TapeFamily())
    replica = BlockchainReplica("p0", oracle, ReplicaConfig(read_interval=read_interval))
    network.register(replica)
    return network, replica


class TestReplicaBasics:
    def test_local_read_records_event_and_returns_chain(self):
        network, replica = _attached_replica()
        chain = replica.local_read()
        assert chain.ids == (GENESIS_ID,)
        assert len(network.history().read_responses("p0")) == 1

    def test_make_candidate_extends_current_tip(self):
        _, replica = _attached_replica()
        candidate = replica.make_candidate(payload=("tx1",))
        assert candidate.parent_id == GENESIS_ID
        assert candidate.creator == "p0"

    def test_commit_local_block_updates_tree_and_records_events(self):
        network, replica = _attached_replica()
        block = replica.make_candidate()
        validated = ValidatedBlock(block=block.with_token("tkn_b0"), token="tkn_b0", parent_id=GENESIS_ID)
        assert replica.commit_local_block(validated)
        history = network.history()
        assert len(history.append_responses("p0", successful_only=True)) == 1
        assert len(history.replication_events(EventKind.UPDATE)) == 1
        assert len(history.replication_events(EventKind.SEND)) == 1
        assert replica.blocks_created == 1

    def test_adopt_block_with_known_parent(self):
        network, replica = _attached_replica()
        foreign = Block("f1", GENESIS_ID, creator="p9")
        assert replica.adopt_block(foreign)
        assert replica.blocks_adopted == 1
        assert len(network.history().replication_events(EventKind.UPDATE)) == 1

    def test_adopt_block_twice_is_noop(self):
        _, replica = _attached_replica()
        foreign = Block("f1", GENESIS_ID, creator="p9")
        assert replica.adopt_block(foreign)
        assert not replica.adopt_block(foreign)

    def test_orphans_are_buffered_until_parent_arrives(self):
        _, replica = _attached_replica()
        child = Block("child", "parent", creator="p9")
        parent = Block("parent", GENESIS_ID, creator="p9")
        assert not replica.adopt_block(child)  # parked
        assert replica.adopt_block(parent)
        assert "child" in replica.tree  # flushed automatically

    def test_periodic_reads_follow_interval(self):
        network, replica = _attached_replica(read_interval=2.0)
        network.start()
        network.simulator.run(until=7.0)
        assert len(network.history().read_responses("p0")) == 3

    def test_stop_production_halts_periodic_reads(self):
        network, replica = _attached_replica(read_interval=2.0)
        network.start()
        network.simulator.run(until=3.0)
        replica.stop_production()
        network.simulator.run(until=20.0)
        assert len(network.history().read_responses("p0")) == 1


def _column(*ops: int) -> np.ndarray:
    return np.array(ops, dtype=np.int64)


class TestMempool:
    def test_empty(self):
        pool = Mempool()
        assert len(pool) == 0 and not pool
        assert pool.take(5) == []

    def test_take_crosses_chunk_boundaries_in_fifo_order(self):
        pool = Mempool()
        pool.extend_column(_column(1, 2, 3))
        pool.extend_column(_column(4, 5))
        pool.extend_column(_column(6, 7, 8, 9))
        assert len(pool) == 9 and pool
        assert pool.take(2) == [1, 2]
        assert pool.take(4) == [3, 4, 5, 6]  # rest of one chunk, a whole one, part of a third
        assert len(pool) == 3
        assert pool.take(3) == [7, 8, 9]
        assert not pool and pool.take(1) == []

    def test_take_more_than_present_returns_what_there_is(self):
        pool = Mempool()
        pool.extend_column(_column(1, 2))
        pool.append(3)
        assert pool.take(100) == [1, 2, 3]
        assert len(pool) == 0

    def test_scalar_appends_interleave_with_columns_in_arrival_order(self):
        pool = Mempool()
        pool.append(1)
        pool.append(2)
        pool.extend_column(_column(3, 4))
        pool.append(5)
        pool.extend_column(_column(6))
        pool.append(7)
        assert pool.take(1) == [1]
        pool.append(8)  # appended while the head chunk is partly taken
        assert len(pool) == 7
        assert pool.take(10) == [2, 3, 4, 5, 6, 7, 8]

    def test_extend_column_equals_append_over_the_column(self):
        by_column, by_append = Mempool(), Mempool()
        for column in (_column(5, 1, 9), _column(), _column(2)):
            by_column.extend_column(column)
            for op in column.tolist():
                by_append.append(op)
        assert len(by_column) == len(by_append) == 4
        assert by_column.take(4) == by_append.take(4) == [5, 1, 9, 2]

    def test_taken_operations_are_python_ints(self):
        pool = Mempool()
        pool.extend_column(_column(1, 2))
        assert all(type(op) is int for op in pool.take(2))

    def test_pickle_round_trip_mid_chunk(self):
        pool = Mempool()
        pool.extend_column(_column(1, 2, 3))
        pool.append(4)
        pool.extend_column(_column(5, 6))
        assert pool.take(2) == [1, 2]
        restored = pickle.loads(pickle.dumps(pool))
        assert len(restored) == len(pool) == 4
        restored.append(7)
        assert restored.take(10) == [3, 4, 5, 6, 7]
        assert pool.take(10) == [3, 4, 5, 6]  # pickling did not disturb the original
        assert len(pickle.loads(pickle.dumps(Mempool()))) == 0

    def test_replica_drains_its_mempool_as_coin_ids(self):
        _, replica = _attached_replica()
        replica.on_client_op(3)
        replica.mempool.extend_column(_column(10, 11))
        assert replica.drain_mempool(2) == ("coin3", "coin10")
        assert replica.drain_mempool(5) == ("coin11",)
        assert replica.drain_mempool(5) == ()


class TestRunHarness:
    def _factory(self, pid, oracle, network):  # noqa: ARG002
        return BlockchainReplica(pid, oracle, ReplicaConfig(read_interval=5.0))

    def test_run_protocol_produces_history_and_final_reads(self):
        oracle = ProdigalOracle(tapes=TapeFamily())
        result = run_protocol("noop", self._factory, oracle, n=3, duration=20.0)
        assert isinstance(result, RunResult)
        assert len(result.replicas) == 3
        # Periodic reads plus one final read per replica.
        assert len(result.history.read_responses()) >= 3
        assert set(result.final_chains()) == {"p0", "p1", "p2"}

    def test_run_without_final_reads(self):
        oracle = ProdigalOracle(tapes=TapeFamily())
        result = run_protocol(
            "noop", self._factory, oracle, n=2, duration=10.0, final_reads=False
        )
        reads_per_process = {
            pid: len(result.history.read_responses(pid)) for pid in result.replicas
        }
        assert all(count == 2 for count in reads_per_process.values())

    def test_correct_replicas_and_creator_map(self):
        oracle = ProdigalOracle(tapes=TapeFamily())
        result = run_protocol("noop", self._factory, oracle, n=2, duration=5.0)
        assert set(result.correct_replicas) == {"p0", "p1"}
        assert result.block_creators() == {}  # nobody mined anything
