"""Array vs. heap event core: recorded histories are identical.

The PR 6 acceptance bar, mirroring the PR 4 message-plane oracle one
directory over: on randomized fork-, drop- and fault-heavy protocol
runs, ``run_protocol(core="array")`` (the calendar-queue of numpy
buckets with interned method dispatch) and ``run_protocol(core="heap")``
(the classical heapq of tuples, kept verbatim) must record *identical*
histories — every event, every timestamp, every read result — for all
channel models and across dissemination topologies.  Anything less would
mean the new core changed the simulated executions, not just their
speed.

PR 10 widens the oracle axis from the event *store* to the whole
callback plane: the live leg (array core, batch dispatch, hot-path
recorder, columnar block index) is additionally checked against the
fully retained pure/scalar plane (heap core, per-message dispatch,
``reference_recording()`` recorder, ``DEFAULT_INDEX="reference"`` dict
index).  This module is the only place that oracle leg is assembled.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

import repro.core.blocktree as blocktree_module
from repro.core.history import reference_recording
from repro.core.selection import HeaviestChain
from repro.network.channels import (
    AsynchronousChannel,
    LossyChannel,
    PartiallySynchronousChannel,
    SynchronousChannel,
    TargetedLossChannel,
)
from repro.network.faults import available_faults, build_fault
from repro.network.topology import GossipFanout, Sharded
from repro.oracle.tape import TapeFamily
from repro.oracle.theta import ProdigalOracle
from repro.protocols.base import ReplicaConfig, run_protocol
from repro.protocols.nakamoto import NakamotoReplica


class CrashingMiner(NakamotoReplica):
    """A miner that crash-faults at a pre-programmed virtual time."""

    def __init__(self, *args, crash_at: float = 25.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.crash_at = crash_at

    def on_start(self) -> None:
        super().on_start()
        self.schedule(self.crash_at, self.crash)


def _channel(kind: str, seed: int):
    if kind == "synchronous":
        # Fork-prone: large delta relative to the mining interval.
        return SynchronousChannel(delta=3.0, min_delay=0.5, seed=seed)
    if kind == "asynchronous":
        return AsynchronousChannel(mean_delay=2.0, tail_probability=0.2, seed=seed)
    if kind == "partial":
        return PartiallySynchronousChannel(gst=25.0, delta=1.0, pre_gst_mean=4.0, seed=seed)
    if kind == "lossy":
        return LossyChannel(
            SynchronousChannel(delta=2.0, min_delay=0.3, seed=seed), 0.25, seed=seed + 1
        )
    if kind == "targeted":
        return TargetedLossChannel(
            SynchronousChannel(delta=2.0, min_delay=0.3, seed=seed),
            drop_if=lambda s, r, t: r == "p2" and t < 30.0,
        )
    raise AssertionError(kind)


def _topology(kind: str, seed: int):
    if kind == "full":
        return None  # run_protocol's default FullMesh
    if kind == "gossip":
        return GossipFanout(fanout=2, seed=seed)
    if kind == "sharded":
        return Sharded(shards=2, cross_links=1)
    raise AssertionError(kind)


def _fault(kind: str):
    """One representative instance per registered fault kind."""
    params = {
        "crash": {"at": {"p1": 20.0}},
        "silent": {"members": ("p3",)},
        "churn": {"leave": {"p4": 15.0}, "join": {"p4": 35.0}},
        "partition": {"groups": [["p0", "p1"], ["p2", "p3", "p4"]], "at": 10.0, "heal_at": 35.0},
        "eclipse": {"victim": "p2", "at": 5.0, "until": 30.0},
    }
    return build_fault(kind, params[kind])


@contextmanager
def _reference_plane():
    """Route new trees and recorders through the retained pure plane."""
    previous = blocktree_module.DEFAULT_INDEX
    blocktree_module.DEFAULT_INDEX = "reference"
    try:
        with reference_recording():
            yield
    finally:
        blocktree_module.DEFAULT_INDEX = previous


def _run(
    kind: str,
    seed: int,
    core: str,
    faulty: bool,
    topology: str = "full",
    fault=None,
    batched: bool = True,
    reference: bool = False,
):
    tapes = TapeFamily(seed=seed, probability_scale=0.5)
    oracle = ProdigalOracle(tapes=tapes)

    def factory(pid, orc, network):  # noqa: ARG001
        config = ReplicaConfig(
            selection=HeaviestChain(), read_interval=4.0, use_lrc=True, merit=0.2
        )
        if faulty and pid == "p1":
            return CrashingMiner(pid, orc, config, mining_interval=1.0, crash_at=20.0)
        return NakamotoReplica(pid, orc, config, mining_interval=1.0)

    def execute():
        return run_protocol(
            f"core-equiv-{kind}",
            factory,
            oracle,
            n=5,
            duration=50.0,
            channel=_channel(kind, seed),
            topology=_topology(topology, seed),
            core=core,
            batched=batched,
            fault=fault,
        )

    if reference:
        with _reference_plane():
            return execute()
    return execute()


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
@pytest.mark.parametrize("seed", (3, 17))
def test_histories_identical_across_channel_models(kind: str, seed: int):
    array = _run(kind, seed, core="array", faulty=False)
    heap = _run(kind, seed, core="heap", faulty=False)
    assert array.history.events == heap.history.events
    assert array.network.messages_sent == heap.network.messages_sent
    assert array.network.messages_delivered == heap.network.messages_delivered
    assert array.network.messages_dropped == heap.network.messages_dropped
    assert array.network.simulator.events_processed == heap.network.simulator.events_processed
    # The runs are meant to be interesting: blocks were produced and read.
    assert len(array.history.read_responses()) > 0
    assert len(array.history.append_invocations()) > 0


@pytest.mark.parametrize("topology", ("full", "gossip", "sharded"))
@pytest.mark.parametrize("kind", ("synchronous", "lossy"))
def test_histories_identical_across_topologies(topology: str, kind: str):
    array = _run(kind, seed=5, core="array", faulty=False, topology=topology)
    heap = _run(kind, seed=5, core="heap", faulty=False, topology=topology)
    assert array.history.events == heap.history.events
    assert array.network.messages_sent == heap.network.messages_sent
    assert array.network.messages_dropped == heap.network.messages_dropped


@pytest.mark.parametrize("kind", ("lossy", "partial"))
def test_histories_identical_with_crash_faults_and_drops(kind: str):
    """Fault-heavy: a replica crashes mid-run while messages are dropped."""
    array = _run(kind, seed=11, core="array", faulty=True)
    heap = _run(kind, seed=11, core="heap", faulty=True)
    assert array.history.events == heap.history.events
    assert not array.replicas["p1"].alive
    assert array.network.messages_dropped == heap.network.messages_dropped


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
@pytest.mark.parametrize("fault_kind", sorted(available_faults()))
def test_histories_identical_for_every_fault_kind(fault_kind: str, kind: str):
    """Every registered adversary × every channel model × both cores."""
    array = _run(kind, seed=13, core="array", faulty=False, fault=_fault(fault_kind))
    heap = _run(kind, seed=13, core="heap", faulty=False, fault=_fault(fault_kind))
    assert array.history.events == heap.history.events
    assert array.network.messages_sent == heap.network.messages_sent
    assert array.network.messages_delivered == heap.network.messages_delivered
    assert array.network.messages_dropped == heap.network.messages_dropped
    assert array.network.messages_quarantined == heap.network.messages_quarantined
    assert array.network.simulator.events_processed == heap.network.simulator.events_processed


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
def test_histories_identical_live_vs_reference_plane(kind: str):
    """The full callback-plane oracle: live vs pure/scalar, per channel.

    Live = array core + batch dispatch + hot-path recorder + columnar
    index.  Oracle = heap core + per-message dispatch + reference
    recorder + dict index — every PR 10 fast path swapped out at once.
    """
    live = _run(kind, seed=9, core="array", faulty=False)
    oracle = _run(kind, seed=9, core="heap", faulty=False, batched=False, reference=True)
    assert live.history.events == oracle.history.events
    assert live.network.messages_sent == oracle.network.messages_sent
    assert live.network.messages_delivered == oracle.network.messages_delivered
    assert live.network.messages_dropped == oracle.network.messages_dropped
    assert live.network.messages_quarantined == oracle.network.messages_quarantined
    assert live.network.simulator.events_processed == oracle.network.simulator.events_processed


@pytest.mark.parametrize("topology", ("full", "gossip", "sharded"))
def test_live_vs_reference_plane_across_topologies(topology: str):
    live = _run("synchronous", seed=5, core="array", faulty=False, topology=topology)
    oracle = _run(
        "synchronous", seed=5, core="heap", faulty=False,
        topology=topology, batched=False, reference=True,
    )
    assert live.history.events == oracle.history.events
    assert live.network.messages_sent == oracle.network.messages_sent
    assert live.network.messages_delivered == oracle.network.messages_delivered


@pytest.mark.parametrize("fault_kind", sorted(available_faults()))
def test_live_vs_reference_plane_for_every_fault_kind(fault_kind: str):
    """Membership churn and partitions exercise the dup-skip guards."""
    live = _run("lossy", seed=13, core="array", faulty=False, fault=_fault(fault_kind))
    oracle = _run(
        "lossy", seed=13, core="heap", faulty=False,
        fault=_fault(fault_kind), batched=False, reference=True,
    )
    assert live.history.events == oracle.history.events
    assert live.network.messages_delivered == oracle.network.messages_delivered
    assert live.network.messages_quarantined == oracle.network.messages_quarantined


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
def test_batch_dispatch_matches_scalar_dispatch(kind: str):
    """Isolate batch dispatch: same array core, spans on vs off."""
    batched = _run(kind, seed=17, core="array", faulty=True)
    scalar = _run(kind, seed=17, core="array", faulty=True, batched=False)
    assert batched.history.events == scalar.history.events
    assert batched.network.messages_delivered == scalar.network.messages_delivered
    assert batched.network.simulator.events_processed == scalar.network.simulator.events_processed


def test_fork_heavy_run_actually_forks():
    """Sanity: the equivalence scenarios exercise the fork-heavy shape."""
    result = _run("synchronous", seed=3, core="array", faulty=False)
    trees = [replica.tree for replica in result.replicas.values()]
    assert any(len(tree.leaves()) > 1 for tree in trees)
