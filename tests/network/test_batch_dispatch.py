"""Unit tests for the batch-dispatch half of the callback plane.

The protocol-level byte-identity suite lives in
``test_core_equivalence.py``; here the focus is the dispatch machinery
itself: a multicast's dropped receivers and refused delivery times,
batch-vs-scalar delivery parity under mid-batch membership churn and
crashes, and the stock-hook guards behind ``batch_dup_seen`` (the
span-level duplicate-flood skip).
"""

from __future__ import annotations

import re
from unittest import mock

import pytest

from repro.core.selection import HeaviestChain
from repro.network.channels import SynchronousChannel
from repro.network.event_core import COMPILED_MODULES
from repro.network.process import Process
from repro.network.simulator import Network, Simulator
from repro.oracle.tape import TapeFamily
from repro.oracle.theta import ProdigalOracle
from repro.protocols.base import ReplicaConfig, run_protocol
from repro.protocols.nakamoto import NakamotoReplica
from tests.network.fork_heavy_run import TargetedLossChannel
from tests.network.reference_plane import ReferenceNetwork


class LoggingProcess(Process):
    """Logs every delivery as ``(now, pid, payload)`` into a shared list."""

    def __init__(self, pid: str, log: list) -> None:
        super().__init__(pid)
        self.log = log

    def on_message(self, message) -> None:
        self.log.append((self.network.simulator.now, self.pid, message.payload))


class Saboteur(LoggingProcess):
    """Deregisters/kills peers mid-run, so batches are torn mid-span."""

    def on_message(self, message) -> None:
        super().on_message(message)
        if message.payload == "kill" and "victim" in self.network._processes:
            self.network.deregister("victim")
        if message.payload == "die":
            self.alive = False


# -- dropped receivers and refused times of a multicast -----------------------


def _lossy_network(core: str, width: int, drop_if):
    """A sender ``s`` and ``width`` logging receivers ``r0, r1, ...`` over a
    :class:`TargetedLossChannel` that drops what ``drop_if`` picks; every
    delivery it keeps lands 1.0 after its send."""
    channel = TargetedLossChannel(SynchronousChannel(delta=1.0, min_delay=1.0), drop_if)
    network = Network(Simulator(core=core), channel)
    log: list = []
    for pid in ["s"] + [f"r{index}" for index in range(width)]:
        network.register(LoggingProcess(pid, log))
    return network, log


def seqs_taken(sim: Simulator) -> int:
    """How many sequence numbers the event store has handed out (on the
    heap core this takes one more: call it last)."""
    core = sim._array_core
    return core.reserve(0) if core is not None else next(sim._sequence)


@pytest.mark.parametrize("core", ("array", "heap"))
def test_an_all_dropped_multicast_queues_nothing(core: str):
    """A fan-out whose every receiver is dropped queues nothing, takes no
    sequence number and fires nothing; the next fan-out starts clean."""
    network, log = _lossy_network(core, 3, lambda sender, receiver, now: receiver != "r0")
    sim = network.simulator
    assert network.multicast("s", ["r1", "r2"], "data", "lost") == 0
    assert sim.pending == 0
    assert sim.run() == 0
    assert log == []
    assert network.multicast("s", ["r0", "r1"], "data", "kept") == 1
    assert sim.run() == 1
    assert log == [(1.0, "r0", "kept")]
    assert network.messages_dropped == 3
    assert seqs_taken(sim) == 1


@pytest.mark.parametrize("core", ("array", "heap"))
@pytest.mark.parametrize("width", (3, 40))
def test_a_multicast_keeps_its_survivors_in_order(core: str, width: int):
    """Dropped receivers vanish and take no sequence number; survivors keep
    receiver order (both staging paths: the <16 row one and the block
    insert)."""
    network, log = _lossy_network(
        core, width, lambda sender, receiver, now: int(receiver[1:]) % 3 == 0
    )
    receivers = [f"r{index}" for index in range(width)]
    kept = [pid for index, pid in enumerate(receivers) if index % 3]
    assert network.multicast("s", receivers, "data", "x") == len(kept)
    network.simulator.run()
    assert [pid for _, pid, _ in log] == kept
    assert seqs_taken(network.simulator) == len(kept)


class FixedDelay:
    """A third-party channel: only the scalar ``delay_for``, one delay for all."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def delay_for(self, sender: str, receiver: str, now: float) -> float:  # noqa: ARG002
        return self.delay


@pytest.mark.parametrize("core", ("array", "heap"))
@pytest.mark.parametrize("width", (3, 20))
@pytest.mark.parametrize("delay", (-1.0, float("nan"), float("inf")), ids=str)
def test_a_multicast_refuses_bad_times_as_send_does(core: str, width: int, delay: float):
    """A channel's delay that puts a delivery in the past, at NaN or at
    infinity is refused by a multicast (a small fan-out and a block-sized
    one) with the error ``send`` gives, before anything is queued."""
    sim = Simulator(core=core)
    network = Network(sim, FixedDelay(delay))
    receivers = [f"r{index}" for index in range(width)]
    for pid in ["s"] + receivers:
        network.register(Process(pid))
    sim.schedule(5.0, lambda: None)
    with pytest.raises(ValueError) as refused:
        network.send("s", "r0", "data", "x")
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        network.multicast("s", receivers, "data", "x")
    assert sim.pending == 1


@pytest.mark.parametrize("core", ("array", "heap"))
@pytest.mark.parametrize("width", (3, 20))
def test_a_refused_multicast_frees_its_envelope_slot(core: str, width: int):
    """A multicast refused for a bad delivery time counts its messages as
    ``send`` does (sent, not dropped) but gives its envelope slot back, so
    the next multicast takes that slot."""
    sim = Simulator(core=core)
    channel = FixedDelay(-1.0)
    network = Network(sim, channel)
    receivers = [f"r{index}" for index in range(width)]
    for pid in ["s"] + receivers:
        network.register(Process(pid))
    with pytest.raises(ValueError):
        network.send("s", "r0", "data", "x")
    with pytest.raises(ValueError):
        network.multicast("s", receivers, "data", "x")
    assert (network.messages_sent, network.messages_dropped) == (1 + width, 0)
    assert network._envelopes == [None] and network._free_slots == [0]
    channel.delay = 1.0
    assert network.multicast("s", receivers, "data", "y") == width
    assert len(network._envelopes) == 1 and network._envelopes[0].payload == "y"
    assert network._free_slots == [] and sim.pending == width


# -- batch vs scalar dispatch parity -----------------------------------------


def _run_plane(batched: bool):
    sim = Simulator(core="array")
    channel = SynchronousChannel(delta=2.0, min_delay=0.5, seed=7)
    network = (Network if batched else ReferenceNetwork)(sim, channel)
    log: list = []
    network.register(LoggingProcess("a", log))
    network.register(Saboteur("b", log))
    network.register(LoggingProcess("victim", log))
    for i in range(4):
        network.register(LoggingProcess(f"p{i}", log))

    def burst(payload):
        network.broadcast("a", "data", payload, include_self=False)

    for i in range(6):
        sim.schedule(float(i), lambda p=f"msg{i}": burst(p))
    sim.schedule(2.5, lambda: burst("kill"))
    sim.schedule(4.5, lambda: burst("die"))
    sim.run()
    return log, network


def test_batched_network_matches_scalar_with_mid_batch_churn():
    """Same deliveries, same order, same counters — even though the
    batched plane tears spans when a receiver departs or dies mid-run."""
    batched_log, batched_net = _run_plane(batched=True)
    scalar_log, scalar_net = _run_plane(batched=False)
    assert batched_log == scalar_log
    assert batched_net.messages_sent == scalar_net.messages_sent
    assert batched_net.messages_delivered == scalar_net.messages_delivered
    assert batched_net.messages_quarantined == scalar_net.messages_quarantined
    assert batched_net.simulator.events_processed == scalar_net.simulator.events_processed
    # The run actually exercised the interesting paths.
    assert batched_net.messages_quarantined > 0
    assert any(entry[2] == "die" for entry in batched_log)
    # Once "b" processed its "die", nothing further was delivered to it.
    b_entries = [entry for entry in batched_log if entry[1] == "b"]
    assert b_entries[-1][2] == "die"


# -- batch_dup_seen stock-hook guards ----------------------------------------


def _tiny_protocol_run(factory_cls):
    tapes = TapeFamily(seed=5, probability_scale=0.5)
    oracle = ProdigalOracle(tapes=tapes)

    def factory(pid, orc, network):  # noqa: ARG001
        config = ReplicaConfig(selection=HeaviestChain(), use_lrc=True, merit=0.2)
        return factory_cls(pid, orc, config, mining_interval=2.0)

    return run_protocol("dup-seen", factory, oracle, n=3, duration=20.0)


def test_plain_process_exposes_no_dup_seen():
    assert Process("p").batch_dup_seen() is None


def test_stock_replica_exposes_transport_seen_set():
    result = _tiny_protocol_run(NakamotoReplica)
    replica = result.replicas["p0"]
    seen = replica.batch_dup_seen()
    assert seen is replica.transport._delivered
    assert seen, "the run delivered blocks, so the seen-set is non-empty"


class DupWatcher(NakamotoReplica):
    """An adversary that inspects duplicates: counts every delivery."""

    def on_message(self, message) -> None:
        self.watched = getattr(self, "watched", 0) + 1
        super().on_message(message)


def test_overriding_on_message_disables_dup_skip():
    """An adversary that inspects duplicates must see every delivery."""
    result = _tiny_protocol_run(DupWatcher)
    assert result.replicas["p0"].batch_dup_seen() is None


def test_a_watchers_duplicates_are_never_split_off():
    """Among 18 stock miners (relays are fan-out blocks, buckets take the
    numpy path and their known duplicates are split off) a watcher is
    never marked, and sees exactly the deliveries the heap core gives it."""
    marked_receivers = set()
    classify = Network._classify_duplicates

    def spy(network, codes):
        marks = classify(network, codes)
        marked_receivers.update((codes[marks != 0] & 0xFFFF).tolist())
        return marks

    def run(core: str):
        def factory(pid, orc, network):  # noqa: ARG001
            config = ReplicaConfig(selection=HeaviestChain(), use_lrc=True, merit=0.2)
            return (DupWatcher if pid == "p0" else NakamotoReplica)(
                pid, orc, config, mining_interval=2.0
            )

        oracle = ProdigalOracle(tapes=TapeFamily(seed=5, probability_scale=0.5))
        return run_protocol("dup-watch", factory, oracle, n=18, duration=20.0, core=core)

    with mock.patch.object(Network, "_classify_duplicates", spy):
        array = run("array")
    heap = run("heap")
    assert marked_receivers and array.network._receiver_index["p0"] not in marked_receivers
    assert array.replicas["p0"].watched == heap.replicas["p0"].watched > 0
    assert array.history.events == heap.history.events


# -- the ledger fingerprint's constant (stays until ROADMAP item 1) -----------


def test_compiled_modules_report_shape():
    assert set(COMPILED_MODULES) == {"_drain", "_hotpath"}
    assert all(isinstance(flag, bool) for flag in COMPILED_MODULES.values())
