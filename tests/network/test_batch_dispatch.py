"""Unit tests for the batch-dispatch half of the callback plane.

The protocol-level byte-identity suite lives in
``test_core_equivalence.py``; here the focus is the dispatch machinery
itself: ``schedule_fanout`` degenerate delay vectors, batch-vs-scalar
delivery parity under mid-batch membership churn and crashes, and the
stock-hook guards behind ``batch_dup_seen`` (the span-level
duplicate-flood skip).
"""

from __future__ import annotations

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


# -- schedule_fanout degenerate delay vectors --------------------------------


@pytest.mark.parametrize("core", ("array", "heap"))
def test_schedule_fanout_all_none_delays(core: str):
    """An all-dropped fan-out schedules nothing and fires nothing."""
    sim = Simulator(core=core)
    fired: list = []
    assert sim.schedule_fanout([None, None, None], fired.append, ["a", "b", "c"]) == 0
    assert sim.run() == 0
    assert fired == []
    # The queue is genuinely untouched: the next fan-out starts clean.
    assert sim.schedule_fanout([1.0, None], fired.append, ["d", "e"]) == 1
    assert sim.run() == 1
    assert fired == ["d"]


@pytest.mark.parametrize("core", ("array", "heap"))
@pytest.mark.parametrize("width", (3, 40))
def test_schedule_fanout_mixed_none_keeps_survivors_in_order(core: str, width: int):
    """Dropped slots vanish; survivors keep vector order (both staging
    paths: the <16 scalar one and the vectorized block insert)."""
    sim = Simulator(core=core)
    fired: list = []
    delays = [None if i % 3 == 0 else 1.0 for i in range(width)]
    args = [f"r{i}" for i in range(width)]
    kept = [a for d, a in zip(delays, args) if d is not None]
    assert sim.schedule_fanout(delays, fired.append, args) == len(kept)
    sim.run()
    assert fired == kept


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
