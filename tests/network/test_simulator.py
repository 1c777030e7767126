"""Unit tests for the discrete-event simulator and network fabric."""

from __future__ import annotations

import pytest

from repro.network.channels import SynchronousChannel
from repro.network.process import Process
from repro.network.simulator import Message, Network, Simulator, timed_callbacks
from tests.network.reference_plane import ReferenceNetwork


class Echo(Process):
    """Test process that logs every delivery and can ping a peer."""

    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.received: list[Message] = []

    def on_message(self, message: Message) -> None:
        self.received.append(message)


class TestSimulator:
    def test_events_run_in_timestamp_order(self):
        simulator = Simulator()
        log: list[str] = []
        simulator.schedule(5.0, lambda: log.append("late"))
        simulator.schedule(1.0, lambda: log.append("early"))
        simulator.run()
        assert log == ["early", "late"]
        assert simulator.now == 5.0

    def test_equal_timestamps_preserve_insertion_order(self):
        simulator = Simulator()
        log: list[int] = []
        for i in range(5):
            simulator.schedule(1.0, lambda i=i: log.append(i))
        simulator.run()
        assert log == [0, 1, 2, 3, 4]

    def test_run_until_leaves_later_events_pending(self):
        simulator = Simulator()
        log: list[str] = []
        simulator.schedule(1.0, lambda: log.append("a"))
        simulator.schedule(10.0, lambda: log.append("b"))
        simulator.run(until=5.0)
        assert log == ["a"]
        assert simulator.pending == 1
        assert simulator.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        simulator = Simulator()
        log: list[str] = []
        simulator.schedule_at(3.0, lambda: log.append("x"))
        with pytest.raises(ValueError):
            simulator.schedule_at(-1.0, lambda: None)
        simulator.run()
        assert log == ["x"] and simulator.now == 3.0

    def test_event_cascades_are_processed(self):
        simulator = Simulator()
        log: list[float] = []

        def first():
            log.append(simulator.now)
            simulator.schedule(2.0, second)

        def second():
            log.append(simulator.now)

        simulator.schedule(1.0, first)
        simulator.run()
        assert log == [1.0, 3.0]

    def test_max_events_guard(self):
        simulator = Simulator()

        def rearm():
            simulator.schedule(1.0, rearm)

        simulator.schedule(0.0, rearm)
        with pytest.raises(RuntimeError):
            simulator.run(max_events=100)

    def test_max_events_exhaustion_leaves_queue_and_counts(self):
        """Exhaustion raises with the queue non-empty and the work counted."""
        simulator = Simulator()

        def rearm():
            simulator.schedule(1.0, rearm)
            simulator.schedule(1.0, lambda: None)

        simulator.schedule(0.0, rearm)
        with pytest.raises(RuntimeError, match="did not quiesce"):
            simulator.run(max_events=50)
        assert simulator.pending > 0
        assert simulator.events_processed == 50

    def test_event_exactly_at_until_is_processed(self):
        simulator = Simulator()
        log: list[str] = []
        simulator.schedule(5.0, lambda: log.append("at"))
        simulator.schedule(5.0 + 1e-9, lambda: log.append("after"))
        simulator.run(until=5.0)
        assert log == ["at"]
        assert simulator.pending == 1
        assert simulator.now == 5.0

    def test_schedule_at_in_the_past_rejected_after_clock_advance(self):
        simulator = Simulator()
        simulator.schedule(4.0, lambda: None)
        simulator.run()
        assert simulator.now == 4.0
        with pytest.raises(ValueError):
            simulator.schedule_at(3.0, lambda: None)
        # The present is still schedulable.
        simulator.schedule_at(4.0, lambda: None)
        assert simulator.pending == 1

    def test_schedule_block_ties_with_schedule_preserve_global_order(self):
        """schedule_block shares the sequence counter with schedule/call_at."""
        simulator = Simulator()
        log: list[str] = []
        simulator.schedule(1.0, lambda: log.append("closure"))
        simulator.schedule_block([1.0], log.append, ["bulk"])
        simulator.call_at(1.0, log.append, "call_at")
        simulator.run()
        assert log == ["closure", "bulk", "call_at"]


class TestNetwork:
    def _network(self, delta: float = 1.0) -> tuple[Network, Echo, Echo]:
        network = Network(Simulator(), SynchronousChannel(delta=delta, seed=1))
        a, b = Echo("a"), Echo("b")
        network.register(a)
        network.register(b)
        return network, a, b

    def test_send_and_deliver(self):
        network, a, b = self._network()
        network.send("a", "b", "ping", {"x": 1})
        network.run()
        assert len(b.received) == 1
        assert b.received[0].kind == "ping"
        assert network.messages_delivered == 1

    def test_unknown_receiver_rejected(self):
        network, _, _ = self._network()
        with pytest.raises(KeyError):
            network.send("a", "ghost", "ping", None)

    def test_duplicate_registration_rejected(self):
        network, a, _ = self._network()
        with pytest.raises(ValueError):
            network.register(a)

    def test_broadcast_reaches_everyone(self):
        network, a, b = self._network()
        network.broadcast("a", "hello", None, include_self=True)
        network.run()
        assert len(a.received) == 1
        assert len(b.received) == 1

    def test_broadcast_can_exclude_self(self):
        network, a, b = self._network()
        network.broadcast("a", "hello", None, include_self=False)
        network.run()
        assert len(a.received) == 0
        assert len(b.received) == 1

    def test_crashed_process_receives_nothing(self):
        network, a, b = self._network()
        b.crash()
        network.send("a", "b", "ping", None)
        network.run()
        assert b.received == []

    def test_correct_process_ids_excludes_crashed(self):
        network, a, b = self._network()
        b.crash()
        assert network.correct_process_ids() == ("a",)

    def test_history_accessor_returns_recorded_events(self):
        network, a, _ = self._network()
        network.recorder.send("a", "b0", "x")
        assert len(network.history()) == 1

    def test_process_helpers(self):
        network, a, b = self._network()
        assert network.process("a") is a
        assert set(network.process_ids) == {"a", "b"}
        assert a.now == 0.0


class TestMulticast:
    def _network(self, n: int = 4, batched: bool = True) -> tuple[Network, list[Echo]]:
        network = (Network if batched else ReferenceNetwork)(
            Simulator(), SynchronousChannel(delta=1.0, seed=2)
        )
        processes = [Echo(f"p{i}") for i in range(n)]
        for process in processes:
            network.register(process)
        return network, processes

    def test_multicast_reaches_listed_receivers(self):
        network, processes = self._network()
        delivered = network.multicast("p0", ["p1", "p3"], "ping", 7)
        assert delivered == 2
        network.run()
        assert len(processes[1].received) == 1
        assert processes[1].received[0].payload == 7
        assert processes[2].received == []
        assert len(processes[3].received) == 1

    def test_multicast_unknown_receiver_rejected(self):
        network, _ = self._network()
        with pytest.raises(KeyError):
            network.multicast("p0", ["p1", "ghost"], "ping", None)

    def test_multicast_skips_crashed_receivers_at_delivery(self):
        network, processes = self._network()
        network.multicast("p0", ["p1", "p2"], "ping", None)
        processes[1].crash()
        network.run()
        assert processes[1].received == []
        assert len(processes[2].received) == 1
        assert network.messages_delivered == 1

    def test_shared_envelope_carries_sender_kind_payload(self):
        network, processes = self._network()
        network.broadcast("p0", "hello", {"x": 1}, include_self=False)
        network.run()
        for process in processes[1:]:
            (message,) = process.received
            assert message.sender == "p0"
            assert message.kind == "hello"
            assert message.payload == {"x": 1}

    def test_registration_after_broadcast_invalidates_receiver_cache(self):
        network, processes = self._network(n=2)
        network.broadcast("p0", "hello", None, include_self=False)
        late = Echo("late")
        network.register(late)
        network.broadcast("p0", "hello", None, include_self=False)
        network.run()
        assert len(processes[1].received) == 2
        assert len(late.received) == 1

    def test_process_multicast_helper(self):
        network, processes = self._network()
        sent = processes[0].multicast(["p2"], "ping", None)
        assert sent == 1
        network.run()
        assert len(processes[2].received) == 1

    def test_multicast_honours_the_reference_switch(self):
        """The scalar oracle covers the multicast API too, not just broadcast."""
        from repro.network.channels import LossyChannel

        def build(batched: bool):
            channel = LossyChannel(
                SynchronousChannel(delta=1.0, seed=4), 0.4, seed=5
            )
            network = (Network if batched else ReferenceNetwork)(Simulator(), channel)
            processes = [Echo(f"p{i}") for i in range(6)]
            for process in processes:
                network.register(process)
            for round_ in range(20):
                network.multicast("p0", ["p1", "p2", "p3", "p4", "p5"], "ping", round_)
            network.run()
            return network, processes

        batched_net, batched_procs = build(True)
        reference_net, reference_procs = build(False)
        assert batched_net.messages_sent == reference_net.messages_sent == 100
        assert batched_net.messages_dropped == reference_net.messages_dropped > 0
        assert batched_net.messages_delivered == reference_net.messages_delivered
        for a, b in zip(batched_procs, reference_procs):
            assert [(m.sender, m.payload, m.sent_at) for m in a.received] == [
                (m.sender, m.payload, m.sent_at) for m in b.received
            ]


class TestBatchedReferenceEquivalence:
    """The batched plane must be indistinguishable from the scalar oracle."""

    class Relay(Echo):
        """Re-broadcasts each payload once: a deterministic gossip storm."""

        def __init__(self, pid: str) -> None:
            super().__init__(pid)
            self.seen: set[str] = set()

        def on_message(self, message: Message) -> None:
            super().on_message(message)
            if message.payload not in self.seen:
                self.seen.add(message.payload)
                self.broadcast("gossip", message.payload, include_self=False)

    def _storm(self, batched: bool, drop: float, seed: int):
        from repro.network.channels import LossyChannel

        channel = LossyChannel(
            SynchronousChannel(delta=1.0, min_delay=0.1, seed=seed), drop, seed=seed + 1
        )
        network = (Network if batched else ReferenceNetwork)(Simulator(), channel)
        processes = [self.Relay(f"p{i}") for i in range(8)]
        for process in processes:
            network.register(process)
        for i, origin in enumerate(("p0", "p3", "p5")):
            network.simulator.schedule(
                0.2 * i, lambda o=origin, i=i: network.broadcast(o, "gossip", f"r{i}")
            )
        network.run()
        return network, processes

    @pytest.mark.parametrize("seed", (1, 9, 42))
    @pytest.mark.parametrize("drop", (0.0, 0.35))
    def test_drop_accounting_unchanged_by_batching(self, drop: float, seed: int):
        """Regression (PR 4): sent/delivered/dropped match the scalar path."""
        batched_net, batched_procs = self._storm(True, drop, seed)
        reference_net, reference_procs = self._storm(False, drop, seed)
        assert batched_net.messages_sent == reference_net.messages_sent
        assert batched_net.messages_delivered == reference_net.messages_delivered
        assert batched_net.messages_dropped == reference_net.messages_dropped
        assert (
            batched_net.messages_sent
            == batched_net.messages_delivered + batched_net.messages_dropped
        )
        assert batched_net.channel.dropped == reference_net.channel.dropped
        if drop:
            assert batched_net.messages_dropped > 0
        # Delivery order and contents match message-for-message.
        for a, b in zip(batched_procs, reference_procs):
            assert [(m.sender, m.kind, m.payload, m.sent_at) for m in a.received] == [
                (m.sender, m.kind, m.payload, m.sent_at) for m in b.received
            ]
        assert batched_net.simulator.events_processed == reference_net.simulator.events_processed
        assert batched_net.simulator.now == reference_net.simulator.now


class TestTimedCallbacks:
    @pytest.mark.parametrize("core", ["array", "heap"])
    def test_callback_time_is_a_share_of_the_drain(self, core: str):
        """Simulators built under ``timed_callbacks()`` time every callback
        inside the drain they are part of; others never start a timer."""
        with timed_callbacks():
            timed = Simulator(core=core)
        for i in range(50):
            timed.schedule(float(i), lambda: sum(range(200)))
        assert timed.run() == 50
        assert 0.0 < timed.callback_seconds <= timed.drain_seconds
        assert Simulator(core=core).callback_timer is None


class TestRunUntilClockAdvance:
    def test_clock_advances_to_until_when_queue_drains_early(self):
        simulator = Simulator()
        log: list[str] = []
        simulator.schedule(1.0, lambda: log.append("only"))
        processed = simulator.run(until=10.0)
        assert processed == 1 and log == ["only"]
        assert simulator.pending == 0
        assert simulator.now == 10.0

    def test_clock_advances_to_until_when_only_later_events_remain(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(20.0, lambda: None)
        simulator.run(until=10.0)
        assert simulator.pending == 1
        assert simulator.now == 10.0

    def test_empty_run_still_reaches_the_horizon(self):
        simulator = Simulator()
        simulator.run(until=7.5)
        assert simulator.now == 7.5


class TestDropAccounting:
    """messages_sent == delivered + dropped + in-flight, always."""

    def _lossy_network(self, drop: float, seed: int = 3):
        from repro.network.channels import LossyChannel

        simulator = Simulator()
        channel = LossyChannel(SynchronousChannel(delta=1.0, seed=seed), drop, seed=seed)
        network = Network(simulator, channel)
        a, b = Echo("a"), Echo("b")
        network.register(a)
        network.register(b)
        return network, simulator

    def test_accounting_mid_run_counts_in_flight_messages(self):
        network, simulator = self._lossy_network(drop=0.5)
        for _ in range(200):
            network.send("a", "b", "ping", None)
        # Nothing processed yet: every non-dropped message is in flight.
        assert network.messages_delivered == 0
        assert network.messages_sent == network.messages_dropped + simulator.pending

    def test_accounting_balances_after_the_queue_drains(self):
        network, simulator = self._lossy_network(drop=0.3)
        for _ in range(500):
            network.send("a", "b", "ping", None)
        in_flight = simulator.pending
        assert network.messages_sent == network.messages_dropped + in_flight
        network.run()
        assert simulator.pending == 0
        assert network.messages_sent == network.messages_delivered + network.messages_dropped
        assert network.messages_delivered == in_flight
        assert network.messages_dropped > 0

    def test_lossy_protocol_run_balances_too(self):
        from repro.engine import ChannelSpec, ExperimentSpec

        record = ExperimentSpec(
            protocol="bitcoin",
            replicas=3,
            duration=40.0,
            seed=9,
            channel=ChannelSpec(kind="synchronous", drop_probability=0.4),
            params={"token_rate": 0.3},
        ).execute()
        net = record.network
        assert net["messages_dropped"] > 0
        assert net["messages_sent"] == net["messages_delivered"] + net["messages_dropped"]
