"""Unit tests for flooding and Light Reliable Communication."""

from __future__ import annotations

import pytest

from repro.core.block import GENESIS_ID, Block
from repro.core.history import EventKind
from repro.network.broadcast import (
    BlockAnnouncement,
    FloodingBroadcast,
    LightReliableCommunication,
)
from repro.network.channels import SynchronousChannel
from tests.network.fork_heavy_run import TargetedLossChannel
from repro.network.process import Process
from repro.network.simulator import Message, Network, Simulator
from repro.network.update_agreement import check_light_reliable_communication


class Disseminator(Process):
    """Minimal process wiring a broadcast primitive to the test network."""

    def __init__(self, pid: str, lrc: bool = False) -> None:
        super().__init__(pid)
        self.lrc = lrc
        self.delivered: list[str] = []
        self.transport = None

    def attach(self, network: Network) -> None:
        super().attach(network)
        cls = LightReliableCommunication if self.lrc else FloodingBroadcast
        self.transport = cls(self)
        self.transport.on_deliver(lambda ann, sender: self.delivered.append(ann.block_id))

    def on_message(self, message: Message) -> None:
        self.transport.handle(message)

    def publish(self, block_id: str) -> None:
        block = Block(block_id, GENESIS_ID, creator=self.pid)
        self.transport.disseminate(BlockAnnouncement(GENESIS_ID, block))


def _build(n: int, channel, lrc: bool) -> tuple[Network, list[Disseminator]]:
    network = Network(Simulator(), channel)
    processes = [Disseminator(f"p{i}", lrc=lrc) for i in range(n)]
    for process in processes:
        network.register(process)
    return network, processes


class TestFlooding:
    def test_everyone_delivers_over_reliable_channels(self):
        network, processes = _build(4, SynchronousChannel(seed=1), lrc=False)
        processes[0].publish("blk")
        network.run()
        assert all(p.delivered == ["blk"] for p in processes)

    def test_duplicate_deliveries_suppressed(self):
        network, processes = _build(3, SynchronousChannel(seed=1), lrc=False)
        processes[0].publish("blk")
        network.run()
        processes[0].publish("blk2")
        network.run()
        assert processes[1].delivered == ["blk", "blk2"]

    def test_send_and_receive_events_recorded(self):
        network, processes = _build(3, SynchronousChannel(seed=1), lrc=False)
        processes[0].publish("blk")
        network.run()
        history = network.recorder.history()
        assert len(history.replication_events(EventKind.SEND)) == 1
        assert len(history.replication_events(EventKind.RECEIVE)) == 3

    def test_non_block_messages_ignored(self):
        network, processes = _build(2, SynchronousChannel(seed=1), lrc=False)
        network.send("p0", "p1", "gossip", "hello")
        network.run()
        assert processes[1].delivered == []

    def test_flooding_does_not_survive_targeted_loss(self):
        # Drop every copy addressed to p2: plain flooding leaves it behind.
        channel = TargetedLossChannel(
            SynchronousChannel(seed=1), drop_if=lambda s, r, t: r == "p2"
        )
        network, processes = _build(3, channel, lrc=False)
        processes[0].publish("blk")
        network.run()
        assert processes[2].delivered == []
        result = check_light_reliable_communication(
            network.recorder.history(), correct_processes=[p.pid for p in processes]
        )
        assert not result.agreement_holds


class TestLightReliableCommunication:
    def test_relay_survives_loss_of_direct_copy(self):
        # The sender's copy to p2 is dropped, but relays from p1 get through.
        channel = TargetedLossChannel(
            SynchronousChannel(seed=1),
            drop_if=lambda s, r, t: s == "p0" and r == "p2",
        )
        network, processes = _build(3, channel, lrc=True)
        processes[0].publish("blk")
        network.run()
        assert processes[2].delivered == ["blk"]
        result = check_light_reliable_communication(
            network.recorder.history(), correct_processes=[p.pid for p in processes]
        )
        assert result.holds

    def test_relay_counter_increments(self):
        network, processes = _build(3, SynchronousChannel(seed=1), lrc=True)
        processes[0].publish("blk")
        network.run()
        assert sum(p.transport.relayed for p in processes[1:]) >= 1

    def test_relay_can_be_disabled(self):
        network = Network(Simulator(), SynchronousChannel(seed=1))
        process = Disseminator("p0", lrc=True)
        network.register(process)
        process.transport.relay = False
        process.publish("blk")
        network.run()
        assert process.transport.relayed == 0

    def test_validity_sender_receives_its_own_message(self):
        network, processes = _build(3, SynchronousChannel(seed=1), lrc=True)
        processes[0].publish("blk")
        network.run()
        assert "blk" in processes[0].delivered
