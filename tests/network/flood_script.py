"""A scripted relay flood, run on either core in caller-chosen drain steps.

The array core does not cut a fan-out block into buckets when it is
inserted: a block lying wholly beyond the slot being drained waits in
``ArrayEventCore._fanout_log`` until the next run starts (or a snapshot
is taken) and is split together with everything else logged meanwhile.
Nothing a caller can observe may depend on where that boundary falls.
:class:`Flood` is the LRC shape that fills the log — every process
relays every rumor once, to everyone else, on first reception — over
enough processes that each relay takes the block route (16 entries or
more), with an optional second shared method (``audits``: each first
reception also bulk-schedules a row of audit callbacks) so that one
flush carries two methods.  It is drained in ``(until, chunk)`` steps and
reports its state after every chunk, like ``column_script.Script``; the
cases in ``test_core_equivalence.py`` compare those state lists across
cores.

:class:`BlockFlood` is the same flood of stock replicas disseminating
blocks over LRC, the shape whose duplicates ``Network._deliver_span``
accounts a stretch at a time.  Its replicas keep the stock ``on_message``
and transport, so their duplicates are skippable; what a case varies is
scripted on top: an action run on a replica's first reception of a block
(crash or deregister a peer, a churn leave or rejoin; a send, a timer, a
small or a block-sized multicast, a partition installed or healed, an
exception — what must flush or stop the relays a span parked), blocks
multicast to a chosen receiver list.  Its state is the recorded history plus every counter.

A flood holds only data and bound methods, so it pickles whole — the
snapshot cases restore one mid-flood and finish it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.block import GENESIS_ID
from repro.network.broadcast import BlockAnnouncement
from repro.network.process import Process
from repro.network.simulator import Message, Network, Simulator
from repro.oracle.tape import TapeFamily
from repro.oracle.theta import ProdigalOracle, ValidatedBlock
from repro.protocols.base import BlockchainReplica, ReplicaConfig

#: (until or None, events per chunk)
Step = Tuple[Optional[float], int]

#: Offsets of the audit row one first reception schedules: 20 entries
#: spread over ten slots, none in the slot being drained.  Binary
#: fractions, so that under a fixed-delay channel audits and deliveries
#: meet at the same timestamps and only their seqs order them.
AUDIT_OFFSETS = 0.5 + 0.125 * np.arange(20)


class Relay(Process):
    """Logs every delivery; relays a rumor the first time it hears it."""

    def __init__(self, pid: str, flood: "Flood") -> None:
        super().__init__(pid)
        self.flood = flood
        self.heard: set = set()

    def on_message(self, message: Message) -> None:
        flood = self.flood
        rumor = message.payload
        flood.log.append((float(self.now), self.pid, message.sender, rumor))
        if rumor in self.heard:
            return
        self.heard.add(rumor)
        self.broadcast("rumor", rumor, include_self=False)
        if flood.audits:
            flood.sim.schedule_block(
                AUDIT_OFFSETS + self.now,
                flood.audit,
                [(self.pid, rumor, index) for index in range(len(AUDIT_OFFSETS))],
            )


class Flood:
    def __init__(self, core: str, channel: Any, processes: int = 18, audits: bool = False) -> None:
        self.sim = Simulator(core=core)
        self.network = Network(self.sim, channel)
        self.audits = audits
        self.log: List[Tuple[Any, ...]] = []
        for index in range(processes):
            self.network.register(Relay(f"p{index}", self))

    def audit(self, entry: Tuple[str, str, int]) -> None:
        self.log.append((float(self.sim.now), "audit", *entry))

    def start(self, rumors: Sequence[Tuple[float, str, str]]) -> "Flood":
        """Have ``pid`` originate ``rumor`` at ``time``, for each triple."""
        for time, pid, rumor in rumors:
            self.sim.call_at(time, self._originate, (pid, rumor))
        return self

    def _originate(self, entry: Tuple[str, str]) -> None:
        pid, rumor = entry
        self.network.broadcast(pid, "rumor", rumor, include_self=True)

    def logged_blocks(self) -> int:
        """Fan-out blocks waiting in the array core's log (0 on the heap)."""
        core = self.sim._array_core
        if core is None:
            return 0
        return sum(len(blocks) for blocks in core._fanout_log.values())

    def state(self) -> Tuple[Any, ...]:
        return (
            list(self.log),
            float(self.sim.now),
            self.sim.events_processed,
            self.sim.pending,
            self.network.messages_sent,
            self.network.messages_delivered,
        )

    def run(
        self, steps: Sequence[Step], on_chunk: Optional[Callable[["Flood"], None]] = None
    ) -> List[Tuple[Any, ...]]:
        """Drain step by step; the state after every chunk, then after each step."""
        states: List[Tuple[Any, ...]] = []

        def chunk_done(_simulator: Simulator) -> None:
            if on_chunk is not None:
                on_chunk(self)
            states.append(self.state())

        for until, chunk in steps:
            self.sim.run(until=until, checkpoint_every=chunk, checkpoint_sink=chunk_done)
            states.append(self.state())
        return states


class Replica(BlockchainReplica):
    """A stock replica that runs a scripted action on a first reception."""

    def __init__(self, pid: str, flood: "BlockFlood", oracle: ProdigalOracle) -> None:
        super().__init__(pid, oracle, ReplicaConfig(read_interval=0.0))
        self.flood = flood

    def _on_block_delivered(self, announcement: BlockAnnouncement, sender: str) -> None:
        super()._on_block_delivered(announcement, sender)
        action = self.flood.actions.get((self.pid, announcement.block.payload[0]))
        if action is not None:
            action(self.flood)


#: (time, originator, block name, receivers or None for a broadcast)
Origin = Tuple[float, str, str, Optional[Sequence[str]]]


def crash(pid: str, flood: "BlockFlood") -> None:
    flood.replicas[pid].crash()


def revive(pid: str, flood: "BlockFlood") -> None:
    flood.replicas[pid].revive()


def deregister(pid: str, flood: "BlockFlood") -> None:
    flood.network.deregister(pid)


def leave(pid: str, flood: "BlockFlood") -> None:
    """A churn departure (``ChurnFault._leave``): deregistered, then crashed."""
    flood.network.deregister(pid).crash()


def rejoin(pid: str, flood: "BlockFlood") -> None:
    """A churn rejoin (``ChurnFault._rejoin``): registered again, then revived."""
    flood.network.register(flood.replicas[pid])
    flood.replicas[pid].revive()


def ping(pid: str, to: str, flood: "BlockFlood") -> None:
    """A point-to-point send (one scalar channel draw)."""
    flood.replicas[pid].send(to, "ping", pid)


def chirp(pid: str, receivers: Sequence[str], flood: "BlockFlood") -> None:
    """A multicast to an explicit receiver list (a list, never parked)."""
    flood.replicas[pid].multicast(list(receivers), "ping", pid)


def shout(pid: str, flood: "BlockFlood") -> None:
    """A ping to every other process: a block-sized fan-out."""
    flood.replicas[pid].broadcast("ping", pid, include_self=False)


def timer(pid: str, delay: float, flood: "BlockFlood") -> None:
    """A timer ``delay`` from now that makes ``pid`` shout; a short one lands
    in the slot being drained and cuts the span at its (time, seq)."""
    flood.replicas[pid].schedule(delay, partial(shout, pid, flood))


class Boom(Exception):
    """Raised by :func:`boom`."""


def boom(flood: "BlockFlood") -> None:
    raise Boom


class Severed:
    """A partition filter: only pids on the same side talk."""

    def __init__(self, side: Sequence[str]) -> None:
        self.side = frozenset(side)

    def __call__(self, sender: str, receiver: str) -> bool:
        return (sender in self.side) == (receiver in self.side)


def partition(side: Sequence[str], flood: "BlockFlood") -> None:
    flood.severed = Severed(side)
    flood.network.add_message_filter(flood.severed)


def heal(flood: "BlockFlood") -> None:
    flood.network.remove_message_filter(flood.severed)


class BlockFlood(Flood):
    """Stock replicas flooding blocks over LRC; ``start`` takes :data:`Origin` s."""

    def __init__(
        self,
        core: str,
        channel: Any,
        processes: int = 18,
        actions: Optional[Dict[Tuple[str, str], Callable[["BlockFlood"], None]]] = None,
    ) -> None:
        self.sim = Simulator(core=core)
        self.network = Network(self.sim, channel)
        self.actions = dict(actions or {})
        oracle = ProdigalOracle(tapes=TapeFamily(seed=0))
        self.replicas: Dict[str, Replica] = {}
        for index in range(processes):
            pid = f"p{index}"
            replica = Replica(pid, self, oracle)
            self.network.register(replica)
            self.replicas[pid] = replica

    def start(self, origins: Sequence[Origin]) -> "BlockFlood":
        for time, pid, name, receivers in origins:
            self.sim.call_at(time, self._originate, (pid, name, receivers))
        return self

    def _originate(self, entry: Tuple[str, str, Optional[Sequence[str]]]) -> None:
        pid, name, receivers = entry
        replica = self.replicas[pid]
        block = replica.ids.make_block(GENESIS_ID, payload=(name,), creator=pid, round=0)
        replica.commit_local_block(
            ValidatedBlock(block=block, token=name, parent_id=GENESIS_ID),
            announce=receivers is None,
        )
        if receivers is not None:
            replica.multicast(receivers, "block", BlockAnnouncement(GENESIS_ID, block))

    def state(self) -> Tuple[Any, ...]:
        network = self.network
        return (
            network.recorder.history().events,
            float(self.sim.now),
            self.sim.events_processed,
            self.sim.pending,
            network.messages_sent,
            network.messages_delivered,
            network.messages_dropped,
            network.messages_quarantined,
        )
