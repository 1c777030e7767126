"""A scripted relay flood, run on either core in caller-chosen drain steps.

The array core sends a fan-out block's entries reaching into the slot
being drained to the overflow heap when it is scheduled; the rest waits
whole until the next run starts, when it is cut by slot, and each later
slot's share waits in its bucket as one block until that bucket becomes
the active run.  Nothing a caller can observe may depend
on where those boundaries fall.  :class:`Flood` is the LRC shape that
fills the buckets with blocks — every process relays every rumor once,
to everyone else, on first reception — over enough processes that each
relay takes the block route (16 entries or more), with an optional
second shared method (``audits``: each first reception also
bulk-schedules a row of audit callbacks) so that one bucket holds blocks
of two methods.  It is drained in ``(until, chunk)`` steps and
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
snapshot cases restore one mid-flood and finish it.  :func:`block_flood`
builds one over a named channel, and :func:`settle_spy` says where the
array core split the duplicates it counted.

A flood's array core has the bucket width a run over its channel gets
(:func:`~repro.network.simulator.slot_width_for`: 0.5 under the floor-0.5
channels, 0.25 otherwise) unless ``width`` names one; :func:`with_widths`
and :data:`WIDTHS` run a case at the rule's width and, where that is not
the base width 0.25, at 0.25 too, so every boundary the two widths put
in different places is compared with the heap core.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest

from repro.core.block import GENESIS_ID
from repro.network.broadcast import BlockAnnouncement
from repro.network.channels import (
    AsynchronousChannel,
    LossyChannel,
    PartiallySynchronousChannel,
    SynchronousChannel,
)
from repro.network.event_core import ArrayEventCore
from repro.network.process import Process
from repro.network.simulator import Message, Network, Simulator, slot_width_for
from repro.oracle.tape import TapeFamily
from repro.oracle.theta import ProdigalOracle, ValidatedBlock
from repro.protocols.base import BlockchainReplica, ReplicaConfig

#: (until or None, events per chunk)
Step = Tuple[Optional[float], int]

#: Offsets of the audit row one first reception schedules: 20 entries
#: spread over ten slots of 0.25 (five of 0.5), none in the slot being
#: drained.  Binary fractions, so that under a fixed-delay channel audits
#: and deliveries meet at the same timestamps and only their seqs order them.
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


def simulator(core: str, channel: Any, width: Optional[float] = None) -> Simulator:
    """A simulator at the bucket width a run over ``channel`` gets
    (:func:`slot_width_for`), or at ``width``."""
    return Simulator(core=core, slot_width=slot_width_for(channel) if width is None else width)


#: The width :func:`slot_width_for` gives a channel without a floor of 0.5.
BASE_WIDTH = 0.25

#: The bucket widths a case over a floor-0.5 channel drains at: the rule's
#: (0.5), and the base width the rule raises.
WIDTHS = pytest.mark.parametrize("width", (None, BASE_WIDTH), ids=("rule_width", "base_width"))


class Flood:
    def __init__(
        self,
        core: str,
        channel: Any,
        processes: int = 18,
        audits: bool = False,
        width: Optional[float] = None,
    ) -> None:
        self.sim = simulator(core, channel, width)
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

    def bucketed_blocks(self) -> int:
        """Fan-out shares waiting beyond the active slot (0 on the heap)."""
        core = self.sim._array_core
        if core is None:
            return 0
        return sum(map(len, waiting_shares(core).values()))

    def bucketed_methods(self) -> int:
        """The most distinct callables the shares waiting in one slot carry."""
        core = self.sim._array_core
        if core is None:
            return 0
        return max((len(set(methods)) for methods in waiting_shares(core).values()), default=0)

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
        width: Optional[float] = None,
    ) -> None:
        self.sim = simulator(core, channel, width)
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


#: The three blocks most cases flood: two broadcasts 0.3 apart, then one
#: after the first waves have settled.
BLOCKS = [(0.0, "p0", "a", None), (0.3, "p9", "b", None), (1.25, "p4", "c", None)]


def channel_model(channel: str) -> Any:
    """The channel model a :func:`block_flood` over ``channel`` runs on."""
    if channel == "synchronous":
        return SynchronousChannel(delta=1.5, min_delay=0.5, seed=4)
    if channel == "lockstep":  # every delay is 0.5, so only seqs order a wave
        return SynchronousChannel(delta=0.5, min_delay=0.5, seed=4)
    if channel == "short":  # a floor of 0.1: only a span's late relays clear it
        return SynchronousChannel(delta=0.6, min_delay=0.1, seed=4)
    if channel == "partial":  # no floor before GST, then the synchronous 0.1
        return PartiallySynchronousChannel(gst=1.0, delta=0.6, pre_gst_mean=0.5, seed=4)
    if channel == "lossy":  # drops: no floor promise
        return LossyChannel(SynchronousChannel(delta=1.5, min_delay=0.5, seed=4), 0.2, seed=5)
    # many relays land in the slot being drained
    return AsynchronousChannel(mean_delay=1.0, tail_probability=0.1, seed=4)


def block_flood(core: str, channel: str = "synchronous", **kwargs: Any) -> BlockFlood:
    """An 18-replica :class:`BlockFlood` of ``origins`` (default
    :data:`BLOCKS`) over the named channel, at ``width`` or the rule's."""
    origins = kwargs.pop("origins", BLOCKS)
    return BlockFlood(core, channel_model(channel), **kwargs).start(origins)


def with_widths(cases: Dict[str, str]) -> List[Any]:
    """pytest params ``(case, width)`` for ``cases`` (id -> channel name):
    each case at the rule's width (``None``) under its own id, and, where
    the rule raises the width, at the base width too (``<id>-base_width``)."""
    return [
        pytest.param(case, width, id=case if width is None else f"{case}-base_width")
        for case, channel in cases.items()
        for width in (None, BASE_WIDTH)
        if width is None or slot_width_for(channel_model(channel)) != BASE_WIDTH
    ]


def waiting_shares(core: ArrayEventCore) -> Dict[int, List[Callable]]:
    """slot -> the method of each fan-out share waiting for it: a block in
    its bucket, or a pending block (``core._pending``) that lands there."""
    shares: Dict[int, List[Callable]] = {}
    for slot, bucket in core._buckets.items():
        shares[slot] = [block[2] for block in bucket.blocks]
    for times, _seqs, method, _args in core._pending:
        for slot in np.unique((times * core._inv_width).astype(np.int64)).tolist():
            shares.setdefault(slot, []).append(method)
    return shares


def assert_drained(core: ArrayEventCore) -> None:
    """Nothing is left pending, in the buckets, the overflow heap or the
    counted duplicates."""
    assert not core._pending and not core._buckets and not core._bucket_heap
    assert not core._overflow
    assert core._counted is None


def assert_matches_heap(steps: Sequence[Step], **kwargs: Any) -> BlockFlood:
    """Run one :func:`block_flood` on both cores; the states after every
    chunk agree, and the array core ends drained.  Returns the array flood."""
    flood = block_flood("array", **kwargs)
    array = flood.run(steps)
    heap = block_flood("heap", **kwargs).run(steps)
    assert array == heap
    assert array[-1][3] == 0  # pending
    assert_drained(flood.sim._array_core)
    return flood


def settle_spy() -> Tuple[List[Tuple[str, int, int]], Any]:
    """Log every split of a run's counted duplicates (``ArrayEventCore._settle``).

    Returns the log and the patch that fills it.  Each entry is ``(why,
    kept, sent back)``: how many stayed counted and how many went back to
    the store, and why the split was made — ``"epoch"`` (a moved network
    epoch), ``"raise"`` (a callback raised), ``"horizon"`` (``until``
    stopped the drain), ``"budget"`` or ``"run end"``.
    """
    log: List[Tuple[str, int, int]] = []
    settle = ArrayEventCore._settle

    def spy(core: ArrayEventCore, time: float, seq: float) -> None:
        before = len(core._counted[0])
        settle(core, time, seq)
        kept = 0 if core._counted is None else len(core._counted[0])
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_account":
            caller = caller.f_back
        frame = caller.f_locals
        if caller.f_code.co_name != "drain":
            why = "epoch"
        elif sys.exc_info()[0] is not None:
            why = "raise"
        elif frame["stopped"] is not None:
            why = "horizon"
        elif frame["processed"] >= frame["limit"]:
            why = "budget"
        else:
            why = "run end"
        log.append((why, kept, before - kept))

    return log, mock.patch.object(ArrayEventCore, "_settle", spy)
