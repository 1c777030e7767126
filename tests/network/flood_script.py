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

A :class:`Flood` holds only data and bound methods, so it pickles whole —
the snapshot cases restore one mid-flood and finish it.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.process import Process
from repro.network.simulator import Message, Network, Simulator

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
