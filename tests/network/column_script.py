"""A scripted mix of column events and scalar events, run on either core.

``Simulator.schedule_column`` is *defined* by what the heap core does
with it (``schedule_block(times, sink.append, values.tolist())``); the
array core, whose sinks pull their columns from lanes, must be
indistinguishable from that at every point a caller can look.
:func:`play` runs one script — column blocks over several sinks, scalar
events that log the clock and every sink's length when they fire (a
read, so a pull) and may schedule a child (a scalar event or another
column block, possibly into the slot being drained), and scalar events
that ``append`` straight to a sink (a write, so a pull too) — under a
list of ``(until, chunk)`` drain steps and returns the state after
every chunk.  The deterministic cases in ``test_core_equivalence.py``
and the Hypothesis properties in
``tests/properties/test_property_columns.py`` compare those state lists
across cores.

A :class:`Script` holds only data and bound methods, so it pickles whole
— the mid-lane snapshot tests restore one and finish it.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.event_core import Lane, pull_lanes
from repro.network.simulator import Simulator

#: ("column", sink, times, values) | ("scalar", time, tag, child) |
#: ("append", time, sink, value); a child is None | ("scalar", delay, tag)
#: | ("column", sink, delays, values).
Op = Tuple[Any, ...]
#: (until or None, events per chunk)
Step = Tuple[Optional[float], int]


class ListSink:
    """The plainest sink that keeps the ``schedule_column`` pull contract:
    it pulls its lanes before every read (``items``) or write."""

    def __init__(self) -> None:
        self._items: List[int] = []
        self._lanes: List[Lane] = []

    def add_lane(self, lane: Lane) -> None:
        self._lanes.append(lane)

    def pull(self) -> None:
        due = pull_lanes(self._lanes)
        if due is not None:
            self._items.extend(due.tolist())

    @property
    def items(self) -> List[int]:
        self.pull()
        return self._items

    def append(self, value: int) -> None:
        self.pull()
        self._items.append(value)

    def __getstate__(self):
        self.pull()
        return {"_items": self._items}

    def __setstate__(self, state) -> None:
        self.__init__()
        self._items = state["_items"]


class Script:
    def __init__(self, core: str, sinks: int = 2) -> None:
        self.sim = Simulator(core=core)
        self.sinks = [ListSink() for _ in range(sinks)]
        self.log: List[Tuple[float, str, Tuple[int, ...]]] = []

    def column(self, sink: int, times: Sequence[float], values: Sequence[int]) -> int:
        return self.sim.schedule_column(
            np.array(times, dtype=np.float64),
            np.array(values, dtype=np.int64),
            self.sinks[sink],
        )

    def scalar(self, time: float, tag: str, child: Optional[Op] = None) -> None:
        self.sim.call_at(time, self._fire, (tag, child))

    def append(self, time: float, sink: int, value: int) -> None:
        self.sim.call_at(time, self.sinks[sink].append, value)

    def _fire(self, entry: Tuple[str, Optional[Op]]) -> None:
        tag, child = entry
        now = float(self.sim.now)
        self.log.append((now, tag, tuple(len(sink.items) for sink in self.sinks)))
        if child is None:
            return
        if child[0] == "scalar":
            self.scalar(now + child[1], child[2])
        else:
            self.column(child[1], [now + delay for delay in child[2]], child[3])

    def apply(self, ops: Sequence[Op]) -> "Script":
        for op in ops:
            getattr(self, op[0])(*op[1:])
        return self

    def state(self) -> Tuple[Any, ...]:
        return (
            list(self.log),
            [list(sink.items) for sink in self.sinks],
            float(self.sim.now),
            self.sim.events_processed,
            self.sim.pending,
        )

    def run(self, steps: Sequence[Step], on_chunk=None) -> List[Tuple[Any, ...]]:
        """Drain step by step; the state after every chunk, then after each step."""
        states: List[Tuple[Any, ...]] = []

        def chunk_done(_simulator: Simulator) -> None:
            states.append(self.state())
            if on_chunk is not None:
                on_chunk(self)

        for until, chunk in steps:
            self.sim.run(until=until, checkpoint_every=chunk, checkpoint_sink=chunk_done)
            states.append(self.state())
        return states


def play(core: str, ops: Sequence[Op], steps: Sequence[Step], sinks: int = 2):
    return Script(core, sinks).apply(ops).run(steps)
