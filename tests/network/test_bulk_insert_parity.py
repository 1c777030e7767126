"""Property: the array core's one bulk-insert path drains like the heap core.

``ArrayEventCore.schedule_block`` is the array core's only bulk insert:
entries landing in or before the slot being drained go to the overflow
heap at once; the rest of a small insert is staged row by row, of a
larger one waits whole in ``_pending`` and is cut into buckets, with all
else pending, in one pass when the next run starts.  Random scripts mix
``call_at`` and ``Simulator.schedule_block`` in both its input shapes, a
float64 array of times (the workload plane's) and a list of the kept
receivers' times (a multicast's, some receivers dropped before the
insert); blocks of 1 to 40 entries, on both sides of ``BLOCK_FANOUT``:
staged row by row, or grouped by slot and method, over two callbacks, on
a 1/16 time grid so that ties are common.  A callback may schedule another
insert relative to its own time — into the active slot (the overflow
heap), past it, or tied with what is queued — and inserts made between
chunks can land before the active slot (``run(until=...)`` leaves the
clock behind a run it has already started).  The script drains in random
``until``/``max_events`` chunks with a pickle round trip between chunks,
and after every chunk the fired trace, ``sim.now``, ``events_processed``
and ``pending`` must be the heap core's.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.simulator import Simulator

#: Delays on a 1/16 grid up to 1.5: 0 to 3 bucket widths of 0.25 ahead.
delays = st.integers(min_value=0, max_value=24).map(lambda tick: tick / 16)
sizes = st.integers(min_value=1, max_value=40)


@st.composite
def inserts(draw, child: bool = True):
    """``(kind, delays, echo, child insert or None)``: a ``None`` delay of
    a ``fanout`` is a dropped receiver, and ``echo`` picks the second callback, so
    that one bucket can hold blocks of two methods."""
    kind = draw(st.sampled_from(("call", "block", "fanout")))
    size = 1 if kind == "call" else draw(sizes)
    entry = st.one_of(st.none(), delays) if kind == "fanout" else delays
    ticks = draw(st.lists(entry, min_size=size, max_size=size))
    later = draw(st.one_of(st.none(), inserts(child=False))) if child else None
    return (kind, ticks, draw(st.booleans()), later)


#: One chunk: ``(until or None, max_events, inserts made before it)``.
chunks = st.tuples(
    st.one_of(st.none(), delays),
    st.integers(min_value=1, max_value=60),
    st.lists(inserts(), max_size=3),
)


class Harness:
    """A simulator, the trace of what fired, and the inserts to make on firing."""

    def __init__(self, core: str) -> None:
        self.sim = Simulator(core=core)
        self.trace: List[Tuple[float, int, int]] = []
        self.children: Dict[int, Any] = {}
        self.labels = 0

    def fire(self, arg: Tuple[int, int]) -> None:
        label, index = arg
        self.trace.append((self.sim.now, label, index))
        child = self.children.get(label) if index == 0 else None
        if child is not None:
            self.insert(child)

    def echo(self, arg: Tuple[int, int]) -> None:
        self.trace.append(("echo",))
        self.fire(arg)

    def insert(self, op) -> None:
        kind, ticks, echo, child = op
        label = self.labels
        self.labels += 1
        if child is not None:
            self.children[label] = child
        sim = self.sim
        now = sim.now
        method = self.echo if echo else self.fire
        args = [(label, index) for index in range(len(ticks))]
        if kind == "call":
            sim.call_at(now + ticks[0], method, args[0])
        elif kind == "block":
            sim.schedule_block(now + np.array(ticks), method, args)
        else:  # a multicast's shape: a list, the dropped receivers left out
            kept = [index for index, tick in enumerate(ticks) if tick is not None]
            sim.schedule_block([now + ticks[i] for i in kept], method, [args[i] for i in kept])

    def drain(self, until: Optional[float], budget: int) -> None:
        try:
            self.sim.run(until=until, max_events=budget)
        except RuntimeError as exc:  # the budget ran out before the queue did
            assert "did not quiesce" in str(exc)

    def state(self) -> Tuple[Any, ...]:
        sim = self.sim
        return list(self.trace), sim.now, sim.events_processed, sim.pending


def play(core: str, script, steps) -> List[Tuple[Any, ...]]:
    harness = Harness(core)
    for op in script:
        harness.insert(op)
    states = []
    horizon = 0.0
    for until, budget, ops in steps + [(None, 10**6, [])]:
        for op in ops:
            harness.insert(op)
        if until is not None:  # ``until`` never runs backwards
            horizon = until = max(horizon, harness.sim.now + until)
        harness.drain(until, budget)
        states.append(harness.state())
        harness = pickle.loads(pickle.dumps(harness))
        assert harness.state() == states[-1]
    return states


@given(script=st.lists(inserts(), min_size=1, max_size=6), steps=st.lists(chunks, max_size=5))
@settings(max_examples=200, deadline=None)
def test_bulk_inserts_drain_like_the_heap_core(script, steps):
    array = play("array", script, steps)
    assert array == play("heap", script, steps)
    assert array[-1][-1] == 0
