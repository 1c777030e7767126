"""Property: column events on the array core are their heap definition.

Random column blocks over three sinks, mixed with random scalar events
(some of which schedule a scalar child or another column block when they
fire — into the slot being drained, or past it) and scalar ``append``
events writing straight to a sink, drained under random ``until`` cuts
and random ``max_events`` chunk sizes.  Timestamps come from a 1/16 grid
so that ties between column and scalar events, and ``until`` values that
hit an event exactly, are the common case rather than a measure-zero
one.  On the array core a sink pulls its columns from lanes whenever it
is read or written: the scalar events read every sink when they fire.
After every chunk the dispatch log, every sink's contents, ``sim.now``,
``events_processed`` and ``pending`` must be identical on both cores.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from tests.network.column_script import Script, play

SINKS = 3

grid_times = st.integers(min_value=0, max_value=40).map(lambda tick: tick / 16)
grid_delays = st.integers(min_value=0, max_value=12).map(lambda tick: tick / 16)
#: Few distinct times: nearly every event ties with another.
tie_times = st.integers(min_value=0, max_value=5).map(lambda tick: tick / 16)
sink_ids = st.integers(min_value=0, max_value=SINKS - 1)


@st.composite
def column_blocks(draw, times=grid_times):
    length = draw(st.integers(min_value=0, max_value=12))
    return (
        "column",
        draw(sink_ids),
        draw(st.lists(times, min_size=length, max_size=length)),
        draw(st.lists(st.integers(0, 999), min_size=length, max_size=length)),
    )


children = st.one_of(
    st.none(),
    st.tuples(st.just("scalar"), grid_delays, st.just("child")),
    column_blocks(times=grid_delays),
)


def scalar_events(times=grid_times):
    return st.tuples(st.just("scalar"), times, st.just("event"), children)


def append_events(times=grid_times):
    return st.tuples(st.just("append"), times, sink_ids, st.integers(1000, 1999))


def scripts(times=grid_times):
    return st.lists(
        st.one_of(column_blocks(times), scalar_events(times), append_events(times)),
        max_size=10,
    )


steps = st.tuples(st.one_of(st.none(), grid_times), st.integers(min_value=1, max_value=9))


def _ordered(cuts):
    """``until`` may not run backwards across steps; a final step drains."""
    horizon = 0.0
    ordered = []
    for until, chunk in cuts:
        if until is not None:
            horizon = until = max(until, horizon)
        ordered.append((until, chunk))
    ordered.append((None, 1000))
    return ordered


@given(ops=scripts(), cuts=st.lists(steps, max_size=4))
@settings(max_examples=150, deadline=None)
def test_column_events_identical_on_both_cores(ops, cuts):
    ordered = _ordered(cuts)
    assert play("array", ops, ordered, SINKS) == play("heap", ops, ordered, SINKS)


@given(ops=scripts(tie_times), chunk=st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_budgets_cut_inside_lanes_at_ties(ops, chunk):
    """Small budgets over a handful of distinct times: the cut falls among
    lane events tied with scalar events, in both seq orders."""
    ordered = [(None, chunk)]
    assert play("array", ops, ordered, SINKS) == play("heap", ops, ordered, SINKS)


@given(ops=scripts(), cuts=st.lists(steps, max_size=3))
@settings(max_examples=100, deadline=None)
def test_snapshots_mid_lane_restore_to_the_heap_run(ops, cuts):
    """Pickle the array-core script after every chunk, so snapshots fall
    inside lanes: each restores to the state it was taken in and, given
    the rest of its step and the steps after it, ends like the heap run."""
    ordered = _ordered(cuts)
    heap = play("heap", ops, ordered, SINKS)
    script = Script("array", SINKS).apply(ops)
    snapshots = []
    for step, (until, chunk) in enumerate(ordered):
        script.sim.run(
            until=until,
            checkpoint_every=chunk,
            checkpoint_sink=lambda _: snapshots.append(
                (step, script.state(), pickle.dumps(script))
            ),
        )
    assert script.state() == heap[-1]
    for step, taken, blob in snapshots:
        restored = pickle.loads(blob)
        assert restored.state() == taken
        assert restored.run(ordered[step:])[-1] == heap[-1]
