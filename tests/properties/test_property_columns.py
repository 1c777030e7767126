"""Property: column events on the array core are their heap definition.

Random column blocks over three sinks, mixed with random scalar events
(some of which schedule a scalar child or another column block when they
fire — into the slot being drained, or past it), drained under random
``until`` cuts and random ``max_events`` chunk sizes.  Timestamps come
from a 1/16 grid so that ties between column and scalar events, and
``until`` values that hit an event exactly, are the common case rather
than a measure-zero one.  After every chunk the dispatch log, every
sink's contents, ``sim.now``, ``events_processed`` and ``pending`` must
be identical on both cores.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from tests.network.column_script import play

SINKS = 3

grid_times = st.integers(min_value=0, max_value=40).map(lambda tick: tick / 16)
grid_delays = st.integers(min_value=0, max_value=12).map(lambda tick: tick / 16)
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
scalar_events = st.tuples(st.just("scalar"), grid_times, st.just("event"), children)
steps = st.tuples(st.one_of(st.none(), grid_times), st.integers(min_value=1, max_value=9))


@given(
    ops=st.lists(st.one_of(column_blocks(), scalar_events), max_size=10),
    cuts=st.lists(steps, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_column_events_identical_on_both_cores(ops, cuts):
    # `until` may not run backwards across steps; a final step drains.
    horizon = 0.0
    ordered = []
    for until, chunk in cuts:
        if until is not None:
            horizon = until = max(until, horizon)
        ordered.append((until, chunk))
    ordered.append((None, 1000))
    assert play("array", ops, ordered, SINKS) == play("heap", ops, ordered, SINKS)
