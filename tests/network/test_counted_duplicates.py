"""Counted duplicates against the heap core, at every place a drain can stop.

When the array core materializes a bucket, the deliveries
``Network._classify_duplicates`` marks (a flood's duplicate block
announcements) stay out of the sorted run and are only counted: processed,
consumed and delivered in one step when the run ends, the clock moved to
the last of them (``ArrayEventCore._account``).  Whatever stops a drain
first — the budget, ``until``, a callback that raises, a network epoch
that moves — splits them there (``ArrayEventCore._settle``).  Each case
below stops an 18-replica block flood (``flood_script.BlockFlood``) at such
a place on both cores and compares the counts: ``sim.now``, processed,
consumed, pending, the four message counters and the history's length.
The last case is a 24-replica bitcoin cell with a client population,
whose arrivals wait in lanes beside the counted duplicates.
"""

from __future__ import annotations

import copy
import pickle
import sys
from functools import partial
from unittest import mock

import pytest

from repro.network.event_core import ArrayEventCore
from repro.protocols import run_bitcoin
from tests.network.flood_script import (
    BLOCKS,
    WIDTHS,
    BlockFlood,
    Boom,
    assert_drained,
    block_flood,
    boom,
    crash,
    deregister,
    settle_spy,
)


def _counts(flood: BlockFlood) -> tuple:
    sim, network = flood.sim, flood.network
    core = sim._array_core
    if core is None:
        consumed = next(copy.copy(sim._sequence)) - len(sim._queue)
    else:
        consumed = core._consumed
    return (
        float(sim.now),
        sim.events_processed,
        consumed,
        sim.pending,
        network.messages_sent,
        network.messages_delivered,
        network.messages_dropped,
        network.messages_quarantined,
        len(network.recorder),
    )


def _drain(flood: BlockFlood, max_events: int, until=None) -> tuple:
    """One ``run`` call; a budget that ends before the queue does raises
    after the drain, and the counts are taken there."""
    try:
        flood.sim.run(until=until, max_events=max_events)
    except RuntimeError as error:
        assert "did not quiesce" in str(error)
    return _counts(flood)


def _first_counted_run(min_counted: int, width) -> tuple:
    """``(events processed before it, its length with the counted ones, how
    many it counts)`` of the first run of the synchronous flood that counts
    ``min_counted`` or more duplicates."""
    found = []
    start_next_run = ArrayEventCore._start_next_run

    def spy(core: ArrayEventCore, room: int) -> bool:
        more = start_next_run(core, room)
        counted = core._counted
        if not found and counted is not None and len(counted[0]) >= min_counted:
            found.append((
                sys._getframe(1).f_locals["processed"],
                core._run_len + len(counted[0]),
                len(counted[0]),
            ))
        return more

    with mock.patch.object(ArrayEventCore, "_start_next_run", spy):
        block_flood("array", width=width).run([(None, 10**6)])
    return found[0]


@WIDTHS
def test_every_budget_across_a_counted_run_matches_the_heap_core(width):
    """``run(max_events=k)`` from just before a run that counts duplicates,
    for every ``k`` up to past its end: where they all fit the budget they
    are counted and split where it ends (a snapshot there restores to the
    heap core's future), else the bucket is sorted whole and the span scan
    takes them."""
    before, length, counted = _first_counted_run(60, width)
    array, heap = block_flood("array", width=width), block_flood("heap")
    assert _drain(array, before) == _drain(heap, before)
    blobs = pickle.dumps(array), pickle.dumps(heap)
    starts = []
    start_next_run = ArrayEventCore._start_next_run

    def spy(core: ArrayEventCore, room: int) -> bool:
        more = start_next_run(core, room)
        starts.append((room, core._run_len, 0 if core._counted is None else len(core._counted[0])))
        return more

    log, settles = settle_spy()
    restored_after_a_split = 0
    with settles, mock.patch.object(ArrayEventCore, "_start_next_run", spy):
        for k in range(1, length + 2):
            array, heap = (pickle.loads(blob) for blob in blobs)
            starts.clear()
            assert _drain(array, k) == _drain(heap, k), k
            assert array.sim._array_core._counted is None
            # The drain starts with the run: counted when they all fit.
            assert starts[0] == ((k, length - counted, counted) if k >= counted else (k, length, 0))
            if log and log[-1][0] == "budget" and log[-1][2]:
                restored = pickle.loads(pickle.dumps(array))
                assert _drain(restored, 10**6) == _drain(heap, 10**6), k
                restored_after_a_split += 1
    whys = {why for why, kept, back in log if kept and back}
    assert "budget" in whys and ("run end", counted, 0) in log, log
    assert restored_after_a_split >= 3


#: Two more blocks, so that waves of relays (all duplicates) and a wave of
#: first receptions share slots: ``until`` at a relay wave's time then
#: stops a drain with counted duplicates at exactly that time.
_WAVES = BLOCKS + [(0.1, "p3", "x", None), (0.65, "p12", "y", None)]


@WIDTHS
@pytest.mark.parametrize("between", (False, True), ids=("at", "between"))
def test_until_at_and_between_tied_delivery_times_matches_the_heap_core(between: bool, width):
    """Every delay is 0.5, so a wave's deliveries tie on their time: stop at
    the second time pending (the events at exactly ``until`` run, counted
    ones too), or half way from the first to the second, comparing the
    counts each time."""
    array = block_flood("array", "lockstep", origins=_WAVES, width=width)
    heap = block_flood("heap", "lockstep", origins=_WAVES)
    log, settles = settle_spy()
    steps = 0
    with settles:
        while heap.sim.pending:
            times = sorted({entry[0] for entry in heap.sim._queue}) + [heap.sim.now + 9]
            until = (times[0] + times[1]) / 2 if between else times[1]
            assert _drain(array, 10**6, until) == _drain(heap, 10**6, until), until
            steps += 1
    assert steps >= 6 and array.network.messages_delivered > 0
    horizon = [(kept, back) for why, kept, back in log if why == "horizon"]
    if between:  # nothing was due at a horizon half way to the next time
        assert horizon and not any(kept for kept, _ in horizon), log
    else:
        assert any(kept and back for kept, back in horizon), log
    assert_drained(array.sim._array_core)


def _crash_later(pid: str, victim: str, flood: BlockFlood) -> None:
    """In 0.5, when the next wave of relays lands: a crash dispatched on its
    own, between deliveries tied with it."""
    flood.replicas[pid].schedule(0.5, partial(crash, victim, flood))


#: Block ``a`` first reaches p1..p8 only; at 1.0 their relays are tied
#: duplicates (to p0..p8) and tied first receptions (to p9..p17),
#: interleaved by seq.
_HALF = [(0.0, "p0", "a", [f"p{i}" for i in range(1, 9)]), (0.3, "p9", "b", None)]

#: Epoch moves among tied deliveries: dispatched in a span (a first
#: reception crashes or deregisters a peer) or on their own (a timer).
_TIED_MOVES = {
    "crash_in_span": {("p9", "a"): partial(crash, "p7")},
    "deregister_in_span": {("p12", "a"): partial(deregister, "p6")},
    "crash_by_timer": {("p4", "a"): partial(_crash_later, "p4", "p3")},
}


@WIDTHS
@pytest.mark.parametrize("move", sorted(_TIED_MOVES))
def test_a_moved_epoch_among_tied_deliveries_matches_the_heap_core(move: str, width):
    """The epoch moves at an event whose time the counted duplicates tie
    with: those with a smaller seq were processed before it, and stay
    counted; the rest go back and are judged again."""
    log, settles = settle_spy()
    with settles:
        array = block_flood(
            "array", "lockstep", origins=_HALF, actions=_TIED_MOVES[move], width=width
        )
        states = [_drain(array, 10**6)]
    heap = block_flood("heap", "lockstep", origins=_HALF, actions=_TIED_MOVES[move])
    assert states == [_drain(heap, 10**6)]
    assert any(kept and back for why, kept, back in log if why == "epoch"), log


def _run_through_booms(flood: BlockFlood, chunk: int) -> list:
    """Drain in chunks; a :class:`Boom` out of a callback ends a drain early,
    its counts are taken there and the drain goes on."""
    states = []
    while flood.sim.pending:
        try:
            states.append(_drain(flood, chunk))
        except Boom:
            states.append(_counts(flood) + ("boom",))
    return states


@WIDTHS
@pytest.mark.parametrize("chunk", (10**6, 300))
def test_a_raising_callback_inside_a_counted_run_matches_the_heap_core(chunk: int, width):
    """First receptions raise while their run counts duplicates on both
    sides of them: those before are accounted, the rest go back, and the
    event that raised is consumed but not processed, as on the heap core."""
    actions = {("p5", "a"): boom, ("p11", "b"): boom, ("p3", "c"): boom, ("p8", "c"): boom}
    log, settles = settle_spy()
    with settles:
        flood = block_flood("array", actions=actions, width=width)
        array = _run_through_booms(flood, chunk)
    heap = _run_through_booms(block_flood("heap", actions=actions), chunk)
    assert [state[-1] for state in array].count("boom") == 4
    assert array == heap
    assert any(kept and back for why, kept, back in log if why == "raise"), log
    assert_drained(flood.sim._array_core)


@pytest.mark.parametrize("chunk", (None, 997, 4999))
def test_a_client_population_cell_counts_duplicates_beside_its_lanes(chunk):
    """24 bitcoin replicas and 300 clients: the arrivals wait in lanes while
    the relay flood's duplicates are counted, and the run, drained whole or
    in checkpoint chunks (each ending where the heap core's does), is the
    heap core's."""
    lanes_beside = []
    account = ArrayEventCore._account

    def spy(core: ArrayEventCore, *args) -> int:
        lanes_beside.append(bool(core._lanes) and core._counted is not None)
        return account(core, *args)

    def run(core: str):
        chunks = []

        def sink(live) -> None:
            sim, delivered = live.simulator, live.network.messages_delivered
            chunks.append((sim.now, sim.events_processed, sim.pending, delivered))

        result = run_bitcoin(
            24, duration=40.0, token_rate=0.8, clients=300, core=core,
            checkpoint_every=chunk, checkpoint_sink=sink if chunk else None,
        )
        return result, chunks

    with mock.patch.object(ArrayEventCore, "_account", spy):
        array, array_chunks = run("array")
    heap, heap_chunks = run("heap")
    assert array.history.events == heap.history.events
    assert array_chunks == heap_chunks
    for name in ("messages_sent", "messages_delivered", "messages_dropped"):
        assert getattr(array.network, name) == getattr(heap.network, name)
    assert array.network.simulator.events_processed == heap.network.simulator.events_processed
    assert array.network.simulator.now == heap.network.simulator.now
    if chunk is None:
        assert sum(lanes_beside) >= 20
