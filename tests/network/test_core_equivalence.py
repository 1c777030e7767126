"""Array vs. heap event core: recorded histories are identical.

The PR 6 acceptance bar, mirroring the PR 4 message-plane oracle one
directory over: on randomized fork-, drop- and fault-heavy protocol
runs, ``run_protocol(core="array")`` (the calendar-queue of numpy
buckets) and ``run_protocol(core="heap")``
(the classical heapq of tuples, kept verbatim) must record *identical*
histories — every event, every timestamp, every read result — for all
channel models and across dissemination topologies.  Anything less would
mean the new core changed the simulated executions, not just their
speed.

PR 10 widened the oracle axis from the event *store* to the whole
callback plane: the live leg (array core, batch dispatch, hot-path
recorder, columnar block index, indexed selection) is additionally
checked against the pure/scalar plane — heap core, per-receiver sends and
per-message dispatch, the generic recorder body, the per-block dict index
and the brute-force selection rule.  That plane is test code
(``tests/network/reference_plane.py``); ``_run(reference=True)`` asks for
all of it, ``_run(scalar_network=True)`` for its network alone.
"""

from __future__ import annotations

import pickle
import random
import sys
from collections import Counter
from contextlib import ExitStack
from functools import partial
from unittest import mock

import pytest

from repro.core.blocktree import _TreeColumns
from repro.core.degradation import DegradationMonitor
from repro.core.history import HistoryRecorder
from repro.network.channels import AsynchronousChannel, SynchronousChannel
from repro.network.event_core import ArrayEventCore
from repro.network.faults import FAULTS
from repro.network.simulator import Network, Simulator
from repro.protocols.base import BlockchainReplica
from tests.network.column_script import ListSink, Script, play
from tests.network.flood_script import (
    BlockFlood,
    Boom,
    Flood,
    assert_drained,
    assert_matches_heap,
    block_flood,
    boom,
    chirp,
    crash,
    deregister,
    heal,
    leave,
    partition,
    ping,
    rejoin,
    revive,
    BASE_WIDTH,
    WIDTHS,
    settle_spy,
    shout,
    timer,
    with_widths,
)
from tests.network.fork_heavy_run import fault_of as _fault, run as _run


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
@pytest.mark.parametrize("seed", (3, 17))
def test_histories_identical_across_channel_models(kind: str, seed: int):
    array = _run(kind, seed, core="array", faulty=False)
    heap = _run(kind, seed, core="heap", faulty=False)
    assert array.history.events == heap.history.events
    assert array.network.messages_sent == heap.network.messages_sent
    assert array.network.messages_delivered == heap.network.messages_delivered
    assert array.network.messages_dropped == heap.network.messages_dropped
    assert array.network.simulator.events_processed == heap.network.simulator.events_processed
    # The runs are meant to be interesting: blocks were produced and read.
    assert len(array.history.read_responses()) > 0
    assert len(array.history.append_invocations()) > 0


@pytest.mark.parametrize("topology", ("full", "gossip", "sharded"))
@pytest.mark.parametrize("kind", ("synchronous", "lossy"))
def test_histories_identical_across_topologies(topology: str, kind: str):
    array = _run(kind, seed=5, core="array", faulty=False, topology=topology)
    heap = _run(kind, seed=5, core="heap", faulty=False, topology=topology)
    assert array.history.events == heap.history.events
    assert array.network.messages_sent == heap.network.messages_sent
    assert array.network.messages_dropped == heap.network.messages_dropped


@pytest.mark.parametrize("kind", ("lossy", "partial"))
def test_histories_identical_with_crash_faults_and_drops(kind: str):
    """Fault-heavy: a replica crashes mid-run while messages are dropped."""
    array = _run(kind, seed=11, core="array", faulty=True)
    heap = _run(kind, seed=11, core="heap", faulty=True)
    assert array.history.events == heap.history.events
    assert not array.replicas["p1"].alive
    assert array.network.messages_dropped == heap.network.messages_dropped


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
@pytest.mark.parametrize("fault_kind", sorted(FAULTS.names()))
def test_histories_identical_for_every_fault_kind(fault_kind: str, kind: str):
    """Every registered adversary × every channel model × both cores."""
    array = _run(kind, seed=13, core="array", faulty=False, fault=_fault(fault_kind))
    heap = _run(kind, seed=13, core="heap", faulty=False, fault=_fault(fault_kind))
    assert array.history.events == heap.history.events
    assert array.network.messages_sent == heap.network.messages_sent
    assert array.network.messages_delivered == heap.network.messages_delivered
    assert array.network.messages_dropped == heap.network.messages_dropped
    assert array.network.messages_quarantined == heap.network.messages_quarantined
    assert array.network.simulator.events_processed == heap.network.simulator.events_processed


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
def test_histories_identical_live_vs_reference_plane(kind: str):
    """The full callback-plane oracle: live vs pure/scalar, per channel.

    Live = array core + batch dispatch + hot-path recorder + columnar
    index + indexed selection.  Oracle = heap core + per-message dispatch
    + generic recorder + dict index + brute-force selection — every fast
    path swapped out at once.
    """
    live = _run(kind, seed=9, core="array", faulty=False)
    oracle = _run(kind, seed=9, core="heap", faulty=False, reference=True)
    assert live.history.events == oracle.history.events
    assert live.network.messages_sent == oracle.network.messages_sent
    assert live.network.messages_delivered == oracle.network.messages_delivered
    assert live.network.messages_dropped == oracle.network.messages_dropped
    assert live.network.messages_quarantined == oracle.network.messages_quarantined
    assert live.network.simulator.events_processed == oracle.network.simulator.events_processed


@pytest.mark.parametrize("topology", ("full", "gossip", "sharded"))
def test_live_vs_reference_plane_across_topologies(topology: str):
    live = _run("synchronous", seed=5, core="array", faulty=False, topology=topology)
    oracle = _run(
        "synchronous", seed=5, core="heap", faulty=False,
        topology=topology, reference=True,
    )
    assert live.history.events == oracle.history.events
    assert live.network.messages_sent == oracle.network.messages_sent
    assert live.network.messages_delivered == oracle.network.messages_delivered


@pytest.mark.parametrize("fault_kind", sorted(FAULTS.names()))
def test_live_vs_reference_plane_for_every_fault_kind(fault_kind: str):
    """Membership churn and partitions exercise the dup-skip guards."""
    live = _run("lossy", seed=13, core="array", faulty=False, fault=_fault(fault_kind))
    oracle = _run(
        "lossy", seed=13, core="heap", faulty=False,
        fault=_fault(fault_kind), reference=True,
    )
    assert live.history.events == oracle.history.events
    assert live.history._times.tolist() == oracle.history._times.tolist()
    assert (
        DegradationMonitor.of_run(live).samples == DegradationMonitor.of_run(oracle).samples
    )
    assert live.network.messages_delivered == oracle.network.messages_delivered
    assert live.network.messages_quarantined == oracle.network.messages_quarantined


@pytest.mark.parametrize("kind", ("synchronous", "asynchronous", "partial", "lossy", "targeted"))
def test_batch_dispatch_matches_scalar_dispatch(kind: str):
    """Isolate batch dispatch: same array core, spans on vs off."""
    batched = _run(kind, seed=17, core="array", faulty=True)
    scalar = _run(kind, seed=17, core="array", faulty=True, scalar_network=True)
    assert batched.history.events == scalar.history.events
    assert batched.network.messages_delivered == scalar.network.messages_delivered
    assert batched.network.simulator.events_processed == scalar.network.simulator.events_processed


class _Tripped(Exception):
    """A fast path ran."""


def _trip(*args, **kwargs):
    raise _Tripped


#: The fast paths the reference plane is the oracle *for*, each patched
#: on the class that defines it; the skip table is what the span's
#: duplicate stretches are read against, and the classifier what splits
#: them off when a bucket is materialized.
_FAST_PATHS = {
    "deliver_span": (Network, "_deliver_span"),
    "record_columns": (HistoryRecorder, "_record"),
    "tree_append_index": (_TreeColumns, "append"),
    "dup_skip_table": (Network, "_refresh_skip_table"),
    "dup_classifier": (Network, "_classify_duplicates"),
}

#: Miners of the fast-path scenario: with 18, relays are fan-out blocks
#: even after the lossy channel's drops, so buckets take the numpy path.
_FAST_PATH_MINERS = 18


def test_reference_plane_runs_none_of_the_fast_paths():
    """The oracle is independent of what it checks: with every fast path
    raising, the oracle leg still runs to completion and records the
    history it records without the patches."""
    expected = _run(
        "lossy", seed=9, core="heap", faulty=False, reference=True, n=_FAST_PATH_MINERS
    )
    with ExitStack() as stack:
        for target, name in (
            *_FAST_PATHS.values(),
            (BlockchainReplica, "batch_dup_seen"),
        ):
            stack.enter_context(mock.patch.object(target, name, _trip))
        oracle = _run(
            "lossy", seed=9, core="heap", faulty=False, reference=True, n=_FAST_PATH_MINERS
        )
    assert oracle.history.events == expected.history.events
    assert len(oracle.history.append_invocations()) > 0


@pytest.mark.parametrize("fast_path", sorted(_FAST_PATHS))
def test_live_plane_runs_every_fast_path(fast_path: str):
    """...and the patches are live wires: the same scenario on the live
    plane reaches each of them."""
    target, name = _FAST_PATHS[fast_path]
    with mock.patch.object(target, name, _trip), pytest.raises(_Tripped):
        _run("lossy", seed=9, core="array", faulty=False, n=_FAST_PATH_MINERS)


def test_fork_heavy_run_actually_forks():
    """Sanity: the equivalence scenarios exercise the fork-heavy shape."""
    result = _run("synchronous", seed=3, core="array", faulty=False)
    trees = [replica.tree for replica in result.replicas.values()]
    assert any(len(tree.leaves()) > 1 for tree in trees)


# -- column events: the array core against their heap definition ---------------
#
# ``schedule_column(times, values, sink)`` *is* ``schedule_block(times,
# sink.append, values.tolist())`` — what the heap core runs.  Each case
# below drains one script on both cores and compares, after every chunk,
# the dispatch log (clock + every sink's length as each scalar event saw
# them), every sink's contents, ``sim.now``, ``events_processed`` and
# ``pending``.  Slot width is 0.25, so times below 0.25 share one bucket.


# 0.125 and 0.1875 are binary fractions, so sums reach them exactly.
_ONE_SLOT = [0.02, 0.05, 0.125, 0.125, 0.1875, 0.2, 0.24]

_COLUMN_CASES = {
    # (a) `until` falls inside a segment; the events at exactly `until` run.
    "until_inside_segment": (
        [("column", 0, _ONE_SLOT, [1, 2, 3, 4, 5, 6, 7])],
        [(0.125, 100), (0.125, 100), (0.19, 100), (None, 100)],
    ),
    # (b) the budget ends mid-segment and the next chunk resumes it.
    "budget_inside_segment": (
        [
            ("column", 0, _ONE_SLOT, [1, 2, 3, 4, 5, 6, 7]),
            ("column", 1, [0.03, 0.11, 0.21], [8, 9, 10]),
        ],
        [(None, 3)],
    ),
    # (c) a scalar callback schedules into the active slot: the overflow
    # head preempts the segment it lands in, at its exact (time, seq).
    "overflow_preempts_segment": (
        [
            ("scalar", 0.0625, "parent", ("scalar", 0.0625, "child@0.125")),
            ("column", 0, _ONE_SLOT, [1, 2, 3, 4, 5, 6, 7]),
            ("scalar", 0.0625, "tie-parent", ("scalar", 0.125, "child@0.1875")),
        ],
        [(None, 100)],
    ),
    # (d) a column event and a scalar event at the *same* timestamp, in
    # both seq orders (scalar first at 0.125, column first at 0.1875).
    "same_timestamp_both_orders": (
        [
            ("scalar", 0.125, "before-column"),
            ("column", 0, _ONE_SLOT, [1, 2, 3, 4, 5, 6, 7]),
            ("scalar", 0.1875, "after-column"),
            ("column", 1, [0.125, 0.1875], [8, 9]),
        ],
        [(None, 2), (None, 100)],
    ),
    # (e) `schedule_column` mid-run: entries in the active slot become
    # overflow events, the rest lands in later buckets.
    "column_scheduled_mid_run": (
        [
            ("column", 0, _ONE_SLOT, [1, 2, 3, 4, 5, 6, 7]),
            (
                "scalar", 0.05, "spawner",
                ("column", 1, [0.0, 0.05, 0.07, 0.3, 0.9], [8, 9, 10, 11, 12]),
            ),
            ("scalar", 0.31, "late"),
        ],
        [(0.12, 4), (None, 3)],
    ),
    # Two blocks for one sink in one bucket, times interleaved and
    # unsorted, plus a block spanning several buckets out of order.
    "interleaved_blocks_one_sink": (
        [
            ("column", 0, [0.2, 0.04, 0.12], [1, 2, 3]),
            ("column", 1, [0.06, 0.7, 0.06, 0.3], [4, 5, 6, 7]),
            ("column", 0, [0.08, 0.04, 0.61], [8, 9, 10]),
            ("scalar", 0.07, "mid"),
            ("scalar", 0.65, "far"),
        ],
        [(None, 5), (None, 100)],
    ),
}


@pytest.mark.parametrize("case", sorted(_COLUMN_CASES))
def test_column_events_match_their_heap_definition(case: str):
    ops, steps = _COLUMN_CASES[case]
    array = play("array", ops, steps)
    heap = play("heap", ops, steps)
    assert array == heap
    log, sinks, _now, processed, pending = array[-1]
    assert pending == 0
    assert processed == len(log) + sum(len(items) for items in sinks)


def test_column_cases_cut_where_they_claim_to():
    """The scripts above are only worth comparing if they exercise the
    cuts: spot-check the states the array core reports."""
    ops, steps = _COLUMN_CASES["until_inside_segment"]
    states = play("array", ops, steps)
    assert [state[1][0] for state in states] == [
        [1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5],
        [1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7],
    ]
    ops, steps = _COLUMN_CASES["budget_inside_segment"]
    assert [state[3] for state in play("array", ops, steps)] == [3, 6, 9, 10, 10]
    ops, steps = _COLUMN_CASES["overflow_preempts_segment"]
    log = play("array", ops, steps)[-1][0]
    # Both children were scheduled after the column block (higher seq),
    # so every column event at their timestamp precedes them.
    assert log == [
        (0.0625, "parent", (2, 0)),
        (0.0625, "tie-parent", (2, 0)),
        (0.125, "child@0.125", (4, 0)),
        (0.1875, "child@0.1875", (5, 0)),
    ]
    ops, steps = _COLUMN_CASES["same_timestamp_both_orders"]
    log = play("array", ops, steps)[-1][0]
    assert log == [
        (0.125, "before-column", (2, 0)),  # no 0.125 column event yet
        (0.1875, "after-column", (5, 1)),  # sink 0's 0.1875 event, not sink 1's (later seq)
    ]


def test_lanes_survive_a_snapshot_mid_lane():
    """Pickle the whole script at every chunk boundary (budget 3 cuts
    inside the lanes), restore each snapshot and finish it: same final
    state as an uninterrupted run, on the array core and on the heap."""
    ops, _ = _COLUMN_CASES["interleaved_blocks_one_sink"]
    clean = Script("heap").apply(ops).run([(None, 100)])[-1]
    snapshots = []
    mid_lane = []

    def snapshot(script: Script) -> None:
        lanes = script.sim._array_core._lanes
        mid_lane.append(any(lane.counted for lane in lanes))  # partly accounted
        snapshots.append(pickle.dumps(script))

    Script("array").apply(ops).run([(None, 3)], on_chunk=snapshot)
    assert len(snapshots) >= 4
    for blob in snapshots:
        assert pickle.loads(blob).run([(None, 100)])[-1] == clean
    assert sum(mid_lane) >= 2


class _CountingSink(ListSink):
    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def append(self, value: int) -> None:
        self.calls.append("append")
        super().append(value)

    def pull(self) -> None:
        before = len(self._items)
        super().pull()
        if len(self._items) > before:
            self.calls.append(len(self._items) - before)


def test_lanes_reach_the_sink_as_pulled_columns():
    """The point of the lane route: the sink takes what is due in one pull
    when it is read, where the heap oracle calls ``append`` per event."""
    calls = {}
    for core in ("array", "heap"):
        script = Script(core, sinks=1)
        script.sinks[0] = sink = _CountingSink()
        script.apply([("column", 0, _ONE_SLOT, [1, 2, 3, 4, 5, 6, 7]), ("scalar", 0.12, "cut")])
        script.sim.run()
        calls[core] = sink.calls
        assert sink.items == [1, 2, 3, 4, 5, 6, 7]
    assert calls["array"] == [2, 5]  # read by the scalar at 0.12, then by the test
    assert calls["heap"] == ["append"] * 7


def test_two_lanes_and_appends_feed_one_sink_in_time_seq_order():
    """A sink fed by two lanes and by scalar ``append`` events holds them
    FIFO in ``(time, seq)`` order, ties included, at every observation."""
    ops = [
        ("column", 0, [0.0625, 0.125, 0.25, 0.5, 0.75], [1, 2, 3, 4, 5]),
        ("append", 0.125, 0, 100),
        ("column", 0, [0.125, 0.0625, 0.5, 0.3125], [6, 7, 8, 9]),
        ("append", 0.5, 0, 101),
        ("scalar", 0.5, "read"),
        ("append", 0.0625, 0, 102),
    ]
    steps = [(0.125, 2), (None, 3)]
    array = play("array", ops, steps, sinks=1)
    assert array == play("heap", ops, steps, sinks=1)
    # seq order: column 1 -> 0..4, 100 -> 5, column 2 -> 6..9, 101 -> 10, read -> 11, 102 -> 12
    assert array[-1][1] == [[1, 7, 102, 2, 100, 6, 3, 9, 4, 8, 101, 5]]
    assert array[-1][0] == [(0.5, "read", (11,))]


def _raise(_: object) -> None:
    raise RuntimeError("callback failed")


def test_a_raising_callback_leaves_the_lane_accounting_exact():
    """A callback that raises mid-drain: the lane events sorting before
    it are processed and the raising event is not, on both cores; a
    resumed drain delivers nothing twice."""
    ops = [
        ("column", 0, _ONE_SLOT, [1, 2, 3, 4, 5, 6, 7]),
        ("column", 1, [0.03, 0.11, 0.21], [8, 9, 10]),
        ("column", 2, [0.04, 0.125, 0.22], [11, 12, 13]),
    ]
    states = {}
    for core in ("array", "heap"):
        script = Script(core, sinks=3).apply(ops)
        script.sim.call_at(0.125, _raise, None)  # ties: after the 0.125 events of sink 0
        script.scalar(0.15, "cut")
        with pytest.raises(RuntimeError, match="callback failed"):
            script.sim.run()
        states[core] = [script.state()]
        script.sim.run()
        states[core].append(script.state())
    assert states["array"] == states["heap"]
    (_, sinks, now, processed, pending), final = states["heap"]
    assert (now, processed, pending) == (0.125, 8, 6)
    assert sinks == [[1, 2, 3, 4], [8, 9], [11, 12]]
    assert final[1] == [[1, 2, 3, 4, 5, 6, 7], [8, 9, 10], [11, 12, 13]]
    assert final[3:] == (14, 0)


@pytest.mark.parametrize(
    "boom",
    [lambda: _raise(None), partial(int, "callback failed")],
    ids=["python_callback", "builtin_callback"],
)
def test_an_event_that_raised_is_consumed_not_processed(boom):
    """The event whose callback raised leaves the store uncounted: a
    resumed one-event run processes the next event and quiesces."""
    for core in ("array", "heap"):
        sim = Simulator(core=core)
        fired = []
        sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda: fired.append(sim.now))
        with pytest.raises((RuntimeError, ValueError), match="callback failed"):
            sim.run()
        assert (sim.events_processed, sim.pending) == (0, 1), core
        assert sim.run(max_events=1) == 1
        assert (fired, sim.events_processed, sim.pending) == ([2.0], 1, 0), core


def test_schedule_column_validates_like_schedule_block():
    for core in ("array", "heap"):
        script = Script(core)
        script.scalar(1.0, "advance")
        script.sim.run()
        with pytest.raises(ValueError, match="into the past"):
            script.column(0, [0.5], [1])
        with pytest.raises(ValueError, match="same length"):
            script.column(0, [1.5, 2.5], [1])
        assert script.column(0, [], []) == 0


# -- relay blocks in buckets ---------------------------------------------------
#
# A fan-out block's entries reaching into the slot being drained go to the
# overflow heap when it is scheduled; the rest waits whole, and when the
# next run starts it is cut by slot with everything else pending, each
# later slot's share one block of its bucket.  Each case below drains
# one 18-process relay flood (``flood_script.Flood``: every relay is a
# 17-entry block) on both cores and compares, after every chunk, the
# delivery log, ``sim.now``, ``events_processed``, ``pending`` and the
# message counters.

_RUMORS = [(0.0, "p0", "a"), (0.125, "p7", "b"), (1.25, "p3", "c")]


def _flood(core: str, channel: str, audits: bool = False, width=None) -> Flood:
    if channel == "synchronous":
        # Every delay reaches past the slot (0.25 or 0.5): relays lie wholly beyond it.
        model = SynchronousChannel(delta=1.5, min_delay=0.5, seed=4)
    elif channel == "lockstep":
        # Every delay is exactly 0.5: each wave of deliveries is one
        # timestamp, ordered by nothing but the sequence numbers.
        model = SynchronousChannel(delta=0.5, min_delay=0.5, seed=4)
    else:
        # Most relays have an entry shorter than what is left of the slot,
        # a few have none.
        model = AsynchronousChannel(mean_delay=3.0, tail_probability=0.1, seed=4)
    return Flood(core, model, audits=audits, width=width).start(_RUMORS)


_FLOOD_CASES = {
    # (i) `until` and the chunk budget both stop a drain mid-flood.
    "until_and_budget_cut_the_flood": (
        "synchronous", False, [(0.6, 7), (0.9, 1000), (1.45, 13), (None, 50)],
    ),
    # (iii) part of a relay lands in the slot being drained (overflow
    # heap, entry by entry), the rest beyond it.
    "block_straddles_the_active_slot": ("asynchronous", False, [(0.5, 40), (None, 23)]),
    # Seventeen relays and their audit rows scheduled at one instant and
    # due at one instant: the seqs in their blocks are all that orders them.
    "lockstep_ties_are_broken_by_seq": ("lockstep", True, [(None, 29)]),
    # (iv) relays and audit rows — two shared methods — wait side by side.
    "two_methods_share_one_bucket": ("synchronous", True, [(1.0, 25), (None, 60)]),
}


@pytest.mark.parametrize(
    "case, width", with_widths({case: _FLOOD_CASES[case][0] for case in sorted(_FLOOD_CASES)})
)
def test_bucketed_relays_match_the_heap_core(case: str, width):
    channel, audits, steps = _FLOOD_CASES[case]
    waiting = []  # (blocks, methods in one bucket) at every chunk boundary
    shares = []  # (entries sent to the overflow heap, block length) of every block
    schedule_block = ArrayEventCore.schedule_block

    def spy(core, times, *args, **kwargs):
        before = len(core._overflow)
        scheduled = schedule_block(core, times, *args, **kwargs)
        shares.append((len(core._overflow) - before, len(times)))
        return scheduled

    def look(flood: Flood) -> None:
        waiting.append((flood.bucketed_blocks(), flood.bucketed_methods()))

    flood = _flood("array", channel, audits, width)
    with mock.patch.object(ArrayEventCore, "schedule_block", spy):
        array = flood.run(steps, on_chunk=look)
    heap = _flood("heap", channel, audits).run(steps)
    assert array == heap
    log, _now, processed, pending, sent, delivered = array[-1]
    assert pending == 0
    assert sent == delivered == 3 * (18 + 18 * 17)
    assert processed == len(log) + len(_RUMORS)
    # The case is only worth comparing if it cuts where it claims to.
    assert sum(blocks > 0 for blocks, _ in waiting) >= 3
    if case == "block_straddles_the_active_slot":
        assert sum(0 < start < total for start, total in shares) >= 10
    else:
        # Nothing but the originators' own copies ever met the active slot.
        assert sum(start > 0 for start, _ in shares) == len(_RUMORS)
    if audits:
        assert any(methods == 2 for _, methods in waiting)


@WIDTHS
def test_flood_survives_a_snapshot_with_relays_still_bucketed(width):
    """(ii) Pickle the whole flood at chunk boundaries where relay shares
    wait in buckets beyond the active slot; a snapshot holds them as they
    are, restores to the same future, and taking it does not disturb the
    run it is of."""
    clean = _flood("array", "synchronous", True, width).run([(None, 10**6)])[-1]
    snapshots = []

    def snapshot(flood: Flood) -> None:
        waiting = flood.bucketed_blocks()
        if waiting:
            snapshots.append((pickle.dumps(flood), waiting))
            assert flood.bucketed_blocks() == waiting  # pickling moved nothing

    steps = [(0.7, 37), (1.45, 53), (None, 71)]
    captured = _flood("array", "synchronous", True, width).run(steps, on_chunk=snapshot)
    assert captured[-1] == clean
    assert len(snapshots) >= 6
    for blob, waiting in random.Random(24).sample(snapshots, 4):
        restored = pickle.loads(blob)
        assert restored.bucketed_blocks() == waiting
        assert restored.run([(None, 10**6)])[-1] == clean


# -- duplicates: counted, or skipped by the span, against the heap core --------
#
# ``Network._deliver_span`` accounts a stretch of duplicate announcements
# in one step, reading a receiver-index -> seen-set table that only a
# network epoch keeps honest.  Most duplicates never reach it: when a
# bucket is materialized the array core leaves the deliveries
# ``Network._classify_duplicates`` marks out of the run and counts them
# (``ArrayEventCore._counted``), splitting them where a drain stops early
# or the epoch moves (``ArrayEventCore._settle``; ``settle_spy`` logs it).
# Each case below drains one 18-replica block flood
# (``flood_script.BlockFlood``) on both cores and compares, after every
# chunk, the recorded history, ``sim.now``, ``events_processed``,
# ``pending`` and the four message counters.


def _is_duplicate(network: Network, code: int) -> bool:
    return network._envelope_blocks[code >> 16] in network._skip_table[code & 0xFFFF]


def _to_come(network: Network, args, k: int, end: int) -> list:
    """The delivery codes still to come when a span is at ``k``: the rest of
    it, and what waits in the overflow heap (where a moved epoch sends the
    counted duplicates that sort after the event being dispatched)."""
    overflow = network.simulator._array_core._overflow
    return list(args[k:end]) + [
        entry[3]
        for entry in overflow
        if getattr(entry[2], "__func__", None) is Network._deliver_multicast
    ]


def _mid_span_refreshes(pids):
    """Spy on the skip table: for each rebuild made *inside* a multicast
    span (after a dispatch, ``k > pos``), whether the deliveries still to
    come hold any to ``pids``."""
    seen = []
    refresh = Network._refresh_skip_table

    def spy(network):
        refresh(network)
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_deliver_span":
            frame = caller.f_locals
            if frame.get("k", frame["pos"]) > frame["pos"]:
                wanted = {network._receiver_index[pid] for pid in pids}
                rest = _to_come(network, frame["args"], frame["k"], frame["end"])
                seen.append(any(code & 0xFFFF in wanted for code in rest))

    return seen, mock.patch.object(Network, "_refresh_skip_table", spy)


@WIDTHS
def test_crash_and_deregister_in_mid_span_match_the_heap_core(width):
    """A first reception crashes one peer and deregisters another while
    deliveries to them are still to come, in the span or among the
    duplicates its run counts: the rest must see one dead (dropped) and
    one departed (quarantined) receiver."""
    actions = {("p2", "b"): partial(crash, "p5"), ("p3", "b"): partial(deregister, "p6")}
    seen, patch = _mid_span_refreshes(["p5", "p6"])
    log, settles = settle_spy()
    with patch, settles:
        flood = assert_matches_heap([(None, 10**6)], actions=actions, width=width)
    network = flood.network
    assert not flood.replicas["p5"].alive and "p6" not in network.process_ids
    assert network.messages_quarantined > 0
    assert seen.count(True) == 2  # both actions ran inside a span that went on to them
    assert any(back for why, _, back in log if why == "epoch")  # and a run counting to them


@WIDTHS
def test_churn_rejoin_in_mid_span_matches_the_heap_core(width):
    """A churn leave and rejoin, and a crash and revive, each done by a
    first reception in mid-span; afterwards both replicas' duplicates
    are skipped again (the revive is the last epoch change, so the table
    follows it alone)."""
    actions = {
        ("p2", "a"): partial(leave, "p6"),
        ("p3", "b"): partial(rejoin, "p6"),
        ("p4", "a"): partial(crash, "p7"),
        ("p5", "c"): partial(revive, "p7"),
    }
    seen, patch = _mid_span_refreshes(["p6", "p7"])
    with patch:
        flood = assert_matches_heap(
            [(0.8, 41), (1.6, 1000), (None, 97)], actions=actions, width=width
        )
    assert True in seen
    network = flood.network
    for pid in ("p6", "p7"):
        replica = flood.replicas[pid]
        assert replica.alive and pid in network.process_ids
        assert network._skip_table[network._receiver_index[pid]] is replica.transport._delivered
        assert len(replica.tree) == 4  # caught up on blocks first heard after coming back
    assert network.messages_quarantined > 0


#: A floor of 0.5 (rule width 0.5) and none (0.25).
_CHANNELS = {"synchronous": "synchronous", "asynchronous": "asynchronous"}

_CUTS = [(0.9, 37), (1.3, 1000), (1.77, 23), (2.6, 1000), (None, 61)]
#: ``_CUTS`` with budgets that some runs' counted duplicates fit.
_WIDER_CUTS = [(0.9, 37), (1.3, 1000), (1.77, 123), (2.6, 1000), (None, 161)]


@pytest.mark.parametrize("steps", (_CUTS, _WIDER_CUTS), ids=("cuts", "wider_cuts"))
@pytest.mark.parametrize("channel, width", with_widths(_CHANNELS))
def test_cuts_among_counted_duplicates_match_the_heap_core(channel: str, width, steps):
    """``until``, the chunk budget and — over short asynchronous delays,
    whose relays land in the slot being drained — the overflow head each
    stop a drain among duplicates: between two duplicate codes a span
    scans (a run whose duplicates the budget left cannot hold is sorted
    whole), or among those a run counts, which are split there
    (``ArrayEventCore._settle``): what sorts before the stop is accounted,
    the rest goes back to the store."""
    cuts = Counter()
    deliver_span = Network._deliver_span

    def spy(network, times, seqs, args, pos, end, until, budget, cell):
        deliver_span(network, times, seqs, args, pos, end, until, budget, cell)
        events, k = cell
        if not (pos < k < end and all(_is_duplicate(network, args[i]) for i in (k - 1, k))):
            return
        if until is not None and times[k] > until:
            cuts["until"] += 1
        else:
            cuts["budget" if events == budget else "overflow"] += 1

    log, settles = settle_spy()
    with mock.patch.object(Network, "_deliver_span", spy), settles:
        flood = assert_matches_heap(steps, channel=channel, width=width)
    split = Counter(why for why, kept, back in log if kept and back)
    assert split["horizon"] >= 1, log
    # Under the wider budgets a 0.5-wide run's duplicates mostly fit: counted.
    wide = flood.sim._array_core.slot_width > BASE_WIDTH
    budget_cuts = 1 if wide and steps is _WIDER_CUTS else 2
    assert cuts["until"] >= 1 and cuts["budget"] >= budget_cuts and cuts["overflow"] >= 4, cuts
    if steps is _CUTS:  # too many for the budget: the scan takes them
        assert cuts["budget"] >= 5, cuts
    if channel == "asynchronous":
        assert cuts["overflow"] >= 20, cuts
        if steps is _WIDER_CUTS:  # (a run's end: its last counted ones passed ``until``)
            assert split["budget"] >= 1 and split["run end"] >= 1, log


#: First receptions that move the network epoch while deliveries the
#: run counts are still to come: a crash, a deregistration, and a churn
#: leave followed by the rejoin whose revive resets the receiver.
_EPOCH_MOVES = {
    "crash": {("p2", "c"): partial(crash, "p7")},
    "deregister": {("p3", "b"): partial(deregister, "p6")},
    "churn_rejoin": {("p2", "a"): partial(leave, "p6"), ("p3", "b"): partial(rejoin, "p6")},
}


#: The receiver each of ``_EPOCH_MOVES`` changes.
_EPOCH_MOVED = {"crash": "p7", "deregister": "p6", "churn_rejoin": "p6"}


@WIDTHS
@pytest.mark.parametrize("move", sorted(_EPOCH_MOVES))
@pytest.mark.parametrize(
    "steps",
    (
        [(None, 10**6)],
        [(0.9, 37), (1.77, 23), (None, 61)],
        [(0.9, 370), (1.77, 230), (None, 610)],
    ),
)
def test_a_moved_epoch_sends_the_rest_of_the_counted_duplicates_the_scalar_way(
    move, steps, width
):
    """Once the epoch moves, the marks of a run's counted duplicates may be
    stale (a receiver died, left or came back): those sorting after the
    event that moved it go back to the overflow heap, delivery by
    delivery, and the drain dispatches them like the heap core.  Under
    budgets too small for a run's duplicates, the run holds them all and
    its span scan judges those still to come against the new epoch (at
    the base width none fits them; a 0.5-wide run of a few may)."""
    seen, patch = _mid_span_refreshes([_EPOCH_MOVED[move]])
    log, settles = settle_spy()
    with patch, settles:
        flood = assert_matches_heap(steps, actions=_EPOCH_MOVES[move], width=width)
    sent_back = sum(back for why, _, back in log if why == "epoch")
    if steps[0][1] < 100:
        assert True in seen, (seen, log)
        if flood.sim._array_core.slot_width == BASE_WIDTH:
            assert sent_back == 0, log
    else:
        assert sent_back >= 10  # a synchronous channel never puts a relay there itself
        if move == "crash":  # some had sorted before the crash: they stayed counted
            assert any(kept for why, kept, _ in log if why == "epoch")
    assert_drained(flood.sim._array_core)


def _among_duplicates(flood: BlockFlood) -> bool:
    """The drain stopped between two duplicate deliveries of its run."""
    core, network = flood.sim._array_core, flood.network
    if network._skip_epoch != network._epoch:  # (a restored network rebuilds it lazily)
        network._refresh_skip_table()
    pos, args = core._run_pos, core._run_args
    return 0 < pos < core._run_len and all(
        getattr(core._run_methods[i], "__func__", None) is Network._deliver_multicast
        and _is_duplicate(network, args[i])
        for i in (pos - 1, pos)
    )


@pytest.mark.parametrize("channel, width", with_widths(_CHANNELS))
def test_a_snapshot_among_duplicates_restores_to_the_same_future(channel: str, width):
    """Pickle the flood at chunk boundaries that fall between two duplicate
    deliveries (the budget, too small for a run's duplicates to be counted,
    cut the span scan there): no snapshot holds a counted one, and each
    restores to the clean run's future."""
    clean = block_flood("heap", channel).run([(None, 10**6)])[-1]
    snapshots = []

    def snapshot(flood: BlockFlood) -> None:
        assert flood.sim._array_core._counted is None
        if _among_duplicates(flood):
            snapshots.append(pickle.dumps(flood))

    block_flood("array", channel, width=width).run([(None, 13)], on_chunk=snapshot)
    assert len(snapshots) >= 20
    for blob in snapshots[::3]:
        restored = pickle.loads(blob)
        assert _among_duplicates(restored)
        assert restored.run([(None, 10**6)])[-1] == clean


@WIDTHS
def test_snapshots_with_slots_in_flight_and_reused_restore_to_the_same_future(width):
    """Pickle the flood at every chunk boundary; the snapshots hold live
    envelope slots, and later ones come after slots were recycled and
    claimed again.  Each restores to the clean run's future."""
    steps = [(None, 29)]
    clean = block_flood("array", "lockstep", width=width).run(steps)[-1]
    assert clean == block_flood("heap", "lockstep").run(steps)[-1]
    snapshots = []

    def snapshot(flood: BlockFlood) -> None:
        network = flood.network
        blob = pickle.dumps(flood)
        live = sum(envelope is not None for envelope in network._envelopes)
        reused = len(network._envelopes) < flood.sim.events_processed // 17
        snapshots.append((blob, live, reused))

    block_flood("array", "lockstep", width=width).run(steps, on_chunk=snapshot)
    assert sum(live > 0 for _, live, _ in snapshots) >= 5
    assert sum(live > 0 and reused for _, live, reused in snapshots) >= 3
    for blob, _, _ in snapshots:
        restored = pickle.loads(blob)
        assert restored.network._skip_table == []  # rebuilt on first use
        assert restored.run([(None, 10**6)])[-1] == clean


# -- parked relays: a span's relays drawn once, against the heap core ----------
#
# While ``Network._deliver_span`` runs a multicast span, a block-sized relay
# whose channel floor puts every delivery past the span's last entry is
# parked: its slot, seqs and sent count are taken at once, its channel draw
# and queue insert at the flush that ends the span or precedes any other
# draw.  Each case drains one 18-replica block flood on both cores and
# compares the state after every chunk; the heap core has no spans, so it
# never parks.


def _parking_spies():
    """Count block-sized relays made in a span, parked relays (and those
    that cleared only the limit an overflow cut lowered), flushes (by the
    caller that forced them) and the overflow cuts that moved a span's stop
    with relays parked."""
    seen = Counter()
    first_limit = [0.0]
    park, flush, span_stop = Network._park, Network._flush_parked, Network._span_stop
    multicast = Network._multicast_trusted

    def park_spy(network, sender, receivers, kind, payload, now):
        seen["parked"] += 1
        # Cleared only because an overflow cut lowered the span's limit.
        seen["parked past a cut"] += now + network.channel.delay_floor(now) <= first_limit[0]
        return park(network, sender, receivers, kind, payload, now)

    def multicast_spy(network, sender, receivers, *args):
        in_span = network._park_limit is not None and len(receivers) >= 16
        seen["block relays in a span"] += in_span
        return multicast(network, sender, receivers, *args)

    def flush_spy(network):
        seen["flush by " + sys._getframe(1).f_code.co_name] += 1
        return flush(network)

    def span_stop_spy(network, times, seqs, lo, end, until):
        stop = span_stop(network, times, seqs, lo, end, until)
        if lo == sys._getframe(1).f_locals.get("pos"):
            first_limit[0] = times[stop - 1]  # the limit a span starts with
        else:
            seen["cut with relays parked"] += bool(network._parked) and stop < end
        return stop

    stack = ExitStack()
    for name, spy in (
        ("_park", park_spy),
        ("_flush_parked", flush_spy),
        ("_span_stop", span_stop_spy),
        ("_multicast_trusted", multicast_spy),
    ):
        stack.enter_context(mock.patch.object(Network, name, spy))
    return seen, stack


_ALL_AT_ONCE = [(None, 10**6)]
#: The horizons of ``_CUTS`` without its budgets: the runs count duplicates.
_HORIZONS = [(until, 10**6) for until, _ in _CUTS]
_SHORT_FLOOR_TIMERS = {(f"p{i}", "b"): partial(timer, f"p{i}", 0.02 * i) for i in range(1, 18, 2)}
_SIDE = [f"p{i}" for i in range(9)]

#: name -> (channel, steps, first-reception actions, does anything park)
_PARK_CASES = {
    "floor_clears_every_span": ("synchronous", _ALL_AT_ONCE, {}, True),
    "short_floor_parks_late_relays": ("short", _CUTS, _SHORT_FLOOR_TIMERS, True),
    "short_floor_parks_late_relays_between_horizons": (
        "short", _HORIZONS, _SHORT_FLOOR_TIMERS, True,
    ),
    "partial_parks_from_gst_on": ("partial", _CUTS, {}, True),
    "asynchronous_never_parks": ("asynchronous", _CUTS, {}, False),
    "lossy_never_parks": ("lossy", _CUTS, {}, False),
    "send_timer_and_multicast_in_a_first_delivery": (
        "synchronous",
        _ALL_AT_ONCE,
        {
            **{(f"p{i}", "a"): partial(ping, f"p{i}", "p0") for i in range(1, 18, 3)},
            **{(f"p{i}", "b"): partial(chirp, f"p{i}", ["p1", "p2"]) for i in range(2, 18, 3)},
            **{(f"p{i}", "c"): partial(shout, f"p{i}") for i in range(3, 18, 4)},
            ("p4", "a"): partial(timer, "p4", 0.01),
            ("p6", "c"): partial(timer, "p6", 0.6),
        },
        True,
    ),
    "partition_installed_and_healed_mid_span": (
        "synchronous",
        _ALL_AT_ONCE,
        {("p2", "a"): partial(partition, _SIDE), ("p5", "c"): heal},
        True,
    ),
    "until_budget_and_overflow_cuts": (
        "synchronous",
        _CUTS,
        {(f"p{i}", name): partial(timer, f"p{i}", 0.01 * i) for i in (2, 5, 11)
         for name in ("a", "b", "c")},
        True,
    ),
}


@pytest.mark.parametrize(
    "case, width", with_widths({case: _PARK_CASES[case][0] for case in sorted(_PARK_CASES)})
)
def test_parked_relays_match_the_heap_core(case: str, width):
    channel, steps, actions, parks = _PARK_CASES[case]
    seen, spies = _parking_spies()
    with spies:
        flood = assert_matches_heap(steps, channel=channel, actions=actions, width=width)
    assert (seen["parked"] > 0) == parks, seen
    assert not flood.network._parked
    # The case is only worth comparing if it reaches what it claims to.
    if case == "floor_clears_every_span":
        assert seen["parked"] == seen["block relays in a span"], seen
    if case == "short_floor_parks_late_relays":
        # A span the budget clips stops at the last event it can reach, and
        # under these budgets every relay's floor clears that limit.
        assert seen["parked"] == seen["block relays in a span"], seen
    if case == "short_floor_parks_late_relays_between_horizons":
        assert seen["parked"] < seen["block relays in a span"], seen  # early ones did not clear
        assert seen["parked past a cut"] > 0, seen
    if case == "send_timer_and_multicast_in_a_first_delivery":
        assert seen["flush by send"] >= 2 and seen["flush by _multicast_trusted"] >= 2, seen
    if case == "until_budget_and_overflow_cuts":
        assert seen["cut with relays parked"] >= 3, seen


def _drain_through_booms(flood: BlockFlood, steps) -> list:
    """Run ``steps``; a :class:`Boom` out of a callback ends a step early,
    the state is taken there and the same step goes on."""
    states = []
    for until, chunk in steps:
        while True:
            try:
                states.extend(flood.run([(until, chunk)]))
                break
            except Boom:
                states.append(flood.state() + ("boom",))
    return states


@WIDTHS
def test_a_raising_callback_mid_span_flushes_what_it_parked(width):
    """A first reception raises while the span has relays parked: the span's
    ``finally`` schedules them, and the drain goes on exactly like the heap
    core's after the same exception."""
    actions = {("p5", "a"): boom, ("p11", "b"): boom, ("p3", "c"): boom}
    seen, spies = _parking_spies()
    with spies:
        flood = block_flood("array", actions=actions, width=width)
        array = _drain_through_booms(flood, _CUTS)
    heap = _drain_through_booms(block_flood("heap", actions=actions), _CUTS)
    assert [state[-1] for state in array].count("boom") == 3
    # The raising delivery is consumed but not processed on both cores.
    assert array == heap
    assert seen["parked"] > 0 and not flood.network._parked
    assert_drained(flood.sim._array_core)


@WIDTHS
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_snapshots_at_random_boundaries_restore_to_the_same_future(seed: int, width):
    """Pickle the flood at seeded-random chunk boundaries: no snapshot can
    hold a parked relay, and each restores to the clean run's future."""
    rng = random.Random(seed)
    actions = {("p3", "a"): partial(timer, "p3", 0.01), ("p4", "b"): partial(ping, "p4", "p0")}
    clean = block_flood("heap", actions=actions).run(_ALL_AT_ONCE)[-1]
    snapshots = []

    def maybe_snapshot(flood: BlockFlood) -> None:
        if rng.random() < 0.4:
            snapshots.append(pickle.dumps(flood))

    flood = block_flood("array", actions=actions, width=width)
    steps = [(None, rng.randint(3, 40)) for _ in range(40)]
    flood.run(steps + _ALL_AT_ONCE, on_chunk=maybe_snapshot)
    assert len(snapshots) >= 10
    for blob in snapshots:
        assert pickle.loads(blob).run(_ALL_AT_ONCE)[-1] == clean


def test_a_network_with_relays_parked_refuses_to_pickle():
    flood = block_flood("array")
    flood.network._parked.append(("p0", ("p1",), 0.0, 0, 0, None))
    with pytest.raises(AssertionError, match="relays parked"):
        pickle.dumps(flood.network)
