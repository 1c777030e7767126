"""Array vs. heap event core: recorded histories are identical.

The PR 6 acceptance bar, mirroring the PR 4 message-plane oracle one
directory over: on randomized fork-, drop- and fault-heavy protocol
runs, ``run_protocol(core="array")`` (the calendar-queue of numpy
buckets with interned method dispatch) and ``run_protocol(core="heap")``
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
from repro.core.history import HistoryRecorder
from repro.network.channels import (
    AsynchronousChannel,
    LossyChannel,
    PartiallySynchronousChannel,
    SynchronousChannel,
)
from repro.network.event_core import ArrayEventCore
from repro.network.faults import available_faults
from repro.network.simulator import Network
from repro.protocols.base import BlockchainReplica
from tests.network.column_script import ListSink, Script, play
from tests.network.flood_script import (
    BlockFlood,
    Boom,
    Flood,
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
    shout,
    timer,
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
@pytest.mark.parametrize("fault_kind", sorted(available_faults()))
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


@pytest.mark.parametrize("fault_kind", sorted(available_faults()))
def test_live_vs_reference_plane_for_every_fault_kind(fault_kind: str):
    """Membership churn and partitions exercise the dup-skip guards."""
    live = _run("lossy", seed=13, core="array", faulty=False, fault=_fault(fault_kind))
    oracle = _run(
        "lossy", seed=13, core="heap", faulty=False,
        fault=_fault(fault_kind), reference=True,
    )
    assert live.history.events == oracle.history.events
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
#: duplicate stretches are read against.
_FAST_PATHS = {
    "deliver_span": (Network, "_deliver_span"),
    "record_replication": (HistoryRecorder, "_replication"),
    "tree_append_index": (_TreeColumns, "append"),
    "dup_skip_table": (Network, "_refresh_skip_table"),
}


def test_reference_plane_runs_none_of_the_fast_paths():
    """The oracle is independent of what it checks: with every fast path
    raising, the oracle leg still runs to completion and records the
    history it records without the patches."""
    expected = _run("lossy", seed=9, core="heap", faulty=False, reference=True)
    with ExitStack() as stack:
        for target, name in (
            *_FAST_PATHS.values(),
            (BlockchainReplica, "batch_dup_seen"),
        ):
            stack.enter_context(mock.patch.object(target, name, _trip))
        oracle = _run("lossy", seed=9, core="heap", faulty=False, reference=True)
    assert oracle.history.events == expected.history.events
    assert len(oracle.history.append_invocations()) > 0


@pytest.mark.parametrize("fast_path", sorted(_FAST_PATHS))
def test_live_plane_runs_every_fast_path(fast_path: str):
    """...and the patches are live wires: the same scenario on the live
    plane reaches each of them."""
    target, name = _FAST_PATHS[fast_path]
    with mock.patch.object(target, name, _trip), pytest.raises(_Tripped):
        _run("lossy", seed=9, core="array", faulty=False)


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


def test_column_run_survives_a_snapshot_mid_segment():
    """Pickle the whole script at every chunk boundary (budget 3 splits
    every segment), restore each snapshot and finish it: same final state."""
    ops, _ = _COLUMN_CASES["interleaved_blocks_one_sink"]
    clean = Script("array").apply(ops).run([(None, 100)])[-1]
    snapshots = []
    Script("array").apply(ops).run(
        [(None, 3)], on_chunk=lambda script: snapshots.append(pickle.dumps(script))
    )
    assert len(snapshots) >= 4
    partly_taken = 0
    for blob in snapshots:
        restored = pickle.loads(blob)
        columns = restored.sim._array_core._columns
        partly_taken += columns is not None and 0 < columns.pos < len(columns.times)
        assert restored.run([(None, 100)])[-1] == clean
    assert partly_taken >= 2


class _CountingSink(ListSink):
    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def append(self, value: int) -> None:
        self.calls.append("append")
        super().append(value)

    def extend_column(self, column) -> None:
        self.calls.append(len(column))
        super().extend_column(column)


def test_segments_reach_the_sink_as_columns():
    """The point of the column route: one ``extend_column`` per sink and
    segment, where the heap oracle calls ``append`` per event."""
    calls = {}
    for core in ("array", "heap"):
        script = Script(core, sinks=1)
        script.sinks[0] = sink = _CountingSink()
        script.apply([("column", 0, _ONE_SLOT, [1, 2, 3, 4, 5, 6, 7]), ("scalar", 0.12, "cut")])
        script.sim.run()
        calls[core] = sink.calls
        assert sink.items == [1, 2, 3, 4, 5, 6, 7]
    assert calls["array"] == [2, 5]
    assert calls["heap"] == ["append"] * 7


class _RaisingSink(ListSink):
    """Breaks the sink contract once: the first ``extend_column`` raises."""

    def __init__(self) -> None:
        super().__init__()
        self.armed = True

    def extend_column(self, column) -> None:
        if self.armed:
            self.armed = False
            raise RuntimeError("sink broke its contract")
        super().extend_column(column)


def test_a_raising_sink_leaves_the_accounting_exact():
    """The step's range is consumed before any sink is called, so an
    exception out of one neither drifts ``pending`` nor lets a resumed
    drain deliver a value twice."""
    script = Script("array", sinks=3)
    script.sinks[1] = _RaisingSink()
    script.apply([
        ("column", 0, _ONE_SLOT, [1, 2, 3, 4, 5, 6, 7]),
        ("column", 1, [0.03, 0.11, 0.21], [8, 9, 10]),
        ("column", 2, [0.04, 0.12, 0.22], [11, 12, 13]),
        ("scalar", 0.15, "cut"),
    ])
    sim = script.sim
    with pytest.raises(RuntimeError, match="broke its contract"):
        sim.run()
    # The first segment (everything before the scalar at 0.15) is gone.
    assert sim.events_processed == 8 and sim.pending == 6
    assert sim.now == 0.125
    sim.run()
    assert sim.events_processed == 14 and sim.pending == 0
    delivered = [value for sink in script.sinks for value in sink.items]
    assert len(delivered) == len(set(delivered))
    assert script.sinks[0].items == [1, 2, 3, 4, 5, 6, 7]
    assert script.sinks[1].items == [10]  # 8 and 9 went down with the exception
    assert script.log == [(0.15, "cut", (4, 0, 0))]


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


# -- the fan-out log: a run's relays are bucketed once -------------------------
#
# A fan-out block lying wholly beyond the slot being drained is not cut
# into buckets when it is inserted: it waits in ``_fanout_log`` and is
# split with everything else logged until the next run starts or a
# snapshot is taken.  Each case below drains one 18-process relay flood
# (``flood_script.Flood``: every relay is a 17-entry block) on both cores
# and compares, after every chunk, the delivery log, ``sim.now``,
# ``events_processed``, ``pending`` and the message counters.

_RUMORS = [(0.0, "p0", "a"), (0.125, "p7", "b"), (1.25, "p3", "c")]


def _flood(core: str, channel: str, audits: bool = False) -> Flood:
    if channel == "synchronous":
        # Every delay exceeds a slot (0.25): relays lie wholly beyond it.
        model = SynchronousChannel(delta=1.5, min_delay=0.5, seed=4)
    elif channel == "lockstep":
        # Every delay is exactly 0.5: each wave of deliveries is one
        # timestamp, ordered by nothing but the sequence numbers.
        model = SynchronousChannel(delta=0.5, min_delay=0.5, seed=4)
    else:
        # Most relays have an entry shorter than what is left of the slot,
        # a few have none.
        model = AsynchronousChannel(mean_delay=3.0, tail_probability=0.1, seed=4)
    return Flood(core, model, audits=audits).start(_RUMORS)


_FLOOD_CASES = {
    # (i) `until` and the chunk budget both stop a drain mid-flood.
    "until_and_budget_cut_the_flood": (
        "synchronous", False, [(0.6, 7), (0.9, 1000), (1.45, 13), (None, 50)],
    ),
    # (iii) part of a relay lands in the slot being drained (overflow
    # heap, entry by entry), the rest beyond it.
    "block_straddles_the_active_slot": ("asynchronous", False, [(0.5, 40), (None, 23)]),
    # Seventeen relays and their audit rows logged at one instant and due
    # at one instant: the seqs a flush rebuilds are all that orders them.
    "lockstep_ties_are_broken_by_seq": ("lockstep", True, [(None, 29)]),
    # (iv) relays and audit rows — two shared methods — wait side by side.
    "two_methods_share_one_flush": ("synchronous", True, [(1.0, 25), (None, 60)]),
}


def _assert_every_method_released(core: ArrayEventCore) -> None:
    assert core._method_ids == {}
    assert not any(core._method_refs)
    assert sorted(core._method_free) == list(range(len(core._methods)))


@pytest.mark.parametrize("case", sorted(_FLOOD_CASES))
def test_logged_relays_match_the_heap_core(case: str):
    channel, audits, steps = _FLOOD_CASES[case]
    waiting = []  # (blocks, methods) in the log at every chunk boundary
    shares = []  # (overflow prefix, block length) of every split
    bucket_shares = ArrayEventCore._bucket_shares

    def spy(core, slots):
        start, edges = bucket_shares(core, slots)
        shares.append((start, len(slots)))
        return start, edges

    def look(flood: Flood) -> None:
        waiting.append((flood.logged_blocks(), len(flood.sim._array_core._fanout_log)))

    flood = _flood("array", channel, audits)
    with mock.patch.object(ArrayEventCore, "_bucket_shares", spy):
        array = flood.run(steps, on_chunk=look)
    heap = _flood("heap", channel, audits).run(steps)
    assert array == heap
    log, _now, processed, pending, sent, delivered = array[-1]
    assert pending == 0
    assert sent == delivered == 3 * (18 + 18 * 17)
    assert processed == len(log) + len(_RUMORS)
    _assert_every_method_released(flood.sim._array_core)
    # The case is only worth comparing if it cuts where it claims to.
    assert sum(blocks > 0 for blocks, _ in waiting) >= 3
    if case == "block_straddles_the_active_slot":
        assert sum(0 < start < total for start, total in shares) >= 10
        assert any(start == 0 and total > 17 for start, total in shares)  # a merged flush
    else:
        # Nothing but the originators' own copies ever met the active slot.
        assert sum(start > 0 for start, _ in shares) == len(_RUMORS)
    if audits:
        assert any(methods == 2 for _, methods in waiting)


def test_flood_survives_a_snapshot_with_relays_still_logged():
    """(ii) Pickle the whole flood at chunk boundaries where relays are
    logged but not yet bucketed; a snapshot holds no log, restores to
    the same future, and taking it does not disturb the run it is of."""
    clean = _flood("array", "synchronous", audits=True).run([(None, 10**6)])[-1]
    snapshots = []

    def snapshot(flood: Flood) -> None:
        if flood.logged_blocks():
            snapshots.append(pickle.dumps(flood))
            assert flood.logged_blocks() == 0  # flushed, not dropped: see below

    steps = [(0.7, 37), (1.45, 53), (None, 71)]
    captured = _flood("array", "synchronous", audits=True).run(steps, on_chunk=snapshot)
    assert captured[-1] == clean
    assert len(snapshots) >= 6
    for blob in random.Random(24).sample(snapshots, 4):
        restored = pickle.loads(blob)
        assert restored.logged_blocks() == 0
        assert restored.run([(None, 10**6)])[-1] == clean
        _assert_every_method_released(restored.sim._array_core)


# -- duplicate stretches: the span skip against the heap core -----------------
#
# ``Network._deliver_span`` accounts a stretch of duplicate announcements
# in one step, reading a receiver-index -> seen-set table that only a
# network epoch keeps honest.  Each case below drains one 18-replica
# block flood (``flood_script.BlockFlood``) on both cores and compares,
# after every chunk, the recorded history, ``sim.now``,
# ``events_processed``, ``pending`` and the four message counters.

_BLOCKS = [(0.0, "p0", "a", None), (0.3, "p9", "b", None), (1.25, "p4", "c", None)]


def _block_flood(core: str, channel: str = "synchronous", **kwargs) -> BlockFlood:
    if channel == "synchronous":
        model = SynchronousChannel(delta=1.5, min_delay=0.5, seed=4)
    elif channel == "lockstep":  # every delay is 0.5, so only seqs order a wave
        model = SynchronousChannel(delta=0.5, min_delay=0.5, seed=4)
    elif channel == "short":  # a floor of 0.1: only a span's late relays clear it
        model = SynchronousChannel(delta=0.6, min_delay=0.1, seed=4)
    elif channel == "partial":  # no floor before GST, then the synchronous 0.1
        model = PartiallySynchronousChannel(gst=1.0, delta=0.6, pre_gst_mean=0.5, seed=4)
    elif channel == "lossy":  # drops: no floor promise
        model = LossyChannel(SynchronousChannel(delta=1.5, min_delay=0.5, seed=4), 0.2, seed=5)
    else:  # many relays land in the slot being drained
        model = AsynchronousChannel(mean_delay=1.0, tail_probability=0.1, seed=4)
    origins = kwargs.pop("origins", _BLOCKS)
    return BlockFlood(core, model, **kwargs).start(origins)


def _is_duplicate(network: Network, code: int) -> bool:
    return network._envelope_blocks[code >> 16] in network._skip_table[code & 0xFFFF]


def _assert_flood_matches_heap(steps, **kwargs) -> BlockFlood:
    flood = _block_flood("array", **kwargs)
    array = flood.run(steps)
    heap = _block_flood("heap", **kwargs).run(steps)
    assert array == heap
    assert array[-1][3] == 0  # pending
    _assert_every_method_released(flood.sim._array_core)
    return flood


def _mid_span_refreshes(pids):
    """Spy on the skip table: for each rebuild made *inside* a multicast
    span (after a dispatch, ``k > pos``), whether the rest of the span
    still holds deliveries to any of ``pids``."""
    seen = []
    refresh = Network._refresh_skip_table

    def spy(network):
        refresh(network)
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_deliver_span":
            frame = caller.f_locals
            if frame.get("k", frame["pos"]) > frame["pos"]:
                wanted = {network._receiver_index[pid] for pid in pids}
                rest = frame["args"][frame["k"] : frame["end"]]
                seen.append(any(code & 0xFFFF in wanted for code in rest))

    return seen, mock.patch.object(Network, "_refresh_skip_table", spy)


def test_crash_and_deregister_in_mid_span_match_the_heap_core():
    """A first reception crashes one peer and deregisters another while
    the span still holds deliveries to them: the rest of the span must
    see one dead (dropped) and one departed (quarantined) receiver."""
    actions = {("p2", "b"): partial(crash, "p5"), ("p3", "b"): partial(deregister, "p6")}
    seen, patch = _mid_span_refreshes(["p5", "p6"])
    with patch:
        flood = _assert_flood_matches_heap([(None, 10**6)], actions=actions)
    network = flood.network
    assert not flood.replicas["p5"].alive and "p6" not in network.process_ids
    assert network.messages_quarantined > 0
    assert seen.count(True) == 2  # both actions ran inside a span that went on to them


def test_churn_rejoin_in_mid_span_matches_the_heap_core():
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
        flood = _assert_flood_matches_heap(
            [(0.8, 41), (1.6, 1000), (None, 97)], actions=actions
        )
    assert True in seen
    network = flood.network
    for pid in ("p6", "p7"):
        replica = flood.replicas[pid]
        assert replica.alive and pid in network.process_ids
        assert network._skip_table[network._receiver_index[pid]] is replica.transport._delivered
        assert len(replica.tree) == 4  # caught up on blocks first heard after coming back
    assert network.messages_quarantined > 0


@pytest.mark.parametrize("channel", ("synchronous", "asynchronous"))
def test_cuts_inside_a_duplicate_stretch_match_the_heap_core(channel: str):
    """``until``, the chunk budget and — over short asynchronous delays,
    whose relays land in the slot being drained — the overflow head each
    stop a span between two duplicates."""
    cuts = []
    deliver_span = Network._deliver_span

    def spy(network, times, seqs, args, pos, end, until, cell):
        consumed = deliver_span(network, times, seqs, args, pos, end, until, cell)
        k = pos + consumed
        if k < len(args) and type(args[k]) is int:
            if _is_duplicate(network, args[k - 1]) and _is_duplicate(network, args[k]):
                if until is not None and times[k] > until:
                    cuts.append("until")
                else:
                    cuts.append("budget" if k == end else "overflow")
        return consumed

    steps = [(0.9, 37), (1.3, 1000), (1.77, 23), (2.6, 1000), (None, 61)]
    with mock.patch.object(Network, "_deliver_span", spy):
        _assert_flood_matches_heap(steps, channel=channel)
    assert cuts.count("until") >= 2 and cuts.count("budget") >= 5
    if channel == "asynchronous":
        assert cuts.count("overflow") >= 5


def test_snapshots_with_slots_in_flight_and_reused_restore_to_the_same_future():
    """Pickle the flood at every chunk boundary; the snapshots hold live
    envelope slots, and later ones come after slots were recycled and
    claimed again.  Each restores to the clean run's future."""
    steps = [(None, 29)]
    clean = _block_flood("array", "lockstep").run(steps)[-1]
    assert clean == _block_flood("heap", "lockstep").run(steps)[-1]
    snapshots = []

    def snapshot(flood: BlockFlood) -> None:
        network = flood.network
        blob = pickle.dumps(flood)
        live = sum(envelope is not None for envelope in network._envelopes)
        reused = len(network._envelopes) < flood.sim.events_processed // 17
        snapshots.append((blob, live, reused))

    _block_flood("array", "lockstep").run(steps, on_chunk=snapshot)
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
_CUTS = [(0.9, 37), (1.3, 1000), (1.77, 23), (2.6, 1000), (None, 61)]
_SIDE = [f"p{i}" for i in range(9)]

#: name -> (channel, steps, first-reception actions, does anything park)
_PARK_CASES = {
    "floor_clears_every_span": ("synchronous", _ALL_AT_ONCE, {}, True),
    "short_floor_parks_late_relays": (
        "short",
        _CUTS,
        {(f"p{i}", "b"): partial(timer, f"p{i}", 0.02 * i) for i in range(1, 18, 2)},
        True,
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


@pytest.mark.parametrize("case", sorted(_PARK_CASES))
def test_parked_relays_match_the_heap_core(case: str):
    channel, steps, actions, parks = _PARK_CASES[case]
    seen, spies = _parking_spies()
    with spies:
        flood = _assert_flood_matches_heap(steps, channel=channel, actions=actions)
    assert (seen["parked"] > 0) == parks, seen
    assert not flood.network._parked
    # The case is only worth comparing if it reaches what it claims to.
    if case == "floor_clears_every_span":
        assert seen["parked"] == seen["block relays in a span"], seen
    if case == "short_floor_parks_late_relays":
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


def test_a_raising_callback_mid_span_flushes_what_it_parked():
    """A first reception raises while the span has relays parked: the span's
    ``finally`` schedules them, and the drain goes on exactly like the heap
    core's after the same exception."""
    actions = {("p5", "a"): boom, ("p11", "b"): boom, ("p3", "c"): boom}
    seen, spies = _parking_spies()
    with spies:
        flood = _block_flood("array", actions=actions)
        array = _drain_through_booms(flood, _CUTS)
    heap = _drain_through_booms(_block_flood("heap", actions=actions), _CUTS)
    assert [state[-1] for state in array].count("boom") == 3
    # A span counts the raising delivery as processed, the heap loop does
    # not (``events_processed``, index 2): that count aside, the two runs
    # agree after every step.
    assert [state[:2] + state[3:] for state in array] == [
        state[:2] + state[3:] for state in heap
    ]
    assert array[-1][2] == heap[-1][2] + 3
    assert seen["parked"] > 0 and not flood.network._parked
    _assert_every_method_released(flood.sim._array_core)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_snapshots_at_random_boundaries_restore_to_the_same_future(seed: int):
    """Pickle the flood at seeded-random chunk boundaries: no snapshot can
    hold a parked relay, and each restores to the clean run's future."""
    rng = random.Random(seed)
    actions = {("p3", "a"): partial(timer, "p3", 0.01), ("p4", "b"): partial(ping, "p4", "p0")}
    clean = _block_flood("heap", actions=actions).run(_ALL_AT_ONCE)[-1]
    snapshots = []

    def maybe_snapshot(flood: BlockFlood) -> None:
        if rng.random() < 0.4:
            snapshots.append(pickle.dumps(flood))

    flood = _block_flood("array", actions=actions)
    steps = [(None, rng.randint(3, 40)) for _ in range(40)]
    flood.run(steps + _ALL_AT_ONCE, on_chunk=maybe_snapshot)
    assert len(snapshots) >= 10
    for blob in snapshots:
        assert pickle.loads(blob).run(_ALL_AT_ONCE)[-1] == clean


def test_a_network_with_relays_parked_refuses_to_pickle():
    flood = _block_flood("array")
    flood.network._parked.append(("p0", ("p1",), 0.0, 0, 0, None))
    with pytest.raises(AssertionError, match="relays parked"):
        pickle.dumps(flood.network)
