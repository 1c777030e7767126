"""Unit tests for the array-native event calendar.

Covers the :class:`~repro.network.simulator.Simulator` surface under both
cores — scalar pushes, fan-outs, block scheduling, the
``until``/``max_events`` run contract — plus the array core's internals:
method-table interning and recycling and the overflow heap for pushes
into the active slot.  The protocol-level
byte-identity suite lives in ``test_core_equivalence.py``; here the
focus is the event-core API itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import UnknownVocabularyError
from repro.network.event_core import NO_ARG, ArrayEventCore
from repro.network.simulator import Simulator


def _trace_run(core: str, build) -> list:
    """Run ``build(sim, trace)`` under ``core`` and return the fired trace."""
    sim = Simulator(core=core)
    trace: list = []
    build(sim, trace)
    sim.run()
    return trace


def _both_cores_agree(build) -> list:
    array = _trace_run("array", build)
    heap = _trace_run("heap", build)
    assert array == heap
    return array


# -- construction ------------------------------------------------------------


def test_unknown_core_rejected():
    with pytest.raises(UnknownVocabularyError):
        Simulator(core="wheel")


def test_slot_width_must_be_positive():
    with pytest.raises(ValueError):
        ArrayEventCore(slot_width=0.0)
    with pytest.raises(ValueError):
        ArrayEventCore(slot_width=-1.0)


# -- scalar scheduling -------------------------------------------------------


@pytest.mark.parametrize("core", ("array", "heap"))
def test_scalar_api_matrix(core: str):
    sim = Simulator(core=core)
    trace = []
    sim.schedule(2.0, lambda: trace.append(("schedule", sim.now)))
    sim.schedule_at(1.0, lambda: trace.append(("schedule_at", sim.now)))
    sim.call_at(3.0, lambda arg: trace.append(("call_at", arg)), None)
    assert sim.pending == 3
    assert sim.run() == 3
    # call_at with a legitimate None argument still invokes method(None).
    assert trace == [("schedule_at", 1.0), ("schedule", 2.0), ("call_at", None)]
    assert sim.pending == 0


@pytest.mark.parametrize("core", ("array", "heap"))
def test_past_scheduling_rejected(core: str):
    sim = Simulator(core=core)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(ValueError):
        sim.schedule(-0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.call_at(0.5, lambda arg: None, "x")
    with pytest.raises(ValueError):
        sim.schedule_block([0.5], lambda arg: None, ["x"])


def test_same_time_ties_resolve_in_insertion_order():
    def build(sim, trace):
        for label in ("a", "b", "c", "d"):
            sim.call_at(5.0, trace.append, label)

    assert _both_cores_agree(build) == ["a", "b", "c", "d"]


# -- schedule_fanout / schedule_block ----------------------------------------


def test_schedule_fanout_skips_dropped_recipients():
    """``None`` delays are dropped and consume no sequence number, so the
    surviving entries tie-break identically across cores."""

    def build(sim, trace):
        sim.schedule_fanout(
            [1.0, None, 1.0, None], trace.append, ["r0", "r1", "r2", "r3"]
        )
        sim.call_at(1.0, trace.append, "after")

    assert _both_cores_agree(build) == ["r0", "r2", "after"]


def test_schedule_fanout_all_dropped():
    sim = Simulator(core="array")
    assert sim.schedule_fanout([None, None], lambda a: None, ["a", "b"]) == 0
    assert sim.pending == 0


def test_schedule_block_validates_before_inserting():
    """The array core rejects the whole block atomically."""
    sim = Simulator(core="array")
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_block([2.0, 0.5], lambda a: None, ["ok", "past"])
    assert sim.pending == 0


@pytest.mark.parametrize("core", ("array", "heap"))
def test_schedule_block_empty_block(core: str):
    sim = Simulator(core=core)
    assert sim.schedule_block([], lambda a: None, []) == 0
    assert sim.schedule_block(np.array([], dtype=np.float64), lambda a: None, []) == 0
    assert sim.pending == 0


def test_schedule_block_takes_numpy_times():
    def build(sim, trace):
        times = np.array([4.0, 1.5, 1.5, 9.25], dtype=np.float64)
        assert sim.schedule_block(times, trace.append, ["a", "b", "c", "d"]) == 4

    assert _both_cores_agree(build) == ["b", "c", "a", "d"]


def test_schedule_block_interleaves_with_scalar_pushes():
    def build(sim, trace):
        sim.call_at(1.5, trace.append, "scalar-before")
        sim.schedule_block(np.array([1.5, 2.5]), trace.append, ["blk0", "blk1"])
        sim.call_at(1.5, trace.append, "scalar-after")

    assert _both_cores_agree(build) == ["scalar-before", "blk0", "scalar-after", "blk1"]


def test_schedule_block_seq_parity_with_call_at():
    """A block tie-breaks exactly like the same entries pushed one by one."""

    def batched(sim, trace):
        sim.call_at(1.0, trace.append, "first")
        sim.schedule_block([1.0, 1.0], trace.append, ["m0", "m1"])
        sim.call_at(1.0, trace.append, "last")

    def scalar(sim, trace):
        sim.call_at(1.0, trace.append, "first")
        sim.call_at(1.0, trace.append, "m0")
        sim.call_at(1.0, trace.append, "m1")
        sim.call_at(1.0, trace.append, "last")

    for core in ("array", "heap"):
        assert _trace_run(core, batched) == _trace_run(core, scalar)
    assert _both_cores_agree(batched) == ["first", "m0", "m1", "last"]


def test_schedule_block_spanning_many_slots():
    """A block wider than one 0.25 time slot lands in many buckets but
    fires in global (time, seq) order regardless."""

    def build(sim, trace):
        times = [7.9, 0.1, 3.3, 3.3, 12.0, 0.1]
        sim.schedule_block(times, trace.append, [(t, i) for i, t in enumerate(times)])

    trace = _both_cores_agree(build)
    assert trace == [(0.1, 1), (0.1, 5), (3.3, 2), (3.3, 3), (7.9, 0), (12.0, 4)]


# -- run contract ------------------------------------------------------------


@pytest.mark.parametrize("core", ("array", "heap"))
def test_until_leaves_later_events_queued(core: str):
    sim = Simulator(core=core)
    trace = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.call_at(t, trace.append, t)
    # An event at exactly ``until`` is still processed.
    assert sim.run(until=2.0) == 2
    assert trace == [1.0, 2.0]
    assert sim.pending == 2
    assert sim.now == 2.0
    assert sim.run() == 2
    assert trace == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("core", ("array", "heap"))
def test_until_advances_clock_on_empty_queue(core: str):
    sim = Simulator(core=core)
    assert sim.run(until=7.5) == 0
    assert sim.now == 7.5


@pytest.mark.parametrize("core", ("array", "heap"))
def test_max_events_guards_runaway_protocols(core: str):
    sim = Simulator(core=core)

    def rearm() -> None:
        sim.schedule(1.0, rearm)

    sim.schedule(1.0, rearm)
    with pytest.raises(RuntimeError, match="did not quiesce"):
        sim.run(max_events=100)
    assert sim.events_processed == 100


def test_events_scheduled_into_active_slot_interleave_in_order():
    """Pushes landing in the slot currently being drained go through the
    overflow heap but still fire in exact (time, seq) order."""

    def build(sim, trace):
        def fires_first() -> None:
            trace.append("first")
            # Same virtual time, scheduled mid-drain: must run after the
            # already-queued "second" (its seq is larger).
            sim.call_at(sim.now, trace.append, "injected-now")
            sim.call_at(sim.now + 0.01, trace.append, "injected-soon")

        sim.schedule(1.0, fires_first)
        sim.call_at(1.0, trace.append, "second")
        sim.call_at(1.02, trace.append, "third")

    assert _both_cores_agree(build) == [
        "first",
        "second",
        "injected-now",
        "injected-soon",
        "third",
    ]


# -- randomized core parity --------------------------------------------------


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_randomized_mixed_workload_parity(seed: int):
    """A random mix of every insertion API fires identically under both
    cores, including re-entrant scheduling from inside callbacks."""

    def build(sim, trace):
        rng = np.random.default_rng(seed)

        def reentrant(tag) -> None:
            trace.append(tag)
            if rng.random() < 0.3:
                sim.call_at(
                    sim.now + float(rng.uniform(0.0, 2.0)), trace.append, (tag, "child")
                )

        for i in range(60):
            kind = int(rng.integers(0, 4))
            t = float(rng.uniform(0.0, 20.0))
            if kind == 0:
                sim.call_at(t, reentrant, ("call_at", i))
            elif kind == 1:
                for j, d in enumerate(rng.uniform(0.0, 5.0, size=3)):
                    sim.call_at(t + float(d), reentrant, ("many", i, j))
            elif kind == 2:
                times = t + rng.uniform(0.0, 5.0, size=4)
                sim.schedule_block(times, reentrant, [("block", i, j) for j in range(4)])
            else:
                delays = [
                    None if rng.random() < 0.25 else float(d)
                    for d in rng.uniform(0.0, 3.0, size=3)
                ]
                sim.schedule_fanout(delays, reentrant, [("fan", i, j) for j in range(3)])

    trace = _both_cores_agree(build)
    assert len(trace) > 100


# -- method-table interning --------------------------------------------------


def test_method_table_interns_shared_callbacks():
    core = ArrayEventCore()
    sink = []
    for t in (1.0, 1.1, 1.2):
        core.push(t, sink.append, "x")
    # One live table entry, refcounted three times.
    assert len(core._methods) == 1
    assert core._method_refs[0] == 3


def test_method_table_recycles_slots_across_drains():
    """One-shot closures cannot exhaust the method table: drained
    buckets release their methods and the slots are reused."""
    sim = Simulator(core="array")
    core = sim._array_core
    for round_no in range(6):
        for i in range(40):
            sim.schedule(0.1 + i * 0.001, lambda i=i: None)  # 40 distinct closures
        sim.run()
    # Without recycling the table would hold 240 entries by now.
    assert len(core._methods) <= 80
    assert not core._method_ids  # nothing live between runs


def test_method_table_exhaustion_raises():
    core = ArrayEventCore()
    core._methods = [None] * 32768  # simulate a full table
    core._method_refs = [1] * 32768
    with pytest.raises(RuntimeError, match="method-dispatch table exhausted"):
        core._intern_method(lambda: None, 1)


def test_no_arg_sentinel_identity():
    """Both cores dispatch no-argument callbacks on the same sentinel."""
    from repro.network import simulator as sim_mod

    assert sim_mod._NO_ARG is NO_ARG
