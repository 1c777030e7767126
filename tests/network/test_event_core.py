"""Unit tests for the array-native event calendar.

Covers the :class:`~repro.network.simulator.Simulator` surface under both
cores — scalar pushes, fan-outs, block scheduling, the
``until``/``max_events`` run contract — plus the array core's internals:
one object per callable in a materialized run, and the overflow heap for
pushes into the active slot.  The protocol-level
byte-identity suite lives in ``test_core_equivalence.py``; here the
focus is the event-core API itself.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core.errors import UnknownVocabularyError
from repro.network.channels import SynchronousChannel
from repro.network.event_core import NO_ARG, ArrayEventCore
from repro.network.process import Process
from repro.network.simulator import Network, Simulator
from repro.protocols import run_bitcoin
from repro.protocols.base import Mempool
from tests.network.fork_heavy_run import TargetedLossChannel


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


@pytest.mark.parametrize("width", (0.0, -1.0, float("inf"), float("nan")))
def test_slot_width_must_be_positive_and_finite(width: float):
    with pytest.raises(ValueError):
        ArrayEventCore(slot_width=width)


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


@pytest.mark.parametrize("core", ("array", "heap"))
@pytest.mark.parametrize("bad", (float("nan"), float("inf"), float("-inf")), ids=str)
def test_non_finite_times_rejected(core: str, bad: float):
    """Every entry point refuses a NaN or infinite time or delay with one
    ``ValueError`` and inserts nothing, on both cores."""
    sim = Simulator(core=core)
    attempts = (
        lambda: sim.schedule(bad, lambda: None),
        lambda: sim.schedule_at(bad, lambda: None),
        lambda: sim.call_at(bad, lambda arg: None, "x"),
        lambda: sim.schedule_block([2.0, bad, 1.0], lambda arg: None, ["a", "b", "c"]),
        lambda: sim.schedule_block(np.array([bad, 2.0]), lambda arg: None, ["a", "b"]),
        lambda: sim.schedule_column([2.0, bad], [1, 2], Mempool()),
        lambda: sim.schedule_column(np.array([bad]), [1], Mempool()),
    )
    for attempt in attempts:
        with pytest.raises(ValueError, match="must be finite" if bad > 0 or bad != bad else "past"):
            attempt()
    assert sim.pending == 0
    # What is left runs normally: a NaN let into the array core's calendar
    # would head it and stall every later event.
    fired = []
    sim.schedule(3.0, lambda: fired.append(sim.now))
    assert sim.run(until=10.0) == 1
    assert fired == [3.0] and sim.pending == 0


@pytest.mark.parametrize("core", ("array", "heap"))
def test_run_refuses_a_nan_horizon(core: str):
    """A NaN ``until`` would compare as no horizon at all and drain every
    queued event; it is refused, and the queue is left as it was."""
    sim = Simulator(core=core)
    sim.schedule(1.0, lambda: None)
    with pytest.raises(ValueError, match="until must be a time or None, got nan"):
        sim.run(until=float("nan"))
    assert sim.pending == 1 and sim.now == 0.0
    assert sim.run(until=2.0) == 1


@pytest.mark.parametrize("core", ("array", "heap"))
@pytest.mark.parametrize("duration", (float("nan"), float("inf"), -5.0), ids=str)
def test_run_protocol_refuses_a_duration_that_is_not_finite_and_non_negative(core, duration):
    """Refused by name before anything is built: a NaN or infinite duration
    used to run until the event budget gave out, a negative one returned an
    eight-event run."""
    with pytest.raises(ValueError, match=f"duration must be >= 0 and finite, got {duration!r}"):
        run_bitcoin(4, duration=duration, token_rate=0.4, max_events=50_000, core=core)


def test_same_time_ties_resolve_in_insertion_order():
    def build(sim, trace):
        for label in ("a", "b", "c", "d"):
            sim.call_at(5.0, trace.append, label)

    assert _both_cores_agree(build) == ["a", "b", "c", "d"]


# -- multicast / schedule_block ----------------------------------------------


class Relay(Process):
    """Hands each delivery's payload and its own pid to ``react``."""

    def __init__(self, pid: str, react) -> None:
        super().__init__(pid)
        self.react = react

    def on_message(self, message) -> None:
        self.react(message.payload, self.pid)


def test_a_multicasts_dropped_receivers_take_no_sequence_number():
    """The receivers a :class:`TargetedLossChannel` drops take no sequence
    number, so the survivors and a later push tie-break identically across
    cores."""

    def build(sim, trace):
        channel = TargetedLossChannel(
            SynchronousChannel(delta=1.0, min_delay=1.0),
            lambda sender, receiver, now: receiver in ("r1", "r3"),
        )
        network = Network(sim, channel)
        for pid in ("s", "r0", "r1", "r2", "r3"):
            network.register(Relay(pid, lambda payload, pid: trace.append(pid)))
        assert network.multicast("s", ["r0", "r1", "r2", "r3"], "data", None) == 2
        sim.call_at(1.0, trace.append, "after")

    assert _both_cores_agree(build) == ["r0", "r2", "after"]


@pytest.mark.parametrize("core", ("array", "heap"))
@pytest.mark.parametrize(
    "times, args, refusal",
    [
        ([2.0, 0.5], ["ok", "past"], "into the past"),
        ([2.0 + i for i in range(20)], list(range(18)), "same length"),
        ([2.0 + i for i in range(18)], list(range(20)), "same length"),
        ([2.0, float("nan"), 3.0], ["a", "b", "c"], "finite"),
        ([2.0, 3.0, float("inf")], ["a", "b", "c"], "finite"),
        (np.array([2.0, float("nan"), 3.0]), ["a", "b", "c"], "finite"),
        (np.array([2.0, 0.5, 3.0]), ["a", "b", "c"], "into the past"),
    ],
    ids=["past-time", "short-args", "long-args", "list-nan", "list-inf", "array-nan", "array-past"],
)
def test_schedule_block_validates_before_inserting(core, times, args, refusal):
    """Both cores reject the whole block atomically."""
    sim = Simulator(core=core)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match=refusal):
        sim.schedule_block(times, lambda a: None, args)
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

        # A multicast takes its delays from the channel and drops each
        # receiver with probability 1/4, drawn from the script's generator.
        channel = TargetedLossChannel(
            SynchronousChannel(delta=3.0, min_delay=0.0, seed=seed),
            lambda sender, receiver, now: rng.random() < 0.25,
        )
        network = Network(sim, channel)
        network.register(Process("s"))
        fans = [f"f{j}" for j in range(3)]
        for pid in fans:
            network.register(Relay(pid, lambda i, pid: reentrant(("fan", i, pid))))
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
                network.multicast("s", fans, "fan", i)

    trace = _both_cores_agree(build)
    assert len(trace) > 100


# -- one object per callable in a run -----------------------------------------


@pytest.mark.parametrize("receivers", (3, 20), ids=("tuple-merge", "numpy-merge"))
def test_equal_bound_methods_in_one_bucket_form_one_span(receivers: int):
    """Two multicasts schedule two equal but distinct ``_deliver_multicast``
    bound methods into one bucket (every delay is 0.5).  Materializing it
    collapses them to one object, so the drain hands all their deliveries
    to one ``_deliver_span`` call — on both merge paths (at most 32
    entries, and more)."""
    spans = []
    deliver_span = Network._deliver_span

    def spy(network, times, seqs, args, pos, end, *rest):
        spans.append((pos, end))
        return deliver_span(network, times, seqs, args, pos, end, *rest)

    with mock.patch.object(Network, "_deliver_span", spy):
        sim = Simulator(core="array")
        network = Network(sim, SynchronousChannel(delta=0.5, min_delay=0.5, seed=1))
        pids = [f"p{index}" for index in range(receivers + 2)]
        for pid in pids:
            network.register(Process(pid))
        assert network._deliver_multicast is not network._deliver_multicast
        for sender in ("p0", "p1"):
            network.multicast(sender, pids[2:], "ping", sender)
        sim.run()
    assert spans == [(0, 2 * receivers)]
    assert network.messages_delivered == sim.events_processed == 2 * receivers


def test_no_arg_sentinel_identity():
    """Both cores dispatch no-argument callbacks on the same sentinel."""
    from repro.network import simulator as sim_mod

    assert sim_mod._NO_ARG is NO_ARG
