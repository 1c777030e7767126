"""Stream-equivalence tests for the batched channel sampling.

The batched message plane is only allowed to exist because
``delays_for(sender, receivers, now)`` is *bit-identical* to the sequence
of scalar ``delay_for`` calls it replaces: same values, same generator
state afterwards.  These tests pin that property for all five channel
models against :func:`_scalar_delays_for` below (the pre-batching scalar
loop, one ``delay_for`` per receiver in receiver order), across seeds,
mixed self/remote fan-outs, and the GST boundary of the partially
synchronous model — and hold ``batched_delays_many``, the one draw that
flushes a span's parked relays, to ``delays_for`` on each fan-out in turn.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.channels import (
    AsynchronousChannel,
    LossyChannel,
    PartiallySynchronousChannel,
    SynchronousChannel,
    TargetedLossChannel,
    batched_delays,
    batched_delays_many,
)


def _scalar_delays_for(channel, sender, receivers, now):
    """The oracle: what ``Network.broadcast`` drew before batching existed."""
    return [channel.delay_for(sender, receiver, now) for receiver in receivers]


SEEDS = (0, 1, 7, 23, 101)

#: Fan-outs mixing remote receivers, the sender itself, and duplicates.
RECEIVER_LISTS = (
    ["b", "c", "d"],
    ["a", "b", "c", "a", "d"],
    ["a"],
    ["b"] * 6,
    [],
    [f"p{i}" for i in range(25)],
)


def _factories(seed: int):
    return {
        "synchronous": lambda: SynchronousChannel(delta=2.0, min_delay=0.3, seed=seed),
        "asynchronous": lambda: AsynchronousChannel(
            mean_delay=1.5, tail_probability=0.3, tail_factor=10.0, seed=seed
        ),
        "partial": lambda: PartiallySynchronousChannel(
            gst=50.0, delta=1.0, pre_gst_mean=4.0, seed=seed
        ),
        "lossy": lambda: LossyChannel(
            SynchronousChannel(delta=1.0, seed=seed), 0.4, seed=seed + 13
        ),
        "targeted": lambda: TargetedLossChannel(
            SynchronousChannel(delta=1.0, seed=seed),
            drop_if=lambda s, r, t: r.endswith("3") or r == "c",
        ),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", sorted(_factories(0)))
def test_batched_equals_scalar_stream(model: str, seed: int):
    """delays_for == the scalar loop, and the streams stay aligned after."""
    make = _factories(seed)[model]
    batched_channel, scalar_channel = make(), make()
    for now in (0.0, 10.0, 49.9, 50.0, 120.0):
        for receivers in RECEIVER_LISTS:
            batch = batched_channel.delays_for("a", receivers, now)
            scalar = _scalar_delays_for(scalar_channel, "a", receivers, now)
            assert batch == scalar, (model, seed, now, receivers)
    # Generator state must match too: the next scalar draws agree.
    for _ in range(5):
        assert batched_channel.delay_for("a", "z", 60.0) == scalar_channel.delay_for(
            "a", "z", 60.0
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_partial_synchrony_gst_boundary(seed: int):
    """Batches straddle nothing: a multicast is entirely pre- or post-GST."""
    gst = 50.0
    batched_channel, scalar_channel = (
        PartiallySynchronousChannel(gst=gst, delta=1.0, pre_gst_mean=5.0, seed=seed)
        for _ in range(2)
    )
    receivers = [f"p{i}" for i in range(12)]
    for now in (gst - 1e-9, gst, gst + 1e-9):
        batch = batched_channel.delays_for("a", receivers, now)
        scalar = _scalar_delays_for(scalar_channel, "a", receivers, now)
        assert batch == scalar
    # At/after GST every delay honours the synchronous bound.
    post = batched_channel.delays_for("a", receivers, gst)
    assert all(d is not None and d <= 1.0 for d in post)
    # Before GST the asynchronous model is in charge: same draw count, no bound check.
    pre = batched_channel.delays_for("a", receivers, gst - 1e-9)
    assert len(pre) == len(receivers)


@pytest.mark.parametrize("seed", SEEDS)
def test_lossy_drop_accounting_matches_scalar(seed: int):
    batched_channel, scalar_channel = (
        LossyChannel(SynchronousChannel(delta=1.0, seed=seed), 0.5, seed=seed) for _ in range(2)
    )
    receivers = [f"p{i}" for i in range(40)] + ["a"]
    batch = batched_channel.delays_for("a", receivers, 0.0)
    scalar = _scalar_delays_for(scalar_channel, "a", receivers, 0.0)
    assert batch == scalar
    assert batched_channel.dropped == scalar_channel.dropped > 0
    # Self-addressed messages never drop.
    assert batch[-1] == 0.0


def test_targeted_drop_counter_and_self_exemption():
    channel = TargetedLossChannel(
        SynchronousChannel(seed=1), drop_if=lambda s, r, t: True
    )
    delays = channel.delays_for("a", ["a", "b", "c"], 0.0)
    assert delays[0] == 0.0 and delays[1] is None and delays[2] is None
    assert channel.dropped == 2


def test_interleaved_batched_and_scalar_calls_stay_aligned():
    """Mixing batch and scalar calls on one channel matches an all-scalar twin."""
    a = SynchronousChannel(delta=2.0, seed=9)
    b = SynchronousChannel(delta=2.0, seed=9)
    trace_a = []
    trace_a.extend(a.delays_for("s", ["p0", "p1", "p2"], 0.0))
    trace_a.append(a.delay_for("s", "p3", 0.0))
    trace_a.extend(a.delays_for("s", ["p4", "s", "p5"], 1.0))
    trace_b = [b.delay_for("s", p, 0.0) for p in ("p0", "p1", "p2", "p3")]
    trace_b.extend(b.delay_for("s", p, 1.0) for p in ("p4", "s", "p5"))
    assert trace_a == trace_b


class _ScalarOnly:
    """A third-party channel model: scalar ``delay_for`` only."""

    def __init__(self) -> None:
        self.calls = []

    def delay_for(self, sender, receiver, now):
        self.calls.append(receiver)
        return 0.5

    # no delays_for on purpose


def test_batched_delays_falls_back_to_scalar_loop():
    channel = _ScalarOnly()
    assert batched_delays(channel, "a", ["b", "c"], 0.0) == [0.5, 0.5]
    assert channel.calls == ["b", "c"]


def test_wrappers_accept_scalar_only_inner_models():
    """Lossy/targeted wrappers batch over any ChannelModel, batched or not."""
    lossy = LossyChannel(_ScalarOnly(), 0.0, seed=3)
    assert lossy.delays_for("a", ["b", "c", "a"], 0.0) == [0.5, 0.5, 0.5]
    targeted = TargetedLossChannel(_ScalarOnly(), drop_if=lambda s, r, t: r == "b")
    assert targeted.delays_for("a", ["b", "c"], 0.0) == [None, 0.5]


#: Fan-outs a flush takes together, in relay order: remote-only ones, one
#: naming its sender, an empty one, and instants on both sides of the GST.
FANOUTS = (
    ("a", tuple(f"p{i}" for i in range(17)), 49.5),
    ("p3", ("b", "c", "d"), 49.9),
    ("c", ("a", "c", "d", "e"), 50.0),
    ("d", (), 50.0),
    ("p1", tuple(f"p{i}" for i in range(2, 40)), 61.25),
)


def _drop_free(seed: int):
    """Every model, the loss wrappers with nothing to drop: a flush only
    ever takes fan-outs its channel promised not to drop."""
    factories = _factories(seed)
    factories["lossy"] = lambda: LossyChannel(SynchronousChannel(delta=1.0, seed=seed), 0.0, seed)
    factories["targeted"] = lambda: TargetedLossChannel(
        SynchronousChannel(delta=1.0, seed=seed), drop_if=lambda s, r, t: False
    )
    factories["scalar-only"] = _ScalarOnly
    return factories


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", sorted(_drop_free(0)))
@pytest.mark.parametrize("fanouts", (FANOUTS, FANOUTS[:1] + FANOUTS[-1:]), ids=("mixed", "remote"))
def test_delays_for_many_is_the_per_fanout_sequence(model: str, seed: int, fanouts):
    """One flush draw == ``delays_for`` on each fan-out in order, and the
    generators end where that sequence leaves them."""
    make = _drop_free(seed)[model]
    flushed, one_by_one = make(), make()
    many = batched_delays_many(flushed, fanouts)
    expected = [
        delay
        for sender, receivers, now in fanouts
        for delay in batched_delays(one_by_one, sender, receivers, now)
    ]
    assert type(many) is np.ndarray and many.dtype == np.float64
    assert many.tolist() == expected
    for _ in range(5):
        assert flushed.delay_for("a", "z", 60.0) == one_by_one.delay_for("a", "z", 60.0)


def test_only_the_synchronous_models_promise_a_floor():
    synchronous = SynchronousChannel(delta=2.0, min_delay=0.3, seed=1)
    assert synchronous.delay_floor(0.0) == 0.3
    assert min(synchronous.delays_for("a", [f"p{i}" for i in range(500)], 0.0)) >= 0.3
    partial = PartiallySynchronousChannel(gst=50.0, delta=1.0, seed=1)
    assert partial.delay_floor(49.9) is None and partial.delay_floor(50.0) == 0.1
    for model in ("asynchronous", "lossy", "targeted"):
        assert getattr(_factories(1)[model](), "delay_floor", None) is None
