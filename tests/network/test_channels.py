"""Unit tests for the channel models."""

from __future__ import annotations

import math

import pytest

from repro.network.channels import (
    AsynchronousChannel,
    LossyChannel,
    PartiallySynchronousChannel,
    SynchronousChannel,
)
from tests.network.fork_heavy_run import TargetedLossChannel


class TestSynchronousChannel:
    def test_delays_respect_delta(self):
        channel = SynchronousChannel(delta=2.0, min_delay=0.5, seed=1)
        delays = [channel.delay_for("a", "b", 0.0) for _ in range(200)]
        assert all(0.5 <= d <= 2.0 for d in delays)

    def test_self_delivery_is_immediate(self):
        assert SynchronousChannel().delay_for("a", "a", 0.0) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SynchronousChannel(delta=0)
        with pytest.raises(ValueError):
            SynchronousChannel(delta=1.0, min_delay=2.0)

    def test_seed_determinism(self):
        a = SynchronousChannel(delta=1.0, seed=5)
        b = SynchronousChannel(delta=1.0, seed=5)
        assert [a.delay_for("x", "y", 0.0) for _ in range(10)] == [
            b.delay_for("x", "y", 0.0) for _ in range(10)
        ]


class TestAsynchronousChannel:
    def test_never_drops(self):
        channel = AsynchronousChannel(mean_delay=1.0, seed=2)
        assert all(
            channel.delay_for("a", "b", 0.0) is not None for _ in range(100)
        )

    def test_tail_inflates_some_delays(self):
        channel = AsynchronousChannel(
            mean_delay=1.0, tail_probability=0.5, tail_factor=100.0, seed=3
        )
        delays = [channel.delay_for("a", "b", 0.0) for _ in range(200)]
        assert max(delays) > 20.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AsynchronousChannel(mean_delay=0)
        with pytest.raises(ValueError):
            AsynchronousChannel(tail_probability=2.0)

    def test_self_delivery_immediate(self):
        assert AsynchronousChannel().delay_for("a", "a", 0.0) == 0.0


class TestPartiallySynchronousChannel:
    def test_bounded_after_gst(self):
        channel = PartiallySynchronousChannel(gst=10.0, delta=1.0, seed=4)
        post = [channel.delay_for("a", "b", 20.0) for _ in range(100)]
        assert all(d <= 1.0 for d in post)

    def test_unbounded_before_gst(self):
        channel = PartiallySynchronousChannel(gst=1000.0, delta=1.0, pre_gst_mean=10.0, seed=4)
        pre = [channel.delay_for("a", "b", 0.0) for _ in range(200)]
        assert max(pre) > 1.0

    def test_negative_gst_rejected(self):
        with pytest.raises(ValueError):
            PartiallySynchronousChannel(gst=-1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SynchronousChannel(delta=math.nan), "delta must be finite, got nan"),
        (lambda: SynchronousChannel(delta=math.inf), "delta must be finite, got inf"),
        (lambda: SynchronousChannel(min_delay=math.nan), "min_delay must be finite, got nan"),
        (lambda: AsynchronousChannel(mean_delay=math.nan), "mean_delay must be finite, got nan"),
        (lambda: AsynchronousChannel(mean_delay=math.inf), "mean_delay must be finite, got inf"),
        (lambda: AsynchronousChannel(tail_factor=math.inf), "tail_factor must be finite, got inf"),
        (
            lambda: AsynchronousChannel(tail_factor=-2.0),
            "tail_factor must be non-negative, got -2.0",
        ),
        (lambda: PartiallySynchronousChannel(gst=math.nan), "gst must be finite, got nan"),
        (lambda: PartiallySynchronousChannel(gst=math.inf), "gst must be finite, got inf"),
    ],
)
def test_a_non_finite_parameter_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


class TestLossyChannel:
    def test_drop_probability_zero_never_drops(self):
        channel = LossyChannel(SynchronousChannel(seed=1), 0.0, seed=1)
        assert all(channel.delay_for("a", "b", 0.0) is not None for _ in range(100))

    def test_drop_probability_one_drops_everything(self):
        channel = LossyChannel(SynchronousChannel(seed=1), 1.0, seed=1)
        assert all(channel.delay_for("a", "b", 0.0) is None for _ in range(100))
        assert channel.dropped == 100

    def test_intermediate_drop_rate(self):
        channel = LossyChannel(SynchronousChannel(seed=1), 0.3, seed=2)
        outcomes = [channel.delay_for("a", "b", 0.0) is None for _ in range(2000)]
        rate = sum(outcomes) / len(outcomes)
        assert 0.25 < rate < 0.35

    def test_self_messages_never_dropped(self):
        channel = LossyChannel(SynchronousChannel(seed=1), 1.0, seed=1)
        assert channel.delay_for("a", "a", 0.0) is not None

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            LossyChannel(SynchronousChannel(), 1.5)


class TestTargetedLossChannel:
    def test_predicate_controls_drops(self):
        channel = TargetedLossChannel(
            SynchronousChannel(seed=1), drop_if=lambda s, r, t: r == "victim"
        )
        assert channel.delay_for("a", "victim", 0.0) is None
        assert channel.delay_for("a", "other", 0.0) is not None
        assert channel.dropped == 1

    def test_self_messages_exempt(self):
        channel = TargetedLossChannel(
            SynchronousChannel(seed=1), drop_if=lambda s, r, t: True
        )
        assert channel.delay_for("x", "x", 0.0) is not None
