"""Channel models: asynchrony, synchrony, partial synchrony, loss.

Section 4.2 distinguishes three synchrony assumptions:

* **asynchronous** — no upper bound on message delay;
* **synchronous** — messages sent by correct processes at time ``t`` are
  delivered by ``t + δ``;
* **weakly/partially synchronous** — there is an unknown time (GST) after
  which channels behave synchronously.

A channel model answers one question per message: *when* is it delivered
(a non-negative delay) or is it dropped (``None``)?  Keeping that decision
in one object makes the necessity results easy to exercise: the Theorem
4.6/4.7 benches wrap any model in :class:`LossyChannel` and sweep the drop
probability, and the Theorem 4.8 construction uses a plain
:class:`SynchronousChannel` to show the impossibility does not rely on
asynchrony at all.

All randomness is drawn from a seeded generator owned by the model, so a
given (seed, workload) pair always yields the same execution.

Every model additionally answers the question for a whole fan-out at once:
``delays_for(sender, receivers, now)`` returns one delay (or ``None``) per
receiver and is **stream-identical** to the equivalent sequence of scalar
``delay_for`` calls — numpy's ``Generator`` fills vectorized ``uniform``/
``exponential``/``random`` draws by consuming the bit stream element by
element, exactly as the scalar calls do, so a batched multicast and a
per-recipient loop produce the same delays from the same seed.  A
``None`` is read in one place, where the multicast builds its insert
(``Network._multicast_trusted``): the dropped receiver is left out.  The
stream tests (``tests/network/test_channel_batching.py``) hold every
``delays_for`` to that scalar loop, which they spell out themselves.

A model may also promise a *delay floor*: ``delay_floor(now)`` returns a
lower bound on every delay it gives a message sent at ``now`` to a
receiver other than its sender, and promises never to drop such a
message; ``None`` (or no such method) promises nothing.  The floor at
time 0 also sizes the array core's buckets
(:func:`~repro.network.simulator.slot_width_for`).  Under that promise
the network may defer the draws of several relays and take them
together through :func:`batched_delays_many`: ``delays_for_many(fanouts)``
over ``(sender, receivers, now)`` triples returns their delays
concatenated, as one float64 array, stream-identical to ``delays_for``
on each triple in order.  :class:`SynchronousChannel` makes it one
``uniform`` draw; for any other model the helper loops ``delays_for``.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.core.errors import Vocabulary

__all__ = [
    "CHANNELS",
    "ChannelModel",
    "SynchronousChannel",
    "AsynchronousChannel",
    "PartiallySynchronousChannel",
    "LossyChannel",
    "batched_delays",
    "batched_delays_many",
]

#: The batched return type: one entry per receiver, ``None`` = dropped.
DelayVector = List[Optional[float]]

#: Name -> synchrony class, the ``kind`` of a ``ChannelSpec``.
CHANNELS = Vocabulary("channel kind")


@runtime_checkable
class ChannelModel(Protocol):
    """Decides the fate of each message.

    Only the scalar ``delay_for`` is required.  Models may additionally
    provide ``delays_for(sender, receivers, now) -> DelayVector`` — a
    batched fan-out draw that must be stream-identical to the sequence of
    scalar calls it replaces (same values, same generator state after) —
    and the batched message plane uses it via :func:`batched_delays`,
    falling back to the scalar loop otherwise.  It is deliberately *not*
    part of this protocol so scalar-only third-party models still satisfy
    the ``ChannelModel`` annotations (and ``isinstance`` checks).
    """

    def delay_for(self, sender: str, receiver: str, now: float) -> Optional[float]:
        """Return the delivery delay, or ``None`` if the message is lost."""
        ...


def _scatter_inner_batch(
    inner: ChannelModel,
    sender: str,
    receivers: Sequence[str],
    now: float,
    keep_flags: Sequence[bool],
) -> DelayVector:
    """One inner batch over the kept receivers, scattered back in place.

    Shared by the loss wrappers: receivers whose ``keep_flags`` entry is
    false stay ``None`` (dropped); the survivors are forwarded to the
    inner model in receiver order — exactly the messages the scalar path
    would have forwarded — and their delays land back in their slots.
    """
    kept = list(compress(receivers, keep_flags))
    delays = batched_delays(inner, sender, kept, now)
    if len(kept) == len(receivers):
        return delays
    survivors = iter(delays)
    return [next(survivors) if keep else None for keep in keep_flags]


def batched_delays(
    channel: ChannelModel, sender: str, receivers: Sequence[str], now: float
) -> DelayVector:
    """Sample a fan-out through ``channel``, batched when it supports it.

    Third-party channel models only need the scalar ``delay_for``; this
    helper falls back to the (stream-identical) scalar loop for them, so
    the batched message plane accepts any :class:`ChannelModel`.
    """
    batched = getattr(channel, "delays_for", None)
    if batched is not None:
        return batched(sender, receivers, now)
    return [channel.delay_for(sender, receiver, now) for receiver in receivers]


#: One deferred fan-out: ``(sender, receivers, now)``.
Fanout = Tuple[str, Sequence[str], float]


def batched_delays_many(channel: ChannelModel, fanouts: Sequence[Fanout]) -> np.ndarray:
    """Sample several fan-outs through ``channel``, in order, as one float64 array.

    Defined only for fan-outs the channel promises not to drop (see the
    module docstring's delay floor).  Uses the model's own
    ``delays_for_many`` when it has one, and otherwise loops
    :func:`batched_delays` — the same draws in the same order either way.
    """
    many = getattr(channel, "delays_for_many", None)
    if many is not None:
        return many(fanouts)
    return _delays_one_by_one(channel, fanouts)


def _delays_one_by_one(channel: ChannelModel, fanouts: Sequence[Fanout]) -> np.ndarray:
    """``batched_delays`` on each fan-out in turn, concatenated."""
    return np.array(
        [
            delay
            for sender, receivers, now in fanouts
            for delay in batched_delays(channel, sender, receivers, now)
        ],
        dtype=np.float64,
    )


def _finite(name: str, value: float) -> float:
    """A channel parameter, refused by name unless a finite number.

    A NaN or an infinity would only fail mid-run, where a delay is drawn.
    """
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number!r}")
    return number


@CHANNELS.register("synchronous")
class SynchronousChannel:
    """Delivery within a known bound δ.

    Delays are drawn uniformly from ``[min_delay, delta]``; local delivery
    (sender == receiver) is immediate, which matches the convention that a
    process "receives" its own update as part of issuing it.
    """

    def __init__(self, delta: float = 1.0, min_delay: float = 0.1, seed: int = 0) -> None:
        delta, min_delay = _finite("delta", delta), _finite("min_delay", min_delay)
        if delta <= 0 or min_delay < 0 or min_delay > delta:
            raise ValueError("require 0 <= min_delay <= delta and delta > 0")
        self.delta = delta
        self.min_delay = min_delay
        self._rng = np.random.default_rng(seed)

    def delay_for(self, sender: str, receiver: str, now: float) -> Optional[float]:  # noqa: ARG002
        if sender == receiver:
            return 0.0
        return float(self._rng.uniform(self.min_delay, self.delta))

    def delays_for(
        self, sender: str, receivers: Sequence[str], now: float  # noqa: ARG002
    ) -> DelayVector:
        """One vectorized ``uniform`` draw for the whole fan-out.

        Self-delivery entries stay 0.0 and consume nothing, matching the
        scalar path; the remote entries are filled from a single
        ``Generator.uniform(size=k)`` call, which consumes the bit stream
        exactly as ``k`` scalar draws would.
        """
        if sender not in receivers:
            # The common fan-out (include_self=False): every entry draws.
            draws = self._rng.uniform(self.min_delay, self.delta, size=len(receivers))
            return draws.tolist()
        delays: DelayVector = [0.0] * len(receivers)
        remote = [i for i, receiver in enumerate(receivers) if receiver != sender]
        if remote:
            draws = self._rng.uniform(self.min_delay, self.delta, size=len(remote))
            for slot, value in zip(remote, draws.tolist()):
                delays[slot] = value
        return delays

    def delay_floor(self, now: float) -> float:  # noqa: ARG002
        """Every remote delay is at least ``min_delay``, and none is dropped."""
        return self.min_delay

    def delays_for_many(self, fanouts: Sequence[Fanout]) -> np.ndarray:
        """Several fan-outs' delays, concatenated, in one ``uniform`` draw.

        Without self-deliveries every entry draws once, in fan-out
        order, which is what the ``delays_for`` calls in sequence
        consume; a fan-out that names its sender takes the per-fan-out
        path instead.
        """
        if any(sender in receivers for sender, receivers, _ in fanouts):
            return _delays_one_by_one(self, fanouts)
        total = sum(len(receivers) for _, receivers, _ in fanouts)
        return self._rng.uniform(self.min_delay, self.delta, size=total)


@CHANNELS.register("asynchronous")
class AsynchronousChannel:
    """No bound on delays: exponentially distributed with a heavy tail knob.

    ``tail_probability`` of messages receive an extra ``tail_factor``
    multiplier, modelling the unbounded-delay adversary within a finite
    simulation.  Messages are never dropped by this model (losses are the
    job of :class:`LossyChannel`).
    """

    def __init__(
        self,
        mean_delay: float = 1.0,
        tail_probability: float = 0.05,
        tail_factor: float = 20.0,
        seed: int = 0,
    ) -> None:
        mean_delay = _finite("mean_delay", mean_delay)
        tail_factor = _finite("tail_factor", tail_factor)
        if mean_delay <= 0:
            raise ValueError("mean_delay must be positive")
        if not 0 <= tail_probability <= 1:
            raise ValueError("tail_probability must be in [0, 1]")
        if tail_factor < 0:
            raise ValueError(f"tail_factor must be non-negative, got {tail_factor!r}")
        self.mean_delay = mean_delay
        self.tail_probability = float(tail_probability)
        self.tail_factor = tail_factor
        self._rng = np.random.default_rng(seed)

    def delay_for(self, sender: str, receiver: str, now: float) -> Optional[float]:  # noqa: ARG002
        if sender == receiver:
            return 0.0
        delay = float(self._rng.exponential(self.mean_delay))
        if self._rng.random() < self.tail_probability:
            delay *= self.tail_factor
        return delay

    def delays_for(
        self, sender: str, receivers: Sequence[str], now: float  # noqa: ARG002
    ) -> DelayVector:
        """Batched fan-out with the scalar draw interleave preserved.

        Each message consumes ``exponential`` *then* ``random`` (the tail
        coin-flip); splitting those into two vector calls would permute
        the stream (all exponentials first, then all coin-flips) and break
        bit-identity with the scalar path.  The batch therefore keeps the
        per-message interleave and only hoists the generator bindings out
        of the loop.
        """
        rng = self._rng
        exponential = rng.exponential
        random = rng.random
        mean = self.mean_delay
        tail_probability = self.tail_probability
        tail_factor = self.tail_factor
        delays: DelayVector = []
        append = delays.append
        for receiver in receivers:
            if receiver == sender:
                append(0.0)
                continue
            delay = float(exponential(mean))
            if random() < tail_probability:
                delay *= tail_factor
            append(delay)
        return delays


@CHANNELS.register("partial")
class PartiallySynchronousChannel:
    """Partial synchrony (Dwork–Lynch–Stockmeyer): synchronous after GST.

    Before the Global Stabilization Time messages behave asynchronously
    (``pre_gst`` model); at or after GST they are delivered within ``delta``.
    """

    def __init__(
        self,
        gst: float = 50.0,
        delta: float = 1.0,
        pre_gst_mean: float = 5.0,
        seed: int = 0,
    ) -> None:
        gst = _finite("gst", gst)
        if gst < 0:
            raise ValueError("GST must be non-negative")
        self.gst = gst
        self._post = SynchronousChannel(delta=delta, seed=seed)
        self._pre = AsynchronousChannel(mean_delay=pre_gst_mean, seed=seed + 1)

    def delay_for(self, sender: str, receiver: str, now: float) -> Optional[float]:
        if now >= self.gst:
            return self._post.delay_for(sender, receiver, now)
        return self._pre.delay_for(sender, receiver, now)

    def delays_for(
        self, sender: str, receivers: Sequence[str], now: float
    ) -> DelayVector:
        """A multicast happens at a single instant, hence in a single regime.

        Every receiver shares ``now``, so the whole batch is either before
        GST (delegate to the asynchronous model) or at/after it (delegate
        to the synchronous model) — the same per-message dispatch the
        scalar path performs, on the same sub-model generators.
        """
        if now >= self.gst:
            return self._post.delays_for(sender, receivers, now)
        return self._pre.delays_for(sender, receivers, now)

    def delay_floor(self, now: float) -> Optional[float]:
        """The synchronous floor from GST on; no promise before it."""
        if now >= self.gst:
            return self._post.min_delay
        return None


class LossyChannel:
    """Wrap another model and drop each message with a fixed probability.

    Local (self-addressed) messages are never dropped: the paper's R1/R2
    arguments are about *other* processes missing an update, and a replica
    trivially has its own update.
    """

    def __init__(self, inner: ChannelModel, drop_probability: float, seed: int = 0) -> None:
        if not 0 <= drop_probability <= 1:
            raise ValueError("drop_probability must be in [0, 1]")
        self.inner = inner
        self.drop_probability = float(drop_probability)
        self._rng = np.random.default_rng(seed)
        self.dropped = 0

    def delay_for(self, sender: str, receiver: str, now: float) -> Optional[float]:
        if sender != receiver and self._rng.random() < self.drop_probability:
            self.dropped += 1
            return None
        return self.inner.delay_for(sender, receiver, now)

    def delays_for(
        self, sender: str, receivers: Sequence[str], now: float
    ) -> DelayVector:
        """One vectorized drop lottery, then one inner batch for survivors.

        The drop coin-flips come from this wrapper's *own* generator and
        the delays from the inner model's, so the two streams never
        interleave: one ``random(size=k)`` call over the ``k`` non-self
        receivers (self-addressed entries skip the lottery) consumes the
        drop stream exactly as ``k`` scalar flips would, and the inner
        model only ever samples the surviving receivers, in order —
        exactly the messages the scalar path forwards to it.
        """
        flips = iter(self._rng.random(size=len(receivers) - receivers.count(sender)).tolist())
        drop_probability = self.drop_probability
        keep_flags = [
            receiver == sender or next(flips) >= drop_probability for receiver in receivers
        ]
        self.dropped += len(keep_flags) - sum(keep_flags)
        return _scatter_inner_batch(self.inner, sender, receivers, now, keep_flags)
