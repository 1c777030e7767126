"""Discrete-event simulator and network fabric.

The paper's message-passing model has ``n`` processes, a fictional global
clock the processes cannot read, and channels of varying synchrony.  This
module provides:

* :class:`Simulator` — a classical discrete-event engine: a priority queue
  of timestamped callbacks, a virtual clock, and a run loop.  Everything is
  deterministic given the seeds of the channel models and protocols, which
  makes every benchmark re-run bit-identical.
* :class:`Message` — an immutable envelope (sender, receiver, kind,
  payload, send time).
* :class:`Network` — glue between the simulator, a channel model deciding
  per-message delays/drops, and the registered processes.  Delivery is the
  only way processes interact; there is no shared memory across processes
  in this substrate.

The simulator is intentionally single-threaded: determinism and
reproducibility of the paper's histories matter far more here than wall
clock parallelism.  What the event core *is* optimized for is allocation
pressure on the fan-out hot path.  An n-way multicast draws all its
channel delays in one batched call
(:func:`repro.network.channels.batched_delays`) and parks its single
:class:`Message` envelope in a slot of the network's envelope table; each
delivery is then one int code, ``slot << 16 | receiver index``, and the
whole fan-out reaches the event core as one block through
:meth:`Simulator.schedule_fanout` — no tuple, closure or envelope per
receiver.  Delivering a code decodes it (:meth:`Network._deliver_multicast`);
a span of them is walked by :meth:`Network._deliver_span`, which accounts a
stretch of duplicate block announcements in one step.  A point-to-point
:meth:`Network.send` is one ``_deliver`` event, which the drain loop
dispatches on its own like any timer.

Within such a span the relays it provokes (Light Reliable Communication
forwards every block on first reception) are *parked*
(:meth:`Network._park`) rather than drawn and scheduled one by one,
provided the fan-out takes the block path (16+ receivers, its sender not
among them), no message filter is active, and the channel promises a
delay floor (:mod:`repro.network.channels`) under which every delivery
lands after the span's last entry.  A parked relay takes its envelope
slot, its sent count and its sequence numbers at once; when the span
ends — however it ends — or anything else is about to draw on the
channel, all parked relays are flushed together
(:meth:`Network._flush_parked`): one channel draw in relay order, one
fan-out block of int64 ``(times, seqs, codes)``.  This is exact: the
channel is consumed in the order the relays were made, every delivery
keeps the ``(time, seq)`` it would have had, and nothing the span still
dispatches can observe the difference, because no parked delivery sorts
before the span's end — so it could not have cut the span or been
dispatched in it.

That batched plane is the only message plane in this module, timed by
the ledger row ``network.simulator.gossip_msgs_per_s``.  The pre-batching
scalar fan-out — one :meth:`Network.send` per receiver, per-event
dispatch — is the test-side oracle ``ReferenceNetwork``
(``tests/network/reference_plane.py``), which the history tests
(``tests/network/test_simulation_equivalence.py``,
``test_core_equivalence.py``) compare against: both consume the channel
generators identically and assign queue sequence numbers in the same
receiver order, so the recorded histories are bit-identical.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.core.errors import StaleSnapshotError, UnknownVocabularyError
from repro.core.history import HistoryRecorder
from repro.network.channels import batched_delays, batched_delays_many
from repro.network.event_core import NO_ARG, ArrayEventCore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.network.channels import ChannelModel
    from repro.network.process import Process
    from repro.network.topology import Topology

__all__ = ["Simulator", "Message", "Network", "MULTICAST", "timed_callbacks"]

#: Module toggle read at :class:`Simulator` construction: when True, the
#: run loops bracket every callback dispatch with ``perf_counter`` and
#: accumulate ``callback_seconds`` / ``drain_seconds`` — the ledger rows
#: ``network.simulator.callback_s`` / ``network.simulator.drain_s``.  Off
#: by default (two timer calls per event are measurable noise on the hot
#: path).
_TIMED_CALLBACKS = False


@contextmanager
def timed_callbacks():
    """Enable per-callback timing on simulators created in this scope.

    The ledger's ``probe_flood_cell`` (``benchmarks/ledger/probes.py``)
    wraps one flood cell with this to record what share of the drain is
    spent inside callbacks (``network.simulator.callback_s`` over
    ``network.simulator.drain_s``); normal runs never pay the timer
    overhead.
    """
    global _TIMED_CALLBACKS
    previous = _TIMED_CALLBACKS
    _TIMED_CALLBACKS = True
    try:
        yield
    finally:
        _TIMED_CALLBACKS = previous

#: Receiver marker carried by a shared multicast envelope.  The actual
#: recipient of each delivery is the queue entry's argument, not the
#: envelope; processes address replies through ``message.sender``.
MULTICAST = "*"

#: A multicast delivery is the int ``slot << _SLOT_SHIFT | receiver index``
#: (:meth:`Network._multicast_trusted`); the hot loops spell the shift and
#: the mask out as literals.
_SLOT_SHIFT = 16
_RECEIVER_MASK = (1 << _SLOT_SHIFT) - 1

#: Skip-table entry of a receiver whose duplicates must be dispatched.
_NO_SKIP: frozenset = frozenset()

#: Queue-entry marker for a no-argument callback (the ``schedule``/
#: ``schedule_at`` API).  A private sentinel rather than ``None`` so that
#: ``call_at(t, fn, None)`` entries carrying a legitimate ``None``
#: argument still invoke ``fn(None)``.  Owned by the
#: array core module (both cores dispatch on the same identity check).
_NO_ARG = NO_ARG


@dataclass(frozen=True, slots=True)
class Message:
    """A network message envelope.

    Multicast deliveries share one envelope across all recipients (the
    ``receiver`` field is then :data:`MULTICAST`); point-to-point sends
    carry their receiver as before.
    """

    sender: str
    receiver: str
    kind: str
    payload: Any
    sent_at: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.sender}->{self.receiver} @{self.sent_at:.2f})"


class Simulator:
    """Discrete-event engine with a virtual clock and two storage cores.

    ``core="array"`` (the default) keeps pending events in the
    calendar-queue of numpy buckets provided by
    :class:`~repro.network.event_core.ArrayEventCore` — vectorized bulk
    inserts, one sort per time-slot bucket, interned method dispatch.
    ``core="heap"`` keeps the classical ``heapq`` of
    ``(time, seq, method, arg)`` tuples verbatim; it is retained as the
    equivalence oracle, and the two cores produce identical event
    orderings (``seq`` is a global insertion counter under both, so ties
    on ``time`` resolve in insertion order and comparisons never reach
    the uncomparable callables).

    ``arg is _NO_ARG`` marks a no-argument callback (the public
    :meth:`schedule` API); otherwise the run loop calls ``method(arg)``.
    """

    CORES = ("array", "heap")

    def __init__(self, core: str = "array", slot_width: float = 0.25) -> None:
        if core not in self.CORES:
            raise UnknownVocabularyError("simulator core", core, self.CORES)
        self.core = core
        self._array_core: Optional[ArrayEventCore] = (
            ArrayEventCore(slot_width=slot_width) if core == "array" else None
        )
        self._queue: List[Tuple[float, int, Callable[..., None], Any]] = []
        self._sequence = itertools.count()
        self.now: float = 0.0
        self.events_processed: int = 0
        # callback_share instrumentation (see :func:`timed_callbacks`).
        self.callback_timer: Optional[Callable[[], float]] = (
            perf_counter if _TIMED_CALLBACKS else None
        )
        self.callback_seconds: float = 0.0
        self.drain_seconds: float = 0.0

    def register_batch_handler(
        self, method: Callable[[Any], None], handler: Callable[..., int]
    ) -> None:
        """Route same-method event spans of ``method`` to ``handler``.

        Forwarded to the array core's span-handler table (see
        :meth:`ArrayEventCore.register_span_handler
        <repro.network.event_core.ArrayEventCore.register_span_handler>`);
        a no-op under the heap core, whose scalar loop is the oracle the
        batch-dispatch plane is equivalence-tested against.
        """
        core = self._array_core
        if core is not None:
            core.register_span_handler(method, handler)

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        core = self._array_core
        if core is not None:
            core.push(self.now + delay, action, _NO_ARG)
            return
        heapq.heappush(
            self._queue, (self.now + delay, next(self._sequence), action, _NO_ARG)
        )

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        core = self._array_core
        if core is not None:
            core.push(time, action, _NO_ARG)
            return
        heapq.heappush(self._queue, (time, next(self._sequence), action, _NO_ARG))

    def call_at(self, time: float, method: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``method(arg)`` at an absolute virtual time.

        The single-argument form the message plane uses: no closure is
        allocated, the bound method and its argument ride the queue entry.
        """
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        core = self._array_core
        if core is not None:
            core.push(time, method, arg)
            return
        heapq.heappush(self._queue, (time, next(self._sequence), method, arg))

    def schedule_fanout(
        self,
        delays: Sequence[Optional[float]],
        method: Callable[[Any], None],
        args: Sequence[Any],
    ) -> int:
        """Bulk insert one shared ``method`` from a channel delay vector.

        ``delays[i] is None`` marks a dropped recipient: its entry is
        skipped and consumes no sequence number, exactly as if the caller
        had filtered it out of the vector.  Everything
        else is scheduled at ``now + delays[i]`` with argument
        ``args[i]``, sequence numbers in vector order.  Under the array
        core the shared method is interned once and the block is split
        into buckets with the rest of its run's — the multicast hot path.
        A list ``args`` is kept by reference (the core never mutates it),
        so the caller must not change it afterwards.
        """
        now = self.now
        if None in delays:
            kept = [
                (delay, arg) for delay, arg in zip(delays, args) if delay is not None
            ]
            if not kept:
                return 0
            delays = [delay for delay, _ in kept]
            args = [arg for _, arg in kept]
        core = self._array_core
        if core is not None:
            if type(args) is not list:
                args = list(args)
            if len(delays) < 16:
                # Small fan-outs (typical multicast degree): the scalar
                # staging path skips the asarray/argsort constants.  A
                # Python float add is the same IEEE-754 operation as the
                # vectorized broadcast, so timestamps are bit-identical.
                times = [float(now + delay) for delay in delays]
                return core.schedule_small(now, times, method, args, validate=False)
            times = np.asarray(delays, dtype=np.float64) + now
            # Channel delays are non-negative by contract, so the block
            # cannot land before ``now`` — skip the validation pass.
            return core.schedule_block(now, times, method, args, validate=False)
        queue = self._queue
        push = heapq.heappush
        sequence = self._sequence
        for delay, arg in zip(delays, args):
            push(queue, (now + delay, next(sequence), method, arg))
        return len(delays)

    def schedule_block(
        self,
        times: Sequence[float],
        method: Callable[[Any], None],
        args: Sequence[Any],
    ) -> int:
        """Bulk insert one shared ``method`` at absolute ``times``.

        The workload-plane primitive: ``times`` may be a numpy float64
        array (used as-is, no per-entry conversion) and ``args`` a
        same-length sequence (a numpy array is scheduled as its
        ``tolist()``, so callbacks receive plain Python scalars).
        Sequence numbers follow array order, as for the same entries
        inserted one by one with :meth:`call_at`; a timestamp before
        ``now`` raises :class:`ValueError`.
        """
        args = args.tolist() if isinstance(args, np.ndarray) else list(args)
        core = self._array_core
        if core is not None:
            arr = np.ascontiguousarray(times, dtype=np.float64)
            return core.schedule_block(self.now, arr, method, args)
        queue = self._queue
        push = heapq.heappush
        sequence = self._sequence
        now = self.now
        count = 0
        for time, arg in zip(times, args):
            if time < now:
                raise ValueError("cannot schedule into the past")
            push(queue, (time, next(sequence), method, arg))
            count += 1
        return count

    def schedule_column(self, times: Sequence[float], values: Sequence[int], sink: Any) -> int:
        """Bulk insert *column events*: ``sink`` receives ``values[i]`` at ``times[i]``.

        Defined as ``schedule_block(times, sink.append, values.tolist())``
        — which is what the heap core executes — for a sink that keeps
        the contract the array core relies on to never turn the block
        into Python objects: ``sink.extend_column(v)`` is equivalent to
        ``sink.append`` over the int64 array ``v`` in order (the sink may
        keep ``v``), neither method schedules an event, reads the clock
        or raises, and ``sink.append`` is an ordinary bound method (the
        array core interns it and finds the sink as its ``__self__``).
        Under that contract the array core delivers whole ``(time,
        seq)``-contiguous ranges with one ``extend_column`` call per
        sink, cut exactly where the scalar loop would have had to look up
        (``until``, the ``max_events`` budget, an event of another kind
        sorting in between).
        """
        values = np.ascontiguousarray(values, dtype=np.int64)
        if len(values) != len(times):
            raise ValueError("times and values must have the same length")
        core = self._array_core
        if core is None:
            return self.schedule_block(times, sink.append, values)
        arr = np.ascontiguousarray(times, dtype=np.float64)
        return core.schedule_column(self.now, arr, values, sink)

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        core = self._array_core
        if core is not None:
            return core.pending
        return len(self._queue)

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 1_000_000,
        *,
        checkpoint_every: Optional[int] = None,
        checkpoint_sink: Optional[Callable[["Simulator"], None]] = None,
    ) -> int:
        """Process queued events in timestamp order.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (events scheduled
            later stay in the queue; an event at exactly ``until`` is
            still processed).  ``None`` drains the queue.
        max_events:
            Safety bound against runaway protocols.
        checkpoint_every:
            When set, drain in chunks of at most this many events and
            invoke ``checkpoint_sink(self)`` after every nonzero chunk.
            Chunking does not perturb event order — it only pauses the
            drain loop at snapshot boundaries.
        checkpoint_sink:
            Callable receiving this simulator at each chunk boundary
            (typically :meth:`CheckpointWriter.write <
            repro.engine.checkpoint.CheckpointWriter.write>` via a
            bound snapshot helper).

        Returns the number of events processed by this call.
        """
        if checkpoint_every is None:
            processed = self._drain_once(until, max_events)
        else:
            if checkpoint_every <= 0:
                raise ValueError("checkpoint_every must be positive")
            processed = 0
            while processed < max_events:
                chunk = min(checkpoint_every, max_events - processed)
                step = self._drain_once(until, chunk)
                processed += step
                if step and checkpoint_sink is not None:
                    checkpoint_sink(self)
                if step < chunk:
                    break
        if processed >= max_events and self.pending:
            raise RuntimeError(
                f"simulation did not quiesce within {max_events} events "
                f"({self.pending} still pending at t={self.now:.2f})"
            )
        if until is not None and self.now < until:
            # Whether the queue drained early or only later events remain,
            # the clock still advances to the requested horizon.
            self.now = until
        return processed

    def _drain_once(self, until: Optional[float], max_events: int) -> int:
        """Drain up to ``max_events`` events without the quiesce/clock tail."""
        core = self._array_core
        timer = getattr(self, "callback_timer", None)
        if timer is None:
            if core is not None:
                return core.drain(self, until, max_events)
            return self._run_heap(until, max_events)
        t0 = timer()
        try:
            if core is not None:
                return core.drain(self, until, max_events)
            return self._run_heap(until, max_events)
        finally:
            self.drain_seconds += timer() - t0

    def _run_heap(self, until: Optional[float], max_events: int) -> int:
        """The pre-array run loop, verbatim: pop tuples off one heapq.

        (Plus the optional ``timed_callbacks`` brackets, so the heap
        oracle leg reports the same ``callback_share`` metric.)
        """
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        timer = getattr(self, "callback_timer", None)
        try:
            while queue and processed < max_events:
                if until is not None and queue[0][0] > until:
                    break
                time, _, method, arg = pop(queue)
                if time > self.now:
                    self.now = time
                if timer is None:
                    if arg is _NO_ARG:
                        method()
                    else:
                        method(arg)
                else:
                    t0 = timer()
                    if arg is _NO_ARG:
                        method()
                    else:
                        method(arg)
                    self.callback_seconds += timer() - t0
                processed += 1
        finally:
            self.events_processed += processed
        return processed


class Network:
    """Processes + channel model + simulator.

    The network owns the shared :class:`~repro.core.history.HistoryRecorder`
    so that every replica's operation events and every ``send``/``receive``/
    ``update`` replication event land in a single concurrent history, ready
    for the consistency and update-agreement checkers.

    ``topology`` decides who hears a ``broadcast`` (see
    :mod:`repro.network.topology`): the default :class:`FullMesh` keeps
    the historical everyone-hears-everyone semantics byte-identically,
    while gossip / committee / sharded topologies restrict each sender's
    fan-out to its neighbor set.  Static topologies have their per-sender
    receiver lists cached alongside the full-mesh ``_others`` exclusion
    cache; both caches are invalidated when membership changes.

    A multicast's envelope lives in a slot of the network's *envelope
    table* beside its block id (``None`` unless the payload is a
    :class:`~repro.network.broadcast.BlockAnnouncement`), and each of its
    deliveries is one int code naming the slot and the receiver's
    registration-order index.  A slot is recycled once its last delivery
    time is behind the clock, so the table holds the multicasts in flight,
    not the run's history, and a snapshot carries only those.
    """

    def __init__(
        self,
        simulator: Simulator,
        channel: "ChannelModel",
        recorder: Optional[HistoryRecorder] = None,
        topology: Optional["Topology"] = None,
    ) -> None:
        from repro.network.broadcast import BlockAnnouncement
        from repro.network.topology import FullMesh

        self.simulator = simulator
        self.channel = channel
        self.recorder = recorder if recorder is not None else HistoryRecorder()
        self.topology = topology if topology is not None else FullMesh()
        # The full-mesh broadcast path is the hot default and must stay
        # byte-identical to the pre-topology code, so it keeps its own
        # branch (and the `_others` cache) instead of the generic one.
        self._fullmesh = type(self.topology) is FullMesh
        self._processes: Dict[str, "Process"] = {}
        self._pids: Tuple[str, ...] = ()
        # sender -> every other pid, in registration order.  Built lazily
        # and invalidated on register: broadcasts with include_self=False
        # (every LRC relay) would otherwise rebuild this list — and
        # re-validate each receiver against the process table — per call.
        self._others: Dict[str, Tuple[str, ...]] = {}
        # id(receiver tuple) -> (that tuple, its receiver indexes as int64),
        # the low bits of a parked relay's codes; cleared with ``_others``.
        self._receiver_codes: Dict[int, Tuple[Tuple[str, ...], np.ndarray]] = {}
        # (sender, include_self) -> receiver tuple for static non-fullmesh
        # topologies; validated against the process table once per entry
        # and invalidated on register, exactly like ``_others``.
        self._topology_receivers: Dict[Tuple[str, bool], Tuple[str, ...]] = {}
        # Pids that left through ``deregister`` (dynamic membership /
        # churn faults).  Traffic addressed to them is *quarantined* —
        # counted, silently absorbed — rather than raising the unknown-
        # receiver KeyError reserved for genuine addressing bugs.
        self._departed: set = set()
        # Registration-order receiver indexes (the low bits of a multicast
        # delivery code); a pid keeps its index across deregister and
        # re-register.
        self._receiver_index: Dict[str, int] = {}
        self._receiver_pids: List[str] = []
        # The envelope table: slot -> shared envelope and its block id;
        # ``_in_flight`` is a heap of (last delivery time, slot), and
        # ``_free_slots`` holds the slots recycled behind the clock.
        self._announcement = BlockAnnouncement
        self._envelopes: List[Optional[Message]] = []
        self._envelope_blocks: List[Optional[str]] = []
        self._in_flight: List[Tuple[float, int]] = []
        self._free_slots: List[int] = []
        # Receiver index -> the seen-set a duplicate announcement is
        # skipped against (``_NO_SKIP`` for a departed, dead or non-stock
        # receiver), valid while ``_skip_epoch == _epoch``.  Register,
        # deregister, ``Process.crash`` and ``Process.revive`` bump the
        # epoch; the table is rebuilt on the next multicast span.
        self._epoch = 0
        self._skip_epoch = -1
        self._skip_table: List[Any] = []
        # Parked relays (see ``_deliver_span``): ``(sender, receivers, now,
        # slot, first seq, receiver indexes)`` in relay order, and the time
        # a parked delivery must lie beyond — None outside a multicast span.
        self._parked: List[Tuple[Any, ...]] = []
        self._park_limit: Optional[float] = None
        # Active message filters (fault models: partitions, eclipses).
        # Empty on the hot path; a fan-out blocked by a filter counts as
        # sent + dropped and consumes no channel randomness.
        self._message_filters: List[Callable[[str, str], bool]] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_quarantined = 0
        # Batch dispatch: consecutive multicast deliveries are handed to
        # the span handler in one call (scalar-exact; see `_deliver_span`).
        simulator.register_batch_handler(self._deliver_multicast, self._deliver_span)

    # -- membership -------------------------------------------------------------

    def register(self, process: "Process") -> None:
        pid = process.pid
        if pid in self._processes:
            raise ValueError(f"process {pid!r} already registered")
        if pid not in self._receiver_index:
            if len(self._receiver_pids) > _RECEIVER_MASK:
                raise ValueError(f"more than {_RECEIVER_MASK + 1} processes registered")
            self._receiver_index[pid] = len(self._receiver_pids)
            self._receiver_pids.append(pid)
        self._processes[pid] = process
        self._pids = self._pids + (pid,)
        self._others.clear()
        self._receiver_codes.clear()
        self._topology_receivers.clear()
        self._departed.discard(pid)
        self._epoch += 1
        if process.network is not self:
            # A rejoining process (churn) keeps its existing transport
            # wiring and merit registration; attaching again would reset
            # both mid-run.
            process.attach(self)

    def deregister(self, pid: str) -> "Process":
        """Remove ``pid`` from the membership (dynamic churn).

        Invalidates the ``_others`` exclusion cache and the topology
        receiver caches exactly like :meth:`register` does, and marks the
        pid departed so in-flight deliveries addressed to it — and late
        point-to-point sends from peers that have not noticed yet — are
        quarantined gracefully instead of raising.  Returns the removed
        process (callers decide whether it also crashes).
        """
        try:
            process = self._processes.pop(pid)
        except KeyError:
            raise KeyError(f"unknown process {pid!r}") from None
        self._pids = tuple(p for p in self._pids if p != pid)
        self._others.clear()
        self._receiver_codes.clear()
        self._topology_receivers.clear()
        self._departed.add(pid)
        self._epoch += 1
        return process

    def process(self, pid: str) -> "Process":
        return self._processes[pid]

    @property
    def process_ids(self) -> Tuple[str, ...]:
        return self._pids

    def correct_process_ids(self) -> Tuple[str, ...]:
        """Processes that are neither crashed nor Byzantine."""
        return tuple(p.pid for p in self._processes.values() if p.is_correct)

    # -- message plane ---------------------------------------------------------------

    def add_message_filter(self, allows: Callable[[str, str], bool]) -> None:
        """Install a ``(sender, receiver) -> bool`` edge filter.

        Fault models (partitions, eclipses) install these through
        scheduled simulator events; a fan-out blocked by any active
        filter counts as sent + dropped and consumes no channel
        randomness — exactly like a filtered receiver list.
        """
        self._message_filters.append(allows)

    def remove_message_filter(self, allows: Callable[[str, str], bool]) -> None:
        """Remove a previously installed edge filter (partition heal)."""
        self._message_filters.remove(allows)

    def _filter_allows(self, sender: str, receiver: str) -> bool:
        return all(allows(sender, receiver) for allows in self._message_filters)

    def send(self, sender: str, receiver: str, kind: str, payload: Any) -> bool:
        """Send one message; returns ``False`` if the channel dropped it."""
        if sender not in self._processes:
            # A departed (deregistered) process can no longer reach the
            # fabric; its late sends are silently absorbed.
            return False
        if receiver not in self._processes:
            if receiver in self._departed:
                self.messages_sent += 1
                self.messages_quarantined += 1
                return False
            raise KeyError(f"unknown receiver {receiver!r}")
        if self._message_filters and not self._filter_allows(sender, receiver):
            self.messages_sent += 1
            self.messages_dropped += 1
            return False
        now = self.simulator.now
        message = Message(sender, receiver, kind, payload, now)
        self.messages_sent += 1
        if self._parked:
            self._flush_parked()  # the parked relays drew before this send
        delay = self.channel.delay_for(sender, receiver, now)
        if delay is None:
            self.messages_dropped += 1
            return False
        self.simulator.call_at(now + delay, self._deliver, message)
        return True

    def multicast(
        self, sender: str, receivers: Sequence[str], kind: str, payload: Any
    ) -> int:
        """Send one payload to many receivers; returns messages not dropped.

        Builds a single shared envelope, draws every fan-out delay in one
        batched channel call, and bulk-inserts the deliveries — one int
        code per recipient instead of one :class:`Message` plus one
        closure.  Stream- and order-identical to the per-recipient scalar
        loop (see the module docstring).
        """
        processes = self._processes
        if sender not in processes:
            return 0
        if any(pid not in processes for pid in receivers):
            kept = []
            for pid in receivers:
                if pid in processes:
                    kept.append(pid)
                elif pid in self._departed:
                    self.messages_sent += 1
                    self.messages_quarantined += 1
                else:
                    raise KeyError(f"unknown receiver {pid!r}")
            receivers = kept
        return self._multicast_trusted(sender, receivers, kind, payload)

    def _multicast_trusted(
        self, sender: str, receivers: Sequence[str], kind: str, payload: Any
    ) -> int:
        """The multicast fast path: receivers already known to be registered.

        Inside a multicast span (``_park_limit`` set) a block-sized
        fan-out whose every delivery the channel's delay floor puts past
        the span's last entry is parked (:meth:`_park`) instead.  Any
        other fan-out flushes the parked ones first, so the channel is
        drawn in relay order.
        """
        attempted = len(receivers)
        simulator = self.simulator
        now = simulator.now
        limit = self._park_limit
        if (
            limit is not None
            and attempted >= 16
            and not self._message_filters
            and type(receivers) is tuple
            and sender not in receivers
        ):
            floor = self.channel.delay_floor(now)
            if floor is not None and now + floor > limit:
                return self._park(sender, receivers, kind, payload, now)
        if self._parked:
            self._flush_parked()
        if self._message_filters:
            # Filtered pairs are dropped before the channel draw, so a
            # partition consumes no randomness for severed edges — the
            # batched path stays stream-identical to the scalar loop.
            receivers = [
                pid for pid in receivers if self._filter_allows(sender, pid)
            ]
        envelope = Message(sender, MULTICAST, kind, payload, now)
        delays = batched_delays(self.channel, sender, receivers, now)
        slot = self._claim_slot(envelope, now)
        base = slot << _SLOT_SHIFT
        index = self._receiver_index
        scheduled = simulator.schedule_fanout(
            delays,
            self._deliver_multicast,
            [base | index[pid] for pid in receivers],
        )
        if scheduled == 0:
            self._envelopes[slot] = self._envelope_blocks[slot] = None
            self._free_slots.append(slot)
        else:
            if scheduled < len(delays):
                delays = [delay for delay in delays if delay is not None]
            heapq.heappush(self._in_flight, (now + max(delays), slot))
        self.messages_sent += attempted
        self.messages_dropped += attempted - scheduled
        return scheduled

    def _park(
        self, sender: str, receivers: Tuple[str, ...], kind: str, payload: Any, now: float
    ) -> int:
        """Relay now, draw and schedule at the flush: claim the slot and the seqs.

        The envelope slot, the ``k`` sequence numbers and the sent count
        are taken here, in relay order, exactly as an unparked fan-out
        takes them; only the channel draw and the queue insert wait for
        :meth:`_flush_parked`.
        """
        k = len(receivers)
        slot = self._claim_slot(Message(sender, MULTICAST, kind, payload, now), now)
        cached = self._receiver_codes.get(id(receivers))
        if cached is not None and cached[0] is receivers:
            indexes = cached[1]
        else:
            index = self._receiver_index
            indexes = np.fromiter((index[pid] for pid in receivers), dtype=np.int64, count=k)
            self._receiver_codes[id(receivers)] = (receivers, indexes)
        base = self.simulator._array_core.reserve(k)
        self._parked.append((sender, receivers, now, slot, base, indexes))
        self.messages_sent += k
        return k

    def _flush_parked(self) -> None:
        """Schedule every parked relay: one channel draw and one fan-out block.

        The draw takes the parked fan-outs in relay order
        (:func:`batched_delays_many`), so it consumes the channel exactly
        as their unparked draws would have; each entry gets the seq its
        relay reserved and the code of its slot and receiver, and each
        slot its last delivery time in ``_in_flight``.
        """
        parked, self._parked = self._parked, []
        _, receiver_sets, nows, slots, bases, indexes = zip(*parked)
        delays = batched_delays_many(self.channel, [entry[:3] for entry in parked])
        counts = np.fromiter(map(len, receiver_sets), dtype=np.int64, count=len(parked))
        starts = np.zeros(len(parked), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        times = np.repeat(np.array(nows, dtype=np.float64), counts) + delays
        seqs = np.arange(len(times), dtype=np.int64) + np.repeat(
            np.array(bases, dtype=np.int64) - starts, counts
        )
        codes = np.concatenate(indexes) | np.repeat(
            np.array(slots, dtype=np.int64) << _SLOT_SHIFT, counts
        )
        self.simulator._array_core.schedule_reserved(times, seqs, self._deliver_multicast, codes)
        in_flight = self._in_flight
        for last, slot in zip(np.maximum.reduceat(times, starts).tolist(), slots):
            heapq.heappush(in_flight, (last, slot))

    def _claim_slot(self, envelope: Message, now: float) -> int:
        """An envelope-table slot for ``envelope``, recycling what is behind ``now``."""
        self._recycle_slots(now)
        block_id = None
        if envelope.kind == "block" and type(envelope.payload) is self._announcement:
            block_id = envelope.payload.block.block_id
        free = self._free_slots
        if free:
            slot = free.pop()
            self._envelopes[slot] = envelope
            self._envelope_blocks[slot] = block_id
            return slot
        self._envelopes.append(envelope)
        self._envelope_blocks.append(block_id)
        return len(self._envelopes) - 1

    def _recycle_slots(self, now: float) -> None:
        """Free every slot whose last delivery time is before ``now``.

        Nothing still queued is timed before the clock, so no pending
        code can name such a slot.
        """
        in_flight = self._in_flight
        envelopes = self._envelopes
        blocks = self._envelope_blocks
        free = self._free_slots
        while in_flight and in_flight[0][0] < now:
            slot = heapq.heappop(in_flight)[1]
            envelopes[slot] = blocks[slot] = None
            free.append(slot)

    def broadcast(self, sender: str, kind: str, payload: Any, include_self: bool = True) -> int:
        """Fan out to the sender's topology neighbors; returns messages not dropped.

        Under the default :class:`~repro.network.topology.FullMesh` this
        reaches every registered process, exactly as before topologies
        existed; other topologies restrict the receiver list (gossip
        samples, committee members, shard + gateways, ...).
        """
        if sender not in self._processes:
            # Departed (deregistered) senders cannot reach the fabric.
            return 0
        receivers = self._broadcast_receivers(sender, include_self)
        return self._multicast_trusted(sender, receivers, kind, payload)

    def _broadcast_receivers(self, sender: str, include_self: bool) -> Sequence[str]:
        """The receiver list of one broadcast, with per-sender caching.

        Full mesh keeps the historical fast path (the registered tuple /
        the ``_others`` exclusion cache).  Static topologies are asked
        once per ``(sender, include_self)`` and validated against the
        process table; dynamic topologies are consulted per call (they
        draw from their own seeded generator and sample only registered
        pids by construction).
        """
        if self._fullmesh:
            if include_self:
                return self._pids
            receivers = self._others.get(sender, None)
            if receivers is None:
                receivers = tuple(pid for pid in self._pids if pid != sender)
                self._others[sender] = receivers
            return receivers
        topology = self.topology
        if not topology.static:
            return topology.receivers(sender, self._pids, include_self)
        key = (sender, include_self)
        receivers = self._topology_receivers.get(key, None)
        if receivers is None:
            receivers = tuple(topology.receivers(sender, self._pids, include_self))
            processes = self._processes
            for pid in receivers:
                if pid not in processes:
                    raise KeyError(
                        f"topology {topology!r} names unknown receiver {pid!r}"
                    )
            self._topology_receivers[key] = receivers
        return receivers

    def _deliver(self, message: Message) -> None:
        self._deliver_one(message.receiver, message)

    def _deliver_multicast(self, code: int) -> None:
        """Deliver the envelope in slot ``code >> 16`` to receiver ``code & 0xFFFF``."""
        self._deliver_one(
            self._receiver_pids[code & _RECEIVER_MASK], self._envelopes[code >> _SLOT_SHIFT]
        )

    def _deliver_one(self, pid: str, message: Message) -> None:
        """Deliver ``message`` to ``pid`` under the departed/liveness guards.

        The single helper behind :meth:`_deliver` (point-to-point, pid
        read off the message) and :meth:`_deliver_multicast` (shared
        envelope, pid decoded beside it): a departed pid quarantines the
        message, a dead process drops it silently, a live one receives it.
        """
        process = self._processes.get(pid)
        if process is None:
            # Receiver deregistered between send and delivery (dynamic
            # membership): the message is quarantined, not delivered.
            self.messages_quarantined += 1
            return
        if process.alive:
            self.messages_delivered += 1
            process.on_message(message)

    def _deliver_span(self, times, seqs, args, pos, end, until, cell) -> int:
        """Batch-dispatch a span of consecutive ``_deliver_multicast`` events.

        Invoked by the drain loop for run entries ``pos:end`` that all
        share the interned ``_deliver_multicast``; each arg is an int code
        ``slot << 16 | receiver index``.  ``cell[0]`` tracks the consumed
        count for the drain loop's exception accounting; the return value
        is the total consumed (>= 1).

        The span is cut once, up front, where the scalar loop would stop:
        at ``until`` and before the overflow head (:meth:`_span_stop`).
        Only a dispatch can move the cut — by pushing an overflow event
        that sorts earlier — so it is recomputed after a dispatch whenever
        the overflow heap holds anything.

        A stretch of duplicate ``BlockAnnouncement`` deliveries — the bulk
        of an LRC flood, where every block reaches every replica once per
        relayer — is accounted in one step.  A code is a duplicate when
        its slot's block id is in the seen-set the skip table holds for
        its receiver (:meth:`_refresh_skip_table`: only for a registered,
        live receiver whose hooks are the stock ones).  Its scalar path is
        ``on_message -> transport.handle -> seen-set hit -> None``:
        nothing recorded, nothing mutated, the delivered counter bumped.
        So the stretch moves the delivered and consumed counts and the
        clock, and nothing else.

        The delivery that ends a stretch goes through the scalar-exact
        path: departed pids are quarantined, dead ones dropped, a live
        receiver gets ``on_message``.

        While the span runs, ``_park_limit`` is the time of its last entry
        (lowered whenever an overflow cut moves ``stop``), and relays whose
        channel floor puts them past it are parked; every exit from the
        span flushes them (see the module docstring).
        """
        sim = self.simulator
        processes = self._processes
        overflow = sim._array_core._overflow
        stop = self._span_stop(times, seqs, pos, end, until)
        if self._skip_epoch != self._epoch:
            self._refresh_skip_table()
        skip = self._skip_table
        blocks = self._envelope_blocks
        envelopes = self._envelopes
        pids = self._receiver_pids
        # Relays made while this span runs may be parked (see
        # ``_multicast_trusted``) if the channel promises a floor.
        if getattr(self.channel, "delay_floor", None) is not None:
            self._park_limit = times[stop - 1]
        delivered = 0
        quarantined = 0
        count = 0
        k = pos
        # Callbacks never advance the clock themselves (only the drain
        # does), so the comparisons can run against a local mirror of
        # ``sim.now``.
        now = sim.now
        try:
            while k < stop:
                code = args[k]
                if blocks[code >> 16] in skip[code & 0xFFFF]:
                    for j in range(k + 1, stop):
                        code = args[j]
                        if blocks[code >> 16] not in skip[code & 0xFFFF]:
                            break
                    else:
                        j = stop
                    delivered += j - k
                    count += j - k
                    k = j
                    if times[k - 1] > now:
                        now = times[k - 1]
                        sim.now = now
                    if k == stop:
                        break
                time = times[k]
                if time > now:
                    now = time
                    sim.now = time
                process = processes.get(pids[code & 0xFFFF])
                count += 1
                k += 1
                if process is None:
                    quarantined += 1
                    continue
                if not process.alive:
                    continue
                delivered += 1
                process.on_message(envelopes[code >> 16])
                # The dispatch may have pushed an overflow event that cuts
                # the span earlier, or changed membership or liveness.
                if overflow:
                    stop = self._span_stop(times, seqs, k, stop, until)
                    if self._park_limit is not None:
                        self._park_limit = times[stop - 1]
                if self._skip_epoch != self._epoch:
                    self._refresh_skip_table()
                    skip = self._skip_table
        finally:
            self._park_limit = None
            if self._parked:
                self._flush_parked()
            # ``cell[0]`` is only read by the drain loop when the handler
            # raised mid-span; keeping it current here (instead of per
            # event) takes a store off the skip path.
            cell[0] = count
            self.messages_delivered += delivered
            self.messages_quarantined += quarantined
        return count

    def _span_stop(self, times, seqs, lo: int, end: int, until: Optional[float]) -> int:
        """First position in ``[lo, end)`` the scalar loop would not reach.

        That is the first event past ``until`` or sorting after the head
        of the overflow heap, whichever comes first (the run is in
        ``(time, seq)`` order, so both are cuts).
        """
        stop = end
        if until is not None and lo < end and times[end - 1] > until:
            stop = bisect_right(times, until, lo, end)
        overflow = self.simulator._array_core._overflow
        if overflow and lo < stop:
            head_time, head_seq = overflow[0][0], overflow[0][1]
            if times[stop - 1] >= head_time:
                cut = bisect_left(times, head_time, lo, stop)
                while cut < stop and times[cut] == head_time and seqs[cut] < head_seq:
                    cut += 1
                stop = cut
        return stop

    def _refresh_skip_table(self) -> None:
        """Rebuild the receiver-index -> seen-set table for this epoch.

        A receiver's duplicates are skipped against
        :meth:`Process.batch_dup_seen` — only non-``None`` when both hooks
        on the scalar duplicate path are the stock ones — and only while
        it is registered and alive; every other index gets ``_NO_SKIP``.
        """
        processes = self._processes
        table = []
        for pid in self._receiver_pids:
            process = processes.get(pid)
            seen = None
            if process is not None and process.alive:
                seen = process.batch_dup_seen()
            table.append(_NO_SKIP if seen is None else seen)
        self._skip_table = table
        self._skip_epoch = self._epoch

    # -- pickling (checkpoint support) ---------------------------------------------

    def __getstate__(self):
        # A snapshot holds only the envelopes still in flight; the skip
        # table is rebuilt on the first multicast span after a restore,
        # the receiver-code cache on the first parked relay.  Snapshots
        # are taken between drains, and every span flushes what it parked.
        assert not self._parked, "a snapshot was taken with relays parked"
        self._recycle_slots(self.simulator.now)
        state = self.__dict__.copy()
        state["_skip_table"] = []
        state["_skip_epoch"] = -1
        state["_receiver_codes"] = {}
        return state

    def __setstate__(self, state):
        if "_envelopes" not in state:
            raise StaleSnapshotError(
                "cannot restore this network snapshot: it was taken when a "
                "multicast delivery was a (pid, envelope) tuple (it is an int "
                "code into the envelope table now); re-run instead of resuming"
            )
        # Snapshots from before relays were parked lack the parking state.
        self._parked = []
        self._park_limit = None
        self._receiver_codes = {}
        self.__dict__.update(state)

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> None:
        """Invoke ``on_start`` on every process (at time 0)."""
        for process in self._processes.values():
            process.on_start()

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 1_000_000,
        *,
        checkpoint_every: Optional[int] = None,
        checkpoint_sink: Optional[Callable[[Simulator], None]] = None,
    ) -> int:
        """Convenience: start (if not already) is caller's business; run the clock."""
        return self.simulator.run(
            until=until,
            max_events=max_events,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=checkpoint_sink,
        )

    def history(self):
        """The concurrent history recorded so far."""
        return self.recorder.history()
