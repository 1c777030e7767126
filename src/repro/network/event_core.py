"""Array-native event calendar for the discrete-event simulator.

The simulator has two event stores.  The heap core
(``Simulator(core="heap")``) keeps every pending event as a Python tuple
in one global ``heapq`` — O(log n) object-churning pushes and pops, but
no per-bucket constants, so a small run (at most :data:`BLOCK_FANOUT`
processes, no clients) drains faster on it.  This module is the other
one, the store every larger run or client population drains on
(:func:`~repro.network.simulator.core_for_run` picks): a *calendar
queue*, in which events live in per-time-slot **buckets**, each with two
stores that are merged and sorted once by ``(time, seq)`` when the
bucket is materialized.  Both hold what the heap core holds, the
callable itself beside its argument:

* scalar pushes append ``(time, seq, method, arg)`` tuples to a
  per-bucket staging list (a Python list append is ~2x faster than a
  numpy scalar row write);
* a bulk insert (:meth:`ArrayEventCore.schedule_block`, the only one: a
  fan-out, a workload block, the network's parked relays with the
  sequence numbers they took earlier through
  :meth:`~ArrayEventCore.reserve`) sends what lands in or before the
  slot being drained to the overflow heap.  A small one (fewer than
  :data:`BLOCK_FANOUT` entries) stages the rest as tuples at once; a
  larger one waits whole in one pending list, and when the next run
  starts everything pending is cut into buckets in one pass
  (:meth:`~ArrayEventCore._bucket_pending`), grouped by ``(slot,
  method)`` with one sort over all of it, each group one ``(times, seqs,
  method, args)`` block of its bucket (int64 args for a method with a
  classifier): one ``lexsort`` per bucket at drain time instead of k
  heap pushes.  When such a bucket is materialized, the method's
  classifier (:meth:`~ArrayEventCore.register_span_handler`) marks the
  events already known to be count-only — a flood's duplicate
  deliveries — *before* the sort: only the rest is sorted into the run,
  and the marked ones wait beside it, unsorted numpy arrays that are
  accounted in one step when the run ends — if the drain's budget holds
  them all, else the bucket is sorted whole and the span handler takes them.

Materializing a bucket collapses equal callables to one object (each
``network._deliver_multicast`` access is a fresh bound method), so the
drain finds a span of one method by identity.

**Column events** (:meth:`ArrayEventCore.schedule_column`, the client
population) never enter the buckets.  Each column is a :class:`Lane` —
``(time, seq)``-sorted arrays and cursors — that its sink *pulls* from
(:func:`pull_lanes`) whenever it is read or written: what sorts before
the event being dispatched (its seq is ``_mark``, its time ``sim.now``).
Nothing else observes an arrival, so the drain only accounts for the
lane events it passes (:meth:`ArrayEventCore._pass_lanes`): once when it
returns, or before each dispatch while its ``max_events`` budget could
end among them.

Draining buckets what is pending, pops the lowest-slot bucket (a tiny
heap of slot numbers), sorts it once by ``(time, seq)``, and walks it
with the loop in :meth:`ArrayEventCore.drain`.  Events scheduled *into
the active slot or earlier* while it drains go to a small overflow heap
that interleaves with the run — this preserves exact ``(time, seq)``
order, so recorded histories are byte-identical to the heap core's
(asserted by the equivalence suite).  Counted duplicates are exact too:
their whole effect is two counters and the clock, and seen-sets only
grow while the network epoch stays put.  Whatever stops a drain early (``until``, the
budget, a raising callback) or moves the epoch splits them where it
stops (:meth:`ArrayEventCore._settle`): the rest go back to the store,
to be judged again.  A drain never returns with any of them pending.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ArrayEventCore",
    "BLOCK_FANOUT",
    "Lane",
    "NO_ARG",
    "COMPILED_MODULES",
    "pull_lanes",
]


class _Sentinel:
    """Identity-dispatched queue marker that survives a pickle round-trip.

    Pickles by global name (``__reduce__`` returns it) so a checkpointed
    queue entry carrying the marker restores to the *same* object — both
    cores dispatch on ``arg is NO_ARG`` identity, which a plain
    ``object()`` would break across a pickle round-trip.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __reduce__(self):
        return self.name


#: Sentinel marking "call the method with no argument" (``schedule``/
#: ``schedule_at``): not ``None``, so ``call_at(t, fn, None)`` still calls
#: ``fn(None)``.  The heap core in :mod:`repro.network.simulator` imports
#: this as ``_NO_ARG`` so both cores dispatch through the same identity check.
NO_ARG = _Sentinel("NO_ARG")

#: The insert size from which a bulk insert waits whole for the next run's
#: bucketing pass (:meth:`ArrayEventCore.schedule_block`; a smaller one is
#: staged row by row) and a relay made inside a multicast span may be parked
#: (``Network._multicast_trusted``).  A run of at most this many processes
#: has almost nothing to batch, so it drains on the heap core
#: (:func:`~repro.network.simulator.core_for_run`).
BLOCK_FANOUT = 16


#: Only reader: the frozen ledger's fingerprint (ledger/run.py:136); ROADMAP item 1 removes both.
COMPILED_MODULES = {"_drain": False, "_hotpath": False}

_INF = float("inf")


def refuse_time(time: float, now: float) -> None:
    """Raise the :class:`ValueError` for an event ``time`` that is not in ``[now, inf)``.

    The entry points test ``now <= time < inf`` (one chained comparison,
    which NaN fails too) and call this only when it fails.
    """
    if time < now:
        raise ValueError("cannot schedule into the past")
    raise ValueError(f"event times must be finite, got {time!r}")


def _listed(values: Any) -> Any:
    """``values`` as a list: an array's ``tolist()``, a list itself."""
    return values.tolist() if type(values) is np.ndarray else values


def check_times(now: float, times: Any) -> None:
    """Refuse a block holding a time before ``now``, a NaN or an infinity.

    An array is read through its ``min`` and ``max``, which a NaN reaches;
    a list (a multicast's) entry by entry, which costs less than numpy's
    constants and, unlike the built-in ``min``/``max``, misses no NaN.
    """
    if type(times) is np.ndarray:
        lo = float(times.min())
        hi = float(times.max())
        if not now <= lo <= hi < _INF:
            refuse_time(lo if lo < now else hi, now)
        return
    for time in times:
        if not now <= time < _INF:
            refuse_time(time, now)


class _Bucket:
    """Events of one time slot, merged and sorted once when materialized.

    ``blocks`` holds this slot's shares of fan-outs as ``(times, seqs,
    method, args)`` views (appending one is O(1), no per-bucket numpy
    fill); ``stage`` holds scalar pushes as ``(time, seq, method, arg)``
    tuples.
    """

    __slots__ = ("blocks", "stage")

    def __init__(self) -> None:
        self.blocks: List[Tuple[Any, Any, Callable, Any]] = []
        self.stage: List[Tuple[float, int, Callable, Any]] = []


class Lane:
    """One column's arrivals for one sink (:meth:`ArrayEventCore.schedule_column`).

    ``times``/``values`` are sorted by ``(time, seq)``; the seq of entry
    ``i`` is ``base + i`` when the column came in time order (every
    population stream does), ``seqs[i]`` otherwise.  Two cursors only
    move forward: ``pos``, what the sink has pulled (``head`` is the next
    entry's time, ``inf`` past the end), and ``counted``, what the core
    has accounted as processed.
    """

    __slots__ = ("sim", "sink", "times", "seqs", "base", "values", "pos", "head", "counted")

    def __init__(self, sim, sink, times, seqs, base, values) -> None:
        self.sim, self.sink, self.times, self.seqs = sim, sink, times, seqs
        self.base, self.values = base, values
        self.pos = self.counted = 0
        self.head = float(times[0])

    def cut(self, time: float, seq: int, lo: int) -> int:
        """First position from ``lo`` on that does not sort before ``(time, seq)``."""
        times = self.times
        if lo == len(times) or times[lo] > time:
            return lo
        at = int(times.searchsorted(time))
        if at < len(times) and times[at] == time:
            hi = int(times.searchsorted(time, side="right"))
            if self.seqs is None:
                at = min(max(seq - self.base, at), hi)
            else:
                at += int(self.seqs[at:hi].searchsorted(seq))
        return max(at, lo)

    def seq_range(self, start: int, stop: int) -> np.ndarray:
        if self.seqs is None:
            return np.arange(self.base + start, self.base + stop, dtype=np.int64)
        return self.seqs[start:stop]

    def due(self) -> int:
        """End of what sorts before ``(sim.now, core._mark)``: due now."""
        sim = self.sim
        now = sim.now
        if self.head > now:
            return self.pos
        return self.cut(now, sim._array_core._mark, self.pos)

    # A snapshot keeps what is not pulled yet.

    def __getstate__(self):
        pos = self.pos
        seqs = None if self.seqs is None else self.seqs[pos:]
        return (
            self.sim, self.sink, self.times[pos:], seqs, self.base + pos,
            self.values[pos:], self.counted - pos,
        )

    def __setstate__(self, state) -> None:
        self.sim, self.sink, self.times, self.seqs, self.base, self.values, self.counted = state
        self.pos = 0
        self.head = float(self.times[0]) if len(self.times) else _INF


def pull_lanes(lanes: List[Lane]) -> Optional[np.ndarray]:
    """Take what ``lanes`` (one sink's) hold due, merged in ``(time, seq)`` order.

    Returns an int64 array, or None when nothing is due; lanes pulled to
    the end leave the list.  A sink calls this before every read or write
    of its contents (see ``Simulator.schedule_column``).
    """
    due = []
    for lane in lanes:
        stop = lane.due()
        if stop > lane.pos:
            due.append((lane, lane.pos, stop))
    if not due:
        return None
    for lane, _, stop in due:
        lane.pos = stop
        lane.head = float(lane.times[stop]) if stop < len(lane.times) else _INF
    lanes[:] = [lane for lane in lanes if lane.head != _INF]
    if len(due) == 1:
        lane, start, stop = due[0]
        return lane.values[start:stop]
    times = np.concatenate([lane.times[start:stop] for lane, start, stop in due])
    seqs = np.concatenate([lane.seq_range(start, stop) for lane, start, stop in due])
    values = np.concatenate([lane.values[start:stop] for lane, start, stop in due])
    return values[np.lexsort((seqs, times))]


class ArrayEventCore:
    """Calendar queue over numpy buckets; drop-in backend for Simulator.

    ``slot_width`` is the virtual-time span of one bucket.  It trades
    per-bucket cost against overflow traffic: events pushed into the slot
    being drained bypass the arrays through a classic heap.  A run's is
    :func:`~repro.network.simulator.slot_width_for` its channel: at most
    its delay floor, so no delivery to another process overflows, and
    dyadic, so integer-time timers open a bucket instead of cutting one.
    """

    __slots__ = (
        "slot_width",
        "_inv_width",
        "_seq",
        "_inserted",
        "_consumed",
        "_buckets",
        "_bucket_heap",
        "_pending",
        "_overflow",
        "_run_times",
        "_run_seqs",
        "_run_methods",
        "_run_args",
        "_run_pos",
        "_run_len",
        "_run_slot",
        "_counted",
        "_span_handlers",
        "_classifiers",
        "_span_cell",
        "_lanes",
        "_lane_pending",
        "_mark",
        "_draining",
    )

    def __init__(self, slot_width: float = 0.25) -> None:
        if not 0 < slot_width < _INF:
            raise ValueError("slot_width must be positive and finite")
        self.slot_width = slot_width
        self._inv_width = 1.0 / slot_width
        self._seq = 0  # same numbering as the heap core's itertools.count()
        self._inserted = 0
        self._consumed = 0
        self._buckets: Dict[int, _Bucket] = {}
        self._bucket_heap: List[int] = []
        # Blocks not yet cut into buckets, ``(times, seqs, method, args)``,
        # all beyond the active slot (see ``schedule_block``).
        self._pending: List[Tuple[Any, ...]] = []
        # Events routed past the bucket plane while their slot is being
        # drained; plain (time, seq, method, arg) tuples.
        self._overflow: List[Tuple[float, int, Callable, Any]] = []
        # Active run: the materialized current bucket as parallel lists
        # ``_run_times``, ``_run_seqs``, ``_run_methods``, ``_run_args``.
        self._end_run()
        # The active run's counted duplicates, unsorted ``(times, seqs,
        # codes, method, last time)``, or None (see ``_start_next_run``).
        self._counted: Optional[Tuple[Any, ...]] = None
        # Batch dispatch: methods mapped here have same-method run spans
        # handed to their handler in one call instead of per-event
        # dispatch; the cell carries the handler's progress for
        # exception-path accounting.
        self._span_handlers: Dict[Any, Callable] = {}
        self._classifiers: Dict[Any, Callable] = {}
        self._span_cell: List[int] = [0, 0]
        # Column events: the lanes holding arrivals not yet accounted
        # (``_lane_pending`` of them), and the seq of the event being
        # dispatched (between drains: of the first one not processed),
        # which with ``sim.now`` says what a lane has due.
        self._lanes: List[Lane] = []
        self._lane_pending = 0
        self._mark = 0
        self._draining = False

    def register_span_handler(
        self, method: Callable, handler: Callable, classify: Callable, count: Callable
    ) -> None:
        """Route same-method run spans of ``method`` to ``handler``.

        The drain loop probes consecutive run entries for *identity*
        with the current method object (a run holds one object per
        distinct callable, so identity is equality) and, when
        two or more share it, calls ``handler(times, seqs, args, pos,
        end, until, budget, cell)`` instead of dispatching each event.
        It takes at most the ``budget`` events left, makes progress, and
        keeps ``cell`` at ``[events taken, run position reached]``, also
        when raising.  ``classify(codes)`` marks (nonzero) the int64 args
        whose events are only counted, and ``count(k)`` hears of ``k``
        counted ones accounted (:meth:`_start_next_run`, :meth:`_account`).
        """
        self._span_handlers[method] = handler
        self._classifiers[method] = (classify, count)

    # -- introspection ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Queued events not yet processed.

        Exact between ``run()`` calls; during a drain it lags by the
        events processed so far in that call (they are accounted in one
        step when the drain returns).
        """
        return self._inserted - self._consumed

    # -- pickling (checkpoint support) ----------------------------------------

    def __getstate__(self):
        # Every sink of a lane pulls what it has due, so a lane is pickled
        # with its cursors settled whichever is pickled first.
        for lane in self._lanes:
            lane.sink.pull()
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        # A sink keeps its lanes out of its own pickled state.
        for lane in self._lanes:
            lane.sink.add_lane(lane)

    # -- insertion -------------------------------------------------------------

    def push(self, time: float, method: Callable, arg: Any) -> int:
        """Insert one event; returns its sequence number."""
        seq = self._seq
        self._seq = seq + 1
        self._inserted += 1
        slot = int(time * self._inv_width)
        run_slot = self._run_slot
        if run_slot is not None and slot <= run_slot:
            heappush(self._overflow, (time, seq, method, arg))
            return seq
        self._bucket(slot).stage.append((time, seq, method, arg))
        return seq

    def schedule_block(
        self, times: Any, method: Callable, args: Any, now: Optional[float] = None, seqs: Any = None
    ) -> int:
        """Bulk insert one shared ``method`` at ``times[i]`` with ``args[i]``.

        The one bulk entry point: ``times`` a float64 array or a list of
        floats, ``args`` a list or an int64 array (never mutated), seqs in
        array order or ``seqs``, taken earlier with :meth:`reserve` (parked
        relays).  What lands in or before the slot being drained goes to
        the overflow heap.  Of a block of :data:`BLOCK_FANOUT` entries or
        more the rest waits whole in ``_pending`` until the next run starts
        (:meth:`_bucket_pending`); a smaller one is staged row by row
        (:meth:`_stage`).  Given ``now``, a time before it, a NaN or an
        infinity is refused before any insert.
        """
        k = len(times)
        if k == 0:
            return 0
        if now is not None:
            check_times(now, times)
        if seqs is None:
            base = self.reserve(k)
            seqs = range(base, base + k)
            if k >= BLOCK_FANOUT:
                seqs = np.arange(base, base + k, dtype=np.int64)
        if k < BLOCK_FANOUT:  # a small insert: its rows cost less than numpy's constants
            self._stage(times, seqs, method, args)
            return k
        times = np.asarray(times, dtype=np.float64)
        run_slot = self._run_slot
        if run_slot is not None and int(times.min() * self._inv_width) <= run_slot:
            late = (times * self._inv_width).astype(np.int64) > run_slot
            flags = late.tolist()
            for time, seq, arg, wait in zip(times.tolist(), seqs.tolist(), _listed(args), flags):
                if not wait:
                    heappush(self._overflow, (time, seq, method, arg))
            if not late.any():
                return k
            times, seqs = times[late], seqs[late]
            args = args[late] if type(args) is np.ndarray else list(compress(args, flags))
        self._pending.append((times, seqs, method, args))
        return k

    def reserve(self, k: int) -> int:
        """Take the next ``k`` sequence numbers, pending from here on, for a
        later :meth:`schedule_block` (``seqs=``); returns the first."""
        base = self._seq
        self._seq = base + k
        self._inserted += k
        return base

    def schedule_column(self, sim, times: np.ndarray, values: np.ndarray, sink: Any) -> int:
        """Register *column events*: ``sink`` receives ``values[i]`` at ``times[i]``.

        Accounted as ``schedule_block(times, sink.append, values.tolist(),
        sim.now)``, but kept out of the buckets as one :class:`Lane` handed to
        ``sink.add_lane``.  A running drain sized its budget check by the
        lanes it started with, so a column scheduled from a callback is
        inserted as those ``sink.append`` events instead.
        """
        k = len(times)
        if k == 0:
            return 0
        now = sim.now
        check_times(now, times)
        if self._draining:
            return self.schedule_block(times, sink.append, values.tolist())
        base = self.reserve(k)
        seqs = None
        if k > 1 and bool((times[1:] < times[:-1]).any()):
            # The stable sort keeps seqs ascending among equal times.
            # (A population's stream arrives time-sorted: nothing to do.)
            order = np.argsort(times, kind="stable")
            times = times[order]
            values = values[order]
            seqs = order + base
        lane = Lane(sim, sink, times, seqs, base, values)
        self._lanes.append(lane)
        self._lane_pending += k
        sink.add_lane(lane)
        return k

    # -- drain -----------------------------------------------------------------

    def drain(self, sim, until: Optional[float], max_events: int) -> int:
        """Process queued events in ``(time, seq)`` order; returns the count.

        Mirrors the heap core's run loop contract: stops once the next event
        would pass ``until`` (leaving it queued), stops at ``max_events``,
        advances ``sim.now`` before each dispatch, and accounts processed
        events on the simulator even if a callback raises (the event that
        raised is consumed but not processed, as the heap core pops it
        uncounted).  The run cursor
        is kept in a local and written back on every exit path (including
        exceptions); the loop itself is the only reader in between.

        Each pop compares the head of the active run with the head of the
        overflow heap; when both are exhausted the run's counted
        duplicates are accounted (:meth:`_account`) and the next bucket is
        materialized (:meth:`_start_next_run`).

        Lane events and counted duplicates count as processed but are never
        dispatched.  While there are either, ``stop`` lies below every time,
        so each event takes the branch that publishes its seq as ``_mark``.
        Below ``limit`` (the budget less both, not yet accounted; a run
        counts duplicates only when all fit) the budget cannot end among
        them.  At ``limit`` the counted ones are settled at the next event
        (:meth:`_settle`); from there on (``exact``) each event first
        accounts the lane events sorting before it and is dispatched alone,
        so the drain stops at exactly the budget.

        Batch dispatch: when two or more *consecutive* run entries share
        one method — detected by object identity, since a run holds one
        object per distinct callable (:meth:`_start_next_run`) — and it has
        a span handler (:meth:`register_span_handler`), the whole span is
        handed to the handler in one call.  The handler replays the scalar
        clock/guard protocol itself (``Network._deliver_span``, which
        publishes ``_mark`` before each callback) and reports progress
        through ``cell`` so exception-path accounting stays exact.

        When ``sim.callback_timer`` is set (``timed_callbacks()`` profiling),
        each dispatch is bracketed with the timer and accumulated onto
        ``sim.callback_seconds`` — the ledger row
        ``network.simulator.callback_s``.
        """
        processed = 0
        overflow = self._overflow
        no_arg = NO_ARG
        pos = self._run_pos
        now = sim.now
        spans = self._span_handlers
        cell = self._span_cell
        timer = getattr(sim, "callback_timer", None)
        # Span end-scan memo: the run arrays are immutable while the run is
        # active (mid-run schedules go to the overflow heap), so a scanned
        # span boundary stays valid for the whole run.  Without the memo an
        # overflow preemption mid-span would force a rescan of the remaining
        # region on every resume — quadratic on callback-heavy floods.
        span_end = 0
        span_method = None
        horizon = _INF if until is None else until
        # With lanes, every event takes the branch that publishes its seq.
        stop = -1.0 if self._lanes else horizon
        limit = max_events - self._lane_pending
        exact = False  # each event first accounts the lane events before it
        stopped = None  # the horizon, once the drain reached it or ran dry
        cut = False  # the budget ended among lane events
        self._draining = True
        try:
            while True:
                if self._counted is not None and (
                    processed >= limit or pos >= self._run_len and not overflow
                ):
                    # The budget may end among the counted duplicates, or the
                    # run has: settle them at the next event or the horizon.
                    head = (horizon, _INF)
                    if overflow:
                        head = min(head, overflow[0][:2])
                    if pos < self._run_len:
                        head = min(head, (self._run_times[pos], self._run_seqs[pos]))
                    processed += self._account(sim, *head)
                    limit = max_events - self._lane_pending
                    stop = -1.0 if self._lanes else horizon  # (never ``exact`` here)
                    continue
                if processed >= limit:
                    if processed >= max_events:
                        break
                    limit = max_events
                    exact = bool(self._lanes)
                    stop = -1.0 if exact else horizon
                if pos >= self._run_len and not overflow:
                    self._run_pos = pos
                    if not self._start_next_run(max_events - self._lane_pending - processed):
                        stopped = horizon
                        break
                    pos = 0
                    span_end = 0
                    span_method = None
                    if self._counted is not None:
                        limit = min(limit, max_events - self._lane_pending - len(self._counted[0]))
                        stop = -1.0  # a moved epoch settles them at ``_mark``
                run_times = self._run_times
                run_seqs = self._run_seqs
                run_methods = self._run_methods
                run_args = self._run_args
                length = self._run_len
                while processed < limit:
                    from_overflow = False
                    if pos < length:
                        time = run_times[pos]
                        if overflow:
                            head = overflow[0]
                            head_time = head[0]
                            if head_time < time or (
                                head_time == time and head[1] < run_seqs[pos]
                            ):
                                from_overflow = True
                                time = head_time
                    elif overflow:
                        time = overflow[0][0]
                        from_overflow = True
                    else:
                        break
                    if time > stop:
                        if time > horizon:
                            stopped = horizon
                            break
                        seq = overflow[0][1] if from_overflow else run_seqs[pos]
                        if exact:
                            passed, cut = self._pass_lanes(sim, time, seq, max_events - processed)
                            processed += passed
                            if cut:
                                break
                            limit = processed + 1
                        self._mark = seq
                    if from_overflow:
                        method = None
                        _, _, method, arg = heappop(overflow)
                    else:
                        method = run_methods[pos]
                        if (
                            spans
                            and pos + 1 < length
                            and run_methods[pos + 1] is method
                        ):
                            handler = spans.get(method)
                            if handler is not None:
                                if method is span_method and pos < span_end:
                                    end = span_end
                                else:
                                    end = pos + 2
                                    while end < length and run_methods[end] is method:
                                        end += 1
                                    span_method = method
                                    span_end = end
                                cell[0] = 0
                                cell[1] = pos
                                t0 = 0.0 if timer is None else timer()
                                try:
                                    handler(
                                        run_times, run_seqs, run_args,
                                        pos, end, until, limit - processed, cell,
                                    )
                                    if timer is not None:
                                        sim.callback_seconds += timer() - t0
                                finally:
                                    processed += cell[0]
                                    pos = cell[1]
                                    now = sim.now
                                continue
                        arg = run_args[pos]
                        pos += 1
                    if time > now:
                        now = time
                        sim.now = time
                    if timer is None:
                        if arg is no_arg:
                            method()
                        else:
                            method(arg)
                    else:
                        t0 = timer()
                        if arg is no_arg:
                            method()
                        else:
                            method(arg)
                        sim.callback_seconds += timer() - t0
                    processed += 1
                if stopped is not None or cut:
                    break
            processed += self._account(sim, horizon, _INF)  # the horizon stopped a run
            if stopped is not None and self._lanes:
                processed += self._pass_lanes(sim, stopped, self._seq, max_events - processed)[0]
            # Leave the mark past what was processed and short of what was not:
            # the smallest seq a lane has left at the time of the last event.
            mark = self._seq
            now = sim.now
            for lane in self._lanes:
                if lane.times[lane.counted] == now:
                    mark = min(mark, int(lane.seq_range(lane.counted, lane.counted + 1)[0]))
            self._mark = mark
        except BaseException:
            # The counted ones sorting before the event that raised were processed.
            processed += self._account(sim, sim.now, self._mark)
            if self._lanes:
                # The lane events sorting before the one that raised were passed.
                processed += self._pass_lanes(sim, sim.now, self._mark, max_events - processed)[0]
            # The event whose callback raised has left the store uncounted
            # (a span handler counts a delivery once ``on_message`` returns).
            self._consumed += 1
            raise
        finally:
            self._draining = False
            self._run_pos = pos
            sim.events_processed += processed
            self._consumed += processed
        return processed

    def epoch_moved(self, now: float) -> None:
        """Marks may be stale from the event being dispatched (``now``,
        ``_mark``) on: the counted ones sorting after it go back (:meth:`_settle`)."""
        if self._counted is not None:
            self._settle(now, self._mark)

    def _settle(self, time: float, seq: float) -> None:
        """Split the counted duplicates where a drain stops or the epoch moves.

        Those sorting before ``(time, seq)`` stay counted; the rest go back
        to the overflow heap as ordinary events, for the scalar path.
        """
        times, seqs, codes, method, last = self._counted
        if last < time:
            return
        later = (times > time) | ((times == time) & (seqs >= seq))
        back = np.flatnonzero(later)
        if not back.size:
            return
        overflow = self._overflow
        overflow.extend(
            zip(times[back].tolist(), seqs[back].tolist(), repeat(method), codes[back].tolist())
        )
        heapify(overflow)
        kept = np.flatnonzero(np.logical_not(later, out=later))
        times, self._counted = times[kept], None
        if kept.size:
            self._counted = (times, seqs[kept], codes[kept], method, float(times.max()))

    def _account(self, sim, time: float = _INF, seq: float = 0) -> int:
        """Take the counted duplicates sorting before ``(time, seq)`` as processed
        and delivered, the clock up to the last of them (:meth:`_settle` sends
        the rest back); returns how many."""
        if self._counted is not None:
            self._settle(time, seq)
        counted, self._counted = self._counted, None
        if counted is None:
            return 0
        times, _, _, method, last = counted
        if last > sim.now:
            sim.now = last
        self._classifiers[method][1](len(times))
        return len(times)

    def _pass_lanes(self, sim, time: float, seq: int, budget: int) -> Tuple[int, bool]:
        """Account the lane events sorting before ``(time, seq)`` as processed.

        At most ``budget`` of them, the first in ``(time, seq)`` order:
        returns ``(count, cut)``, ``cut`` when that used the budget up.
        The clock moves up to the last one accounted.
        """
        lanes = self._lanes
        ends = [lane.cut(time, seq, lane.counted) for lane in lanes]
        count = sum(ends) - sum(lane.counted for lane in lanes)
        cut = 0 < budget <= count
        if cut:
            due = list(zip(lanes, ends))
            times = np.concatenate([lane.times[lane.counted : end] for lane, end in due])
            seqs = np.concatenate([lane.seq_range(lane.counted, end) for lane, end in due])
            last = np.lexsort((seqs, times))[budget - 1]
            time, seq = float(times[last]), int(seqs[last]) + 1
            ends = [lane.cut(time, seq, lane.counted) for lane in lanes]
            count = budget
        if count:
            last = max(
                float(lane.times[end - 1]) for lane, end in zip(lanes, ends) if end > lane.counted
            )
            if last > sim.now:
                sim.now = last
            for lane, end in zip(lanes, ends):
                lane.counted = end
            self._lane_pending -= count
            self._lanes = [lane for lane in lanes if lane.counted < len(lane.times)]
        return count, cut

    def _bucket(self, slot: int) -> _Bucket:
        """The bucket of ``slot``, opened (and its slot heaped) if need be."""
        bucket = self._buckets.get(slot)
        if bucket is None:
            bucket = self._buckets[slot] = _Bucket()
            heappush(self._bucket_heap, slot)
        return bucket

    def _stage(self, times, seqs, method: Callable, args) -> None:
        """Stage a small insert row by row, as :meth:`push` would, under its ``seqs``."""
        run_slot, inv, buckets = self._run_slot, self._inv_width, self._buckets
        for time, seq, arg in zip(_listed(times), _listed(seqs), _listed(args)):
            slot = int(time * inv)
            if run_slot is not None and slot <= run_slot:
                heappush(self._overflow, (time, seq, method, arg))
            else:
                (buckets.get(slot) or self._bucket(slot)).stage.append((time, seq, method, arg))

    def _columns(self, stage, blocks) -> Tuple[Any, ...]:
        """``stage`` rows and ``blocks`` as unsorted columns ``(times, seqs,
        mids, values, table, pool)``: ``mids`` index the distinct callables
        in ``table``, and ``values`` holds a block's int64 arg where its
        method has a classifier, else ``~i`` for the arg ``pool[i]``."""
        classified = self._classifiers
        index: Dict[Callable, int] = {}
        pool: List[Any] = []
        parts = []
        if stage:
            t_col, s_col, m_col, a_col = zip(*stage)
            mids = [index.setdefault(method, len(index)) for method in m_col]
            parts.append((t_col, s_col, mids, ~np.arange(len(stage), dtype=np.int64)))
            pool.extend(a_col)
        for times, seqs, method, args in blocks:
            if method in classified:
                values = np.asarray(args, dtype=np.int64)
            else:
                values = ~np.arange(len(pool), len(pool) + len(times), dtype=np.int64)
                pool.extend(_listed(args))
            mid = np.full(len(times), index.setdefault(method, len(index)), dtype=np.int64)
            parts.append((times, seqs, mid, values))
        times, seqs, mids, values = (np.concatenate(column) for column in zip(*parts))
        return times, seqs, mids, values, list(index), pool

    def _bucket_pending(self) -> None:
        """Cut every pending block into the buckets it lands in, in one pass:
        grouped by ``(slot, method)`` with one sort over all of them, each
        group is one ``(times, seqs, method, args)`` block of its bucket
        (int64 args for a method with a classifier, else a list).  Every
        pending slot lies beyond the last run's.
        """
        pending, self._pending = self._pending, []
        times, seqs, mids, values, table, pool = self._columns((), pending)
        keys = (times * self._inv_width).astype(np.int64)
        if len(table) > 1:
            keys = keys * len(table) + mids
        order = np.argsort(keys)  # the order within a group is immaterial
        keys, times, seqs, values = (column.take(order) for column in (keys, times, seqs, values))
        edges = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
        starts = [0] + edges
        edges.append(len(keys))
        for start, end, key in zip(starts, edges, keys.take(starts).tolist()):
            slot, mid = divmod(key, len(table))
            method = table[mid]
            args = values[start:end]
            if method not in self._classifiers:
                args = [pool[~i] for i in args.tolist()]
            self._bucket(slot).blocks.append((times[start:end], seqs[start:end], method, args))

    def _end_run(self) -> bool:
        """Leave no run active (returns False: no bucket was left)."""
        self._run_slot: Optional[int] = None
        self._run_times = self._run_seqs = self._run_methods = self._run_args = []
        self._run_pos = self._run_len = 0
        return False

    def _start_next_run(self, room: int) -> bool:
        """Materialize the lowest-slot bucket as the active run.

        Returns False (and clears the run marker) when no bucket is left.
        Equal callables collapse to one object, the first seen, so the
        drain's identity test finds every span of one method.  Classified
        args are marked before the sort; if at most ``room`` are, they stay
        out of it in ``_counted``, else the bucket is sorted whole.  Invariants
        relied on: every heap entry corresponds to a live bucket (buckets
        are only removed here, together with their heap entry), and while
        a run is active every live bucket's slot is strictly greater than
        ``_run_slot`` (same-or-earlier pushes were diverted to the
        overflow heap).
        """
        if self._pending:
            self._bucket_pending()
        heap = self._bucket_heap
        if not heap:
            return self._end_run()
        slot = heappop(heap)
        bucket = self._buckets.pop(slot)
        stage = bucket.stage
        blocks = bucket.blocks
        if not blocks or len(stage) + sum(len(b[0]) for b in blocks) <= 32:
            # Scalar pushes (timers, small protocol steps), perhaps with a
            # few small fan-out shares — the sparse-traffic shape: a tuple
            # merge and one list sort beat the concatenate/lexsort constants.
            rows = stage
            for bt, bs, method, bargs in blocks:
                rows.extend(zip(bt.tolist(), bs.tolist(), repeat(method), _listed(bargs)))
            rows.sort()  # seqs unique: (time, seq) decides, the rest is never compared
            times, seqs, methods, args = (list(col) for col in zip(*rows))
            first: Dict[Callable, Callable] = {}
            methods = [first.setdefault(method, method) for method in methods]
        else:
            # Merge the staged scalars and the blocks into one column set
            # (``_columns``), then sort once.
            t_all, s_all, m_all, v_all, table, pool = self._columns(stage, blocks)
            mids = [method for method in table if method in self._classifiers]
            order = None
            if len(mids) == 1:  # (not when two networks share the simulator)
                method = mids[0]
                n = len(v_all)
                # One mask buffer of a rounded size: numpy keeps freed buffers under
                # 1 KiB per size, and masks sized by every bucket would pile up there.
                work = np.zeros((2, (n + 512) & ~511), dtype=bool)
                marked = work[0, :n]
                mine = np.greater_equal(v_all, 0, out=work[1, :n])
                marked[mine] = self._classifiers[method][0](v_all[mine])
                dup = np.flatnonzero(marked)
                if 0 < dup.size <= room:
                    t_dup = t_all.take(dup)
                    last = float(t_dup.max())
                    self._counted = (t_dup, s_all.take(dup), v_all.take(dup), method, last)
                    kept = np.flatnonzero(np.logical_not(marked, out=mine))
                    order = kept.take(np.lexsort((s_all.take(kept), t_all.take(kept))))
            if order is None:
                order = np.lexsort((s_all, t_all))
            times = t_all.take(order).tolist()
            seqs = s_all.take(order).tolist()
            args = [pool[~i] if i < 0 else i for i in v_all.take(order).tolist()]
            if len(table) == 1:  # one shared callback (the common multicast bucket)
                methods = [table[0]] * len(times)
            else:
                methods = [table[i] for i in m_all.take(order).tolist()]
        self._run_times = times
        self._run_seqs = seqs
        self._run_methods = methods
        self._run_args = args
        self._run_pos = 0
        self._run_len = len(times)
        self._run_slot = slot
        return True
