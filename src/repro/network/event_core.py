"""Array-native event calendar for the discrete-event simulator.

The heap core (``Simulator(core="heap")``) stores every pending event as
a Python tuple in one global ``heapq`` — O(log n) object-churning pushes
and pops.  This module replaces that with a *calendar queue*: events
live in per-time-slot **buckets**, each with three stores that are
merged and sorted once by ``(time, seq)`` when the bucket is
materialized:

* scalar pushes append ``(time, seq, method id, arg index)`` tuples to
  a per-bucket staging list (a Python list append is ~2x faster than a
  numpy scalar row write).  The method id indexes an **interned
  method-dispatch table** (reference-counted, slots recycled when a
  bucket drains, so one-shot closures cannot exhaust it); the arg index
  points into the bucket's **arg intern pool**, dropped whole when the
  bucket drains, so no per-slot free-list bookkeeping runs on the hot
  path;
* a fan-out (:meth:`ArrayEventCore.schedule_block`) interns its shared
  method once and, unless it reaches into the slot being drained, is
  appended whole to the **fan-out log** — a deferred-split store keyed by
  method id.  The log is flushed when the next run starts and when the
  core is pickled (a snapshot never holds one): per method, one
  concatenate, one stable argsort by slot and one column block per
  touched bucket (:meth:`ArrayEventCore._split_block`, the same code
  that splits a block touching the active slot on the spot) — so a
  run's relays are bucketed once, not once per multicast — plus one
  ``lexsort`` per bucket at drain time, instead of k heap pushes.  A
  caller that took its sequence numbers earlier (:meth:`~ArrayEventCore.reserve`:
  the network's parked relays) hands its block to
  :meth:`~ArrayEventCore.schedule_reserved`, with int64 arg arrays that
  a flush decodes with one ``tolist``;
* **column events** (:meth:`ArrayEventCore.schedule_column`: a sink
  receiving ``values[i]`` at ``times[i]``, the client-population
  workload) are the third per-bucket store, of ``(times, seqs, mid, int64
  values)`` slices, ``mid`` interning ``sink.append``.  They never
  become Python objects: the materialized bucket keeps them as one
  :class:`_ColumnRun` — all its column blocks merged by one
  ``lexsort`` — and the run lists only carry one entry per *segment*,
  a ``(time, seq)``-contiguous stretch of column events between two
  events of any other kind, which the drain hands to
  ``sink.extend_column`` in one step.

Draining pops the lowest-slot bucket (a tiny heap of slot numbers),
sorts it once by ``(time, seq)``, and walks it with the loop in
:meth:`ArrayEventCore.drain`.  Events scheduled *into the active slot or
earlier* while it drains go to a small overflow heap that interleaves
with the run — this preserves exact ``(time, seq)`` order, so recorded
histories are byte-identical to the heap core's (asserted by the
equivalence suite).  A segment step is exact too: it is clipped by
``until``, by the events left in the drain call's budget and by the
overflow head (:meth:`_ColumnRun.take`), and a partly taken segment
stays in the run, re-headed, for the next step or the next snapshot.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import StaleSnapshotError

__all__ = [
    "ArrayEventCore",
    "NO_ARG",
    "COLUMN",
    "COMPILED_MODULES",
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


#: Sentinel marking "call the method with no argument".  The heap core in
#: :mod:`repro.network.simulator` re-exports this as ``_NO_ARG`` so both
#: cores dispatch through the same identity check.
NO_ARG = _Sentinel("NO_ARG")

#: Method marker of a run entry that stands for a *segment* of column
#: events (its arg is the segment's end position in the active
#: :class:`_ColumnRun`); the drain loop takes the segment in one step.
COLUMN = _Sentinel("COLUMN")


#: Only reader: the frozen ledger's fingerprint (ledger/run.py:136); ROADMAP item 1 removes both.
COMPILED_MODULES = {"_drain": False, "_hotpath": False}

_METHOD_TABLE_LIMIT = 32767  # max live method id


_BUCKET_TABLE_TAG = "bucket-table/3"

#: Why a snapshot's older bucket table cannot be read.
_STALE_BUCKET_TABLES = {
    "bucket-table/1": "written before client operations became column events",
    "bucket-table/2": "written while buckets still had a structured-array store",
}


def _pack_bucket_table(buckets):
    """Consolidate a bucket table's deferred blocks for pickling.

    A long run's pending workload lives in tens of thousands of small
    per-bucket pieces — ``(times, seqs, mid, args)`` fan-out blocks and
    ``(times, seqs, mid, values)`` column blocks; pickled one by one,
    the fixed per-array cost dominates (~8us each, regardless of size).
    Concatenating every piece into whole-table columns plus one
    per-piece metadata array turns the snapshot into a handful of large
    buffer writes.  A metadata row is ``(slot, mid, length, is_column)``:
    a fan-out block's arg list rides ``block_args`` verbatim, in row
    order; a column block's values are the next ``length`` entries of
    the int64 ``values`` column.
    """
    slots = np.fromiter(buckets.keys(), dtype=np.int64, count=len(buckets))
    rest = []  # per-bucket (stage, args) — the non-block state
    meta = []
    t_parts, s_parts, v_parts, block_args = [], [], [], []
    for slot, bucket in buckets.items():
        rest.append((bucket.stage, bucket.args))
        for bt, bs, bmid, bargs in bucket.blocks:
            meta.append((slot, bmid, len(bt), 0))
            t_parts.append(bt)
            s_parts.append(bs)
            block_args.append(bargs)
        for ct, cs, cmid, cv in bucket.columns:
            meta.append((slot, cmid, len(ct), 1))
            t_parts.append(ct)
            s_parts.append(cs)
            v_parts.append(cv)
    return (
        _BUCKET_TABLE_TAG,
        slots,
        rest,
        np.array(meta, dtype=np.int64) if meta else None,
        np.concatenate(t_parts) if t_parts else None,
        np.concatenate(s_parts) if s_parts else None,
        block_args,
        np.concatenate(v_parts) if v_parts else None,
    )


def _unpack_bucket_table(packed):
    """Invert :func:`_pack_bucket_table` into a fresh bucket dict."""
    if packed[0] != _BUCKET_TABLE_TAG:
        raise StaleSnapshotError(
            f"cannot restore this event calendar: its bucket table is {packed[0]!r}, "
            f"{_STALE_BUCKET_TABLES.get(packed[0], 'of an unknown format')} (this "
            f"version reads {_BUCKET_TABLE_TAG!r}); re-run instead of resuming"
        )
    _tag, slots, rest, meta, times, seqs, block_args, values = packed
    buckets = {}
    for slot, (stage, args) in zip(slots.tolist(), rest):
        bucket = _Bucket()
        bucket.stage = stage
        bucket.args = args
        buckets[slot] = bucket
    if meta is not None:
        pos = vpos = 0
        block_args = iter(block_args)
        for slot, mid, length, is_column in meta.tolist():
            bt = times[pos : pos + length]
            bs = seqs[pos : pos + length]
            pos += length
            if is_column:
                buckets[slot].columns.append((bt, bs, mid, values[vpos : vpos + length]))
                vpos += length
            else:
                buckets[slot].blocks.append((bt, bs, mid, next(block_args)))
    return buckets


class _Bucket:
    """Events of one time slot.

    Three complementary stores, all merged (and sorted once) when the
    bucket is materialized:

    * ``blocks`` — this bucket's shares of shared-method fan-outs
      (:meth:`ArrayEventCore._split_block`): appending ``(times, seqs,
      mid, args)`` views is O(1), no per-bucket numpy fill;
    * ``stage`` — scalar pushes as plain tuples (a list append is ~2x
      faster than a numpy scalar row write);
    * ``columns`` — column events (:meth:`ArrayEventCore.schedule_column`)
      as ``(times, seqs, mid, int64 values)`` views, ``mid`` interning
      ``sink.append``.  They never turn into Python objects: the run
      keeps them as a :class:`_ColumnRun` beside its lists.

    ``args`` is the bucket-local arg intern pool for ``stage`` rows;
    blocks carry their own arg lists, chained after it at
    materialization.  Buckets are pickled only through
    :func:`_pack_bucket_table`.
    """

    __slots__ = ("blocks", "stage", "args", "columns")

    def __init__(self) -> None:
        self.blocks: List[Tuple[Any, Any, int, List[Any]]] = []
        self.stage: List[Tuple[float, int, int, int]] = []
        self.args: List[Any] = []  # bucket-local arg intern pool
        self.columns: List[Tuple[Any, Any, int, Any]] = []


class _ColumnRun:
    """The active run's column events: one merged ``(time, seq)`` order.

    Built when a bucket holding column events is materialized.  The
    blocks of every sink (found as the ``__self__`` of the interned
    ``sink.append``) are concatenated and sorted once (``times``,
    ``seqs``, ``lanes`` — ``lanes[i]`` indexes ``sinks``); ``values`` is
    the same events regrouped lane by lane, each lane in ``(time, seq)``
    order, so taking the merged range ``[pos, stop)`` is one ``bincount``
    plus one ``extend_column`` slice per sink that has events in it.
    ``pos`` is the merged cursor and ``cursors[lane]`` the per-lane one;
    both only move forward, which is all a snapshot mid-segment needs.
    """

    __slots__ = ("times", "seqs", "lanes", "sinks", "values", "cursors", "pos", "clock")

    def __init__(self, columns, methods) -> None:
        sinks: List[Any] = []
        lane_of: Dict[int, int] = {}
        block_lanes = []
        for _, _, mid, _ in columns:
            lane = lane_of.get(mid)
            if lane is None:
                lane = lane_of[mid] = len(sinks)
                sinks.append(methods[mid].__self__)
            block_lanes.append(lane)
        times = np.concatenate([column[0] for column in columns])
        seqs = np.concatenate([column[1] for column in columns])
        values = np.concatenate([column[3] for column in columns])
        # The narrowest lane dtype: 8/16-bit keys get numpy's radix sort.
        lanes = np.repeat(
            np.array(block_lanes, dtype=np.min_scalar_type(len(sinks))),
            [len(column[0]) for column in columns],
        )
        order = np.lexsort((seqs, times))
        self.times = times[order]
        self.seqs = seqs[order]
        self.lanes = lanes = lanes[order]
        self.sinks = sinks
        self.values = values[order[np.argsort(lanes, kind="stable")]]
        ends = np.cumsum(np.bincount(lanes, minlength=len(sinks))).tolist()
        self.cursors = [0] + ends[:-1]
        self.pos = 0
        self.clock = 0.0  # time of the last event taken

    def cut(self, time: float, seq: int, lo: int, hi: int) -> int:
        """First position in ``[lo, hi)`` not sorting before ``(time, seq)``."""
        times = self.times
        pos = lo + int(times[lo:hi].searchsorted(time, side="left"))
        seqs = self.seqs
        while pos < hi and times[pos] == time and seqs[pos] < seq:
            pos += 1
        return pos

    def take(self, end: int, until: Optional[float], budget: int, overflow) -> None:
        """Hand the due events of ``[pos, end)`` to their sinks and move ``pos``.

        Exactly the events the scalar loop would dispatch before it next
        has to look up: clipped by ``until`` (an event at exactly
        ``until`` still runs), by the ``budget`` of events left in this
        drain call and by the overflow head — which cannot move under
        the step, because a column sink neither schedules nor reads the
        clock.  The caller guarantees the event at ``pos`` is due, so at
        least one event is taken.  Every cursor moves *before* the first
        sink is called: should a sink break its contract and raise, the
        range is consumed and accounted — ``pending`` stays exact and
        a resumed drain delivers nothing in it a second time.
        """
        start = self.pos
        stop = end if end - start <= budget else start + budget
        times = self.times
        if until is not None and times[stop - 1] > until:
            stop = start + int(times[start:stop].searchsorted(until, side="right"))
        if overflow:
            head = overflow[0]
            if times[stop - 1] >= head[0]:
                stop = self.cut(head[0], head[1], start, stop)
        counts = np.bincount(self.lanes[start:stop], minlength=len(self.sinks)).tolist()
        cursors = self.cursors
        starts = cursors[:]
        for lane, count in enumerate(counts):
            cursors[lane] += count
        self.pos = stop
        self.clock = float(times[stop - 1])
        values = self.values
        for sink, cursor, count in zip(self.sinks, starts, counts):
            if count:
                sink.extend_column(values[cursor : cursor + count])


class ArrayEventCore:
    """Calendar queue over numpy buckets; drop-in backend for Simulator.

    ``slot_width`` is the virtual-time span of one bucket.  It trades
    bucket count against overflow traffic: events pushed into the slot
    currently being drained bypass the arrays and go through a classic
    heap, so the width should be small relative to typical scheduling
    deltas (with message delays around 0.1–1.0 the default 0.25 keeps
    the overflow share in the low percent).
    """

    __slots__ = (
        "slot_width",
        "no_arg",
        "column",
        "_inv_width",
        "_seq",
        "_inserted",
        "_consumed",
        "_buckets",
        "_bucket_heap",
        "_overflow",
        "_fanout_log",
        "_methods",
        "_method_ids",
        "_method_refs",
        "_method_free",
        "_run_times",
        "_run_seqs",
        "_run_methods",
        "_run_args",
        "_run_pos",
        "_run_len",
        "_run_slot",
        "_columns",
        "_span_handlers",
        "_span_cell",
    )

    def __init__(self, slot_width: float = 0.25) -> None:
        if slot_width <= 0:
            raise ValueError("slot_width must be positive")
        self.slot_width = slot_width
        self.no_arg = NO_ARG
        self.column = COLUMN
        self._inv_width = 1.0 / slot_width
        self._seq = 0  # same numbering as the heap core's itertools.count()
        self._inserted = 0
        self._consumed = 0
        self._buckets: Dict[int, _Bucket] = {}
        self._bucket_heap: List[int] = []
        # Events routed past the bucket plane while their slot is being
        # drained; plain (time, seq, method, arg) tuples, never interned.
        self._overflow: List[Tuple[float, int, Callable, Any]] = []
        # Fan-out blocks lying wholly beyond the active slot, per method
        # id, as (times, seqs, args) with args a list or an int64 array;
        # split into buckets all at once when the next run starts or a
        # snapshot is taken.
        self._fanout_log: Dict[int, List[Tuple[Any, Any, Any]]] = {}
        # Interned method-dispatch table.  Slot refcounts are decremented
        # in bulk when a bucket materializes; zero-ref slots are recycled
        # through the free list so one-shot closures (Process.schedule
        # guards) cannot exhaust the i2 index space.
        self._methods: List[Any] = []
        self._method_ids: Dict[Any, int] = {}
        self._method_refs: List[int] = []
        self._method_free: List[int] = []
        # Active run: the materialized current bucket as parallel lists.
        self._run_times: List[float] = []
        self._run_seqs: List[int] = []
        self._run_methods: List[Any] = []
        self._run_args: List[Any] = []
        self._run_pos = 0
        self._run_len = 0
        self._run_slot: Optional[int] = None
        # The active run's column events (None when it has none); run
        # entries whose method is COLUMN are segments of it.
        self._columns: Optional[_ColumnRun] = None
        # Batch dispatch: methods mapped here have same-method run spans
        # handed to their handler in one call instead of per-event
        # dispatch; the cell carries the handler's consumed count for
        # exception-path accounting.
        self._span_handlers: Dict[Any, Callable] = {}
        self._span_cell: List[int] = [0]

    def register_span_handler(self, method: Callable, handler: Callable) -> None:
        """Route same-method run spans of ``method`` to ``handler``.

        The drain loop probes consecutive run entries for *identity*
        with the current method object (interning guarantees exactly one
        object per live method id, so identity equals same-id) and, when
        two or more share it, calls ``handler(times, seqs, args, pos,
        end, until, cell)`` instead of dispatching each event.  The
        handler must consume >= 1 event, return the consumed count, and
        keep ``cell[0]`` current so an exception mid-span still accounts
        the events it processed.
        """
        self._span_handlers[method] = handler

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
        # The bucket table is repacked into whole-table columns (see
        # :func:`_pack_bucket_table`), the fan-out log flushed into it
        # first; every other slot pickles as-is.
        self._flush_fanout_log()
        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "_buckets"
        }
        state["_buckets"] = _pack_bucket_table(self._buckets)
        return state

    def __setstate__(self, state):
        # Unpacked first: a bucket table in an older format is refused
        # there, before anything of the snapshot is taken over.
        self._buckets = _unpack_bucket_table(state.pop("_buckets"))
        self._fanout_log = {}  # absent from snapshots older than the log
        for name, value in state.items():
            setattr(self, name, value)

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
        bucket = self._buckets.get(slot)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[slot] = bucket
            heappush(self._bucket_heap, slot)
        mid = self._intern_method(method, 1)
        args = bucket.args
        bucket.stage.append((time, seq, mid, len(args)))
        args.append(arg)
        return seq

    def schedule_small(
        self,
        now: float,
        times: List[float],
        method: Callable,
        args: List[Any],
        validate: bool = True,
    ) -> int:
        """Scalar-staged twin of :meth:`schedule_block` for small fan-outs.

        At typical multicast sizes (a handful of receivers) the numpy
        constants of :meth:`schedule_block` — asarray, astype, argsort —
        cost more than the whole insert; this path stages each entry as
        a plain tuple instead.  Sequence numbers, overflow routing and
        method refcounts are identical to the block path (the method is
        interned lazily so a fan-out routed entirely to the overflow
        heap leaves no zero-ref table entry behind).
        """
        k = len(times)
        if k == 0:
            return 0
        if validate:
            for time in times:
                if time < now:
                    raise ValueError("cannot schedule into the past")
        base = self._seq
        self._seq = base + k
        self._inserted += k
        inv = self._inv_width
        run_slot = self._run_slot
        buckets = self._buckets
        mid = -1
        for i in range(k):
            time = times[i]
            slot = int(time * inv)
            if run_slot is not None and slot <= run_slot:
                heappush(self._overflow, (time, base + i, method, args[i]))
                continue
            bucket = buckets.get(slot)
            if bucket is None:
                bucket = _Bucket()
                buckets[slot] = bucket
                heappush(self._bucket_heap, slot)
            if mid < 0:
                mid = self._intern_method(method, 1)
            else:
                self._method_refs[mid] += 1
            pool = bucket.args
            bucket.stage.append((time, base + i, mid, len(pool)))
            pool.append(args[i])
        return k

    def schedule_block(
        self,
        now: float,
        times: np.ndarray,
        method: Callable,
        args: List[Any],
        validate: bool = True,
    ) -> int:
        """Bulk insert one shared ``method`` at ``times[i]`` with ``args[i]``.

        The fan-out fast path: ``times`` is already a float64 array (e.g.
        ``now`` plus a channel's batched delay vector) and the method is
        interned exactly once.  Sequence numbers follow array order.  A
        block whose earliest time lies beyond the active slot is logged
        whole and split with the rest of the log when the next run
        starts (:meth:`_flush_fanout_log`); one that reaches into the
        active slot is split here.  ``args`` is kept by reference and
        never mutated.  ``validate=False`` skips the past-timestamp
        check for callers whose times are ``now`` plus non-negative
        delays by construction (the multicast plane).
        """
        k = len(times)
        if k == 0:
            return 0
        if validate and float(times.min()) < now:
            raise ValueError("cannot schedule into the past")
        base = self.reserve(k)
        self.schedule_reserved(times, np.arange(base, base + k, dtype=np.int64), method, args)
        return k

    def reserve(self, k: int) -> int:
        """Take the next ``k`` sequence numbers for a later
        :meth:`schedule_reserved`; returns the first.

        The entries count as pending from here on.
        """
        base = self._seq
        self._seq = base + k
        self._inserted += k
        return base

    def schedule_reserved(
        self, times: np.ndarray, seqs: np.ndarray, method: Callable, args: Any
    ) -> None:
        """The :meth:`schedule_block` twin for entries whose ``seqs`` were reserved.

        ``seqs`` is an int64 array from earlier :meth:`reserve` calls and
        ``args`` a list or an int64 array, both kept by reference.  The
        block is logged whole when it lies beyond the active slot, split
        here otherwise — exactly as :meth:`schedule_block` places it.
        """
        run_slot = self._run_slot
        if run_slot is None or int(float(times.min()) * self._inv_width) > run_slot:
            # Nothing of the block can run before the next bucket is
            # materialized, so which buckets it lands in is decided then.
            mid = self._intern_method(method, len(times))
            self._fanout_log.setdefault(mid, []).append((times, seqs, args))
        else:
            self._split_block(times, seqs, args, method, -1)

    def _split_block(self, times, seqs, args, method, mid) -> None:
        """Cut one shared-method block into the buckets (and overflow) it touches.

        One stable argsort groups the block by slot.  Within a bucket
        insertion order is irrelevant — materialization sorts by (time,
        seq) — so permuted views are fine.  ``mid`` is the method's id
        when its references are already counted (the fan-out log), -1
        when those of the entries that reach a bucket still have to be.
        ``args`` is a list or an int64 array (decoded with one ``tolist``).
        """
        slots = (times * self._inv_width).astype(np.int64)
        order = np.argsort(slots, kind="stable")
        ss = slots[order]
        ts = times[order]
        qs = seqs[order]
        if type(args) is np.ndarray:
            ags = args[order].tolist()
        else:
            ags = [args[i] for i in order.tolist()]
        start, edges = self._bucket_shares(ss)
        if start:
            overflow = self._overflow
            prefix_times = ts[:start].tolist()
            prefix_seqs = qs[:start].tolist()
            for i in range(start):
                heappush(
                    overflow, (prefix_times[i], prefix_seqs[i], method, ags[i])
                )
            if start == len(ags):
                return
        if mid < 0:
            mid = self._intern_method(method, len(ags) - start)
        slot_list = ss.tolist()
        prev = start
        for nxt in edges:
            self._append_block(slot_list[prev], ts[prev:nxt], qs[prev:nxt], mid, ags[prev:nxt])
            prev = nxt

    def _flush_fanout_log(self) -> None:
        """Bucket every logged fan-out block: one :meth:`_split_block` per method.

        Every logged time lies beyond the active slot (and slots only
        move forward), so no entry goes to the overflow heap here.  A
        method whose blocks all carry int64 arg arrays (the network's
        parked relays) is decoded with one ``tolist`` per flush.
        """
        log, self._fanout_log = self._fanout_log, {}
        for mid, logged in log.items():
            parts = [entry[2] for entry in logged]
            if all(type(part) is np.ndarray for part in parts):
                args = np.concatenate(parts)
            else:
                args = [
                    arg
                    for part in parts
                    for arg in (part.tolist() if type(part) is np.ndarray else part)
                ]
            self._split_block(
                np.concatenate([entry[0] for entry in logged]),
                np.concatenate([entry[1] for entry in logged]),
                args,
                self._methods[mid],
                mid,
            )

    def _bucket_shares(self, slots: np.ndarray):
        """How a bulk insert grouped by slot is split — decided here only.

        Returns ``(start, edges)``.  Slots are monotone in time, so the
        entries landing in (or before) the slot currently being drained
        are the prefix ``[0, start)``: they go to the overflow heap,
        entry by entry.  ``edges`` are the ends of the groups that
        follow, each one bucket's share: ``[start, edges[0])``,
        ``[edges[0], edges[1])``, ... up to ``len(slots)``.
        """
        start = 0
        run_slot = self._run_slot
        if run_slot is not None and int(slots[0]) <= run_slot:
            start = int(np.searchsorted(slots, run_slot, side="right"))
        edges = (np.flatnonzero(slots[start + 1 :] != slots[start:-1]) + (start + 1)).tolist()
        edges.append(len(slots))
        return start, edges

    def schedule_column(
        self, now: float, times: np.ndarray, values: np.ndarray, sink: Any
    ) -> int:
        """Bulk insert *column events*: ``sink`` receives ``values[i]`` at ``times[i]``.

        Same events, sequence numbers and order as ``schedule_block(now,
        times, sink.append, values.tolist())`` — ``sink.append`` is what
        gets interned, and :meth:`_bucket_shares` splits the block — but
        each bucket's share stays ``(times, seqs, mid, int64 values)``
        slices, whose run hands whole ``(time, seq)``-contiguous ranges
        to ``sink.extend_column``.  Entries landing in (or before) the
        slot currently being drained become ordinary ``sink.append``
        events on the overflow heap.
        """
        k = len(times)
        if k == 0:
            return 0
        if float(times.min()) < now:
            raise ValueError("cannot schedule into the past")
        base = self._seq
        self._seq = base + k
        self._inserted += k
        slots = (times * self._inv_width).astype(np.int64)
        seqs = np.arange(base, base + k, dtype=np.int64)
        if k > 1 and bool((slots[1:] < slots[:-1]).any()):
            # Group by slot; the stable sort keeps seqs ascending per slot.
            # (A population's stream arrives time-sorted: nothing to do.)
            order = np.argsort(slots, kind="stable")
            slots = slots[order]
            times = times[order]
            seqs = seqs[order]
            values = values[order]
        start, edges = self._bucket_shares(slots)
        append = sink.append
        if start:
            overflow = self._overflow
            for time, seq, value in zip(
                times[:start].tolist(), seqs[:start].tolist(), values[:start].tolist()
            ):
                heappush(overflow, (time, seq, append, value))
            if start == k:
                return k
        slot_list = slots.tolist()
        buckets = self._buckets
        mid = self._intern_method(append, k - start)
        prev = start
        for nxt in edges:
            slot = slot_list[prev]
            bucket = buckets.get(slot)
            if bucket is None:
                bucket = _Bucket()
                buckets[slot] = bucket
                heappush(self._bucket_heap, slot)
            bucket.columns.append(
                (times[prev:nxt], seqs[prev:nxt], mid, values[prev:nxt])
            )
            prev = nxt
        return k

    def _append_block(self, slot, times, seqs, mid, args) -> None:
        """O(1) deferred insert of one shared-method column block."""
        bucket = self._buckets.get(slot)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[slot] = bucket
            heappush(self._bucket_heap, slot)
        bucket.blocks.append((times, seqs, mid, args))

    # -- method interning ------------------------------------------------------

    def _intern_method(self, method: Callable, count: int) -> int:
        ids = self._method_ids
        mid = ids.get(method)
        if mid is not None:
            self._method_refs[mid] += count
            return mid
        free = self._method_free
        if free:
            mid = free.pop()
            self._methods[mid] = method
            self._method_refs[mid] = count
        else:
            mid = len(self._methods)
            if mid > _METHOD_TABLE_LIMIT:
                raise RuntimeError(
                    "method-dispatch table exhausted: more than "
                    f"{_METHOD_TABLE_LIMIT} distinct callbacks are live at once"
                )
            self._methods.append(method)
            self._method_refs.append(count)
        ids[method] = mid
        return mid

    def _release_method(self, mid: int, count: int) -> None:
        refs = self._method_refs
        remaining = refs[mid] - count
        refs[mid] = remaining
        if remaining == 0:
            method = self._methods[mid]
            del self._method_ids[method]
            self._methods[mid] = None
            self._method_free.append(mid)

    # -- drain -----------------------------------------------------------------

    def drain(self, sim, until: Optional[float], max_events: int) -> int:
        """Process queued events in ``(time, seq)`` order; returns the count.

        Mirrors the heap core's run loop contract: stops once the next event
        would pass ``until`` (leaving it queued), stops at ``max_events``,
        advances ``sim.now`` before each dispatch, and accounts processed
        events on the simulator even if a callback raises.  The run cursor
        is kept in a local and written back on every exit path (including
        exceptions); the loop itself is the only reader in between.

        Each pop compares the head of the active run with the head of the
        overflow heap; when both are exhausted the next bucket is
        materialized (:meth:`_start_next_run`).  A run entry whose method
        is ``COLUMN`` is a segment of column events: its head is compared
        like any other entry's, then :meth:`_ColumnRun.take` consumes as
        much of it as is due and a partly consumed segment keeps its run
        slot with the head time/seq of what is left.

        Batch dispatch: when two or more *consecutive* run entries share
        one interned method — detected by object identity, since interning
        stores exactly one method object per live id — and that method has
        a span handler (:meth:`register_span_handler`), the whole span is
        handed to the handler in one call.  The handler replays the scalar
        clock/guard protocol itself (``Network._deliver_span``) and reports
        progress through ``cell`` so exception-path accounting stays exact.

        When ``sim.callback_timer`` is set (``timed_callbacks()`` profiling),
        each dispatch is bracketed with the timer and accumulated onto
        ``sim.callback_seconds`` — the ledger row
        ``network.simulator.callback_s``.
        """
        processed = 0
        overflow = self._overflow
        no_arg = self.no_arg
        column = self.column
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
        try:
            while processed < max_events:
                if pos >= self._run_len and not overflow:
                    self._run_pos = pos
                    if not self._start_next_run():
                        break
                    pos = 0
                    span_end = 0
                    span_method = None
                run_times = self._run_times
                run_seqs = self._run_seqs
                run_methods = self._run_methods
                run_args = self._run_args
                length = self._run_len
                while processed < max_events:
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
                    if until is not None and time > until:
                        return processed
                    if from_overflow:
                        method = None
                        _, _, method, arg = heappop(overflow)
                    else:
                        method = run_methods[pos]
                        if method is column:
                            # A segment of column events: the core hands the
                            # due part of it to the sinks in one step; the
                            # entry stays, re-headed, until it is used up.
                            columns = self._columns
                            end = run_args[pos]
                            start = columns.pos
                            try:
                                if timer is None:
                                    columns.take(end, until, max_events - processed, overflow)
                                else:
                                    t0 = timer()
                                    columns.take(end, until, max_events - processed, overflow)
                                    sim.callback_seconds += timer() - t0
                            finally:
                                # ``take`` moves its cursor before it delivers,
                                # so a sink that raises still leaves the range
                                # accounted and the entry headed correctly.
                                cursor = columns.pos
                                processed += cursor - start
                                if cursor == end:
                                    pos += 1
                                elif cursor > start:
                                    run_times[pos] = float(columns.times[cursor])
                                    run_seqs[pos] = int(columns.seqs[cursor])
                                time = columns.clock
                                if time > now:
                                    now = time
                                    sim.now = time
                            continue
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
                                budget = pos + (max_events - processed)
                                if end > budget:
                                    end = budget
                                cell[0] = 0
                                consumed = 0
                                try:
                                    if timer is None:
                                        consumed = handler(
                                            run_times, run_seqs, run_args,
                                            pos, end, until, cell,
                                        )
                                    else:
                                        t0 = timer()
                                        consumed = handler(
                                            run_times, run_seqs, run_args,
                                            pos, end, until, cell,
                                        )
                                        sim.callback_seconds += timer() - t0
                                finally:
                                    if consumed == 0:
                                        consumed = cell[0]
                                    processed += consumed
                                    pos += consumed
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
        finally:
            self._run_pos = pos
            sim.events_processed += processed
            self._consumed += processed
        return processed

    def _start_next_run(self) -> bool:
        """Materialize the lowest-slot bucket as the active run.

        The fan-out log is bucketed first, so the table is complete.
        Returns False (and clears the run marker) when no bucket is left.
        Invariants relied on: every heap entry corresponds to a live
        bucket (buckets are only removed here, together with their heap
        entry), and while a run is active every live bucket's slot is
        strictly greater than ``_run_slot`` (same-or-earlier pushes were
        diverted to the overflow heap).
        """
        self._flush_fanout_log()
        heap = self._bucket_heap
        if not heap:
            self._run_slot = None
            self._run_times = []
            self._run_seqs = []
            self._run_methods = []
            self._run_args = []
            self._run_pos = 0
            self._run_len = 0
            self._columns = None
            return False
        slot = heappop(heap)
        bucket = self._buckets.pop(slot)
        table = self._methods
        pool = bucket.args
        stage = bucket.stage
        blocks = bucket.blocks
        release = self._release_method
        columns = bucket.columns
        if not blocks:
            # Scalar pushes only (timers, small protocol steps): a plain
            # tuple sort beats numpy at these sizes.
            stage.sort()  # seqs are unique, so (time, seq) decides every tie
            times = [row[0] for row in stage]
            seqs = [row[1] for row in stage]
            methods = []
            args = []
            for row in stage:
                mid = row[2]
                methods.append(table[mid])
                args.append(pool[row[3]])
                release(mid, 1)
        elif len(stage) + sum(len(b[3]) for b in blocks) <= 32:
            # Small mixed bucket (a few scalar pushes plus small fan-out
            # blocks — the sparse-traffic shape): a tuple merge and one
            # list sort beat the concatenate/lexsort constants.
            rows = []
            for time, seq, mid, aidx in stage:
                rows.append((time, seq, mid, pool[aidx]))
            for bt, bs, bmid, bargs in blocks:
                bt_list = bt.tolist()
                bs_list = bs.tolist()
                for i in range(len(bargs)):
                    rows.append((bt_list[i], bs_list[i], bmid, bargs[i]))
            rows.sort()  # seqs unique: (time, seq) decides, args never compared
            times = []
            seqs = []
            methods = []
            args = []
            for time, seq, mid, arg in rows:
                times.append(time)
                seqs.append(seq)
                methods.append(table[mid])
                args.append(arg)
                release(mid, 1)
        else:
            # Merge the staged scalars and the deferred fan-out blocks
            # into one column set, then sort once.
            t_parts = []
            s_parts = []
            m_parts = []
            a_parts = []
            if stage:
                t_col, s_col, m_col, a_col = zip(*stage)
                t_parts.append(np.array(t_col, dtype=np.float64))
                s_parts.append(np.array(s_col, dtype=np.int64))
                m_parts.append(np.array(m_col, dtype=np.int64))
                a_parts.append(np.array(a_col, dtype=np.int64))
            offset = len(pool)
            mid_vals = []
            lens = []
            for bt, bs, bmid, bargs in blocks:
                t_parts.append(bt)
                s_parts.append(bs)
                mid_vals.append(bmid)
                lens.append(len(bargs))
                pool.extend(bargs)
            total = len(pool) - offset
            m_parts.append(np.repeat(np.array(mid_vals, dtype=np.int64), np.array(lens)))
            a_parts.append(np.arange(offset, offset + total, dtype=np.int64))
            if len(t_parts) == 1:
                t_all = t_parts[0]
                s_all = s_parts[0]
                m_all = m_parts[0]
                a_all = a_parts[0]
            else:
                t_all = np.concatenate(t_parts)
                s_all = np.concatenate(s_parts)
                m_all = np.concatenate(m_parts)
                a_all = np.concatenate(a_parts)
            order = np.lexsort((s_all, t_all))
            times = t_all[order].tolist()
            seqs = s_all[order].tolist()
            aids = a_all[order].tolist()
            args = [pool[i] for i in aids]
            counts = np.bincount(m_all)  # order-independent refcounts
            live = np.flatnonzero(counts)
            if live.size == 1:
                # One shared callback (the common multicast bucket).
                mid = int(live[0])
                methods = [table[mid]] * len(times)
                release(mid, len(times))
            else:
                methods = [table[i] for i in m_all[order].tolist()]
                for mid, c in enumerate(counts.tolist()):
                    if c:
                        release(mid, c)
        if columns:
            self._columns = _ColumnRun(columns, table)
            for _, cs, mid, _ in columns:
                release(mid, len(cs))
            times, seqs, methods, args = self._weave_segments(times, seqs, methods, args)
        else:
            self._columns = None
        self._run_times = times
        self._run_seqs = seqs
        self._run_methods = methods
        self._run_args = args
        self._run_pos = 0
        self._run_len = len(times)
        self._run_slot = slot
        return True

    def _weave_segments(self, times, seqs, methods, args):
        """The run lists with the active :class:`_ColumnRun`'s segments woven in.

        The merged column order is cut at the ``(time, seq)`` position of
        every regular run entry; each non-empty stretch between two cuts
        becomes one run entry ``(head time, head seq, COLUMN, end)`` in
        front of the regular entry that bounds it.
        """
        columns = self._columns
        total = len(columns.times)
        if times:
            at = np.array(times, dtype=np.float64)
            cuts = columns.times.searchsorted(at, side="left")
            ties = columns.times.searchsorted(at, side="right") > cuts
            for i in np.flatnonzero(ties).tolist():
                cuts[i] = columns.cut(times[i], seqs[i], int(cuts[i]), total)
            bounds = np.concatenate(([0], cuts, [total]))
        else:
            bounds = np.array([0, total])
        # One segment per non-empty stretch; ``before[k]`` is the index of
        # the regular entry segment k goes in front of.
        before = np.flatnonzero(bounds[1:] > bounds[:-1])
        heads = bounds[before]
        indexes = before.tolist()

        def weave(regular: List[Any], entries: List[Any]) -> List[Any]:
            woven: List[Any] = []
            prev = 0
            for index, entry in zip(indexes, entries):
                woven += regular[prev:index]
                woven.append(entry)
                prev = index
            woven += regular[prev:]
            return woven

        return (
            weave(times, columns.times[heads].tolist()),
            weave(seqs, columns.seqs[heads].tolist()),
            weave(methods, [COLUMN] * len(indexes)),
            weave(args, bounds[before + 1].tolist()),
        )
