"""Inner drain loop of the array-native event calendar.

This module is the compilation unit for the optional accelerated build:
``setup.py`` compiles it with mypyc (or Cython) when a compiler toolchain
is present, in which case the import in :mod:`repro.network.event_core`
resolves to the extension module instead of this file.  The source is
deliberately monomorphic — plain attribute access, ints, floats, lists
and tuples — so the compiled and interpreted versions execute the exact
same logic and the pure-Python fallback is always available.

The loop itself is the calendar-queue pop protocol:

* the *run* is the current time-slot bucket, already sorted by
  ``(time, seq)`` and materialized into parallel Python lists;
* the *overflow* heap holds events scheduled (while the run was active)
  into the run's own slot or earlier — they must interleave with the
  remaining run entries, so each pop compares the two heads;
* when both are exhausted the next bucket is materialized
  (:meth:`ArrayEventCore._start_next_run`) and the loop continues.

Ordering is exactly the heap core's ``(time, seq)``; the equivalence
tests assert recorded histories are byte-identical.

Column segments: a run entry whose method is the core's ``column``
marker stands for a stretch of column events (``Simulator.schedule_column``)
with no other event between them.  The loop treats its head like any
other entry — compared against the overflow head and ``until`` — and
then lets ``_ColumnRun.take`` consume as much of the stretch as is due,
accounting exactly the events taken; a partly consumed segment keeps its
run slot with the head time/seq of what is left.

Batch dispatch (the compiled callback plane): when the active run holds
two or more *consecutive* entries sharing one interned method — detected
by object identity, since interning stores exactly one method object per
live id — and that method is registered in the core's span-handler table,
the whole span is handed to the handler in one call instead of per-event
dispatch.  The handler replays the scalar clock/guard protocol itself
(see :func:`repro.network._hotpath.deliver_span`) and reports progress
through a shared cell so exception-path accounting stays exact.
"""

from __future__ import annotations

from heapq import heappop


def drain_events(core, sim, until, max_events):
    """Process queued events in ``(time, seq)`` order; returns the count.

    Mirrors the heap core's run loop contract: stops once the next event
    would pass ``until`` (leaving it queued), stops at ``max_events``,
    advances ``sim.now`` before each dispatch, and accounts processed
    events on the simulator even if a callback raises.  The run cursor
    is kept in a local and written back on every exit path (including
    exceptions); the loop itself is the only reader in between.

    When ``sim.callback_timer`` is set (``timed_callbacks()`` profiling),
    each dispatch is bracketed with the timer and accumulated onto
    ``sim.callback_seconds`` — the ledger row
    ``network.simulator.callback_s``.
    """
    processed = 0
    overflow = core._overflow
    no_arg = core.no_arg
    column = core.column
    pos = core._run_pos
    now = sim.now
    spans = core._span_handlers
    cell = core._span_cell
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
            if pos >= core._run_len and not overflow:
                core._run_pos = pos
                if not core._start_next_run():
                    break
                pos = 0
                span_end = 0
                span_method = None
            run_times = core._run_times
            run_seqs = core._run_seqs
            run_methods = core._run_methods
            run_args = core._run_args
            length = core._run_len
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
                        columns = core._columns
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
        core._run_pos = pos
        sim.events_processed += processed
        core._consumed += processed
    return processed
