"""Monomorphic callback-plane hot paths (compiled callback plane).

Companion compilation unit to :mod:`repro.network._drain`: ``setup.py``
compiles both with mypyc when a compiler toolchain is present, and the
imports in :mod:`repro.network.event_core` / :mod:`repro.network.simulator`
then resolve to the extension modules.  Like ``_drain``, the source is
deliberately monomorphic — plain attribute access, ints, floats, lists,
dicts and tuples — so the compiled and interpreted flavours execute the
exact same logic and the pure-Python fallback is always available (and is
what CI tests by default).

What lives here is the per-delivery chain that dominates fork-heavy
profiles once the event *store* is array-native (ROADMAP item 2's
recorded ~65% callback share):

* :func:`deliver_one` — the single source of truth for the
  departed-pid / liveness guards shared by ``Network._deliver`` and
  ``Network._deliver_multicast``;
* :func:`deliver_span` — the batch-dispatch handler invoked by the drain
  loop when consecutive run entries share one interned delivery
  callback; it replays the scalar guard/clock protocol per message and
  hands same-receiver sub-runs to ``Process.on_message_batch``;
* :func:`dispatch_batch` — the default ``on_message_batch`` body: loop
  ``on_message`` with the exact scalar clock/guard semantics;
* :func:`record_replication` — ``HistoryRecorder``'s replication-event
  fast path (the dominant recorder call in block workloads);
* :func:`tree_append_index` — ``BlockTree.append``'s index maintenance
  (heights, parents, cumulative and subtree weights) on preallocated
  numpy columns instead of per-block dicts.

These are the only implementations ``src/`` carries.  The bodies they
replaced — per-message dispatch, the recorder's generic replication
path, the tree's per-block dict index — are the test-side oracle
(``tests/network/reference_plane.py``), and the equivalence tests
(``tests/network/test_core_equivalence.py``) assert recorded histories
are byte-identical between the two, for the pure and the compiled
flavour of this module alike.
"""

from __future__ import annotations


_Event = None  # resolved lazily; avoids a core<->network import cycle at load
_BlockAnnouncement = None  # resolved lazily; broadcast imports simulator imports us
_base_on_message_batch = None  # Process.on_message_batch; process.py imports us


def deliver_one(network, pid, message):
    """Deliver ``message`` to ``pid`` under the departed/liveness guards.

    The single helper behind ``Network._deliver`` (point-to-point, pid
    read off the message) and ``Network._deliver_multicast`` (shared
    envelope, pid carried beside it): a departed pid quarantines the
    message, a dead process drops it silently, a live one receives it.
    """
    process = network._processes.get(pid)
    if process is None:
        # Receiver deregistered between send and delivery (dynamic
        # membership): the message is quarantined, not delivered.
        network.messages_quarantined += 1
        return
    if process.alive:
        network.messages_delivered += 1
        process.on_message(message)


def dispatch_batch(process, deliveries):
    """Default ``Process.on_message_batch`` body: scalar-exact loop.

    Replays exactly what the drain loop would do per message — advance
    the virtual clock, dispatch ``on_message`` — and stops early when
    the batch is preempted (process died or departed mid-batch, or an
    overflow event now sorts before the next delivery).  Returns the
    number of messages consumed (always >= 1: the first delivery already
    passed the guards in the caller).
    """
    network = process.network
    sim = network.simulator
    count = 0
    for time, seq, message in deliveries:
        if count and network.batch_interrupted(process, time, seq):
            break
        if time > sim.now:
            sim.now = time
        count += 1
        process.on_message(message)
    return count


def deliver_span(network, times, seqs, args, pos, end, until, cell, multicast):
    """Batch-dispatch a span of same-callback delivery events.

    Invoked by the drain loop for run entries ``pos:end`` that all share
    one interned delivery method.  ``multicast`` selects the argument
    shape: ``(pid, envelope)`` tuples for ``_deliver_multicast`` spans,
    bare messages (pid on ``message.receiver``) for ``_deliver`` spans.

    The scalar protocol is replayed per message — overflow-preemption
    and ``until`` checks, clock advance, departed/dead guards — and
    consecutive deliveries to one live receiver are collected into a
    single ``process.on_message_batch`` call.  ``cell[0]`` tracks the
    consumed count for the drain loop's exception accounting; the return
    value is the total consumed (>= 1).

    Duplicate ``BlockAnnouncement`` floods — the bulk of gossip traffic,
    where every block reaches every node once per relaying neighbour —
    are skipped against the receiver's transport seen-set without
    dispatching at all.  The skip is exact: a duplicate's scalar path is
    ``on_message -> transport.handle -> seen-set hit -> None`` (nothing
    recorded, nothing mutated, the delivered counter bumped), and
    :meth:`Process.batch_dup_seen` only exposes the seen-set when both
    hooks on that path are the stock implementations.

    Receivers are classified lazily, with different staleness contracts
    per class:

    * ``scalar_fast`` — no seen-set *and* the stock ``on_message_batch``:
      straight per-event ``on_message`` dispatch, no sub-run scan.
    * ``batch_only`` — no seen-set but a custom ``on_message_batch``:
      sub-runs are collected and handed to the hook.
    * ``dup_sets`` — a live seen-set; dropped after every real dispatch,
      since an arbitrary callback could swap transports.

    The first two live on the network (``_span_scalar`` /
    ``_span_batch_only``), surviving across spans and drains, and are
    only dropped on ``register``/``deregister``.  That persistence is
    safe because going stale can only *miss a skip* (a receiver that
    gains a seen-set keeps taking the exact scalar path) or dispatch
    scalar to a batch-capable receiver — and ``on_message_batch`` is
    required to be scalar-equivalent anyway.  ``dup_sets`` stays local
    to one span call: its binding is only trusted between dispatches.

    The process table is re-read per event (registration may churn under
    any callback) and the overflow/``until``/liveness checks still run
    per event, so preemption ordering is untouched.
    """
    global _BlockAnnouncement, _base_on_message_batch
    announcement_cls = _BlockAnnouncement
    if announcement_cls is None:
        from repro.network.broadcast import BlockAnnouncement

        announcement_cls = _BlockAnnouncement = BlockAnnouncement
    base_batch = _base_on_message_batch
    if base_batch is None:
        from repro.network.process import Process

        base_batch = _base_on_message_batch = Process.on_message_batch
    sim = network.simulator
    core = sim._array_core
    overflow = core._overflow
    processes = network._processes
    dup_sets = {}
    scalar_fast = network._span_scalar
    batch_only = network._span_batch_only
    last_message = None
    last_block_id = None
    delivered = 0
    quarantined = 0
    count = 0
    k = pos
    # Callbacks never advance the clock themselves (only the drain and
    # ``on_message_batch`` do, and the batch path refreshes below), so
    # the comparison can run against a local mirror of ``sim.now``.
    now = sim.now
    try:
        while k < end:
            time = times[k]
            if count:
                # First event already cleared these checks in the drain
                # loop; later ones must re-check because callbacks can
                # push overflow events or the until clip may bite.
                if overflow:
                    head = overflow[0]
                    head_time = head[0]
                    if head_time < time or (head_time == time and head[1] < seqs[k]):
                        break
                if until is not None and time > until:
                    break
            if time > now:
                now = time
                sim.now = time
            entry = args[k]
            if multicast:
                pid = entry[0]
                message = entry[1]
            else:
                message = entry
                pid = message.receiver
            process = processes.get(pid)
            if process is None:
                quarantined += 1
                count += 1
                k += 1
                continue
            if not process.alive:
                count += 1
                k += 1
                continue
            if pid in scalar_fast:
                delivered += 1
                count += 1
                process.on_message(message)
                if dup_sets:
                    dup_sets.clear()
                k += 1
                continue
            if pid in batch_only:
                seen = None
            else:
                # The seen-set binding can only change under a real
                # dispatch (``dup_sets`` is cleared there), so a cached
                # set stays valid between dispatches; a ``None`` answer
                # is sticky for the whole span (stale = skip nothing).
                seen = dup_sets.get(pid)
                if seen is None:
                    seen = process.batch_dup_seen()
                    if seen is None:
                        if type(process).on_message_batch is base_batch:
                            scalar_fast.add(pid)
                            delivered += 1
                            count += 1
                            process.on_message(message)
                            if dup_sets:
                                dup_sets.clear()
                            k += 1
                            continue
                        batch_only.add(pid)
                    else:
                        dup_sets[pid] = seen
            if seen is not None:
                # Multicast spans hand one shared envelope to many
                # receivers; memoize its announcement id across events.
                if message is last_message:
                    block_id = last_block_id
                else:
                    block_id = None
                    if message.kind == "block":
                        payload = message.payload
                        if type(payload) is announcement_cls:
                            block_id = payload.block.block_id
                    last_message = message
                    last_block_id = block_id
                if block_id is not None and block_id in seen:
                    # Duplicate flood: scalar path is a pure no-op apart
                    # from the delivered counter and the clock advance
                    # (already applied above).
                    delivered += 1
                    count += 1
                    k += 1
                    continue
            # Collect the same-receiver sub-run (clipped by ``until``).
            j = k + 1
            if multicast:
                if until is None:
                    while j < end and args[j][0] == pid:
                        j += 1
                else:
                    while j < end and args[j][0] == pid and times[j] <= until:
                        j += 1
            else:
                if until is None:
                    while j < end and args[j].receiver == pid:
                        j += 1
                else:
                    while j < end and args[j].receiver == pid and times[j] <= until:
                        j += 1
            if j == k + 1:
                delivered += 1
                count += 1
                process.on_message(message)
                if dup_sets:
                    dup_sets.clear()
                k = j
                continue
            if multicast:
                deliveries = [(times[i], seqs[i], args[i][1]) for i in range(k, j)]
            else:
                deliveries = [(times[i], seqs[i], args[i]) for i in range(k, j)]
            consumed = process.on_message_batch(deliveries)
            if consumed < 1 or consumed > j - k:
                raise RuntimeError(
                    "on_message_batch consumed %r of %d deliveries"
                    % (consumed, j - k)
                )
            delivered += consumed
            count += consumed
            if dup_sets:
                dup_sets.clear()
            last_time = deliveries[consumed - 1][0]
            if last_time > sim.now:
                sim.now = last_time
            now = sim.now
            k += consumed
    finally:
        # ``cell[0]`` is only read by the drain loop when the handler
        # raised mid-span; keeping it current here (instead of per
        # event) takes a store off the skip path.
        cell[0] = count
        network.messages_delivered += delivered
        network.messages_quarantined += quarantined
    return count


def record_replication(recorder, kind, process, parent_id, block_id):
    """``HistoryRecorder._replication`` fast path (monomorphic).

    Byte-identical to the recorder's generic ``_record`` path: same
    ``Event`` construction order (global clock tick, then per-process
    sequence), same listener fan-out.
    """
    global _Event
    event_cls = _Event
    if event_cls is None:
        from repro.core.history import Event

        event_cls = _Event = Event
    seqs = recorder._seq
    seq = seqs.get(process, 0) + 1
    seqs[process] = seq
    event = event_cls(
        eid=next(recorder._clock),
        kind=kind,
        process=process,
        operation=kind.value,
        argument=(parent_id, block_id),
        seq=seq,
    )
    recorder._append(event)
    for listener in recorder._listeners:
        listener(event)
    return event


def tree_append_index(cols, parent_id, block_id, weight):
    """``BlockTree.append``'s index maintenance on numpy columns.

    Assign the next slot, extend the id/parent columns, set height /
    cumulative weight, seed the subtree weight and add ``weight`` along
    the ancestor path with one fancy-indexed update (the same IEEE
    additions, one per ancestor, as a per-block dict walk).  Returns the
    new block's height.
    """
    slots = cols.slots
    parent = slots[parent_id]
    slot = cols.size
    if slot >= len(cols.height):
        cols.grow()
    height = cols.height
    cum = cols.cum_weight
    sub = cols.subtree_weight
    parents = cols.parents
    slots[block_id] = slot
    cols.ids.append(block_id)
    parents.append(parent)
    new_height = int(height[parent]) + 1
    height[slot] = new_height
    cum[slot] = float(cum[parent]) + weight
    sub[slot] = weight
    cols.size = slot + 1
    path = []
    cursor = parent
    while cursor >= 0:
        path.append(cursor)
        cursor = parents[cursor]
    sub[path] += weight
    return new_height
