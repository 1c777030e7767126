"""Property tests for the history's own index and the monitor's replay.

A :class:`~repro.core.history.History` answers its selectors from the
positions its one construction pass noted;
:meth:`~repro.core.consistency_index.ConsistencyMonitor.replay` feeds its
index from those selectors only.  Both must be indistinguishable from the
definitions they replace: a scan over every event.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.block import GENESIS, GENESIS_ID, Block, Blockchain
from repro.core.consistency_index import ConsistencyMonitor
from repro.core.history import Event, EventKind, History, HistoryRecorder

PROCESSES = ("p0", "p1", "p2")


@st.composite
def recorded_histories(draw) -> History:
    """Appends that succeed, fail or never respond; reads of any node of a
    random tree, some returning equal copies of the blocks, some no chain;
    replication events in between."""
    rec = HistoryRecorder()
    chains = [Blockchain((GENESIS,))]
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        process = draw(st.sampled_from(PROCESSES))
        action = draw(st.sampled_from(("append", "read", "replicate")))
        if action == "append":
            parent = draw(st.sampled_from(chains))
            block = Block(f"b{len(chains)}", parent.tip.block_id)
            chains.append(Blockchain((*parent.blocks, block)))
            token = rec.invoke(process, "append", block)
            outcome = draw(st.sampled_from((True, False, None)))
            if outcome is not None:
                rec.respond(token, outcome)
        elif action == "read":
            chain = draw(st.sampled_from(chains))
            form = draw(st.sampled_from(("same", "copy", "none")))
            if form == "copy":  # equal blocks, other objects
                chain = Blockchain(tuple(replace(block) for block in chain))
            rec.complete(process, "read", None, None if form == "none" else chain)
        else:
            kind = draw(st.sampled_from((rec.send, rec.receive, rec.update)))
            kind(process, GENESIS_ID, draw(st.sampled_from(chains)).tip.block_id)
    return rec.history()


def scanned(history: History, test, process=None):
    return tuple(e for e in history if test(e) and (process is None or e.process == process))


def assert_selectors_scan_alike(history: History) -> None:
    for process in (None, *PROCESSES):
        assert history.read_responses(process) == scanned(
            history, Event.is_read_response.fget, process
        )
        assert history.append_invocations(process) == scanned(
            history, Event.is_append_invocation.fget, process
        )
        assert history.read_responses(process) is history.read_responses(process)
    assert history.processes == tuple(sorted({e.process for e in history}))
    failed = {
        (e.process, e.op_id)
        for e in history
        if e.kind is EventKind.RESPONSE and e.operation == "append" and not e.output
    }
    purged = history.without_failed_appends()
    assert purged.events == tuple(
        e for e in history if not (e.operation == "append" and (e.process, e.op_id) in failed)
    )
    assert (purged is history) == (not failed)


@given(history=recorded_histories(), split=st.sets(st.sampled_from(PROCESSES)))
@settings(max_examples=150, deadline=None)
def test_selectors_and_replay_match_the_scans(history, split):
    shuffled = History(reversed(history.events))
    corrected = history.correct_restriction(split)
    purged = history.without_failed_appends()
    for built in (history, shuffled, corrected, purged):
        assert_selectors_scan_alike(built)
    assert shuffled.events == history.events

    replayed = ConsistencyMonitor().replay(history)
    assert replayed.index.reads == [
        e for e in history if e.is_read_response and isinstance(e.output, Blockchain)
    ]
    first_append = {}
    for e in history:
        if e.is_append_invocation:
            first_append.setdefault(e.argument.block_id, e.eid)
    assert {b: replayed.index.first_append(b) for b in first_append} == first_append
    assert replayed.events_seen == len(history)
