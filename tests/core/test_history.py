"""Unit tests for concurrent histories and the recorder (Definition 2.4)."""

from __future__ import annotations

import pytest

from repro.core.block import GENESIS_ID, Block
from repro.core.history import EventKind, History, HistoryRecorder
from tests.core.reference_consistency import (
    operation_order,
    precedes,
    process_order,
    program_order,
)


def _of(history: History, process: str):
    return [e for e in history if e.process == process]


def _append_response(history: History):
    (response,) = [e for e in history if e.kind is EventKind.RESPONSE and e.operation == "append"]
    return response


def _read_invocation(history: History):
    (read,) = [e for e in history if e.kind is EventKind.INVOCATION and e.operation == "read"]
    return read


@pytest.fixture()
def sample_history() -> History:
    rec = HistoryRecorder()
    block = Block("x", GENESIS_ID)
    append_token = rec.invoke("i", "append", block)
    rec.respond(append_token, True)
    read_token = rec.invoke("j", "read", None)
    from repro.core.block import GENESIS, Blockchain

    rec.respond(read_token, Blockchain((GENESIS, block)))
    rec.send("i", GENESIS_ID, "x")
    rec.receive("j", GENESIS_ID, "x")
    rec.update("j", GENESIS_ID, "x")
    return rec.history()


class TestRecorder:
    def test_timestamps_strictly_increase(self, sample_history):
        eids = [e.eid for e in sample_history]
        assert eids == sorted(eids)
        assert len(set(eids)) == len(eids)

    def test_per_process_sequence_numbers(self, sample_history):
        for process in sample_history.processes:
            seqs = [e.seq for e in _of(sample_history, process)]
            assert seqs == sorted(seqs)

    def test_complete_records_both_events(self):
        rec = HistoryRecorder()
        rec.complete("p", "read", None, "out")
        history = rec.history()
        assert len(history) == 2
        assert history[0].kind is EventKind.INVOCATION
        assert history[1].kind is EventKind.RESPONSE
        assert history[0].op_id == history[1].op_id

    def test_len_tracks_recorded_events(self):
        rec = HistoryRecorder()
        rec.send("p", "b0", "x")
        assert len(rec) == 1


class TestSelectors:
    def test_read_responses(self, sample_history):
        assert len(sample_history.read_responses()) == 1
        assert len(sample_history.read_responses("i")) == 0

    def test_append_selectors(self, sample_history):
        assert len(sample_history.append_invocations()) == 1

    def test_replication_event_selector(self, sample_history):
        assert len(sample_history.replication_events(EventKind.SEND)) == 1
        assert len(sample_history.replication_events(EventKind.RECEIVE)) == 1
        assert len(sample_history.replication_events(EventKind.UPDATE)) == 1
        with pytest.raises(ValueError):
            sample_history.replication_events(EventKind.RESPONSE)

    def test_chain_accessor_on_read_response(self, sample_history):
        read = sample_history.read_responses()[0]
        assert read.chain.ids == (GENESIS_ID, "x")

    def test_chain_accessor_rejects_other_events(self, sample_history):
        send = sample_history.replication_events(EventKind.SEND)[0]
        with pytest.raises(TypeError):
            _ = send.chain


class TestOrders:
    """Definition 2.4's orders, as the reference checkers define them."""

    def test_process_order_same_process_only(self, sample_history):
        events_i = _of(sample_history, "i")
        events_j = _of(sample_history, "j")
        assert process_order(events_i[0], events_i[1])
        assert not process_order(events_i[0], events_j[0])

    def test_operation_order_invocation_before_own_response(self, sample_history):
        inv = sample_history.append_invocations()[0]
        rsp = _append_response(sample_history)
        assert operation_order(inv, rsp)
        assert not operation_order(rsp, inv)

    def test_operation_order_response_before_later_invocation(self, sample_history):
        append_rsp = _append_response(sample_history)
        assert operation_order(append_rsp, _read_invocation(sample_history))

    def test_program_order_is_union(self, sample_history):
        append_inv = sample_history.append_invocations()[0]
        append_rsp = _append_response(sample_history)
        read_inv = _read_invocation(sample_history)
        assert program_order(append_inv, append_rsp)
        assert program_order(append_rsp, read_inv)
        assert not program_order(append_inv, append_inv)

    def test_precedes_refines_program_order(self, sample_history):
        events = list(sample_history)
        for a in events:
            for b in events:
                if program_order(a, b):
                    assert precedes(a, b)


class TestComposition:
    def test_without_failed_appends(self):
        rec = HistoryRecorder()
        ok = Block("ok", GENESIS_ID)
        bad = Block("bad", GENESIS_ID)
        rec.complete("p", "append", ok, True)
        rec.complete("p", "append", bad, False)
        purged = rec.history().without_failed_appends()
        args = [e.argument.block_id for e in purged.append_invocations()]
        assert args == ["ok"]

    def test_empty_history(self):
        history = History()
        assert len(history) == 0
        assert history.processes == ()
        assert history.read_responses() == ()


class TestSelectorCaching:
    """read_responses / append_invocations are memoized on the History."""

    def test_cached_tuples_are_the_same_object(self, sample_history):
        assert sample_history.read_responses() is sample_history.read_responses()
        assert sample_history.append_invocations() is sample_history.append_invocations()
        assert sample_history.read_responses("j") is sample_history.read_responses("j")

    def test_cache_is_per_process_argument(self, sample_history):
        assert sample_history.read_responses() != sample_history.read_responses("i")
        assert sample_history.read_responses("i") == ()
        assert len(sample_history.read_responses("j")) == 1

    def test_cached_results_match_fresh_filtering(self, sample_history):
        expected_reads = tuple(e for e in sample_history if e.is_read_response)
        expected_appends = tuple(e for e in sample_history if e.is_append_invocation)
        assert sample_history.read_responses() == expected_reads
        assert sample_history.append_invocations() == expected_appends


class TestSlottedEvents:
    """PR 4: the hot-path envelopes are slotted — no per-event __dict__."""

    def test_event_and_token_have_no_dict(self, sample_history):
        event = sample_history[0]
        assert not hasattr(event, "__dict__")
        recorder = HistoryRecorder()
        token = recorder.invoke("i", "read", None)
        assert not hasattr(token, "__dict__")

    def test_events_pickle_round_trip(self, sample_history):
        # Sweep workers ship results across process boundaries; slotted
        # frozen dataclasses must survive the trip.
        import pickle

        for event in sample_history:
            clone = pickle.loads(pickle.dumps(event))
            assert clone == event

    def test_message_is_slotted_too(self):
        from repro.network.simulator import Message

        message = Message("a", "b", "ping", None, 0.0)
        assert not hasattr(message, "__dict__")
        import pickle

        assert pickle.loads(pickle.dumps(message)) == message
