"""The columnar recorder and history against the event-building oracle.

:class:`~repro.core.history.HistoryRecorder` writes one row of columns per
event and builds no :class:`~repro.core.history.Event`;
:class:`~repro.core.history.History` builds its events on first use, and
:meth:`~repro.core.consistency_index.ConsistencyIndex.ingest` enters a
history's reads straight off its columns.  Each is held here to what it
replaces: the recorder that built one event per recorded event
(``tests/network/reference_plane.py::ReferenceHistoryRecorder``) and an
index fed :meth:`~repro.core.consistency_index.ConsistencyIndex.add_read`
one event at a time.  A run records no event object, monitored, faulted
or not; beside the rows it writes each event's virtual time, a column
its history carries through restrictions and pickles.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.block import GENESIS, GENESIS_ID, Block, Blockchain
from repro.core.consistency_index import (
    ConsistencyIndex,
    ConsistencyMonitor,
    InconsistentChainError,
)
from repro.core.degradation import DegradationMonitor
from repro.core.history import Event, History, HistoryRecorder
from repro.engine import ChannelSpec, ExperimentSpec, FaultSpec, WorkloadSpec, get_protocol
from repro.protocols.classification import classify_run

from tests.network.reference_plane import ReferenceHistoryRecorder
from tests.properties.test_property_history import PROCESSES, recorded_histories

OPERATIONS = ("read", "append", "getToken", "consumeToken")


@st.composite
def scripts(draw):
    """A recording script: invocations left open and answered later (or
    never), completed operations of any name, replication events."""
    blocks = [GENESIS]
    script = []
    open_ops = 0
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        process = draw(st.sampled_from(PROCESSES))
        action = draw(st.sampled_from(("invoke", "respond", "complete", "replicate")))
        if action == "respond" and open_ops:
            output = draw(st.sampled_from((True, False, None, "out")))
            script.append(("respond", draw(st.integers(0, open_ops - 1)), output))
            open_ops -= 1
            continue
        block = Block(f"b{len(blocks)}", draw(st.sampled_from(blocks)).block_id)
        blocks.append(block)
        operation = draw(st.sampled_from(OPERATIONS))
        argument = draw(st.sampled_from((None, block, (GENESIS_ID, block.block_id))))
        if action == "complete":
            output = Blockchain((GENESIS,)) if operation == "read" else True
            script.append(("complete", process, operation, argument, output))
        elif action == "replicate":
            kind = draw(st.sampled_from(("send", "receive", "update")))
            script.append((kind, process, GENESIS_ID, block.block_id))
        else:
            script.append(("invoke", process, operation, argument))
            open_ops += 1
    return script


def play(recorder, script):
    """Run ``script`` on ``recorder``."""
    tokens = []
    for step in script:
        if step[0] == "invoke":
            tokens.append(recorder.invoke(*step[1:]))
        elif step[0] == "respond":
            recorder.respond(tokens.pop(step[1]), step[2])
        else:
            getattr(recorder, step[0])(*step[1:])


def assert_same_events(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)


class TestRecorderAgainstTheOracle:
    @given(script=scripts())
    @settings(max_examples=150, deadline=None)
    def test_a_recorded_history_is_the_event_building_recorders(self, script):
        columns, oracle = HistoryRecorder(), ReferenceHistoryRecorder()
        play(columns, script)
        play(oracle, script)
        history, expected = columns.history(), oracle.history()
        assert len(history) == len(columns) == len(expected)
        assert_same_events(history.events, expected.events)
        assert history._times.tolist() == expected._times.tolist() == [0.0] * len(history)
        # Built one at a time, a selector's events are the whole history's.
        fresh = columns.history()
        assert_same_events(fresh.read_responses(), expected.read_responses())
        assert_same_events(fresh.events, expected.events)
        assert fresh.read_responses() == tuple(e for e in fresh if e.is_read_response)

    def test_a_pickled_recorder_goes_on_recording_the_same_history(self):
        """What a checkpoint holds: the rows a snapshot already took and
        the ones after it, both pickled with the recorder."""
        chain = Blockchain((GENESIS,))
        first = [("send", "p0", GENESIS_ID, "b1"), ("complete", "p1", "read", None, chain)]
        then = [("update", "p1", GENESIS_ID, "b1"), ("complete", "p0", "read", None, chain)]
        whole, interrupted = HistoryRecorder(), HistoryRecorder()
        for recorder in (whole, interrupted):
            play(recorder, first)
        interrupted.history()  # the snapshot's table now holds those rows
        restored = pickle.loads(pickle.dumps(interrupted))
        for recorder in (whole, restored):
            play(recorder, then)
        assert_same_events(restored.history().events, whole.history().events)
        assert len(restored) == len(whole) == 6


def add_read_by_read(history: History) -> ConsistencyIndex:
    index = ConsistencyIndex()
    for event in history:
        if event.is_append_invocation and isinstance(event.argument, Block):
            index.note_append(event.argument.block_id, event.eid)
        elif event.is_read_response and isinstance(event.output, Blockchain):
            index.add_read(event)
    return index


def index_state(index: ConsistencyIndex):
    return (
        [table.tolist() for table in index.read_table()],
        [index.read_tip(position) for position in range(len(index.chains))],
        index.block_ids(),
        {block_id: index.first_seen_read(block_id) for block_id in index.block_ids()},
        dict(index._first_append),
        index.process_names(),
        index.reads,
    )


class TestColumnIntake:
    @given(history=recorded_histories())
    @settings(max_examples=150, deadline=None)
    def test_an_index_filled_from_the_columns_is_one_fed_read_by_read(self, history):
        fed = add_read_by_read(history)
        filled = ConsistencyIndex().ingest(history, skip_chainless=True)
        assert index_state(filled) == index_state(fed)

    def test_on_a_recorded_fork_history(self):
        history = _run(fork=True).history.without_failed_appends()
        assert index_state(ConsistencyIndex.from_history(history)) == index_state(
            add_read_by_read(history)
        )

    def test_a_known_block_id_with_other_content_is_refused(self):
        rec = HistoryRecorder()
        a1 = Block("a1", GENESIS_ID)
        rec.complete("p", "read", None, Blockchain((GENESIS, a1)))
        rec.complete("q", "read", None, Blockchain((GENESIS, replace(a1, weight=9.0))))
        with pytest.raises(InconsistentChainError, match="'a1' carries different content"):
            ConsistencyIndex.from_history(rec.history())

    def test_a_read_carrying_no_chain_is_named_by_ingest_and_skipped_by_replay(self):
        rec = HistoryRecorder()
        chain = Blockchain((GENESIS, Block("a1", GENESIS_ID)))
        rec.complete("p", "read", None, chain)
        rec.complete("q", "read", None, "no chain")
        rec.complete("p", "read", None, chain)
        history = rec.history()
        with pytest.raises(TypeError, match=r"event \[4\] q\.read\(\)\.rsp -> no chain"):
            ConsistencyIndex.from_history(history)
        monitor = ConsistencyMonitor().replay(history)
        assert monitor.index.read_table()[2].tolist() == [2, 6]
        assert monitor.index.reads == [history[1], history[5]]
        assert monitor.events_seen == 6


def _spec(fork: bool, **changes) -> ExperimentSpec:
    if fork:  # a flooded bitcoin network that forks: Strong Prefix fails
        spec = ExperimentSpec(
            protocol="bitcoin",
            replicas=12,
            duration=40.0,
            seed=1,
            channel=ChannelSpec(
                kind="synchronous", params={"delta": 1.5, "min_delay": 0.5}, seed=2
            ),
            workload=WorkloadSpec(read_interval=2.0),
            params={"token_rate": 0.8, "selection": "longest"},
        )
    else:
        spec = ExperimentSpec(protocol="hyperledger", replicas=4, duration=60.0, seed=3)
    return spec.with_updates(**changes)


def _run(fork: bool, **changes):
    spec = _spec(fork, **changes)
    return get_protocol(spec.protocol).runner_for(None)(**spec.build_kwargs())


def _witnesses(*reports):
    return [text for report in reports for prop in report.results for text in prop.violations]


def _count_built_events(monkeypatch):
    """Patch :class:`Event` so the returned list grows by one per event built."""
    built = []
    init = Event.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["eid"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting)
    return built


class TestEventsOnDemand:
    @pytest.mark.parametrize("fork", (True, False), ids=("fork", "chain"))
    def test_a_fault_run_builds_only_witness_events(self, monkeypatch, fork):
        """A fault run's degradation is read off the finished history's
        index: neither the run nor the pass builds an event, so the only
        ones built word the witnesses of its classification."""
        built = _count_built_events(monkeypatch)
        run = _run(fork, fault=FaultSpec(kind="crash", params={"at": {"p3": 40.0}}))
        assert DegradationMonitor.of_run(run).reads_seen > 0
        assert built == []
        result = classify_run(run)
        witnesses = _witnesses(result.strong_report, result.eventual_report)
        assert len(run.history) > 200
        assert len(built) <= 3 * len(witnesses)
        assert bool(built) == bool(witnesses) == fork

    @pytest.mark.parametrize("fork", (True, False), ids=("fork", "chain"))
    def test_only_witnesses_build_events(self, monkeypatch, fork):
        """A run, its classification and a monitor replay build an event
        only to word a witness (at most three per witness)."""
        built = _count_built_events(monkeypatch)
        run = _run(fork)
        result = classify_run(run)
        ConsistencyMonitor().replay(run.history)
        witnesses = _witnesses(result.strong_report, result.eventual_report)
        assert len(run.history) > 200
        assert len(built) <= 3 * len(witnesses)
        assert bool(built) == bool(witnesses) == fork

    @pytest.mark.parametrize("fork", (True, False), ids=("fork", "chain"))
    def test_a_monitored_run_builds_only_witness_events(self, monkeypatch, fork):
        """``monitor=True`` checks the finished history: the run itself
        builds no event, so the only ones built word the witnesses of the
        classification, whose reports the monitor payload carries (a
        replay's are the same reports)."""
        built = _count_built_events(monkeypatch)
        spec = _spec(fork, monitor=True)
        record = spec.execute()
        count = len(built)
        monitor = ConsistencyMonitor(spec.build_score()).replay(record.run.history)
        result = record.classification_result
        witnesses = _witnesses(result.strong_report, result.eventual_report, *monitor.reports())
        assert record.consistency == monitor.summary()
        assert len(record.run.history) > 200
        assert count <= 3 * len(witnesses)
        assert bool(count) == bool(witnesses) == fork


class TestTimeColumn:
    """Each recorded event carries the virtual time it was recorded at."""

    def _recorded(self):
        clock = SimpleNamespace(now=0.0)
        recorder = HistoryRecorder(clock)
        recorder.complete("p", "append", Block("b1", GENESIS_ID), True)
        clock.now = 1.5
        recorder.complete("q", "append", Block("b2", GENESIS_ID), False)
        clock.now = 4.0
        recorder.complete("q", "read", None, Blockchain((GENESIS,)))
        return recorder, clock

    def test_the_recorder_stamps_its_clocks_now(self):
        recorder, _ = self._recorded()
        assert recorder.history()._times.tolist() == [0.0, 0.0, 1.5, 1.5, 4.0, 4.0]
        unclocked = HistoryRecorder()
        unclocked.send("p", GENESIS_ID, "b1")
        assert unclocked.history()._times.tolist() == [0.0]

    def test_restrictions_gather_the_column(self):
        history = self._recorded()[0].history()
        assert history.without_failed_appends()._times.tolist() == [0.0, 0.0, 4.0, 4.0]
        assert history.correct_restriction(["p"])._times.tolist() == [0.0, 0.0, 1.5, 1.5]
        assert History(history.events)._times.tolist() == [0.0] * 6

    def test_a_pickled_recorder_keeps_its_times_and_its_clock(self):
        recorder, clock = self._recorded()
        first = recorder.history()
        restored, restored_clock = pickle.loads(pickle.dumps((recorder, clock)))
        restored_clock.now = 9.0
        restored.send("p", GENESIS_ID, "b1")
        assert restored.history()._times.tolist() == first._times.tolist() + [9.0]

    @pytest.mark.usefixtures("event_core")
    def test_a_run_stamps_the_simulators_time(self):
        run = _run(fork=False)
        times = run.history._times
        assert len(times) == len(run.history)
        assert times[0] >= 0.0 and (times[1:] >= times[:-1]).all()
        assert times[-1] == run.network.simulator.now > 0.0
