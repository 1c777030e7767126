"""Streaming ConsistencyMonitor vs. the post-hoc checkers.

The monitor's contract: at any prefix of an execution its reports equal
the post-hoc checkers evaluated on the history recorded so far — name,
verdict, count, witnesses and details.  The monitor asks those checkers,
so what the tests hold fixed is its intake: the index it feeds event by
event must be the one ``ConsistencyIndex.from_history`` builds.  They
check that per event on generated histories, and at end-of-run on real
protocol executions including crash faults and drop-heavy
(partition-like) channels.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.consistency import (
    BTEventualConsistency,
    BTStrongConsistency,
    PropertyResult,
    StrongPrefixChecker,
)
from repro.core.consistency_index import ConsistencyMonitor
from repro.core.history import History, HistoryRecorder
from repro.core.score import LengthScore, WeightScore
from repro.engine import ChannelSpec, ExperimentSpec, FaultSpec
from repro.workload.scenarios import (
    figure2_history,
    figure3_history,
    figure4_history,
    generate_chain_history,
    generate_forked_history,
)

from tests.core.test_consistency_equivalence import checker_config, random_history


def _assert_agreement(monitor, history, score, validator=None, stall_threshold=None):
    strong = BTStrongConsistency(score, validator, stall_threshold).check(history)
    eventual = BTEventualConsistency(score, validator, stall_threshold).check(history)
    assert monitor.reports() == (strong, eventual)
    assert monitor.property_verdicts() == {
        r.name: r.holds for r in strong.results + eventual.results
    }
    assert monitor.strong_holds() == strong.holds
    assert monitor.eventual_holds() == eventual.holds


class TestReplayAgreement:
    @pytest.mark.parametrize(
        "history_factory",
        [
            figure2_history,
            figure3_history,
            figure4_history,
            lambda: generate_chain_history(4, 18, 8, seed=11),
            lambda: generate_forked_history(7, resolve=True, seed=3),
            lambda: generate_forked_history(7, resolve=False, seed=3),
        ],
    )
    def test_scenarios(self, history_factory):
        history = history_factory()
        for score in (LengthScore(), WeightScore()):
            monitor = ConsistencyMonitor(score=score).replay(history)
            _assert_agreement(monitor, history, score)

    @pytest.mark.parametrize("seed", range(0, 200, 4))
    def test_random_histories(self, seed):
        history, bad_ids = random_history(seed)
        score, stall_threshold, _ = checker_config(seed)
        validator = (lambda block: block.block_id not in bad_ids) if bad_ids else None
        monitor = ConsistencyMonitor(score, validator, stall_threshold).replay(history)
        _assert_agreement(monitor, history, score, validator, stall_threshold)

    @pytest.mark.parametrize("seed", range(0, 60, 4))
    def test_every_prefix(self, seed):
        """The strong form: agreement after *each* event, not just at the end."""
        history, bad_ids = random_history(seed)
        score, stall_threshold, _ = checker_config(seed)
        validator = (lambda block: block.block_id not in bad_ids) if bad_ids else None
        monitor = ConsistencyMonitor(score, validator, stall_threshold)
        events = list(history)
        for k, event in enumerate(events, start=1):
            monitor.observe(event)
            prefix = History(events[:k])
            _assert_agreement(monitor, prefix, score, validator, stall_threshold)


class TestOneImplementation:
    def test_monitor_reports_what_the_checker_returns(self, monkeypatch):
        """The monitor decides nothing: a checker's answer is its answer."""
        history = generate_chain_history(3, 6, 4, seed=1)
        assert ConsistencyMonitor().replay(history).summary()["strong"] is True

        sentinel = PropertyResult("strong-prefix", False, ("sentinel",), count=7)
        monkeypatch.setattr(StrongPrefixChecker, "check", lambda self, history, index: sentinel)
        monitor = ConsistencyMonitor().replay(history)
        assert monitor.reports()[0].result_for("strong-prefix") is sentinel
        # In the order the CLI and the JSON payload print them.
        assert list(monitor.property_verdicts().items()) == [
            ("block-validity", True),
            ("local-monotonic-read", True),
            ("strong-prefix", False),
            ("ever-growing-tree", True),
            ("eventual-prefix", True),
        ]
        assert not monitor.strong_holds() and monitor.eventual_holds()
        summary = monitor.summary()
        assert summary["strong"] is False and summary["eventual"] is True
        assert summary["properties"]["strong-prefix"] is False

    def test_reports_are_kept_until_the_next_event(self):
        *earlier, last = figure3_history()
        monitor = ConsistencyMonitor().replay(History(earlier))
        kept = monitor.reports()
        assert monitor.reports() is kept
        monitor.observe(last)
        assert monitor.reports() is not kept


class TestPickledState:
    """The monitor travels inside every ``monitor=True`` checkpoint."""

    def test_round_trip_keeps_observing(self):
        *earlier, last = figure3_history()
        monitor = ConsistencyMonitor().replay(History(earlier))
        monitor.reports()
        restored = pickle.loads(pickle.dumps(monitor))
        restored.observe(last)
        assert restored.reports() == ConsistencyMonitor().replay(figure3_history()).reports()

    def test_pre_merge_snapshot_is_refused(self):
        """A monitor pickled while it decided the properties itself has no
        read table for the checkers; it is refused with the reason, not
        restored into one whose ``summary()`` fails after the run."""
        old_state = dict(
            vars(ConsistencyMonitor()),
            reads_seen=0,
            _validity_ok=True,
            _lmr_ok=True,
            _sp_ok=True,
            _sp_max_tip=None,
        )
        old = ConsistencyMonitor.__new__(ConsistencyMonitor)
        with pytest.raises(ValueError, match="kept its own per-property verdicts"):
            old.__setstate__(old_state)


class TestLiveRecording:
    def test_attach_sees_recorder_events(self):
        recorder = HistoryRecorder()
        monitor = ConsistencyMonitor().attach(recorder)
        reference = figure3_history()
        for event in reference:
            if event.is_append_invocation:
                recorder.complete(event.process, "append", event.argument, True)
            elif event.is_read_response:
                recorder.complete(event.process, "read", None, event.output)
        history = recorder.history()
        assert monitor.events_seen == len(history)
        _assert_agreement(monitor, history, LengthScore())


class TestProtocolRuns:
    """End-of-run agreement on real protocol executions (raw history)."""

    def _check(self, spec: ExperimentSpec):
        record = spec.with_updates(monitor=True).execute()
        assert record.consistency is not None
        run = record.run
        assert run is not None and run.monitor is not None
        _assert_agreement(run.monitor, run.history, spec.build_score())
        # The serialized summary mirrors the live monitor.
        assert record.consistency["strong"] == run.monitor.strong_holds()
        assert record.consistency["eventual"] == run.monitor.eventual_holds()

    def test_fork_prone_bitcoin(self):
        self._check(
            ExperimentSpec(
                protocol="bitcoin",
                replicas=4,
                duration=40.0,
                seed=7,
                channel=ChannelSpec(
                    kind="synchronous", params={"delta": 3.0, "min_delay": 0.5}
                ),
                params={"token_rate": 0.4},
            )
        )

    def test_strongly_consistent_hyperledger(self):
        self._check(
            ExperimentSpec(protocol="hyperledger", replicas=4, duration=40.0, seed=3)
        )

    def test_crash_fault(self):
        self._check(
            ExperimentSpec(
                protocol="bitcoin",
                replicas=4,
                duration=40.0,
                seed=5,
                fault=FaultSpec(kind="crash", params={"at": {"p1": 12.0}}),
                params={"token_rate": 0.3},
            )
        )

    def test_drop_heavy_partition(self):
        self._check(
            ExperimentSpec(
                protocol="bitcoin",
                replicas=4,
                duration=40.0,
                seed=9,
                channel=ChannelSpec(
                    kind="synchronous",
                    params={"delta": 1.0},
                    drop_probability=0.45,
                ),
                params={"token_rate": 0.4},
            )
        )
