"""ConsistencyMonitor vs. the post-hoc checkers.

The monitor's contract: on the history it replayed — any prefix of an
execution — its reports equal the post-hoc checkers evaluated on that
history: name, verdict, count, witnesses and details.  The monitor asks
those checkers, so what the tests hold fixed is its intake: the index it
fills must be the one ``ConsistencyIndex.from_history`` builds.  They
check that on every prefix of generated histories, and at end-of-run on
real protocol executions including crash faults and drop-heavy
(partition-like) channels, where the ``monitor=True`` payload must be
the replay's summary.
"""

from __future__ import annotations

import pytest

from repro.core.consistency import (
    BTEventualConsistency,
    BTStrongConsistency,
    PropertyResult,
    StrongPrefixChecker,
)
from repro.core.consistency_index import ConsistencyMonitor
from repro.core.history import History
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


def _assert_agreement(monitor, history, score):
    strong = BTStrongConsistency(score).check(history)
    eventual = BTEventualConsistency(score).check(history)
    assert monitor.reports() == (strong, eventual)
    assert monitor.summary()["properties"] == {
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
        history, _ = random_history(seed)
        score, _, _ = checker_config(seed)
        monitor = ConsistencyMonitor(score).replay(history)
        _assert_agreement(monitor, history, score)

    @pytest.mark.parametrize("seed", range(0, 60, 4))
    def test_every_prefix(self, seed):
        """The strong form: agreement on *each* prefix, not just the whole."""
        history, _ = random_history(seed)
        score, _, _ = checker_config(seed)
        events = list(history)
        for k in range(1, len(events) + 1):
            prefix = History(events[:k])
            _assert_agreement(ConsistencyMonitor(score).replay(prefix), prefix, score)


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
        assert list(monitor.summary()["properties"].items()) == [
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

    def test_reports_are_kept_until_the_next_replay(self):
        *earlier, last = figure3_history()
        monitor = ConsistencyMonitor().replay(History(earlier))
        kept = monitor.reports()
        assert monitor.reports() is kept
        monitor.replay(History([last]))
        assert monitor.reports() is not kept
        assert monitor.reports() == ConsistencyMonitor().replay(figure3_history()).reports()


class TestProtocolRuns:
    """End-of-run agreement on real protocol executions (raw history)."""

    def _check(self, spec: ExperimentSpec):
        record = spec.with_updates(monitor=True).execute()
        history = record.run.history
        monitor = ConsistencyMonitor(spec.build_score()).replay(history)
        _assert_agreement(monitor, history, spec.build_score())
        assert record.consistency == monitor.summary()
        assert record.consistency["events"] == len(history)

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
