"""Unit tests for the :class:`DegradationMonitor`.

The monitor folds streamed read responses into divergence-depth samples
and a time-to-heal measurement.  These tests feed hand-built histories
through a :class:`HistoryRecorder` so every quantity is known exactly:
prefix-related reads must count as depth 0 (stale ≠ diverged), genuine
forks as the depth of the shallower branch past the LCA, crashed or
Byzantine tips must be excluded by the ``correct`` predicate, and the
heal is the first post-``heal_at`` observation at depth 0.
"""

from __future__ import annotations

from repro.core.block import GENESIS, Block, Blockchain
from repro.core.degradation import DegradationMonitor
from repro.core.history import HistoryRecorder


def _chain(*ids: str) -> Blockchain:
    blocks = [GENESIS]
    for bid in ids:
        blocks.append(Block(block_id=bid, parent_id=blocks[-1].block_id))
    return Blockchain(tuple(blocks))


def _read(recorder: HistoryRecorder, process: str, chain: Blockchain) -> None:
    token = recorder.invoke(process, "read")
    recorder.respond(token, output=chain)


class TestDivergenceDepth:
    def test_single_reader_never_diverges(self):
        recorder = HistoryRecorder()
        monitor = DegradationMonitor().attach(recorder)
        _read(recorder, "p0", _chain("a", "b"))
        assert monitor.reads_seen == 1
        assert monitor.current_divergence_depth == 0

    def test_prefix_related_tips_count_as_agreement(self):
        recorder = HistoryRecorder()
        monitor = DegradationMonitor().attach(recorder)
        _read(recorder, "p0", _chain("a", "b", "c"))
        _read(recorder, "p1", _chain("a"))  # stale prefix, not a fork
        assert monitor.current_divergence_depth == 0
        assert monitor.max_divergence_depth == 0

    def test_fork_depth_is_shallower_branch_past_lca(self):
        recorder = HistoryRecorder()
        monitor = DegradationMonitor().attach(recorder)
        _read(recorder, "p0", _chain("a", "x1", "x2", "x3"))
        _read(recorder, "p1", _chain("a", "y1", "y2"))
        # LCA is 'a': branches of depth 3 and 2 -> min is 2.
        assert monitor.current_divergence_depth == 2
        assert monitor.max_divergence_depth == 2

    def test_samples_record_depth_changes_only(self):
        recorder = HistoryRecorder()
        monitor = DegradationMonitor().attach(recorder)
        _read(recorder, "p0", _chain("a"))
        _read(recorder, "p1", _chain("a"))          # still depth 0: no new sample
        _read(recorder, "p0", _chain("a", "x1"))
        _read(recorder, "p1", _chain("a", "y1"))    # depth 1: sample
        _read(recorder, "p1", _chain("a", "x1"))    # back to 0: sample
        assert [depth for _, depth in monitor.samples] == [0, 1, 0]

    def test_correct_predicate_excludes_faulty_tips(self):
        recorder = HistoryRecorder()
        monitor = DegradationMonitor(correct=lambda pid: pid != "p1").attach(recorder)
        _read(recorder, "p0", _chain("a", "x1"))
        _read(recorder, "p1", _chain("a", "y1"))  # faulty view: ignored
        assert monitor.current_divergence_depth == 0

    def test_non_read_events_are_ignored(self):
        recorder = HistoryRecorder()
        monitor = DegradationMonitor().attach(recorder)
        token = recorder.invoke("p0", "append", argument=_chain("a").tip)
        recorder.respond(token, output=True)
        assert monitor.reads_seen == 0
        assert monitor.samples == []


class TestHealing:
    def test_time_to_heal_measures_first_agreement_after_heal(self):
        recorder = HistoryRecorder()
        clock = {"now": 0.0}
        monitor = DegradationMonitor(heal_at=10.0, clock=lambda: clock["now"]).attach(recorder)
        clock["now"] = 5.0
        _read(recorder, "p0", _chain("a", "x1"))
        _read(recorder, "p1", _chain("a", "y1"))
        assert monitor.healed_at is None  # diverged before the heal
        clock["now"] = 12.0
        _read(recorder, "p1", _chain("a", "y1"))
        assert monitor.healed_at is None  # post-heal but still diverged
        clock["now"] = 14.0
        _read(recorder, "p1", _chain("a", "x1", "x2"))
        assert monitor.healed_at == 14.0
        assert monitor.time_to_heal == 4.0
        # The heal instant is latched: later divergence does not unset it.
        clock["now"] = 20.0
        _read(recorder, "p1", _chain("a", "z1"))
        assert monitor.healed_at == 14.0

    def test_agreement_before_heal_time_does_not_count(self):
        recorder = HistoryRecorder()
        clock = {"now": 2.0}
        monitor = DegradationMonitor(heal_at=10.0, clock=lambda: clock["now"]).attach(recorder)
        _read(recorder, "p0", _chain("a"))
        _read(recorder, "p1", _chain("a"))
        assert monitor.healed_at is None  # depth 0, but the heal hasn't happened

    def test_no_heal_time_disables_the_measurement(self):
        recorder = HistoryRecorder()
        monitor = DegradationMonitor().attach(recorder)
        _read(recorder, "p0", _chain("a"))
        assert monitor.time_to_heal is None
        summary = monitor.summary()
        assert summary["heal_at"] is None
        assert summary["time_to_heal"] is None

    def test_summary_is_json_ready(self):
        recorder = HistoryRecorder()
        clock = {"now": 11.0}
        monitor = DegradationMonitor(heal_at=10.0, clock=lambda: clock["now"]).attach(recorder)
        _read(recorder, "p0", _chain("a"))
        summary = monitor.summary()
        assert summary == {
            "reads": 1,
            "max_divergence_depth": 0,
            "final_divergence_depth": 0,
            "heal_at": 10.0,
            "healed_at": 11.0,
            "time_to_heal": 1.0,
            "samples": 1,
        }
