"""Fault-injection tests: crashes and silent Byzantine replicas."""

from __future__ import annotations

import pytest

from repro.core.consistency import check_eventual_consistency, check_strong_consistency
from repro.engine import ExperimentSpec, FaultSpec
from repro.network.faults import build_fault
from repro.protocols import run_bitcoin


def _silent_committee(members, *, n=7, duration=120.0, seed=19):
    """A generic-committee run with ``members`` silent, through the spec."""
    spec = ExperimentSpec(
        protocol="committee", replicas=n, duration=duration, seed=seed,
        fault=FaultSpec("silent", params={"members": list(members)}),
    )
    return spec.execute().run


class TestCrashFaults:
    @pytest.fixture(scope="class")
    def crash_run(self):
        return run_bitcoin(
            n=5, duration=120.0, token_rate=0.3, seed=17,
            fault=build_fault("crash", {"at": {"p4": 30.0}}),
        )

    def test_crashed_replica_is_not_correct(self, crash_run):
        assert "p4" not in crash_run.correct_replicas
        assert not crash_run.replicas["p4"].alive

    def test_crashed_replica_stops_producing(self, crash_run):
        # p4 could only mine during its first 30 time units.
        survivors = [r.blocks_created for pid, r in crash_run.replicas.items() if pid != "p4"]
        assert crash_run.replicas["p4"].blocks_created <= max(survivors)

    def test_correct_replicas_still_eventually_consistent(self, crash_run):
        history = crash_run.history.correct_restriction(crash_run.correct_replicas)
        assert check_eventual_consistency(history.without_failed_appends()).holds

    def test_correct_replicas_converge(self, crash_run):
        views = {
            pid: chain
            for pid, chain in crash_run.final_chains().items()
            if pid in crash_run.correct_replicas
        }
        tips = {chain.tip.block_id for chain in views.values()}
        assert len(tips) == 1

    def test_crash_time_validation(self):
        with pytest.raises(ValueError):
            run_bitcoin(n=3, duration=10.0, fault=build_fault("crash", {"at": {"p0": -1.0}}))


class TestByzantineFaults:
    @pytest.fixture(scope="class")
    def byzantine_run(self):
        # n = 7, f = 2 silent members: quorum (floor(14/3)+1 = 5) still reachable.
        return _silent_committee(("p5", "p6"))

    def test_byzantine_replicas_flagged(self, byzantine_run):
        assert set(byzantine_run.correct_replicas) == {f"p{i}" for i in range(5)}
        assert byzantine_run.replicas["p5"].byzantine

    def test_blocks_are_still_committed(self, byzantine_run):
        committed = sum(
            byzantine_run.replicas[pid].blocks_committed
            for pid in byzantine_run.correct_replicas
        )
        assert committed > 0

    def test_correct_replicas_remain_strongly_consistent(self, byzantine_run):
        history = byzantine_run.history.correct_restriction(byzantine_run.correct_replicas)
        assert check_strong_consistency(history.without_failed_appends()).holds

    def test_no_block_is_created_by_a_byzantine_member(self, byzantine_run):
        creators = {
            b.creator
            for pid in byzantine_run.correct_replicas
            for b in byzantine_run.replicas[pid].tree
            if not b.is_genesis
        }
        assert creators.isdisjoint({"p5", "p6"})

    def test_too_many_byzantine_members_halt_progress(self):
        # f = 4 of 7 silent members: the 5-vote quorum can never be formed.
        run = _silent_committee(("p3", "p4", "p5", "p6"), duration=80.0, seed=20)
        committed = sum(r.blocks_committed for r in run.replicas.values())
        assert committed == 0

    def test_unknown_byzantine_name_rejected(self):
        with pytest.raises(ValueError):
            _silent_committee(("ghost",), n=3, duration=10.0)
