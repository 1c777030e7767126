"""Tests for the :class:`DegradationMonitor`, a pass over a finished history's index.

Hand-built histories, recorded through a :class:`HistoryRecorder` on a
settable clock, pin every quantity exactly: prefix-related reads count
as depth 0 (stale ≠ diverged), genuine forks as the depth of the
shallower branch past the LCA, Byzantine tips and the tips of replicas
crashed at a read (per the liveness log) are excluded, and the heal is
the first post-``heal_at`` read at depth 0.  Recorded fault runs — every
registered kind, both event cores, several seeds, and a crash revived
while a partition is open — hold the pass, summary and samples, to the
brute-force replay in ``tests/core/reference_degradation.py``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import pytest

from repro.core.block import GENESIS, Block, Blockchain
from repro.core.consistency_index import ConsistencyIndex
from repro.core.degradation import DegradationMonitor
from repro.core.history import HistoryRecorder
from repro.engine import FaultSpec, get_protocol
from repro.network.faults import FAULTS, ChurnFault, FaultModel, PartitionFault
from tests.core.reference_degradation import replay_degradation
from tests.test_behaviour_lock import _FAULT_BASE, _FAULT_PARAMS


def _chain(*ids: str) -> Blockchain:
    blocks = [GENESIS]
    for bid in ids:
        blocks.append(Block(block_id=bid, parent_id=blocks[-1].block_id))
    return Blockchain(tuple(blocks))


class _Script:
    """A recorder on a settable clock, and a liveness log kept beside it."""

    def __init__(self) -> None:
        self.clock = SimpleNamespace(now=0.0)
        self.recorder = HistoryRecorder(self.clock)
        self.liveness = []

    def read(self, process: str, chain: Blockchain, at: Optional[float] = None) -> "_Script":
        if at is not None:
            self.clock.now = at
        self.recorder.complete(process, "read", None, chain)
        return self

    def set_alive(self, process: str, alive: bool) -> "_Script":
        self.liveness.append((len(self.recorder), process, alive))
        return self

    def monitor(self, **kwargs) -> DegradationMonitor:
        history = self.recorder.history()
        index = ConsistencyIndex.from_history(history)
        return DegradationMonitor(index, history._times, liveness=self.liveness, **kwargs)


class TestDivergenceDepth:
    def test_single_reader_never_diverges(self):
        monitor = _Script().read("p0", _chain("a", "b")).monitor()
        assert monitor.reads_seen == 1
        assert monitor.current_divergence_depth == 0

    def test_prefix_related_tips_count_as_agreement(self):
        script = _Script().read("p0", _chain("a", "b", "c"))
        monitor = script.read("p1", _chain("a")).monitor()  # stale prefix, not a fork
        assert monitor.current_divergence_depth == 0
        assert monitor.max_divergence_depth == 0

    def test_fork_depth_is_shallower_branch_past_lca(self):
        script = _Script().read("p0", _chain("a", "x1", "x2", "x3"))
        monitor = script.read("p1", _chain("a", "y1", "y2")).monitor()
        # LCA is 'a': branches of depth 3 and 2 -> min is 2.
        assert monitor.current_divergence_depth == 2
        assert monitor.max_divergence_depth == 2

    def test_samples_record_depth_changes_only(self):
        script = _Script().read("p0", _chain("a"), at=1.0)
        script.read("p1", _chain("a"), at=2.0)  # still depth 0: no new sample
        script.read("p0", _chain("a", "x1"), at=3.0)
        script.read("p1", _chain("a", "y1"), at=4.0)  # depth 1: sample
        script.read("p1", _chain("a", "x1"), at=5.0)  # back to 0: sample
        assert script.monitor().samples == [(1.0, 0), (4.0, 1), (5.0, 0)]

    def test_byzantine_tips_are_excluded(self):
        script = _Script().read("p0", _chain("a", "x1"))
        monitor = script.read("p1", _chain("a", "y1")).monitor(byzantine=["p1"])
        assert monitor.current_divergence_depth == 0

    def test_a_replica_counts_only_while_it_is_alive(self):
        script = _Script().read("p0", _chain("a", "x1")).read("p1", _chain("a", "y1"))
        script.set_alive("p1", False).read("p0", _chain("a", "x1", "x2"))
        script.set_alive("p1", True).read("p0", _chain("a", "x1", "x2"))
        # p1's last tip counts again once it is revived, before it reads.
        assert [depth for _, depth in script.monitor().samples] == [0, 1, 0, 1]

    def test_non_read_events_are_ignored(self):
        script = _Script()
        script.recorder.complete("p0", "append", _chain("a").tip, True)
        monitor = script.monitor()
        assert monitor.reads_seen == 0
        assert monitor.samples == []


class TestHealing:
    def test_time_to_heal_measures_first_agreement_after_heal(self):
        script = _Script().read("p0", _chain("a", "x1"), at=5.0)
        script.read("p1", _chain("a", "y1"))  # diverged before the heal
        script.read("p1", _chain("a", "y1"), at=12.0)  # post-heal but still diverged
        script.read("p1", _chain("a", "x1", "x2"), at=14.0)
        script.read("p1", _chain("a", "z1"), at=20.0)
        monitor = script.monitor(heal_at=10.0)
        # The heal instant is latched: later divergence does not unset it.
        assert monitor.healed_at == 14.0
        assert monitor.time_to_heal == 4.0
        assert monitor.current_divergence_depth == 1

    def test_agreement_before_heal_time_does_not_count(self):
        script = _Script().read("p0", _chain("a"), at=2.0).read("p1", _chain("a"))
        assert script.monitor(heal_at=10.0).healed_at is None

    def test_no_heal_time_disables_the_measurement(self):
        monitor = _Script().read("p0", _chain("a")).monitor()
        assert monitor.time_to_heal is None
        summary = monitor.summary()
        assert summary["heal_at"] is None
        assert summary["time_to_heal"] is None

    def test_summary_is_json_ready(self):
        monitor = _Script().read("p0", _chain("a"), at=11.0).monitor(heal_at=10.0)
        assert monitor.summary() == {
            "reads": 1,
            "max_divergence_depth": 0,
            "final_divergence_depth": 0,
            "heal_at": 10.0,
            "healed_at": 11.0,
            "time_to_heal": 1.0,
            "samples": 1,
        }


def _against_the_oracle(run) -> DegradationMonitor:
    """Assert the run's degradation pass is the brute-force replay's; return it."""
    degradation = DegradationMonitor.of_run(run)
    byzantine = [pid for pid, replica in run.replicas.items() if replica.byzantine]
    summary, samples = replay_degradation(
        run.history,
        run.history._times.tolist(),
        run.network.liveness,
        byzantine,
        degradation.heal_at,
    )
    assert degradation.summary() == summary
    assert degradation.samples == samples
    return degradation


def _fault_run(kind: str, seed: int):
    """The lock's fault cell of ``kind`` (fork-prone), at ``seed``."""
    fault = FaultSpec(kind=kind, params=_FAULT_PARAMS[kind])
    spec = _FAULT_BASE.with_updates(seed=seed, fault=fault)
    return get_protocol(spec.protocol).runner_for(None)(**spec.build_kwargs())


class _PartitionAndChurn(FaultModel):
    """Two faults at once: each stage calls the partition's, then the churn's."""

    def __init__(self, partition: PartitionFault, churn: ChurnFault) -> None:
        self.faults = (partition, churn)

    def install(self, network) -> None:
        for fault in self.faults:
            fault.install(network)

    def after_process_start(self, process) -> None:
        for fault in self.faults:
            fault.after_process_start(process)

    def after_start(self, network) -> None:
        for fault in self.faults:
            fault.after_start(network)

    def heal_time(self):
        return max(fault.heal_time() for fault in self.faults)


@pytest.mark.usefixtures("event_core")
class TestAgainstTheReplay:
    @pytest.mark.parametrize("kind", sorted(FAULTS.names()))
    def test_every_fault_kind(self, kind):
        depths = []
        for seed in (0, 1, 2):
            run = _fault_run(kind, seed)
            depths.append(_against_the_oracle(run).max_divergence_depth)
        if kind == "partition":
            assert max(depths) > 0  # a real trajectory

    def test_the_liveness_log_is_the_faults_schedule(self):
        """Churn's leave and join enter the log between the events recorded
        before and after their times."""
        run = _fault_run("churn", 0)
        times = run.history._times
        assert [(pid, alive) for _, pid, alive in run.network.liveness] == [
            ("p1", False),
            ("p1", True),
        ]
        for (before, _, _), at in zip(run.network.liveness, (10.0, 40.0)):
            assert times[before - 1] <= at <= times[before]

    def test_a_crash_revived_inside_an_open_partition(self):
        fault = _PartitionAndChurn(
            PartitionFault(groups=[["p0", "p1"], ["p2", "p3", "p4"]], at=10.0, heal_at=60.0),
            ChurnFault(leave={"p3": 20.0}, join={"p3": 40.0}),
        )
        spec = _FAULT_BASE.with_updates(duration=90.0)
        run = get_protocol(spec.protocol).runner_for(None)(**spec.build_kwargs(), fault=fault)
        liveness = run.network.liveness
        assert [(pid, alive) for _, pid, alive in liveness] == [("p3", False), ("p3", True)]
        degradation = _against_the_oracle(run)
        assert degradation.heal_at == 60.0
        assert degradation.max_divergence_depth > 0
