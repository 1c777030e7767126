"""The registered adversary vocabulary (``@register_fault``).

Covers the registry contract (collision, uniform unknown-name error,
seed forwarding), each fault model's constructor validation, and the two
equivalence bars the tentpole demands:

* ``crash`` and ``silent`` built through the registry must reproduce the
  retired legacy runners event-for-event (their ``History.events`` are
  pinned by digest, recorded before the runners were deleted);
* the healing adversaries (``partition``, ``churn``, ``eclipse``) must
  actually degrade the run while active and actually recover after their
  heal time, as observed by the :class:`DegradationMonitor`.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.errors import UnknownVocabularyError
from repro.network.channels import SynchronousChannel
from repro.network.faults import (
    FAULT_REGISTRY,
    ChurnFault,
    CrashFault,
    EclipseFault,
    FaultModel,
    PartitionFault,
    SilentFault,
    available_faults,
    build_fault,
    get_fault,
    register_fault,
    state_sync,
)
from repro.protocols.committee import run_committee
from repro.protocols.nakamoto import run_bitcoin


class TestRegistry:
    def test_shipped_vocabulary(self):
        assert set(available_faults()) >= {"crash", "silent", "churn", "partition", "eclipse"}

    def test_get_fault_resolves(self):
        assert get_fault("partition") is PartitionFault

    def test_unknown_kind_raises_uniform_vocabulary_error(self):
        with pytest.raises(UnknownVocabularyError) as excinfo:
            get_fault("gremlins")
        message = str(excinfo.value)
        assert message.startswith("unknown fault 'gremlins'; registered:")
        assert "'partition'" in message

    def test_collision_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_fault("crash")(CrashFault)

    def test_build_fault_skips_seed_for_seedless_faults(self):
        # None of the shipped faults take a seed; build_fault must not
        # force one on them (the TypeError would name 'seed').
        fault = build_fault("eclipse", {"victim": "p0", "until": 5.0}, seed=123)
        assert isinstance(fault, EclipseFault)

    def test_registry_is_open(self):
        @register_fault("test-jitter")
        class JitterFault(FaultModel):
            def __init__(self, seed: int = 0) -> None:
                self.seed = seed

        try:
            fault = build_fault("test-jitter", {}, seed=99)
            assert fault.seed == 99  # seed forwarded when accepted
        finally:
            del FAULT_REGISTRY["test-jitter"]


class TestValidation:
    def test_crash_rejects_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            CrashFault(at={"p0": -1.0})

    def test_churn_rejects_join_without_leave(self):
        with pytest.raises(ValueError, match="never leave"):
            ChurnFault(leave={"p0": 5.0}, join={"p1": 9.0})

    def test_churn_rejects_rejoin_before_departure(self):
        with pytest.raises(ValueError, match="strictly after"):
            ChurnFault(leave={"p0": 5.0}, join={"p0": 5.0})

    def test_partition_rejects_overlapping_groups(self):
        with pytest.raises(ValueError, match="two groups"):
            PartitionFault(groups=[["p0", "p1"], ["p1"]])

    def test_partition_rejects_heal_before_split(self):
        with pytest.raises(ValueError, match="heal_at"):
            PartitionFault(groups=[["p0"], ["p1"]], at=10.0, heal_at=10.0)

    def test_eclipse_rejects_empty_window(self):
        with pytest.raises(ValueError, match="end after"):
            EclipseFault(victim="p0", at=5.0, until=5.0)

    @pytest.mark.parametrize(
        "fault",
        (
            CrashFault(at={"p9": 1.0}),
            SilentFault(members=("p9",)),
            ChurnFault(leave={"p9": 1.0}),
            PartitionFault(groups=[["p0"], ["p9"]]),
            EclipseFault(victim="p9", until=5.0),
        ),
    )
    def test_install_rejects_unknown_replicas(self, fault):
        with pytest.raises(ValueError, match="unknown"):
            run_bitcoin(n=3, duration=10.0, seed=1, fault=fault)


#: sha256 over ``repr(history.events)`` and ``messages_sent``, recorded at
#: commit 3c21c03 from ``run_bitcoin_with_crashes(n=5, duration=120.0,
#: token_rate=0.3, seed=17, crash_at={"p4": 30.0, "p2": 60.0})``,
#: ``run_committee_with_byzantine(n=7, duration=120.0, seed=5,
#: byzantine=("p5", "p6"))`` and the same call without ``byzantine`` — the
#: last commit that had those two runners.
LEGACY_PINS = {
    "bitcoin-crash": ("308dd6b52a75365c7343145205e13b6b7427c65ba79b9cbe36aa219497f9aa2c", 583),
    "committee-silent": ("d53e9fddc776323103e10c9e6c8cb31b7017de85a21620bc7f0f503db4ca5107", 168),
    "committee": ("104b91982407258a9a291fcf1232c977409d0b230109f142b60d19ca5835f2b7", 1344),
}


def _pin(run):
    digest = hashlib.sha256(repr(run.history.events).encode("utf-8")).hexdigest()
    return digest, run.network.messages_sent


class TestLegacyEquivalence:
    def test_crash_fault_matches_legacy_runner_event_for_event(self):
        registered = run_bitcoin(
            n=5,
            duration=120.0,
            token_rate=0.3,
            seed=17,
            channel=SynchronousChannel(delta=1.0, seed=17),
            fault=build_fault("crash", {"at": {"p4": 30.0, "p2": 60.0}}),
        )
        assert _pin(registered) == LEGACY_PINS["bitcoin-crash"]
        assert not registered.replicas["p4"].alive
        assert not registered.replicas["p2"].alive

    def test_silent_fault_matches_legacy_runner_event_for_event(self):
        registered = run_committee(
            n=7,
            duration=120.0,
            seed=5,
            fault=build_fault("silent", {"members": ("p5", "p6")}),
        )
        assert _pin(registered) == LEGACY_PINS["committee-silent"]
        assert registered.replicas["p5"].byzantine
        assert registered.replicas["p6"].byzantine

    def test_bare_committee_matches_its_legacy_runner_event_for_event(self):
        run = run_committee(n=7, duration=120.0, seed=5)
        assert _pin(run) == LEGACY_PINS["committee"]
        assert run.name == "committee"


def _partition_fault(heal_at):
    return PartitionFault(
        groups=[["p0", "p1", "p2"], ["p3", "p4", "p5"]], at=15.0, heal_at=heal_at
    )


class TestHealingAdversaries:
    def test_partition_splits_then_heals(self):
        result = run_bitcoin(
            n=6, duration=120.0, token_rate=0.4, seed=3, fault=_partition_fault(60.0)
        )
        degradation = result.degradation
        assert degradation.max_divergence_depth > 0  # genuinely split-brain
        assert degradation.current_divergence_depth == 0  # converged again
        assert degradation.time_to_heal is not None
        assert degradation.time_to_heal >= 0.0
        tips = {chain.tip.block_id for chain in result.final_chains().values()}
        assert len(tips) == 1

    def test_partition_without_heal_stays_diverged(self):
        result = run_bitcoin(
            n=6, duration=120.0, token_rate=0.4, seed=3, fault=_partition_fault(None)
        )
        degradation = result.degradation
        assert degradation.current_divergence_depth > 0
        assert degradation.heal_at is None
        assert degradation.time_to_heal is None

    def test_churn_quarantines_and_reconverges(self):
        fault = ChurnFault(leave={"p4": 20.0, "p5": 35.0}, join={"p4": 70.0, "p5": 60.0})
        result = run_bitcoin(n=6, duration=120.0, token_rate=0.4, seed=3, fault=fault)
        assert fault.heal_time() == 70.0
        # All six replicas end on one tip, including the two rejoiners.
        tips = {chain.tip.block_id for chain in result.final_chains().values()}
        assert len(tips) == 1
        assert result.replicas["p4"].alive and result.replicas["p5"].alive
        network = result.network
        # Deliveries in flight to the departed replicas are absorbed.
        assert network.messages_quarantined > 0
        assert network.messages_sent == (
            network.messages_delivered
            + network.messages_dropped
            + network.messages_quarantined
        )

    def test_churn_without_rejoin_removes_member_for_good(self):
        fault = ChurnFault(leave={"p5": 20.0})
        result = run_bitcoin(n=6, duration=80.0, token_rate=0.4, seed=3, fault=fault)
        assert fault.heal_time() is None
        assert "p5" not in result.network.process_ids
        assert not result.replicas["p5"].alive

    def test_eclipse_isolates_then_reconciles(self):
        fault = EclipseFault(victim="p2", at=10.0, until=50.0)
        result = run_bitcoin(n=6, duration=120.0, token_rate=0.4, seed=3, fault=fault)
        degradation = result.degradation
        assert degradation.heal_at == 50.0
        assert degradation.current_divergence_depth == 0
        tips = {chain.tip.block_id for chain in result.final_chains().values()}
        assert len(tips) == 1

    def test_fault_free_history_unchanged_by_noop_fault(self):
        """The fault-run staging loop is event-identical to network.start()."""
        plain = run_bitcoin(n=4, duration=60.0, token_rate=0.4, seed=11)
        noop = run_bitcoin(
            n=4, duration=60.0, token_rate=0.4, seed=11, fault=CrashFault(at={})
        )
        assert plain.history.events == noop.history.events
        assert plain.degradation is None
        assert noop.degradation is not None  # monitor attached, run unperturbed


class TestStateSync:
    def test_sync_is_idempotent_on_agreeing_replicas(self):
        result = run_bitcoin(n=4, duration=60.0, token_rate=0.4, seed=11)
        assert state_sync(result.network) == 0

    def test_sync_merges_diverged_views(self):
        result = run_bitcoin(
            n=6, duration=60.0, token_rate=0.4, seed=3, fault=_partition_fault(None)
        )
        # Still split-brain at the end of the run; a manual sweep merges.
        assert state_sync(result.network) > 0
        sizes = {len(replica.tree) for replica in result.replicas.values()}
        assert len(sizes) == 1

    def test_sync_skips_deregistered_targets(self):
        """Pin: syncing toward departed replicas is a no-op, not a KeyError.

        A heal-time sweep can race membership — every member of one
        partition side may have churned out before ``heal_at`` fires.
        ``state_sync`` must quietly skip pids no longer registered (or no
        longer alive) rather than index into a membership map that lost
        them.
        """
        result = run_bitcoin(
            n=6, duration=60.0, token_rate=0.4, seed=3, fault=_partition_fault(None)
        )
        network = result.network
        departed = ["p4", "p5"]
        for pid in departed:
            network.deregister(pid)
            result.replicas[pid].crash()
        # Explicit targets naming only departed replicas: nothing to do.
        assert state_sync(network, targets=departed) == 0
        # The global sweep still merges the registered replicas' diverged
        # views (p3 kept the other side of the split alive).
        assert state_sync(network) > 0
        sizes = {len(result.replicas[pid].tree) for pid in ("p0", "p1", "p2", "p3")}
        assert len(sizes) == 1

    def test_partition_heals_after_entire_group_churned_out(self):
        """Pin: a heal whose group membership emptied mid-run completes.

        Group B (p3..p5) leaves for good at t=25; the partition heals at
        t=60, triggering the global ``state_sync`` sweep while one whole
        side of the split is deregistered.  The run must finish with the
        survivors converged — not die on the vanished membership.
        """

        class _SplitThenExodus(FaultModel):
            def __init__(self):
                self.partition = _partition_fault(60.0)
                self.churn = ChurnFault(
                    leave={"p3": 25.0, "p4": 25.0, "p5": 25.0}
                )

            def install(self, network):
                self.partition.install(network)
                self.churn.install(network)

            def after_start(self, network):
                self.partition.after_start(network)
                self.churn.after_start(network)

            def heal_time(self):
                return self.partition.heal_time()

        result = run_bitcoin(
            n=6, duration=120.0, token_rate=0.4, seed=3, fault=_SplitThenExodus()
        )
        assert set(result.network.process_ids) == {"p0", "p1", "p2"}
        tips = {
            chain.tip.block_id
            for pid, chain in result.final_chains().items()
            if pid in ("p0", "p1", "p2")
        }
        assert len(tips) == 1
