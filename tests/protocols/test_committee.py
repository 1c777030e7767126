"""Unit tests for the committee/consensus engine."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.consistency import check_strong_consistency
from repro.engine import ExperimentSpec, WorkloadSpec
from repro.protocols.committee import (
    CommitteeConfig,
    fixed_proposer,
    round_robin_proposer,
    run_committee_protocol,
    weighted_lottery_proposer,
)
from repro.oracle.theta import ProdigalOracle
from repro.protocols.base import ReplicaConfig
from repro.protocols.committee import CommitteeReplica
from repro.workload.merit import permissioned_merit, uniform_merit


class TestProposerStrategies:
    def test_round_robin_cycles_through_committee(self):
        strategy = round_robin_proposer(("a", "b", "c"))
        assert [strategy(r) for r in range(6)] == ["a", "b", "c", "a", "b", "c"]

    def test_round_robin_requires_members(self):
        with pytest.raises(ValueError):
            round_robin_proposer(())

    def test_fixed_proposer_is_constant(self):
        strategy = fixed_proposer("leader")
        assert {strategy(r) for r in range(10)} == {"leader"}

    def test_weighted_lottery_is_deterministic_per_round(self):
        merit = uniform_merit(4)
        s1 = weighted_lottery_proposer(merit, seed=3)
        s2 = weighted_lottery_proposer(merit, seed=3)
        assert [s1(r) for r in range(20)] == [s2(r) for r in range(20)]

    def test_weighted_lottery_prefers_high_merit(self):
        merit = permissioned_merit(["whale"], readers=["minnow"])
        strategy = weighted_lottery_proposer(merit, seed=1, committee=("whale", "minnow"))
        picks = [strategy(r) for r in range(50)]
        assert picks.count("whale") > picks.count("minnow")

    def test_weighted_lottery_requires_candidates(self):
        with pytest.raises(ValueError):
            weighted_lottery_proposer(uniform_merit(2), committee=())


class TestCommitteeConfig:
    def test_quorum_is_a_two_thirds_majority(self):
        config = CommitteeConfig(committee=tuple(f"p{i}" for i in range(7)),
                                 proposer_strategy=fixed_proposer("p0"))
        assert config.quorum() == 5

    def test_quorum_for_small_committee(self):
        config = CommitteeConfig(committee=("a",), proposer_strategy=fixed_proposer("a"))
        assert config.quorum() == 1


class TestCommitteeReplica:
    def test_requires_fork_free_oracle(self):
        config = CommitteeConfig(committee=("p0",), proposer_strategy=fixed_proposer("p0"))
        with pytest.raises(ValueError):
            CommitteeReplica("p0", ProdigalOracle(), ReplicaConfig(), config)


class TestCommitteeRuns:
    def test_round_robin_run_is_strongly_consistent(self):
        result = run_committee_protocol("generic-bft", n=5, duration=80.0, seed=4)
        history = result.history.without_failed_appends()
        assert check_strong_consistency(history).holds

    def test_all_replicas_commit_the_same_chain(self):
        result = run_committee_protocol("generic-bft", n=5, duration=80.0, seed=4)
        views = result.final_chains()
        reference = next(iter(views.values()))
        assert all(v.ids == reference.ids for v in views.values())

    def test_single_chain_no_forks(self):
        result = run_committee_protocol("generic-bft", n=5, duration=80.0, seed=4)
        for replica in result.replicas.values():
            assert replica.tree.max_fork_degree() <= 1

    def test_committee_subset_restricts_block_creators(self):
        committee = ("p0", "p1")
        result = run_committee_protocol(
            "consortium", n=5, duration=80.0, committee=committee, seed=4
        )
        creators = {b.creator for r in result.replicas.values() for b in r.tree if not b.is_genesis}
        assert creators <= set(committee)

    def test_blocks_carry_transaction_payloads(self):
        result = run_committee_protocol("generic-bft", n=4, duration=60.0, seed=9,
                                        transactions_per_block=3)
        payloads = [
            b.payload
            for r in result.replicas.values()
            for b in r.tree
            if not b.is_genesis
        ]
        assert payloads and all(len(p) == 3 for p in payloads)


class TestLiveConsensusState:
    """A replica keeps votes and proposals of uncommitted blocks only, and
    dropping the rest moves no history: the payloads equal the ones
    computed before replicas dropped anything."""

    @pytest.fixture(scope="class")
    def hyperledger(self):
        return ExperimentSpec(
            protocol="hyperledger", replicas=16, duration=300.0, seed=3,
            workload=WorkloadSpec(read_interval=1.0),
        ).execute()

    def test_committed_blocks_leave_no_votes_or_proposals(self, hyperledger):
        for replica in hyperledger.run.replicas.values():
            assert replica.blocks_committed > 50
            assert not replica._committed & (set(replica._votes) | set(replica._pending_blocks))

    def test_a_late_vote_for_a_committed_block_stores_nothing(self, hyperledger):
        replica = hyperledger.run.replicas["p3"]
        committed = replica.tree.leaves()[0]
        assert committed in replica._committed
        replica._handle_vote(committed, "p0")
        assert committed not in replica._votes

    def test_hyperledger_payload_is_unchanged(self, hyperledger):
        digest = hashlib.sha256(hyperledger.stable_json().encode()).hexdigest()
        assert digest == "d9040f543a12c24a7a2750aeda8e3282d4563811843b753bdb74e873f50cd1a2"

    def test_redbelly_payload_is_unchanged(self):
        result = ExperimentSpec(
            protocol="redbelly", replicas=8, duration=200.0, seed=1,
            workload=WorkloadSpec(read_interval=1.0),
        ).execute()
        digest = hashlib.sha256(result.stable_json().encode()).hexdigest()
        assert digest == "1d7a4a6b6da27c5a25e190b5646f2414cb7ca99bb4bcec7448963985783d6df9"
