"""End-to-end checks of the paper's theorems on generated executions.

Each test class corresponds to one theorem (or group of theorems) and
re-derives its statement empirically from runs of the library — these are
the same checks the benchmark harness reports on, kept here in smaller
configurations so the test suite stays fast.
"""

from __future__ import annotations

import math

import pytest

from repro.core.block import GENESIS, GENESIS_ID, Block
from repro.core.consistency import check_eventual_consistency, check_strong_consistency
from repro.core.hierarchy import Refinement, consensus_number
from repro.concurrent.consensus_object import check_consensus_properties
from repro.concurrent.reductions import OracleConsensus, SnapshotTokenStore
from repro.concurrent.scheduler import Scheduler
from repro.network.channels import LossyChannel, SynchronousChannel
from repro.network.update_agreement import (
    check_light_reliable_communication,
    check_update_agreement,
)
from repro.oracle.fork_coherence import check_fork_coherence_from_oracle
from repro.oracle.tape import DeterministicTape, TapeFamily
from repro.oracle.theta import FrugalOracle, ProdigalOracle
from repro.protocols.classification import classify_run
from repro.protocols.hyperledger import run_hyperledger
from repro.protocols.nakamoto import run_bitcoin
from repro.workload.scenarios import generate_chain_history, generate_forked_history
from tests.network.fork_heavy_run import TargetedLossChannel


class TestTheorem31SCSubsetEC:
    """Theorem 3.1: H_SC ⊂ H_EC (strict inclusion)."""

    def test_every_sc_history_is_ec(self):
        for seed in range(10):
            history = generate_chain_history(n_processes=3, chain_length=6, seed=seed)
            assert check_strong_consistency(history).holds
            assert check_eventual_consistency(history).holds

    def test_inclusion_is_strict(self):
        witness = generate_forked_history(branch_length=3, resolve=True, seed=1)
        assert check_eventual_consistency(witness).holds
        assert not check_strong_consistency(witness).holds


class TestTheorem32ForkCoherence:
    """Theorem 3.2: the Θ_F composition satisfies k-Fork Coherence."""

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_fork_coherence_for_various_k(self, k):
        family = TapeFamily()
        family.set_tape("p", DeterministicTape([True]))
        oracle = FrugalOracle(k=k, tapes=family)
        for i in range(3 * k):
            validated = oracle.get_token(GENESIS, Block(f"x{i}", GENESIS_ID, creator="p"), process="p")
            oracle.consume_token(validated, process="p")
        result = check_fork_coherence_from_oracle(oracle)
        assert result.holds
        assert result.max_forks == k


class TestTheorems42And43ConsensusNumbers:
    """Theorems 4.2/4.3: Θ_{F,1} solves consensus; Θ_P does not force agreement."""

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_frugal_k1_solves_consensus_for_any_n(self, n):
        family = TapeFamily()
        processes = [f"p{i}" for i in range(n)]
        for p in processes:
            family.set_tape(p, DeterministicTape([True]))
        consensus = OracleConsensus(FrugalOracle(k=1, tapes=family))
        scheduler = Scheduler(seed=n, strategy="random")
        for p in processes:
            scheduler.spawn(p, consensus.propose_steps(p, Block(f"blk_{p}", GENESIS_ID, creator=p)))
        result = scheduler.run()
        decided = {result.results[p].block_id for p in processes}
        assert len(decided) == 1
        check_consensus_properties(consensus, validator=lambda v: v.token is not None)

    def test_declared_consensus_numbers(self):
        assert consensus_number(Refinement.sc_frugal(1)) == math.inf
        assert consensus_number(Refinement.ec_prodigal()) == 1

    def test_prodigal_snapshot_construction_does_not_force_agreement(self):
        store = SnapshotTokenStore(["a", "b"])
        first_view = store.consume_token("a", "token_a")
        second_view = store.consume_token("b", "token_b")
        # Both consumers succeed (unbounded k) and their views differ — no
        # single winner is ever imposed by the object.
        assert first_view != second_view
        assert set(store.read_tokens()) == {"token_a", "token_b"}


class TestTheorems46And47UpdateAgreementNecessity:
    """Theorems 4.6/4.7: dropping an update breaks Eventual Consistency."""

    def _run(self, channel, use_lrc):
        return run_bitcoin(
            n=4,
            duration=120.0,
            token_rate=0.4,
            seed=23,
            channel=channel,
            use_lrc=use_lrc,
        )

    def test_reliable_channels_satisfy_update_agreement_and_ec(self):
        run = self._run(SynchronousChannel(delta=1.0, seed=23), use_lrc=True)
        agreement = check_update_agreement(
            run.history, processes=run.correct_replicas, block_creators=run.block_creators()
        )
        assert agreement.holds
        assert check_eventual_consistency(run.history.without_failed_appends()).holds

    def test_targeted_loss_breaks_r3_and_eventual_prefix(self):
        # Every message addressed to p3 is dropped and p3's own blocks never
        # reach anyone: p3's replica permanently diverges.
        channel = TargetedLossChannel(
            SynchronousChannel(delta=1.0, seed=24),
            drop_if=lambda s, r, t: r == "p3" or s == "p3",
        )
        run = self._run(channel, use_lrc=False)
        agreement = check_update_agreement(
            run.history, processes=run.correct_replicas, block_creators=run.block_creators()
        )
        assert not agreement.r3_holds
        lrc = check_light_reliable_communication(run.history, run.correct_replicas)
        assert not lrc.holds
        assert not check_eventual_consistency(run.history.without_failed_appends()).holds

    def test_heavy_random_loss_without_relay_breaks_convergence(self):
        channel = LossyChannel(SynchronousChannel(delta=1.0, seed=25), 0.95, seed=25)
        run = self._run(channel, use_lrc=False)
        agreement = check_update_agreement(
            run.history, processes=run.correct_replicas, block_creators=run.block_creators()
        )
        assert not agreement.holds


class TestTheorem48StrongPrefixImpossibility:
    """Theorem 4.8: with a fork-allowing oracle, Strong Prefix breaks in
    message passing even with zero faults and synchronous channels."""

    def test_concurrent_appends_violate_strong_prefix(self):
        # Fork-prone proof-of-work regime: two correct processes append
        # concurrently under the prodigal oracle; their reads diverge.
        run = run_bitcoin(
            n=4,
            duration=200.0,
            token_rate=0.6,
            seed=31,
            channel=SynchronousChannel(delta=4.0, min_delay=1.0, seed=31),
        )
        history = run.history.without_failed_appends()
        assert not check_strong_consistency(history).holds
        # ... while the same execution still satisfies Eventual Consistency
        # (the weaker criterion the paper assigns to these systems).
        assert check_eventual_consistency(history).holds

    def test_fork_free_oracle_preserves_strong_prefix(self):
        # The contrast: the k=1 oracle (consensus-based system) keeps Strong
        # Prefix in the same message-passing setting.
        run = run_hyperledger(n=4, duration=100.0, seed=31)
        assert check_strong_consistency(run.history.without_failed_appends()).holds

    def test_classifier_reflects_the_theorem(self):
        run = run_bitcoin(
            n=4,
            duration=200.0,
            token_rate=0.6,
            seed=32,
            channel=SynchronousChannel(delta=4.0, min_delay=1.0, seed=32),
        )
        result = classify_run(run)
        assert result.refinement is not None
        assert not result.refinement.message_passing_implementable or (
            result.refinement.consistency == "EC"
        )
