"""Cross-module integration tests exercising the whole stack."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.convergence import convergence_summary
from repro.analysis.forks import fork_statistics, merge_statistics
from repro.core.consistency import check_eventual_consistency, check_strong_consistency
from repro.core.hierarchy import refinement_hierarchy, is_weaker_or_equal
from repro.network.channels import SynchronousChannel
from repro.oracle.fork_coherence import check_fork_coherence_from_oracle
from repro.protocols.classification import classify_run
from repro.protocols.ghost import run_ethereum
from repro.protocols.nakamoto import run_bitcoin
from repro.protocols.redbelly import run_redbelly
from repro.workload.merit import zipf_merit


class TestPowPipeline:
    @pytest.fixture(scope="class")
    def pow_run(self):
        return run_bitcoin(
            n=5,
            duration=150.0,
            token_rate=0.4,
            seed=41,
            merit=zipf_merit(5, exponent=1.0),
            channel=SynchronousChannel(delta=2.0, seed=41),
        )

    def test_history_and_trees_are_consistent_with_each_other(self, pow_run):
        # Every block present in any replica's final chain was appended in
        # the history by its creator.
        appended = {
            inv.argument.block_id for inv in pow_run.history.append_invocations()
        }
        for chain in pow_run.final_chains().values():
            for block in chain:
                if not block.is_genesis:
                    assert block.block_id in appended

    def test_fork_statistics_and_coherence_agree(self, pow_run):
        stats = {
            pid: fork_statistics(replica.tree)
            for pid, replica in pow_run.replicas.items()
        }
        merged = merge_statistics(stats)
        assert merged["replicas"] == 5.0
        coherence = check_fork_coherence_from_oracle(pow_run.oracle)
        assert coherence.holds  # bound is infinite
        # If any replica saw a fork, the oracle must have consumed more than
        # one token for some parent.
        if merged["mean_forks"] > 0:
            assert coherence.max_forks >= 2

    def test_convergence_summary_after_drain(self, pow_run):
        summary = convergence_summary(pow_run.final_chains())
        assert summary.agreement_ratio == 1.0
        assert summary.max_divergence == 0.0

    def test_classification_is_coherent_with_hierarchy(self, pow_run):
        result = classify_run(pow_run)
        assert result.refinement is not None
        hierarchy = refinement_hierarchy()
        # The measured refinement is one of the vertices of Figure 8.
        assert any(result.refinement == vertex for vertex in hierarchy)


class TestMixedSystems:
    def test_ethereum_and_bitcoin_share_the_ec_class(self):
        eth = run_ethereum(n=4, duration=100.0, token_rate=0.5, seed=42,
                           channel=SynchronousChannel(delta=2.0, seed=42))
        btc = run_bitcoin(n=4, duration=100.0, token_rate=0.5, seed=42,
                          channel=SynchronousChannel(delta=2.0, seed=42))
        for run in (eth, btc):
            assert check_eventual_consistency(run.history.without_failed_appends()).holds

    def test_consortium_chain_is_stronger_than_pow_chain(self):
        consortium = classify_run(run_redbelly(n=5, duration=80.0, seed=43))
        pow_chain = classify_run(
            run_bitcoin(n=5, duration=150.0, token_rate=0.5, seed=43,
                        channel=SynchronousChannel(delta=3.0, seed=43))
        )
        assert consortium.refinement is not None and pow_chain.refinement is not None
        assert is_weaker_or_equal(pow_chain.refinement, consortium.refinement)
        assert not is_weaker_or_equal(consortium.refinement, pow_chain.refinement)

    def test_strong_system_history_also_passes_ec(self):
        run = run_redbelly(n=5, duration=80.0, seed=44)
        history = run.history.without_failed_appends()
        assert check_strong_consistency(history).holds
        assert check_eventual_consistency(history).holds


def test_classify_output_does_not_depend_on_the_hash_seed():
    """Determinism per seed must not lean on ``str`` hashing (set / dict
    order): the ledger pins ``PYTHONHASHSEED=0``, so two other values."""
    source = str(Path(sys.modules["repro"].__file__).parents[1])
    command = [
        sys.executable, "-m", "repro", "classify", "bitcoin",
        "--fork-prone", "--duration", "60", "--seed", "7",
    ]  # fmt: skip
    outputs = [
        subprocess.run(
            command,
            env={**os.environ, "PYTHONPATH": source, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            check=True,
            timeout=60,
        ).stdout
        for hash_seed in ("1", "12345")
    ]
    assert outputs[0] == outputs[1]
    assert b"R(BT-ADT_EC" in outputs[0]
