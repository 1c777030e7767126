"""Unit tests for score functions, mcps and prefix utilities."""

from __future__ import annotations

import pytest

from repro.core.block import GENESIS, Block, Blockchain
from repro.core.score import (
    LengthScore,
    WeightScore,
    common_prefix_length,
    mcps,
)


def is_monotonic_score(score, chains) -> bool:
    """The strict-increase-under-extension contract of a score, on sample
    chains: every chain with a non-genesis block scores above the chain
    with its tip removed."""
    return all(
        score(chain) > score(chain.prefix(chain.length - 1))
        for chain in chains
        if chain.length
    )


class TestLengthScore:
    def test_genesis_chain_scores_zero(self):
        assert LengthScore()(Blockchain((GENESIS,))) == 0.0

    def test_score_counts_non_genesis_blocks(self, chain_factory):
        assert LengthScore()(chain_factory("a", "b", "c")) == 3.0

    def test_monotonic_under_extension(self, chain_factory):
        chains = [chain_factory(*[f"x{i}" for i in range(1, n + 1)]) for n in range(5)]
        assert is_monotonic_score(LengthScore(), chains)


class TestWeightScore:
    def test_weight_score_sums_block_weights(self):
        b1 = Block("a", "b0", weight=1.5)
        b2 = Block("b", "a", weight=2.5)
        chain = Blockchain((GENESIS, b1, b2))
        assert WeightScore()(chain) == pytest.approx(4.0)

    def test_min_increment_restores_monotonicity_for_zero_weights(self):
        b1 = Block("a", "b0", weight=0.0)
        chain0 = Blockchain((GENESIS,))
        chain1 = Blockchain((GENESIS, b1))
        plain = WeightScore()
        assert plain(chain1) == plain(chain0)  # not strictly monotonic
        bumped = WeightScore(min_increment=0.01)
        assert bumped(chain1) > bumped(chain0)
        assert is_monotonic_score(bumped, [chain1])

    def test_weight_equals_length_for_unit_weights(self, chain_factory):
        chain = chain_factory("a", "b", "c")
        assert WeightScore()(chain) == LengthScore()(chain)


class TestMcps:
    def test_mcps_of_identical_chains(self, chain_factory):
        chain = chain_factory("a", "b")
        assert mcps(chain, chain) == 2.0

    def test_mcps_of_prefix_related_chains(self, chain_factory):
        assert mcps(chain_factory("a"), chain_factory("a", "b", "c")) == 1.0

    def test_mcps_of_divergent_chains(self, chain_factory):
        assert mcps(chain_factory("a", "b"), chain_factory("a", "x")) == 1.0
        assert mcps(chain_factory("a"), chain_factory("x")) == 0.0

    def test_mcps_with_custom_score(self, chain_factory):
        a = chain_factory("a", "b")
        b = chain_factory("a", "c")
        assert mcps(a, b, WeightScore()) == pytest.approx(1.0)

    def test_common_prefix_length_matches_mcps_for_length_score(self, chain_factory):
        a = chain_factory("a", "b", "c")
        b = chain_factory("a", "b", "x")
        assert common_prefix_length(a, b) == 2
        assert mcps(a, b) == 2.0


class TestMonotonicityHelper:
    def test_rejects_non_monotonic_score(self, chain_factory):
        class ConstantScore:
            def __call__(self, chain):
                return 1.0

        assert not is_monotonic_score(ConstantScore(), [chain_factory("a", "b")])

    def test_accepts_genesis_only_samples(self):
        assert is_monotonic_score(LengthScore(), [Blockchain((GENESIS,))])
