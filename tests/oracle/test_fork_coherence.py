"""Unit tests for the k-Fork-Coherence checker (Definition 3.9 / Theorem 3.2)."""

from __future__ import annotations

from repro.core.block import GENESIS, GENESIS_ID, Block
from repro.oracle.fork_coherence import check_fork_coherence_from_oracle
from repro.oracle.tape import DeterministicTape, TapeFamily
from repro.oracle.theta import FrugalOracle, ProdigalOracle


def _always(*processes: str) -> TapeFamily:
    family = TapeFamily()
    for p in processes:
        family.set_tape(p, DeterministicTape([True]))
    return family


class TestOracleLevelCheck:
    def test_frugal_oracle_satisfies_its_own_bound(self):
        oracle = FrugalOracle(k=2, tapes=_always("p"))
        for name in ("a", "b", "c", "d"):
            validated = oracle.get_token(GENESIS, Block(name, GENESIS_ID), process="p")
            oracle.consume_token(validated, process="p")
        result = check_fork_coherence_from_oracle(oracle)
        assert result.holds and bool(result)
        assert result.max_forks == 2

    def test_prodigal_oracle_exceeds_small_bounds(self):
        oracle = ProdigalOracle(tapes=_always("p"))
        for i in range(5):
            validated = oracle.get_token(GENESIS, Block(f"x{i}", GENESIS_ID), process="p")
            oracle.consume_token(validated, process="p")
        assert check_fork_coherence_from_oracle(oracle).holds  # bound = ∞
        tighter = check_fork_coherence_from_oracle(oracle, k=2)
        assert not tighter.holds and not tighter
        assert tighter.max_forks == 5
        assert tighter.violations

    def test_empty_oracle_trivially_holds(self):
        assert check_fork_coherence_from_oracle(FrugalOracle(k=1)).holds

    def test_a_chain_counts_one_token_per_parent(self):
        oracle = FrugalOracle(k=1, tapes=_always("p", "q"))
        a = oracle.get_token(GENESIS, Block("a", GENESIS_ID), process="p")
        oracle.consume_token(a, process="p")
        b = oracle.get_token(a.block, Block("b", GENESIS_ID), process="q")
        oracle.consume_token(b, process="q")
        result = check_fork_coherence_from_oracle(oracle)
        assert result.holds
        assert result.per_token == {GENESIS_ID: 1, "a": 1}

    def test_a_consume_past_the_bound_does_not_count(self):
        oracle = FrugalOracle(k=1, tapes=_always("p", "q"))
        first = oracle.get_token(GENESIS, Block("a", GENESIS_ID), process="p")
        second = oracle.get_token(GENESIS, Block("b", GENESIS_ID), process="q")
        oracle.consume_token(first, process="p")
        assert oracle.consume_token(second, process="q") == (first,)
        result = check_fork_coherence_from_oracle(oracle)
        assert result.holds
        assert result.per_token == {GENESIS_ID: 1}

    def test_granted_tokens_count_only_once_consumed(self):
        oracle = ProdigalOracle(tapes=_always("p"))
        for i in range(3):
            assert oracle.get_token(GENESIS, Block(f"x{i}", GENESIS_ID), process="p")
        result = check_fork_coherence_from_oracle(oracle, k=1)
        assert result.holds
        assert result.per_token == {} and result.max_forks == 0
