"""Unit tests for transaction streams."""

from __future__ import annotations

import pytest

from repro.workload.transactions import Transaction, TransactionGenerator


class TestTransactionGenerator:
    def test_ids_are_unique(self):
        gen = TransactionGenerator(seed=1)
        txs = [gen.next_transaction("alice") for _ in range(50)]
        assert len({t.tx_id for t in txs}) == 50

    def test_no_conflicts_by_default(self):
        gen = TransactionGenerator(seed=1)
        spends = [s for _ in range(100) for s in gen.next_transaction("a").spends]
        assert len(spends) == len(set(spends))

    def test_conflict_rate_produces_double_spends(self):
        gen = TransactionGenerator(seed=2, conflict_rate=0.5)
        spends = [s for _ in range(300) for s in gen.next_transaction("a").spends]
        assert len(spends) > len(set(spends))

    def test_invalid_conflict_rate(self):
        with pytest.raises(ValueError):
            TransactionGenerator(conflict_rate=1.5)

    def test_batch_and_payload_sizes(self):
        gen = TransactionGenerator(seed=3)
        assert len(gen.batch("a", 4)) == 4
        assert len(gen.payload("a", 5)) == 5
        assert gen.payload("a", 0) == ()
        with pytest.raises(ValueError):
            gen.batch("a", -1)

    def test_determinism_given_seed(self):
        a = TransactionGenerator(seed=9).payload("x", 10)
        b = TransactionGenerator(seed=9).payload("x", 10)
        assert a == b

    def test_transaction_dataclass(self):
        tx = Transaction("tx1", "alice", spends=("coin1",))
        assert str(tx) == "tx1"
        assert tx.spends == ("coin1",)
