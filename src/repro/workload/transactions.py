"""Transaction streams.

Block payloads throughout the library are tuples of opaque transaction
identifiers.  The permissioned-system models (Hyperledger, Red Belly) cut
blocks from a transaction stream ("transactions are appended in a block
until a stop condition is met"); the examples and the double-spend
validity tests need conflicting transactions.  This module provides them,
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["Transaction", "TransactionGenerator"]


@dataclass(frozen=True)
class Transaction:
    """A minimal UTXO-flavoured transaction.

    ``spends`` names the identifiers this transaction consumes; two
    transactions spending the same identifier conflict, which is what the
    :class:`~repro.core.validity.NoDoubleSpend` predicate detects when
    payloads carry the spent identifiers.
    """

    tx_id: str
    sender: str
    spends: Tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.tx_id


class TransactionGenerator:
    """Deterministic transaction id factory with optional conflicts."""

    def __init__(self, seed: int = 0, conflict_rate: float = 0.0) -> None:
        if not 0 <= conflict_rate <= 1:
            raise ValueError("conflict_rate must be in [0, 1]")
        self._rng = np.random.default_rng(seed)
        # Hoisted bound methods (the channels.py idiom): every
        # ``next_transaction`` call in a population-scale run would
        # otherwise pay two attribute lookups on the Generator.  The
        # bit stream is untouched — same methods, same call order.
        self._random = self._rng.random
        self._choice = self._rng.choice
        self._counter = 0
        self._spent_pool: List[str] = []
        self.conflict_rate = conflict_rate

    def next_transaction(self, sender: str) -> Transaction:
        """Produce the next transaction from ``sender``.

        With probability ``conflict_rate`` the transaction re-spends an
        identifier already spent by an earlier transaction (a double
        spend); otherwise it spends a fresh identifier.
        """
        self._counter += 1
        tx_id = f"tx{self._counter}"
        if self._spent_pool and self._random() < self.conflict_rate:
            spends = (str(self._choice(self._spent_pool)),)
        else:
            coin = f"coin{self._counter}"
            self._spent_pool.append(coin)
            spends = (coin,)
        return Transaction(tx_id=tx_id, sender=sender, spends=spends)

    def batch(self, sender: str, size: int) -> Tuple[Transaction, ...]:
        """A batch of ``size`` transactions (a block payload)."""
        if size < 0:
            raise ValueError("size must be non-negative")
        return tuple(self.next_transaction(sender) for _ in range(size))

    def payload(self, sender: str, size: int) -> Tuple[str, ...]:
        """Just the spent identifiers — the form block payloads use."""
        return tuple(spend for tx in self.batch(sender, size) for spend in tx.spends)
