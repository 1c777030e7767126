"""Stream-identity regressions for the vectorized workload refactors.

The PR 6 hot-path work replaced per-op ``numpy.random.Generator``
attribute lookups with hoisted bound methods and turned some scalar draw
loops into single vectorized fills.  None of that may change a single
drawn value: every recorded history, every benchmark baseline and every
cached sweep artifact is seeded, and a perturbed stream would silently
invalidate all of them.  These tests pin the exact equivalences the
refactors rely on.
"""

from __future__ import annotations

import numpy as np

from repro.workload.merit import zipf_merit
from repro.workload.scenarios import generate_chain_history
from repro.workload.transactions import TransactionGenerator


# -- numpy-level equivalences the refactors assume ---------------------------


def test_vectorized_integers_matches_scalar_loop():
    """One ``integers(0, n, size=k)`` fill draws the same elements — and
    leaves the generator in the same state — as k scalar calls."""
    vec_rng = np.random.default_rng(42)
    scalar_rng = np.random.default_rng(42)
    vectorized = vec_rng.integers(0, 7, size=100)
    scalars = [int(scalar_rng.integers(0, 7)) for _ in range(100)]
    assert vectorized.tolist() == scalars
    # Same state afterwards: the next draw agrees too.
    assert float(vec_rng.random()) == float(scalar_rng.random())


def test_hoisted_bound_method_shares_generator_state():
    rng = np.random.default_rng(9)
    hoisted = rng.random
    assert hoisted() == np.random.default_rng(9).random()
    # The hoisted binding advances the same underlying state.
    follow = np.random.default_rng(9)
    follow.random()
    assert rng.random() == follow.random()


# -- zipf merit --------------------------------------------------------------


def test_zipf_vectorized_matches_per_rank_loop():
    """The zipf weights are byte-equal to the historical per-rank loop
    normalized through ``raw / raw.sum()`` — the exact old computation.
    (A vectorized ``np.arange ** exponent`` fill was tried and rejected:
    numpy's pow differs from Python's by ULPs for fractional exponents.)"""
    for n, exponent in ((1, 1.0), (5, 1.0), (64, 0.5), (64, 2.75), (257, 1.2)):
        raw = np.array([1.0 / (i + 1) ** exponent for i in range(n)], dtype=float)
        expected = (raw / raw.sum()).tolist()
        merits = zipf_merit(n, exponent=exponent)
        actual = [merits.merit_of(f"p{i}") for i in range(n)]
        assert actual == expected  # exact float equality, not approx


def test_zipf_unchanged_golden_values():
    merits = zipf_merit(4, exponent=1.0)
    total = 1.0 + 0.5 + 1.0 / 3.0 + 0.25
    assert merits.merit_of("p0") == 1.0 / total
    assert merits.merit_of("p3") == 0.25 / total
    assert merits.merit_of("unknown") == 0.0


# -- transaction generator ---------------------------------------------------


def _reference_transactions(seed: int, conflict_rate: float, count: int):
    """The pre-hoisting implementation, inlined: raw attribute lookups on
    the generator, same draw order."""
    rng = np.random.default_rng(seed)
    counter = 0
    spent_pool: list = []
    out = []
    for _ in range(count):
        counter += 1
        tx_id = f"tx{counter}"
        if spent_pool and rng.random() < conflict_rate:
            spends = (str(rng.choice(spent_pool)),)
        else:
            coin = f"coin{counter}"
            spent_pool.append(coin)
            spends = (coin,)
        out.append((tx_id, spends))
    return out


def test_transaction_generator_stream_identity():
    for seed, conflict_rate in ((0, 0.0), (7, 0.3), (13, 0.9)):
        generator = TransactionGenerator(seed=seed, conflict_rate=conflict_rate)
        produced = [
            (tx.tx_id, tx.spends) for tx in generator.batch("client", 200)
        ]
        assert produced == _reference_transactions(seed, conflict_rate, 200)


# -- chain-history generator -------------------------------------------------


def _reference_chain_history(n_processes, chain_length, reads_per_process, seed):
    """``generate_chain_history`` as it was before vectorization: one
    scalar ``rng.integers(0, n)`` call per block height."""
    from repro.core.block import Block, Blockchain, GENESIS, GENESIS_ID
    from repro.core.history import HistoryRecorder

    rng = np.random.default_rng(seed)
    processes = [f"p{i}" for i in range(n_processes)]
    rec = HistoryRecorder()
    blocks = []
    parent = GENESIS_ID
    for height in range(1, chain_length + 1):
        creator = processes[int(rng.integers(0, n_processes))]
        block = Block(f"c{height}", parent, creator=creator)
        blocks.append(block)
        parent = block.block_id
    appended = 0
    last_read_length = {p: 0 for p in processes}
    read_budget = {p: reads_per_process for p in processes}
    while appended < chain_length or any(read_budget.values()):
        do_append = appended < chain_length and (
            not any(read_budget.values()) or rng.random() < 0.5
        )
        if do_append:
            block = blocks[appended]
            rec.complete(block.creator or processes[0], "append", block, True)
            appended += 1
        else:
            eligible = [p for p in processes if read_budget[p] > 0]
            process = eligible[int(rng.integers(0, len(eligible)))]
            lo = last_read_length[process]
            length = int(rng.integers(lo, appended + 1)) if appended >= lo else lo
            chain = Blockchain((GENESIS, *blocks[:length]))
            rec.complete(process, "read", None, chain)
            last_read_length[process] = length
            read_budget[process] -= 1
    return rec.history()


def test_generate_chain_history_unchanged_by_vectorization():
    """The bulk creator fill reproduces the pre-vectorization histories
    exactly — same blocks, same interleaving, same read lengths."""
    for seed in (0, 3, 17):
        vectorized = generate_chain_history(
            n_processes=4, chain_length=12, reads_per_process=5, seed=seed
        )
        reference = _reference_chain_history(4, 12, 5, seed)
        assert vectorized.events == reference.events
