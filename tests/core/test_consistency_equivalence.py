"""Randomized equivalence: indexed checkers vs. the brute-force oracles.

The PR-2 pattern applied to the consistency layer: the index-backed,
counting checkers in :mod:`repro.core.consistency` must reproduce the
``_Reference*`` oracles (``tests/core/reference_consistency.py``)
*exactly* — verdict, violation count, the first ``WITNESS_LIMIT``
violation strings and ``details`` (see ``bounded``) — on generated
histories covering fork-heavy shapes, drop-heavy (stale) reads, invalid
blocks, never-appended blocks, late appends, random weights and every
checker configuration.
"""

from __future__ import annotations

import random

import pytest

from repro.core.block import Block, Blockchain, GENESIS, GENESIS_ID
from repro.core.consistency import (
    BlockValidityChecker,
    BTEventualConsistency,
    BTStrongConsistency,
    EventualPrefixChecker,
    EverGrowingTreeChecker,
    LocalMonotonicReadChecker,
    StrongPrefixChecker,
)
from repro.core.consistency_index import ConsistencyIndex
from repro.core.history import History, HistoryRecorder
from repro.core.score import LengthScore, WeightScore
from repro.workload.scenarios import (
    figure2_history,
    figure3_history,
    figure4_history,
    generate_chain_history,
    generate_forked_history,
)

from tests.core.reference_consistency import (
    _ReferenceBlockValidityChecker,
    _ReferenceEventualPrefixChecker,
    _ReferenceEverGrowingTreeChecker,
    _ReferenceLocalMonotonicReadChecker,
    _ReferenceStrongPrefixChecker,
    _reference_eventual_consistency,
    _reference_strong_consistency,
    all_pairs_eventual_prefix,
    bounded,
)

N_RANDOM_HISTORIES = 220


def random_history(seed: int):
    """One generated history plus the ids its validator should reject.

    Mixes chain growth with forks (random parents), stale reads (random
    nodes, not just tips), blocks whose append is recorded late or never,
    and random block weights, so every code path of every checker —
    including the violation emitters — is exercised.
    """
    rng = random.Random(seed)
    processes = [f"p{i}" for i in range(rng.randint(1, 4))]
    rec = HistoryRecorder()
    parent_of = {GENESIS_ID: None}
    block_of = {GENESIS_ID: GENESIS}
    ids = [GENESIS_ID]
    bad_ids = set()
    unappended = []
    counter = 0
    for _ in range(rng.randint(12, 55)):
        roll = rng.random()
        if roll < 0.45:
            parent = ids[-1] if rng.random() < 0.5 else rng.choice(ids)
            counter += 1
            block_id = f"x{counter}"
            block = Block(
                block_id,
                parent,
                weight=rng.choice((1.0, 1.0, 2.0, 0.5)),
                creator=rng.choice(processes),
            )
            block_of[block_id] = block
            parent_of[block_id] = parent
            ids.append(block_id)
            if rng.random() < 0.12:
                bad_ids.add(block_id)
            if rng.random() < 0.8:
                rec.complete(rng.choice(processes), "append", block, True)
            else:
                unappended.append(block)  # read before append, or never appended
        elif roll < 0.55 and unappended:
            block = unappended.pop(rng.randrange(len(unappended)))
            rec.complete(rng.choice(processes), "append", block, True)
        else:
            node = rng.choice(ids)
            path = []
            cursor = node
            while cursor is not None:
                path.append(block_of[cursor])
                cursor = parent_of[cursor]
            path.reverse()
            rec.complete(rng.choice(processes), "read", None, Blockchain(tuple(path)))
    return rec.history(), frozenset(bad_ids)


def checker_config(seed: int):
    """Deterministic checker parameters derived from the seed."""
    rng = random.Random(seed * 7919 + 13)
    score = rng.choice(
        [LengthScore(), WeightScore(), WeightScore(min_increment=0.5)]
    )
    stall_threshold = rng.choice([None, 1, 2, 3])
    also_all_pairs = rng.random() < 0.3
    return score, stall_threshold, also_all_pairs


@pytest.mark.parametrize("seed", range(N_RANDOM_HISTORIES))
def test_randomized_equivalence(seed):
    history, bad_ids = random_history(seed)
    score, stall_threshold, also_all_pairs = checker_config(seed)
    validator = (lambda block: block.block_id not in bad_ids) if bad_ids else None

    index = ConsistencyIndex.from_history(history)
    pairs = [
        (BlockValidityChecker(validator), _ReferenceBlockValidityChecker(validator)),
        (LocalMonotonicReadChecker(score), _ReferenceLocalMonotonicReadChecker(score)),
        (StrongPrefixChecker(), _ReferenceStrongPrefixChecker()),
        (
            EverGrowingTreeChecker(score, stall_threshold),
            _ReferenceEverGrowingTreeChecker(score, stall_threshold),
        ),
        (EventualPrefixChecker(score), _ReferenceEventualPrefixChecker(score)),
    ]
    for indexed, reference in pairs:
        got = indexed.check(history, index)
        expected = bounded(reference.check(history))
        assert got == expected, (
            f"seed {seed}: {indexed.name} diverges\n"
            f"indexed:   {got}\nreference: {expected}"
        )
    if also_all_pairs:
        # The all-pairs reading quantifies over a superset of the limit
        # pairs, so it can only add violations.
        limit_views = EventualPrefixChecker(score).check(history, index)
        assert len(all_pairs_eventual_prefix(history, score).violations) >= limit_views.count


@pytest.mark.parametrize("seed", range(0, N_RANDOM_HISTORIES, 10))
def test_randomized_criterion_equivalence(seed):
    """Whole criteria (shared index across the four properties)."""
    history, bad_ids = random_history(seed)
    score, stall_threshold, _ = checker_config(seed)
    validator = (lambda block: block.block_id not in bad_ids) if bad_ids else None

    strong = BTStrongConsistency(score, validator, stall_threshold)
    eventual = BTEventualConsistency(score, validator, stall_threshold)
    assert strong.check(history) == bounded(
        _reference_strong_consistency(history, score, validator, stall_threshold)
    )
    assert eventual.check(history) == bounded(
        _reference_eventual_consistency(history, score, validator, stall_threshold)
    )


@pytest.mark.parametrize(
    "history_factory",
    [
        figure2_history,
        figure3_history,
        figure4_history,
        lambda: generate_chain_history(3, 12, 6, seed=2),
        lambda: generate_chain_history(5, 25, 10, seed=9),
        lambda: generate_forked_history(6, resolve=True, seed=4),
        lambda: generate_forked_history(6, resolve=False, seed=5),
        lambda: History(()),
    ],
)
def test_scenario_equivalence(history_factory):
    """The paper figures and the library generators, both criteria."""
    history = history_factory()
    for score in (LengthScore(), WeightScore()):
        strong = BTStrongConsistency(score=score)
        eventual = BTEventualConsistency(score=score)
        assert strong.check(history) == bounded(_reference_strong_consistency(history, score))
        assert eventual.check(history) == bounded(
            _reference_eventual_consistency(history, score)
        )


def test_weight_score_mcps_is_bit_identical():
    """Cumulative weights accumulate root-first, like WeightScore sums."""
    # Irregular weights whose float sums are order-sensitive.
    weights = [0.1, 0.7, 1e-3, 2.5, 0.30000000000000004, 1.1]
    rec = HistoryRecorder()
    blocks, parent = [], GENESIS_ID
    for k, w in enumerate(weights):
        block = Block(f"w{k}", parent, weight=w)
        blocks.append(block)
        rec.complete("i", "append", block, True)
        parent = block.block_id
    for cut in (2, 4, len(blocks)):
        rec.complete("i", "read", None, Blockchain((GENESIS, *blocks[:cut])))
    history = rec.history()
    score = WeightScore(min_increment=0.25)
    index = ConsistencyIndex.from_history(history)
    assert index.read_scores(score).tolist() == [
        score(read.chain) for read in history.read_responses()
    ]
