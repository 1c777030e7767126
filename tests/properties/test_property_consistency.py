"""Property-based tests on the consistency criteria and their relationships."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.block import GENESIS, Block, Blockchain
from repro.core.consistency import (
    BTEventualConsistency,
    BTStrongConsistency,
    check_eventual_consistency,
    check_strong_consistency,
)
from repro.core.consistency_index import ConsistencyMonitor
from repro.core.history import HistoryRecorder
from repro.core.score import LengthScore, WeightScore
from repro.workload.scenarios import generate_chain_history, generate_forked_history

from tests.core.reference_consistency import (
    _reference_eventual_consistency,
    _reference_strong_consistency,
    bounded,
)


def doubled_length(chain: Blockchain) -> float:
    """A score the index has no cached column for (the ``mcps(chains)`` fallback)."""
    return 2.0 * chain.length + 1.0


SCORES = (LengthScore(), WeightScore(), WeightScore(min_increment=0.5), doubled_length)


@st.composite
def histories(draw):
    """Reads of arbitrary nodes of an arbitrary tree, by up to five processes.

    Blocks are appended up front unless drawn as *unrecorded* (Block
    Validity violations); a read may return any node, so stale reads,
    forks that heal and forks that do not all occur.
    """
    n_blocks = draw(st.integers(min_value=1, max_value=10))
    unrecorded = draw(st.sets(st.integers(min_value=1, max_value=n_blocks), max_size=2))
    rec = HistoryRecorder()
    chains = [Blockchain((GENESIS,))]
    for k in range(1, n_blocks + 1):
        parent = chains[draw(st.integers(min_value=0, max_value=k - 1))]
        weight = draw(st.sampled_from((0.5, 1.0, 2.0)))
        block = Block(f"x{k}", parent.tip.block_id, weight=weight)
        chains.append(Blockchain((*parent.blocks, block)))
        if k not in unrecorded:
            rec.complete("appender", "append", block, True)
    reads = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.integers(0, n_blocks)),
            min_size=1,
            max_size=40,
        )
    )
    for process, node in reads:
        rec.complete(f"p{process}", "read", None, chains[node])
    return rec.history()


class TestCheckersOnGeneratedHistories:
    """Counted verdicts against the brute-force oracle, and the monitor."""

    @given(
        history=histories(),
        score=st.sampled_from(SCORES),
        stall_threshold=st.sampled_from((None, 1, 3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_count_witnesses_inclusion_and_monitor(self, history, score, stall_threshold):
        strong = BTStrongConsistency(score, None, stall_threshold).check(history)
        eventual = BTEventualConsistency(score, None, stall_threshold).check(history)
        # Count, first witnesses, verdict and details equal the oracle's.
        assert strong == bounded(
            _reference_strong_consistency(history, score, None, stall_threshold)
        )
        assert eventual == bounded(
            _reference_eventual_consistency(history, score, None, stall_threshold)
        )
        # Theorem 3.1 on every generated history.
        assert eventual.holds or not strong.holds
        # The monitor (no stall threshold) returns the post-hoc reports, whole.
        if stall_threshold is None:
            assert ConsistencyMonitor(score).replay(history).reports() == (strong, eventual)


class TestTheorem31Property:
    """Theorem 3.1: every SC history is an EC history (H_SC ⊂ H_EC)."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_processes=st.integers(min_value=1, max_value=4),
        chain_length=st.integers(min_value=1, max_value=12),
        reads=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_sc_histories_are_ec(self, seed, n_processes, chain_length, reads):
        history = generate_chain_history(
            n_processes=n_processes,
            chain_length=chain_length,
            reads_per_process=reads,
            seed=seed,
        )
        assert check_strong_consistency(history).holds
        assert check_eventual_consistency(history).holds

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        branch_length=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_resolved_forks_are_ec_but_not_sc(self, seed, branch_length):
        history = generate_forked_history(
            branch_length=branch_length, resolve=True, seed=seed
        )
        assert not check_strong_consistency(history).holds
        assert check_eventual_consistency(history).holds

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        branch_length=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_unresolved_forks_satisfy_neither(self, seed, branch_length):
        history = generate_forked_history(
            branch_length=branch_length, resolve=False, seed=seed
        )
        assert not check_strong_consistency(history).holds
        assert not check_eventual_consistency(history).holds

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_ec_never_holds_when_sc_holds_and_ec_fails(self, seed):
        # Contrapositive sanity check of the inclusion on random histories:
        # there must be no history where SC holds but EC fails.
        for resolve in (True, False):
            history = generate_forked_history(branch_length=3, resolve=resolve, seed=seed)
            if check_strong_consistency(history).holds:
                assert check_eventual_consistency(history).holds
        chain_history = generate_chain_history(seed=seed)
        if check_strong_consistency(chain_history).holds:
            assert check_eventual_consistency(chain_history).holds
