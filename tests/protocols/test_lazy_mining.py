"""Tape-first ``getToken`` equals the eager one, attempt for attempt.

``NakamotoReplica.try_mine`` pops the merit tape before anything else:
the tip of the selected chain and the candidate block are resolved only
for a ``tkn``, and a ⊥ burns what the discarded candidate used to
consume.  The old bodies are the oracle
(``tests/protocols/reference_mining.py``); every run here is executed
both ways and compared on everything an attempt can touch: the recorded
history, every replica's tree (block ids, parents, payloads, tokens,
rounds), the tape cells popped, the blocks each replica created, the
tokens consumed per parent, what is left in every mempool, the next
transaction name and block id, and — with a recorder on the oracle — the
logged ``getToken`` / ``consumeToken`` operations.

Also pinned here, not changed: a *lost* attempt drains up to
``transactions_per_block`` client operations from the mempool and they
are gone with the discarded candidate.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core.block import Block
from repro.core.history import HistoryRecorder
from repro.core.selection import HeaviestChain
from repro.oracle.tape import TapeFamily
from repro.oracle.theta import ProdigalOracle
from repro.protocols.base import BlockchainReplica
from repro.protocols.nakamoto import NakamotoReplica, run_bitcoin
from tests.protocols.reference_mining import ReferenceMiner, ReferenceProdigalOracle


def _run(seed, token_rate, clients, recorded, *, replica_cls, oracle_cls):
    oracle = oracle_cls(
        tapes=TapeFamily(seed=seed, probability_scale=token_rate),
        recorder=HistoryRecorder() if recorded else None,
    )
    return run_bitcoin(
        n=4, duration=40.0, seed=seed, token_rate=token_rate, clients=clients,
        oracle=oracle, replica_cls=replica_cls,
    )


def _footprint(result):
    """Everything a mining attempt reads or writes, after the run."""
    oracle = result.oracle
    recorder = oracle._recorder
    return {
        "history": result.history.events,
        "trees": {pid: list(replica.tree) for pid, replica in result.replicas.items()},
        "cells": {pid: oracle.tapes.tape_of(pid).cells_consumed for pid in result.replicas},
        "created": {pid: replica.blocks_created for pid, replica in result.replicas.items()},
        "consumed": oracle.consumed_counts(),
        "mempools": {
            pid: replica.mempool.__getstate__()[0].tolist()
            for pid, replica in result.replicas.items()
        },
        "tx_counters": {pid: replica._tx_counter for pid, replica in result.replicas.items()},
        "next_ids": {pid: replica.ids() for pid, replica in result.replicas.items()},
        "oracle_ops": None if recorder is None else recorder.history().events,
    }


@pytest.mark.parametrize("recorded", (False, True), ids=("bare", "recorded"))
@pytest.mark.parametrize("clients", (None, 50), ids=("tx_counter", "mempool"))
@pytest.mark.parametrize("token_rate", (0.05, 0.4, 1.0))
@pytest.mark.parametrize("seed", (1, 7))
def test_lazy_attempt_matches_the_eager_one(seed, token_rate, clients, recorded):
    lazy = _footprint(
        _run(seed, token_rate, clients, recorded,
             replica_cls=NakamotoReplica, oracle_cls=ProdigalOracle)
    )
    eager = _footprint(
        _run(seed, token_rate, clients, recorded,
             replica_cls=ReferenceMiner, oracle_cls=ReferenceProdigalOracle)
    )
    assert lazy == eager
    attempts = sum(lazy["cells"].values())
    # Every token granted is consumed and committed once: the per-parent
    # consumed counts compared above are the per-parent grants.
    granted = sum(lazy["created"].values())
    assert granted == sum(lazy["consumed"].values())
    # The runs are worth comparing: the lottery was both won and lost.
    assert granted > 0
    assert attempts > granted or token_rate == 1.0
    if recorded:
        assert len(lazy["oracle_ops"]) == 2 * (attempts + granted)
    if clients:
        assert any(payload.startswith("coin")
                   for tree in lazy["trees"].values() for block in tree
                   for payload in block.payload)


def _counting(calls):
    original = BlockchainReplica.make_candidate

    def make_candidate(self, payload=()):
        calls.append(self.pid)
        return original(self, payload)

    return make_candidate


@pytest.mark.parametrize("recorded", (False, True), ids=("bare", "recorded"))
def test_stock_hooks_build_a_candidate_only_when_the_oracle_needs_one(recorded):
    calls = []
    with mock.patch.object(BlockchainReplica, "make_candidate", _counting(calls)):
        result = _run(1, 0.4, None, recorded,
                      replica_cls=NakamotoReplica, oracle_cls=ProdigalOracle)
    attempts = sum(result.oracle.tapes.tape_of(pid).cells_consumed for pid in result.replicas)
    granted = sum(replica.blocks_created for replica in result.replicas.values())
    assert granted == sum(result.oracle.consumed_counts().values())
    assert 0 < granted < attempts
    # A recorder logs the block id with the invocation, so it needs every
    # candidate; without one only a won lottery builds its block.
    assert len(calls) == (attempts if recorded else granted)


class _OwnCandidates(NakamotoReplica):
    """Overrides ``make_candidate``: every attempt must reach it."""

    made = 0

    def make_candidate(self, payload=()):
        type(self).made += 1
        return super().make_candidate(payload)


class _OwnPayloads(NakamotoReplica):
    """Overrides ``_next_payload``: every attempt must reach it."""

    asked = 0

    def _next_payload(self):
        type(self).asked += 1
        return super()._next_payload()


class _BlocksOnly(ReferenceProdigalOracle):
    """Overrides ``get_token``: it must be handed blocks, not callables."""

    def get_token(self, parent, block, process=None):
        assert isinstance(block, Block)
        return super().get_token(parent, block, process)


@pytest.mark.parametrize("clients", (None, 50), ids=("tx_counter", "mempool"))
def test_overridden_hooks_keep_the_eager_path(clients):
    stock = _footprint(
        _run(1, 0.4, clients, False, replica_cls=NakamotoReplica, oracle_cls=ProdigalOracle)
    )
    attempts = sum(stock["cells"].values())
    assert sum(stock["created"].values()) == sum(stock["consumed"].values()) < attempts

    _OwnCandidates.made = 0
    own = _run(1, 0.4, clients, False, replica_cls=_OwnCandidates, oracle_cls=ProdigalOracle)
    assert _OwnCandidates.made == attempts
    assert _footprint(own) == stock

    _OwnPayloads.asked = 0
    own = _run(1, 0.4, clients, False, replica_cls=_OwnPayloads, oracle_cls=ProdigalOracle)
    assert _OwnPayloads.asked == attempts
    assert _footprint(own) == stock

    own = _run(1, 0.4, clients, False, replica_cls=NakamotoReplica, oracle_cls=_BlocksOnly)
    assert _footprint(own) == stock


def test_get_token_calls_a_lazy_candidate_at_most_once():
    calls = []

    def build():
        calls.append(1)
        return Block("x", "b0", creator="p")

    oracle = ProdigalOracle(tapes=TapeFamily(seed=3, probability_scale=0.5))
    outcomes = [oracle.get_token("b0", build, process="p") for _ in range(40)]
    won = [outcome for outcome in outcomes if outcome is not None]
    assert 0 < len(won) < 40
    assert len(calls) == len(won)
    assert all(outcome.block.token == "tkn_b0" for outcome in won)
    # Without a process name the invoker is the block's creator.
    calls.clear()
    oracle.get_token("b0", build)
    assert len(calls) == 1


class _OwnTip(NakamotoReplica):
    """Overrides ``current_tip``: every attempt must ask it for the parent."""

    asked = 0

    def current_tip(self):
        type(self).asked += 1
        return super().current_tip()


@pytest.mark.parametrize("clients", (None, 50), ids=("tx_counter", "mempool"))
def test_an_overridden_current_tip_keeps_the_eager_path(clients):
    eager = _footprint(
        _run(1, 0.4, clients, False,
             replica_cls=ReferenceMiner, oracle_cls=ReferenceProdigalOracle)
    )
    attempts = sum(eager["cells"].values())
    _OwnTip.asked = 0
    own = _run(1, 0.4, clients, False, replica_cls=_OwnTip, oracle_cls=ProdigalOracle)
    # One ask for the candidate's parent, one for ``getToken``'s.
    assert _OwnTip.asked == 2 * attempts
    assert _footprint(own) == eager


@pytest.mark.parametrize("recorded", (False, True), ids=("bare", "recorded"))
def test_get_token_without_a_process_matches_the_eager_oracle(recorded):
    """With no ``process`` the invoker is the block's creator, so the
    block is resolved before the pop — and the parent with it."""

    def oracle(cls):
        return cls(
            tapes=TapeFamily(seed=3, probability_scale=0.5),
            recorder=HistoryRecorder() if recorded else None,
        )

    lazy, eager = oracle(ProdigalOracle), oracle(ReferenceProdigalOracle)
    resolved = []

    def tip(i):
        return Block(f"tip{i}", "b0")

    def candidate(i):
        return Block(f"x{i}", "b0", creator="p")

    def asked(kind, make, i):
        def resolve():
            resolved.append(kind)
            return make(i)
        return resolve

    outcomes = []
    for i in range(40):
        outcomes.append(lazy.get_token(asked("parent", tip, i), asked("block", candidate, i)))
        assert outcomes[-1] == eager.get_token(tip(i), candidate(i))
    assert resolved == ["parent", "block"] * 40
    assert 0 < sum(outcome is not None for outcome in outcomes) < 40
    # The outcomes, compared call by call above, are the grants.
    assert lazy.tapes.tape_of("p").cells_consumed == eager.tapes.tape_of("p").cells_consumed
    if recorded:
        assert lazy._recorder.history().events == eager._recorder.history().events


class _CountingSelection:
    """The heaviest-chain rule, counting how often it is asked."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, tree):
        self.calls += 1
        return HeaviestChain()(tree)


class _CountAttempts:
    """Logs (won, selection calls) per mining attempt."""

    attempts: list

    def try_mine(self):
        selection = self.config.selection
        before = selection.calls
        won = super().try_mine()
        self.attempts.append((won, selection.calls - before))
        return won


class _TapeFirst(_CountAttempts, NakamotoReplica):
    attempts = []


class _Eager(_CountAttempts, ReferenceMiner):
    attempts = []


def test_a_lost_attempt_consults_no_chain_and_a_won_one_two():
    runs = {}
    for replica_cls, oracle_cls in ((_TapeFirst, ProdigalOracle),
                                    (_Eager, ReferenceProdigalOracle)):
        replica_cls.attempts = []
        oracle = oracle_cls(tapes=TapeFamily(seed=1, probability_scale=0.4))
        run_bitcoin(n=4, duration=40.0, seed=1, token_rate=0.4, oracle=oracle,
                    selection=_CountingSelection(), replica_cls=replica_cls)
        runs[replica_cls] = replica_cls.attempts
    tape_first, eager = runs[_TapeFirst], runs[_Eager]
    assert [won for won, _ in tape_first] == [won for won, _ in eager]
    assert 0 < sum(won for won, _ in eager) < len(eager)
    # The eager attempt asks twice (candidate, then getToken's parent)
    # whatever the tape says; a tape-first one only when it wins.
    assert {calls for _, calls in eager} == {2}
    assert {(won, calls) for won, calls in tape_first} == {(False, 0), (True, 2)}


def test_a_lost_attempt_still_drops_the_operations_it_drained():
    """Pinned, not fixed: of 1 248 client operations, 629 are neither
    pending nor in any block — each was taken from a mempool for a
    candidate that lost the lottery.  Fixing it moves every population
    history, so it is a later, behaviour-changing PR (see ROADMAP)."""
    result = run_bitcoin(
        n=4, duration=50.0, seed=1, token_rate=0.4, clients=50, client_rate=0.5
    )
    scheduled = result.population.scheduled_ops
    pending = sum(len(replica.mempool) for replica in result.replicas.values())
    included = {
        payload
        for replica in result.replicas.values()
        for block in replica.tree
        for payload in block.payload
    }
    assert (scheduled, pending, len(included)) == (1248, 516, 103)
    assert scheduled - pending - len(included) == 629
