"""Unit tests for the Θ_F / Θ_P token oracles (Definitions 3.5–3.6)."""

from __future__ import annotations

import math

import pytest

from repro.core.block import GENESIS, GENESIS_ID, Block
from repro.core.history import HistoryRecorder
from repro.oracle.tape import DeterministicTape, TapeFamily
from repro.oracle.theta import FrugalOracle, ProdigalOracle, TokenOracle, token_for


def _always_token_family(*processes: str) -> TapeFamily:
    family = TapeFamily()
    for process in processes:
        family.set_tape(process, DeterministicTape([True]))
    return family


class TestConstruction:
    def test_frugal_requires_integer_k_at_least_one(self):
        with pytest.raises(ValueError):
            FrugalOracle(k=0)
        with pytest.raises(ValueError):
            FrugalOracle(k=1.5)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            FrugalOracle(k=math.inf)  # type: ignore[arg-type]

    def test_prodigal_is_frugal_with_infinite_k(self):
        assert ProdigalOracle().k == math.inf

    def test_base_class_validates_k(self):
        with pytest.raises(ValueError):
            TokenOracle(k=0.5)


class TestGetToken:
    def test_successful_get_token_reparents_and_stamps(self):
        oracle = FrugalOracle(k=1, tapes=_always_token_family("p"))
        block = Block("x", "whatever", creator="p")
        validated = oracle.get_token(GENESIS, block, process="p")
        assert validated is not None
        assert validated.parent_id == GENESIS_ID
        assert validated.block.parent_id == GENESIS_ID
        assert validated.block.token == token_for(GENESIS_ID)

    def test_failed_draw_returns_none(self):
        family = TapeFamily()
        family.set_tape("p", DeterministicTape([False], tail=False))
        oracle = ProdigalOracle(tapes=family)
        assert oracle.get_token(GENESIS, Block("x", GENESIS_ID), process="p") is None

    def test_parent_can_be_given_by_id(self):
        oracle = ProdigalOracle(tapes=_always_token_family("p"))
        validated = oracle.get_token("someparent", Block("x", GENESIS_ID), process="p")
        assert validated is not None and validated.parent_id == "someparent"


class TestConsumeToken:
    def test_frugal_k1_accepts_only_first_block(self):
        oracle = FrugalOracle(k=1, tapes=_always_token_family("p", "q"))
        v1 = oracle.get_token(GENESIS, Block("x", GENESIS_ID), process="p")
        v2 = oracle.get_token(GENESIS, Block("y", GENESIS_ID), process="q")
        first = oracle.consume_token(v1, process="p")
        second = oracle.consume_token(v2, process="q")
        assert [b.block_id for b in first] == ["x"]
        assert [b.block_id for b in second] == ["x"]  # y was rejected
        assert oracle.consumed_counts()[GENESIS_ID] == 1

    def test_frugal_k2_accepts_two_blocks(self):
        oracle = FrugalOracle(k=2, tapes=_always_token_family("p"))
        for name in ("x", "y", "z"):
            validated = oracle.get_token(GENESIS, Block(name, GENESIS_ID), process="p")
            oracle.consume_token(validated, process="p")
        assert oracle.consumed_counts()[GENESIS_ID] == 2

    def test_prodigal_accepts_everything(self):
        oracle = ProdigalOracle(tapes=_always_token_family("p"))
        for i in range(10):
            validated = oracle.get_token(GENESIS, Block(f"x{i}", GENESIS_ID), process="p")
            oracle.consume_token(validated, process="p")
        assert oracle.consumed_counts()[GENESIS_ID] == 10

    def test_consume_is_idempotent_per_block(self):
        oracle = FrugalOracle(k=1, tapes=_always_token_family("p"))
        validated = oracle.get_token(GENESIS, Block("x", GENESIS_ID), process="p")
        oracle.consume_token(validated, process="p")
        again = oracle.consume_token(validated, process="p")
        assert len(again) == 1

    def test_consumed_for_returns_current_set(self):
        oracle = ProdigalOracle(tapes=_always_token_family("p"))
        assert oracle.consumed_for(GENESIS_ID) == ()
        validated = oracle.get_token(GENESIS, Block("x", GENESIS_ID), process="p")
        oracle.consume_token(validated, process="p")
        assert [b.block_id for b in oracle.consumed_for(GENESIS_ID)] == ["x"]

    def test_independent_parents_have_independent_buckets(self):
        oracle = FrugalOracle(k=1, tapes=_always_token_family("p"))
        v1 = oracle.get_token(GENESIS, Block("x", GENESIS_ID), process="p")
        oracle.consume_token(v1, process="p")
        v2 = oracle.get_token("x", Block("y", "x"), process="p")
        oracle.consume_token(v2, process="p")
        assert oracle.consumed_counts() == {GENESIS_ID: 1, "x": 1}


class TestMeritIntegration:
    def test_low_merit_process_rarely_wins(self):
        family = TapeFamily(seed=11)
        family.register_merit("weak", 0.02)
        family.register_merit("strong", 0.9)
        oracle = ProdigalOracle(tapes=family)
        weak_wins = sum(
            oracle.get_token(GENESIS, Block(f"w{i}", GENESIS_ID), process="weak") is not None
            for i in range(300)
        )
        strong_wins = sum(
            oracle.get_token(GENESIS, Block(f"s{i}", GENESIS_ID), process="strong") is not None
            for i in range(300)
        )
        assert strong_wins > weak_wins * 3


class TestRecording:
    def test_oracle_operations_are_recorded(self):
        recorder = HistoryRecorder()
        oracle = FrugalOracle(k=1, tapes=_always_token_family("p"), recorder=recorder)
        validated = oracle.get_token(GENESIS, Block("x", GENESIS_ID), process="p")
        oracle.consume_token(validated, process="p")
        history = recorder.history()
        operations = {e.operation for e in history}
        assert {"getToken", "consumeToken"} <= operations
        assert len(history) == 4  # two invocation/response pairs
