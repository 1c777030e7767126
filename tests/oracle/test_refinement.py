"""Unit tests for the refinement R(BT-ADT, Θ) (Definition 3.7)."""

from __future__ import annotations

import pytest

from repro.core.block import GENESIS_ID, Block
from repro.core.history import EventKind, HistoryRecorder
from repro.core.validity import MembershipValidity
from repro.oracle.refinement import RefinedBTADT
from repro.oracle.tape import DeterministicTape, TapeFamily
from repro.oracle.theta import FrugalOracle, ProdigalOracle


def _oracle_with_pattern(process: str, pattern, k=None):
    family = TapeFamily()
    family.set_tape(process, DeterministicTape(pattern))
    if k is None:
        return ProdigalOracle(tapes=family)
    return FrugalOracle(k=k, tapes=family)


class TestRefinedAppend:
    def test_append_retries_get_token_until_granted(self):
        oracle = _oracle_with_pattern("p", [False, False, True])
        adt = RefinedBTADT(oracle, process="p")
        outcome = adt.append_detailed(Block("x", GENESIS_ID, creator="p"))
        assert outcome.success
        assert outcome.attempts == 3
        assert adt.read().ids == (GENESIS_ID, "x")

    def test_append_fails_when_attempts_exhausted(self):
        family = TapeFamily()
        family.set_tape("p", DeterministicTape([False], tail=False))
        adt = RefinedBTADT(ProdigalOracle(tapes=family), process="p", max_token_attempts=5)
        outcome = adt.append_detailed(Block("x", GENESIS_ID, creator="p"))
        assert not outcome.success
        assert outcome.attempts == 5
        assert adt.read().ids == (GENESIS_ID,)

    def test_appended_block_carries_token_and_selected_parent(self):
        oracle = _oracle_with_pattern("p", [True])
        adt = RefinedBTADT(oracle, process="p")
        adt.append(Block("x", "bogus_parent", creator="p"))
        block = adt.tree.get("x")
        assert block.parent_id == GENESIS_ID
        assert block.token == f"tkn_{GENESIS_ID}"

    def test_chained_appends_extend_the_selected_chain(self):
        oracle = _oracle_with_pattern("p", [True])
        adt = RefinedBTADT(oracle, process="p")
        adt.append(Block("x", GENESIS_ID, creator="p"))
        adt.append(Block("y", GENESIS_ID, creator="p"))
        assert adt.read().ids == (GENESIS_ID, "x", "y")
        assert adt.k == float("inf")

    def test_application_predicate_can_still_reject(self):
        oracle = _oracle_with_pattern("p", [True])
        adt = RefinedBTADT(
            oracle, predicate=MembershipValidity.of(["allowed"]), process="p"
        )
        assert adt.append(Block("forbidden", GENESIS_ID, creator="p")) is False
        assert adt.append(Block("allowed", GENESIS_ID, creator="p")) is True

    def test_invalid_max_attempts_rejected(self):
        with pytest.raises(ValueError):
            RefinedBTADT(ProdigalOracle(), max_token_attempts=0)


class TestFrugalInteraction:
    def test_two_refined_adts_sharing_a_k1_oracle_cannot_fork(self):
        family = TapeFamily()
        family.set_tape("p", DeterministicTape([True]))
        family.set_tape("q", DeterministicTape([True]))
        oracle = FrugalOracle(k=1, tapes=family)
        adt_p = RefinedBTADT(oracle, process="p")
        adt_q = RefinedBTADT(oracle, process="q")
        assert adt_p.append(Block("x", GENESIS_ID, creator="p")) is True
        # q still believes the tip is b0 (it has not adopted x), so its
        # append targets the same parent and must lose the single token.
        assert adt_q.append(Block("y", GENESIS_ID, creator="q")) is False
        assert oracle.consumed_counts()[GENESIS_ID] == 1

    def test_prodigal_oracle_allows_the_same_race_to_fork(self):
        family = TapeFamily()
        family.set_tape("p", DeterministicTape([True]))
        family.set_tape("q", DeterministicTape([True]))
        oracle = ProdigalOracle(tapes=family)
        adt_p = RefinedBTADT(oracle, process="p")
        adt_q = RefinedBTADT(oracle, process="q")
        assert adt_p.append(Block("x", GENESIS_ID, creator="p")) is True
        assert adt_q.append(Block("y", GENESIS_ID, creator="q")) is True
        assert oracle.consumed_counts()[GENESIS_ID] == 2


class TestAdoption:
    def test_adopt_inserts_foreign_block_once(self):
        oracle = _oracle_with_pattern("p", [True])
        adt = RefinedBTADT(oracle, process="p")
        foreign = Block("z", GENESIS_ID, creator="q", token="tkn_b0")
        assert adt.adopt(foreign) is True
        assert adt.adopt(foreign) is False
        assert "z" in adt.tree


class TestRecording:
    def test_refined_operations_recorded(self):
        recorder = HistoryRecorder()
        oracle = _oracle_with_pattern("p", [False, True])
        adt = RefinedBTADT(oracle, recorder=recorder, process="p")
        adt.append(Block("x", GENESIS_ID, creator="p"))
        adt.read()
        history = recorder.history()
        assert len(history.append_invocations("p")) == 1
        assert len(history.read_responses("p")) == 1
        appended = [e.output for e in history if e.kind is EventKind.RESPONSE and e.operation == "append"]
        assert appended == [True]
