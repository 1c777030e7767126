"""Unit tests for the BT-ADT sequential specification (Definition 3.1)."""

from __future__ import annotations

import pytest

from repro.core.adt import Operation, is_sequential_history, replay
from repro.core.block import GENESIS_ID, Block
from repro.core.bt_adt import BTADT, BlockTreeObject
from repro.core.history import HistoryRecorder
from repro.core.selection import LongestChain
from repro.core.validity import MembershipValidity


class TestPureBTADT:
    def test_initial_read_returns_genesis_only(self):
        adt = BTADT()
        state = adt.initial_state()
        chain = adt.output(state, Operation.invocation("read").symbol)
        assert chain.ids == (GENESIS_ID,)

    def test_append_valid_block_outputs_true_and_grows_tree(self):
        adt = BTADT()
        state = adt.initial_state()
        block = Block("x", GENESIS_ID)
        symbol = Operation.invocation("append", block).symbol
        assert adt.output(state, symbol) is True
        new_state = adt.transition(state, symbol)
        assert "x" in new_state.tree
        assert "x" not in state.tree  # original state untouched

    def test_append_invalid_block_outputs_false_and_keeps_state(self):
        adt = BTADT(predicate=MembershipValidity.of(["good"]))
        state = adt.initial_state()
        bad = Block("bad", GENESIS_ID)
        symbol = Operation.invocation("append", bad).symbol
        assert adt.output(state, symbol) is False
        assert len(adt.transition(state, symbol).tree) == 1

    def test_append_attaches_to_selected_chain_not_declared_parent(self):
        # Definition 3.1: the new block extends {b0}⌢f(bt), regardless of the
        # parent the caller wrote into the block.
        adt = BTADT(selection=LongestChain())
        state = adt.initial_state()
        state = adt.transition(state, Operation.invocation("append", Block("x", GENESIS_ID)).symbol)
        stray = Block("y", "unrelated_parent")
        state = adt.transition(state, Operation.invocation("append", stray).symbol)
        assert state.tree.get("y").parent_id == "x"

    def test_figure1_path_is_a_sequential_history(self):
        # Figure 1: append(b1)/true, append(b2)/true, reads returning the
        # selected chain, plus a rejected invalid append.
        adt = BTADT(predicate=MembershipValidity.of(["b1", "b2"]))
        b1, b2, b3 = Block("b1", GENESIS_ID), Block("b2", "b1"), Block("b3", GENESIS_ID)
        ops = [
            Operation.with_output("append", b1, True),
            Operation.with_output("read", None, (GENESIS_ID, "b1")),
            Operation.with_output("append", b3, False),
            Operation.with_output("append", b2, True),
            Operation.with_output("read", None, (GENESIS_ID, "b1", "b2")),
        ]
        assert is_sequential_history(adt, ops)

    def test_wrong_read_output_is_not_a_sequential_history(self):
        adt = BTADT()
        ops = [Operation.with_output("read", None, (GENESIS_ID, "ghost"))]
        assert not is_sequential_history(adt, ops)

    def test_unknown_symbol_rejected(self):
        adt = BTADT()
        state = adt.initial_state()
        with pytest.raises(ValueError):
            adt.output(state, Operation.invocation("pop").symbol)
        with pytest.raises(ValueError):
            adt.transition(state, Operation.invocation("pop").symbol)

    def test_append_requires_block_argument(self):
        adt = BTADT()
        state = adt.initial_state()
        with pytest.raises(TypeError):
            adt.output(state, Operation.invocation("append", "not-a-block").symbol)

    def test_replay_keeps_full_state_sequence(self):
        adt = BTADT()
        ops = [Operation.invocation("append", Block("x", GENESIS_ID))]
        states = replay(adt, ops)
        assert len(states) == 2
        assert len(states[0].tree) == 1
        assert len(states[1].tree) == 2


class TestBlockTreeObject:
    def test_append_then_read(self):
        obj = BlockTreeObject()
        assert obj.append(Block("x", GENESIS_ID)) is True
        assert obj.read().ids == (GENESIS_ID, "x")

    def test_invalid_append_returns_false(self):
        obj = BlockTreeObject(predicate=MembershipValidity.of(["ok"]))
        assert obj.append(Block("nope", GENESIS_ID)) is False
        assert obj.read().ids == (GENESIS_ID,)

    def test_appends_chain_onto_selected_tip(self):
        obj = BlockTreeObject()
        obj.append(Block("x", GENESIS_ID))
        obj.append(Block("y", GENESIS_ID))  # re-parented under x
        assert obj.read().ids == (GENESIS_ID, "x", "y")

    def test_recording_produces_invocation_response_pairs(self):
        recorder = HistoryRecorder()
        obj = BlockTreeObject(recorder=recorder, process="p1")
        obj.append(Block("x", GENESIS_ID))
        obj.read()
        history = recorder.history()
        assert len(history.append_invocations("p1")) == 1
        assert len(history.read_responses("p1")) == 1
        assert history.read_responses("p1")[0].chain.ids == (GENESIS_ID, "x")

    def test_read_quiet_records_nothing(self):
        recorder = HistoryRecorder()
        obj = BlockTreeObject(recorder=recorder, process="p1")
        obj.read_quiet()
        assert len(recorder.history()) == 0


class TestTransitionCopyDiscipline:
    """Only accepted appends may copy the tree (Definition 3.1 audit)."""

    def test_read_transition_returns_the_same_state_object(self):
        adt = BTADT()
        state = adt.initial_state()
        symbol = Operation.invocation("read").symbol
        next_state = adt.transition(state, symbol)
        assert next_state is state
        assert next_state.tree is state.tree  # shared, not copied

    def test_rejected_append_transition_shares_the_tree(self):
        adt = BTADT(predicate=MembershipValidity.of(["allowed"]))
        state = adt.initial_state()
        symbol = Operation.invocation("append", Block("rejected", GENESIS_ID)).symbol
        next_state = adt.transition(state, symbol)
        assert next_state is state
        assert next_state.tree is state.tree

    def test_accepted_append_copies_instead_of_mutating(self):
        adt = BTADT()
        state = adt.initial_state()
        symbol = Operation.invocation("append", Block("x", GENESIS_ID)).symbol
        next_state = adt.transition(state, symbol)
        assert next_state is not state
        assert next_state.tree is not state.tree
        assert "x" in next_state.tree and "x" not in state.tree

    def test_replay_shares_trees_across_non_mutating_steps(self):
        adt = BTADT(selection=LongestChain())
        operations = [
            Operation.invocation("read"),
            Operation.invocation("append", Block("x", GENESIS_ID)),
            Operation.invocation("read"),
            Operation.invocation("read"),
        ]
        states = replay(adt, operations)
        # reads share their predecessor's tree; only the append copied.
        assert states[0].tree is states[1].tree
        assert states[1].tree is not states[2].tree
        assert states[2].tree is states[3].tree is states[4].tree
