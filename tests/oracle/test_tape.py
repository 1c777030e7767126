"""Unit tests for merit tapes and the tape family."""

from __future__ import annotations

import pickle

import pytest

from repro.oracle.tape import BOTTOM, TOKEN, DeterministicTape, MeritTape, TapeFamily


class TestMeritTape:
    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            MeritTape(0.0)
        with pytest.raises(ValueError):
            MeritTape(1.5)
        with pytest.raises(ValueError):
            MeritTape(0.5, block_size=0)

    def test_head_does_not_consume(self):
        tape = MeritTape(0.5, seed=1)
        first = tape.head()
        assert tape.head() == first
        assert tape.cells_consumed == 0

    def test_pop_consumes_and_counts(self):
        tape = MeritTape(0.5, seed=1)
        values = [tape.pop() for _ in range(10)]
        assert tape.cells_consumed == 10
        assert all(v in (TOKEN, BOTTOM) for v in values)

    def test_same_seed_same_sequence(self):
        a = MeritTape(0.3, seed=42)
        b = MeritTape(0.3, seed=42)
        assert [a.pop() for _ in range(50)] == [b.pop() for _ in range(50)]

    def test_probability_one_always_grants(self):
        tape = MeritTape(1.0, seed=0)
        assert all(tape.pop() == TOKEN for _ in range(20))

    def test_empirical_rate_tracks_probability(self):
        tape = MeritTape(0.2, seed=7)
        draws = [tape.pop() == TOKEN for _ in range(5000)]
        rate = sum(draws) / len(draws)
        assert 0.15 < rate < 0.25

    def test_refill_crosses_block_boundaries(self):
        tape = MeritTape(0.5, seed=3, block_size=4)
        assert len([tape.pop() for _ in range(10)]) == 10


    @pytest.mark.parametrize("popped", (0, 3, 4, 9))
    def test_pickle_restores_the_head_and_what_follows(self, popped):
        tape = MeritTape(0.5, seed=5, block_size=4)
        for _ in range(popped):
            tape.pop()
        restored = pickle.loads(pickle.dumps(tape))
        assert restored.cells_consumed == popped
        assert [restored.pop() for _ in range(13)] == [tape.pop() for _ in range(13)]

    def test_a_pickle_of_the_remaining_cells_shape_pops_the_same_sequence(self):
        """Before the cursor, ``_buffer`` held only the cells not yet
        popped (``list.pop(0)`` took the head) and there was no
        ``_cursor``: such a pickle restores with the class default."""
        reference = MeritTape(0.3, seed=11, block_size=8)
        tape = MeritTape(0.3, seed=11, block_size=8)
        for _ in range(5):
            reference.pop()
            tape.pop()
        state = dict(tape.__dict__)
        state["_buffer"] = state["_buffer"][state.pop("_cursor"):]
        old = MeritTape.__new__(MeritTape)
        old.__dict__.update(state)
        restored = pickle.loads(pickle.dumps(old))
        assert "_cursor" not in restored.__dict__
        assert restored.head() == reference.head()
        assert [restored.pop() for _ in range(30)] == [reference.pop() for _ in range(30)]
        assert restored.cells_consumed == reference.cells_consumed == 35


class TestDeterministicTape:
    def test_pattern_then_tail(self):
        tape = DeterministicTape([False, True], tail=False)
        assert tape.pop() == BOTTOM
        assert tape.pop() == TOKEN
        assert tape.pop() == BOTTOM  # tail

    def test_symbol_pattern_accepted(self):
        tape = DeterministicTape([TOKEN, BOTTOM])
        assert tape.pop() == TOKEN
        assert tape.pop() == BOTTOM

    def test_invalid_cell_rejected(self):
        with pytest.raises(ValueError):
            DeterministicTape(["maybe"])

    def test_cells_consumed(self):
        tape = DeterministicTape([True])
        tape.pop()
        tape.pop()
        assert tape.cells_consumed == 2


class TestTapeFamily:
    def test_lazily_creates_tapes(self):
        family = TapeFamily(seed=1)
        tape = family.tape_of("p1")
        assert family.tape_of("p1") is tape

    def test_merit_registration_and_probability(self):
        family = TapeFamily(probability_scale=0.5)
        family.register_merit("p1", 0.4)
        assert family.merit_of("p1") == 0.4
        assert family.probability_of("p1") == pytest.approx(0.2)

    def test_unknown_process_defaults_to_merit_one(self):
        family = TapeFamily()
        assert family.merit_of("stranger") == 1.0
        assert family.probability_of("stranger") == 1.0

    def test_negative_merit_rejected(self):
        with pytest.raises(ValueError):
            TapeFamily().register_merit("p", -0.1)

    def test_probability_clipped_to_minimum(self):
        family = TapeFamily(min_probability=1e-3)
        family.register_merit("p", 0.0)
        assert family.probability_of("p") == pytest.approx(1e-3)

    def test_injected_tape_takes_precedence(self):
        family = TapeFamily()
        family.set_tape("p1", DeterministicTape([False], tail=False))
        assert family.draw("p1") is False
        assert family.draw("p1") is False

    def test_draw_uses_process_tape(self):
        family = TapeFamily()
        family.set_tape("winner", DeterministicTape([True]))
        family.set_tape("loser", DeterministicTape([False], tail=False))
        assert family.draw("winner") is True
        assert family.draw("loser") is False

    def test_processes_lists_known_processes(self):
        family = TapeFamily()
        family.register_merit("a", 0.5)
        family.set_tape("b", DeterministicTape([True]))
        assert family.processes() == ("a", "b")

    def test_deterministic_across_family_instances(self):
        draws1 = [TapeFamily(seed=9).draw("px") for _ in range(1)]
        draws2 = [TapeFamily(seed=9).draw("px") for _ in range(1)]
        assert draws1 == draws2
