"""Unit tests for merit distributions."""

from __future__ import annotations

import pytest

from repro.workload.merit import (
    MeritDistribution,
    permissioned_merit,
    proportional_merit,
    uniform_merit,
    zipf_merit,
)


class TestConstruction:
    def test_uniform_sums_to_one(self):
        merit = uniform_merit(8)
        assert sum(m for _, m in merit.merits) == pytest.approx(1.0)
        assert merit.merit_of("p0") == pytest.approx(1 / 8)

    def test_at_least_one_process_required(self):
        with pytest.raises(ValueError):
            uniform_merit(0)
        with pytest.raises(ValueError):
            MeritDistribution(())

    def test_zipf_is_normalized_and_decreasing(self):
        merit = zipf_merit(5, exponent=1.0)
        values = [merit.merit_of(f"p{i}") for i in range(5)]
        assert sum(values) == pytest.approx(1.0)
        assert values == sorted(values, reverse=True)

    def test_zipf_exponent_zero_is_uniform(self):
        merit = zipf_merit(4, exponent=0.0)
        assert merit.merit_of("p0") == pytest.approx(0.25)

    def test_zipf_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            zipf_merit(3, exponent=-1.0)

    def test_proportional_preserves_ratios(self):
        merit = proportional_merit([1.0, 3.0])
        assert merit.merit_of("p1") == pytest.approx(3 * merit.merit_of("p0"))

    def test_proportional_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            proportional_merit([])
        with pytest.raises(ValueError):
            proportional_merit([-1.0, 2.0])
        with pytest.raises(ValueError):
            proportional_merit([0.0, 0.0])

    def test_negative_merit_rejected(self):
        with pytest.raises(ValueError):
            MeritDistribution((("a", -0.5), ("b", 1.5)))


class TestPermissioned:
    def test_writers_share_merit_readers_get_zero(self):
        merit = permissioned_merit(["w1", "w2"], readers=["r1", "r2"])
        assert merit.merit_of("w1") == pytest.approx(0.5)
        assert merit.merit_of("r1") == 0.0
        assert set(merit.writers()) == {"w1", "w2"}

    def test_requires_at_least_one_writer(self):
        with pytest.raises(ValueError):
            permissioned_merit([])

    def test_writers_listed_as_readers_are_not_duplicated(self):
        merit = permissioned_merit(["w"], readers=["w", "r"])
        assert merit.processes == ("r", "w")


class TestQueries:
    def test_unknown_process_has_zero_merit(self):
        assert uniform_merit(3).merit_of("stranger") == 0.0

    def test_processes(self):
        assert uniform_merit(4).processes == ("p0", "p1", "p2", "p3")
