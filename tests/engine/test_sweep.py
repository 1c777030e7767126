"""Unit tests for grid expansion and the parallel sweep runner."""

from __future__ import annotations

import pytest

from repro.engine import (
    ExperimentSpec,
    FaultSpec,
    SweepRunner,
    derive_seed,
    expand_grid,
    results_payload,
)
from repro.engine.sweep import _apply_override


class TestExpandGrid:
    def test_empty_axes_yield_the_base_spec(self):
        base = ExperimentSpec(protocol="bitcoin")
        assert expand_grid(base, {}) == [base]

    def test_cartesian_product_in_nested_loop_order(self):
        base = ExperimentSpec(protocol="bitcoin", seed=0)
        specs = expand_grid(base, {"seed": [0, 1], "channel.delta": [1.0, 2.0]})
        assert len(specs) == 4
        assert [(s.seed, s.channel.params["delta"]) for s in specs] == [
            (0, 1.0), (0, 2.0), (1, 1.0), (1, 2.0),
        ]

    def test_cells_carry_descriptive_labels(self):
        base = ExperimentSpec(protocol="bitcoin")
        specs = expand_grid(base, {"seed": [3]})
        assert specs[0].label == "bitcoin seed=3"

    def test_channel_axis_creates_a_default_channel(self):
        base = ExperimentSpec(protocol="bitcoin")  # no channel configured
        (spec,) = expand_grid(base, {"channel.drop_probability": [0.3]})
        assert spec.channel is not None and spec.channel.drop_probability == 0.3

    def test_params_axis(self):
        base = ExperimentSpec(protocol="bitcoin")
        (spec,) = expand_grid(base, {"params.token_rate": [0.4]})
        assert spec.params["token_rate"] == 0.4

    def test_unknown_axis_rejected(self):
        base = ExperimentSpec(protocol="bitcoin")
        with pytest.raises(KeyError):
            expand_grid(base, {"warp_factor": [9]})
        with pytest.raises(KeyError):
            expand_grid(base, {"workload.warp": [1]})

    def test_derive_seeds_are_distinct_and_stable(self):
        base = ExperimentSpec(protocol="bitcoin", seed=42)
        specs = expand_grid(base, {"channel.delta": [1.0, 2.0, 4.0]}, derive_seeds=True)
        seeds = [s.seed for s in specs]
        assert len(set(seeds)) == 3
        again = expand_grid(base, {"channel.delta": [1.0, 2.0, 4.0]}, derive_seeds=True)
        assert [s.seed for s in again] == seeds
        assert seeds[0] == derive_seed(42, 0)

    def test_explicit_seed_axis_wins_over_derivation(self):
        base = ExperimentSpec(protocol="bitcoin", seed=42)
        specs = expand_grid(base, {"seed": [1, 2]}, derive_seeds=True)
        assert [s.seed for s in specs] == [1, 2]


class TestApplyOverride:
    def test_nested_too_deep_rejected(self):
        with pytest.raises(KeyError, match="nests too deep"):
            _apply_override(ExperimentSpec(protocol="x").to_dict(), "channel.params.delta", 1.0)

    def test_fault_axis_requires_a_fault(self):
        with pytest.raises(KeyError, match="without a fault"):
            _apply_override(ExperimentSpec(protocol="x").to_dict(), "fault.kind", "crash")


class TestFaultAxes:
    def test_top_level_fault_axis_accepts_dicts_and_kind_shorthand(self):
        base = ExperimentSpec(protocol="bitcoin")
        specs = expand_grid(
            base,
            {
                "fault": [
                    "crash",
                    {"kind": "eclipse", "params": {"victim": "p0", "until": 30.0}},
                ]
            },
        )
        assert [s.fault.kind for s in specs] == ["crash", "eclipse"]
        assert specs[1].fault.params == {"victim": "p0", "until": 30.0}

    def test_nested_param_axis_lands_in_fault_params(self):
        base = ExperimentSpec(
            protocol="bitcoin",
            fault=FaultSpec(kind="eclipse", params={"victim": "p1", "until": 20.0}),
        )
        specs = expand_grid(base, {"fault.until": [20.0, 40.0]})
        assert [s.fault.params["until"] for s in specs] == [20.0, 40.0]
        assert all(s.fault.params["victim"] == "p1" for s in specs)

    def test_legacy_fault_fields_stay_addressable(self):
        # ... under their registry names: a fault read from the old
        # spelling is an ordinary kind/params/seed spec to the axes.
        legacy = {"kind": "crash", "crash_at": {"p0": 10.0}, "byzantine": []}
        base = ExperimentSpec(protocol="bitcoin", fault=FaultSpec.from_dict(legacy))
        (spec,) = expand_grid(base, {"fault.at": [{"p1": 25.0}]})
        assert spec.fault.params == {"at": {"p1": 25.0}}
        (seeded,) = expand_grid(base, {"fault.seed": [9]})
        assert seeded.fault.seed == 9 and seeded.fault.params == base.fault.params


class TestSweepRunner:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_serial_run_keeps_live_objects_and_order(self):
        specs = [
            ExperimentSpec(protocol="hyperledger", replicas=3, duration=30.0, seed=s)
            for s in (0, 1)
        ]
        records = SweepRunner(jobs=1).run(specs)
        assert [r.spec.seed for r in records] == [0, 1]
        assert all(r.run is not None for r in records)

    def test_parallel_matches_serial_up_to_timings(self):
        specs = [
            ExperimentSpec(protocol="hyperledger", replicas=3, duration=30.0, seed=s)
            for s in (0, 1)
        ]
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=2).run(specs)

        def stable(record):
            data = record.to_dict()
            data.pop("timings")
            return data

        assert [stable(r) for r in serial] == [stable(r) for r in parallel]

    def test_results_payload_shape(self):
        records = SweepRunner(jobs=1).run(
            [ExperimentSpec(protocol="hyperledger", replicas=3, duration=30.0, seed=0)]
        )
        payload = results_payload(records)
        assert payload["schema"] == "repro.sweep/2"
        assert payload["failures"] == 0
        assert "shard" not in payload
        assert len(payload["cells"]) == 1
        assert payload["cells"][0]["spec"]["protocol"] == "hyperledger"

    def test_pool_construction_fallback_warns_and_completes(self, monkeypatch):
        import multiprocessing

        class BrokenContext:
            def Pipe(self, duplex=False):
                raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method=None: BrokenContext()
        )
        specs = [
            ExperimentSpec(protocol="hyperledger", replicas=3, duration=30.0, seed=s)
            for s in (0, 1)
        ]
        with pytest.warns(RuntimeWarning, match="worker process construction failed"):
            records = SweepRunner(jobs=2).run(specs)
        assert [r.spec.seed for r in records] == [0, 1]

    def test_partial_failure_keeps_computed_cells_cached(self, tmp_path):
        from repro.engine import ResultCache

        good = [
            ExperimentSpec(protocol="hyperledger", replicas=3, duration=30.0, seed=s)
            for s in (0, 1)
        ]
        bad = ExperimentSpec(protocol="hyperledger", params={"bogus": 1})
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="does not accept parameter"):
            SweepRunner(jobs=1, cache=cache).run(good + [bad])
        # Regression (per-cell puts): both good cells were computed before
        # the bad one surfaced its error, and must already be on disk.
        slots, missing = cache.partition(good)
        assert missing == []
        rerun = SweepRunner(jobs=1, cache=cache)
        records = rerun.run(good)
        assert rerun.last_cache_hits == 2
        assert [r.spec.seed for r in records] == [0, 1]
