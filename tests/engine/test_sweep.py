"""Unit tests for grid expansion and the parallel sweep runner."""

from __future__ import annotations

import pytest

from repro.engine import (
    ExperimentSpec,
    FaultSpec,
    SweepRunner,
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

    def test_legacy_fault_fields_are_refused_by_name(self):
        # A fault axis in the pre-registry spelling fails naming the old
        # key; the registry names are the only ones the axes address.
        legacy = {"kind": "crash", "crash_at": {"p0": 10.0}, "byzantine": []}
        with pytest.raises(ValueError, match=r"unknown fault key\(s\) 'byzantine', 'crash_at'"):
            expand_grid(ExperimentSpec(protocol="bitcoin"), {"fault": [legacy]})
        base = ExperimentSpec(protocol="bitcoin", fault=FaultSpec("crash", params={"at": {}}))
        (spec,) = expand_grid(base, {"fault.at": [{"p1": 25.0}]})
        assert spec.fault.params == {"at": {"p1": 25.0}}
        (seeded,) = expand_grid(base, {"fault.seed": [9]})
        assert seeded.fault.seed == 9 and seeded.fault.params == base.fault.params


class TestSweepRunner:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_every_result_path_returns_data_in_grid_order(self, tmp_path):
        """A finished cell is data whichever path produced it: serial, pool,
        retried, cache hit or journal resume (the pool's in-process fallback
        is checked by its own test below).  Only ``spec.execute()`` returns a
        live run."""
        from repro.engine import ResultCache
        from repro.engine.executors import FlakyExecutor, SerialExecutor

        specs = [
            ExperimentSpec(protocol="hyperledger", replicas=3, duration=30.0, seed=s)
            for s in (0, 1, 2)
        ]
        expected = [spec.execute().stable_dict() for spec in specs]

        def data_only(path, runner):
            records = runner.run(specs)
            assert [r.spec.seed for r in records] == [0, 1, 2], path
            assert all(r.run is None and r.classification_result is None for r in records), path
            assert [r.stable_dict() for r in records] == expected, path
            return runner

        cache, journal = ResultCache(tmp_path / "cache"), tmp_path / "journal.jsonl"
        data_only("serial", SweepRunner(jobs=1))
        data_only("pool", SweepRunner(jobs=2, executor="pool"))
        flaky = FlakyExecutor(SerialExecutor(), plan={1: {1: "exception"}})
        assert data_only("retried", SweepRunner(executor=flaky, retries=1)).last_attempts == 4
        data_only("journalled", SweepRunner(cache=cache, journal=journal))
        assert data_only("cache hit", SweepRunner(cache=cache)).last_cache_hits == 3
        resumed = SweepRunner(cache=cache, journal=journal, resume=True)
        assert data_only("resumed", resumed).last_resumed == 3

    def test_a_serial_sweep_retains_no_simulation(self):
        """The 54-cell fork-prone bitcoin grid (the CLI session's sweep) run
        serially: what the results hold after ``gc.collect()`` is their data,
        at most 2 MiB, and no ``Network`` the sweep built is still reachable.
        A size, not a time: each finished simulation used to stay attached,
        about 18.8 MiB for the grid."""
        import gc
        import tracemalloc

        from repro.engine import get_protocol, regime_spec
        from repro.network.simulator import Network

        regime = get_protocol("bitcoin").fork_prone
        base = regime_spec("bitcoin", regime, n=5, duration=100.0, seed=0)
        axes = {"channel.delta": [1.0, 2.0, 4.0], "params.token_rate": [0.2, 0.4, 0.8]}
        specs = expand_grid(base, {"seed": range(6), **axes})
        assert len(specs) == 54
        specs[0].execute()  # first-use imports and caches are not the sweep's
        gc.collect()
        before = [obj for obj in gc.get_objects() if isinstance(obj, Network)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            records = SweepRunner(jobs=1).run(specs)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(records) == 54
        assert retained <= 2 * 1024 * 1024, f"the sweep retains {retained / 2**20:.2f} MiB"
        left = [
            obj for obj in gc.get_objects()
            if isinstance(obj, Network) and not any(obj is old for old in before)
        ]
        assert left == []

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
        assert all(r.run is None and r.classification_result is None for r in records)

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
        assert all(cache.get(spec) is not None for spec in good)
        rerun = SweepRunner(jobs=1, cache=cache)
        records = rerun.run(good)
        assert rerun.last_cache_hits == 2
        assert [r.spec.seed for r in records] == [0, 1]
