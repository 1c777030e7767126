"""Unit tests for the two executor backends, the flaky wrapper and the resilience loop."""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.errors import UnknownVocabularyError
from repro.engine import (
    CellFailure,
    CellTask,
    ExperimentSpec,
    FlakyExecutor,
    PoolExecutor,
    ResultCache,
    SerialExecutor,
    SweepAbortedError,
    SweepJournal,
    SweepRunner,
    retry_delay,
    spec_digest,
)
from repro.engine import checkpoint
from repro.engine.executors import _Worker


def run_batch(executor, tasks, timeout=None):
    """Attempt every task once; the whole batch's outcomes in task order."""
    rank = {task.index: position for position, task in enumerate(tasks)}
    return sorted(executor.iter_batch(tasks, timeout), key=lambda o: rank[o.task.index])


def small_specs(count, duration=20.0, seed=0):
    return [
        ExperimentSpec(protocol="hyperledger", replicas=3, duration=duration, seed=seed + i)
        for i in range(count)
    ]


def stable(record):
    return record.stable_dict()


def count_executions(monkeypatch):
    """Seeds of the cells ``ExperimentSpec.execute`` runs in this process."""
    executed = []
    original = ExperimentSpec.execute

    def counting_execute(self):
        executed.append(self.seed)
        return original(self)

    monkeypatch.setattr(ExperimentSpec, "execute", counting_execute)
    return executed


class TestBackendNames:
    def test_runner_accepts_backend_names(self):
        assert isinstance(SweepRunner(executor="serial").executor, SerialExecutor)
        pool = SweepRunner(jobs=3, executor="pool").executor
        assert isinstance(pool, PoolExecutor) and pool.jobs == 3

    @pytest.mark.parametrize("name", ["warp", "shard", "flaky"])
    def test_unknown_name_raises_uniform_vocabulary_error(self, name):
        with pytest.raises(UnknownVocabularyError) as excinfo:
            SweepRunner(executor=name)
        message = str(excinfo.value)
        assert f"unknown executor {name!r}" in message
        assert "'serial'" in message and "'pool'" in message
        # The uniform error is catchable as both KeyError and ValueError.
        assert isinstance(excinfo.value, KeyError)
        assert isinstance(excinfo.value, ValueError)


class TestSerialExecutor:
    def test_successful_batch_keeps_live_results(self):
        tasks = [CellTask.for_spec(i, s) for i, s in enumerate(small_specs(2))]
        outcomes = run_batch(SerialExecutor(), tasks)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert all(o.result.run is not None for o in outcomes)

    def test_error_outcome_carries_live_exception(self):
        spec = ExperimentSpec(protocol="hyperledger", params={"bogus": 1})
        (outcome,) = run_batch(SerialExecutor(), [CellTask.for_spec(0, spec)])
        assert outcome.status == "error"
        assert outcome.error_type == "ValueError"
        assert isinstance(outcome.exception, ValueError)

    def test_injected_hang_and_kill_are_synthetic(self):
        tasks = [
            CellTask.for_spec(i, s) for i, s in enumerate(small_specs(2))
        ]
        tasks[0].inject = "hang"
        tasks[1].inject = "kill"
        outcomes = run_batch(SerialExecutor(), tasks, timeout=0.5)
        assert [o.status for o in outcomes] == ["timeout", "died"]

    def test_closing_the_batch_stops_executing(self, monkeypatch):
        """The runner aborts by no longer pulling: a closed batch runs no
        further cell (what ``stop_after_failures`` used to ask for)."""
        executed = count_executions(monkeypatch)
        tasks = [CellTask.for_spec(i, s) for i, s in enumerate(small_specs(4))]
        batch = SerialExecutor().iter_batch(tasks)
        assert [next(batch).status, next(batch).status] == ["ok", "ok"]
        batch.close()
        assert executed == [0, 1]


class TestPoolExecutor:
    def test_per_cell_failure_does_not_poison_the_batch(self):
        good = small_specs(2)
        bad = ExperimentSpec(protocol="hyperledger", params={"bogus": 1})
        tasks = [
            CellTask.for_spec(0, good[0]),
            CellTask.for_spec(1, bad),
            CellTask.for_spec(2, good[1]),
        ]
        outcomes = run_batch(PoolExecutor(jobs=2), tasks)
        assert [o.status for o in outcomes] == ["ok", "error", "ok"]
        assert outcomes[1].error_type == "ValueError"
        assert outcomes[0].result is not None

    def test_matches_serial_up_to_timings(self):
        tasks = [CellTask.for_spec(i, s) for i, s in enumerate(small_specs(2))]
        pooled = run_batch(PoolExecutor(jobs=2), tasks)
        serial = run_batch(SerialExecutor(), tasks)
        assert [stable(o.result) for o in pooled] == [stable(o.result) for o in serial]

    def test_hung_worker_is_killed_on_timeout(self):
        (task,) = [CellTask.for_spec(0, small_specs(1)[0])]
        task.inject = "hang"
        (outcome,) = run_batch(PoolExecutor(jobs=1), [task], timeout=0.5)
        assert outcome.status == "timeout"
        assert "terminated" in outcome.error_message

    def test_killed_worker_reports_death(self):
        (task,) = [CellTask.for_spec(0, small_specs(1)[0])]
        task.inject = "kill"
        (outcome,) = run_batch(PoolExecutor(jobs=1), [task])
        assert outcome.status == "died"
        assert outcome.error_type == "WorkerDied"

    def test_worker_that_reports_then_exits_between_the_two_reads_is_not_dead(self):
        """Regression: the reap step reads ``conn.poll()`` and then
        ``proc.is_alive()``; a worker that reports and exits between the
        two was declared ``WorkerDied`` with exit code 0."""
        (spec,) = small_specs(1)
        task = CellTask.for_spec(0, spec)
        result = spec.execute()

        class ExitedProc:
            pid = 4242
            exitcode = 0

            def is_alive(self):
                return False

            def join(self):
                pass

            def close(self):
                pass

        class LateConn:
            """Empty at the first poll, holding the report at the second."""

            def __init__(self):
                self.polls = iter([False, True])

            def poll(self):
                return next(self.polls)

            def recv(self):
                return ("ok", result.to_json(), None)

            def close(self):
                pass

        worker = _Worker(ExitedProc(), LateConn(), task=task)
        outcome = PoolExecutor(jobs=1)._reap(worker)
        assert outcome.status == "ok", outcome.error_message
        assert stable(outcome.result) == stable(result)

    def test_killed_workers_do_not_leak_fds(self):
        """Regression: a long flaky sweep kills many workers on timeout;
        each kill must release both pipe ends and the Process sentinel,
        or the driver runs out of file descriptors mid-sweep."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc to observe the fd table")

        def hung_batch(count):
            tasks = [
                CellTask.for_spec(i, s)
                for i, s in enumerate(small_specs(count, seed=100))
            ]
            for task in tasks:
                task.inject = "hang"
            return tasks

        pool = PoolExecutor(jobs=8)
        # Warm-up: multiprocessing opens long-lived bookkeeping fds
        # (resource tracker, semaphores) on first use — not leaks.
        run_batch(pool, hung_batch(2), timeout=0.05)
        assert multiprocessing.active_children() == []
        before = len(os.listdir("/proc/self/fd"))
        outcomes = run_batch(pool, hung_batch(50), timeout=0.05)
        assert [o.status for o in outcomes] == ["timeout"] * 50
        assert multiprocessing.active_children() == []
        # A batch whose consumer raises is torn down the same way.
        with pytest.raises(RuntimeError, match="consumer failed"):
            with contextlib.closing(pool.iter_batch(hung_batch(9), timeout=0.05)) as batch:
                for _ in batch:
                    raise RuntimeError("consumer failed")
        assert multiprocessing.active_children() == []
        after = len(os.listdir("/proc/self/fd"))
        assert after <= before, f"fd table grew {before} -> {after} across 50 kills"

    def test_construction_failure_degrades_serially_with_a_warning(self, monkeypatch):
        import multiprocessing

        class BrokenContext:
            def Pipe(self, duplex=False):
                raise OSError("no pipes in this sandbox")

        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method=None: BrokenContext()
        )
        tasks = [CellTask.for_spec(i, s) for i, s in enumerate(small_specs(2))]
        with pytest.warns(RuntimeWarning, match="worker process construction failed"):
            outcomes = run_batch(PoolExecutor(jobs=2), tasks)
        assert [o.status for o in outcomes] == ["ok", "ok"]

    def test_failure_to_build_a_later_worker_keeps_the_dispatched_cells(self, monkeypatch):
        """The second worker cannot be built: the cell already handed to
        the first finishes there, the rest run serially in-process."""
        real = multiprocessing.get_context()

        class SecondPipeBroken:
            Process = real.Process
            pipes = 0

            def Pipe(self, duplex=True):
                self.pipes += 1
                if self.pipes > 1:
                    raise OSError("out of file descriptors")
                return real.Pipe(duplex)

        context = SecondPipeBroken()
        monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)
        tasks = [CellTask.for_spec(i, s) for i, s in enumerate(small_specs(4))]
        with pytest.warns(RuntimeWarning, match="worker process construction failed"):
            outcomes = run_batch(PoolExecutor(jobs=2), tasks)
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert [stable(o.result) for o in outcomes] == [
            stable(o.result) for o in run_batch(SerialExecutor(), tasks)
        ]
        # Only in-process results keep their live run.
        assert [o.result.run is None for o in outcomes] == [True, False, False, False]
        assert multiprocessing.active_children() == []


def mixed_specs():
    """12 cells of mixed protocols: the Table 1 systems + fork-prone bitcoin."""
    from repro.engine import get_protocol, regime_spec, table1_spec
    from repro.protocols.classification import TABLE1_SYSTEMS

    fork_prone = get_protocol("bitcoin").fork_prone
    return [table1_spec(name, n=4, duration=40.0, seed=7) for name in TABLE1_SYSTEMS] + [
        regime_spec("bitcoin", fork_prone, n=4, duration=40.0, seed=seed) for seed in range(5)
    ]


class TestWarmPool:
    """Worker reuse, isolation and recycling inside one wave."""

    def test_two_workers_run_twelve_mixed_cells_identically_to_serial(self, worker_starts):
        specs = mixed_specs()
        assert len(specs) == 12
        tasks = [CellTask.for_spec(i, s) for i, s in enumerate(specs)]
        pooled = run_batch(PoolExecutor(jobs=2), tasks)
        assert len(worker_starts) == 2
        assert [o.status for o in pooled] == ["ok"] * 12
        assert [stable(o.result) for o in pooled] == [stable(s.execute()) for s in specs]
        assert multiprocessing.active_children() == []

    def test_a_worker_is_recycled_after_every_attempt_that_did_not_end_ok(self, worker_starts):
        specs = small_specs(7)
        tasks = [CellTask.for_spec(i, s) for i, s in enumerate(specs)]
        for task, inject in zip(tasks, [None, "kill", None, "hang", None, "exception", None]):
            task.inject = inject
        outcomes = run_batch(PoolExecutor(jobs=1), tasks, timeout=0.5)
        assert [o.status for o in outcomes] == [
            "ok", "died", "ok", "timeout", "ok", "error", "ok",
        ]  # fmt: skip
        assert [stable(o.result) for o in outcomes[::2]] == [
            stable(s.execute()) for s in specs[::2]
        ]
        assert len(worker_starts) == 4  # the first worker + one replacement per failure
        assert multiprocessing.active_children() == []

    def test_the_deadline_is_per_cell_from_dispatch(self, monkeypatch):
        """Three cells on one worker under a timeout longer than one cell
        and shorter than the batch: a deadline counted from the worker's
        start would kill the third."""
        original = ExperimentSpec.execute

        def slow_execute(self):  # inherited by the forked worker
            time.sleep(0.4)
            return original(self)

        monkeypatch.setattr(ExperimentSpec, "execute", slow_execute)
        tasks = [CellTask.for_spec(i, s) for i, s in enumerate(small_specs(3))]
        began = time.monotonic()
        outcomes = run_batch(PoolExecutor(jobs=1), tasks, timeout=1.0)
        assert [o.status for o in outcomes] == ["ok"] * 3
        if multiprocessing.get_start_method() == "fork":
            assert time.monotonic() - began > 1.0

    def test_a_worker_killed_between_two_cells_costs_at_most_one_attempt(self, worker_starts):
        class KilledWhileIdle(PoolExecutor):
            def _dispatch(self, worker, task, timeout):
                if task.index == 1:  # its worker has reported cell 0 and is idle
                    os.kill(worker.proc.pid, signal.SIGKILL)
                    worker.proc.join(timeout=5)
                super()._dispatch(worker, task, timeout)

        specs = small_specs(3)
        tasks = [CellTask.for_spec(i, s) for i, s in enumerate(specs)]
        outcomes = run_batch(KilledWhileIdle(jobs=1), tasks)
        assert [o.status for o in outcomes] == ["ok", "died", "ok"]
        assert outcomes[1].error_type == "WorkerDied"
        assert stable(outcomes[2].result) == stable(specs[2].execute())
        assert len(worker_starts) == 2
        assert multiprocessing.active_children() == []


class TestShardSelection:
    def test_shard_selects_every_kth_grid_cell(self):
        specs = small_specs(10, duration=5.0)
        shards = []
        for index in range(4):
            runner = SweepRunner(shard=(index, 4))
            records = runner.run(specs)
            assert [r.spec for r in records] == [specs[i] for i in runner.last_indices]
            shards.append(runner.last_indices)
        assert sorted(index for shard in shards for index in shard) == list(range(10))
        assert shards[1] == [1, 5, 9]

    @pytest.mark.parametrize(
        "shard, message",
        [((4, 4), r"shard index must be in \[0, 4\)"), ((0, 0), "shard count must be >= 1")],
        ids=["index-out-of-range", "zero-count"],
    )
    def test_invalid_shard_parameters_rejected(self, shard, message):
        with pytest.raises(ValueError, match=message):
            SweepRunner(shard=shard)

    def test_shard_union_is_byte_identical_to_serial(self, tmp_path):
        specs = small_specs(5)
        serial = SweepRunner(jobs=1).run(specs)
        cache_dir = tmp_path / "cache"
        union = {}
        for index in range(4):
            runner = SweepRunner(cache=ResultCache(cache_dir), shard=(index, 4))
            records = runner.run(specs)
            for grid_index, record in zip(runner.last_indices, records):
                union[grid_index] = record
        assert sorted(union) == list(range(5))
        assert [union[i].stable_json() for i in range(5)] == [
            r.stable_json() for r in serial
        ]
        merge = SweepRunner(cache=ResultCache(cache_dir))
        merged = merge.run(specs)
        assert merge.last_cache_hits == 5 and merge.last_executed == 0
        assert [stable(r) for r in merged] == [stable(r) for r in serial]

    def test_sharded_journal_keeps_grid_indices(self, tmp_path):
        specs = small_specs(5)
        journal_path = tmp_path / "journal.jsonl"
        SweepRunner(shard=(1, 2), journal=journal_path).run(specs)
        entries = [json.loads(line) for line in journal_path.read_text().splitlines()]
        assert [e["index"] for e in entries] == [1, 3]
        assert [e["digest"] for e in entries] == [spec_digest(specs[i]) for i in (1, 3)]


class TestFlakyExecutor:
    def test_plan_injections_are_scripted(self):
        flaky = FlakyExecutor(SerialExecutor(), plan={0: {1: "exception"}})
        tasks = [CellTask.for_spec(i, s) for i, s in enumerate(small_specs(2))]
        outcomes = run_batch(flaky, tasks)
        assert [o.status for o in outcomes] == ["error", "ok"]
        assert outcomes[0].error_type == "InjectedFault"
        assert flaky.injections == [(0, 1, "exception")]

    def test_rates_are_deterministic_per_digest_and_attempt(self):
        specs = small_specs(6)
        tasks = [CellTask.for_spec(i, s) for i, s in enumerate(specs)]

        def injected(seed):
            flaky = FlakyExecutor(SerialExecutor(), rates={"exception": 0.5}, seed=seed)
            run_batch(flaky, tasks)
            return flaky.injections

        assert injected(3) == injected(3)
        assert injected(3) != injected(4)

    def test_unknown_injection_kind_rejected(self):
        with pytest.raises(UnknownVocabularyError, match="injection kind"):
            FlakyExecutor(SerialExecutor(), rates={"gamma-ray": 1.0})
        with pytest.raises(UnknownVocabularyError, match="injection kind"):
            FlakyExecutor(SerialExecutor(), plan={0: {1: "gamma-ray"}})


class TestRetryDelay:
    def test_deterministic_and_exponential(self):
        first = retry_delay(0.1, 2, "digest-a")
        assert first == retry_delay(0.1, 2, "digest-a")
        assert retry_delay(0.1, 2, "digest-a") != retry_delay(0.1, 2, "digest-b")
        assert retry_delay(0.1, 4, "digest-a") > 2 * retry_delay(0.1, 2, "digest-a")
        assert 0.1 <= first < 0.15

    def test_zero_backoff_disables_sleeping(self):
        assert retry_delay(0.0, 5, "digest-a") == 0.0


class TestResilienceLoop:
    def test_chaos_sweep_degrades_and_recovers(self, tmp_path):
        specs = small_specs(4)
        flaky = FlakyExecutor(
            SerialExecutor(),
            plan={
                0: {1: "exception"},
                1: {1: "hang"},
                2: {1: "kill"},
                3: {1: "exception", 2: "exception", 3: "exception"},
            },
        )
        runner = SweepRunner(
            executor=flaky,
            retries=2,
            timeout=1.0,
            backoff=0.0,
            max_failures=None,
            journal=tmp_path / "journal.jsonl",
            cache=ResultCache(tmp_path / "cache"),
        )
        records = runner.run(specs)
        assert len(records) == 4
        assert [isinstance(r, CellFailure) for r in records] == [
            False, False, False, True,
        ]
        clean = SweepRunner(jobs=1).run(specs)
        assert [stable(r) for r in records[:3]] == [stable(r) for r in clean[:3]]
        failure = records[3]
        assert failure.attempts == 3
        assert failure.error["type"] == "InjectedFault"
        assert runner.last_failures == 1

    def test_retried_cells_are_byte_identical_to_clean_runs(self):
        specs = small_specs(2)
        flaky = FlakyExecutor(SerialExecutor(), plan={0: {1: "exception"}})
        retried = SweepRunner(
            executor=flaky, retries=1, backoff=0.0, max_failures=None
        ).run(specs)
        clean = SweepRunner(jobs=1).run(specs)
        assert [r.stable_json() for r in retried] == [r.stable_json() for r in clean]

    def test_default_zero_failure_budget_reraises_the_original_error(self):
        bad = ExperimentSpec(protocol="hyperledger", params={"bogus": 1})
        with pytest.raises(ValueError, match="does not accept parameter"):
            SweepRunner(jobs=1).run([bad])

    def test_max_failures_exceeded_raises_sweep_aborted(self):
        specs = small_specs(3)
        flaky = FlakyExecutor(
            SerialExecutor(), plan={i: {1: "hang"} for i in range(3)}
        )
        with pytest.raises(SweepAbortedError, match="exceeded --max-failures 1"):
            SweepRunner(executor=flaky, timeout=0.1, max_failures=1).run(specs)

    def test_successes_survive_an_abort_in_the_cache(self, tmp_path):
        specs = small_specs(2) + [
            ExperimentSpec(protocol="hyperledger", params={"bogus": 1})
        ]
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError):
            SweepRunner(jobs=1, cache=cache).run(specs)
        # Regression: the two good cells were computed before the failure
        # surfaced; with per-cell puts they are already cached.
        assert all(cache.get(spec) is not None for spec in specs[:2])

    def test_payload_carries_structured_failures(self):
        from repro.engine import results_payload

        specs = small_specs(2)
        flaky = FlakyExecutor(
            SerialExecutor(), plan={1: {1: "exception", 2: "exception"}}
        )
        records = SweepRunner(
            executor=flaky, retries=1, backoff=0.0, max_failures=None
        ).run(specs)
        payload = results_payload(records, shard=(0, 1))
        assert payload["schema"] == "repro.sweep/2"
        assert payload["failures"] == 1
        assert payload["shard"] == {"index": 0, "count": 1}
        failed = payload["cells"][1]
        assert failed["cell_failure"] is True
        assert failed["attempts"] == 2
        assert failed["error"]["type"] == "InjectedFault"
        assert ExperimentSpec.from_dict(failed["spec"]) == specs[1]
        # The whole payload round-trips through strict JSON.
        json.loads(json.dumps(payload))

    @pytest.mark.parametrize(
        "runner_kwargs",
        [
            lambda: {"executor": SerialExecutor()},
            lambda: {"executor": PoolExecutor(jobs=2)},
            lambda: {"executor": PoolExecutor(jobs=2), "shard": (0, 1)},
            lambda: {"executor": FlakyExecutor(PoolExecutor(jobs=2))},
        ],
        ids=["serial", "pool", "shard", "flaky"],
    )
    def test_abort_is_prompt_on_every_backend(self, runner_kwargs, monkeypatch):
        """A bad cell first in a 6-cell wave under the zero-failure budget:
        the runner stops pulling, so the rest of the grid is never handed
        to a worker and none is left behind."""
        handed_out = []
        for cls, method in ((SerialExecutor, "_attempt"), (PoolExecutor, "_dispatch")):
            original = getattr(cls, method)

            def counting(self, *args, _original=original):
                handed_out.append(args)
                return _original(self, *args)

            monkeypatch.setattr(cls, method, counting)
        bad = ExperimentSpec(protocol="hyperledger", params={"bogus": 1})
        with pytest.raises((ValueError, SweepAbortedError), match="does not accept parameter"):
            # Long cells: the good ones in flight must not finish first.
            SweepRunner(**runner_kwargs()).run([bad] + small_specs(5, duration=5000.0))
        # At most the cells in flight when the failure arrived, plus the
        # one the pool hands to the replacement worker before reporting it.
        assert len(handed_out) <= 3
        assert multiprocessing.active_children() == []

    def test_successes_that_arrived_before_a_pool_abort_are_cached(self, tmp_path):
        good = small_specs(5)
        bad = ExperimentSpec(protocol="hyperledger", params={"bogus": 1})
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "journal.jsonl"
        runner = SweepRunner(executor=PoolExecutor(jobs=1), cache=cache, journal=journal_path)
        with pytest.raises(SweepAbortedError):
            runner.run(good[:2] + [bad] + good[2:])
        assert [cache.get(spec) is None for spec in good] == [False, False, True, True, True]
        entries = [json.loads(line) for line in journal_path.read_text().splitlines()]
        assert [e["status"] for e in entries] == ["ok", "ok", "failed"]
        assert multiprocessing.active_children() == []


class TestJournalAndResume:
    def test_journal_records_every_terminal_cell(self, tmp_path):
        specs = small_specs(2)
        journal_path = tmp_path / "journal.jsonl"
        flaky = FlakyExecutor(SerialExecutor(), plan={1: {1: "exception"}})
        SweepRunner(
            executor=flaky,
            backoff=0.0,
            max_failures=None,
            journal=journal_path,
            cache=ResultCache(tmp_path / "cache"),
        ).run(specs)
        entries = [json.loads(line) for line in journal_path.read_text().splitlines()]
        assert [e["status"] for e in entries] == ["ok", "failed"]
        assert all(e["schema"] == "repro.sweep-journal/2" for e in entries)
        assert entries[1]["attempts"] == 1
        assert entries[1]["error"]["type"] == "InjectedFault"

    def test_resume_executes_only_unfinished_cells(self, tmp_path, monkeypatch):
        specs = small_specs(3)
        journal = SweepJournal(tmp_path / "journal.jsonl")
        cache = ResultCache(tmp_path / "cache")
        # First driver "crashes" after two cells: simulate by journaling a
        # partial run.
        SweepRunner(cache=cache, journal=journal).run(specs[:2])

        executions = count_executions(monkeypatch)
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        records = runner.run(specs)
        assert executions == [specs[2].seed]
        assert runner.last_resumed == 2 and runner.last_executed == 1
        assert len(records) == 3

    def test_resume_restores_failures_without_rerunning_them(self, tmp_path):
        specs = small_specs(2)
        journal = SweepJournal(tmp_path / "journal.jsonl")
        cache = ResultCache(tmp_path / "cache")
        flaky = FlakyExecutor(SerialExecutor(), plan={1: {1: "exception", 2: "exception"}})
        SweepRunner(
            executor=flaky,
            retries=1,
            backoff=0.0,
            max_failures=None,
            journal=journal,
            cache=cache,
        ).run(specs)
        runner = SweepRunner(cache=cache, journal=journal, resume=True, max_failures=None)
        records = runner.run(specs)
        assert runner.last_executed == 0 and runner.last_resumed == 2
        assert isinstance(records[1], CellFailure)
        assert records[1].error["type"] == "InjectedFault"

    def test_resume_tolerates_a_torn_journal_tail(self, tmp_path):
        specs = small_specs(1)
        journal = SweepJournal(tmp_path / "journal.jsonl")
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache, journal=journal).run(specs)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"digest": "truncat')  # mid-write driver crash
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        records = runner.run(specs)
        assert runner.last_resumed == 1 and len(records) == 1

    def test_resume_recovers_from_every_torn_tail_offset(self, tmp_path):
        """Property: wherever a crash tears the final journal line, resume
        keeps every complete entry and routes only the torn cell back
        through execution (served by the warm cache here, for speed)."""
        specs = small_specs(2)
        journal_path = tmp_path / "journal.jsonl"
        cache = ResultCache(tmp_path / "cache")
        clean = SweepRunner(cache=cache, journal=journal_path).run(specs)
        data = journal_path.read_bytes()
        boundary = data.rstrip(b"\n").rfind(b"\n") + 1  # final line starts here
        assert boundary > 0 and len(data) - boundary > 10
        for offset in range(boundary, len(data)):
            torn_path = tmp_path / "torn.jsonl"
            torn_path.write_bytes(data[:offset])
            # Cutting only the trailing newline leaves valid JSON; every
            # other offset leaves a torn tail that must be dropped.
            try:
                json.loads(data[boundary:offset].decode("utf-8", "strict"))
                expect_resumed = 2
            except ValueError:
                expect_resumed = 1
            runner = SweepRunner(cache=cache, journal=torn_path, resume=True)
            records = runner.run(specs)
            assert runner.last_resumed == expect_resumed, f"offset {offset}"
            assert runner.last_cache_hits == 2 - expect_resumed
            assert runner.last_executed == 0
            assert [stable(r) for r in records] == [stable(r) for r in clean]

    def test_resume_reexecutes_only_the_torn_cell(self, tmp_path, monkeypatch):
        """With no cache entry to fall back on, the torn cell — and only
        the torn cell — is actually re-executed."""
        specs = small_specs(2)
        journal_path = tmp_path / "journal.jsonl"
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache, journal=journal_path).run(specs)
        data = journal_path.read_bytes()
        boundary = data.rstrip(b"\n").rfind(b"\n") + 1
        journal_path.write_bytes(data[: boundary + 20])  # tear the final line
        # Evict the torn cell's cache entry so resume must recompute it.
        (tmp_path / "cache" / f"{spec_digest(specs[1])}.json").unlink()
        executions = count_executions(monkeypatch)
        runner = SweepRunner(cache=cache, journal=journal_path, resume=True)
        records = runner.run(specs)
        assert executions == [specs[1].seed]
        assert runner.last_resumed == 1 and runner.last_executed == 1
        assert len(records) == 2
        # The re-executed cell's entry starts a line of its own after the
        # torn fragment, so the next resume finds both cells done.
        runner = SweepRunner(cache=cache, journal=journal_path, resume=True)
        runner.run(specs)
        assert executions == [specs[1].seed]
        assert runner.last_resumed == 2 and runner.last_executed == 0

    @pytest.mark.parametrize("status", ["ok", "failed"])
    def test_an_entry_after_a_torn_tail_starts_a_line_of_its_own(self, tmp_path, status):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.path.write_text('{"digest": "torn", "sta')  # a crash mid-write
        error = {"type": "InjectedFault"} if status == "failed" else None
        journal.record(
            digest="d1", index=0, label="cell", status=status, attempts=1, error=error
        )
        assert journal.path.read_text().splitlines()[0] == '{"digest": "torn", "sta'
        assert list(journal.load()) == ["d1"]
        assert journal.load()["d1"]["status"] == status
        assert journal.load()["d1"].get("error") == error

    def test_entries_on_a_whole_journal_add_no_blank_line(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        for index in range(2):
            journal.record(digest=f"d{index}", index=index, label="cell", status="ok", attempts=1)
        lines = journal.path.read_text().split("\n")
        assert len(lines) == 3 and lines[-1] == "" and all(lines[:2])
        assert list(journal.load()) == ["d0", "d1"]

    def test_load_skips_blank_lines(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.record(digest="d0", index=0, label="cell", status="ok", attempts=1)
        entry = journal.path.read_text()
        journal.path.write_text("\n  \n" + entry + "\n\t\n" + entry.replace("d0", "d1"))
        assert list(journal.load()) == ["d0", "d1"]

    def test_resume_reexecutes_when_cache_entry_is_missing(self, tmp_path):
        specs = small_specs(1)
        journal = SweepJournal(tmp_path / "journal.jsonl")
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache, journal=journal).run(specs)
        for entry in (tmp_path / "cache").iterdir():
            entry.unlink()
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        with pytest.warns(RuntimeWarning, match="result cache has no entry"):
            records = runner.run(specs)
        assert runner.last_executed == 1 and len(records) == 1

    def test_a_cache_written_at_one_model_version_misses_at_the_next(
        self, tmp_path, monkeypatch
    ):
        specs = small_specs(2)
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache).run(specs)
        assert all(cache.get(spec) is not None for spec in specs)
        monkeypatch.setattr(repro, "MODEL_VERSION", repro.MODEL_VERSION + 1)
        assert [cache.get(spec) for spec in specs] == [None, None]
        executions = count_executions(monkeypatch)
        runner = SweepRunner(cache=cache)
        runner.run(specs)
        assert executions == [0, 1] and runner.last_cache_hits == 0

    def test_a_journal_written_at_one_model_version_resumes_nothing_at_the_next(
        self, tmp_path, monkeypatch
    ):
        specs = small_specs(3)
        journal = SweepJournal(tmp_path / "journal.jsonl")
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache, journal=journal).run(specs)
        monkeypatch.setattr(repro, "MODEL_VERSION", repro.MODEL_VERSION + 1)
        executions = count_executions(monkeypatch)
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        runner.run(specs)
        assert executions == [0, 1, 2]
        assert runner.last_resumed == 0 and runner.last_executed == 3

    def test_a_cache_and_journal_outlive_a_change_of_layout(self, tmp_path, monkeypatch):
        """Only the model version keys results: a checkpoint layout
        fingerprint of other code leaves every cache entry and journal
        line a hit."""
        specs = small_specs(2)
        journal = SweepJournal(tmp_path / "journal.jsonl")
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(checkpoint, "layout_fingerprint", lambda: "a" * 64)
        SweepRunner(cache=cache, journal=journal).run(specs)
        monkeypatch.setattr(checkpoint, "layout_fingerprint", lambda: "b" * 64)
        assert all(cache.get(spec) is not None for spec in specs)
        executions = count_executions(monkeypatch)
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        runner.run(specs)
        assert executions == []
        assert runner.last_resumed == 2 and runner.last_executed == 0

    def test_resume_requires_journal_and_cache(self, tmp_path):
        with pytest.raises(ValueError, match="requires a journal"):
            SweepRunner(resume=True, cache=ResultCache(tmp_path / "c"))
        with pytest.raises(ValueError, match="requires a cache"):
            SweepRunner(resume=True, journal=tmp_path / "j.jsonl")

    def test_interrupted_wave_keeps_every_outcome_that_arrived(self, tmp_path):
        """The ``--jobs 1`` twin of the driver-kill test: outcomes are
        cached and journaled as they arrive, not when the wave returns."""

        class Interrupted(SerialExecutor):
            def iter_batch(self, tasks, timeout=None):
                for position, outcome in enumerate(super().iter_batch(tasks, timeout)):
                    if position == 2:
                        raise KeyboardInterrupt
                    yield outcome

        specs = small_specs(4)
        journal = SweepJournal(tmp_path / "journal.jsonl")
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(executor=Interrupted(), cache=cache, journal=journal).run(specs)
        assert sorted(journal.load()) == sorted(spec_digest(s) for s in specs[:2])
        assert [cache.get(spec) is None for spec in specs] == [False, False, True, True]
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        runner.run(specs)
        assert runner.last_resumed == 2 and runner.last_executed == 2

    def test_resume_does_not_care_about_journal_line_order(self, tmp_path):
        """Within a wave the journal is in completion order; ``load`` is
        keyed by digest, so resume restores the same cells either way."""

        class LastCellFirst(SerialExecutor):
            def iter_batch(self, tasks, timeout=None):
                yield from reversed(list(super().iter_batch(tasks, timeout)))

        specs = small_specs(4)
        journal_path = tmp_path / "journal.jsonl"
        cache = ResultCache(tmp_path / "cache")
        first = SweepRunner(executor=LastCellFirst(), cache=cache, journal=journal_path)
        records = first.run(specs)
        assert [r.spec.seed for r in records] == [s.seed for s in specs]  # spec order
        entries = [json.loads(line) for line in journal_path.read_text().splitlines()]
        assert [e["index"] for e in entries] == [3, 2, 1, 0]
        runner = SweepRunner(cache=cache, journal=journal_path, resume=True)
        resumed = runner.run(specs)
        assert runner.last_resumed == 4 and runner.last_executed == 0
        assert [stable(r) for r in resumed] == [stable(r) for r in records]


def process_state(pid):
    """The state letter of ``/proc/<pid>/stat`` (``None`` once the pid is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rpartition(")")[2].split()[0]


def children_of(pid):
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


class TestDriverCrash:
    """``SIGKILL`` of the sweep driver mid-wave: what finished is on disk,
    the workers leave by themselves, ``--resume`` runs only the remainder."""

    GRID = [
        "sweep", "--protocol", "bitcoin", "--fork-prone", "--seeds", "0:60",
        "--replicas", "5", "--duration", "120",
    ]  # fmt: skip

    def test_killed_driver_loses_only_the_cells_in_flight(self, tmp_path, capsys):
        if not os.path.isdir("/proc/self"):
            pytest.skip("needs /proc to find the driver's workers")
        from repro.cli import main

        journal_path = tmp_path / "journal.jsonl"
        cache_dir = tmp_path / "cache"
        command = [
            *self.GRID, "--jobs", "2", "--cache", str(cache_dir),
            "--journal", str(journal_path), "--out", str(tmp_path / "resumed.json"),
        ]  # fmt: skip
        source = str(Path(sys.modules["repro"].__file__).parents[1])
        driver = subprocess.Popen(
            [sys.executable, "-m", "repro", *command],
            env={**os.environ, "PYTHONPATH": source},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            patience = time.monotonic() + 60
            while (
                not journal_path.exists()
                or len(journal_path.read_text().splitlines()) < 10
            ):
                assert driver.poll() is None, "the sweep ended before it could be killed"
                assert time.monotonic() < patience
                time.sleep(0.002)
            workers = children_of(driver.pid)
        finally:
            driver.kill()
            driver.wait(timeout=10)
        assert 1 <= len(workers) <= 2

        # (i) what the journal says is done, the cache holds; the kill may
        # fall between one cell's cache write and its journal line.
        journaled = set(SweepJournal(journal_path).load())
        cached = {path.stem for path in cache_dir.glob("*.json")}
        assert 10 <= len(journaled) < 60
        assert journaled <= cached and len(cached - journaled) <= 1

        # (ii) the workers read EOF on their pipes and leave by themselves.
        patience = time.monotonic() + 2
        try:
            while any(process_state(pid) not in (None, "Z", "X") for pid in workers):
                assert time.monotonic() < patience, "a worker outlived its killed driver"
                time.sleep(0.01)
        finally:
            for pid in workers:  # a failing run must not leave them behind either
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

        # (iii) --resume executes only the remainder, to the same payload.
        assert main([*command, "--resume"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert f"({len(cached - journaled)}/60 cells from cache" in summary
        assert f"{len(journaled)} resumed from journal" in summary
        assert len(SweepJournal(journal_path).load()) == 60 - len(cached - journaled)
        assert main([*self.GRID, "--jobs", "2", "--out", str(tmp_path / "clean.json")]) == 0

        def cells(name):
            payload = json.loads((tmp_path / name).read_text())
            return [{k: v for k, v in cell.items() if k != "timings"} for cell in payload["cells"]]

        assert cells("resumed.json") == cells("clean.json")
