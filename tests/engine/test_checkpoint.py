"""Tests for :mod:`repro.engine.checkpoint`.

The byte-identity of restored *histories* is pinned by the equivalence
oracle in ``tests/network/test_checkpoint_equivalence.py``; this module
covers the artifact layer around it — the versioned on-disk format and
its torn-file detection, the crash-safe writer and its previous-snapshot
fallback, the refusal of stale payloads, spec-digest stability, spec-level
execution, and the pool executor's checkpoint-aware retries.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.engine import (
    CHECKPOINT_SCHEMA,
    CellTask,
    ChannelSpec,
    CheckpointCorruptionError,
    CheckpointWriter,
    ExperimentSpec,
    FlakyExecutor,
    PoolExecutor,
    ResultCache,
    SimulationCheckpoint,
    SweepRunner,
    checkpoint_path_for,
    load_checkpoint,
    read_checkpoint_header,
    resume_spec_from_checkpoint,
    run_spec_with_checkpoints,
    spec_digest,
)


def _spec(**overrides) -> ExperimentSpec:
    base = dict(protocol="bitcoin", replicas=4, duration=50.0, seed=3)
    base.update(overrides)
    return ExperimentSpec(**base)


def _one_snapshot(spec: ExperimentSpec) -> SimulationCheckpoint:
    captured = []
    spec.execute(
        checkpoint_every=150,
        checkpoint_sink=lambda live: captured.append(SimulationCheckpoint.capture(live)),
    )
    assert captured
    return captured[0]


class TestCheckpointFormat:
    def test_round_trip(self):
        snapshot = _one_snapshot(_spec())
        data = snapshot.to_bytes()
        parsed = SimulationCheckpoint.from_bytes(data)
        assert parsed.payload == snapshot.payload
        assert parsed.clock == snapshot.clock
        assert parsed.event_count == snapshot.event_count
        assert parsed.phase == snapshot.phase

    def test_header_is_one_json_line(self):
        snapshot = _one_snapshot(_spec())
        head_line = snapshot.to_bytes().split(b"\n", 1)[0]
        head = json.loads(head_line)
        assert head["schema"] == CHECKPOINT_SCHEMA
        assert head["pickle_bytes"] == len(snapshot.payload)
        assert head["event_count"] == snapshot.event_count

    def test_truncated_payload_is_detected(self):
        data = _one_snapshot(_spec()).to_bytes()
        with pytest.raises(CheckpointCorruptionError, match="torn"):
            SimulationCheckpoint.from_bytes(data[:-7])

    def test_flipped_payload_byte_is_detected(self):
        data = bytearray(_one_snapshot(_spec()).to_bytes())
        data[-1] ^= 0xFF
        with pytest.raises(CheckpointCorruptionError, match="digest"):
            SimulationCheckpoint.from_bytes(bytes(data))

    def test_garbage_header_is_detected(self):
        with pytest.raises(CheckpointCorruptionError):
            SimulationCheckpoint.from_bytes(b"not json\n" + b"x" * 32)
        with pytest.raises(CheckpointCorruptionError, match="header"):
            SimulationCheckpoint.from_bytes(b"no newline at all")

    def test_unknown_schema_is_rejected(self):
        head = json.dumps({"schema": "repro.checkpoint/999"}).encode()
        with pytest.raises(CheckpointCorruptionError, match="schema"):
            SimulationCheckpoint.from_bytes(head + b"\n")

    def test_restore_rebuilds_a_live_run(self):
        snapshot = _one_snapshot(_spec())
        live = snapshot.restore()
        result = live.finish()
        assert result.history.events  # the continued run finished


    def test_monitored_run_restores_inside_the_main_phase(self):
        """The streaming monitor is part of the snapshot: restored, it is
        still the recorder's subscriber and ends with the same reports."""
        spec = _spec(
            monitor=True,
            channel=ChannelSpec(kind="synchronous", params={"delta": 3.0, "min_delay": 0.5}),
            params={"token_rate": 0.4},
        )
        clean = spec.execute()
        assert clean.consistency["strong"] is False  # fork-prone: verdicts to lose
        snapshot = _one_snapshot(spec)
        assert snapshot.phase == "main"
        resumed = resume_spec_from_checkpoint(spec, snapshot)
        assert resumed.consistency == clean.consistency
        assert resumed.stable_dict() == clean.stable_dict()
        assert resumed.run.monitor.events_seen == len(resumed.run.history)
        assert resumed.run.monitor.reports() == clean.run.monitor.reports()


class TestCheckpointWriter:
    def test_write_then_rotate(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        spec = _spec()
        writer = CheckpointWriter(path, spec=json.loads(spec.to_json()))
        spec.execute(checkpoint_every=150, checkpoint_sink=writer)
        assert writer.writes >= 2
        assert os.path.exists(path)
        assert os.path.exists(str(tmp_path / "run.prev.ckpt"))
        # No tmp droppings left behind by the atomic rename.
        assert all(".tmp." not in name for name in os.listdir(tmp_path))
        snapshot = load_checkpoint(path)
        assert snapshot.event_count == writer.last_event_count
        assert snapshot.spec == json.loads(spec.to_json())

    def test_torn_primary_falls_back_to_previous(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        spec = _spec()
        writer = CheckpointWriter(path, spec=json.loads(spec.to_json()))
        spec.execute(checkpoint_every=150, checkpoint_sink=writer)
        good_prev = load_checkpoint(str(tmp_path / "run.prev.ckpt"))
        # Tear the primary the way a hard kill mid-write would.
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.warns(RuntimeWarning, match="falling back"):
            snapshot = load_checkpoint(path)
        assert snapshot.payload == good_prev.payload

    def test_missing_both_files_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_read_checkpoint_header(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        spec = _spec()
        writer = CheckpointWriter(path, spec=json.loads(spec.to_json()))
        spec.execute(checkpoint_every=150, checkpoint_sink=writer)
        head = read_checkpoint_header(path)
        assert head["schema"] == CHECKPOINT_SCHEMA
        assert head["spec"]["protocol"] == "bitcoin"


class _RetiredReplica:
    """Stands in for a class a later version deleted (pickled by reference)."""


class _BrokenState:
    """A ``__setstate__`` with a defect of its own, not a format refusal."""

    def __getstate__(self):
        return {"x": 1}

    def __setstate__(self, state):
        raise ValueError("defect, not staleness")


class TestStalePayloads:
    def test_payload_naming_a_deleted_class_is_refused_loudly(self, monkeypatch):
        # What a .ckpt written before the fault runners were retired looks
        # like to this version: a pickle whose class lookup fails.
        payload = pickle.dumps(_RetiredReplica())
        monkeypatch.delattr(f"{__name__}._RetiredReplica")
        snapshot = SimulationCheckpoint(payload=payload, clock=0.0, event_count=0, phase="main")
        with pytest.raises(CheckpointCorruptionError, match="older version.*re-run"):
            snapshot.restore()

    def test_payload_naming_a_deleted_module_is_refused_loudly(self):
        # Protocol-0 pickle of ``repro.protocols.faults.CrashingNakamotoReplica``.
        payload = b"crepro.protocols.faults\nCrashingNakamotoReplica\n."
        snapshot = SimulationCheckpoint(payload=payload, clock=0.0, event_count=0, phase="main")
        with pytest.raises(CheckpointCorruptionError, match="older version"):
            snapshot.restore()


    def test_an_unrelated_value_error_is_not_reported_as_a_version_mismatch(self):
        # Only ``StaleSnapshotError`` means "older version"; a ValueError
        # from anything else in the unpickle must surface as what it is.
        snapshot = SimulationCheckpoint(
            payload=pickle.dumps(_BrokenState()), clock=0.0, event_count=0, phase="main"
        )
        with pytest.raises(ValueError, match="defect, not staleness") as caught:
            snapshot.restore()
        assert not isinstance(caught.value, CheckpointCorruptionError)


class TestSpecKnobs:
    def test_digest_unchanged_when_unset(self):
        # The serialized form must not mention checkpointing unless set,
        # so every pre-checkpoint cache entry stays addressable.
        spec = _spec()
        assert "checkpoint" not in spec.to_json()
        assert spec_digest(spec) == spec_digest(ExperimentSpec.from_json(spec.to_json()))

    def test_knobs_serialize_when_set(self, tmp_path):
        spec = _spec(checkpoint_every=500, checkpoint_path=str(tmp_path / "x.ckpt"))
        data = json.loads(spec.to_json())
        assert data["checkpoint_every"] == 500
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.checkpoint_every == 500
        assert restored.checkpoint_path == spec.checkpoint_path

    def test_execute_honours_knobs(self, tmp_path):
        path = str(tmp_path / "spec.ckpt")
        spec = _spec(checkpoint_every=150, checkpoint_path=path)
        clean = _spec().execute()
        record = spec.execute()
        assert os.path.exists(path)
        # Checkpointing must not change the simulated execution (timings
        # and the knob-bearing spec differ; the run-derived stats do not).
        assert record.classification == clean.classification
        assert record.forks == clean.forks
        assert record.blocks == clean.blocks

    def test_execute_rejects_non_positive_cadence(self):
        with pytest.raises(ValueError, match="positive"):
            _spec(checkpoint_every=0).execute()


class TestRunSpecWithCheckpoints:
    def test_clean_run_writes_and_matches(self, tmp_path):
        path = str(tmp_path / "cell.ckpt")
        spec = _spec()
        clean = spec.execute()
        result, resumed = run_spec_with_checkpoints(spec, every=150, path=path)
        assert resumed is None
        assert result.stable_dict() == clean.stable_dict()
        assert os.path.exists(path)

    def test_resume_continues_and_matches(self, tmp_path):
        path = str(tmp_path / "cell.ckpt")
        spec = _spec()
        clean = spec.execute()
        run_spec_with_checkpoints(spec, every=150, path=path)
        result, resumed = run_spec_with_checkpoints(
            spec, every=150, path=path, resume_from=path
        )
        assert resumed is not None and resumed > 0
        assert result.stable_dict() == clean.stable_dict()

    def test_missing_resume_file_degrades_to_clean_run(self, tmp_path):
        path = str(tmp_path / "cell.ckpt")
        spec = _spec()
        result, resumed = run_spec_with_checkpoints(
            spec, every=150, path=path, resume_from=str(tmp_path / "nope.ckpt")
        )
        assert resumed is None
        assert result.stable_dict() == spec.execute().stable_dict()

    def test_corrupt_resume_file_warns_and_reruns(self, tmp_path):
        path = str(tmp_path / "cell.ckpt")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        spec = _spec()
        with pytest.warns(RuntimeWarning, match="re-running"):
            result, resumed = run_spec_with_checkpoints(
                spec, every=150, path=path, resume_from=str(bad)
            )
        assert resumed is None
        assert result.stable_dict() == spec.execute().stable_dict()


class TestPoolCheckpointRetries:
    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            PoolExecutor(checkpoint_every=0, checkpoint_dir=str(tmp_path))
        with pytest.raises(ValueError, match="checkpoint_dir"):
            PoolExecutor(checkpoint_every=100)

    def test_hang_kill_retry_resumes_from_checkpoint(self, tmp_path):
        """The tentpole end-to-end path: attempt 1 hangs after writing one
        checkpoint, the parent's timeout kills it, and the retry resumes
        from that snapshot — producing a result ``stable_dict()``-identical
        to a clean serial run, with ``resumed_from_event`` journaled."""
        spec = _spec(seed=5)
        clean = spec.execute()
        ckpt_dir = str(tmp_path / "ckpts")
        journal_path = tmp_path / "journal.jsonl"
        pool = PoolExecutor(jobs=1, checkpoint_every=100, checkpoint_dir=ckpt_dir)
        flaky = FlakyExecutor(pool, plan={0: {1: "hang"}})
        runner = SweepRunner(
            cache=ResultCache(tmp_path / "cache"),
            executor=flaky,
            retries=1,
            timeout=10.0,
            backoff=0.0,
            journal=journal_path,
        )
        results = runner.run([spec])
        assert results[0].stable_dict() == clean.stable_dict()
        entries = [json.loads(line) for line in journal_path.read_text().splitlines()]
        assert entries[-1]["status"] == "ok"
        assert entries[-1]["attempts"] == 2
        assert entries[-1]["resumed_from_event"] > 0
        assert entries[-1]["schema"] == "repro.sweep-journal/2"
        assert os.path.exists(checkpoint_path_for(ckpt_dir, spec_digest(spec)))

    def test_retry_resumes_on_a_replacement_worker_of_the_same_wave(
        self, tmp_path, worker_starts
    ):
        """Attempt 1 hangs after one checkpoint and its worker is killed;
        the attempt queued behind it runs on the replacement worker and
        picks the snapshot up (it is looked for at dispatch, not before)."""
        import multiprocessing

        spec = _spec(seed=5)
        pool = PoolExecutor(jobs=1, checkpoint_every=100, checkpoint_dir=str(tmp_path))
        hung = CellTask.for_spec(0, spec)
        hung.inject = "hang"
        retry = CellTask.for_spec(0, spec, attempt=2)
        first, second = pool.iter_batch([hung, retry], timeout=1.0)
        assert (first.status, second.status) == ("timeout", "ok")
        assert second.resumed_from_event > 0
        assert second.result.stable_dict() == spec.execute().stable_dict()
        assert len(worker_starts) == 2
        assert multiprocessing.active_children() == []

    def test_clean_pool_run_records_no_resume(self, tmp_path):
        spec = _spec(seed=6)
        journal_path = tmp_path / "journal.jsonl"
        pool = PoolExecutor(
            jobs=1, checkpoint_every=100, checkpoint_dir=str(tmp_path / "ckpts")
        )
        runner = SweepRunner(
            cache=ResultCache(tmp_path / "cache"),
            executor=pool,
            journal=journal_path,
        )
        results = runner.run([spec])
        assert results[0].stable_dict() == spec.execute().stable_dict()
        (entry,) = [json.loads(line) for line in journal_path.read_text().splitlines()]
        assert entry["status"] == "ok"
        assert "resumed_from_event" not in entry

    def test_checkpoint_payload_is_loadable_live_run(self, tmp_path):
        spec = _spec(seed=7)
        path = str(tmp_path / "cell.ckpt")
        run_spec_with_checkpoints(spec, every=150, path=path)
        snapshot = load_checkpoint(path)
        live = pickle.loads(snapshot.payload)
        assert live.phase in ("main", "drain", "reads", "done")


class TestCellWorkerCheckpointArgs:
    def test_resume_only_offered_after_first_attempt(self, tmp_path):
        pool = PoolExecutor(
            jobs=1, checkpoint_every=100, checkpoint_dir=str(tmp_path)
        )
        spec = _spec()
        first = CellTask.for_spec(0, spec)
        every, path, resume = pool._checkpoint_args(first)
        assert every == 100 and resume is None
        # Write something at the per-cell path, then a retry attempt sees it.
        with open(path, "wb") as handle:
            handle.write(b"placeholder")
        retry = CellTask.for_spec(0, spec, attempt=2)
        _, _, resume = pool._checkpoint_args(retry)
        assert resume == path
