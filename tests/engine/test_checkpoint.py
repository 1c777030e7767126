"""Tests for :mod:`repro.engine.checkpoint`.

The byte-identity of restored *histories* is pinned by the equivalence
oracle in ``tests/network/test_checkpoint_equivalence.py``; this module
covers the artifact layer around it — the versioned on-disk format and
its torn-file detection, the crash-safe writer and its previous-snapshot
fallback, the refusal of snapshots written by other code, spec-digest
stability, spec-level execution, and the pool executor's checkpoint-aware
retries.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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
    resume_spec_from_checkpoint,
    run_spec_with_checkpoints,
    spec_digest,
)
from repro.engine.checkpoint import layout_fingerprint
from repro.engine.executors import _attempt_in_worker
from repro.engine.result import RunResult
from tests.test_behaviour_lock import _FAULT_PARAMS, _fault_cell


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


@pytest.mark.usefixtures("event_core")
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


    def test_a_restored_run_hands_out_the_same_indexed_history(self):
        """The history of a run resumed mid-way selects what an
        uninterrupted run's does."""
        spec = _spec(
            channel=ChannelSpec(kind="synchronous", params={"delta": 3.0, "min_delay": 0.5}),
            params={"token_rate": 0.4},
        )
        clean = spec.execute().run.history
        snapshot = SimulationCheckpoint.from_bytes(_one_snapshot(spec).to_bytes())
        resumed = resume_spec_from_checkpoint(spec, snapshot).run.history
        assert clean.read_responses() and clean.append_invocations()
        assert resumed.events == clean.events
        for selector in ("read_responses", "append_invocations"):
            assert getattr(resumed, selector)() == getattr(clean, selector)()
        assert (
            resumed.without_failed_appends().events == clean.without_failed_appends().events
        )

    def test_monitored_run_restores_inside_the_main_phase(self):
        """A monitored run resumed from a main-phase snapshot checks the
        same raw history, so it carries the clean run's verdicts."""
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
        assert resumed.consistency["events"] == len(resumed.run.history)


@pytest.mark.usefixtures("event_core")
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
        data = Path(path).read_bytes()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.warns(RuntimeWarning, match="falling back"):
            snapshot = load_checkpoint(path)
        assert snapshot.payload == good_prev.payload

    def test_missing_both_files_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))


def _write_cell_checkpoint(path: str, spec: ExperimentSpec) -> None:
    """A spec-carrying ``.ckpt`` as the CLI and the pool write it."""
    writer = CheckpointWriter(path, spec=json.loads(spec.to_json()))
    spec.execute(checkpoint_every=150, checkpoint_sink=writer)
    os.unlink(str(path).replace(".ckpt", ".prev.ckpt"))


#: The refused checkpoints :func:`_stale` makes: one whose header carries
#: another code's layout fingerprint, and one that carries none (a header
#: with ``model_version`` in its place, as checkpoints were written before).
_STALE = ["other-layout", "no-layout"]


def _stale(path: str, written: str) -> str:
    """Make the checkpoint at ``path`` one this code must refuse; returns
    the refusal's message."""
    data = Path(path).read_bytes()
    newline = data.index(b"\n")
    head = json.loads(data[:newline])
    if written == "other-layout":
        head["layout"] = "0" * 64
    else:
        del head["layout"]
        head["model_version"] = repro.MODEL_VERSION
    Path(path).write_bytes(json.dumps(head, sort_keys=True).encode() + data[newline:])
    return (
        f"checkpoint was written by code of layout {head.get('layout')}, "
        f"this is layout {layout_fingerprint()}; "
        "it cannot be resumed — re-run the spec from the start"
    )


def _append_comment_byte(root: Path, name: str = "core/block.py") -> None:
    with open(root / name, "ab") as handle:
        handle.write(b"#")


def _move_a_byte_across_modules(root: Path) -> None:
    """Shift the last byte of one module to the front of the next in
    sorted order: the concatenated bytes are unchanged."""
    first, second = sorted(root.rglob("*.py"))[:2]
    head, tail = first.read_bytes(), second.read_bytes()
    first.write_bytes(head[:-1])
    second.write_bytes(head[-1:] + tail)


#: Edits to a copy of the package that must move its fingerprint.
_MOVING_EDITS = {
    "comment-byte": _append_comment_byte,
    "comment-byte-in-package-init": lambda root: _append_comment_byte(root, "__init__.py"),
    "empty-new-module": lambda root: (root / "core" / "extra.py").write_bytes(b""),
    "removed-module": lambda root: (root / "core" / "block.py").unlink(),
    "renamed-module": lambda root: (root / "core" / "block.py").rename(
        root / "core" / "blocks.py"
    ),
    "byte-moved-across-modules": _move_a_byte_across_modules,
}

#: Edits beside the package's modules that must leave its fingerprint.
_STILL_EDITS = {
    "data-file": lambda root: (root / "core" / "notes.txt").write_text("notes\n"),
    "bytecode": lambda root: (
        (root / "core" / "__pycache__").mkdir(),
        (root / "core" / "__pycache__" / "block.cpython-311.pyc").write_bytes(b"\0" * 16),
    ),
    "touched-mtime": lambda root: os.utime(root / "core" / "block.py", (0, 0)),
}


@pytest.fixture
def package_copy(tmp_path, monkeypatch) -> Path:
    """A copy of the ``repro`` package that the fingerprint is taken over
    (through ``layout_fingerprint.__wrapped__``, past the process cache)."""
    copy = tmp_path / "repro"
    shutil.copytree(
        Path(repro.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))
    assert layout_fingerprint.__wrapped__() == layout_fingerprint()
    return copy


class TestLayoutFingerprint:
    """A checkpoint is keyed to the code that wrote it, not to a number."""

    @pytest.mark.usefixtures("event_core")
    def test_header_carries_the_fingerprint_and_no_model_version(self):
        snapshot = _one_snapshot(_spec())
        head = json.loads(snapshot.to_bytes().split(b"\n", 1)[0])
        assert head["layout"] == layout_fingerprint()
        assert len(head["layout"]) == 64 and "model_version" not in head

    @pytest.mark.parametrize("edit", sorted(_MOVING_EDITS))
    def test_a_change_to_the_modules_moves_it(self, package_copy, edit):
        _MOVING_EDITS[edit](package_copy)
        assert layout_fingerprint.__wrapped__() != layout_fingerprint()

    @pytest.mark.parametrize("edit", sorted(_STILL_EDITS))
    def test_a_change_beside_the_modules_leaves_it(self, package_copy, edit):
        _STILL_EDITS[edit](package_copy)
        assert layout_fingerprint.__wrapped__() == layout_fingerprint()

    def test_a_process_keeps_the_fingerprint_it_took(self, package_copy):
        """Modules already imported do not change when their files do, so
        a run reads back its own checkpoints after its tree is edited."""
        try:
            layout_fingerprint.cache_clear()
            taken = layout_fingerprint()
            _MOVING_EDITS["comment-byte"](package_copy)
            assert layout_fingerprint() == taken != layout_fingerprint.__wrapped__()
        finally:
            layout_fingerprint.cache_clear()  # the next caller takes the real tree's

    def test_pool_workers_stamp_the_fingerprint_the_sweep_took(self, package_copy, tmp_path):
        """A pool with checkpoints takes the fingerprint before it forks, so
        a worker started after the tree was edited, which still holds the
        old code, stamps its checkpoint with the old code's fingerprint."""
        spec = _spec(seed=5)
        try:
            layout_fingerprint.cache_clear()
            taken = layout_fingerprint.__wrapped__()
            pool = PoolExecutor(jobs=1, checkpoint_every=100, checkpoint_dir=str(tmp_path))
            _MOVING_EDITS["comment-byte"](package_copy)
            (outcome,) = pool.iter_batch([CellTask.for_spec(0, spec)])
            assert outcome.status == "ok"
            path = checkpoint_path_for(str(tmp_path), spec_digest(spec))
            head = json.loads(Path(path).read_bytes().split(b"\n", 1)[0])
            assert head["layout"] == taken != layout_fingerprint.__wrapped__()
        finally:
            layout_fingerprint.cache_clear()

    def test_importing_the_package_does_not_take_it(self):
        code = (
            "import repro, repro.cli, repro.engine.checkpoint as checkpoint; "
            "print(checkpoint.layout_fingerprint.cache_info().currsize)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout == "0\n"


@pytest.mark.usefixtures("event_core")
class TestStaleCheckpoints:
    """A checkpoint of other code, or of none, is never read."""

    @pytest.mark.parametrize("written", _STALE)
    def test_load_checkpoint_refuses_it(self, tmp_path, written):
        path = str(tmp_path / "cell.ckpt")
        _write_cell_checkpoint(path, _spec())
        refusal = _stale(path, written)
        with pytest.warns(RuntimeWarning, match="failed integrity checks"):
            with pytest.raises(CheckpointCorruptionError) as excinfo:
                load_checkpoint(path)
        assert str(excinfo.value) == refusal

    @pytest.mark.parametrize("written", _STALE)
    def test_run_spec_with_checkpoints_warns_and_reruns(self, tmp_path, written):
        path = str(tmp_path / "cell.ckpt")
        spec = _spec()
        _write_cell_checkpoint(path, spec)
        refusal = _stale(path, written)
        with pytest.warns(RuntimeWarning) as caught:
            result, resumed = run_spec_with_checkpoints(
                spec, every=150, path=str(tmp_path / "next.ckpt"), resume_from=path
            )
        assert f"({refusal}); re-running from the start" in str(caught[-1].message)
        assert resumed is None
        assert result.stable_dict() == spec.execute().stable_dict()

    @pytest.mark.parametrize("written", _STALE)
    def test_a_pool_cell_warns_and_reruns(self, tmp_path, written):
        """A stale ``.ckpt`` at the path a pool cell retries from degrades
        to a clean run of the cell."""
        spec = _spec()
        path = checkpoint_path_for(str(tmp_path), spec_digest(spec))
        _write_cell_checkpoint(path, spec)
        refusal = _stale(path, written)
        with pytest.warns(RuntimeWarning) as caught:
            status, payload, resumed = _attempt_in_worker(
                None, spec.to_json(), None, 150, path, path
            )
        assert f"({refusal}); re-running from the start" in str(caught[-1].message)
        assert (status, resumed) == ("ok", None)
        result = RunResult.from_dict(json.loads(payload))
        assert result.stable_dict() == spec.execute().stable_dict()

    @pytest.mark.parametrize("written", _STALE)
    def test_resume_run_is_one_error_line(self, tmp_path, written):
        from repro.cli import main

        path = str(tmp_path / "cell.ckpt")
        _write_cell_checkpoint(path, _spec())
        refusal = _stale(path, written)
        with pytest.warns(RuntimeWarning), pytest.raises(SystemExit) as excinfo:
            main(["resume-run", path])
        # SystemExit with a string: printed as one stderr line, exit status 1.
        assert excinfo.value.code == f"repro resume-run: error: {refusal}"


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

    @pytest.mark.usefixtures("event_core")
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


@pytest.mark.usefixtures("event_core")
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
        # The file fails its integrity checks, there is no previous snapshot
        # to fall back to, and the cell re-runs from the start.
        with pytest.warns(RuntimeWarning, match="re-running"), pytest.warns(
            RuntimeWarning, match="failed integrity checks .*; falling back to previous snapshot"
        ):
            result, resumed = run_spec_with_checkpoints(
                spec, every=150, path=path, resume_from=str(bad)
            )
        assert resumed is None
        assert result.stable_dict() == spec.execute().stable_dict()


@pytest.mark.usefixtures("event_core")
class TestCheckpointedFaultRuns:
    """A fault run checkpointed every 97 events, and one resumed from its
    middle snapshot, carry the plain run's payload, degradation included:
    the time column and the liveness log cross snapshot and restore."""

    @pytest.mark.parametrize("kind", sorted(_FAULT_PARAMS))
    def test_payload_equals_the_plain_runs(self, tmp_path, kind):
        spec = _fault_cell(kind)
        plain = spec.execute().stable_dict()
        path = str(tmp_path / "cell.ckpt")
        checkpointed = spec.with_updates(checkpoint_every=97, checkpoint_path=path).execute()
        snapshots = []
        spec.execute(
            checkpoint_every=97,
            checkpoint_sink=lambda live: snapshots.append(
                SimulationCheckpoint.capture(live).to_bytes()
            ),
        )
        middle = SimulationCheckpoint.from_bytes(snapshots[len(snapshots) // 2])
        resumed = resume_spec_from_checkpoint(spec, middle).stable_dict()
        checkpointed = checkpointed.stable_dict()
        for payload in (plain, checkpointed, resumed):
            del payload["spec"]
        assert plain["degradation"]["reads"] > 0
        assert checkpointed == plain
        assert resumed == plain


# Pool retries are about the workers, and one of them waits out a hang:
# pinned to the array core rather than run twice.
@pytest.mark.parametrize("event_core", ["array"], indirect=True)
@pytest.mark.usefixtures("event_core")
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
            timeout=2.0,
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
        assert live.phase in ("main", "drain")  # snapshots are taken while events drain


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
