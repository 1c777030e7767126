"""The behaviour lock: what the simulator produces, pinned by digest.

``tests/behaviour.lock`` holds the sha256 of ``RunResult.stable_json()``
for a small canonical set of cells, and of the stdout of two CLI
commands:

* every Table 1 system at its ``table1_spec`` preset;
* one client-population cell;
* one cell per registered fault kind;
* one cell finished from a mid-run checkpoint (through the on-disk
  bytes);
* the bitcoin Table 1 cell and the churn cell with ``monitor=True``
  (the payload's ``consistency`` summary);
* ``repro table1`` and ``repro classify bitcoin --fork-prone``.

It also holds :data:`repro.MODEL_VERSION`.  A refactor that moves any
history, verdict or payload fails :func:`test_behaviour_lock`.  A
deliberate behaviour change bumps the version and rewrites the lock in
the same commit::

    PYTHONPATH=src python tests/test_behaviour_lock.py

which refuses to rewrite moved digests under the locked version, and a
bumped version with every digest unchanged: the version keys results, so
it moves only with one.  A behaviour change that no cell here can see
adds a cell that shows it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

import pytest

import repro
from repro import cli
from repro.engine import (
    ChannelSpec,
    ExperimentSpec,
    FaultSpec,
    SimulationCheckpoint,
    WorkloadSpec,
    resume_spec_from_checkpoint,
    table1_spec,
)
from repro.network.faults import FAULTS
from repro.protocols.classification import TABLE1_SYSTEMS

LOCK_PATH = Path(__file__).with_name("behaviour.lock")

#: One small bitcoin cell per fault kind: 5 replicas, fork-prone channel.
_FAULT_BASE = ExperimentSpec(
    protocol="bitcoin",
    replicas=5,
    duration=80.0,
    seed=3,
    channel=ChannelSpec(kind="synchronous", params={"delta": 3.0, "min_delay": 0.5}),
    params={"token_rate": 0.4},
)

_FAULT_PARAMS = {
    "crash": {"at": {"p1": 30.0}},
    "silent": {"members": ["p2"]},
    "churn": {"leave": {"p1": 10.0}, "join": {"p1": 40.0}},
    "partition": {"groups": [["p0", "p1"], ["p2", "p3", "p4"]], "at": 10.0, "heal_at": 50.0},
    "eclipse": {"victim": "p1", "at": 10.0, "until": 40.0},
}

_POPULATION = ExperimentSpec(
    protocol="bitcoin",
    replicas=4,
    duration=50.0,
    seed=1,
    workload=WorkloadSpec(clients=200, client_rate=0.5),
    params={"token_rate": 0.4},
)


def _fault_cell(kind: str) -> ExperimentSpec:
    return _FAULT_BASE.with_updates(
        fault=FaultSpec(kind=kind, params=_FAULT_PARAMS[kind]), label=f"fault:{kind}"
    )


def _resumed(spec: ExperimentSpec) -> str:
    """The spec finished from its first checkpoint, read back from bytes."""
    snapshots = []
    spec.execute(
        checkpoint_every=150,
        checkpoint_sink=lambda live: snapshots.append(
            SimulationCheckpoint.capture(live).to_bytes()
        ),
    )
    snapshot = SimulationCheckpoint.from_bytes(snapshots[0])
    return resume_spec_from_checkpoint(spec, snapshot).stable_json()


def _stdout(*argv: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli.main(list(argv))
    return buffer.getvalue()


def _locked_texts() -> Iterator[Tuple[str, str]]:
    """(lock entry name, the text whose digest it pins)."""
    for name in TABLE1_SYSTEMS:
        yield f"table1:{name}", table1_spec(name).execute().stable_json()
    yield "population", _POPULATION.execute().stable_json()
    for kind in FAULTS.names():
        yield f"fault:{kind}", _fault_cell(kind).execute().stable_json()
    yield "checkpoint-resumed", _resumed(_FAULT_BASE)
    yield "monitor:table1:bitcoin", (
        table1_spec("bitcoin").with_updates(monitor=True).execute().stable_json()
    )
    yield "monitor:fault:churn", (
        _fault_cell("churn").with_updates(monitor=True).execute().stable_json()
    )
    yield "stdout:table1", _stdout("table1")
    yield "stdout:classify-bitcoin-fork-prone", _stdout("classify", "bitcoin", "--fork-prone")


def compute_lock() -> Dict[str, Any]:
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in _locked_texts()}
    return {"digests": digests, "model_version": repro.MODEL_VERSION}


def rewrite_lock() -> None:
    """Write the lock afresh, unless digests moved under the locked version
    or the version moved with no digest."""
    fresh = compute_lock()
    locked = json.loads(LOCK_PATH.read_text())
    moved = locked["digests"] != fresh["digests"]
    bumped = locked["model_version"] != fresh["model_version"]
    if moved and not bumped:
        raise SystemExit("behaviour changed: bump repro.MODEL_VERSION")
    if bumped and not moved:
        raise SystemExit(
            "repro.MODEL_VERSION bumped but no digest moved: "
            "add a lock cell that shows the change, or keep the version"
        )
    LOCK_PATH.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(f"wrote {LOCK_PATH}")


def test_behaviour_lock():
    locked = json.loads(LOCK_PATH.read_text())
    assert compute_lock() == locked


def test_moved_digests_are_rewritten_only_with_a_version_bump(tmp_path, monkeypatch):
    lock = tmp_path / "behaviour.lock"
    locked = {"digests": {"cell": "0" * 64}, "model_version": repro.MODEL_VERSION}
    lock.write_text(json.dumps(locked))
    monkeypatch.setattr(f"{__name__}.LOCK_PATH", lock)
    monkeypatch.setattr(f"{__name__}._locked_texts", lambda: iter([("cell", "moved")]))
    with pytest.raises(SystemExit, match="behaviour changed: bump repro.MODEL_VERSION"):
        rewrite_lock()
    assert json.loads(lock.read_text()) == locked
    monkeypatch.setattr(repro, "MODEL_VERSION", repro.MODEL_VERSION + 1)
    rewrite_lock()
    assert json.loads(lock.read_text()) == compute_lock()


def test_a_bump_with_no_moved_digest_is_refused(tmp_path, monkeypatch):
    lock = tmp_path / "behaviour.lock"
    digest = hashlib.sha256(b"same").hexdigest()
    locked = {"digests": {"cell": digest}, "model_version": repro.MODEL_VERSION}
    lock.write_text(json.dumps(locked))
    monkeypatch.setattr(f"{__name__}.LOCK_PATH", lock)
    monkeypatch.setattr(f"{__name__}._locked_texts", lambda: iter([("cell", "same")]))
    rewrite_lock()  # neither moved: the lock is written as it was
    assert json.loads(lock.read_text()) == locked
    monkeypatch.setattr(repro, "MODEL_VERSION", repro.MODEL_VERSION + 1)
    with pytest.raises(SystemExit, match="bumped but no digest moved"):
        rewrite_lock()
    assert json.loads(lock.read_text()) == locked


if __name__ == "__main__":
    rewrite_lock()
