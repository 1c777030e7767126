"""The behaviour lock: what the simulator produces, pinned by digest.

``tests/behaviour.lock`` holds the sha256 of ``RunResult.stable_json()``
for a small canonical set of cells, and of the stdout of two CLI
commands:

* every Table 1 system at its ``table1_spec`` preset;
* one client-population cell;
* one cell per registered fault kind;
* one cell finished from a mid-run checkpoint (through the on-disk
  bytes);
* ``repro table1`` and ``repro classify bitcoin --fork-prone``.

A refactor that moves any history, verdict or payload fails
:func:`test_behaviour_lock`.  A deliberate behaviour change rewrites the
lock in the same commit::

    PYTHONPATH=src python tests/test_behaviour_lock.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

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
from repro.network.faults import available_faults
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
    for kind in available_faults():
        spec = _FAULT_BASE.with_updates(
            fault=FaultSpec(kind=kind, params=_FAULT_PARAMS[kind]), label=f"fault:{kind}"
        )
        yield f"fault:{kind}", spec.execute().stable_json()
    yield "checkpoint-resumed", _resumed(_FAULT_BASE)
    yield "stdout:table1", _stdout("table1")
    yield "stdout:classify-bitcoin-fork-prone", _stdout("classify", "bitcoin", "--fork-prone")


def compute_lock() -> Dict[str, Dict[str, str]]:
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in _locked_texts()}
    return {"digests": digests}


def test_behaviour_lock():
    locked = json.loads(LOCK_PATH.read_text())
    assert compute_lock() == locked


if __name__ == "__main__":
    LOCK_PATH.write_text(json.dumps(compute_lock(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {LOCK_PATH}")
