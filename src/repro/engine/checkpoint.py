"""Deterministic checkpoint/restore for long simulation runs.

A :class:`SimulationCheckpoint` snapshots a staged
:class:`~repro.protocols.base.LiveRun` — pending events from both event
cores (heap entries verbatim; array-core staged tuples, bucket blocks,
the lanes of column events with what their sinks have not pulled yet,
and the overflow heap), every rng bit-generator
state, :class:`~repro.network.simulator.Network` membership/caches/
counters, per-process protocol state (block tree, mempool, LRC relay
state), fault-model schedules and the recorder tail — into a versioned
payload.  Restoring rebuilds a live run whose continued history is
byte-identical to the uninterrupted run (the equivalence oracle in
``tests/network/test_checkpoint_equivalence.py`` pins this across both
cores, every channel model, several topologies and every registered
fault kind).

On-disk format (``repro.checkpoint/1``)::

    {"schema": "repro.checkpoint/1", "layout": ..., "clock": ...,
     "event_count": ..., "phase": ..., "pickle_bytes": N, "sha256": "...",
     "spec": {...}?}\\n
    <N bytes of pickle protocol-highest payload>

The single JSON header line makes torn files detectable without
unpickling: a snapshot whose byte length or digest disagrees with its
header is rejected and the previous snapshot (``*.prev.ckpt``) is used
instead.  It also carries the :func:`layout_fingerprint` of the code that
wrote it, and a snapshot of any other code, or with none, is refused
before its payload is read: that is the one compatibility rule, so no
class keeps a reader for an older pickled format.

:class:`CheckpointWriter` writes crash-safely — tmp file + ``fsync`` +
atomic rename, rotating the prior snapshot first — so a kill at any
instant leaves at least one loadable checkpoint behind.

The cadence and the sink reach the run as the two keywords
:func:`~repro.protocols.base.run_protocol` has for them
(``checkpoint_every`` / ``checkpoint_sink``), passed explicitly by
``ExperimentSpec.execute``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, TYPE_CHECKING, Tuple

import repro

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.result import RunResult
    from repro.engine.spec import ExperimentSpec
    from repro.protocols.base import LiveRun

__all__ = [
    "CHECKPOINT_SCHEMA",
    "DEFAULT_CHECKPOINT_DIR",
    "CheckpointCorruptionError",
    "SimulationCheckpoint",
    "CheckpointWriter",
    "checkpoint_path_for",
    "layout_fingerprint",
    "load_checkpoint",
    "run_spec_with_checkpoints",
    "resume_spec_from_checkpoint",
]

CHECKPOINT_SCHEMA = "repro.checkpoint/1"

#: Where the CLI drops checkpoint files unless ``--checkpoint-dir`` says
#: otherwise (a sibling of the result cache's ``.repro-cache``).
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"


class CheckpointCorruptionError(RuntimeError):
    """A checkpoint file is torn or otherwise fails integrity checks."""


@functools.lru_cache(maxsize=None)
def layout_fingerprint() -> str:
    """sha256 over every ``*.py`` of the imported ``repro`` package, path and
    bytes in sorted order; taken on the first checkpoint written or read."""
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for name in sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py")):
        data = (root / name).read_bytes()
        digest.update(f"{name}\n{len(data)}\n".encode() + data)
    return digest.hexdigest()


@dataclass
class SimulationCheckpoint:
    """One versioned snapshot of a running simulation.

    ``payload`` is the pickled :class:`~repro.protocols.base.LiveRun`;
    the remaining fields are the header metadata that travels with it.
    """

    payload: bytes
    clock: float
    event_count: int
    phase: str
    spec: Optional[Dict[str, Any]] = None

    @classmethod
    def capture(
        cls, live: "LiveRun", spec: Optional[Dict[str, Any]] = None
    ) -> "SimulationCheckpoint":
        """Snapshot a staged run (the run itself is not perturbed)."""
        payload = pickle.dumps(live, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(
            payload=payload,
            clock=live.simulator.now,
            event_count=live.event_count,
            phase=live.phase,
            spec=spec,
        )

    def header(self) -> Dict[str, Any]:
        head: Dict[str, Any] = {
            "schema": CHECKPOINT_SCHEMA,
            "layout": layout_fingerprint(),
            "clock": self.clock,
            "event_count": self.event_count,
            "phase": self.phase,
            "pickle_bytes": len(self.payload),
            "sha256": hashlib.sha256(self.payload).hexdigest(),
        }
        if self.spec is not None:
            head["spec"] = self.spec
        return head

    def to_bytes(self) -> bytes:
        return json.dumps(self.header(), sort_keys=True).encode("utf-8") + b"\n" + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "SimulationCheckpoint":
        """Parse and integrity-check a serialized checkpoint.

        Raises :class:`CheckpointCorruptionError` for torn or tampered
        files: missing header newline, undecodable header, truncated or
        over-long payload, or digest mismatch — and for one written by other
        code (another layout fingerprint, or none), which must be re-run.
        """
        newline = data.find(b"\n")
        if newline < 0:
            raise CheckpointCorruptionError("checkpoint has no header line")
        try:
            head = json.loads(data[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CheckpointCorruptionError(
                f"unreadable checkpoint header: {error}"
            ) from error
        if head.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointCorruptionError(
                f"unsupported checkpoint schema {head.get('schema')!r}"
            )
        if head.get("layout") != layout_fingerprint():
            raise CheckpointCorruptionError(
                f"checkpoint was written by code of layout {head.get('layout')}, "
                f"this is layout {layout_fingerprint()}; it cannot be resumed — "
                "re-run the spec from the start"
            )
        payload = data[newline + 1 :]
        expected = head.get("pickle_bytes")
        if len(payload) != expected:
            raise CheckpointCorruptionError(
                f"torn checkpoint: {len(payload)} payload bytes, header "
                f"promised {expected}"
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != head.get("sha256"):
            raise CheckpointCorruptionError("checkpoint payload digest mismatch")
        return cls(
            payload=payload,
            clock=head.get("clock", 0.0),
            event_count=head.get("event_count", 0),
            phase=head.get("phase", "main"),
            spec=head.get("spec"),
        )

    def restore(self) -> "LiveRun":
        """Rebuild the live run this snapshot captured."""
        return pickle.loads(self.payload)


def _previous_path(path: str) -> str:
    """``foo.ckpt`` → ``foo.prev.ckpt`` (else just append ``.prev``)."""
    if path.endswith(".ckpt"):
        return path[: -len(".ckpt")] + ".prev.ckpt"
    return path + ".prev"


class CheckpointWriter:
    """Crash-safe checkpoint sink: tmp file + fsync + atomic rename.

    Each :meth:`write` rotates the existing snapshot to the ``.prev``
    path before renaming the new one into place, so a crash mid-write
    (or a torn tail from a hard kill) always leaves a loadable snapshot
    behind — :func:`load_checkpoint` falls back to ``.prev`` whenever
    the primary fails integrity checks.

    ``min_write_interval`` amortizes durability on long runs: the event
    cadence (``checkpoint_every``) fixes *where* snapshots may be taken
    (deterministic event-count boundaries — any of them restores
    bit-identically), while the interval bounds *how often* one is
    actually persisted.  The vectorized cores process events far faster
    than any durable write completes, so persisting every boundary would
    dominate the run; at the default ``0.0`` every boundary persists
    (small runs, tests, the CLI), and long soaks pass an interval so the
    steady-state cost is one write per interval regardless of event
    rate.  A throttled writer also waits one full interval before its
    first durable write — early boundaries carry nearly the whole
    pending workload (the most expensive possible snapshot) while
    protecting almost no completed work, so persisting them would charge
    peak cost for minimal benefit.  Skipped boundaries are counted in
    :attr:`skipped`.

    Instances are callable so they plug directly into
    ``run_protocol(checkpoint_sink=...)``.
    """

    def __init__(
        self,
        path: str,
        spec: Optional[Dict[str, Any]] = None,
        min_write_interval: float = 0.0,
    ) -> None:
        if min_write_interval < 0:
            raise ValueError("min_write_interval must be non-negative")
        self.path = path
        self.spec = spec
        self.min_write_interval = min_write_interval
        self.writes = 0
        self.skipped = 0
        #: Cumulative wall-clock seconds spent inside :meth:`write` —
        #: the exact cost checkpointing added to the enclosing run.
        self.write_seconds = 0.0
        self.last_event_count: Optional[int] = None
        # With a throttle, start the clock now so the first durable
        # write lands after one full interval; without one, the first
        # boundary persists immediately.
        self._last_write_monotonic: Optional[float] = (
            time.monotonic() if min_write_interval > 0 else None
        )

    def write(self, live: "LiveRun") -> Optional[SimulationCheckpoint]:
        """Persist a snapshot of ``live`` (or skip it, when throttled)."""
        now = time.monotonic()
        if (
            self._last_write_monotonic is not None
            and now - self._last_write_monotonic < self.min_write_interval
        ):
            self.skipped += 1
            self.write_seconds += time.monotonic() - now
            return None
        snapshot = SimulationCheckpoint.capture(live, spec=self.spec)
        head = json.dumps(snapshot.header(), sort_keys=True).encode("utf-8")
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        tmp_path = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp_path, "wb") as handle:
            # Header and payload are written separately: concatenating
            # them first would copy the multi-megabyte payload once more.
            handle.write(head)
            handle.write(b"\n")
            handle.write(snapshot.payload)
            handle.flush()
            os.fsync(handle.fileno())
        if os.path.exists(self.path):
            os.replace(self.path, _previous_path(self.path))
        os.replace(tmp_path, self.path)
        self.writes += 1
        self.last_event_count = snapshot.event_count
        self._last_write_monotonic = time.monotonic()
        self.write_seconds += self._last_write_monotonic - now
        return snapshot

    def __call__(self, live: "LiveRun") -> None:
        self.write(live)


def checkpoint_path_for(directory: str, digest: str) -> str:
    """The per-cell checkpoint path used by the pool executor."""
    return os.path.join(directory, f"{digest}.ckpt")


def load_checkpoint(path: str) -> SimulationCheckpoint:
    """Load a checkpoint, falling back to the previous snapshot.

    A torn or corrupt primary file triggers a :class:`RuntimeWarning`
    and the rotated ``.prev`` snapshot is used instead; only when both
    are unusable does the corruption error propagate.
    """
    primary_error: Optional[Exception] = None
    try:
        with open(path, "rb") as handle:
            return SimulationCheckpoint.from_bytes(handle.read())
    except FileNotFoundError as error:
        primary_error = error
    except CheckpointCorruptionError as error:
        primary_error = error
        warnings.warn(
            f"checkpoint {path} failed integrity checks ({error}); "
            "falling back to previous snapshot",
            RuntimeWarning,
            stacklevel=2,
        )
    prev = _previous_path(path)
    try:
        with open(prev, "rb") as handle:
            return SimulationCheckpoint.from_bytes(handle.read())
    except FileNotFoundError:
        raise primary_error
    except CheckpointCorruptionError as error:
        raise CheckpointCorruptionError(
            f"both {path} ({primary_error}) and {prev} ({error}) are unusable"
        ) from error


# -- spec-level driving --------------------------------------------------------


def resume_spec_from_checkpoint(
    spec: "ExperimentSpec",
    checkpoint: SimulationCheckpoint,
    *,
    every: Optional[int] = None,
    writer: Optional[CheckpointWriter] = None,
) -> "RunResult":
    """Finish a restored run and analyse it exactly as a clean run.

    The continued run keeps checkpointing through ``writer`` when one is
    given.  ``run_seconds`` only covers the continued portion (timings
    are excluded from ``stable_dict()`` identity, so resumed results
    compare equal to clean ones).
    """
    from repro.engine.registry import get_protocol
    from repro.engine.result import analyse_run

    entry = get_protocol(spec.protocol)
    live = checkpoint.restore()
    started = time.perf_counter()
    run = live.finish(checkpoint_every=every, checkpoint_sink=writer)
    run_seconds = time.perf_counter() - started
    return analyse_run(spec, entry, run, run_seconds)


def run_spec_with_checkpoints(
    spec: "ExperimentSpec",
    *,
    every: int,
    path: str,
    resume_from: Optional[str] = None,
) -> Tuple["RunResult", Optional[int]]:
    """Execute a spec with periodic checkpoints; optionally resume first.

    Returns ``(result, resumed_from_event)`` where the second element is
    the event count of the snapshot the run continued from (``None``
    when the run started clean — including when ``resume_from`` named a
    missing file, which degrades to a clean run with a warning).
    """
    writer = CheckpointWriter(path, spec=json.loads(spec.to_json()))
    if resume_from is not None:
        try:
            snapshot = load_checkpoint(resume_from)
        except FileNotFoundError:
            snapshot = None
        except CheckpointCorruptionError as error:
            warnings.warn(
                f"cannot resume from {resume_from} ({error}); re-running "
                "from the start",
                RuntimeWarning,
                stacklevel=2,
            )
            snapshot = None
        if snapshot is not None:
            result = resume_spec_from_checkpoint(
                spec, snapshot, every=every, writer=writer
            )
            return result, snapshot.event_count
    return spec.execute(checkpoint_every=every, checkpoint_sink=writer), None
