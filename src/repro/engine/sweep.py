"""Parameter-grid expansion and process-parallel experiment fan-out.

``expand_grid`` turns one base :class:`ExperimentSpec` plus a mapping of
axes into the full Cartesian product of specs, in a deterministic order
(axes vary slowest-first in the order given, exactly like nested ``for``
loops).  Axis names address spec fields with dotted paths::

    seed, replicas, duration, oracle_k          — top-level fields
    channel.delta, channel.min_delay, ...       — channel constructor params
    channel.kind, channel.drop_probability      — channel spec fields
    topology (kind shorthand), topology.kind    — dissemination topology
    topology.fanout, topology.shards, ...       — topology constructor params
    fault (kind shorthand), fault.kind          — adversary / fault model
    fault.heal_at, fault.victim, fault.seed     — fault constructor params
    params.token_rate, params.selection, ...    — protocol-specific knobs
    workload.use_lrc, workload.read_interval    — workload fields
    workload.clients, workload.client_rate      — client population axis

:class:`SweepRunner` executes a list of specs through one of two
:class:`~repro.engine.executors.Executor` backends (``serial`` or
``pool``; see :mod:`repro.engine.executors`), wrapped in a resilience
loop: per-cell timeouts, retries with seeded exponential backoff, failed
cells degraded to structured :class:`~repro.engine.executors.CellFailure`
artifacts (bounded by ``max_failures``), and an append-only
:class:`SweepJournal` manifest enabling ``resume=True`` to skip completed
cells after a driver crash.  Every cell is an independent simulation
seeded entirely by its spec, so both backends produce identical per-cell
artifacts (only the wall-clock ``timings`` differ); results always come
back in spec order regardless of worker scheduling.

Because a cell's result depends on its spec alone, which cells a driver
invocation owns is a property of the grid, not of how it runs (Bobpp's
deterministic partition): ``SweepRunner(shard=(i, k))`` runs grid cells
``i, i+k, i+2k, ...``, so ``k`` invocations sharing one
:class:`~repro.engine.cache.ResultCache` cover the grid exactly once and
a final cached run merges it byte-identically with zero simulator events.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.errors import UnknownVocabularyError
from repro.engine.cache import ResultCache, spec_digest
from repro.engine.executors import (
    CellFailure,
    CellTask,
    Executor,
    PoolExecutor,
    SerialExecutor,
    SweepAbortedError,
    retry_delay,
)
from repro.engine.result import RunResult
from repro.engine.spec import (
    WORKLOAD_FIELDS,
    ChannelSpec,
    ExperimentSpec,
    FaultSpec,
    TopologySpec,
)

__all__ = [
    "expand_grid",
    "SweepRunner",
    "SweepJournal",
    "results_payload",
    "SWEEP_SCHEMA",
    "JOURNAL_SCHEMA",
]

#: Schema tag of the sweep payload.  ``/2`` added failure degradation:
#: ``cells`` may contain ``CellFailure`` artifacts (``"cell_failure":
#: true``) beside successful cells, plus top-level ``failures`` and
#: optional ``shard`` metadata.
SWEEP_SCHEMA = "repro.sweep/2"

#: Schema tag stamped on every journal line.  ``/2`` added the optional
#: ``resumed_from_event`` key on ``ok`` lines (the event count of the
#: checkpoint the successful attempt resumed from); ``/1`` lines carry
#: the same required keys and :meth:`SweepJournal.load` parses both.
JOURNAL_SCHEMA = "repro.sweep-journal/2"


#: The backend names ``SweepRunner(executor=...)`` accepts.
_BACKENDS = ("serial", "pool")


def _apply_override(data: Dict[str, Any], path: str, value: Any) -> None:
    """Set one dotted-path override on a spec's dict form."""
    parts = path.split(".")
    top = parts[0]
    if len(parts) == 1:
        if top == "topology":
            # Absent unless set (digest stability), so it cannot rely on
            # the key-exists check; a bare string value is a kind name.
            data["topology"] = TopologySpec.from_dict(value).to_dict()
            return
        if top == "fault":
            # The serialized fault is ``None`` unless set; a bare string
            # value is a kind name (``"partition"``), a dict the full spec.
            data["fault"] = FaultSpec.from_dict(value).to_dict()
            return
        if top not in data:
            raise KeyError(f"unknown spec field {path!r}")
        data[top] = value
        return
    if len(parts) != 2:
        raise KeyError(f"axis path {path!r} nests too deep")
    key = parts[1]
    if top == "channel":
        if data.get("channel") is None:
            data["channel"] = ChannelSpec().to_dict()
        if key in ("kind", "drop_probability", "seed"):
            data["channel"][key] = value
        else:
            data["channel"]["params"][key] = value
    elif top == "topology":
        if data.get("topology") is None:
            data["topology"] = TopologySpec().to_dict()
        if key in ("kind", "seed"):
            data["topology"][key] = value
        else:
            data["topology"]["params"][key] = value
    elif top == "params":
        data["params"][key] = value
    elif top == "workload":
        # Validate against the field names: the serialized workload omits
        # the population keys (clients, client_rate) when unset, so dict
        # membership would wrongly reject them as axes.
        if key not in WORKLOAD_FIELDS:
            raise KeyError(f"unknown workload field {key!r}")
        data["workload"][key] = value
    elif top == "fault":
        if data.get("fault") is None:
            raise KeyError("cannot set a fault axis on a spec without a fault")
        if key in ("kind", "seed"):
            data["fault"][key] = value
        else:
            # Everything else is a constructor parameter of the registered
            # fault model (``fault.heal_at``, ``fault.victim``, ...).
            data["fault"]["params"][key] = value
    else:
        raise KeyError(f"unknown axis root {top!r} in {path!r}")


def _cell_label(base: ExperimentSpec, assignment: Sequence[tuple]) -> str:
    parts = [base.label or base.protocol]
    parts.extend(f"{path}={value}" for path, value in assignment)
    return " ".join(str(p) for p in parts)


def expand_grid(
    base: ExperimentSpec,
    axes: Mapping[str, Sequence[Any]],
) -> List[ExperimentSpec]:
    """Cartesian product of ``axes`` over ``base``, in deterministic order."""
    if not axes:
        return [base]
    names = list(axes)
    specs: List[ExperimentSpec] = []
    for values in itertools.product(*(axes[name] for name in names)):
        assignment = list(zip(names, values))
        data = base.to_dict()
        for path, value in assignment:
            _apply_override(data, path, value)
        data["label"] = _cell_label(base, assignment)
        specs.append(ExperimentSpec.from_dict(data))
    return specs


class SweepJournal:
    """Append-only manifest of per-cell sweep progress.

    One JSON line per terminal cell event — digest, grid index, label,
    status (``ok`` / ``failed``), attempts used and (on failure) the
    structured error — appended, flushed and fsynced the moment the cell
    finishes, so a crash of the *driver* loses at most the line being
    written; :meth:`load` tolerates a torn tail line.  Within a wave the
    lines are in completion order, not grid order: :meth:`load` is keyed
    by digest and does not care.  ``SweepRunner(resume=True,
    journal=...)`` replays the journal to skip completed cells — serving
    successes from the result cache and reconstructing failures — and
    re-executes only unfinished ones.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Digest → most recent journal entry (corrupt lines skipped)."""
        entries: Dict[str, Dict[str, Any]] = {}
        if not self.path.exists():
            return entries
        for line in self.path.read_text().splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # a blank line, or a torn tail from a mid-write crash
            if isinstance(entry, dict) and entry.get("digest"):
                entries[entry["digest"]] = entry
        return entries

    def record(
        self,
        *,
        digest: str,
        index: int,
        label: str,
        status: str,
        attempts: int,
        error: Optional[Mapping[str, Any]] = None,
        resumed_from_event: Optional[int] = None,
    ) -> None:
        entry: Dict[str, Any] = {
            "schema": JOURNAL_SCHEMA,
            "digest": digest,
            "index": index,
            "label": label,
            "status": status,
            "attempts": attempts,
        }
        if error is not None:
            entry["error"] = dict(error)
        if resumed_from_event is not None:
            entry["resumed_from_event"] = int(resumed_from_event)
        line = json.dumps(entry, sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as handle:
            handle.seek(max(handle.seek(0, os.SEEK_END) - 1, 0))
            if handle.read(1) not in (b"", b"\n"):
                line = "\n" + line  # end a torn tail first, or it swallows the entry
            handle.write(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())


class SweepRunner:
    """Execute a batch of specs through a resilient backend.

    ``jobs=1`` runs in-process, ``jobs>1`` on a warm pool of ``jobs``
    worker processes; each cell is seeded by its spec alone, so both are
    bit-identical up to timings.  Results are data only (``run is None``;
    ``spec.execute()`` returns the live run).  ``executor`` overrides the
    jobs-derived default with a backend name (``"serial"`` / ``"pool"``)
    or a live :class:`~repro.engine.executors.Executor` (for instance a
    :class:`~repro.engine.executors.FlakyExecutor` around either).
    ``shard=(i, k)`` runs only grid cells ``i, i+k, i+2k, ...``; their
    results, journal lines and ``last_indices`` keep their grid indices.

    The resilience layer around the backend:

    * ``timeout`` — per-cell wall-clock budget; a cell over budget has
      its worker killed and counts as a failed attempt (process backends
      enforce it for real, the serial backend only for injected hangs).
    * ``retries`` — failed attempts are re-submitted up to ``retries``
      times, with exponential backoff and seeded jitter
      (:func:`~repro.engine.executors.retry_delay`) between waves.
    * ``max_failures`` — cells that fail every attempt degrade to
      :class:`~repro.engine.executors.CellFailure` artifacts in the
      results; once their count *exceeds* this threshold the sweep
      aborts at once (the default ``0`` preserves the historical
      fail-fast behaviour; ``None`` never aborts), abandoning only the
      cells in flight at that instant.
    * ``journal`` / ``resume`` — every terminal cell outcome is appended
      to a :class:`SweepJournal`; ``resume=True`` replays it so a
      re-launched driver executes only unfinished cells.

    Outcomes are handled as they arrive, not when their wave returns:
    with a :class:`~repro.engine.cache.ResultCache` attached, cells whose
    spec digest is already stored are served from disk — byte-identical
    payload, zero simulator events — and each success is stored back (and
    journaled) the moment it completes, so a failure, an abort or a
    killed driver discards at most the ``jobs`` cells then in flight.
    Results always come back in spec order.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        *,
        executor: Optional[Union[str, Executor]] = None,
        retries: int = 0,
        timeout: Optional[float] = None,
        backoff: float = 0.05,
        max_failures: Optional[int] = 0,
        journal: Optional[Union[str, Path, SweepJournal]] = None,
        resume: bool = False,
        shard: Optional[Tuple[int, int]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        index, count = shard if shard is not None else (0, 1)
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        if not 0 <= index < count:
            raise ValueError(f"shard index must be in [0, {count}), got {index}")
        self.shard = (index, count)
        self.jobs = jobs
        self.cache = cache
        if isinstance(executor, str):
            if executor not in _BACKENDS:
                raise UnknownVocabularyError("executor", executor, _BACKENDS)
            executor = SerialExecutor() if executor == "serial" else PoolExecutor(jobs=jobs)
        self.executor = executor
        self.retries = retries
        self.timeout = timeout
        self.backoff = backoff
        self.max_failures = max_failures
        if journal is not None and not isinstance(journal, SweepJournal):
            journal = SweepJournal(journal)
        self.journal = journal
        if resume and self.journal is None:
            raise ValueError("resume=True requires a journal")
        if resume and self.cache is None:
            raise ValueError(
                "resume=True requires a cache (completed cells are restored from it)"
            )
        self.resume = resume
        #: Cache hits of the most recent :meth:`run` call (0 without a cache).
        self.last_cache_hits = 0
        #: Cells of the most recent run that actually executed (any attempt).
        self.last_executed = 0
        #: Cells restored from the journal by ``resume=True``.
        self.last_resumed = 0
        #: Cells that ended as :class:`CellFailure` artifacts.
        self.last_failures = 0
        #: Total attempts submitted to the backend (retries included).
        self.last_attempts = 0
        #: Grid indices the shard selected in the most recent run.
        self.last_indices: List[int] = []

    def _default_executor(self, cells: int) -> Executor:
        if self.jobs == 1 or cells <= 1:
            return SerialExecutor()
        return PoolExecutor(jobs=self.jobs)

    def run(
        self, specs: Sequence[ExperimentSpec]
    ) -> List[Union[RunResult, CellFailure]]:
        specs = list(specs)
        executor = self.executor or self._default_executor(len(specs))
        indices = list(range(self.shard[0], len(specs), self.shard[1]))
        self.last_indices = indices
        self.last_cache_hits = 0
        self.last_executed = 0
        self.last_resumed = 0
        self.last_failures = 0
        self.last_attempts = 0

        slots: Dict[int, Union[RunResult, CellFailure]] = {}
        journal_state = (
            self.journal.load() if (self.resume and self.journal is not None) else {}
        )
        pending: List[CellTask] = []
        for index in indices:
            spec = specs[index]
            digest = spec_digest(spec)
            entry = journal_state.get(digest)
            if entry is not None and entry.get("status") == "ok":
                cached = self.cache.get(spec) if self.cache is not None else None
                if cached is not None:
                    slots[index] = cached
                    self.last_resumed += 1
                    continue
                warnings.warn(
                    f"journal marks cell {spec.label or spec.protocol!r} complete "
                    "but the result cache has no entry for it; re-executing",
                    RuntimeWarning,
                    stacklevel=2,
                )
            elif entry is not None and entry.get("status") == "failed":
                slots[index] = CellFailure(
                    spec=spec,
                    attempts=int(entry.get("attempts", 0)),
                    error=dict(entry.get("error") or {}),
                )
                self.last_resumed += 1
                self.last_failures += 1
                continue
            if self.cache is not None:
                cached = self.cache.get(spec)
                if cached is not None:
                    slots[index] = cached
                    self.last_cache_hits += 1
                    continue
            pending.append(CellTask.for_spec(index, spec, digest=digest))

        if pending:
            self._execute_resilient(executor, pending, slots)
        return [slots[index] for index in indices]

    def _execute_resilient(
        self,
        executor: Executor,
        tasks: List[CellTask],
        slots: Dict[int, Union[RunResult, CellFailure]],
    ) -> None:
        """Wave-based retry loop; fills ``slots`` as each cell finishes."""
        failures: List[CellFailure] = []
        abort_exception: Optional[BaseException] = None
        wave = tasks
        while wave:
            retry: List[CellTask] = []
            # Leaving the block — wave done, abort, Ctrl-C — closes the batch,
            # which tears down whatever workers it started.
            with contextlib.closing(executor.iter_batch(wave, timeout=self.timeout)) as batch:
                for outcome in batch:
                    self.last_attempts += 1
                    task = outcome.task
                    if outcome.ok:
                        self._store(outcome.result)
                        self._journal(task, "ok", resumed_from_event=outcome.resumed_from_event)
                        # A finished cell is data, like a cache hit: its live run is dropped.
                        slots[task.index] = dataclasses.replace(
                            outcome.result, run=None, classification_result=None
                        )
                        self.last_executed += 1
                        continue
                    if task.attempt <= self.retries:
                        retry.append(
                            dataclasses.replace(task, attempt=task.attempt + 1, inject=None)
                        )
                        continue
                    failure = CellFailure(
                        spec=task.spec, attempts=task.attempt, error=outcome.error_dict()
                    )
                    self._journal(task, "failed", error=failure.error)
                    slots[task.index] = failure
                    failures.append(failure)
                    self.last_executed += 1
                    self.last_failures += 1
                    if abort_exception is None and outcome.exception is not None:
                        abort_exception = outcome.exception
                    if self.max_failures is not None and len(failures) > self.max_failures:
                        # The abort is certain, so stop pulling: what arrived
                        # is cached, only the cells still in flight are lost.
                        if abort_exception is not None:
                            # The failing attempt ran in-process: preserve the
                            # historical contract and surface the original error.
                            raise abort_exception
                        raise SweepAbortedError(failures, self.max_failures)
            if retry:
                retry.sort(key=lambda task: task.index)  # completion order -> grid order
                delay = max(retry_delay(self.backoff, t.attempt, t.digest) for t in retry)
                if delay > 0:
                    time.sleep(delay)
            wave = retry

    def _store(self, result: RunResult) -> None:
        if self.cache is None:
            return
        try:
            self.cache.put(result)
        except OSError as error:
            # Never lose an already-computed sweep to a cache-write failure
            # (read-only dir, disk full): mirror the read side, where bad
            # entries degrade to misses.
            warnings.warn(
                f"result cache write failed ({error}); continuing without caching this cell",
                RuntimeWarning,
                stacklevel=2,
            )

    def _journal(self, task: CellTask, status: str, **details: Any) -> None:
        if self.journal is not None:
            self.journal.record(
                digest=task.digest,
                index=task.index,
                label=task.label,
                status=status,
                attempts=task.attempt,
                **details,
            )


def results_payload(
    results: Sequence[Union[RunResult, CellFailure]],
    *,
    shard: Optional[Sequence[int]] = None,
) -> Dict[str, Any]:
    """The stable JSON document a sweep writes to disk (``repro.sweep/2``).

    ``cells`` holds successful results and :class:`CellFailure` artifacts
    (marked ``"cell_failure": true``) in grid order; ``failures`` counts
    the latter.  ``shard=(i, k)`` stamps shard provenance on partial
    payloads produced by ``SweepRunner(shard=(i, k))`` (``--shard-index``).
    """
    payload: Dict[str, Any] = {
        "schema": SWEEP_SCHEMA,
        "cells": [result.to_dict() for result in results],
        "failures": sum(1 for r in results if isinstance(r, CellFailure)),
    }
    if shard is not None:
        payload["shard"] = {"index": int(shard[0]), "count": int(shard[1])}
    return payload
