"""Sweep execution backends: where and how a batch of cell attempts runs.

A sweep is submitted cell by cell and every failure domain is one cell.
Every cell is seeded by its spec alone, so results are reproducible
regardless of worker count and scheduling.  There are two backends:

* :class:`SerialExecutor` — in-process execution, one cell at a time
  (outcomes keep their live ``run``; the sweep runner drops it).  It
  cannot preempt a genuinely hung cell, so injected ``hang``/``kill``
  faults are reported *synthetically* (as timeout / worker-death
  outcomes, without sleeping or dying) — which is precisely what makes
  every retry path unit-testable in milliseconds.
* :class:`PoolExecutor` — at most ``min(jobs, cells)`` persistent worker
  processes per wave; the parent hands the next cell of the grid order
  to whichever is idle.  A worker exception, a worker death (killed,
  OOM, ``os._exit``) or a blown per-cell ``timeout`` costs one attempt
  of that cell alone, and its worker is recycled.  When the platform
  cannot start processes at all (no ``/dev/shm``, no ``fork``) the batch
  degrades to the serial backend with a ``RuntimeWarning``, never
  silently.

:class:`FlakyExecutor` is not a third backend but a chaos wrapper around
either: it decorates each task with an injected fault (``exception`` /
``hang`` / ``kill``) on chosen cell attempts, from an explicit plan or
from seeded per-``(digest, attempt)`` rates.  Injection happens *inside*
the worker under the pool backend, so a hang genuinely exercises the
timeout-kill path and a kill genuinely exercises the worker-death path.

Every backend implements one method, :meth:`Executor.iter_batch`: a
generator that yields each :class:`AttemptOutcome` *as its cell
finishes*, so the runner can cache and journal a success at once and
stop pulling — which closes the generator and tears the workers down —
the moment an abort is certain.

Which cells run is not the backend's business: the retry / backoff /
journal / failure-degradation loop, and the ``shard=(i, k)`` grid
selection, live in :class:`~repro.engine.sweep.SweepRunner`; this module
supplies the building blocks (:class:`CellTask`, :class:`AttemptOutcome`,
:class:`CellFailure`, :func:`retry_delay`).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import random
import time
import warnings
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import UnknownVocabularyError
from repro.engine.result import RunResult
from repro.engine.spec import ExperimentSpec

__all__ = [
    "CellTask",
    "AttemptOutcome",
    "CellFailure",
    "SweepAbortedError",
    "InjectedFault",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "FlakyExecutor",
    "retry_delay",
    "INJECTION_KINDS",
]

#: Chaos injection kinds :class:`FlakyExecutor` (and the backends) understand.
INJECTION_KINDS: Tuple[str, ...] = ("exception", "hang", "kill")

#: How long a hang-injected worker sleeps before failing loudly.  Long
#: enough that any sane per-cell timeout fires first; finite so a
#: misconfigured run (hang injection without a timeout on a process
#: backend) eventually surfaces as an error instead of wedging forever.
HANG_SECONDS = 3600.0

#: Exit code a kill-injected worker dies with (``os._exit``), chosen to
#: be recognizable in worker-death messages.
KILL_EXIT_CODE = 23


class InjectedFault(RuntimeError):
    """The exception raised by chaos ``exception`` injections."""


class SweepAbortedError(RuntimeError):
    """Raised when final cell failures exceed the sweep's abort threshold.

    Every success computed before the abort has already been stored in
    the attached result cache and journal, so re-running the sweep only
    re-executes the unfinished cells.
    """

    def __init__(self, failures: Sequence["CellFailure"], max_failures: int) -> None:
        self.failures = list(failures)
        self.max_failures = max_failures
        first = self.failures[0] if self.failures else None
        detail = (
            f"; first: {first.label!r} failed after {first.attempts} attempt(s) "
            f"({first.error.get('type')}: {first.error.get('message')})"
            if first is not None
            else ""
        )
        super().__init__(
            f"sweep aborted: {len(self.failures)} cell failure(s) exceeded "
            f"--max-failures {max_failures}{detail}"
        )


# ---------------------------------------------------------------------------
# work units and outcomes
# ---------------------------------------------------------------------------


@dataclass
class CellTask:
    """One attempt at one sweep cell, addressed by its grid position."""

    index: int
    spec: ExperimentSpec
    attempt: int = 1
    digest: str = ""
    payload: str = ""
    #: Chaos directive honoured by the backend (set by :class:`FlakyExecutor`).
    inject: Optional[str] = None

    @classmethod
    def for_spec(
        cls, index: int, spec: ExperimentSpec, *, attempt: int = 1, digest: str = ""
    ) -> "CellTask":
        from repro.engine.cache import spec_digest

        return cls(
            index=index,
            spec=spec,
            attempt=attempt,
            digest=digest or spec_digest(spec),
            payload=spec.to_json(),
        )

    @property
    def label(self) -> str:
        return self.spec.label or self.spec.protocol


@dataclass
class AttemptOutcome:
    """What one attempt at one cell produced.

    ``status`` is ``"ok"`` (``result`` is set), ``"error"`` (the cell
    raised), ``"timeout"`` (the cell exceeded the per-cell deadline and
    its worker was killed) or ``"died"`` (the worker vanished without
    reporting — killed from outside, OOM, ``os._exit``).  ``exception``
    carries the live exception object when the attempt ran in-process,
    so an aborting sweep can re-raise the original error verbatim.
    """

    task: CellTask
    status: str
    result: Optional[RunResult] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    exception: Optional[BaseException] = field(default=None, repr=False, compare=False)
    #: Event count of the checkpoint this attempt resumed from (``None``
    #: when the attempt started clean); journaled as ``resumed_from_event``.
    resumed_from_event: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def error_dict(self) -> Dict[str, Any]:
        """The structured error a :class:`CellFailure` artifact records."""
        return {
            "status": self.status,
            "type": self.error_type,
            "message": self.error_message,
        }


@dataclass
class CellFailure:
    """Structured artifact of a cell that failed every allowed attempt.

    Failed cells degrade to these instead of aborting the sweep (subject
    to ``max_failures``): the sweep payload (schema ``repro.sweep/2``)
    carries them beside the successful cells, marked by the
    ``"cell_failure": true`` key, so a single bad cell never discards
    its siblings' results.
    """

    spec: ExperimentSpec
    attempts: int
    error: Dict[str, Any]

    status: str = "failed"

    @property
    def label(self) -> str:
        return self.spec.label or self.spec.protocol

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell_failure": True,
            "status": self.status,
            "spec": self.spec.to_dict(),
            "attempts": self.attempts,
            "error": dict(self.error),
        }


def retry_delay(backoff: float, attempt: int, digest: str, seed: int = 0) -> float:
    """Exponential backoff with deterministically seeded jitter.

    ``attempt`` is the attempt about to run (2 for the first retry); the
    base delay doubles per retry and the jitter multiplier in
    ``[1.0, 1.5)`` is a pure function of ``(seed, digest, attempt)``, so
    identical sweeps sleep identically while distinct cells decorrelate.
    """
    if backoff <= 0:
        return 0.0
    jitter = random.Random(f"{seed}:{digest}:{attempt}").random()
    return backoff * (2.0 ** max(0, attempt - 2)) * (1.0 + 0.5 * jitter)


class Executor(ABC):
    """One way of running a batch of cell attempts.

    The resilience loop in :class:`~repro.engine.sweep.SweepRunner`
    drives an executor in *waves*: it submits every pending attempt of a
    round through :meth:`iter_batch`, handles each outcome as it
    arrives, and re-submits the retryable subset (with backoff) as the
    next wave.
    """

    @abstractmethod
    def iter_batch(
        self, tasks: Sequence[CellTask], timeout: Optional[float] = None
    ) -> Iterator[AttemptOutcome]:
        """Attempt every task once, yielding each outcome as it completes.

        A generator: cells are started in task order and their outcomes
        come back in completion order.  ``timeout`` is the per-cell
        wall-clock budget (enforced by the pool backend).  Closing
        the generator early abandons the cells not yet yielded and
        releases whatever the batch started (worker processes, pipes).
        """


# ---------------------------------------------------------------------------
# serial backend
# ---------------------------------------------------------------------------


class SerialExecutor(Executor):
    """In-process, one-cell-at-a-time execution.

    Successful outcomes keep their live ``run`` objects.  Injected
    ``hang`` / ``kill`` faults are reported synthetically (a serial
    backend cannot preempt or survive them for real) so chaos tests of
    the retry machinery stay fast and deterministic.
    """

    def iter_batch(
        self, tasks: Sequence[CellTask], timeout: Optional[float] = None
    ) -> Iterator[AttemptOutcome]:
        for task in tasks:
            yield self._attempt(task, timeout)

    def _attempt(self, task: CellTask, timeout: Optional[float]) -> AttemptOutcome:
        if task.inject == "hang":
            return AttemptOutcome(
                task,
                "timeout",
                error_type="CellTimeout",
                error_message=(
                    f"cell exceeded the per-cell timeout of {timeout}s "
                    "(injected hang, reported synthetically by the serial backend)"
                ),
            )
        if task.inject == "kill":
            return AttemptOutcome(
                task,
                "died",
                error_type="WorkerDied",
                error_message=(
                    f"worker exited with code {KILL_EXIT_CODE} "
                    "(injected kill, reported synthetically by the serial backend)"
                ),
            )
        try:
            if task.inject == "exception":
                raise InjectedFault(
                    f"injected exception (cell {task.index}, attempt {task.attempt})"
                )
            result = task.spec.execute()
        except Exception as error:
            return AttemptOutcome(
                task,
                "error",
                error_type=type(error).__name__,
                error_message=str(error),
                exception=error,
            )
        return AttemptOutcome(task, "ok", result=result)


# ---------------------------------------------------------------------------
# process-pool backend (persistent workers, one pool per wave)
# ---------------------------------------------------------------------------


def _attempt_in_worker(
    conn,
    payload: str,
    inject: Optional[str],
    checkpoint_every: Optional[int],
    checkpoint_path: Optional[str],
    resume_from: Optional[str],
) -> Tuple[str, str, Optional[int]]:
    """One attempt inside a worker: JSON spec in, ``("ok", json, resumed)`` out.

    Chaos directives are honoured *here*, inside the worker, so the
    parent's timeout / worker-death handling is exercised for real: a
    ``hang`` sleeps until the parent terminates the process, a ``kill``
    exits without reporting, an ``exception`` raises through the normal
    error path.  With a checkpoint path the cell runs through
    :func:`~repro.engine.checkpoint.run_spec_with_checkpoints`
    (``resumed`` = event count of the snapshot it resumed from), and a
    ``hang`` writes exactly one checkpoint before stalling, so the
    timeout-kill → retry-from-checkpoint path is deterministic.
    """
    if inject == "kill":
        conn.close()
        os._exit(KILL_EXIT_CODE)
    if inject == "hang":
        if checkpoint_path is not None:
            from repro.engine.checkpoint import CheckpointWriter

            writer = CheckpointWriter(checkpoint_path, spec=json.loads(payload))

            def _write_once_then_hang(live) -> None:
                writer(live)
                time.sleep(HANG_SECONDS)
                raise InjectedFault("injected hang outlived HANG_SECONDS without a timeout")

            ExperimentSpec.from_json(payload).execute(
                checkpoint_every=checkpoint_every, checkpoint_sink=_write_once_then_hang
            )
            raise InjectedFault("injected hang finished before the first checkpoint boundary")
        time.sleep(HANG_SECONDS)
        raise InjectedFault("injected hang outlived HANG_SECONDS without a timeout")
    if inject == "exception":
        raise InjectedFault("injected exception (chaos)")
    spec = ExperimentSpec.from_json(payload)
    if checkpoint_path is None:
        return "ok", spec.execute().to_json(), None
    from repro.engine.checkpoint import run_spec_with_checkpoints

    result, resumed = run_spec_with_checkpoints(
        spec, every=checkpoint_every, path=checkpoint_path, resume_from=resume_from
    )
    return "ok", result.to_json(), resumed


def _pool_worker(conn, inherited) -> None:
    """Worker entry point: ``recv job → run → send report`` until EOF.

    ``inherited`` holds the parent's ends of the pipes open when this
    worker was started, its own included.  A forked child has copies and
    closes them first: a pipe reads EOF only once *every* copy of its far
    end is closed, and EOF is how workers stop, even under a killed driver.
    A worker that reported anything but ``ok`` leaves by itself — the
    parent recycles it, so a failed attempt shares no interpreter with
    the next cell.
    """
    for end in inherited:
        end.close()
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return  # the parent closed the pipe (end of the wave) or is gone
        try:
            report = _attempt_in_worker(conn, *job)
        except BaseException as error:  # noqa: BLE001 - must report, not crash silently
            report = ("error", type(error).__name__, str(error))
        try:
            conn.send(report)
        except (OSError, ValueError):
            return
        if report[0] != "ok":
            return


@dataclass
class _Worker:
    """Parent-side handle of one persistent worker process."""

    proc: Any
    conn: Any
    #: The attempt the worker is running (``None`` = idle) and when it is due.
    task: Optional[CellTask] = None
    deadline: Optional[float] = None

    @classmethod
    def start(cls, ctx, siblings: Sequence["_Worker"]) -> "_Worker":
        conn, child_conn = ctx.Pipe()
        try:
            proc = ctx.Process(
                target=_pool_worker,
                args=(child_conn, [conn, *(worker.conn for worker in siblings)]),
                daemon=True,
            )
            proc.start()
        except (OSError, ImportError):
            conn.close()  # a pipe made before the failure must not leak its fds
            raise
        finally:
            child_conn.close()
        return cls(proc, conn)

    def stop(self) -> Optional[int]:
        """Tear the worker down and release its fds; returns its exit code.

        An idle worker leaves on the EOF that closing the pipe sends; one
        still running a cell can only be terminated.  Join and close the
        Process object too (its sentinel fd): a long flaky sweep recycles
        many workers and must not leak an fd per kill.
        """
        if self.task is not None:
            self.proc.terminate()
        self.conn.close()
        self.proc.join()
        exitcode = self.proc.exitcode
        self.proc.close()
        return exitcode


class PoolExecutor(Executor):
    """At most ``min(jobs, cells)`` persistent worker processes per wave.

    The first ``jobs`` cells of a wave each start a worker; after that
    the parent, which holds the one queue, hands the next cell of the
    grid order to whichever worker is idle, so process start-up and a
    cold interpreter are paid once per worker instead of once per cell.
    A cell is seeded by its spec alone: which worker runs it, and when,
    cannot change a byte of its result.

    The failure domain is still one cell: an exception, a killed worker
    or a blown deadline (counted from the moment the cell is handed to
    its worker) costs one attempt of one cell, after which that worker is
    recycled — torn down and, while cells remain, replaced.  The pool
    lives for one wave: the batch tears every worker down when it ends,
    is closed early or raises.  When a worker cannot be started, cells
    already handed out finish where they are and the rest of the batch
    runs on the serial backend, with a ``RuntimeWarning`` naming the reason.
    """

    def __init__(
        self,
        jobs: int = 2,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if checkpoint_every is not None:
            if checkpoint_every <= 0:
                raise ValueError("checkpoint_every must be positive")
            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
            from repro.engine.checkpoint import layout_fingerprint

            layout_fingerprint()  # taken before any fork: workers stamp the code they hold
        self.jobs = jobs
        #: When both are set, each worker checkpoints its cell every N
        #: events to ``<checkpoint_dir>/<digest>.ckpt`` and retry attempts
        #: resume from the latest snapshot instead of restarting.
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir

    def _checkpoint_args(
        self, task: CellTask
    ) -> Tuple[Optional[int], Optional[str], Optional[str]]:
        """``(checkpoint_every, checkpoint_path, resume_from)`` for one attempt."""
        if self.checkpoint_every is None or self.checkpoint_dir is None:
            return None, None, None
        from repro.engine.checkpoint import checkpoint_path_for

        path = checkpoint_path_for(self.checkpoint_dir, task.digest)
        resume_from = path if task.attempt > 1 and os.path.exists(path) else None
        return self.checkpoint_every, path, resume_from

    def iter_batch(
        self, tasks: Sequence[CellTask], timeout: Optional[float] = None
    ) -> Iterator[AttemptOutcome]:
        from multiprocessing.connection import wait  # pulls in subprocess; pool users only

        queue = deque(tasks)
        size = min(self.jobs, len(queue))
        workers: List[_Worker] = []
        finished: List[AttemptOutcome] = []
        serial_rest: List[CellTask] = []
        try:
            ctx = multiprocessing.get_context()
            while True:
                # Refill before handing outcomes back: a worker computes its
                # next cell while the runner caches and journals the last.
                while queue:
                    worker = next((w for w in workers if w.task is None), None)
                    if worker is None and len(workers) == size:
                        break
                    if worker is None:
                        try:
                            worker = _Worker.start(ctx, workers)
                        except (OSError, ImportError) as error:
                            # Restricted environments (no /dev/shm, no fork)
                            # cannot start workers.  Say so: the sweep loses
                            # its parallelism and its timeout enforcement.
                            warnings.warn(
                                f"worker process construction failed ({error}); "
                                "executing the remaining cells serially in-process",
                                RuntimeWarning,
                                stacklevel=2,
                            )
                            serial_rest.extend(queue)
                            queue.clear()
                            break
                        workers.append(worker)
                    self._dispatch(worker, queue.popleft(), timeout)
                yield from finished
                finished.clear()
                busy = [worker for worker in workers if worker.task is not None]
                if not busy:
                    break
                budget = None
                if timeout is not None:
                    budget = max(0.0, min(w.deadline for w in busy) - time.monotonic())
                wait([w.conn for w in busy] + [w.proc.sentinel for w in busy], budget)
                for worker in busy:
                    outcome = self._reap(worker)
                    if outcome is None:
                        continue
                    finished.append(outcome)
                    if not outcome.ok:
                        workers.remove(worker)  # _reap stopped it; refill replaces it
            yield from SerialExecutor().iter_batch(serial_rest, timeout)
        finally:
            for worker in workers:
                worker.stop()

    def _dispatch(self, worker: _Worker, task: CellTask, timeout: Optional[float]) -> None:
        """Hand ``task`` to an idle worker; its deadline starts now."""
        worker.task = task
        worker.deadline = time.monotonic() + timeout if timeout is not None else None
        try:
            worker.conn.send((task.payload, task.inject, *self._checkpoint_args(task)))
        except OSError:
            pass  # the worker died while idle; the reap step reports it

    def _reap(self, worker: _Worker) -> Optional[AttemptOutcome]:
        """One non-blocking look at a busy worker; ``None`` = still running.

        A worker whose attempt ended ``ok`` is left idle for its next
        cell; after any other ending it is stopped here, and the caller
        drops it from the pool.
        """
        task, proc, conn = worker.task, worker.proc, worker.conn
        if not conn.poll() and proc.is_alive():
            if worker.deadline is None or time.monotonic() <= worker.deadline:
                return None
            message = f"cell exceeded the per-cell timeout; worker pid {proc.pid} terminated"
            worker.stop()
            return AttemptOutcome(task, "timeout", error_type="CellTimeout", error_message=message)
        # Read the pipe only now, after is_alive(): a worker that reports
        # and exits between the poll above and is_alive() is not alive but
        # left its message behind, and must not be taken for dead.
        report = None
        if conn.poll():
            try:
                report = conn.recv()
            except (EOFError, OSError):
                pass  # the worker died mid-send: no report
        worker.task = None
        if report is not None and report[0] == "ok":
            return AttemptOutcome(
                task,
                "ok",
                result=RunResult.from_dict(json.loads(report[1])),
                resumed_from_event=report[2],
            )
        exitcode = worker.stop()
        if report is None:
            message = f"worker exited with code {exitcode} without reporting"
            return AttemptOutcome(task, "died", error_type="WorkerDied", error_message=message)
        return AttemptOutcome(task, "error", error_type=report[1], error_message=report[2])


# ---------------------------------------------------------------------------
# chaos wrapper
# ---------------------------------------------------------------------------


class FlakyExecutor(Executor):
    """Seeded fault injection around either backend (a wrapper, not a third one).

    ``plan`` maps grid index → ``{attempt: kind}`` for exact scripted
    faults (the unit-test mode); ``rates`` maps kind → probability for
    seeded random injection decided per ``(seed, digest, attempt)`` — a
    pure function, so the same sweep under the same seed injects the
    same faults regardless of scheduling.  Kinds: ``exception`` (the
    cell raises), ``hang`` (the cell stalls until the per-cell timeout
    kills it), ``kill`` (the worker dies without reporting).

    Injection directives ride the :class:`CellTask` into the backend, so
    the pool backend exercises its *real* timeout and worker-death
    machinery; the serial backend reports hang/kill
    synthetically (see :class:`SerialExecutor`).
    """

    def __init__(
        self,
        inner: Optional[Executor] = None,
        plan: Optional[Mapping[int, Mapping[int, str]]] = None,
        rates: Optional[Mapping[str, float]] = None,
        seed: int = 0,
    ) -> None:
        self.inner = inner if inner is not None else SerialExecutor()
        self.plan = {
            int(index): {int(attempt): kind for attempt, kind in attempts.items()}
            for index, attempts in (plan or {}).items()
        }
        self.rates = dict(rates or {})
        for kind in (*self.rates, *(k for a in self.plan.values() for k in a.values())):
            if kind not in INJECTION_KINDS:
                raise UnknownVocabularyError("injection kind", kind, INJECTION_KINDS)
        self.seed = seed
        #: Every injection performed: ``(index, attempt, kind)`` triples.
        self.injections: List[Tuple[int, int, str]] = []

    def _injection_for(self, task: CellTask) -> Optional[str]:
        planned = self.plan.get(task.index, {}).get(task.attempt)
        if planned is not None:
            return planned
        if not self.rates:
            return None
        draw = random.Random(f"{self.seed}:{task.digest}:{task.attempt}").random()
        cumulative = 0.0
        for kind in INJECTION_KINDS:
            cumulative += self.rates.get(kind, 0.0)
            if draw < cumulative:
                return kind
        return None

    def iter_batch(
        self, tasks: Sequence[CellTask], timeout: Optional[float] = None
    ) -> Iterator[AttemptOutcome]:
        decorated: List[CellTask] = []
        for task in tasks:
            inject = self._injection_for(task)
            if inject is not None:
                self.injections.append((task.index, task.attempt, inject))
                task = dataclasses.replace(task, inject=inject)
            decorated.append(task)
        return self.inner.iter_batch(decorated, timeout)
