"""Measurement plumbing of the ledger benchmark (standard library only).

Everything a child process needs to time one round: the calibration
kernel, the unit/span recorder, resource readers and the small
statistics.  Importing this module must stay cheap and must not import
``repro`` — a child calibrates *before* it pays for ``import repro`` so
that the import lands inside ``setup_s``.

Why times are calibrated
------------------------
The sandboxes this benchmark runs in change speed by 20–40 % for tens of
seconds at a time (a fixed pure-Python loop measured 7.8 ms, 10.0 ms and
13 ms in three consecutive half-minutes, with user CPU time inflating in
step, so it is the processor that slows, not the scheduler), and in their
noisy phases they switch between two speeds 1.5x apart within a second.
No statistic of one 15 s run sees through that.  Every timed unit is
therefore bracketed by a fixed kernel of interpreter work, and the time
reported is ``raw * REFERENCE_CALIBRATION_S / kernel_time``: seconds on a
machine that runs the kernel in exactly ``REFERENCE_CALIBRATION_S``.  The
raw numbers and every kernel sample are kept in the result file.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: Kernel time the reported seconds are normalised to.  Frozen: changing
#: it rescales every time metric of every workload.
REFERENCE_CALIBRATION_S = 0.014

#: Kernel runs per calibration gap (one gap sits between two units).
CALIBRATION_SAMPLES = 8

#: A round is "disturbed" when its kernel time is this far from the
#: session median.  Disturbed rounds are counted, never dropped.
DISTURBED_FRACTION = 0.15


class _Cell:
    """Small object the kernel allocates, links and calls methods on."""

    __slots__ = ("key", "value", "link")

    def __init__(self, key: int, value: int, link: Optional["_Cell"]) -> None:
        self.key = key
        self.value = value
        self.link = link

    def bump(self, amount: int) -> int:
        self.value += amount
        return self.value


def calibration_kernel() -> int:
    """Fixed interpreter work shaped like the simulator's hot loops.

    Two halves, because the slow phases hit them differently and their
    sum tracked a simulation cell best (spread of cell/kernel 2.4 % against
    3.2 % and 4.1 % for either half alone): a tight arithmetic/dict loop,
    then allocation + method calls + a heap + a sparsely keyed dict.
    """
    table: Dict[int, int] = {}
    acc = 0
    for i in range(50_000):
        table[i & 1023] = acc
        acc += i ^ (acc & 7)
    heap: List[Any] = []
    wide: Dict[int, Any] = {}
    cell: Optional[_Cell] = None
    for i in range(9_000):
        cell = _Cell(i, acc, cell if i & 7 else None)
        acc = cell.bump(i) & 0xFFFF
        heapq.heappush(heap, (acc, i, cell))
        wide[(i * 7919 + acc) % 200_003] = (i, acc)
        if i & 3 == 3:
            acc += heapq.heappop(heap)[1]
    return acc


def kernel_samples(samples: int) -> List[float]:
    """Wall time of each of ``samples`` kernel runs, the collector off.

    The kernel allocates, and a collection it triggers walks whatever the
    workload has left on the heap: with the collector on, every fifth or so
    sample took twice as long, by an amount that depended on the workload.
    """
    gc.disable()
    try:
        times = []
        for _ in range(samples):
            started = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - started)
        return times
    finally:
        gc.enable()


def kernel_samples_together(cpus: Sequence[int], samples: int) -> List[List[float]]:
    """Kernel samples taken on every CPU at the same time, one list per CPU.

    This process samples on the first CPU while one forked helper per other
    CPU samples there and sends its times back through a pipe.
    """
    helpers = []
    for cpu in cpus[1:]:
        reader, writer = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                pin([cpu])
                os.write(writer, json.dumps(kernel_samples(samples)).encode())
                status = 0
            finally:
                os._exit(status)  # never back into the harness's code
        os.close(writer)
        helpers.append((pid, reader))
    pin(cpus[:1])
    gap = [kernel_samples(samples)]
    for pid, reader in helpers:
        with open(reader, "rb") as pipe:
            gap.append(json.loads(pipe.read()))
        os.waitpid(pid, 0)
    return gap


def kernel_time(gap: Sequence[Sequence[float]]) -> float:
    """One kernel time from a gap's samples: the mean over CPUs of the median."""
    return statistics.mean(statistics.median(times) for times in gap)


def allowed_cpus() -> List[int]:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def pin(cpus: Sequence[int]) -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(cpus))


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has waited for."""
    return sum(os.times()[:4])


def peak_rss_mib() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


class Recorder:
    """Times the set-up and the units of one round; records spans when traced.

    ``unit`` is a timed region that counts towards the round's ``wall_s``
    and ``cpu_s``; the kernel runs in the gap after it (the gap before it
    is shared with the previous unit).  ``span`` marks a call into one
    layer inside a unit and records nothing unless the round is traced.

    The process is pinned to one CPU for its whole life, and so are the
    children it starts: the sandbox's two vCPUs change speed independently
    (kernel times on them correlate at 0.15), so the kernel only tells how
    fast a unit ran when both ran on the same CPU.  A unit that is parallel
    by design (``unit(..., parallel=True)``) runs with the pin lifted and is
    calibrated with the kernel running on every CPU at the same time: the
    vCPUs slow each other down when both are busy, which kernel runs on one
    CPU after the other do not see (spread of 6-round medians of the pool
    sweep in a noisy half hour: 4.2 % against 6.2 %).
    """

    def __init__(self, traced: bool = False, smoke: bool = False) -> None:
        self.traced = traced
        self.cpus = allowed_cpus()
        # The smoke size runs two children at a time and measures nothing:
        # no pin ("home" is every CPU) and one kernel run per gap.
        self.home = self.cpus if smoke else self.cpus[-1:]
        self.samples = 1 if smoke else CALIBRATION_SAMPLES
        self.origin = time.perf_counter()
        self.units: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []
        self.setup: Dict[str, float] = {}
        self._stack: List[int] = []
        self._gap: Optional[List[List[float]]] = self._calibrate()

    def _calibrate(self, parallel: bool = False) -> List[List[float]]:
        """Kernel samples now: at home, or on every CPU at once."""
        if parallel and len(self.home) == 1:
            gap = kernel_samples_together(self.cpus, self.samples)
            pin(self.home)
            return gap
        return [kernel_samples(self.samples)]

    @contextmanager
    def every_cpu(self) -> Iterator[None]:
        """Lift the pin while a call that is parallel by design starts workers."""
        pin(self.cpus)
        try:
            yield
        finally:
            pin(self.home)

    @contextmanager
    def _timed(self, name: str, parallel: bool = False) -> Iterator[Dict[str, Any]]:
        # The gap before a unit is the gap after the previous one, unless
        # the two were calibrated on different CPUs.
        if parallel or self._gap is None:
            before = self._calibrate(parallel)
        else:
            before = self._gap
        record: Dict[str, Any] = {"name": name}
        first_span = len(self.spans)
        # Before the clock starts: a unit begins on a clean heap, so peak
        # RSS is the largest unit, not the leftovers of earlier ones.
        gc.collect()
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            with self.span(name):
                if parallel:
                    with self.every_cpu():
                        yield record
                else:
                    yield record
        finally:
            wall = time.perf_counter() - wall0
            cpu = cpu_seconds() - cpu0
            after = self._calibrate(parallel)
            self._gap = None if parallel else after
            kernel = (kernel_time(before) + kernel_time(after)) / 2.0
            scale = REFERENCE_CALIBRATION_S / kernel
            record.update(
                raw_wall_s=wall,
                raw_cpu_s=cpu,
                calibration_s=kernel,
                kernel_samples=[before, after],
                wall_s=wall * scale,
                cpu_s=cpu * scale,
            )
            # Units never nest, so every span opened since belongs here.
            for span in self.spans[first_span:]:
                span["scale"] = scale

    @contextmanager
    def setup_region(self) -> Iterator[Dict[str, Any]]:
        """Everything before the timed region: imports, inputs, warm-up."""
        with self._timed("setup") as record:
            self.setup = record
            yield record

    @contextmanager
    def unit(self, name: str, parallel: bool = False) -> Iterator[Dict[str, Any]]:
        with self._timed(name, parallel) as record:
            self.units.append(record)
            yield record

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name``, its interval and the span that encloses it."""
        if not self.traced:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self.origin,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.origin


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Self time per span id: its duration minus what its children cover."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}
