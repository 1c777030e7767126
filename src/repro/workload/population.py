"""Population-scale client workloads, generated column-wise.

The per-op generators in :mod:`repro.workload.transactions` are fine for
the handful of transactions a block payload needs, but a realistic load
— thousands of clients issuing operations over the whole run — cannot be
produced one Python object at a time without the *generator* dominating
the simulation.  :class:`ClientPopulation` instead draws the entire
population's operation streams as numpy columns:

* each client is assigned to a home replica with one
  ``rng.integers`` fill over the whole population;
* per-replica operation counts come from a single vectorized Poisson
  draw (``lam = clients_at_replica * rate * duration``), the standard
  superposition of per-client Poisson processes;
* arrival times are one ``rng.uniform`` fill per replica, sorted — for a
  Poisson process, arrivals conditioned on their count are i.i.d.
  uniform over the interval;
* operation payloads are integer coin ids (optionally re-spending an
  earlier coin with probability ``conflict_rate``, drawn column-wise).

The streams stay columns all the way to the mempool.  A stock replica
names its mempool as a *column sink* (``Process.client_op_sink``), and
its ``(times, ops)`` arrays go to ``Simulator.schedule_column`` as they
are: the array core keeps them as int64 slices per time-slot bucket and
hands every run of arrivals that no other event interrupts to
``Mempool.extend_column`` in one call — no Python int, no queue entry
and no callback per operation.  A target that gives no sink (a replica
overriding ``on_client_op``, a bare ``Process``) gets the same arrays
through ``Simulator.schedule_block``, one ``on_client_op(op)`` call per
operation.  Both routes are one vectorized insert per replica and
assign the same sequence numbers, so which one a target takes never
shows in a history.  Everything derives from ``seed``; two populations
with equal parameters produce identical streams under both simulator
cores.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Sequence, Tuple

import numpy as np

__all__ = ["ClientPopulation"]


class ClientPopulation:
    """Vectorized operation streams for ``clients`` clients.

    Parameters
    ----------
    clients:
        Population size (each client issues operations at ``rate``).
    rate:
        Expected operations per client per virtual time unit.
    duration:
        Virtual interval ``[0, duration)`` the arrivals cover.
    processes:
        Replica ids, in order; each client is homed on one of them.
    seed:
        Seeds every draw (assignment, counts, arrival times, conflicts).
    conflict_rate:
        Probability that an operation re-spends an earlier coin id (a
        double spend) instead of a fresh one.
    """

    def __init__(
        self,
        clients: int,
        rate: float,
        duration: float,
        processes: Sequence[str],
        seed: int = 0,
        conflict_rate: float = 0.0,
    ) -> None:
        if clients < 1:
            raise ValueError("clients must be positive")
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not processes:
            raise ValueError("processes must be non-empty")
        if not 0 <= conflict_rate <= 1:
            raise ValueError("conflict_rate must be in [0, 1]")
        self.clients = clients
        self.rate = rate
        self.duration = duration
        self.processes = tuple(processes)
        self.seed = seed
        self.conflict_rate = conflict_rate

        started = time.perf_counter()
        rng = np.random.default_rng(seed)
        n = len(self.processes)
        assignment = rng.integers(0, n, size=clients)
        counts = np.bincount(assignment, minlength=n)
        ops_per_process = rng.poisson(lam=counts * rate * duration)

        #: Per-replica streams: pid → (sorted arrival times, coin ids).
        self.streams: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        next_coin = 0
        for index, pid in enumerate(self.processes):
            k = int(ops_per_process[index])
            times = np.sort(rng.uniform(0.0, duration, size=k))
            ops = np.arange(next_coin, next_coin + k, dtype=np.int64)
            if conflict_rate > 0.0 and k:
                respend = rng.random(k) < conflict_rate
                reuse = rng.integers(0, np.maximum(ops, 1))
                respend &= ops > 0  # the very first coin has nothing to re-spend
                ops = np.where(respend, reuse, ops)
            next_coin += k
            self.streams[pid] = (times, ops)
        self.total_ops = int(ops_per_process.sum())
        self.generation_seconds = time.perf_counter() - started
        self.scheduled_ops = 0

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        # The op streams are a pure function of the constructor arguments
        # (one seeded generator, fixed draw order), so checkpoints carry
        # only the recipe — a few dozen bytes instead of 16 bytes per
        # operation — and regenerate bit-identical arrays on restore.
        return {
            "clients": self.clients,
            "rate": self.rate,
            "duration": self.duration,
            "processes": self.processes,
            "seed": self.seed,
            "conflict_rate": self.conflict_rate,
            "scheduled_ops": self.scheduled_ops,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        scheduled_ops = state.pop("scheduled_ops")
        self.__init__(**state)
        self.scheduled_ops = scheduled_ops

    # -- scheduling -----------------------------------------------------------

    def schedule_on(self, network) -> int:
        """Bulk-insert every stream into ``network``'s event calendar.

        One bulk insert per replica, in ``processes`` order — the
        insertion order (and therefore the seq numbering) is identical
        under the array and heap cores.  A replica that names a column
        sink (:meth:`Process.client_op_sink
        <repro.network.process.Process.client_op_sink>`: receiving an
        operation is ``sink.append(op)`` and nothing else) gets its
        ``(times, ops)`` arrays as column events; any other target has
        every operation dispatched to its ``on_client_op``.  Returns the
        number of operations scheduled.
        """
        simulator = network.simulator
        scheduled = 0
        for pid in self.processes:
            times, ops = self.streams[pid]
            if not len(times):
                continue
            replica = network.process(pid)
            sink = replica.client_op_sink()
            if sink is not None:
                scheduled += simulator.schedule_column(times, ops, sink)
            else:
                scheduled += simulator.schedule_block(times, replica.on_client_op, ops)
        self.scheduled_ops = scheduled
        return scheduled

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Summary numbers for result artifacts and benchmarks."""
        return {
            "clients": self.clients,
            "total_ops": self.total_ops,
            "generation_seconds": self.generation_seconds,
        }
