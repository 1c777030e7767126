"""Degradation of an adversarial run, read off its finished history.

The :class:`~repro.core.consistency_index.ConsistencyMonitor` answers
*whether* a consistency criterion holds on a finished history;
adversarial scenarios — healing partitions, churn, eclipse windows —
need the quantitative counterpart: *how far* did the correct replicas'
views diverge, and how quickly did they re-agree once the adversary
stopped interfering.

:class:`DegradationMonitor` answers that in one pass over the read table
of the run's :class:`~repro.core.consistency_index.ConsistencyIndex` (the
one the run is classified from; the monitor ingests nothing), each read
with the virtual time the recorder stamped on it, applying the network's
liveness log (``Network.liveness``: every crash and revive, against the
number of events recorded before it) ahead of each read.  At each read it
computes the **divergence depth** over the latest tips of the replicas
correct at that read: for each tip pair the depth of the shallower
branch past their lowest common ancestor,

    ``min(height(a), height(b)) - height(lca(a, b))``

which is 0 iff the pair is prefix-related — two replicas holding
different-length prefixes of one chain agree; only a genuine fork
counts.  Heights and ancestors are fixed by the blocks, so the index of
the whole history gives every read the numbers it had when it was
recorded.  The monitor records a ``(virtual time, depth)`` sample at
every change, and — when the fault announces a heal time — the first
post-heal instant at which the depth returns to 0, i.e. when
correct-replica prefix agreement is restored.  ``time_to_heal`` is that
instant minus the heal time.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.consistency_index import ConsistencyIndex

__all__ = ["DegradationMonitor"]


class DegradationMonitor:
    """Divergence depth over time, and time-to-heal, of a recorded history.

    Parameters
    ----------
    index, times:
        The finished history's index and time column (``_times``, by eid − 1).
    heal_at:
        The adversary's announced heal time (see
        :meth:`~repro.network.faults.FaultModel.heal_time`); ``None``
        disables the time-to-heal measurement.
    liveness:
        ``(events recorded before it, pid, alive after it)`` per crash or
        revive, in order (``Network.liveness``); a pid is alive until its
        first entry.
    byzantine:
        The pids Byzantine for the whole run.  Neither their tips nor a
        crashed replica's count toward divergence.
    """

    def __init__(
        self,
        index: ConsistencyIndex,
        times: np.ndarray,
        heal_at: Optional[float] = None,
        liveness: Iterable[Tuple[int, str, bool]] = (),
        byzantine: Iterable[str] = (),
    ) -> None:
        self.heal_at = heal_at
        self.max_divergence_depth = 0
        self.current_divergence_depth = 0
        self.healed_at: Optional[float] = None
        #: ``(time, depth)`` at every depth change (plus the first read).
        self.samples: List[Tuple[float, int]] = []
        _, processes, eids = index.read_table()
        self.reads_seen = len(eids)
        times = times[eids - 1].tolist()
        names = index.process_names()
        faulty, crashed = set(byzantine), set()
        changes = list(liveness)[::-1]  # popped oldest first
        tips: Dict[str, str] = {}  # each process's latest tip
        for read, (process, eid, now) in enumerate(zip(processes.tolist(), eids.tolist(), times)):
            while changes and changes[-1][0] < eid:  # it came before this read
                _, pid, alive = changes.pop()
                if alive:
                    crashed.discard(pid)
                else:
                    crashed.add(pid)
            tips[names[process]] = index.read_tip(read)
            correct = {tip for pid, tip in tips.items() if pid not in crashed and pid not in faulty}
            self._sample(now, _divergence_depth(index, sorted(correct)))

    @classmethod
    def of_run(cls, run: Any, index: Optional[ConsistencyIndex] = None) -> "DegradationMonitor":
        """A finished fault run's pass, off ``index`` (its purged history's; built if None)."""
        if index is None:
            index = ConsistencyIndex.from_history(run.history.without_failed_appends())
        byzantine = [pid for pid, replica in run.replicas.items() if replica.byzantine]
        heal_at = run.fault.heal_time()
        return cls(index, run.history._times, heal_at, run.network.liveness, byzantine)

    def _sample(self, now: float, depth: int) -> None:
        if not self.samples or depth != self.current_divergence_depth:
            self.samples.append((now, depth))
        self.current_divergence_depth = depth
        if depth > self.max_divergence_depth:
            self.max_divergence_depth = depth
        if (
            self.healed_at is None
            and self.heal_at is not None
            and now >= self.heal_at
            and depth == 0
        ):
            self.healed_at = now

    # -- results --------------------------------------------------------------

    @property
    def time_to_heal(self) -> Optional[float]:
        """Virtual time from the heal to restored prefix agreement."""
        if self.heal_at is None or self.healed_at is None:
            return None
        return self.healed_at - self.heal_at

    def summary(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the degradation trajectory."""
        return {
            "reads": self.reads_seen,
            "max_divergence_depth": self.max_divergence_depth,
            "final_divergence_depth": self.current_divergence_depth,
            "heal_at": self.heal_at,
            "healed_at": self.healed_at,
            "time_to_heal": self.time_to_heal,
            "samples": len(self.samples),
        }


def _divergence_depth(index: ConsistencyIndex, tips: List[str]) -> int:
    """Worst pairwise fork depth among distinct ``tips``."""
    height, lca = index.height_of, index.lowest_common_ancestor
    worst = 0
    for i, a in enumerate(tips):
        for b in tips[i + 1 :]:
            worst = max(worst, min(height(a), height(b)) - height(lca(a, b)))
    return worst
