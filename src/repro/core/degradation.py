"""Online degradation tracking for adversarial runs.

The :class:`~repro.core.consistency_index.ConsistencyMonitor` answers
*whether* a consistency criterion holds on a streaming history (it feeds
the index the checkers of :mod:`repro.core.consistency` read);
adversarial scenarios — healing partitions, churn, eclipse windows —
need the quantitative counterpart: *how far* did the correct replicas'
views diverge, and how quickly did they re-agree once the adversary
stopped interfering.

:class:`DegradationMonitor` subscribes to a
:class:`~repro.core.history.HistoryRecorder` exactly like the
consistency monitor does and folds every read response into one
:class:`~repro.core.consistency_index.ConsistencyIndex`.  After each
read it recomputes the **divergence depth** over the correct replicas'
latest tips: for each tip pair the depth of the shallower branch past
their lowest common ancestor,

    ``min(height(a), height(b)) - height(lca(a, b))``

which is 0 iff the pair is prefix-related — two replicas holding
different-length prefixes of one chain agree; only a genuine fork
counts.  The monitor records a ``(virtual time, depth)`` sample at every
change, and — when the fault announces a heal time — the first post-heal
instant at which the depth returns to 0, i.e. when correct-replica
prefix agreement is restored.  ``time_to_heal`` is that instant minus
the heal time.

The monitor is observation-only: it never mutates replicas or schedules
events, so attaching it cannot perturb the recorded history.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.block import Blockchain
from repro.core.consistency_index import ConsistencyIndex
from repro.core.history import Event, HistoryRecorder

__all__ = ["DegradationMonitor"]


class DegradationMonitor:
    """Divergence depth over time, and time-to-heal, from streamed reads.

    Parameters
    ----------
    heal_at:
        The adversary's announced heal time (see
        :meth:`~repro.network.faults.FaultModel.heal_time`); ``None``
        disables the time-to-heal measurement.
    clock:
        Zero-argument callable returning the current virtual time
        (``lambda: simulator.now``).  Without one, samples are stamped
        with the event id — still monotone, but not in virtual time.
    correct:
        Predicate over pids deciding whose tips count toward divergence
        (defaults to everyone); the run harness wires it to
        ``replica.is_correct`` so crashed and Byzantine views are
        excluded at sample time.
    """

    def __init__(
        self,
        heal_at: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        correct: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.heal_at = heal_at
        self.clock = clock
        self.correct = correct
        self.index = ConsistencyIndex()
        self.reads_seen = 0
        self.max_divergence_depth = 0
        self.current_divergence_depth = 0
        self.healed_at: Optional[float] = None
        #: ``(time, depth)`` at every depth change (plus the first read).
        self.samples: List[Tuple[float, int]] = []
        self._tips: Dict[str, str] = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, recorder: HistoryRecorder) -> "DegradationMonitor":
        """Subscribe to every event ``recorder`` will record."""
        recorder.subscribe(self.observe)
        return self

    # -- event intake ---------------------------------------------------------

    def observe(self, event: Event) -> None:
        """Fold one history event in (only read responses matter here)."""
        if not event.is_read_response or not isinstance(event.output, Blockchain):
            return
        chain: Blockchain = event.output
        self.index.add_chain(chain, read_eid=event.eid)
        self._tips[event.process] = chain.tip.block_id
        now = self.clock() if self.clock is not None else float(event.eid)
        depth = self._divergence_depth()
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
        self.reads_seen += 1

    def _divergence_depth(self) -> int:
        """Worst pairwise fork depth among the correct replicas' tips."""
        if self.correct is None:
            tips = self._tips.values()
        else:
            tips = [tip for pid, tip in self._tips.items() if self.correct(pid)]
        distinct = sorted(set(tips))
        if len(distinct) < 2:
            return 0
        index = self.index
        height = index.height_of
        lca = index.lowest_common_ancestor
        worst = 0
        for i, a in enumerate(distinct):
            for b in distinct[i + 1 :]:
                depth = min(height(a), height(b)) - height(lca(a, b))
                if depth > worst:
                    worst = depth
        return worst

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
