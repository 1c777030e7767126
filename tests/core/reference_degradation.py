"""The brute-force degradation replay: the oracle for ``DegradationMonitor``.

It walks every event of a history in order and, at each read response
carrying a chain, recomputes the divergence depth of the correct
replicas' latest chains from the chains themselves: the lowest common
ancestor of two chains is their longest common prefix, and the depth of
a pair is the shorter chain's length past it.  No
:class:`~repro.core.consistency_index.ConsistencyIndex`, no time column
and no liveness log is read: the caller hands it a time per event and a
liveness schedule.  Do not "optimize" it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.block import Blockchain
from repro.core.history import History


def _common_prefix(a: Blockchain, b: Blockchain) -> int:
    """Number of leading blocks the two chains share."""
    shared = 0
    for x, y in zip(a.blocks, b.blocks):
        if x.block_id != y.block_id:
            break
        shared += 1
    return shared


def _depth(chains: Sequence[Blockchain]) -> int:
    """Worst pairwise fork depth: the shorter chain's blocks past the shared prefix."""
    worst = 0
    for i, a in enumerate(chains):
        for b in chains[i + 1 :]:
            worst = max(worst, min(len(a.blocks), len(b.blocks)) - _common_prefix(a, b))
    return worst


def replay_degradation(
    history: History,
    times: Sequence[float],
    liveness: Iterable[Tuple[int, str, bool]] = (),
    byzantine: Iterable[str] = (),
    heal_at: Optional[float] = None,
) -> Tuple[Dict[str, Any], List[Tuple[float, int]]]:
    """``(summary, samples)`` as :class:`DegradationMonitor` words them.

    ``times[i]`` is the virtual time of ``history.events[i]``; a liveness
    entry ``(n, pid, alive)`` takes effect before the event at position
    ``n`` (after the first ``n`` events).
    """
    schedule = list(liveness)
    faulty = set(byzantine)
    alive: Dict[str, bool] = {}
    latest: Dict[str, Blockchain] = {}
    samples: List[Tuple[float, int]] = []
    depth = deepest = reads = 0
    healed_at: Optional[float] = None
    for position, event in enumerate(history.events):
        for before, pid, now_alive in schedule:
            if before == position:
                alive[pid] = now_alive
        if not event.is_read_response or not isinstance(event.output, Blockchain):
            continue
        reads += 1
        latest[event.process] = event.output
        correct = [
            chain
            for pid, chain in latest.items()
            if alive.get(pid, True) and pid not in faulty
        ]
        now, fresh = times[position], _depth(correct)
        if not samples or fresh != depth:
            samples.append((now, fresh))
        depth = fresh
        deepest = max(deepest, depth)
        if healed_at is None and heal_at is not None and now >= heal_at and depth == 0:
            healed_at = now
    summary = {
        "reads": reads,
        "max_divergence_depth": deepest,
        "final_divergence_depth": depth,
        "heal_at": heal_at,
        "healed_at": healed_at,
        "time_to_heal": None if healed_at is None else healed_at - heal_at,
        "samples": len(samples),
    }
    return summary, samples
