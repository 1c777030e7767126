"""Registered adversary vocabulary: scheduled fault injection.

Section 4.2's failure model allows Byzantine processes and makes "no
assumption on the number of failures".  Like channels, topologies and
protocols, adversaries are first-class registered vocabulary — the only
way a run is faulted.  A :class:`FaultModel` is a declarative adversary
that injects its behaviour as *scheduled events through the simulator
itself*, so it composes with every system, every channel model, every
topology and both event cores (``array`` / ``heap``) byte-identically.

The lifecycle mirrors how :func:`repro.protocols.base.run_protocol`
stages a run:

* :meth:`FaultModel.install` — called once after every process is
  registered and *before* any ``on_start``; validates membership and
  applies construction-time behaviour (e.g. muting silent members).
* :meth:`FaultModel.after_process_start` — called immediately after each
  process's own ``on_start()``, in registration order.  Crash faults
  schedule their kill timer here, so it enters the queue right behind
  the process's own start-up timers (the insertion point
  ``tests/network/test_fault_models.py`` pins by history digest).
* :meth:`FaultModel.after_start` — called once after every process has
  started; global adversarial events (partition splits and heals, churn
  leaves and joins, eclipse windows) are scheduled on the simulator here.
* :meth:`FaultModel.heal_time` — the virtual time after which the
  adversary stops interfering (``None`` if it never does); once the run
  has finished, the :class:`~repro.core.degradation.DegradationMonitor`
  measures time-to-heal from it over the history's time column.

Faults are registered in ``FAULTS``, a
:class:`~repro.core.errors.Vocabulary`, so the engine's
:class:`~repro.engine.spec.FaultSpec` can name them declaratively
(``--fault partition:heal_at=60``, ``fault.kind`` sweep axes).

Healing and state transfer
--------------------------
Block dissemination is relay-on-first-reception (LRC), so blocks created
on one side of a partition are never re-announced once the partition
heals — without an explicit state transfer the two sides would stay
split-brain forever (their orphan buffers never fill).  Healing events
therefore perform a deterministic *sync sweep*: every alive replica
adopts every block known to its alive peers, in registration × tree
insertion order (:func:`state_sync`).  Churn rejoins sync the joiner the
same way before rebooting its timers via ``on_start()``.
"""

from __future__ import annotations

import math
from abc import ABC
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.errors import Vocabulary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.process import Process
    from repro.network.simulator import Network

__all__ = [
    "FaultModel",
    "CrashFault",
    "SilentFault",
    "ChurnFault",
    "PartitionFault",
    "EclipseFault",
    "FAULTS",
    "state_sync",
]


class FaultModel(ABC):
    """A declarative adversary acting through scheduled simulator events.

    All hooks but :meth:`install` (which checks membership) default to
    no-ops, so a concrete fault only implements the stages it needs and
    names its replicas in :meth:`replica_ids`; see the module docstring
    for when each is called.
    """

    def install(self, network: "Network") -> None:
        """Validate membership and apply pre-start behaviour."""
        self.check_members(network.process_ids)

    def replica_ids(self) -> Tuple[str, ...]:
        """Every replica id this fault names."""
        return ()

    def check_members(self, process_ids: Sequence[str]) -> None:
        """Refuse a fault naming a replica that is not in ``process_ids``.

        :meth:`install` calls it on the network's process table; the CLI
        calls it on the ids a command's replica count implies, before
        any run starts.
        """
        unknown = sorted(set(self.replica_ids()) - set(process_ids))
        if unknown:
            raise ValueError(f"unknown replicas {unknown}")

    def after_process_start(self, process: "Process") -> None:
        """Called right after ``process.on_start()``, in registration order."""

    def after_start(self, network: "Network") -> None:
        """Schedule global adversarial events on ``network.simulator``."""

    def heal_time(self) -> Optional[float]:
        """Virtual time after which the adversary stops interfering."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: Name -> fault class, in registration order.
FAULTS = Vocabulary("fault")


# ---------------------------------------------------------------------------
# state transfer (what makes partitions *heal* under LRC dissemination)
# ---------------------------------------------------------------------------


def state_sync(network: "Network", targets: Optional[Sequence[str]] = None) -> int:
    """Deterministic block-level resync among the alive registered replicas.

    Every target replica adopts every block known to each alive peer, in
    registration order × tree insertion order (parents first, so no
    orphan buffering is triggered).  ``targets=None`` syncs everyone —
    the partition-heal sweep; a churn rejoin passes only the joiner.
    Processes without a block tree (bare :class:`Process` instances) are
    skipped, so the fault layer stays protocol-agnostic.  Returns the
    number of blocks newly adopted.
    """
    processes = [network.process(pid) for pid in network.process_ids]
    sources = [p for p in processes if p.alive and hasattr(p, "tree")]
    if targets is None:
        sinks = sources
    else:
        registered = {p.pid: p for p in sources}
        sinks = [registered[pid] for pid in targets if pid in registered]
    adopted = 0
    for sink in sinks:
        adopt = getattr(sink, "adopt_block", None)
        if adopt is None:
            continue
        for source in sources:
            if source is sink:
                continue
            for block in source.tree:
                if adopt(block):
                    adopted += 1
    return adopted


# ---------------------------------------------------------------------------
# implementations
# ---------------------------------------------------------------------------


def _time(name: str, value: float) -> float:
    """A virtual-time parameter, refused by name unless finite and non-negative.

    A NaN would break the event queue's order and an infinity never fires.
    """
    time = float(value)
    if not 0 <= time < math.inf:
        raise ValueError(f"{name} must be a finite non-negative time, got {time!r}")
    return time


def _times(name: str, times: Mapping[str, float]) -> Dict[str, float]:
    """A ``pid -> virtual time`` parameter, refused by name unless a mapping
    of finite non-negative times."""
    if not isinstance(times, Mapping):
        raise TypeError(
            f"{name} must map replica ids to times, got {type(times).__name__}"
        )
    return {pid: _time(f"{name}[{pid!r}]", t) for pid, t in times.items()}


def _ids(name: str, ids: Sequence[Any], of: str = "replica ids") -> Tuple[Any, ...]:
    """A list parameter of replica ids, refused by name if a bare string.

    A string is a sequence of characters, so ``members="p1"`` would
    otherwise name the replicas ``"p"`` and ``"1"``.
    """
    if isinstance(ids, str):
        raise TypeError(f"{name} must be a list of {of}, got str")
    return tuple(ids)


@FAULTS.register("crash")
class CrashFault(FaultModel):
    """Replicas named in ``at`` crash at their configured virtual time.

    The kill timer is scheduled through ``process.schedule`` immediately
    after the process's own ``on_start()``; from then on the replica
    neither produces, relays nor applies anything.
    """

    def __init__(self, at: Mapping[str, float]) -> None:
        self.at = _times("at", at)

    def replica_ids(self) -> Tuple[str, ...]:
        return tuple(self.at)

    def after_process_start(self, process: "Process") -> None:
        when = self.at.get(process.pid)
        if when is not None:
            process.schedule(when, process.crash)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CrashFault(at={self.at!r})"


# Muted outbound primitives installed by SilentFault.  Module-level (not
# lambdas) so silenced processes survive a checkpoint pickle; they shadow
# the class methods as instance attributes, hence no ``self`` parameter.
def _muted_send(receiver, kind, payload) -> bool:  # noqa: ARG001
    return False


def _muted_broadcast(kind, payload, include_self=True) -> int:  # noqa: ARG001
    return 0


def _muted_multicast(receivers, kind, payload) -> int:  # noqa: ARG001
    return 0


@FAULTS.register("silent")
class SilentFault(FaultModel):
    """``members`` become silent Byzantine: they receive but never send.

    Outbound primitives are muted at install time (before any
    ``on_start``) by shadowing the class methods — the muted replica
    still processes deliveries and updates its local state, it just never
    proposes, votes or relays: the cheapest adversary against quorum-based
    commit and against block dissemination.
    """

    def __init__(self, members: Sequence[str]) -> None:
        self.members = _ids("members", members)

    def replica_ids(self) -> Tuple[str, ...]:
        return self.members

    def install(self, network: "Network") -> None:
        super().install(network)
        for pid in self.members:
            process = network.process(pid)
            process.byzantine = True
            # Instance attributes shadow the class methods for exactly
            # this process.
            process.send = _muted_send
            process.broadcast = _muted_broadcast
            process.multicast = _muted_multicast

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SilentFault(members={self.members!r})"


@FAULTS.register("churn")
class ChurnFault(FaultModel):
    """Dynamic membership: processes leave (and optionally rejoin) mid-run.

    ``leave`` maps pid -> departure time: the process crashes and is
    deregistered from the network, so its in-flight deliveries are
    quarantined and every receiver cache is invalidated.  ``join`` maps a
    subset of those pids to a later rejoin time: the process is
    re-registered, resynced from its alive peers (:func:`state_sync`) and
    rebooted through its own ``on_start()``.
    """

    def __init__(
        self,
        leave: Mapping[str, float],
        join: Optional[Mapping[str, float]] = None,
        resync: bool = True,
    ) -> None:
        self.leave = _times("leave", leave)
        self.join = _times("join", {} if join is None else join)
        self.resync = bool(resync)
        stranger = sorted(set(self.join) - set(self.leave))
        if stranger:
            raise ValueError(f"join names replicas that never leave: {stranger}")
        for pid, t in self.join.items():
            if t <= self.leave[pid]:
                raise ValueError(f"{pid!r} must rejoin strictly after leaving")

    def replica_ids(self) -> Tuple[str, ...]:
        return tuple(self.leave)

    def after_start(self, network: "Network") -> None:
        simulator = network.simulator
        for pid in sorted(self.leave):
            process = network.process(pid)
            simulator.schedule_at(
                self.leave[pid], partial(self._leave, network, process)
            )
        for pid in sorted(self.join):
            process = network.process(pid)
            simulator.schedule_at(
                self.join[pid], partial(self._rejoin, network, process)
            )

    def _leave(self, network: "Network", process: "Process") -> None:
        network.deregister(process.pid)
        process.crash()

    def _rejoin(self, network: "Network", process: "Process") -> None:
        network.register(process)
        process.revive()
        if self.resync:
            state_sync(network, targets=(process.pid,))
        process.on_start()

    def heal_time(self) -> Optional[float]:
        if not self.join:
            return None
        return max(self.join.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChurnFault(leave={self.leave!r}, join={self.join!r})"


class _GroupFilter:
    """Edge filter admitting only same-group traffic (partition split).

    A picklable callable (the nested ``allows`` closure it replaces could
    not cross a checkpoint): the fault keeps the *same object* it handed
    to :meth:`Network.add_message_filter`, and the pickle memo preserves
    that sharing, so ``remove_message_filter`` still finds it after a
    restore.
    """

    __slots__ = ("group_of",)

    def __init__(self, group_of: Mapping[str, int]) -> None:
        self.group_of = group_of

    def __call__(self, sender: str, receiver: str) -> bool:
        group_of = self.group_of
        return group_of.get(sender, -1) == group_of.get(receiver, -1)


class _VictimFilter:
    """Edge filter severing every edge touching the eclipsed victim."""

    __slots__ = ("victim",)

    def __init__(self, victim: str) -> None:
        self.victim = victim

    def __call__(self, sender: str, receiver: str) -> bool:
        if sender == receiver:
            return True
        victim = self.victim
        return sender != victim and receiver != victim


@FAULTS.register("partition")
class PartitionFault(FaultModel):
    """Split-brain: the network splits into ``groups``, then (maybe) heals.

    From ``at`` (default: the start of the run) a message filter on the
    network drops every fan-out crossing group boundaries — both sides
    keep producing blocks against their own view.  Replicas not named in
    any group form one implicit extra side.  At ``heal_at`` (``None``
    never heals: the Theorem 4.6/4.7 shape) the filter is removed and a
    :func:`state_sync` sweep merges the diverged trees, after which the
    selection rule converges the replicas onto one branch.
    """

    def __init__(
        self,
        groups: Sequence[Sequence[str]],
        at: float = 0.0,
        heal_at: Optional[float] = None,
        resync: bool = True,
    ) -> None:
        self.groups = tuple(
            _ids("each group", group) for group in _ids("groups", groups, "replica-id lists")
        )
        if not self.groups or any(not group for group in self.groups):
            raise ValueError("partition groups must be non-empty")
        seen: Dict[str, int] = {}
        for gi, group in enumerate(self.groups):
            for pid in group:
                if pid in seen:
                    raise ValueError(f"replica {pid!r} appears in two groups")
                seen[pid] = gi
        self._group_of = seen
        self.at = _time("at", at)
        self.heal_at = None if heal_at is None else _time("heal_at", heal_at)
        self.resync = bool(resync)
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ValueError("heal_at must be after the partition time")
        self._filter = None

    def replica_ids(self) -> Tuple[str, ...]:
        return tuple(self._group_of)

    def after_start(self, network: "Network") -> None:
        simulator = network.simulator
        simulator.schedule_at(self.at, partial(self._split, network))
        if self.heal_at is not None:
            simulator.schedule_at(self.heal_at, partial(self._heal, network))

    def _split(self, network: "Network") -> None:
        allows = _GroupFilter(self._group_of)
        self._filter = allows
        network.add_message_filter(allows)

    def _heal(self, network: "Network") -> None:
        if self._filter is not None:
            network.remove_message_filter(self._filter)
            self._filter = None
        if self.resync:
            state_sync(network)

    def heal_time(self) -> Optional[float]:
        return self.heal_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionFault(groups={self.groups!r}, at={self.at!r}, "
            f"heal_at={self.heal_at!r})"
        )


@FAULTS.register("eclipse")
class EclipseFault(FaultModel):
    """Isolate one replica's view during a window ``[at, until)``.

    While eclipsed, every fan-out to or from ``victim`` is filtered (its
    own dissemination echo still arrives, so its local records stay
    well-formed); the victim keeps producing against its stale view —
    the classic eclipse-attack shape.  When the window closes the filter
    is lifted and a :func:`state_sync` sweep reconciles both directions:
    the victim learns the network's branch and the network learns the
    victim's withheld blocks.
    """

    def __init__(
        self,
        victim: str,
        until: float,
        at: float = 0.0,
        resync: bool = True,
    ) -> None:
        self.victim = victim
        self.at = _time("at", at)
        self.until = _time("until", until)
        self.resync = bool(resync)
        if self.until <= self.at:
            raise ValueError("eclipse window must end after it starts")
        self._filter = None

    def replica_ids(self) -> Tuple[str, ...]:
        return (self.victim,)

    def after_start(self, network: "Network") -> None:
        simulator = network.simulator
        simulator.schedule_at(self.at, partial(self._isolate, network))
        simulator.schedule_at(self.until, partial(self._release, network))

    def _isolate(self, network: "Network") -> None:
        allows = _VictimFilter(self.victim)
        self._filter = allows
        network.add_message_filter(allows)

    def _release(self, network: "Network") -> None:
        if self._filter is not None:
            network.remove_message_filter(self._filter)
            self._filter = None
        if self.resync:
            state_sync(network)

    def heal_time(self) -> Optional[float]:
        return self.until

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EclipseFault(victim={self.victim!r}, at={self.at!r}, until={self.until!r})"
