"""Process framework for the message-passing substrate.

A :class:`Process` is a state machine driven by two callbacks —
``on_start`` (at time 0) and ``on_message`` (per delivery) — plus whatever
timers it schedules on the simulator.  Protocol replicas
(:mod:`repro.protocols.base`) subclass it.

Failure behaviours follow Section 4.2's Byzantine model.  Crashes and
silent (withholding) members are registered faults
(:mod:`repro.network.faults`), scheduled through :meth:`Process.crash`
and by muting the outbound primitives; other Byzantine behaviours are
obtained by overriding the callbacks in protocol-specific subclasses
(e.g. the equivocating proposer used by the consensus-protocol tests).
"""

from __future__ import annotations

from typing import Any, Optional, Set, TYPE_CHECKING

from repro.core.history import HistoryRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.simulator import Message, Network

__all__ = ["Process"]


class _AliveGuard:
    """Queue-entry wrapper that skips the action once its owner is dead.

    The picklable replacement for the nested ``guarded`` closure
    :meth:`Process.schedule` used to allocate — checkpoint snapshots carry
    pending timer entries, and closures cannot cross a pickle boundary.
    A fresh instance per call makes each timer a distinct callback.

    The guard also records the owner's incarnation: a timer set before a
    crash stays dead after a :meth:`Process.revive`, so a process that
    rejoins and restarts its timer chains in ``on_start`` runs each chain
    once, however soon it comes back.
    """

    __slots__ = ("process", "action", "incarnation")

    def __init__(self, process: "Process", action) -> None:
        self.process = process
        self.action = action
        self.incarnation = process.incarnation

    def __call__(self) -> None:
        process = self.process
        if process.alive and process.incarnation == self.incarnation:
            self.action()


class Process:
    """Base class for all simulated processes."""

    #: Bumped by :meth:`revive`; timers set in an earlier life never fire.
    incarnation = 0

    def __init__(self, pid: str) -> None:
        self.pid = pid
        self.network: Optional["Network"] = None
        self.alive = True
        self.byzantine = False

    # -- wiring ---------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Called by :meth:`Network.register`."""
        self.network = network

    @property
    def recorder(self) -> HistoryRecorder:
        assert self.network is not None, "process not attached to a network"
        return self.network.recorder

    @property
    def now(self) -> float:
        assert self.network is not None
        return self.network.simulator.now

    @property
    def is_correct(self) -> bool:
        """Correct = neither crashed nor Byzantine."""
        return self.alive and not self.byzantine

    # -- messaging helpers ------------------------------------------------------

    def send(self, receiver: str, kind: str, payload: Any) -> bool:
        """Send a point-to-point message (dropped silently if not alive)."""
        assert self.network is not None
        if not self.alive:
            return False
        return self.network.send(self.pid, receiver, kind, payload)

    def broadcast(self, kind: str, payload: Any, include_self: bool = True) -> int:
        """Best-effort broadcast through the network's dissemination topology.

        Reaches every process under the default full mesh; restricted
        topologies (gossip fan-out, committee, sharded — see
        :mod:`repro.network.topology`) narrow the receiver list.
        """
        assert self.network is not None
        if not self.alive:
            return 0
        return self.network.broadcast(self.pid, kind, payload, include_self=include_self)

    def multicast(self, receivers, kind: str, payload: Any) -> int:
        """Send one payload to an explicit receiver subset (batched).

        The building block sharded fan-outs ride on: one shared envelope,
        one batched channel draw, one bulk queue insert — see
        :meth:`repro.network.simulator.Network.multicast`.
        """
        assert self.network is not None
        if not self.alive:
            return 0
        return self.network.multicast(self.pid, receivers, kind, payload)

    def schedule(self, delay: float, action) -> None:
        """Schedule a local timer; the action is skipped if we are dead by then."""
        assert self.network is not None
        self.network.simulator.schedule(delay, _AliveGuard(self, action))

    # -- lifecycle callbacks ------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the network starts (override as needed)."""

    def on_message(self, message: "Message") -> None:
        """Called for every delivered message (override as needed)."""

    def batch_dup_seen(self) -> Optional[Set[str]]:
        """Seen-block-id set for the batch plane's duplicate-flood skip.

        Return the transport's delivered-block-id set **only** when a
        duplicate ``BlockAnnouncement`` delivery is provably a no-op in
        the scalar path (``on_message`` would just hit the transport's
        seen-set and return).  The default is ``None`` — no skip; every
        delivery dispatches through :meth:`on_message` — which is always
        safe.  ``BlockchainReplica`` overrides this with the stock-hook
        guards.
        """
        return None

    def client_op_sink(self) -> Optional[Any]:
        """Column sink equivalent to this process's ``on_client_op``, if any.

        A population workload may hand a process's whole operation
        stream to ``Simulator.schedule_column`` (whose sink pulls what is
        due when it is read) **only** when delivering an operation is
        provably ``sink.append(op)`` and nothing else.
        The default is ``None`` — every operation is dispatched to
        ``on_client_op`` at its own timestamp — which is always safe.
        ``BlockchainReplica`` overrides this with the stock-hook guard.
        """
        return None

    def crash(self) -> None:
        """Crash this process immediately.

        Liveness changes go through :meth:`crash` and :meth:`revive`: they
        invalidate the network's duplicate-skip table and enter the
        network's liveness log, which a bare assignment to ``alive`` would
        leave stale.
        """
        self.alive = False
        if self.network is not None:
            self.network._liveness_changed(self)

    def revive(self) -> None:
        """Bring a crashed process back to life (a churn rejoin).

        Starts a new incarnation: timers scheduled before the crash are
        dropped when they fire, the rejoin's ``on_start()`` sets new ones.
        """
        self.alive = True
        self.incarnation += 1
        if self.network is not None:
            self.network._liveness_changed(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flags = []
        if not self.alive:
            flags.append("crashed")
        if self.byzantine:
            flags.append("byzantine")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"{type(self).__name__}({self.pid}{suffix})"
