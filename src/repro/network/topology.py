"""Dissemination topologies: who hears a broadcast.

Until this module existed every protocol model was hard-wired to
full-mesh dissemination: a ``broadcast`` reached every registered
process.  The paper's system landscape (Table 1) is much richer —
ByzCoin and PeerCensus disseminate consensus traffic inside a committee,
Algorand's sortition committees restrict who votes, and every deployed
proof-of-work network gossips to a small peer sample rather than
flooding the planet.  A :class:`Topology` makes that dimension a
first-class, declarative layer of the message plane:

* the :class:`~repro.network.simulator.Network` owns one topology
  (default :class:`FullMesh`, byte-identical to the pre-topology
  broadcast path) and routes every ``broadcast`` through
  ``multicast(sender, topology.receivers(sender, pids), ...)``;
* topologies are *registered* (``@register_topology``), mirroring
  ``@register_protocol``, so the engine's
  :class:`~repro.engine.spec.TopologySpec` can name them declaratively
  (``--topology gossip``, sweep grids over topology kinds);
* all randomness is owned by the topology and seeded at construction, so
  a ``(seed, workload)`` pair still reproduces the whole run bit for bit.

Static vs. dynamic
------------------
A topology with ``static = True`` has a fixed receiver list per sender
for a given membership; the network caches those lists (invalidated when
:meth:`~repro.network.simulator.Network.register` changes membership)
exactly like the full-mesh ``_others`` exclusion cache.  A dynamic
topology (``static = False``, e.g. :class:`GossipFanout`) is consulted on
every fan-out and draws from its own seeded generator.

Receiver-order contract
-----------------------
Receiver order determines queue sequence numbers and therefore event
tie-breaks, so it is part of each topology's determinism contract:
deterministic topologies emit receivers in registration order (making
:class:`FullMesh` — and :class:`Committee` for member senders —
event-for-event identical to the pre-topology broadcast), while sampled
topologies (:class:`GossipFanout`) emit them in draw order.
"""

from __future__ import annotations

import inspect
import math
import random
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.errors import UnknownVocabularyError

__all__ = [
    "Topology",
    "FullMesh",
    "GossipFanout",
    "Committee",
    "Sharded",
    "Ring",
    "RandomRegular",
    "register_topology",
    "available_topologies",
    "get_topology",
    "TOPOLOGY_REGISTRY",
]

Pids = Tuple[str, ...]


class Topology(ABC):
    """Maps ``(sender, processes)`` to the receivers of a fan-out.

    ``processes`` is always the network's registered pid tuple in
    registration order; ``neighbors`` returns the subset (excluding the
    sender) that a broadcast by ``sender`` reaches.  :meth:`receivers`
    adds the ``include_self`` dimension the broadcast API exposes (a
    replica's own dissemination echo is how the paper's ``receive_i``
    event for the creator is recorded).
    """

    #: Static topologies have fixed per-sender receiver lists for a given
    #: membership; the network caches them.  Dynamic topologies (gossip)
    #: are consulted per fan-out.
    static: bool = True

    @abstractmethod
    def neighbors(self, sender: str, processes: Pids) -> Pids:
        """Receivers of ``sender``'s fan-out among ``processes`` (sender excluded)."""

    def receivers(self, sender: str, processes: Pids, include_self: bool = False) -> Pids:
        """The full receiver list of one broadcast by ``sender``."""
        selected = self.neighbors(sender, processes)
        if include_self:
            return (sender, *selected)
        return selected

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# registry (mirrors @register_protocol)
# ---------------------------------------------------------------------------

#: Name -> topology class, in registration order.
TOPOLOGY_REGISTRY: Dict[str, Type[Topology]] = {}


def register_topology(name: str):
    """Class decorator: register a :class:`Topology` under ``name``.

    The decorated class is returned unchanged; a name collision raises so
    two modules cannot silently shadow each other's topologies (the same
    contract as ``@register_protocol``).
    """

    def decorate(cls: Type[Topology]) -> Type[Topology]:
        if name in TOPOLOGY_REGISTRY:
            raise ValueError(f"topology {name!r} already registered")
        TOPOLOGY_REGISTRY[name] = cls
        return cls

    return decorate


def available_topologies() -> Tuple[str, ...]:
    """Names of every registered topology."""
    return tuple(TOPOLOGY_REGISTRY)


def get_topology(name: str) -> Type[Topology]:
    """Resolve ``name`` to its topology class.

    Raises the uniform :class:`~repro.core.errors.UnknownVocabularyError`
    listing the registered names, like every other spec vocabulary.
    """
    try:
        return TOPOLOGY_REGISTRY[name]
    except KeyError:
        raise UnknownVocabularyError("topology", name, TOPOLOGY_REGISTRY) from None


def topology_accepts_seed(cls: Type[Topology]) -> bool:
    """``True`` iff the topology constructor takes a ``seed`` keyword."""
    return "seed" in inspect.signature(cls).parameters


# ---------------------------------------------------------------------------
# implementations
# ---------------------------------------------------------------------------


@register_topology("full")
class FullMesh(Topology):
    """Everyone hears everyone: the pre-topology broadcast semantics.

    The receiver lists are exactly the ones the pre-topology path built
    (the registered pid tuple with ``include_self``, the exclusion list
    without), so routing the default broadcast through this class is
    event-for-event identical to the historical ``_others`` path — the
    equivalence the topology test suite pins across all channel models.
    """

    def neighbors(self, sender: str, processes: Pids) -> Pids:
        return tuple(pid for pid in processes if pid != sender)

    def receivers(self, sender: str, processes: Pids, include_self: bool = False) -> Pids:
        if include_self:
            # The registered tuple itself: same object, same order, same
            # queue sequence numbers as the pre-topology broadcast.
            return processes
        return self.neighbors(sender, processes)


@register_topology("gossip")
class GossipFanout(Topology):
    """Epidemic gossip: each fan-out reaches ``fanout`` random peers.

    Every broadcast draws a fresh uniform sample of ``min(fanout, n-1)``
    distinct other processes from the topology's own seeded generator, so
    two runs with the same seed traverse identical receiver sequences
    (the determinism tests assert this).  Combined with the LRC relay
    (forward once on first reception) this is exactly how Bitcoin-style
    networks achieve reliable dissemination with per-node cost ``O(k)``
    instead of ``O(n)`` — the fan-out-vs-flood trade that
    ``tests/engine/test_topology_spec.py::TestBuild::test_execute_with_topology``
    bounds (message volume strictly below full flood).
    """

    static = False

    def __init__(self, fanout: int = 3, seed: int = 0) -> None:
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.fanout = fanout
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def neighbors(self, sender: str, processes: Pids) -> Pids:
        others = [pid for pid in processes if pid != sender]
        k = min(self.fanout, len(others))
        if k <= 0:
            return ()
        if k == len(others):
            return tuple(others)
        chosen = self._rng.choice(len(others), size=k, replace=False)
        return tuple(others[i] for i in chosen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GossipFanout(fanout={self.fanout}, seed={self.seed})"


@register_topology("committee")
class Committee(Topology):
    """Committee-centred dissemination (ByzCoin / Algorand / Red Belly).

    Members of the committee fan out to every process (so observers still
    learn decided blocks) while non-members only reach the committee
    (clients submit upward, they do not flood the network).  With
    ``include_observers=False`` the committee closes entirely: members
    reach only members — the "committee-only dissemination" regime that
    ``tests/engine/test_topology_spec.py::TestBuild::test_execute_with_topology``
    bounds against the open committee.

    ``members`` may be given explicitly; otherwise the first
    ``ceil(fraction * n)`` registered processes form the committee, which
    matches how the protocol runners name their writer sets (``p0..pk``).
    When every process is a member (the default committee protocols), the
    receiver lists are identical to :class:`FullMesh` — including order —
    so expressing a committee through this topology never perturbs an
    existing run.
    """

    def __init__(
        self,
        members: Optional[Sequence[str]] = None,
        fraction: float = 2.0 / 3.0,
        include_observers: bool = True,
    ) -> None:
        if members is None and not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.members = tuple(members) if members is not None else None
        self.fraction = fraction
        self.include_observers = include_observers

    def members_of(self, processes: Pids) -> Pids:
        """The committee, in registration order."""
        if self.members is not None:
            member_set = set(self.members)
            unknown = member_set - set(processes)
            if unknown:
                raise KeyError(
                    f"committee members {sorted(unknown)} are not registered processes"
                )
            return tuple(pid for pid in processes if pid in member_set)
        count = max(1, math.ceil(self.fraction * len(processes)))
        return processes[:count]

    def neighbors(self, sender: str, processes: Pids) -> Pids:
        members = self.members_of(processes)
        if sender in members:
            if self.include_observers:
                return tuple(pid for pid in processes if pid != sender)
            return tuple(pid for pid in members if pid != sender)
        return members

    def receivers(self, sender: str, processes: Pids, include_self: bool = False) -> Pids:
        if include_self and self.include_observers and sender in self.members_of(processes):
            # Same tuple/order as FullMesh: a member's open broadcast is
            # byte-identical to the pre-topology path.
            return processes
        return super().receivers(sender, processes, include_self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        who = list(self.members) if self.members is not None else f"fraction={self.fraction:.2f}"
        return f"Committee(members={who}, include_observers={self.include_observers})"


@register_topology("sharded")
class Sharded(Topology):
    """Shards with gateway cross-links.

    Processes are partitioned into shards — either explicitly via
    ``groups`` (lists of pids) or into ``shards`` contiguous
    registration-order slices of near-equal size.  Within a shard every
    member hears every other member; the first ``cross_links`` members of
    each shard act as *gateways* and are additionally connected to every
    other shard's gateways.  With ``cross_links >= 1`` the gateway clique
    keeps the graph connected, so LRC-style relays still disseminate
    blocks globally (shard → gateway → foreign gateways → foreign
    shards), at multi-hop latency — the cross-shard regime the ROADMAP's
    sharded-sweep direction targets.
    """

    def __init__(
        self,
        shards: int = 2,
        cross_links: int = 1,
        groups: Optional[Sequence[Sequence[str]]] = None,
    ) -> None:
        if groups is None and shards < 1:
            raise ValueError("shards must be >= 1")
        if cross_links < 0:
            raise ValueError("cross_links must be >= 0")
        self.shards = shards
        self.cross_links = cross_links
        self.groups = tuple(tuple(g) for g in groups) if groups is not None else None

    def shards_of(self, processes: Pids) -> Tuple[Pids, ...]:
        """The shard partition, each shard in registration order."""
        if self.groups is not None:
            assigned = [pid for group in self.groups for pid in group]
            if len(assigned) != len(set(assigned)):
                raise ValueError("sharded groups overlap")
            missing = set(processes) - set(assigned)
            unknown = set(assigned) - set(processes)
            if unknown:
                raise KeyError(
                    f"sharded groups name unregistered processes {sorted(unknown)}"
                )
            if missing:
                raise KeyError(
                    f"sharded groups leave processes unassigned: {sorted(missing)}"
                )
            return tuple(
                tuple(pid for pid in processes if pid in set(group))
                for group in self.groups
            )
        count = min(self.shards, len(processes)) or 1
        bounds = np.linspace(0, len(processes), count + 1).round().astype(int)
        return tuple(
            tuple(processes[bounds[i] : bounds[i + 1]]) for i in range(count)
        )

    def neighbors(self, sender: str, processes: Pids) -> Pids:
        partition = self.shards_of(processes)
        mine: Optional[Pids] = None
        for shard in partition:
            if sender in shard:
                mine = shard
                break
        if mine is None:  # pragma: no cover - shards_of covers all processes
            raise KeyError(f"process {sender!r} is not assigned to any shard")
        out: List[str] = [pid for pid in mine if pid != sender]
        if sender in mine[: self.cross_links]:
            seen = set(out)
            for shard in partition:
                if shard is mine:
                    continue
                for gateway in shard[: self.cross_links]:
                    if gateway not in seen:
                        seen.add(gateway)
                        out.append(gateway)
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = f"groups={self.groups!r}" if self.groups is not None else f"shards={self.shards}"
        return f"Sharded({shape}, cross_links={self.cross_links})"


@register_topology("ring")
class Ring(Topology):
    """A ring in registration order: each process reaches ``hops`` each way.

    The minimal connected topology — the worst case for dissemination
    latency (diameter ``n / 2``) and the cheapest in message volume.
    """

    def __init__(self, hops: int = 1) -> None:
        if hops < 1:
            raise ValueError("hops must be >= 1")
        self.hops = hops

    def neighbors(self, sender: str, processes: Pids) -> Pids:
        n = len(processes)
        if n <= 1:
            return ()
        index = processes.index(sender)
        span = set()
        for hop in range(1, self.hops + 1):
            span.add((index + hop) % n)
            span.add((index - hop) % n)
        span.discard(index)
        return tuple(processes[i] for i in sorted(span))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ring(hops={self.hops})"


@register_topology("random-regular")
class RandomRegular(Topology):
    """An (approximately) ``degree``-regular random overlay.

    The graph is the union of ``ceil(degree / 2)`` Hamiltonian cycles,
    each drawn from a seeded shuffle — the classic peer-sampling overlay
    shape: connected by construction (every cycle alone is), symmetric,
    and with every node's degree in ``[2, 2 * ceil(degree / 2)]`` (below
    ``degree`` only when duplicate edges collapse).  The adjacency is a
    pure function of ``(seed, membership)``: it is rebuilt from scratch
    for a given pid tuple rather than consuming a mutable stream, so
    cache invalidation on (re-)registration cannot shift the graph of an
    unchanged membership.
    """

    def __init__(self, degree: int = 4, seed: int = 0) -> None:
        if degree < 2:
            raise ValueError("degree must be >= 2")
        self.degree = degree
        self.seed = seed

    def adjacency(self, processes: Pids) -> Dict[str, Pids]:
        """The full neighbor map for ``processes`` (deterministic)."""
        n = len(processes)
        links: Dict[str, List[str]] = {pid: [] for pid in processes}
        if n > 1:
            rng = random.Random(f"{self.seed}|{'|'.join(processes)}")
            rounds = max(1, -(-self.degree // 2))
            for _ in range(rounds):
                order = list(processes)
                rng.shuffle(order)
                for i, pid in enumerate(order):
                    peer = order[(i + 1) % n]
                    if peer != pid and peer not in links[pid]:
                        links[pid].append(peer)
                        links[peer].append(pid)
        # Registration order, like every deterministic topology.
        position = {pid: i for i, pid in enumerate(processes)}
        return {
            pid: tuple(sorted(peers, key=position.__getitem__))
            for pid, peers in links.items()
        }

    def neighbors(self, sender: str, processes: Pids) -> Pids:
        return self.adjacency(processes)[sender]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomRegular(degree={self.degree}, seed={self.seed})"


def build_topology(kind: str, params: Optional[Dict[str, Any]] = None, seed: int = 0) -> Topology:
    """Construct a registered topology from plain data.

    The declarative entry point :class:`~repro.engine.spec.TopologySpec`
    delegates here: ``kind`` resolves through the registry and ``seed`` is
    forwarded only to topologies whose constructor accepts one (and only
    when ``params`` does not already pin it), so a single spec-level seed
    reproduces the whole run.
    """
    cls = get_topology(kind)
    kwargs = dict(params or {})
    if topology_accepts_seed(cls) and "seed" not in kwargs:
        kwargs["seed"] = seed
    return cls(**kwargs)
