"""Merit distributions.

Throughout Section 5 every system characterizes its participants by a
merit parameter ``α_p`` normalized so that ``Σ_p α_p = 1``: hashing power
(Bitcoin), memory bandwidth (Ethereum), stake (Algorand), or a uniform
``1/|M|`` over the permitted writers with ``0`` for everyone else
(Red Belly, Hyperledger Fabric).  This module provides those
distributions as small immutable objects consumed by the protocol runners
and by the oracle's tape family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "MeritDistribution",
    "uniform_merit",
    "zipf_merit",
    "proportional_merit",
    "permissioned_merit",
]


@dataclass(frozen=True)
class MeritDistribution:
    """An immutable map process id → normalized merit."""

    merits: Tuple[Tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.merits:
            raise ValueError("a merit distribution needs at least one process")
        total = sum(m for _, m in self.merits)
        if total <= 0:
            raise ValueError("total merit must be positive")
        if any(m < 0 for _, m in self.merits):
            raise ValueError("merits must be non-negative")
        # Lookup index for merit_of: with population-scale runs the linear
        # scan over the tuple shows up in profiles.  (object.__setattr__
        # because the dataclass is frozen; not a field, so equality and
        # serialization are unchanged.)
        object.__setattr__(self, "_index", dict(self.merits))

    # -- queries ---------------------------------------------------------------------

    def merit_of(self, process: str) -> float:
        """Merit of ``process`` (0.0 for unknown processes, as for V \\ M)."""
        return self._index.get(process, 0.0)

    @property
    def processes(self) -> Tuple[str, ...]:
        return tuple(pid for pid, _ in self.merits)

    def writers(self) -> Tuple[str, ...]:
        """Processes with strictly positive merit (the permitted appenders)."""
        return tuple(pid for pid, merit in self.merits if merit > 0)


def _pids(n: int, prefix: str = "p") -> Tuple[str, ...]:
    if n < 1:
        raise ValueError("need at least one process")
    return tuple(f"{prefix}{i}" for i in range(n))


def uniform_merit(n: int, prefix: str = "p") -> MeritDistribution:
    """``α_p = 1/n`` for every process — the symmetric baseline."""
    pids = _pids(n, prefix)
    return MeritDistribution(tuple((pid, 1.0 / n) for pid in pids))


def zipf_merit(n: int, exponent: float = 1.0, prefix: str = "p") -> MeritDistribution:
    """Zipf-skewed merits: ``α_{p_i} ∝ 1 / (i + 1)^exponent``.

    Models mining-pool style concentration; the ablation benches sweep the
    exponent to study how merit skew affects fork/convergence behaviour.
    """
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    pids = _pids(n, prefix)
    # Deliberately a scalar loop: numpy's vectorized pow differs from
    # Python's by ULPs for fractional exponents, and the stream-identity
    # tests pin these weights byte-for-byte (n is the process count, so
    # there is nothing to vectorize anyway).
    raw = np.array([1.0 / (i + 1) ** exponent for i in range(n)], dtype=float)
    weights = raw / raw.sum()
    return MeritDistribution(tuple(zip(pids, (float(w) for w in weights))))


def proportional_merit(weights: Sequence[float], prefix: str = "p") -> MeritDistribution:
    """Merits proportional to explicit weights (e.g. stake amounts)."""
    if not weights:
        raise ValueError("weights must be non-empty")
    arr = np.asarray(weights, dtype=float)
    if (arr < 0).any() or arr.sum() <= 0:
        raise ValueError("weights must be non-negative with a positive sum")
    pids = _pids(len(weights), prefix)
    normalized = arr / arr.sum()
    return MeritDistribution(tuple(zip(pids, (float(w) for w in normalized))))


def permissioned_merit(
    writers: Iterable[str], readers: Iterable[str] = ()
) -> MeritDistribution:
    """The consortium/permissioned pattern of Red Belly and Hyperledger.

    Every process in ``writers`` gets merit ``1/|writers|``; every process
    in ``readers`` gets merit ``0`` (it may read the BlockTree but never
    append).
    """
    writer_list = sorted(set(writers))
    reader_list = sorted(set(readers) - set(writer_list))
    if not writer_list:
        raise ValueError("a permissioned system needs at least one writer")
    share = 1.0 / len(writer_list)
    merits = [(pid, share) for pid in writer_list] + [(pid, 0.0) for pid in reader_list]
    return MeritDistribution(tuple(sorted(merits)))
