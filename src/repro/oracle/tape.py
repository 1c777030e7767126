"""Merit tapes: the oracle's source of token lotteries.

For each merit value ``α_i`` the oracle's state contains an infinite tape
over ``{tkn, ⊥}`` whose cells form "a pseudorandom sequence mostly
indistinguishable from a Bernoulli sequence" with success probability
``p_{α_i}`` (Section 3.2.1, footnote 3).  ``getToken`` pops the head of
the invoking process's tape and succeeds iff the popped cell contains
``tkn``.

The merit parameter abstracts the invoking process's "power" — hashing
power in Bitcoin, memory bandwidth in Ethereum, stake in Algorand — and
the mapping merit → success probability is a parameter of the model
(:class:`TapeFamily.probability_of`).

Implementations:

* :class:`MeritTape` — lazily evaluated Bernoulli tape driven by a seeded
  :class:`numpy.random.Generator` (deterministic given the seed);
* :class:`DeterministicTape` — an explicitly scripted tape, used by unit
  tests and by the worked examples that need full control of the lottery.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["TOKEN", "BOTTOM", "MeritTape", "DeterministicTape", "TapeFamily"]

#: The tape symbol meaning "a token is granted".
TOKEN = "tkn"
#: The tape symbol meaning "no token this time" (the paper's ⊥).
BOTTOM = "⊥"


class MeritTape:
    """Infinite Bernoulli tape for one merit value.

    Cells are generated lazily in blocks of ``block_size`` draws so that
    protocol runs performing millions of ``getToken`` calls stay in NumPy
    rather than paying one RNG call per draw.  The current block is kept
    whole, as a list of bools read at a cursor: popping a cell is one
    index and one increment, and whether it holds :data:`TOKEN` is known
    before the caller has looked at anything else — which is what lets
    ``getToken`` answer ⊥ without consulting a tree.

    Parameters
    ----------
    probability:
        Success probability ``p_α`` of each cell containing :data:`TOKEN`.
        Must lie in ``(0, 1]``: the paper requires ``p_{α_i} > 0`` so that
        every process eventually obtains a token.
    seed:
        Seed of the underlying generator; two tapes with the same seed and
        probability produce identical sequences.
    """

    #: Index of the head cell in ``_buffer``.  A class default so that a
    #: tape pickled when ``_buffer`` held only the remaining cells (and
    #: had no cursor) restores with its head at index 0.
    _cursor = 0

    def __init__(self, probability: float, seed: int = 0, block_size: int = 1024) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"token probability must be in (0, 1], got {probability}")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.probability = float(probability)
        self._rng = np.random.default_rng(seed)
        self._block_size = block_size
        self._buffer: List[bool] = []
        self._cursor = 0
        self._position = 0  # number of cells popped so far

    def _refill(self) -> None:
        self._buffer = (self._rng.random(self._block_size) < self.probability).tolist()
        self._cursor = 0

    def head(self) -> str:
        """Peek at the current head cell without consuming it."""
        if self._cursor >= len(self._buffer):
            self._refill()
        return TOKEN if self._buffer[self._cursor] else BOTTOM

    def pop(self) -> str:
        """Consume and return the head cell (the oracle's ``pop``)."""
        if self._cursor >= len(self._buffer):
            self._refill()
        cursor = self._cursor
        self._cursor = cursor + 1
        self._position += 1
        return TOKEN if self._buffer[cursor] else BOTTOM

    @property
    def cells_consumed(self) -> int:
        """Number of cells popped so far (used by fairness analyses)."""
        return self._position


class DeterministicTape:
    """A tape whose cells are scripted explicitly.

    ``pattern`` is any iterable of booleans / tape symbols; once the
    pattern is exhausted the tape repeats its ``tail`` value (default: keep
    granting tokens, which keeps worked examples terminating).
    """

    def __init__(self, pattern: Sequence[object], tail: bool = True) -> None:
        self._cells: List[bool] = [self._coerce(c) for c in pattern]
        self._tail = bool(tail)
        self._position = 0
        self.probability = 1.0 if tail else 0.0

    @staticmethod
    def _coerce(cell: object) -> bool:
        if isinstance(cell, bool):
            return cell
        if cell == TOKEN:
            return True
        if cell == BOTTOM:
            return False
        raise ValueError(f"unrecognized tape cell {cell!r}")

    def head(self) -> str:
        if self._position < len(self._cells):
            return TOKEN if self._cells[self._position] else BOTTOM
        return TOKEN if self._tail else BOTTOM

    def pop(self) -> str:
        value = self.head()
        self._position += 1
        return value

    @property
    def cells_consumed(self) -> int:
        return self._position


@dataclass
class TapeFamily:
    """The oracle's map ``m(α_i) -> tape_{α_i}`` (one tape per merit).

    Merit values are identified by the invoking process identifier; the
    merit assignment itself (process → α) lives in
    :mod:`repro.workload.merit`.  ``probability_scale`` converts a merit
    ``α`` into the per-draw success probability ``p_α``; the default is
    the identity clipped to ``(ε, 1]`` which matches the normalized-merit
    convention (``Σ α_p = 1``) used throughout Section 5.

    Explicitly registered tapes (:meth:`set_tape`) take precedence over
    generated ones, which is how tests inject :class:`DeterministicTape`.
    """

    seed: int = 0
    probability_scale: float = 1.0
    min_probability: float = 1e-6
    _tapes: Dict[str, object] = field(default_factory=dict)
    _merits: Dict[str, float] = field(default_factory=dict)

    def register_merit(self, process: str, merit: float) -> None:
        """Declare the merit ``α`` of ``process`` (idempotent)."""
        if merit < 0:
            raise ValueError("merit must be non-negative")
        self._merits[process] = float(merit)

    def merit_of(self, process: str) -> float:
        """Merit of ``process`` (defaults to 1.0 when never registered)."""
        return self._merits.get(process, 1.0)

    def probability_of(self, process: str) -> float:
        """Per-draw token probability ``p_α`` for ``process``."""
        p = self.merit_of(process) * self.probability_scale
        return float(min(1.0, max(self.min_probability, p)))

    def set_tape(self, process: str, tape: object) -> None:
        """Install an explicit tape for ``process`` (tests, worked examples)."""
        self._tapes[process] = tape

    def tape_of(self, process: str) -> object:
        """Return (creating lazily) the tape of ``process``."""
        if process not in self._tapes:
            # Stable per-process sub-seed (independent of interpreter hash
            # randomization) so runs are reproducible regardless of the order
            # in which processes first call the oracle.
            sub_seed = (zlib.crc32(process.encode("utf-8")) & 0xFFFF_FFFF) ^ self.seed
            self._tapes[process] = MeritTape(self.probability_of(process), seed=sub_seed)
        return self._tapes[process]

    def draw(self, process: str) -> bool:
        """Pop the head of ``process``'s tape; ``True`` iff it holds a token."""
        tape = self._tapes.get(process)
        if tape is None:
            tape = self.tape_of(process)
        return tape.pop() == TOKEN

    def processes(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self._merits) | set(self._tapes)))
