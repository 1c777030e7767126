"""The token oracles Θ_F and Θ_P (Definitions 3.5 and 3.6).

The oracle's abstract state is a family of merit tapes plus an infinite
array ``K[·]`` of sets, one per object (block): ``K[h]`` collects the
validated objects whose token ``tkn_h`` has been *consumed*, and the
frugal oracle refuses to grow ``K[h]`` beyond ``k`` elements.  The two
operations are:

* ``getToken(obj_h, obj_ℓ)`` — pop the invoker's tape; if the popped cell
  holds ``tkn``, return the validated object ``obj_ℓ^{tkn_h}`` (which is in
  ``O'`` by construction), otherwise return ``⊥``;
* ``consumeToken(obj_ℓ^{tkn_h})`` — insert the object into ``K[h]`` if
  ``|K[h]| < k`` and return (the current content of) ``K[h]``.

``Θ_P`` is ``Θ_F`` with ``k = ∞``.

The oracle is the *only* generator of valid blocks; the refinement in
:mod:`repro.oracle.refinement` therefore implements the BT-ADT ``append``
exclusively through these two operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.block import Block
from repro.core.history import HistoryRecorder
from repro.oracle.tape import TapeFamily

__all__ = ["ValidatedBlock", "TokenOracle", "FrugalOracle", "ProdigalOracle"]


def token_for(parent_id: str) -> str:
    """The token name ``tkn_h`` associated with parent block ``b_h``."""
    return f"tkn_{parent_id}"


def _id_of(obj: Block | str) -> str:
    return obj.block_id if isinstance(obj, Block) else obj


@dataclass(frozen=True)
class ValidatedBlock:
    """The paper's ``b_ℓ^{tkn_h}``: a block plus the token that validates it.

    The wrapped :class:`~repro.core.block.Block` is already re-parented to
    ``b_h`` and carries the token identifier in its ``token`` field, so it
    can be appended to a BlockTree directly once the token is consumed.
    """

    block: Block
    token: str
    parent_id: str

    @property
    def block_id(self) -> str:
        return self.block.block_id


class TokenOracle:
    """Common implementation of Θ_F / Θ_P.

    Parameters
    ----------
    k:
        Maximal number of tokens that may be consumed per object
        (``math.inf`` gives the prodigal oracle).
    tapes:
        The merit-tape family; a fresh one (all merits = 1, i.e. every
        ``getToken`` succeeds only with the generated Bernoulli draw) is
        created when omitted.
    recorder:
        Optional history recorder: when provided, ``getToken`` and
        ``consumeToken`` calls are logged as operation events so oracle
        histories can be inspected like any other concurrent history.
    """

    def __init__(
        self,
        k: float = math.inf,
        tapes: Optional[TapeFamily] = None,
        recorder: Optional[HistoryRecorder] = None,
    ) -> None:
        if not (k == math.inf or (isinstance(k, (int, float)) and k >= 1)):
            raise ValueError(f"k must be >= 1 or infinity, got {k}")
        self.k = k
        self.tapes = tapes if tapes is not None else TapeFamily()
        self._consumed: Dict[str, List[ValidatedBlock]] = {}
        self._granted_tokens: Dict[str, int] = {}
        self._recorder = recorder

    # -- the two oracle operations -------------------------------------------

    def get_token(
        self,
        parent: Block | str | Callable[[], Block | str],
        block: Block | Callable[[], Block],
        process: Optional[str] = None,
    ) -> Optional[ValidatedBlock]:
        """``getToken(obj_h, obj_ℓ)``.

        Pops one cell of the invoking process's tape.  On success, the
        block is re-parented under ``parent``, stamped with ``tkn_h`` and
        returned as a :class:`ValidatedBlock` (an element of ``O'``).  On
        failure returns ``None`` (the paper's ``⊥``).

        The tape decides first.  ``parent`` and ``block`` may each be a
        zero-argument callable; each is called at most once, parent
        before block.  With a named ``process`` and no recorder the cell
        is popped before either is resolved, so a ⊥ calls neither — a
        miner asking for its selected tip and its candidate pays for
        them only when it wins.  A recorder logs the invocation with both
        ids, and without ``process`` the invoker is the block's creator,
        so in those two cases both are resolved before the pop.
        """
        if process is not None and self._recorder is None:
            if not self.tapes.draw(process):
                return None
            return self._grant(
                parent() if callable(parent) else parent,
                block() if callable(block) else block,
            )
        if callable(parent):
            parent = parent()
        if callable(block):
            block = block()
        invoker = process if process is not None else (block.creator or "p?")
        op = self._invoke(invoker, "getToken", (_id_of(parent), block.block_id))
        result = self._grant(parent, block) if self.tapes.draw(invoker) else None
        self._respond(op, result)
        return result

    def _grant(self, parent: Block | str, block: Block) -> ValidatedBlock:
        """The won lottery's ``b_ℓ^{tkn_h}``, counted as granted for ``b_h``."""
        parent_id = _id_of(parent)
        token = token_for(parent_id)
        validated = block.with_parent(parent_id).with_token(token)
        self._granted_tokens[parent_id] = self._granted_tokens.get(parent_id, 0) + 1
        return ValidatedBlock(block=validated, token=token, parent_id=parent_id)

    def consume_token(
        self, validated: ValidatedBlock, process: Optional[str] = None
    ) -> Tuple[ValidatedBlock, ...]:
        """``consumeToken(obj_ℓ^{tkn_h})``.

        Adds the validated block to ``K[h]`` provided ``|K[h]| < k`` and
        returns the (possibly unchanged) content of ``K[h]``.  The return
        value is what the refinement's ``evaluate`` inspects to decide the
        ``append`` output, and what the consensus reduction of Section 4.1
        decides on.
        """
        invoker = process if process is not None else (validated.block.creator or "p?")
        op = self._invoke(invoker, "consumeToken", validated)
        bucket = self._consumed.setdefault(validated.parent_id, [])
        already = any(v.block_id == validated.block_id for v in bucket)
        if not already and len(bucket) < self.k:
            bucket.append(validated)
        result = tuple(bucket)
        self._respond(op, result)
        return result

    # -- inspection -----------------------------------------------------------

    def consumed_for(self, parent_id: str) -> Tuple[ValidatedBlock, ...]:
        """Current content of ``K[parent]`` (the ``get(K, h)`` helper)."""
        return tuple(self._consumed.get(parent_id, ()))

    def consumed_counts(self) -> Dict[str, int]:
        """Number of consumed tokens per parent block (``|K[h]|``)."""
        return {parent: len(blocks) for parent, blocks in self._consumed.items()}

    def granted_counts(self) -> Dict[str, int]:
        """Number of tokens *granted* per parent (≥ consumed; for analyses)."""
        return dict(self._granted_tokens)

    @property
    def is_fork_free(self) -> bool:
        """``True`` for the k=1 oracle, the one with consensus power."""
        return self.k == 1

    # -- recording ---------------------------------------------------------------

    def _invoke(self, process: str, operation: str, argument: object):
        if self._recorder is None:
            return None
        return self._recorder.invoke(process, operation, argument)

    def _respond(self, op, output: object) -> None:
        if self._recorder is not None and op is not None:
            self._recorder.respond(op, output)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "ProdigalOracle" if self.k == math.inf else f"FrugalOracle(k={self.k})"
        return f"{kind}(parents_with_consumed={len(self._consumed)})"


class FrugalOracle(TokenOracle):
    """Θ_{F,k}: at most ``k`` consumed tokens per block (Definition 3.5)."""

    def __init__(
        self,
        k: int = 1,
        tapes: Optional[TapeFamily] = None,
        recorder: Optional[HistoryRecorder] = None,
    ) -> None:
        if k == math.inf:
            raise ValueError("use ProdigalOracle for k = ∞")
        if int(k) != k or k < 1:
            raise ValueError(f"frugal oracle requires an integer k >= 1, got {k}")
        super().__init__(k=int(k), tapes=tapes, recorder=recorder)


class ProdigalOracle(TokenOracle):
    """Θ_P: the frugal oracle with ``k = ∞`` (Definition 3.6)."""

    def __init__(
        self,
        tapes: Optional[TapeFamily] = None,
        recorder: Optional[HistoryRecorder] = None,
    ) -> None:
        super().__init__(k=math.inf, tapes=tapes, recorder=recorder)
