"""The eager mining attempt: the designated oracle for the lazy one.

``NakamotoReplica.try_mine`` hands ``TokenOracle.get_token`` a callable
and builds the candidate block only when the lottery is won; a lost
attempt burns what the discarded candidate used to consume.  What that
replaced lives here, for the tests only, with the old bodies verbatim:

* :class:`ReferenceMiner` — ``try_mine`` as it was: payload, candidate
  (one selection), tip (a second selection), ``getToken``, every time;
* :class:`ReferenceProdigalOracle` — ``get_token`` as it was: the block
  is an argument, the tape is popped after the invocation is logged.

``tests/protocols/test_lazy_mining.py`` runs the same system with and
without them and compares everything an attempt can touch.  Do not
"optimize" anything in this module.
"""

from __future__ import annotations

from typing import Optional

from repro.core.block import Block
from repro.oracle.theta import ProdigalOracle, ValidatedBlock, token_for
from repro.protocols.nakamoto import NakamotoReplica


class ReferenceMiner(NakamotoReplica):
    """A miner whose every attempt builds its candidate first."""

    def try_mine(self) -> bool:
        candidate = self.make_candidate(payload=self._next_payload())
        parent = self.current_tip()
        validated = self.oracle.get_token(parent, candidate, process=self.pid)
        if validated is None:
            return False
        consumed = self.oracle.consume_token(validated, process=self.pid)
        if not any(v.block_id == validated.block_id for v in consumed):
            return False
        return self.commit_local_block(validated)


class ReferenceProdigalOracle(ProdigalOracle):
    """Θ_P whose ``getToken`` takes the block itself, never a callable."""

    def get_token(
        self, parent: Block | str, block: Block, process: Optional[str] = None
    ) -> Optional[ValidatedBlock]:
        parent_id = parent.block_id if isinstance(parent, Block) else parent
        invoker = process if process is not None else (block.creator or "p?")
        op = self._invoke(invoker, "getToken", (parent_id, block.block_id))
        success = self.tapes.draw(invoker)
        result: Optional[ValidatedBlock] = None
        if success:
            token = token_for(parent_id)
            validated = block.with_parent(parent_id).with_token(token)
            result = ValidatedBlock(block=validated, token=token, parent_id=parent_id)
        self._respond(op, result)
        return result
