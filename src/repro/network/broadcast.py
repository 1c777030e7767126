"""Communication abstractions: flooding and Light Reliable Communication.

Definition 4.4 introduces the **Light Reliable Communication (LRC)**
abstraction, a weakening of reliable broadcast keeping only its liveness
flavour:

* *Validity* — if a correct process sends a message, it eventually
  receives it;
* *Agreement* — if a message is received by some correct process, it is
  eventually received by every correct process.

Theorem 4.7 shows LRC is necessary for Eventual Consistency; the protocol
models therefore disseminate blocks through one of the two primitives
below, and the benches break them (by injecting loss) to reproduce the
necessity result.

* :class:`FloodingBroadcast` — best effort: one send per destination over
  the underlying channel, no retransmission.  Over reliable channels this
  *implements* LRC; over lossy channels it does not (which is the point).
* :class:`LightReliableCommunication` — flooding plus gossip-style relay:
  on first reception every process forwards the message once to everyone.
  This tolerates the loss of any single copy (and most multi-loss
  patterns), mirroring how Bitcoin/Ethereum-style dissemination achieves
  the LRC properties in practice.

Both primitives record the paper's ``send``/``receive`` replication events
through the shared history recorder; the ``update`` event is recorded by
the replica when it applies the block (see :mod:`repro.protocols.base`).

Dissemination rides the network's batched message plane: an n-way
``disseminate`` (and every LRC relay) is one shared envelope, one batched
channel draw and one bulk queue insert through
:meth:`repro.network.simulator.Network.multicast` — the LRC relay storm in
particular no longer allocates O(n²) per-recipient closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.core.block import Block
from repro.network.process import Process
from repro.network.simulator import Message

__all__ = ["BlockAnnouncement", "FloodingBroadcast", "LightReliableCommunication"]

#: Message kind used for block dissemination.
BLOCK_KIND = "block"


@dataclass(frozen=True, slots=True)
class BlockAnnouncement:
    """Payload of a block dissemination message: ``(parent id, block)``."""

    parent_id: str
    block: Block

    @property
    def block_id(self) -> str:
        return self.block.block_id


class FloodingBroadcast:
    """Best-effort dissemination: send once to every process, never relay."""

    def __init__(self, owner: Process) -> None:
        self.owner = owner
        self._delivered: Set[str] = set()
        self._on_deliver: Optional[Callable[[BlockAnnouncement, str], None]] = None

    def on_deliver(self, callback: Callable[[BlockAnnouncement, str], None]) -> None:
        """Register the replica callback invoked on first delivery of a block."""
        self._on_deliver = callback

    # -- sending ------------------------------------------------------------------

    def disseminate(self, announcement: BlockAnnouncement) -> None:
        """Send the announcement to every process (including ourselves).

        Records the ``send`` replication event once (the paper's
        ``send_i(b_g, b)`` is a single event regardless of fan-out).
        """
        self.owner.recorder.send(
            self.owner.pid, announcement.parent_id, announcement.block_id
        )
        self.owner.broadcast(BLOCK_KIND, announcement, include_self=True)

    # -- receiving ------------------------------------------------------------------

    def handle(self, message: Message) -> Optional[BlockAnnouncement]:
        """Process a delivery; returns the announcement on *first* delivery."""
        if message.kind != BLOCK_KIND:
            return None
        announcement: BlockAnnouncement = message.payload
        if announcement.block_id in self._delivered:
            return None
        self._delivered.add(announcement.block_id)
        self.owner.recorder.receive(
            self.owner.pid, announcement.parent_id, announcement.block_id
        )
        if self._on_deliver is not None:
            self._on_deliver(announcement, message.sender)
        return announcement

    @property
    def delivered_blocks(self) -> Tuple[str, ...]:
        return tuple(sorted(self._delivered))


class LightReliableCommunication(FloodingBroadcast):
    """Flooding with relay-on-first-reception (gossip).

    Every process forwards each announcement exactly once upon first
    receiving it.  If *some* correct process receives the announcement, its
    relay gives every other correct process ``n - 1`` additional chances to
    receive it — over channels that drop messages independently this is
    what makes the LRC Agreement property hold except with vanishing
    probability, and over reliable channels it holds deterministically.
    """

    def __init__(self, owner: Process, relay: bool = True) -> None:
        super().__init__(owner)
        self.relay = relay
        self.relayed = 0

    def handle(self, message: Message) -> Optional[BlockAnnouncement]:
        announcement = super().handle(message)
        if announcement is not None and self.relay and message.sender != self.owner.pid:
            # Forward once; do not re-record a send event (the relay is part
            # of the communication abstraction, not a new update by us).
            self.owner.broadcast(BLOCK_KIND, announcement, include_self=False)
            self.relayed += 1
        return announcement
