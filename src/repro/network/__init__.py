"""Message-passing substrate (Section 4.2 of the paper).

A deterministic discrete-event simulator plus the communication
abstractions the paper reasons about:

* :mod:`repro.network.simulator` — the event loop and virtual clock;
* :mod:`repro.network.channels` — channel models: asynchronous,
  synchronous (δ-bounded), partially synchronous (GST), lossy;
* :mod:`repro.network.process` — the process framework, wired to a shared
  :class:`~repro.core.history.HistoryRecorder`;
* :mod:`repro.network.faults` — the registered crash and Byzantine
  adversaries (crash, silent, churn, partition, eclipse);
* :mod:`repro.network.topology` — pluggable dissemination topologies
  (full mesh, gossip fan-out, committee, sharded, ring, random-regular)
  deciding who hears each broadcast, registered as spec vocabulary;
* :mod:`repro.network.broadcast` — best-effort flooding and the Light
  Reliable Communication (LRC) abstraction of Definition 4.4;
* :mod:`repro.network.update_agreement` — the Update Agreement properties
  R1–R3 (Definition 4.3) and the LRC property checker used by the
  Theorem 4.6/4.7 benches.
"""

from repro.network.simulator import Simulator, Network, Message
from repro.network.channels import (
    ChannelModel,
    SynchronousChannel,
    AsynchronousChannel,
    PartiallySynchronousChannel,
    LossyChannel,
)
from repro.network.process import Process
from repro.network.topology import (
    Topology,
    FullMesh,
    GossipFanout,
    Committee,
    Sharded,
    Ring,
    RandomRegular,
)
from repro.network.broadcast import FloodingBroadcast, LightReliableCommunication
from repro.network.update_agreement import (
    UpdateAgreementResult,
    check_update_agreement,
    check_light_reliable_communication,
)

__all__ = [
    "Simulator",
    "Network",
    "Message",
    "ChannelModel",
    "SynchronousChannel",
    "AsynchronousChannel",
    "PartiallySynchronousChannel",
    "LossyChannel",
    "Process",
    "Topology",
    "FullMesh",
    "GossipFanout",
    "Committee",
    "Sharded",
    "Ring",
    "RandomRegular",
    "FloodingBroadcast",
    "LightReliableCommunication",
    "UpdateAgreementResult",
    "check_update_agreement",
    "check_light_reliable_communication",
]
