"""Models of the blockchain systems classified in Table 1.

Each module models one of the systems of Section 5 at the level of detail
that the paper's classification depends on — the validation oracle the
system maps to, its chain-selection / commit rule, and its communication
pattern — on top of the message-passing substrate of :mod:`repro.network`:

* :mod:`repro.protocols.base` — the replicated-BlockTree replica, the
  run harness shared by every model, and the adapter that turns a
  system's declaration into its ``run_*`` callable;
* :mod:`repro.protocols.nakamoto` — Bitcoin: proof-of-work lottery
  (prodigal oracle), heaviest/longest chain, flooding;
* :mod:`repro.protocols.ghost` — Ethereum: same oracle, GHOST selection;
* :mod:`repro.protocols.committee` — the generic committee/consensus
  engine (leader proposal + votes + commit) several systems build on;
* :mod:`repro.protocols.byzcoin`, :mod:`repro.protocols.algorand`,
  :mod:`repro.protocols.peercensus`, :mod:`repro.protocols.redbelly`,
  :mod:`repro.protocols.hyperledger` — the strongly consistent systems,
  all mapping to the frugal oracle with k = 1;
* :mod:`repro.protocols.classification` — run a model, extract its
  history, and classify it in the refinement hierarchy (reproducing
  Table 1).
"""

from repro.protocols.base import BlockchainReplica, ReplicaConfig, RunResult, run_protocol
from repro.protocols.nakamoto import NakamotoReplica, run_bitcoin
from repro.protocols.ghost import EthereumReplica, run_ethereum
from repro.protocols.committee import CommitteeReplica, CommitteeConfig, run_committee
from repro.protocols.byzcoin import run_byzcoin
from repro.protocols.algorand import run_algorand
from repro.protocols.peercensus import run_peercensus
from repro.protocols.redbelly import run_redbelly
from repro.protocols.hyperledger import run_hyperledger
from repro.protocols.classification import ClassificationResult, classify_run, reproduce_table1

__all__ = [
    "BlockchainReplica",
    "ReplicaConfig",
    "RunResult",
    "run_protocol",
    "NakamotoReplica",
    "run_bitcoin",
    "EthereumReplica",
    "run_ethereum",
    "CommitteeReplica",
    "CommitteeConfig",
    "run_committee",
    "run_byzcoin",
    "run_algorand",
    "run_peercensus",
    "run_redbelly",
    "run_hyperledger",
    "ClassificationResult",
    "classify_run",
    "reproduce_table1",
]
