"""Token oracles Θ and the oracle-based refinement of the BT-ADT.

Section 3.2 of the paper encapsulates the block-creation / validation
process in a *token oracle*: a process may append a block ``b_ℓ`` under a
block ``b_h`` only after obtaining (``getToken``) and consuming
(``consumeToken``) a token ``tkn_h`` for ``b_h``.  Two oracles are defined:

* the **prodigal** oracle Θ_P puts no bound on the number of tokens
  consumed per block (unbounded forks — proof-of-work systems);
* the **frugal** oracle Θ_{F,k} allows at most ``k`` consumed tokens per
  block (at most ``k`` forks; ``k = 1`` forbids forks entirely —
  consensus-based systems).

Modules:

* :mod:`repro.oracle.tape` — merit-parameterized pseudorandom token tapes;
* :mod:`repro.oracle.theta` — the Θ_F / Θ_P abstract data types;
* :mod:`repro.oracle.refinement` — the refinement R(BT-ADT, Θ) whose
  ``append`` is ``getToken*; consumeToken`` (Definition 3.7);
* :mod:`repro.oracle.fork_coherence` — the k-Fork-Coherence checker
  (Definition 3.9 / Theorem 3.2).
"""

from repro.oracle.tape import MeritTape, TapeFamily, DeterministicTape
from repro.oracle.theta import TokenOracle, FrugalOracle, ProdigalOracle, ValidatedBlock
from repro.oracle.theta_adt import ThetaADT, ProdigalADT, ThetaState, GetToken, ConsumeToken
from repro.oracle.refinement import RefinedBTADT
from repro.oracle.fork_coherence import (
    ForkCoherenceResult,
    check_fork_coherence_from_oracle,
)

__all__ = [
    "MeritTape",
    "TapeFamily",
    "DeterministicTape",
    "TokenOracle",
    "FrugalOracle",
    "ProdigalOracle",
    "ValidatedBlock",
    "ThetaADT",
    "ProdigalADT",
    "ThetaState",
    "GetToken",
    "ConsumeToken",
    "RefinedBTADT",
    "ForkCoherenceResult",
    "check_fork_coherence_from_oracle",
]
