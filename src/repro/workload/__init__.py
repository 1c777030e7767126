"""Workload generators: merits, transactions and the paper's scenarios.

* :mod:`repro.workload.merit` — merit (hashing power / stake / permission)
  distributions, normalized so that ``Σ α_p = 1`` as in Section 5;
* :mod:`repro.workload.transactions` — deterministic transaction streams
  used by the permissioned-system models and the examples;
* :mod:`repro.workload.population` — population-scale client workloads
  generated column-wise (one rng fill per replica) and bulk-inserted
  into the event calendar;
* :mod:`repro.workload.scenarios` — hand-built concurrent histories
  reproducing Figures 2, 3, 4 and 13, plus parameterized random history
  generators used by the property-based tests and the hierarchy benches.
"""

from repro.workload.merit import (
    MeritDistribution,
    uniform_merit,
    zipf_merit,
    proportional_merit,
    permissioned_merit,
)
from repro.workload.population import ClientPopulation
from repro.workload.transactions import TransactionGenerator
from repro.workload.scenarios import (
    figure2_history,
    figure3_history,
    figure4_history,
    figure13_history,
    generate_chain_history,
    generate_forked_history,
)

__all__ = [
    "MeritDistribution",
    "uniform_merit",
    "zipf_merit",
    "proportional_merit",
    "permissioned_merit",
    "TransactionGenerator",
    "ClientPopulation",
    "figure2_history",
    "figure3_history",
    "figure4_history",
    "figure13_history",
    "generate_chain_history",
    "generate_forked_history",
]
