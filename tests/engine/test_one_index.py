"""A finished run is analysed from one index.

``analyse_run`` indexes the run's history once, purged of failed appends,
and that index feeds the classification, the ``monitor=True`` payload and
a fault run's degradation pass.  The payload stays what a replay of the
raw history reports because of a premise every registered system keeps:
it records no failed append (so the purge is the history itself) and
every read response carries a chain (so no read is left out of either).
"""

from __future__ import annotations

import pytest

from repro.core import consistency
from repro.core.block import Blockchain
from repro.core.consistency_index import ConsistencyIndex
from repro.engine import ExperimentSpec, table1_spec
from repro.network.faults import FAULTS
from repro.protocols import classification
from repro.protocols.classification import TABLE1_SYSTEMS
from tests.test_behaviour_lock import _FAULT_BASE, _POPULATION, _fault_cell


def _premise_cells():
    for name in TABLE1_SYSTEMS:
        yield pytest.param(lambda name=name: table1_spec(name), id=f"table1:{name}")
    for kind in sorted(FAULTS.names()):
        yield pytest.param(lambda kind=kind: _fault_cell(kind), id=f"fault:{kind}")
    yield pytest.param(lambda: _POPULATION, id="population")


@pytest.mark.parametrize("cell", _premise_cells())
def test_the_purge_is_the_history_and_every_read_carries_a_chain(cell):
    history = cell().execute().run.history
    assert history.without_failed_appends() is history
    reads = history._reads.tolist()
    assert reads
    assert all(history._values[at].__class__ is Blockchain for at in reads)


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``ConsistencyIndex.ingest`` and ``check_consistency`` calls."""
    counts = {"ingest": 0, "check_consistency": 0}
    ingest, check = ConsistencyIndex.ingest, consistency.check_consistency

    def counted_ingest(self, *args, **kwargs):
        counts["ingest"] += 1
        return ingest(self, *args, **kwargs)

    def counted_check(*args, **kwargs):
        counts["check_consistency"] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(ConsistencyIndex, "ingest", counted_ingest)
    # classify_run holds its own name; a monitor imports it at call time.
    monkeypatch.setattr(classification, "check_consistency", counted_check)
    monkeypatch.setattr(consistency, "check_consistency", counted_check)
    return counts


_CELLS = {
    "plain": _FAULT_BASE,
    "monitor": _FAULT_BASE.with_updates(monitor=True),
    "churn": _fault_cell("churn"),
    "churn+monitor": _fault_cell("churn").with_updates(monitor=True),
}


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_a_cell_ingests_once_and_checks_once(calls, name):
    spec: ExperimentSpec = _CELLS[name]
    record = spec.execute()
    assert calls == {"ingest": 1, "check_consistency": 1}
    assert (record.consistency is not None) == spec.monitor
    assert (record.degradation is not None) == (spec.fault is not None)
