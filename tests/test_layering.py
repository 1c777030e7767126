"""``core ← network ← protocols ← engine``: no package imports a later one.

The paper's formal objects (``repro.core``, ``repro.oracle``,
``repro.concurrent``) and the analyses over recorded histories
(``repro.analysis``) are importable without the simulator.  Checked in a
fresh interpreter, because this test session has long since imported
everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_PROBE = """
import sys
import repro.core, repro.oracle, repro.concurrent, repro.analysis
later = ("repro.network", "repro.protocols", "repro.engine")
print(*sorted(name for name in sys.modules if name.startswith(later)))
"""


def test_formal_core_imports_nothing_of_the_simulator():
    source = str(Path(sys.modules["repro"].__file__).parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": source},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == []
