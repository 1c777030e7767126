"""Repository-level pytest configuration.

Makes the ``src`` layout importable without ``PYTHONPATH=src``.  The
repository is not installable (it carries no package metadata); a
``repro`` already importable takes precedence.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))
