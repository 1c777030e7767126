"""The size ratchet on ``src/``: its Python files may not grow past a ceiling.

``tests/src_size.ceiling`` holds the ceiling, in lines, as
``find src -name '*.py' | xargs cat | wc -l`` counts them.  A change that
needs more lines raises the number in that file, and its CHANGES.md entry
says by how much and why; a change that removes lines may lower it.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CEILING = Path(__file__).with_name("src_size.ceiling")


def src_lines() -> int:
    """Newline count over every ``*.py`` file under ``src/``."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py"))


def test_src_stays_under_its_ceiling():
    ceiling = int(CEILING.read_text(encoding="utf-8").split()[0])
    lines = src_lines()
    assert lines <= ceiling, (
        f"src/ has {lines} lines, above the ceiling of {ceiling} in {CEILING.name}: "
        "remove lines, or raise the ceiling and say why in CHANGES.md"
    )
