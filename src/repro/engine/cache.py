"""Spec-keyed result cache: memoization for the experiment engine.

Every :class:`~repro.engine.spec.ExperimentSpec` fully determines its
simulation (all randomness derives from ``spec.seed``), so an executed
:class:`~repro.engine.result.RunResult` can be reused whenever the same
spec comes around again — across sweeps, benches and CLI invocations.

:class:`ResultCache` is a content-addressed store of JSON files: the key
is the SHA-256 digest of :data:`repro.MODEL_VERSION` together with
``spec.to_json()`` (the canonical, sort-keyed serialization), the value
is ``result.to_json()`` verbatim.  Hitting the cache therefore returns a
*byte-identical* artifact — including the original run's wall-clock
``timings`` — and performs zero simulator events.  Invalidation is by
spec and model version: change any spec field, or bump the version with
a behaviour change, and the digest (hence the file) changes; delete the
cache directory and everything re-runs.  Corrupt or unreadable entries
are treated as misses.  Like a sweep's results, an entry is payload only:
the live ``run`` comes from ``spec.execute()`` alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

import repro
from repro.engine.result import RunResult
from repro.engine.spec import ExperimentSpec

__all__ = ["ResultCache", "spec_digest", "DEFAULT_CACHE_DIR"]

#: Directory used by the CLI when ``--cache`` is passed without a path.
DEFAULT_CACHE_DIR = ".repro-cache"


def spec_digest(spec: ExperimentSpec) -> str:
    """Content address of a spec: SHA-256 over the model version and its
    canonical JSON form."""
    text = f"model_version={repro.MODEL_VERSION}\n{spec.to_json()}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed, file-per-result cache keyed on spec and model version."""

    def __init__(self, directory: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    # -- path handling -------------------------------------------------------

    def path_for(self, spec: ExperimentSpec) -> Path:
        """The file this spec's result lives at (whether or not it exists)."""
        return self.directory / f"{spec_digest(spec)}.json"

    # -- lookup / store ------------------------------------------------------

    def get(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """Return the cached result for ``spec``, or ``None`` on a miss.

        A hit is only reported when the stored payload parses *and* embeds
        the very spec that was asked for — a digest collision or a
        hand-edited file therefore degrades to a miss instead of silently
        returning a result for a different experiment.
        """
        path = self.path_for(spec)
        try:
            payload = path.read_text(encoding="utf-8")
            result = RunResult.from_dict(json.loads(payload))
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        if result.spec.to_json() != spec.to_json():
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, result: RunResult) -> Path:
        """Store ``result`` under its spec's digest (atomic rename)."""
        path = self.path_for(result.spec)
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.stem, suffix=".tmp", dir=str(self.directory)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(result.to_json())
                handle.write("\n")
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache(dir={str(self.directory)!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )
