"""Setuptools build script for the optional compiled flavour.

There is no ``pyproject.toml`` and no package metadata here: the
repository runs from a checkout with ``PYTHONPATH=src``, and this file
exists for ``python setup.py build_ext --inplace`` (the ``tests-compiled``
CI job).

When mypyc is available the event-core drain loop
(``repro.network._drain``) and the callback-plane hot paths
(``repro.network._hotpath``) are additionally compiled to C extensions —
both modules are written to the mypyc-friendly subset (monomorphic
locals, no closures) for exactly this.  The build degrades gracefully:
without mypyc (or if the compile fails) the pure-Python modules are the
live path, and ``repro.network.event_core.COMPILED_MODULES`` reports
per-module which flavour loaded.
"""

from setuptools import setup


def _optional_ext_modules():
    try:
        from mypyc.build import mypycify
    except ImportError:
        return []
    try:
        return mypycify(
            [
                "src/repro/network/_drain.py",
                "src/repro/network/_hotpath.py",
            ]
        )
    except Exception:
        # A broken toolchain (missing compiler, unsupported construct)
        # must not block installation of the pure-Python package.
        return []


setup(ext_modules=_optional_ext_modules())
