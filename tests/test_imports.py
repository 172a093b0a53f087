"""Importing the package or its console script stays light: the
subprocess machinery is imported only by the external counter, which
uses it, and no process pool is imported at all.  A second import of
the package lets the first one's classes be freed."""

import subprocess
import sys

import pytest
from conftest import package_env

LAZY = ("subprocess", "concurrent.futures", "multiprocessing")


@pytest.mark.parametrize("module", ["hornenum", "hornenum.cli"])
def test_import_loads_no_process_machinery(module):
    code = (f"import sys, {module}; "
            f"print(' '.join(m for m in {LAZY!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_reimport_frees_the_old_classes():
    # a fresh import, as a benchmark harness does between runs, leaves
    # nothing that holds the first import's classes: no cached type alias
    code = """
import gc, importlib, sys, weakref
from hornenum import errors, families, theory
refs = {c.__name__: weakref.ref(c) for c in (theory.BinomialEquation, theory.HornClause,
                                            theory.Monomial, families.Variant, errors.ParseError)}
del errors, families, theory
for name in [m for m in sys.modules if m == "hornenum" or m.startswith("hornenum.")]:
    del sys.modules[name]
importlib.import_module("hornenum")
gc.collect()
print(" ".join(name for name, ref in refs.items() if ref() is not None))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
