"""Importing the package or its console script stays light: the
subprocess machinery is imported only by the external counter, which
uses it, and no process pool is imported at all.  A second import of
the package lets the first one's classes be freed.  The public surface
is pinned: `__all__` names what the package holds, and members deleted
from it stay gone."""

import subprocess
import sys

import pytest
from conftest import package_env

import hornenum
from hornenum import encoder, families, oracle, theory

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


def test_all_names_the_public_surface():
    assert [name for name in hornenum.__all__ if not hasattr(hornenum, name)] == []
    assert hornenum.__all__ == sorted(set(hornenum.__all__))


# members deleted because only their own tests called them: a vector is an
# int, a meet is `&` on values, and a family prints its own members; a
# member of a deleted class is gone with it
DELETED = ["hornenum.meet", "families.meet", "families.FULL_WIDTH_CAP",
           "BitVector.from_string", "BitVector.from_bits", "BitVector.all_ones",
           "BitVector.all_zeros", "BitVector.bits", "BitVector.is_all_ones",
           "BitVector.is_all_zeros", "BitVector.meet", "VectorFamily.full",
           "VectorFamily.empty", "Monomial.is_one", "Variant.requires_all_ones",
           "Variant.requires_all_zeros",
           "hornenum.BitVector", "families.BitVector",
           "hornenum.eval_monomial", "theory.eval_monomial",
           "BinomialEquation.holds_at", "HornClause.holds_at",
           "hornenum.predicate_id", "encoder.predicate_id",
           "hornenum.vector_of", "encoder.vector_of",
           "hornenum.canonical_form", "theory.canonical_form",
           "hornenum.variant_counts", "oracle.variant_counts"]
OWNERS = {"hornenum": hornenum, "families": families, "theory": theory,
          "encoder": encoder, "oracle": oracle}


@pytest.mark.parametrize("member", DELETED)
def test_deleted_member_stays_gone(member):
    owner, name = member.split(".")
    owner = OWNERS[owner] if owner in OWNERS else getattr(hornenum, owner, None)
    assert not hasattr(owner, name)
