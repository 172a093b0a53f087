"""Shared test helpers.

brute_reference is the test suite's own model counter: a plain loop over
all assignments, written without touching any package internals, so
counter results are always checked against an independent computation.
"""

import os
import random
from pathlib import Path

import pytest

import hornenum
import hornenum.counter


def brute_reference(clauses, num_vars):
    """Count satisfying assignments by trying all of them.  Bit i of the
    assignment word is variable i+1."""
    count = 0
    for word in range(1 << num_vars):
        if all(any((lit > 0) == bool((word >> (abs(lit) - 1)) & 1) for lit in clause)
               for clause in clauses):
            count += 1
    return count


def random_instance(rng, max_vars=6, max_clauses=8, max_width=3):
    """A small random CNF: may contain duplicate clauses, duplicate
    literals, and tautologies, on purpose."""
    num_vars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, max_width)
        lits = tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
                     for _ in range(width))
        clauses.append(lits)
    return num_vars, clauses


def package_env():
    """The environment for a subprocess that must import this package."""
    package_root = str(Path(hornenum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.fixture
def rng():
    return random.Random(0x5eed)


@pytest.fixture
def branching_only(monkeypatch):
    """Count every component by branching: no component is narrow enough
    for a truth table."""
    monkeypatch.setattr(hornenum.counter, "TABLE_VARS", 0)
