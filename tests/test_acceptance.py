"""Acceptance gate: nine checks, one visible verdict line each.

Each test prints ACCEPTANCE <k> PASS/FAIL/SKIP regardless of pytest's
capture settings, then asserts.  Expected values are pinned literally in
this file so the gate stays independent of the package's own reference
tables.  Tolerances: every count comparison is exact; the only numeric
bounds are the wall-clock limits in criterion 1 (1.0s per count for
n <= 4, 600s at n = 5) and they are pinned here, not configurable.
"""

import contextlib
import itertools
import math
import os
import random
from pathlib import Path

import pytest
from conftest import brute_reference, random_instance

from hornenum.counter import count_models, count_variant, count_width
from hornenum.encoder import emit_dimacs, encode, predicate_id
from hornenum.errors import ResourceLimitError
from hornenum.families import BitVector, Variant
from hornenum.identities import binomial
from hornenum.oracle import orbit_summary, variant_counts
from hornenum.theory import (HornClause, Monomial, BinomialEquation,
                             equations_to_horn, horn_to_equations, models)

EXPECTED_H = (1, 1, 4, 45, 2271, 1373701)
EXPECTED_H1 = (1, 2, 7, 61, 2480, 1385552)
STRETCH_H1_6 = 75_973_751_474
STRETCH_H_6 = 75_965_474_236
PUBLISHED_ORBITS = {
    Variant.H1: ("A108798", (1, 2, 5, 19, 184)),
    Variant.H01: ("A108799", (2, 4, 10, 38, 368)),
}

GOLDEN = Path(__file__).parent / "golden"

TIME_LIMIT_SMALL = 1.0
TIME_LIMIT_N5 = 600.0

_dpll_memo = {}


def dpll(n, variant):
    """One shared dpll computation per (n, variant) across the gate."""
    key = (n, variant)
    if key not in _dpll_memo:
        _dpll_memo[key] = count_variant(n, variant, "dpll",
                                        budget_seconds=TIME_LIMIT_N5).count
    return _dpll_memo[key]


@pytest.fixture
def announce(capsys):
    def _announce(num, verdict, name, detail=""):
        with capsys.disabled():
            line = f"ACCEPTANCE {num} {verdict}: {name}"
            if detail:
                line += f" ({detail})"
            print(line, flush=True)
    return _announce


@contextlib.contextmanager
def verdict(announce, num, name):
    """Print the gate line for this criterion whichever way it ends."""
    record = {"detail": ""}
    try:
        yield record
    except pytest.skip.Exception:
        raise
    except BaseException as exc:
        announce(num, "FAIL", name, record["detail"] or repr(exc))
        raise
    announce(num, "PASS", name, record["detail"])


def test_criterion_1_reference_counts(announce):
    with verdict(announce, 1, "reference count reproduction") as record:
        timings = []
        failures = []
        for variant, expected_row in ((Variant.H, EXPECTED_H),
                                      (Variant.H1, EXPECTED_H1)):
            for n, expected in enumerate(expected_row):
                report = count_variant(n, variant, "dpll",
                                       budget_seconds=TIME_LIMIT_N5)
                _dpll_memo[(n, variant)] = report.count
                timings.append((variant.value, n, report.elapsed))
                if report.count != expected:
                    failures.append(f"{variant.value}({n}): expected "
                                    f"{expected}, got {report.count}")
                limit = TIME_LIMIT_N5 if n == 5 else TIME_LIMIT_SMALL
                if report.elapsed >= limit:
                    failures.append(f"{variant.value}({n}) took "
                                    f"{report.elapsed:.2f}s, limit {limit}s")
        slowest = max(timings, key=lambda t: t[2])
        record["detail"] = (f"12 exact counts, slowest {slowest[0]}({slowest[1]}) "
                            f"at {slowest[2]:.2f}s")
        assert not failures, failures


def test_criterion_2_oracle_equivalence(announce):
    with verdict(announce, 2, "oracle equivalence at n <= 4") as record:
        failures = []
        compared = 0
        for n in range(5):
            oracle_counts = variant_counts(n)
            for variant in Variant:
                expected = oracle_counts[variant]
                actual = dpll(n, variant)
                compared += 1
                if expected != actual:
                    failures.append(f"{variant.value}({n}): oracle {expected}, "
                                    f"dpll {actual}")
        record["detail"] = f"{compared} variant/width pairs agree exactly"
        assert not failures, failures


def test_criterion_3_identity_suite(announce):
    # The width-0 endpoint is degenerate: the all-ones and all-zeros
    # vectors coincide, so the directly counted h0(0) is 1 while every
    # doubling-style identity needs the empty family admitted, value 2.
    # The suite checks the semantic value once, then uses base 2 at k=0.
    with verdict(announce, 3, "identity suite at n <= 5") as record:
        failures = []

        def check(name, expected, actual):
            if expected != actual:
                failures.append(f"{name}: {expected} != {actual}")

        check("h0(0) direct count", 1, dpll(0, Variant.H0))
        h0_base = {0: 2}
        for k in range(1, 6):
            h0_base[k] = dpll(k, Variant.H0)
        for n in range(6):
            if n >= 1:
                check(f"h0({n}) = 2 h({n})",
                      2 * dpll(n, Variant.H), dpll(n, Variant.H0))
            check(f"h01({n}) = 2 h1({n})",
                  2 * dpll(n, Variant.H1), dpll(n, Variant.H01))
            check(f"h1({n}) = sum C(n,k) h(k)",
                  sum(binomial(n, k) * dpll(k, Variant.H) for k in range(n + 1)),
                  dpll(n, Variant.H1))
            check(f"h01({n}) = sum C(n,k) h0(k)",
                  sum(binomial(n, k) * h0_base[k] for k in range(n + 1)),
                  dpll(n, Variant.H01))
        record["detail"] = ("24 exact identities, doubling convention "
                            "h0(0) = 2 at the degenerate width")
        assert not failures, failures


def _random_monomial(rng, n):
    # variable indices are 0-based; x1 is index 0
    if rng.random() < 0.08:
        return Monomial.zero() if rng.random() < 0.5 else Monomial.one()
    k = rng.randint(1, n)
    return Monomial.of(*rng.sample(range(n), k))


def _random_equations(rng):
    # bounded attempts: small widths admit very few distinct equations
    n = rng.randint(1, 4)
    target = rng.randint(1, 5)
    equations = set()
    for _ in range(40):
        if len(equations) >= target:
            break
        lhs = _random_monomial(rng, n)
        rhs = _random_monomial(rng, n)
        if lhs != rhs:
            equations.add(BinomialEquation(lhs, rhs))
    return n, equations


def _random_clauses(rng):
    n = rng.randint(1, 4)
    clauses = set()
    for _ in range(rng.randint(1, 5)):
        body = frozenset(v for v in range(n) if rng.random() < 0.4)
        free = sorted(set(range(n)) - body)
        if not free or rng.random() < 0.2:
            head = None
        else:
            head = rng.choice(free)
        clauses.add(HornClause(body, head))
    return n, clauses


def test_criterion_4_translation_round_trip(announce):
    with verdict(announce, 4, "translation preserves model sets") as record:
        rng = random.Random(0xACCE97)
        for trial in range(1000):
            n, equations = _random_equations(rng)
            clauses = equations_to_horn(equations)
            assert models(equations, n) == models(clauses, n), (
                f"equation trial {trial}: {sorted(map(str, equations))}")
        for trial in range(1000):
            n, clauses = _random_clauses(rng)
            equations = horn_to_equations(clauses)
            assert models(clauses, n) == models(equations, n), (
                f"clause trial {trial}: {sorted(map(str, clauses))}")
        record["detail"] = "1000 equation sets and 1000 clause sets, n <= 4"


def incomparable_pairs(n):
    """Unordered pairs with neither vector below the other, enumerated on
    the subset order alone."""
    count = 0
    for r, s in itertools.combinations(range(1 << n), 2):
        if (r | s) != s and (r | s) != r:
            count += 1
    return count


def test_criterion_5_encoder_structure(announce):
    with verdict(announce, 5, "encoder structural checks") as record:
        for n in range(7):
            instance = encode(n, Variant.H01, cap=6)
            assert len(instance.ternary_clauses) < 4 ** n, n
        for n in range(5):
            expected_pairs = incomparable_pairs(n)
            for variant in Variant:
                instance = encode(n, variant)
                assert len(instance.ternary_clauses) == expected_pairs
                for clause in instance.clauses:
                    assert sum(1 for lit in clause if lit > 0) <= 1, clause
            ones_id = predicate_id(BitVector.all_ones(n))
            if n >= 1:
                h01 = encode(n, Variant.H01)
                assert all(ones_id not in map(abs, clause)
                           for clause in h01.clauses)
        record["detail"] = ("ternary < 4^n for n <= 6, pair counts exact "
                            "for n <= 4, all Horn, ones predicate unused in h01")


def test_criterion_6_counter_laws(announce):
    with verdict(announce, 6, "counter laws on random instances") as record:
        rng = random.Random(0xC0DE5)
        trials = 120
        for trial in range(trials):
            num_vars, clauses = random_instance(rng)
            expected = brute_reference(clauses, num_vars)
            for kwargs in ({}, {"threads": 2}):
                actual = count_models(clauses, num_vars, **kwargs)
                assert actual == expected, (trial, kwargs, clauses)
            k = rng.randint(1, 3)
            assert count_models(clauses, num_vars + k) == expected << k
            v = rng.randint(1, num_vars)
            assert (count_models(clauses + [(v,)], num_vars)
                    + count_models(clauses + [(-v,)], num_vars)) == expected
        assert count_models(encode(4, Variant.H01), threads=3) == dpll(4, Variant.H01)
        record["detail"] = (f"{trials} instances: 2^k law, branch sum, "
                            "thread independence")


def test_criterion_7_golden_dimacs(announce):
    with verdict(announce, 7, "DIMACS output matches golden files") as record:
        cases = [(0, Variant.H01, "n0_h01.cnf"), (2, Variant.H01, "n2_h01.cnf"),
                 (2, Variant.H1, "n2_h1.cnf"), (3, Variant.H, "n3_h.cnf")]
        for n, variant, filename in cases:
            produced = emit_dimacs(encode(n, variant)).encode("ascii")
            expected = (GOLDEN / filename).read_bytes()
            assert produced == expected, filename
        record["detail"] = "4 files byte-exact"


def test_criterion_8_stretch_width_six(announce):
    if os.environ.get("HORNENUM_STRETCH") != "1":
        announce(8, "SKIP", "stretch width 6",
                 "set HORNENUM_STRETCH=1 to run; expect 1.5 to 4 minutes "
                 "for all four counts, which share one search")
        pytest.skip("stretch run not requested")
    with verdict(announce, 8, "stretch width 6") as record:
        try:
            reports = count_width(6, budget_seconds=None)
        except ResourceLimitError as exc:
            announce(8, "SKIP", "stretch width 6", f"the width-6 search stopped: {exc}")
            pytest.skip("stretch budget exhausted")
        expected = {Variant.H1: STRETCH_H1_6, Variant.H: STRETCH_H_6,
                    Variant.H0: 2 * STRETCH_H_6, Variant.H01: 2 * STRETCH_H1_6}
        record["detail"] = "; ".join(f"{variant.value}(6) = {report.count} "
                                     f"in {report.elapsed:.0f}s"
                                     for variant, report in reports.items())
        for variant, report in reports.items():
            assert report.count == expected[variant], (
                f"{variant.value}(6): expected {expected[variant]}, got {report.count}")


def test_criterion_9_nonisomorphic_census(announce):
    with verdict(announce, 9, "isomorphism census at n <= 4") as record:
        table = {}
        for variant in Variant:
            row = []
            for n in range(5):
                summary = orbit_summary(n, variant)
                assert sum(summary.orbit_sizes) == summary.labeled_count
                assert summary.labeled_count == variant_counts(n)[variant]
                group_order = math.factorial(n)
                assert all(group_order % size == 0
                           for size in summary.orbit_sizes), (variant, n)
                row.append(summary.orbit_count)
            table[variant] = tuple(row)
        for variant, (seq_id, prefix) in PUBLISHED_ORBITS.items():
            if table[variant] != prefix:
                announce(9, "WARN", "isomorphism census at n <= 4",
                         f"{variant.value} orbits {table[variant]} differ from "
                         f"published {seq_id} {prefix}")
        emitted = "; ".join(f"{v.value}: {','.join(map(str, row))}"
                            for v, row in table.items())
        record["detail"] = emitted
