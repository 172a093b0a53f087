"""Cross-validation: reference values and the multi-method agreement matrix.

Counts in this package can be produced four independent ways: the
component-caching search on the clause encoding (method `dpll`),
exhaustive family enumeration, algebraic derivation from other variants,
and an external tool.  This module runs the agreement checks between
those routes, compares against the published reference counts, and
performs the isomorphism-class census, returning a flat list of check
results for the CLI and the test suite to render.

The doubling check for h0 starts at n = 1: at width 0 the two lattice
endpoints are the same vector, h0(0) = 1, and no doubling holds.  The
binomial-sum check for h01 uses doubled h counts as its base terms, which
is the form that holds uniformly (the semantically counted h0(0) = 1
differs from the doubled value 2 by exactly the empty family).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# count_variant is no longer called here, but perfbench/workloads.py wraps
# it under this module's name for its traced verify5 run.
from .counter import DEFAULT_BUDGET_SECONDS, count_variant, count_width  # noqa: F401
from .errors import ResourceLimitError
from .families import VARIANTS, Variant
from .identities import binomial_sum, doubling
from .oracle import ORACLE_CAP, OrbitSummary, brute_count, orbit_summary

#: Published reference counts, n = 0..6.  h0 and h01 references derive
#: from these by doubling (h0 only for n >= 1; h0(0) = 1, h01(0) = 2).
REFERENCE_H = (1, 1, 4, 45, 2271, 1373701, 75965474236)
REFERENCE_H1 = (1, 2, 7, 61, 2480, 1385552, 75973751474)

#: Entries of the public integer-sequence database for the isomorphism
#: census (ids cross-checked against our own orbit enumeration at n <= 4).
SEQUENCE_PREFIXES = {
    Variant.H1: ("A108798", (1, 2, 5, 19, 184)),
    Variant.H01: ("A108799", (2, 4, 10, 38, 368)),
}

#: The search handles n <= 5 in seconds; beyond that is stretch territory.
VERIFY_DPLL_CAP = 5


def reference_count(variant: Variant, n: int) -> Optional[int]:
    """Published (or doubling-derived) reference value, None if unknown."""
    variant = Variant.from_name(variant)
    if not 0 <= n < len(REFERENCE_H):
        return None
    if variant is Variant.H:
        return REFERENCE_H[n]
    if variant is Variant.H1:
        return REFERENCE_H1[n]
    if variant is Variant.H0:
        return 1 if n == 0 else 2 * REFERENCE_H[n]
    return 2 * REFERENCE_H1[n]


@dataclass(frozen=True)
class CheckResult:
    """One verification line: what was compared and whether it agreed."""

    name: str
    passed: bool
    expected: object
    actual: object
    warning: bool = False
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "expected": self.expected if isinstance(self.expected, (int, str, type(None))) else str(self.expected),
            "actual": self.actual if isinstance(self.actual, (int, str, type(None))) else str(self.actual),
            "warning": self.warning,
            "elapsed": self.elapsed,
        }


@dataclass
class VerifyRun:
    """Outcome of the full matrix; failures exclude warning-level checks."""

    n_max: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed and not c.warning]

    @property
    def warnings(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed and c.warning]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "failure_count": len(self.failures),
            "warning_count": len(self.warnings),
        }


def verify_matrix(n_max: int, *, threads: int = 1,
                  budget_seconds: Optional[float] = DEFAULT_BUDGET_SECONDS,
                  include_nonisomorphic: bool = True,
                  progress: Optional[Callable[[CheckResult], None]] = None) -> VerifyRun:
    """Run every agreement check available up to n_max.

    Checks, each computed from independent sides: oracle vs dpll for all
    variants (n <= 4); dpll vs the published reference counts (n <= 5);
    the doubling and binomial-sum relations over dpll counts; and the
    orbit census with its sanity laws plus the warning-level comparison
    against the published sequence prefixes.

    The four dpll counts of a width come from one count_width call, and
    each oracle count is taken once per run.

    budget_seconds bounds the whole run, not each count: every count gets
    only the time left, and ResourceLimitError is raised once it is spent.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    run = VerifyRun(n_max)
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    dpll_cache: dict[tuple[Variant, int], int] = {}
    oracle: dict[tuple[Variant, int], int] = {}
    census_cache: dict[tuple[Variant, int], OrbitSummary] = {}

    def time_left() -> Optional[float]:
        if deadline is None:
            return None
        left = deadline - time.monotonic()
        if left <= 0:
            raise ResourceLimitError(
                f"verify budget of {budget_seconds}s exceeded after "
                f"{len(run.checks)} checks")
        return left

    def dpll(variant: Variant, n: int) -> int:
        if (variant, n) not in dpll_cache:
            reports = count_width(n, threads=threads, budget_seconds=time_left())
            dpll_cache.update(((v, n), report.count) for v, report in reports.items())
        return dpll_cache[(variant, n)]

    def census(variant: Variant, n: int) -> OrbitSummary:
        key = (variant, n)
        if key not in census_cache:
            time_left()
            census_cache[key] = orbit_summary(n, variant)
        return census_cache[key]

    def record(name: str, expected, actual, warning: bool = False,
               elapsed: float = 0.0) -> None:
        result = CheckResult(name, expected == actual, expected, actual,
                             warning, elapsed)
        run.checks.append(result)
        if progress is not None:
            progress(result)

    dpll_max = min(n_max, VERIFY_DPLL_CAP)

    for n in range(min(n_max, ORACLE_CAP) + 1):
        for variant in VARIANTS:
            t0 = time.monotonic()
            time_left()
            expected = oracle[(variant, n)] = brute_count(n, variant)
            actual = dpll(variant, n)
            record(f"oracle vs dpll: {variant.value}({n})", expected, actual,
                   elapsed=time.monotonic() - t0)

    for n in range(dpll_max + 1):
        for variant in VARIANTS:
            t0 = time.monotonic()
            expected = reference_count(variant, n)
            if expected is None:
                continue
            record(f"reference table: {variant.value}({n})", expected,
                   dpll(variant, n), elapsed=time.monotonic() - t0)

    for n in range(dpll_max + 1):
        t0 = time.monotonic()
        if n >= 1:
            record(f"doubling: h0({n}) = 2 h({n})",
                   doubling(dpll(Variant.H, n)), dpll(Variant.H0, n),
                   elapsed=time.monotonic() - t0)
        t0 = time.monotonic()
        record(f"doubling: h01({n}) = 2 h1({n})",
               doubling(dpll(Variant.H1, n)), dpll(Variant.H01, n),
               elapsed=time.monotonic() - t0)
        t0 = time.monotonic()
        h_base = [dpll(Variant.H, k) for k in range(n + 1)]
        record(f"binomial sum: h1({n}) from h(0..{n})",
               binomial_sum(h_base), dpll(Variant.H1, n),
               elapsed=time.monotonic() - t0)
        t0 = time.monotonic()
        record(f"binomial sum: h01({n}) from doubled h(0..{n})",
               binomial_sum([doubling(h) for h in h_base]), dpll(Variant.H01, n),
               elapsed=time.monotonic() - t0)

    if include_nonisomorphic:
        for n in range(min(n_max, ORACLE_CAP) + 1):
            for variant in VARIANTS:
                t0 = time.monotonic()
                summary = census(variant, n)
                record(f"orbit sizes sum: {variant.value}({n})",
                       oracle[(variant, n)], sum(summary.orbit_sizes),
                       elapsed=time.monotonic() - t0)
        for variant, (seq_id, prefix) in SEQUENCE_PREFIXES.items():
            for n in range(min(n_max, ORACLE_CAP, len(prefix) - 1) + 1):
                t0 = time.monotonic()
                record(f"published sequence {seq_id}: {variant.value}({n}) orbits",
                       prefix[n], census(variant, n).orbit_count,
                       warning=True, elapsed=time.monotonic() - t0)

    return run
