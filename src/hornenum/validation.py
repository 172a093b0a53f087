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

import functools
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

# count_variant is no longer called here, but perfbench/workloads.py wraps
# it under this module's name for its traced verify5 run.
from .counter import (_WIDTH_ORDER, DEFAULT_BUDGET_SECONDS, CountReport,  # noqa: F401
                      _count_width, _deadline, count_variant)
from .errors import ResourceLimitError
from .families import VARIANTS, Variant, _check_width, _is_int
from .identities import binomial_sum, derive_count, doubling
from .oracle import ORACLE_CAP, brute_count, orbit_summary

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

#: Widest n_max that verify_matrix accepts: the search handles n <= 5 in
#: seconds, and width 6 is the opt-in stretch run.
VERIFY_DPLL_CAP = 5


def reference_count(variant: Variant, n: int) -> Optional[int]:
    """Published reference value, derived by the identities for h0 and
    h01 (h0(0) = 1 is the counted value, which no doubling gives); None
    for an int n outside the table, and a ValueError for any other n."""
    variant = Variant.from_name(variant)
    if _is_int(n) and not 0 <= n < len(REFERENCE_H):
        return None
    _check_width(n)
    published = {Variant.H: REFERENCE_H, Variant.H1: REFERENCE_H1}
    if variant in published:
        return published[variant][n]
    if variant is Variant.H0 and n == 0:
        return 1
    return derive_count(variant, n, lambda v, k: published[v][k])


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
        """The fields in order; a side that is not an int, a str or None
        is given as its str."""
        out = asdict(self)
        for side in ("expected", "actual"):
            if not isinstance(out[side], (int, str, type(None))):
                out[side] = str(getattr(self, side))
        return out


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
    """Run every agreement check available up to n_max, which must be an
    int in 0..VERIFY_DPLL_CAP; any other n_max, threads below 1 or a NaN
    budget raises ValueError before a check runs.

    Checks, each computed from independent sides: oracle vs dpll for all
    variants (n <= 4); dpll vs the published reference counts (n <= 5);
    the doubling and binomial-sum relations over dpll counts; and the
    orbit census with its sanity laws plus the warning-level comparison
    against the published sequence prefixes.

    Every check runs the same way: it reads the deadline, then evaluates
    both sides, times them and records its result.  The four dpll counts
    of a width come from one count, by the code and in the variant order
    of count_width, and each census is taken once per run.

    budget_seconds bounds the whole run, not each count: every count runs
    under the run's one deadline.  A count that passes it, the first
    check that starts after it, or the end of a run that overran in its
    last check raises ResourceLimitError "verify budget of Xs exceeded
    after N checks".
    """
    if not (_is_int(n_max) and 0 <= n_max <= VERIFY_DPLL_CAP):
        raise ValueError(f"n_max must be an int between 0 and the verify cap "
                         f"{VERIFY_DPLL_CAP}, got {n_max!r}")
    run = VerifyRun(n_max)
    deadline = _deadline(threads, budget_seconds, time.monotonic())

    def spent() -> ResourceLimitError:
        return ResourceLimitError(f"verify budget of {budget_seconds}s exceeded "
                                  f"after {len(run.checks)} checks")

    def read_deadline() -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise spent()

    @functools.cache
    def width(n: int) -> dict[Variant, CountReport]:
        try:
            return _count_width(n, _WIDTH_ORDER, deadline)
        except ResourceLimitError:
            raise spent() from None

    def dpll(variant: Variant, n: int) -> int:
        return width(n)[variant].count

    # orbit_summary is looked up on each miss, so a patched one is cached
    census = functools.cache(lambda variant, n: orbit_summary(n, variant))

    def check(name: str, expected: Callable[[], object],
              actual: Callable[[], object], warning: bool = False) -> None:
        read_deadline()
        t0 = time.monotonic()
        want, got = expected(), actual()
        result = CheckResult(name, want == got, want, got, warning,
                             time.monotonic() - t0)
        run.checks.append(result)
        if progress is not None:
            progress(result)

    # the sides are called inside check(), before the loop moves on, so
    # the lambdas see this iteration's n and variant
    oracle_max = min(n_max, ORACLE_CAP)

    for n in range(oracle_max + 1):
        for variant in VARIANTS:
            check(f"oracle vs dpll: {variant.value}({n})",
                  lambda: brute_count(n, variant), lambda: dpll(variant, n))

    for n in range(min(n_max, len(REFERENCE_H) - 1) + 1):
        for variant in VARIANTS:
            check(f"reference table: {variant.value}({n})",
                  lambda: reference_count(variant, n), lambda: dpll(variant, n))

    for n in range(n_max + 1):
        if n >= 1:
            check(f"doubling: h0({n}) = 2 h({n})",
                  lambda: derive_count(Variant.H0, n, dpll), lambda: dpll(Variant.H0, n))
        check(f"doubling: h01({n}) = 2 h1({n})",
              lambda: derive_count(Variant.H01, n, dpll), lambda: dpll(Variant.H01, n))
        check(f"binomial sum: h1({n}) from h(0..{n})",
              lambda: derive_count(Variant.H1, n, dpll), lambda: dpll(Variant.H1, n))
        # written out, not read from derive_count, so that a fault there
        # cannot pass every identity check
        check(f"binomial sum: h01({n}) from doubled h(0..{n})",
              lambda: binomial_sum([doubling(dpll(Variant.H, k)) for k in range(n + 1)]),
              lambda: dpll(Variant.H01, n))

    if include_nonisomorphic:
        for n in range(oracle_max + 1):
            for variant in VARIANTS:
                check(f"orbit sizes sum: {variant.value}({n})",
                      lambda: brute_count(n, variant),
                      lambda: sum(census(variant, n).orbit_sizes))
        for variant, (seq_id, prefix) in SEQUENCE_PREFIXES.items():
            for n in range(min(oracle_max, len(prefix) - 1) + 1):
                check(f"published sequence {seq_id}: {variant.value}({n}) orbits",
                      lambda: prefix[n], lambda: census(variant, n).orbit_count,
                      warning=True)

    read_deadline()  # a run that overran in its last check still fails
    return run
