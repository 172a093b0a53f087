"""Algebraic relations between the four variant counts.

Two families of relations tie the variants together: doubling (adjoining
the constant 0 exactly doubles a count, by the duality swapping m = 0
equations with m = V ones) and binomial sums (a count with the all-ones
vector optional decomposes over which k variables are fixed to 1).  Both
are used in two roles: as a derivation method for counts and, computed
from independently produced sides, as a consistency check.

derive_count is the one place where the identities tying the variants
together are written: the identity method, the doubled reference columns
and the verify matrix's doubling and h1 binomial-sum checks all read it.

The doubling relation for h0 degenerates at n = 0, where the all-ones and
all-zeros vectors coincide; derive_count refuses h0 there.

Everything here is exact integer arithmetic; the only float appears in
the asymptotic diagnostic, which is informational by design.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence, Union

from .families import Variant


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; k must lie in [0, n]."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    return math.comb(n, k)


def doubling(count: int) -> int:
    """The doubled count: h -> h0 and h1 -> h01 (h0 direction valid for
    n >= 1 only)."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return 2 * count


def binomial_sum(base: Sequence[int]) -> int:
    """Sum C(n,k) * base[k] over k = 0..n, where n = len(base) - 1.

    With base = the h counts this yields h1(n); with base = the doubled
    h counts it yields h01(n).
    """
    if len(base) == 0:
        raise ValueError("base sequence must contain entries for k = 0..n")
    n = len(base) - 1
    return sum(binomial(n, k) * base[k] for k in range(n + 1))


def inverse_binomial_sum(totals: Sequence[int]) -> list[int]:
    """Recover base[0..n] from totals[k] = sum_j C(k,j) * base[j].

    Inverse of binomial_sum applied prefix-wise; used to derive h counts
    from h1 counts.
    """
    base: list[int] = []
    for k in range(len(totals)):
        base.append(totals[k] - sum(binomial(k, j) * base[j] for j in range(k)))
    return base


def derive_count(variant: Variant, n: int, count: Callable[[Variant, int], int]) -> int:
    """The variant's count at width n, derived from counts of other
    variants that count(variant, k) supplies: h0(n) = 2 h(n) for n >= 1,
    h01(n) = 2 h1(n), h1(n) = sum C(n,k) h(k) over k = 0..n, and h(n)
    by inverting that sum over h1(0..n)."""
    if variant is Variant.H0:
        if n == 0:
            raise ValueError(
                "no identity derives the h0 count at n=0: the all-ones and "
                "all-zeros vectors coincide there, so the h0/h doubling fails")
        return doubling(count(Variant.H, n))
    if variant is Variant.H01:
        return doubling(count(Variant.H1, n))
    if variant is Variant.H1:
        return binomial_sum([count(Variant.H, k) for k in range(n + 1)])
    return inverse_binomial_sum([count(Variant.H1, k) for k in range(n + 1)])[n]


def asymptotic_report(counts: Union[Mapping[int, int], Sequence[int]]) -> list[dict]:
    """Diagnostic ratios log2(count(n)) / C(n, floor(n/2)) for every n.

    The growth of the counts tracks the central binomial coefficient in
    the exponent; the ratio is reported for inspection only and carries
    no pass/fail threshold.
    """
    if isinstance(counts, Mapping):
        items = sorted(counts.items())
    else:
        items = list(enumerate(counts))
    rows = []
    for n, count in items:
        if count <= 0:
            raise ValueError(f"counts must be positive, got {count} at n={n}")
        central = binomial(n, n // 2)
        log2 = math.log2(count)
        rows.append({
            "n": n,
            "count": count,
            "log2_count": log2,
            "central_binomial": central,
            "ratio": log2 / central,
        })
    return rows
