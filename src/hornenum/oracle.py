"""Exhaustive ground truth for small widths.

Every family of width-n vectors is one subset of {0,1}^n, so for n <= 4
all 2^(2^n) of them can be visited directly: a subset is held as a mask
with bit v set when vector v belongs to the family, closure is checked
pair by pair, and the variant endpoint rules are two bit tests.  Nothing
here shares code with the clause encoding or the counting search; that
independence is the point.

Isomorphism classes are found the blunt way: the canonical form of a
family is the lexicographic minimum, over all n! variable permutations,
of its sorted member list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator

from .errors import ResourceLimitError
from .families import Variant, VectorFamily

#: Full family enumeration is 2^(2^n) subsets; n=5 would be 2^32.
ORACLE_CAP = 4


def _require_small(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > ORACLE_CAP:
        raise ResourceLimitError(
            f"exhaustive enumeration is capped at n <= {ORACLE_CAP}, got {n}")


def _mask_members(mask: int) -> list[int]:
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


def _is_closed_mask(mask: int) -> bool:
    """Meet closure on a subset mask: every pairwise AND of members is a
    member.  Identical to families.is_meet_closed, restated on masks so
    this module stays self-contained in its hot loop."""
    members = _mask_members(mask)
    for i, r in enumerate(members):
        for s in members[i + 1:]:
            if not (mask >> (r & s)) & 1:
                return False
    return True


@lru_cache(maxsize=None)
def _variant_counts_cached(n: int) -> dict:
    ones_bit = (1 << n) - 1
    h = h0 = h1 = h01 = 0
    for mask in range(1 << (1 << n)):
        if not _is_closed_mask(mask):
            continue
        h01 += 1
        has_zero = mask & 1
        has_ones = (mask >> ones_bit) & 1
        if has_zero:
            h0 += 1
        if has_ones:
            h1 += 1
        if has_zero and has_ones:
            h += 1
    return {Variant.H: h, Variant.H0: h0, Variant.H1: h1, Variant.H01: h01}


def variant_counts(n: int) -> dict:
    """All four variant counts from one pass over every subset."""
    _require_small(n)
    return dict(_variant_counts_cached(n))


def brute_count(n: int, variant: Variant) -> int:
    """Number of families of the variant, by visiting every subset."""
    if isinstance(variant, str):
        variant = Variant.from_name(variant)
    return variant_counts(n)[variant]


@lru_cache(maxsize=None)
def _closed_masks(n: int) -> tuple[int, ...]:
    return tuple(mask for mask in range(1 << (1 << n)) if _is_closed_mask(mask))


def _variant_masks(n: int, variant: Variant) -> Iterator[int]:
    ones_bit = (1 << n) - 1
    need_zero = variant.requires_all_zeros
    need_ones = variant.requires_all_ones
    for mask in _closed_masks(n):
        if need_zero and not mask & 1:
            continue
        if need_ones and not (mask >> ones_bit) & 1:
            continue
        yield mask


def enumerate_families(n: int, variant: Variant) -> Iterator[VectorFamily]:
    """The families brute_count counts, in ascending subset-mask order."""
    if isinstance(variant, str):
        variant = Variant.from_name(variant)
    _require_small(n)
    for mask in _variant_masks(n, variant):
        yield VectorFamily(n, _mask_members(mask))


def _permutation_tables(n: int) -> list[list[int]]:
    """For each permutation of variable positions, the induced map on
    vector values.  Position 0 is x1 (most significant bit)."""
    tables = []
    for perm in itertools.permutations(range(n)):
        table = []
        for value in range(1 << n):
            image = 0
            for new_pos in range(n):
                bit = (value >> (n - 1 - perm[new_pos])) & 1
                image |= bit << (n - 1 - new_pos)
            table.append(image)
        tables.append(table)
    return tables


def _canonical_members(members: list[int], tables: list[list[int]]) -> tuple[int, ...]:
    return min(tuple(sorted(table[v] for v in members)) for table in tables)


@dataclass(frozen=True)
class OrbitSummary:
    """Isomorphism-class census of one variant at one width."""

    n: int
    variant: Variant
    labeled_count: int
    orbit_count: int
    orbit_sizes: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "variant": self.variant.value,
            "labeled_count": self.labeled_count,
            "orbit_count": self.orbit_count,
            "orbit_sizes": list(self.orbit_sizes),
        }


def orbit_summary(n: int, variant: Variant) -> OrbitSummary:
    """Group the variant's families into orbits under variable permutation.

    Families are keyed by canonical form; orbit sizes necessarily divide
    n! and sum back to the labeled count.
    """
    if isinstance(variant, str):
        variant = Variant.from_name(variant)
    _require_small(n)
    tables = _permutation_tables(n)
    sizes: dict[tuple[int, ...], int] = {}
    labeled = 0
    for mask in _variant_masks(n, variant):
        labeled += 1
        key = _canonical_members(_mask_members(mask), tables)
        sizes[key] = sizes.get(key, 0) + 1
    group_order = factorial(n)
    for key, size in sizes.items():
        if group_order % size != 0:
            raise AssertionError(
                f"orbit size {size} does not divide {n}! = {group_order} (orbit {key})")
    return OrbitSummary(n, variant, labeled, len(sizes),
                        tuple(sorted(sizes.values(), reverse=True)))


def nonisomorphic_count(n: int, variant: Variant) -> int:
    """Number of families distinct up to permutation of the variables."""
    return orbit_summary(n, variant).orbit_count
