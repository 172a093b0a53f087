"""Exhaustive ground truth for small widths.

Every family of width-n vectors is one subset of {0,1}^n, held as a mask
with bit v set when vector v belongs to the family; the variant endpoint
rules are two bit tests.  For n <= 4 every closed family is visited,
built from the closed families one width down (the one-element
decomposition of Habib & Nourine) instead of a scan of all 2^(2^n)
subsets.  Nothing here shares code with the clause encoding or the
counting search; that independence is the point.

Maps on vectors act on masks through lifted tables, one 256-entry table
per byte of the mask.  The isomorphism census walks the closed masks in
order and expands each one not yet seen into its orbit, its images
under the n! variable permutations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator

from .errors import ResourceLimitError
from .families import VARIANTS, Variant, VectorFamily

#: Widest n the oracle enumerates; n = 5 would pair the 4,960 closed
#: masks of width 4 with each other, about 24.6M pairs.
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


def _lift(image: list[int]) -> tuple[tuple[int, ...], ...]:
    """Lift a map on the 2^n vectors (vector v goes to image[v]) to subset
    masks: one table per byte of the mask, whose entry x is the image
    mask of the vectors that the set bits of x stand for.  Each entry is
    its lower bits' entry plus the image of its highest bit."""
    tables = []
    for base in range(0, len(image), 8):
        chunk = image[base:base + 8]
        table = [0] * (1 << len(chunk))
        for x in range(1, len(table)):
            high = x.bit_length() - 1
            table[x] = table[x ^ (1 << high)] | 1 << chunk[high]
        tables.append(tuple(table))
    return tuple(tables)


def _apply(lifted: tuple[tuple[int, ...], ...], mask: int) -> int:
    """The image of a subset mask under a lifted vector map."""
    image = 0
    for table in lifted:
        image |= table[mask & 0xFF]
        mask >>= 8
    return image


@lru_cache(maxsize=None)
def _meet_maps(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each vector r, the lifted map v -> v AND r."""
    size = 1 << n
    return tuple(_lift([v & r for v in range(size)]) for r in range(size))


@lru_cache(maxsize=None)
def _permutation_maps(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each permutation of variable positions, the lifted map it
    induces on vector values.  Position 0 is x1 (most significant bit)."""
    maps = []
    for perm in itertools.permutations(range(n)):
        image = []
        for value in range(1 << n):
            moved = 0
            for new_pos in range(n):
                bit = (value >> (n - 1 - perm[new_pos])) & 1
                moved |= bit << (n - 1 - new_pos)
            image.append(moved)
        maps.append(_lift(image))
    return tuple(maps)


@lru_cache(maxsize=None)
def _closed_masks(n: int) -> tuple[int, ...]:
    """Every meet-closed subset mask, in ascending order.  Split on x1, a
    mask is its high half (the members with x1 = 1) over its low half,
    each a width n-1 family.  It is closed exactly when both halves are
    closed and meeting the low half with each high member stays inside
    the low half; high outside and low inside keeps the order ascending."""
    if n == 0:
        return (0, 1)
    halves = _closed_masks(n - 1)
    meets = _meet_maps(n - 1)
    shift = 1 << (n - 1)
    closed = []
    for high in halves:
        high_meets = [meets[r] for r in _mask_members(high)]
        for low in halves:
            for meet in high_meets:
                if _apply(meet, low) & ~low:
                    break
            else:
                closed.append(high << shift | low)
    return tuple(closed)


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


def variant_counts(n: int) -> dict:
    """All four variant counts, one brute_count each."""
    return {variant: brute_count(n, variant) for variant in VARIANTS}


def brute_count(n: int, variant: Variant) -> int:
    """Number of families of the variant, by visiting every closed family."""
    variant = Variant.from_name(variant)
    _require_small(n)
    return sum(1 for _ in _variant_masks(n, variant))


def enumerate_families(n: int, variant: Variant) -> Iterator[VectorFamily]:
    """The families brute_count counts, in ascending subset-mask order."""
    variant = Variant.from_name(variant)
    _require_small(n)
    for mask in _variant_masks(n, variant):
        yield VectorFamily(n, _mask_members(mask))


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

    Masks are visited in ascending order; each one not yet seen starts a
    new orbit, the set of its images under the n! permutations.  Orbit
    sizes must divide n!, and they sum to the labeled count only if no
    permutation ever leaves the variant.
    """
    variant = Variant.from_name(variant)
    _require_small(n)
    perms = _permutation_maps(n)
    group_order = factorial(n)
    seen: set[int] = set()
    sizes = []
    labeled = 0
    for mask in _variant_masks(n, variant):
        labeled += 1
        if mask in seen:
            continue
        orbit = {_apply(perm, mask) for perm in perms}
        if group_order % len(orbit) != 0:
            raise AssertionError(
                f"orbit size {len(orbit)} does not divide {n}! = {group_order} "
                f"(orbit of mask {mask:#x})")
        seen |= orbit
        sizes.append(len(orbit))
    return OrbitSummary(n, variant, labeled, len(sizes),
                        tuple(sorted(sizes, reverse=True)))


def nonisomorphic_count(n: int, variant: Variant) -> int:
    """Number of families distinct up to permutation of the variables."""
    return orbit_summary(n, variant).orbit_count
