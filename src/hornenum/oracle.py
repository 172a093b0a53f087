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

Each width is walked once for all four variants.  The closed masks are
the h01 families; the other variants only add the endpoint rules, which
test the all-zeros and all-ones vectors.  A variable permutation fixes
both vectors, so an orbit lies wholly inside or wholly outside each
variant, and a variant's census is the orbits whose first mask passes
its rule.  Its labeled count comes from one tally of the closed masks
by the two endpoint bits, a computation apart from the orbit walk.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import and_, or_
from typing import Iterator

from .errors import ResourceLimitError
from .families import VARIANTS, Variant, VectorFamily

#: Widest n the oracle enumerates; n = 5 would pair the 4,960 closed
#: masks of width 4 with each other, about 24.6M pairs at one AND each,
#: and then walk the orbits of the closed masks of width 5.
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
    mask of the vectors that the set bits of x stand for.  The table
    doubles once per bit: the new upper half is the lower half plus the
    bit's image."""
    tables = []
    for base in range(0, len(image), 8):
        table = [0]
        for target in image[base:base + 8]:
            bit = 1 << target
            table += [entry | bit for entry in table]
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
    induces on vector values.  Position 0 is x1 (most significant bit);
    new position p takes the value of old position perm[p].  A vector's
    image is the OR of its bits' images, so the image list doubles once
    per bit, lowest first, as _lift's tables do: the new upper half is
    the lower half plus the bit's image."""
    maps = []
    for perm in itertools.permutations(range(n)):
        # old position perm[p], value bit n-1-perm[p], moves to bit n-1-p
        moved = [0] * n
        for new_pos, old_pos in enumerate(perm):
            moved[n - 1 - old_pos] = 1 << (n - 1 - new_pos)
        image = [0]
        for bit in moved:
            image += [value | bit for value in image]
        maps.append(_lift(image))
    return tuple(maps)


@lru_cache(maxsize=None)
def _closed_masks(n: int) -> tuple[int, ...]:
    """Every meet-closed subset mask, in ascending order.  Split on x1, a
    mask is its high half (the members with x1 = 1) over its low half,
    each a width n-1 family.  It is closed exactly when both halves are
    closed and meeting the low half with each high member stays inside
    the low half, so one AND tests a pair: no high member may lie in the
    low half's unstable mask, the vectors r whose meet with it leaves
    it.  High outside and low inside keeps the order ascending."""
    if n == 0:
        return (0, 1)
    halves = _closed_masks(n - 1)
    meets = _meet_maps(n - 1)
    shift = 1 << (n - 1)
    lows = [(low, sum(1 << r for r, meet in enumerate(meets)
                      if _apply(meet, low) & ~low))
            for low in halves]
    closed = []
    for high in halves:
        top = high << shift
        closed.extend([top | low for low, unstable in lows if not high & unstable])
    return tuple(closed)


def _required_bits(n: int, variant: Variant) -> int:
    """The variant's endpoint rule as the mask bits its families must
    hold: bit 0 for the all-zeros vector, bit 2^n - 1 for the all-ones
    vector (one bit at n = 0, where the two coincide)."""
    return ((1 if variant.requires_all_zeros else 0)
            | (1 << ((1 << n) - 1) if variant.requires_all_ones else 0))


@lru_cache(maxsize=None)
def _endpoint_tally(n: int) -> tuple[tuple[int, int], ...]:
    """The closed masks of width n counted by their endpoint bits, as
    (endpoint bits, count) pairs, each with a nonzero count.  The all-ones
    bit is a mask's top bit, so in ascending order the masks that hold it
    are a suffix, found by bisection; in each part the masks holding the
    all-zeros bit, bit 0, are counted at C speed, with no loop in Python
    over the masks.  At n = 0 the two bits coincide, and the suffix is the
    one mask holding it."""
    masks = _closed_masks(n)
    ones = 1 << ((1 << n) - 1)
    split = bisect_left(masks, ones)
    tally = Counter()
    for high, part in ((0, masks[:split]), (ones, masks[split:])):
        with_zeros = sum(map(and_, part, itertools.repeat(1)))
        tally[high | 1] += with_zeros
        tally[high] += len(part) - with_zeros
    return tuple((+tally).items())


@lru_cache(maxsize=None)
def _orbits(n: int) -> tuple[tuple[int, int], ...]:
    """The orbits of the closed masks of width n under the n! variable
    permutations, as (first mask, size) in ascending order of first mask.
    Masks are visited in ascending order; each one not yet seen starts a
    new orbit, the set of its images.  Every size must divide n!."""
    # per byte of the mask, a table whose entry x holds x's images under
    # every permutation: one lookup per byte yields the whole orbit
    first, *rest = [tuple(zip(*tables)) for tables in zip(*_permutation_maps(n))]
    group_order = factorial(n)
    seen: set[int] = set()
    orbits = []
    for mask in _closed_masks(n):
        if mask in seen:
            continue
        images = first[mask & 0xFF]
        upper = mask
        for tables in rest:
            upper >>= 8
            images = map(or_, images, tables[upper & 0xFF])
        orbit = set(images)
        if group_order % len(orbit) != 0:
            raise AssertionError(
                f"orbit size {len(orbit)} does not divide {n}! = {group_order} "
                f"(orbit of mask {mask:#x})")
        seen |= orbit
        orbits.append((mask, len(orbit)))
    return tuple(orbits)


def _variant_count(n: int, variant: Variant) -> int:
    required = _required_bits(n, variant)
    return sum(count for endpoints, count in _endpoint_tally(n)
               if endpoints & required == required)


def _variant_masks(n: int, variant: Variant) -> Iterator[int]:
    required = _required_bits(n, variant)
    return (mask for mask in _closed_masks(n) if mask & required == required)


def variant_counts(n: int) -> dict:
    """All four variant counts, one brute_count each, from one tally."""
    return {variant: brute_count(n, variant) for variant in VARIANTS}


def brute_count(n: int, variant: Variant) -> int:
    """Number of families of the variant: the closed families of width n,
    every one visited, tallied by the variant's endpoint rule."""
    variant = Variant.from_name(variant)
    _require_small(n)
    return _variant_count(n, variant)


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

    One walk of the closed masks per width serves all four variants: a
    permutation fixes the all-zeros and all-ones vectors, so each orbit
    lies wholly inside or wholly outside the variant, and the variant's
    orbits are those whose first mask passes its endpoint rule.  Orbit
    sizes must divide n!, and they sum to the labeled count, taken from
    the endpoint tally, only if no permutation ever leaves the variant.
    """
    variant = Variant.from_name(variant)
    _require_small(n)
    required = _required_bits(n, variant)
    sizes = [size for first, size in _orbits(n) if first & required == required]
    return OrbitSummary(n, variant, _variant_count(n, variant), len(sizes),
                        tuple(sorted(sizes, reverse=True)))


def nonisomorphic_count(n: int, variant: Variant) -> int:
    """Number of families distinct up to permutation of the variables."""
    return orbit_summary(n, variant).orbit_count
