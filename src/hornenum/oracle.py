"""Exhaustive ground truth for small widths.

Every family of width-n vectors is one subset of {0,1}^n, held as a mask
with bit v set when vector v belongs to the family; the variant endpoint
rules are two bit tests.  For n <= 4 every closed family is visited,
built from the closed families one width down (the one-element
decomposition of Habib & Nourine) instead of a scan of all 2^(2^n)
subsets.  Nothing here shares code with the clause encoding or the
counting search; that independence is the point.

A list of maps on vectors acts on masks through one set of lifted
tables, one table per byte of the mask, whose entry x is one packed int
with one lane per map, lane m holding x's image under map m; each table
doubles once per vector.  One lookup per byte, the entries OR-ed and
the lanes unpacked in one call, gives a mask's images under all the
maps: under the meets with each vector when the closed masks are built,
and under the n! variable permutations in the isomorphism census.  The
census walks the closed masks in order, skips those already seen, and
adds each other one's images to the seen set as its orbit; orbits are
disjoint, so the orbit's size is how much the seen set grew.  The
permutations' own vector images come from the same doubling, over the
n bits of a vector.

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
import struct
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import factorial
from operator import and_
from typing import Iterator, Sequence

from .families import Variant, VectorFamily, _check_width

#: Widest n the oracle enumerates; n = 5 would pair the 4,960 closed
#: masks of width 4 with each other, about 24.6M pairs at one AND each,
#: and then walk the orbits of the closed masks of width 5.
ORACLE_CAP = 4

#: Lifted tables: one per byte of a subset mask, whose entry x packs x's
#: images under every map of a list into one int, one lane per map, and
#: the struct that unpacks such an int's bytes into its lanes.
Tables = tuple[tuple[tuple[int, ...], ...], struct.Struct]


def _tables(images: Sequence[tuple[int, ...]], maps: int) -> Tables:
    """Lift `maps` maps from elements to sets of elements.  images[i]
    holds element i's image under each map, as a mask; a set is a mask
    with bit i for element i, and its image is the OR of its elements'
    images.  There is one table per byte of the set mask (one at least),
    and entry x of a table is one int holding the images, under each map,
    of the set that the bits of x stand for: lane m, the narrowest of 8,
    16, 32 or 64 bits that holds every image, is the image under map m.
    Lanes never carry into each other, so OR-ing two entries ORs each
    map's images.  The table doubles once per element: the new upper
    half is the lower half OR-ed with that element's packed images."""
    width = max((image.bit_length() for element in images for image in element), default=0)
    code = next(code for code in "BHIQ" if width <= 8 * struct.calcsize("<" + code))
    lanes = struct.Struct(f"<{maps}{code}")
    tables = []
    for base in range(0, max(len(images), 1), 8):
        table = [0]
        for element in images[base:base + 8]:
            packed = int.from_bytes(lanes.pack(*element), "little")
            table += [entry | packed for entry in table]
        tables.append(tuple(table))
    return tuple(tables), lanes


def _images(tables: Tables, mask: int) -> tuple[int, ...]:
    """A set mask's image under each map of the tables, in map order: the
    OR of one packed entry per byte of the mask, unpacked into its lanes
    in one call."""
    entries, lanes = tables
    packed = entries[0][mask & 0xFF]
    for table in entries[1:]:
        mask >>= 8
        packed |= table[mask & 0xFF]
    return lanes.unpack(packed.to_bytes(lanes.size, "little"))


def _meet_tables(n: int) -> Tables:
    """The tables of the maps v -> v AND r on the vectors of width n, one
    map per vector r in ascending order."""
    size = 1 << n
    return _tables([tuple(1 << (v & r) for r in range(size)) for v in range(size)], size)


def _permutation_tables(n: int) -> Tables:
    """The tables of the maps that the n! permutations of the variable
    positions induce on the vectors of width n.  Position 0 is x1 (most
    significant bit); new position p takes the value of old position
    perm[p].  A vector's images come from the same doubling over its n
    bits, lowest first, each bit an old position moving to a new one."""
    perms = list(itertools.permutations(range(n)))
    bits = [tuple(1 << (n - 1 - perm.index(n - 1 - b)) for perm in perms)
            for b in range(n)]
    vectors = _tables(bits, len(perms))
    return _tables([tuple(1 << image for image in _images(vectors, v))
                    for v in range(1 << n)], len(perms))


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
    meets = _meet_tables(n - 1)
    shift = 1 << (n - 1)
    lows = [(low, sum(1 << r for r, image in enumerate(_images(meets, low))
                      if image & ~low))
            for low in halves]
    closed = []
    for high in halves:
        top = high << shift
        closed.extend([top | low for low, unstable in lows if not high & unstable])
    return tuple(closed)


def _required_bits(n: int, variant: Variant) -> int:
    """The variant's endpoint rule as the mask bits its families must
    hold: bit v for each of Variant.required_vectors (bit 2^n - 1 for the
    all-ones vector, bit 0 for the all-zeros one, one bit at n = 0).  The
    vectors are distinct, so their sum is their OR."""
    return sum(1 << v for v in variant.required_vectors(n))


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
    Masks are visited in ascending order, and those already seen are
    skipped at C speed; each one left starts a new orbit, its images,
    which go into the seen set.  Orbits are disjoint, so the orbit's size
    is how much the seen set grew.  Every size must divide n!."""
    tables = _permutation_tables(n)
    group_order = factorial(n)
    seen: set[int] = set()
    orbits = []
    for mask in itertools.filterfalse(seen.__contains__, _closed_masks(n)):
        before = len(seen)
        seen.update(_images(tables, mask))
        size = len(seen) - before
        if group_order % size != 0:
            raise AssertionError(
                f"orbit size {size} does not divide {n}! = {group_order} "
                f"(orbit of mask {mask:#x})")
        orbits.append((mask, size))
    return tuple(orbits)


def _variant_count(n: int, variant: Variant) -> int:
    required = _required_bits(n, variant)
    return sum(count for endpoints, count in _endpoint_tally(n)
               if endpoints & required == required)


def brute_count(n: int, variant: Variant) -> int:
    """Number of families of the variant: the closed families of width n,
    every one visited, tallied by the variant's endpoint rule."""
    variant = Variant.from_name(variant)
    _check_width(n, ORACLE_CAP, "exhaustive enumeration")
    return _variant_count(n, variant)


def enumerate_families(n: int, variant: Variant) -> Iterator[VectorFamily]:
    """The families brute_count counts, in ascending subset-mask order.
    The arguments are checked at the call, not at the first family."""
    variant = Variant.from_name(variant)
    _check_width(n, ORACLE_CAP, "exhaustive enumeration")
    required = _required_bits(n, variant)
    return (VectorFamily(n, [v for v in range(1 << n) if mask >> v & 1])
            for mask in _closed_masks(n) if mask & required == required)


@dataclass(frozen=True)
class OrbitSummary:
    """Isomorphism-class census of one variant at one width."""

    n: int
    variant: Variant
    labeled_count: int
    orbit_count: int
    orbit_sizes: tuple[int, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "variant": self.variant.value,
                "orbit_sizes": list(self.orbit_sizes)}


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
    _check_width(n, ORACLE_CAP, "exhaustive enumeration")
    required = _required_bits(n, variant)
    sizes = [size for first, size in _orbits(n) if first & required == required]
    return OrbitSummary(n, variant, _variant_count(n, variant), len(sizes),
                        tuple(sorted(sizes, reverse=True)))


def nonisomorphic_count(n: int, variant: Variant) -> int:
    """Number of families distinct up to permutation of the variables."""
    return orbit_summary(n, variant).orbit_count
