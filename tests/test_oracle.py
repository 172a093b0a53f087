import ast
import itertools
import math
import random
from collections import Counter
from functools import reduce
from operator import or_
from pathlib import Path

import pytest

import hornenum.oracle as oracle
import hornenum.validation as validation
from hornenum.errors import ResourceLimitError
from hornenum.families import Variant, VectorFamily, variant_member
from hornenum.oracle import (OrbitSummary, brute_count, enumerate_families,
                             nonisomorphic_count, orbit_summary)


def reference_orbit_summary(n, variant):
    """The census by canonical form: a family's class is the lexicographic
    minimum, over all n! variable permutations, of its sorted member list."""
    tables = []
    for perm in itertools.permutations(range(n)):
        tables.append([sum(((value >> (n - 1 - perm[pos])) & 1) << (n - 1 - pos)
                           for pos in range(n))
                       for value in range(1 << n)])
    sizes = {}
    labeled = 0
    for family in enumerate_families(n, variant):
        labeled += 1
        key = min(tuple(sorted(table[v] for v in family.values)) for table in tables)
        sizes[key] = sizes.get(key, 0) + 1
    return OrbitSummary(n, variant, labeled, len(sizes),
                        tuple(sorted(sizes.values(), reverse=True)))


def reference_closed_masks(n):
    """Every meet-closed subset mask, by scanning all 2^(2^n) of them."""
    closed = []
    for mask in range(1 << (1 << n)):
        members = [v for v in range(1 << n) if mask >> v & 1]
        if all(mask >> (r & s) & 1 for r in members for s in members):
            closed.append(mask)
    return tuple(closed)


def reference_permutation_images(n):
    """Each permutation's vector images, built per value and per position:
    new position p takes the bit of old position perm[p]."""
    images = []
    for perm in itertools.permutations(range(n)):
        image = []
        for value in range(1 << n):
            moved = 0
            for new_pos in range(n):
                bit = (value >> (n - 1 - perm[new_pos])) & 1
                moved |= bit << (n - 1 - new_pos)
            image.append(moved)
        images.append(image)
    return images


def image_mask(mask, image):
    """The OR of the bits image[v] over the vectors v of a subset mask."""
    return reduce(or_, (1 << target for v, target in enumerate(image) if mask >> v & 1), 0)


class TestClosedMasks:
    @pytest.mark.parametrize("n", range(5))
    def test_pairing_halves_matches_full_scan(self, n):
        assert oracle._closed_masks(n) == reference_closed_masks(n)

    @pytest.mark.parametrize("n", range(5))
    def test_endpoint_tally_counts_every_mask(self, n):
        # the tally reads no mask in a Python loop; the reference tallies
        # each mask's endpoint bits one by one
        endpoints = oracle._required_bits(n, Variant.H)
        reference = Counter(mask & endpoints for mask in oracle._closed_masks(n))
        tally = oracle._endpoint_tally(n)
        assert len(tally) == len(reference)
        assert dict(tally) == reference

    @pytest.mark.parametrize("n", range(6))
    def test_permutation_maps_by_doubling(self, n):
        # every one-vector mask checks the vector images, and every closed
        # mask their lift to the per-byte tables; past the oracle's cap a
        # seeded sample of masks stands in for the closed ones (at n = 5:
        # 120 maps in 32-bit lanes)
        perms = reference_permutation_images(n)
        tables = oracle._permutation_tables(n)
        if n <= oracle.ORACLE_CAP:
            sample = list(oracle._closed_masks(n))
        else:
            rng = random.Random(n)
            sample = [rng.getrandbits(1 << n) for _ in range(300)]
        for mask in [1 << v for v in range(1 << n)] + sample:
            assert list(oracle._images(tables, mask)) == [
                image_mask(mask, image) for image in perms]

    @pytest.mark.parametrize("n", range(5))
    def test_meet_tables(self, n):
        # every mask up to n = 3; a seeded sample at n = 4 (16-bit lanes)
        size = 1 << n
        meets = [[v & r for v in range(size)] for r in range(size)]
        tables = oracle._meet_tables(n)
        masks = range(1 << size) if n < 4 else random.Random(n).sample(range(1 << size), 500)
        for mask in masks:
            assert list(oracle._images(tables, mask)) == [
                image_mask(mask, image) for image in meets]

    @pytest.mark.parametrize("n", range(5))
    def test_orbit_firsts_and_sizes(self, n):
        # an orbit's size is read from how much the seen set grew; an
        # independent set of its first mask's images checks it
        tables = oracle._permutation_tables(n)
        for first, size in oracle._orbits(n):
            images = oracle._images(tables, first)
            assert first == min(images)
            assert size == len(set(images))


class TestBruteCount:
    def test_known_small_counts(self):
        assert brute_count(2, Variant.H) == 4
        assert brute_count(3, Variant.H1) == 61
        assert brute_count(0, Variant.H01) == 2

    def test_width_zero_all_variants(self):
        assert brute_count(0, Variant.H) == 1
        assert brute_count(0, Variant.H0) == 1
        assert brute_count(0, Variant.H1) == 1

    def test_matches_enumeration(self):
        for n in range(5):
            for variant in Variant:
                families = list(enumerate_families(n, variant))
                assert brute_count(n, variant) == len(families)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            brute_count(5, Variant.H)

    def test_variant_counts_bundle(self):
        counts = {variant: brute_count(3, variant) for variant in Variant}
        assert counts[Variant.H] == 45
        assert counts[Variant.H0] == 90
        assert counts[Variant.H1] == 61
        assert counts[Variant.H01] == 122

    def test_variant_counts_width_four(self):
        assert {variant: brute_count(4, variant) for variant in Variant} == {
            Variant.H: 2271, Variant.H0: 4542, Variant.H1: 2480, Variant.H01: 4960}


class TestEnumerateFamilies:
    def test_width_one_all_ones(self):
        families = list(enumerate_families(1, Variant.H1))
        assert families == [VectorFamily(1, [1]), VectorFamily(1, [0, 1])]

    def test_width_two_h_members(self):
        families = list(enumerate_families(2, Variant.H))
        expected = [
            VectorFamily(2, [0b00, 0b11]),
            VectorFamily(2, [0b00, 0b01, 0b11]),
            VectorFamily(2, [0b00, 0b10, 0b11]),
            VectorFamily(2, [0b00, 0b01, 0b10, 0b11]),
        ]
        assert families == expected

    def test_arguments_checked_at_the_call(self):
        # no family is read, so the errors come from the call itself
        with pytest.raises(ResourceLimitError):
            enumerate_families(5, "h")
        with pytest.raises(ValueError, match="unknown variant"):
            enumerate_families(2, "bogus")
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_families(-1, Variant.H)

    def test_width_zero(self):
        families = list(enumerate_families(0, Variant.H))
        assert len(families) == 1
        assert families[0].values == (0,)

    def test_all_results_qualify(self):
        for n in range(4):
            for variant in Variant:
                for family in enumerate_families(n, variant):
                    assert variant_member(family, variant)

    def test_exhaustive_against_membership_predicate(self):
        # every subset of {0,1}^n is classified the same way by the mask
        # sweep and by the public membership predicate
        for n in range(4):
            for variant in Variant:
                from_masks = {f.values for f in enumerate_families(n, variant)}
                from_predicate = set()
                # mask 0 is the empty family, which qualifies for h01
                for mask in range(1 << (1 << n)):
                    values = [v for v in range(1 << n) if (mask >> v) & 1]
                    family = VectorFamily(n, values)
                    if variant_member(family, variant):
                        from_predicate.add(family.values)
                assert from_masks == from_predicate


class TestNonisomorphic:
    def test_trivial_widths_have_no_symmetry(self):
        for n in (0, 1):
            for variant in Variant:
                assert nonisomorphic_count(n, variant) == brute_count(n, variant)

    def test_width_two_h(self):
        # the two single-extra-vector families are mirror images
        assert nonisomorphic_count(2, Variant.H) == 3

    def test_orbit_structure(self):
        for n in range(4):
            for variant in Variant:
                summary = orbit_summary(n, variant)
                assert summary.orbit_count == len(summary.orbit_sizes)
                assert sum(summary.orbit_sizes) == summary.labeled_count
                assert summary.labeled_count == brute_count(n, variant)
                factorial = math.factorial(n)
                assert all(factorial % size == 0 for size in summary.orbit_sizes)

    def test_summary_serializes(self):
        summary = orbit_summary(2, Variant.H1)
        payload = summary.to_dict()
        assert payload["orbit_count"] == nonisomorphic_count(2, Variant.H1)
        assert payload["variant"] == "h1"

    def test_counts_never_exceed_labeled(self):
        for variant in Variant:
            assert nonisomorphic_count(3, variant) <= brute_count(3, variant)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            orbit_summary(5, Variant.H1)

    def test_matches_canonical_form_reference(self):
        for n in range(5):
            for variant in Variant:
                assert orbit_summary(n, variant) == reference_orbit_summary(n, variant)

    def test_verify_matrix_takes_each_census_once(self, monkeypatch):
        calls = []

        def spy(n, variant):
            calls.append((n, variant))
            return orbit_summary(n, variant)

        monkeypatch.setattr(validation, "orbit_summary", spy)
        assert validation.verify_matrix(4).passed
        assert len(calls) == 20
        assert set(calls) == {(n, variant) for n in range(5) for variant in Variant}

    def test_verify_matrix_walks_each_width_once(self):
        # the four variants of a width share one orbit walk and one tally
        for cached in (oracle._closed_masks, oracle._orbits, oracle._endpoint_tally):
            cached.cache_clear()
        assert validation.verify_matrix(4).passed
        assert oracle._orbits.cache_info().misses == 5
        assert oracle._endpoint_tally.cache_info().misses == 5

    @pytest.mark.parametrize("n", range(5))
    def test_permutations_keep_the_endpoints(self, n):
        # the shared walk is exact only because no orbit crosses a
        # variant's endpoint rule
        ones = (1 << n) - 1
        tables = oracle._permutation_tables(n)
        for mask in oracle._closed_masks(n):
            endpoints = (mask & 1, mask >> ones & 1)
            for image in oracle._images(tables, mask):
                assert (image & 1, image >> ones & 1) == endpoints


class TestContainment:
    def test_variant_families_nest(self):
        # H families satisfy every other variant's constraints too
        for n in range(4):
            h = set(f.values for f in enumerate_families(n, Variant.H))
            h0 = set(f.values for f in enumerate_families(n, Variant.H0))
            h1 = set(f.values for f in enumerate_families(n, Variant.H1))
            h01 = set(f.values for f in enumerate_families(n, Variant.H01))
            assert h == h0 & h1
            assert h0 <= h01
            assert h1 <= h01


def test_oracle_imports_neither_encoder_nor_counter():
    # the oracle is the route to the counts that shares no code with the
    # clause encoding or the counting search
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    modules = {name.rsplit(".", 1)[-1] for name in imported}
    assert "families" in modules
    assert not modules & {"encoder", "counter"}
