import math

import pytest

from hornenum.errors import ResourceLimitError
from hornenum.families import Variant, VectorFamily, variant_member
from hornenum.oracle import (brute_count, enumerate_families,
                             nonisomorphic_count, orbit_summary,
                             variant_counts)


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
        for n in range(4):
            for variant in Variant:
                families = list(enumerate_families(n, variant))
                assert brute_count(n, variant) == len(families)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            brute_count(5, Variant.H)

    def test_variant_counts_bundle(self):
        counts = variant_counts(3)
        assert counts[Variant.H] == 45
        assert counts[Variant.H0] == 90
        assert counts[Variant.H1] == 61
        assert counts[Variant.H01] == 122


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
        for n in range(3):
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
