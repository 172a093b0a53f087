import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hornenum.families import Variant
from hornenum.identities import (asymptotic_report, binomial, binomial_sum,
                                 derive_count, doubling, inverse_binomial_sum)
from hornenum.validation import REFERENCE_H, REFERENCE_H1


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(5, 0) == 1
        assert binomial(5, 5) == 1

    def test_row_sums(self):
        for n in range(10):
            assert sum(binomial(n, k) for k in range(n + 1)) == 2 ** n

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binomial(3, 4)
        with pytest.raises(ValueError):
            binomial(3, -1)
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestDoubling:
    def test_values(self):
        assert doubling(45) == 90
        assert doubling(0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            doubling(-1)


class TestBinomialSum:
    def test_small_prefix(self):
        assert binomial_sum([1, 1, 4]) == 7

    def test_reference_tables_are_consistent(self):
        for n in range(len(REFERENCE_H)):
            assert binomial_sum(REFERENCE_H[: n + 1]) == REFERENCE_H1[n]

    def test_empty(self):
        with pytest.raises(ValueError):
            binomial_sum([])

    def test_inverse_recovers_reference(self):
        assert inverse_binomial_sum(REFERENCE_H1) == list(REFERENCE_H)

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 12),
                    min_size=1, max_size=12))
    def test_round_trip(self, base):
        totals = [binomial_sum(base[: n + 1]) for n in range(len(base))]
        assert inverse_binomial_sum(totals) == base

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 12),
                    min_size=1, max_size=12))
    def test_round_trip_other_direction(self, totals):
        base = inverse_binomial_sum(totals)
        assert [binomial_sum(base[: n + 1]) for n in range(len(base))] == totals


class TestDeriveCount:
    PUBLISHED = {Variant.H: REFERENCE_H, Variant.H1: REFERENCE_H1}

    def published(self, variant, k):
        return self.PUBLISHED[variant][k]

    @pytest.mark.parametrize("n", range(1, len(REFERENCE_H)))
    def test_published_columns(self, n):
        assert derive_count(Variant.H, n, self.published) == REFERENCE_H[n]
        assert derive_count(Variant.H1, n, self.published) == REFERENCE_H1[n]
        assert derive_count(Variant.H0, n, self.published) == 2 * REFERENCE_H[n]
        assert derive_count(Variant.H01, n, self.published) == 2 * REFERENCE_H1[n]

    def test_h0_undefined_at_width_zero(self):
        with pytest.raises(ValueError, match="n=0"):
            derive_count(Variant.H0, 0, self.published)
        assert derive_count(Variant.H01, 0, self.published) == 2


class TestAsymptoticReport:
    def test_reference_growth_rate(self):
        rows = asymptotic_report(dict(enumerate(REFERENCE_H)))
        by_n = {row["n"]: row for row in rows}
        # log2 h(n) / C(n, n//2) settles just above 2 on this range
        assert by_n[5]["ratio"] == pytest.approx(
            math.log2(1373701) / 10, rel=1e-12)
        assert 2.03 < by_n[5]["ratio"] < 2.05
        # parity of n swings the central binomial, so the n=6 point dips
        assert 1.79 < by_n[6]["ratio"] < 1.82

    def test_width_zero_row(self):
        rows = asymptotic_report([1])
        assert rows[0]["count"] == 1
        assert rows[0]["log2_count"] == 0
        assert rows[0]["ratio"] == 0

    def test_sequence_input(self):
        rows = asymptotic_report([1, 2, 7])
        assert [row["n"] for row in rows] == [0, 1, 2]
        assert rows[2]["central_binomial"] == 2

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            asymptotic_report([1, 0])

    def test_rows_are_json_ready(self):
        import json

        rows = asymptotic_report(dict(enumerate(REFERENCE_H1)))
        json.dumps(rows)
