import functools
import itertools
import operator
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornenum import (brute_count, canonical_form, count_models, count_variant, count_width,
                      encode, enumerate_families, models, nonisomorphic_count, orbit_summary,
                      reference_count, variant_counts, vector_of, verify_matrix)
from hornenum import oracle
from hornenum.errors import ParseError, ResourceLimitError
from hornenum.families import (MAX_WIDTH, VARIANTS, BitVector, Variant, VectorFamily,
                               is_meet_closed, meet, meet_closure, variant_member)


def bv(text):
    return BitVector.from_string(text)


class TestBitVector:
    def test_string_round_trip(self):
        for text in ("0", "1", "0110", "1" * 64):
            assert str(bv(text)) == text

    def test_msb_is_x1(self):
        v = bv("100")
        assert v.bit(0) == 1 and v.bit(1) == 0 and v.bit(2) == 0
        assert v.value == 4

    def test_bits_tuple(self):
        assert bv("0110").bits() == (0, 1, 1, 0)

    def test_from_bits(self):
        assert BitVector.from_bits([1, 0, 1]) == bv("101")
        # a bit is an int, as the fields are: a bool or a float is refused,
        # not read as 0/1 or left to fail in the packing
        for bits in ([True, False], [0, False], [1.0], [1, 0.0], ["1"], [2]):
            with pytest.raises(ValueError):
                BitVector.from_bits(bits)

        class Bit(int):
            pass

        assert BitVector.from_bits([Bit(1), Bit(0)]) == bv("10")

    def test_width_zero(self):
        v = BitVector(0, 0)
        assert str(v) == ""
        assert v.is_all_ones and v.is_all_zeros

    def test_endpoints(self):
        assert BitVector.all_ones(3) == bv("111")
        assert BitVector.all_zeros(3) == bv("000")

    def test_value_range_checked(self):
        with pytest.raises(ValueError):
            BitVector(2, 4)
        with pytest.raises(ValueError):
            BitVector(-1, 0)
        with pytest.raises(ValueError):
            BitVector(MAX_WIDTH + 1, 0)

    def test_width_and_value_must_be_ints(self):
        # a float, a bool or a numeric string is not silently read as an
        # int; an int subclass other than bool is one
        for width, value in ((3, 1.5), (True, 1), (3, True), ("3", 1), (3, "1"), (3.0, 1)):
            with pytest.raises(ValueError):
                BitVector(width, value)

        class Count(int):
            pass

        assert str(BitVector(Count(3), Count(5))) == "101"

    def test_bad_strings(self):
        with pytest.raises(ValueError):
            BitVector.from_string("01x")
        with pytest.raises(ValueError):
            BitVector.from_string("")

    def test_bit_index_out_of_range(self):
        with pytest.raises(IndexError):
            bv("01").bit(2)


class TestMeet:
    def test_coordinatewise_and(self):
        assert meet(bv("0110"), bv("0101")) == bv("0100")

    def test_idempotent(self):
        r = bv("1010")
        assert meet(r, r) == r

    def test_all_ones_is_identity(self):
        r = bv("0110")
        assert meet(r, BitVector.all_ones(4)) == r

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            meet(bv("01"), bv("011"))

    @given(st.integers(1, 16), st.data())
    def test_commutative_associative(self, width, data):
        vals = st.integers(0, (1 << width) - 1)
        r = BitVector(width, data.draw(vals))
        s = BitVector(width, data.draw(vals))
        t = BitVector(width, data.draw(vals))
        assert meet(r, s) == meet(s, r)
        assert meet(meet(r, s), t) == meet(r, meet(s, t))


class TestVectorFamily:
    def test_dedupe_and_order(self):
        fam = VectorFamily(2, [3, 1, 3, 0])
        assert fam.values == (0, 1, 3)
        assert [str(v) for v in fam] == ["00", "01", "11"]

    def test_contains(self):
        fam = VectorFamily(2, [0, 3])
        assert bv("00") in fam and 3 in fam
        assert bv("01") not in fam
        assert bv("000") not in fam  # wrong width

    def test_member_width_checked(self):
        with pytest.raises(ValueError):
            VectorFamily(2, [bv("011")])
        with pytest.raises(ValueError):
            VectorFamily(2, [4])

    def test_members_and_width_must_be_ints(self):
        for member in (1.5, "3", True, None):
            with pytest.raises(ValueError):
                VectorFamily(3, [member])
        for width in (3.0, "3", True):
            with pytest.raises(ValueError):
                VectorFamily(width, [1])

        class Count(int):
            pass

        assert VectorFamily(Count(3), [Count(1), 3]).values == (1, 3)

    def test_full_and_empty(self):
        assert len(VectorFamily.full(3)) == 8
        assert len(VectorFamily.empty(3)) == 0

    def test_parse_round_trip(self):
        text = "001\n011\n101\n"
        fam = VectorFamily.parse(text)
        assert fam.to_text() == text

    def test_parse_comments_and_blanks(self):
        fam = VectorFamily.parse("# heading\n\n01\n# tail\n10\n")
        assert fam.values == (1, 2)

    def test_parse_reports_position(self):
        with pytest.raises(ParseError) as err:
            VectorFamily.parse("01\n0x\n")
        assert err.value.line == 2 and err.value.column == 2

    def test_parse_width_mismatch(self):
        with pytest.raises(ParseError) as err:
            VectorFamily.parse("01\n011\n")
        assert err.value.line == 2

    def test_parse_trailing_comment(self):
        # `#` starts a comment anywhere, as in equation and clause files
        assert VectorFamily.parse("01  # note\n10#x\n").values == (1, 2)

    def test_parse_error_gives_the_file_column(self):
        with pytest.raises(ParseError) as err:
            VectorFamily.parse("  0x1")
        assert (err.value.line, err.value.column) == (1, 4)
        with pytest.raises(ParseError) as err:
            VectorFamily.parse("01\n\t 10 2 # note\n")
        assert (err.value.line, err.value.column) == (2, 5)

    def test_parse_width_mismatch_points_at_the_vector(self):
        with pytest.raises(ParseError, match="width 3, expected 2") as err:
            VectorFamily.parse("01\n   011  # three\n")
        assert (err.value.line, err.value.column) == (2, 4)

    def test_parse_empty_input(self):
        with pytest.raises(ParseError):
            VectorFamily.parse("# nothing\n")

    def test_width_zero_has_no_text_form(self):
        with pytest.raises(ValueError):
            VectorFamily(0, [0]).to_text()

    def test_repr_shows_the_empty_vector(self):
        # at width 0 the one vector is shown as BitVector shows it, so the
        # family holding it differs from the empty family
        assert repr(VectorFamily(0, [0])) == "VectorFamily(width=0, {<empty>})"
        assert repr(VectorFamily(0, [])) == "VectorFamily(width=0, {})"
        assert repr(VectorFamily(2, [2, 1])) == "VectorFamily(width=2, {01, 10})"
        assert repr(VectorFamily(4, range(9))) == (
            "VectorFamily(width=4, {0000, 0001, 0010, 0011, 0100, 0101, 0110, 0111, ...})")

    def test_equality_and_hash(self):
        a = VectorFamily(2, [1, 2])
        b = VectorFamily(2, [2, 1])
        assert a == b and hash(a) == hash(b)
        assert a != VectorFamily(3, [1, 2])


def family(width, *texts):
    return VectorFamily(width, [bv(t) for t in texts])


class TestClosure:
    def test_full_family_closed(self):
        assert is_meet_closed(VectorFamily.full(2))

    def test_missing_meet_detected(self):
        assert not is_meet_closed(family(2, "01", "10"))

    def test_empty_vacuously_closed(self):
        assert is_meet_closed(VectorFamily.empty(3))

    def test_closure_adds_one_meet(self):
        assert meet_closure(family(2, "01", "10")) == family(2, "00", "01", "10")

    def test_closure_fixed_point(self):
        fam = family(2, "00", "01", "11")
        assert meet_closure(fam) == fam

    def test_closure_cascades(self):
        got = meet_closure(family(3, "011", "101", "110"))
        assert got == family(3, "000", "001", "010", "100", "011", "101", "110")

    @given(st.integers(1, 5), st.sets(st.integers(0, 31), max_size=12))
    @settings(max_examples=200)
    def test_closure_properties(self, width, values):
        values = {v % (1 << width) for v in values}
        fam = VectorFamily(width, values)
        closed = meet_closure(fam)
        assert is_meet_closed(closed)
        assert len(closed) >= len(fam)
        assert set(fam.values) <= set(closed.values)
        assert meet_closure(closed) == closed
        assert_meets_of_inputs(closed, fam)

    @given(st.integers(0, MAX_WIDTH), st.lists(st.integers(0, (1 << MAX_WIDTH) - 1), max_size=8),
           st.data())
    @settings(max_examples=200)
    def test_agrees_with_the_pairwise_scan(self, width, values, data):
        fam = VectorFamily(width, [v & ((1 << width) - 1) for v in values])
        closed = meet_closure(fam)
        assert is_meet_closed(fam) == pairwise_is_meet_closed(fam)
        assert is_meet_closed(closed) and pairwise_is_meet_closed(closed)
        # one member short of a closure is often open, sometimes closed
        dropped = data.draw(st.sampled_from(closed.values)) if len(closed) else None
        short = VectorFamily(width, [v for v in closed.values if v != dropped])
        assert is_meet_closed(short) == pairwise_is_meet_closed(short)

    def test_full_family_at_the_cap_is_closed(self):
        # 2^16 members, 2^31 pairs; only the top and its 16 coatoms are kept
        fam = VectorFamily.full(16)
        start = time.perf_counter()
        assert is_meet_closed(fam)
        assert time.perf_counter() - start <= 2.0

    def test_wide_closed_family_costs_its_irreducible_members(self):
        rng = random.Random(24)
        closed = meet_closure(VectorFamily(64, [rng.getrandbits(64) for _ in range(24)]))
        assert len(closed) == 15468
        start = time.perf_counter()
        assert is_meet_closed(closed)
        assert time.perf_counter() - start <= 2.0
        start = time.perf_counter()
        assert meet_closure(closed) == closed
        assert time.perf_counter() - start <= 2.0

    def test_open_family_stops_at_its_first_missing_meet(self):
        # the closure of these 64 vectors has 357,205 members and takes
        # seconds to build; the answer must come before that
        rng = random.Random(64)
        fam = VectorFamily(64, [rng.getrandbits(64) for _ in range(64)])
        start = time.perf_counter()
        assert not is_meet_closed(fam)
        assert time.perf_counter() - start <= 0.2

    def test_wide_closure_scales_with_its_size(self):
        # 24 random width-64 vectors close to thousands of members; the
        # closure is built and checked in about (members x closure) steps
        rng = random.Random(24)
        fam = VectorFamily(64, [rng.getrandbits(64) for _ in range(24)])
        start = time.perf_counter()
        closed = meet_closure(fam)
        assert time.perf_counter() - start <= 2.0
        assert len(closed) > 1000
        present = set(closed.values)
        assert present >= set(fam.values)
        assert all(g & u in present for g in fam.values for u in closed.values)
        # with each member a meet of inputs, the line above makes the result
        # closed: u & v is u met with the inputs of v one at a time
        assert_meets_of_inputs(closed, fam)


def pairwise_is_meet_closed(family):
    """The reference closedness test: the meet of every pair of members is
    a member, scanned pair by pair."""
    values = family.values
    present = set(values)
    for i, r in enumerate(values):
        for s in values[i + 1:]:
            if r & s not in present:
                return False
    return True


def assert_meets_of_inputs(closed, fam):
    """Every member u of the closure is the AND of the input members that
    contain u, so it is a meet of inputs and the closure is the least."""
    for u in closed.values:
        above = [g for g in fam.values if g & u == u]
        assert above and functools.reduce(operator.and_, above) == u


class TestVariantMember:
    def test_chain_family_in_all_variants(self):
        fam = family(2, "11", "01", "00")
        assert all(variant_member(fam, v) for v in Variant)

    def test_singleton_ones(self):
        fam = family(2, "11")
        assert variant_member(fam, Variant.H1)
        assert variant_member(fam, Variant.H01)
        assert not variant_member(fam, Variant.H)
        assert not variant_member(fam, Variant.H0)

    def test_empty_family(self):
        fam = VectorFamily.empty(2)
        assert variant_member(fam, Variant.H01)
        assert not any(variant_member(fam, v) for v in (Variant.H, Variant.H0, Variant.H1))

    def test_unclosed_family_in_no_variant(self):
        fam = family(2, "11", "01", "10", "00")
        assert all(variant_member(fam, v) for v in Variant)
        fam = family(2, "11", "01", "10")
        assert not any(variant_member(fam, v) for v in Variant)

    def test_variant_names(self):
        assert Variant.from_name("H01") is Variant.H01
        assert Variant.from_name(Variant.H0) is Variant.H0
        for name in ("h2", 5, None):
            with pytest.raises(ValueError, match="expected one of h, h0, h1, h01"):
                Variant.from_name(name)


# The endpoint rule stated independently of Variant.required_vectors: which
# of the all-ones and all-zeros vectors each variant's families contain.
ENDPOINTS = {Variant.H: ("ones", "zeros"), Variant.H0: ("zeros",),
             Variant.H1: ("ones",), Variant.H01: ()}


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("n", range(7))
def test_every_reader_of_the_endpoint_rule_agrees(n, variant):
    named = {"ones": (1 << n) - 1, "zeros": 0}
    required = list(dict.fromkeys(named[e] for e in ENDPOINTS[variant]))
    if n == 0:
        assert len(required) == (1 if ENDPOINTS[variant] else 0)
    assert variant.required_vectors(n) == tuple(required)
    assert encode(n, variant).unit_clauses == tuple((v + 1,) for v in required)
    assert oracle._required_bits(n, variant) == sum(1 << v for v in required)
    # each family of endpoints alone is meet-closed, so membership is the
    # endpoint rule alone
    for held in itertools.product((False, True), repeat=2):
        members = [v for v, keep in zip(named.values(), held) if keep]
        fam = VectorFamily(n, members)
        assert variant_member(fam, variant) == all(v in members for v in required)


def axiomatize(fam):
    """Clauses whose models are exactly the (meet-closed) family: for each
    variable subset S, either rule out S (no member extends it) or force
    the meet of all members extending S.  Test-local on purpose: it gives
    the closed-family direction of the clause/family correspondence an
    implementation that the package does not ship."""
    from hornenum.theory import HornClause
    n = fam.width
    clauses = []
    for s_mask in range(1 << n):
        body = {i for i in range(n) if (s_mask >> i) & 1}
        extending = [v for v in fam.values
                     if all((v >> (n - 1 - i)) & 1 for i in body)]
        if not extending:
            clauses.append(HornClause(body, None))
            continue
        meet_all = extending[0]
        for v in extending[1:]:
            meet_all &= v
        for j in range(n):
            if (meet_all >> (n - 1 - j)) & 1 and j not in body:
                clauses.append(HornClause(body, j))
    return clauses


@pytest.mark.parametrize("width", [1, 2, 3])
def test_closed_families_are_exactly_model_sets(width):
    """A family is some clause set's model set iff it is meet-closed: the
    forward direction is the axiomatization above; the reverse (model sets
    are always closed) is checked for every theory it produces."""
    from hornenum.theory import models
    for subset in range(1 << (1 << width)):
        fam = VectorFamily(width, [v for v in range(1 << width) if (subset >> v) & 1])
        model_set = models(axiomatize(fam), width)
        assert is_meet_closed(model_set)
        if is_meet_closed(fam):
            assert model_set == fam
        else:
            assert model_set != fam


# Every public entry point that takes a number of variables, with the
# first width above its cap and the error that width raises, or None
# where the entry point has no cap of its own.
WIDTH_ENTRY_POINTS = {
    "encode": (lambda n: encode(n, "h"), 7, ResourceLimitError),
    "vector_of": (lambda n: vector_of(1, n), None, None),
    "count_width": (count_width, 7, ResourceLimitError),
    "count_variant dpll": (lambda n: count_variant(n, "h", "dpll"), 7, ResourceLimitError),
    "count_variant identity": (lambda n: count_variant(n, "h1", "identity"), None, None),
    "count_variant bruteforce": (lambda n: count_variant(n, "h", "bruteforce"),
                                 5, ResourceLimitError),
    "count_models": (lambda n: count_models([(1,)], n), None, None),
    "brute_count": (lambda n: brute_count(n, "h"), 5, ResourceLimitError),
    "enumerate_families": (lambda n: enumerate_families(n, "h"), 5, ResourceLimitError),
    "orbit_summary": (lambda n: orbit_summary(n, "h"), 5, ResourceLimitError),
    "nonisomorphic_count": (lambda n: nonisomorphic_count(n, "h"), 5, ResourceLimitError),
    "variant_counts": (variant_counts, 5, ResourceLimitError),
    "models": (lambda n: models([], n), 17, ResourceLimitError),
    "canonical_form": (lambda n: canonical_form([], n), 17, ResourceLimitError),
    "verify_matrix": (verify_matrix, 6, ValueError),
    "reference_count": (lambda n: reference_count("h", n), None, None),
    "VectorFamily.full": (VectorFamily.full, 17, ResourceLimitError),
}


@pytest.mark.parametrize("entry", WIDTH_ENTRY_POINTS)
def test_every_width_follows_one_rule(entry):
    call, above_cap, error = WIDTH_ENTRY_POINTS[entry]
    # a bool, a float or a numeric string is refused by name, not read as
    # an int or left to fail deeper with a TypeError
    for n in (True, 2.0, "3"):
        with pytest.raises(ValueError, match=re.escape(repr(n))):
            call(n)
    if entry == "reference_count":
        assert call(-1) is None
    else:
        message = "verify cap 5" if entry == "verify_matrix" else "must be nonnegative"
        with pytest.raises(ValueError, match=message):
            call(-1)
    if above_cap is not None:
        with pytest.raises(error):
            call(above_cap)
