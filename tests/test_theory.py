import copy
import dataclasses
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornenum.errors import ParseError, ResourceLimitError
from hornenum.families import VectorFamily, is_meet_closed
from hornenum.theory import (BinomialEquation, HornClause, Monomial,
                             equations_to_horn, format_clauses, format_equations,
                             horn_to_equations, models, parse_clauses,
                             parse_equations)


def eq(a, b):
    return BinomialEquation(a, b)


class TestMonomial:
    def test_constants(self):
        assert not Monomial.one().is_zero and not Monomial.one().vars
        assert Monomial.zero().is_zero
        assert Monomial.one() != Monomial.zero()
        assert Monomial.of() == Monomial.one()

    def test_zero_carries_no_vars(self):
        with pytest.raises(ValueError):
            Monomial(frozenset({0}), True)

    def test_ordering(self):
        # 0 < 1 < x1 < x2 < x1 x2
        keys = [m.sort_key() for m in
                (Monomial.zero(), Monomial.one(), Monomial.of(0), Monomial.of(1),
                 Monomial.of(0, 1))]
        assert keys == sorted(keys)

    def test_rendering(self):
        assert str(Monomial.zero()) == "0"
        assert str(Monomial.one()) == "1"
        assert str(Monomial.of(2, 0)) == "x1 x3"


def true_at(m, n):
    """The points of {0,1}^n where the monomial m, not the constant 1
    itself, is true: the models of m = 1."""
    return set(models([eq(m, Monomial.one())], n))


class TestEvalMonomial:
    def test_one_true_everywhere(self):
        # 1 is true at every point, so x(i+1) = 1 holds where x(i+1) is 1
        assert true_at(Monomial.of(0), 2) == {0b10, 0b11}
        assert true_at(Monomial.of(1), 2) == {0b01, 0b11}

    def test_zero_false_everywhere(self):
        assert true_at(Monomial.zero(), 2) == set()
        # 0 is false at every point, so x1 = 0 holds where x1 is 0
        assert models([eq(Monomial.of(0), Monomial.zero())], 2).values == (0, 1)

    def test_conjunction(self):
        assert true_at(Monomial.of(0, 1), 3) == {0b110, 0b111}

    def test_width_mismatch(self):
        # the largest index decides, whatever order the set iterates in
        for m in (Monomial.of(3), Monomial.of(3, 0, 1), Monomial.of(1, 3)):
            for width in (2, 3):
                with pytest.raises(ValueError, match=f"uses x4 but n = {width}"):
                    true_at(m, width)
            assert (1 << 4) - 1 in true_at(m, 4)


# the one fit rule of models(): a constraint that uses x(k) at a width
# narrower than k is a ValueError (a monomial is checked as m = 1)
@pytest.mark.parametrize("item, k", [
    (Monomial.of(0, 3), 4),
    (BinomialEquation(Monomial.of(0), Monomial.of(1, 4)), 5),
    (BinomialEquation(Monomial.zero(), Monomial.of(2)), 3),
    (HornClause({5}, None), 6),  # a body too wide raised IndexError
    (HornClause({0}, 5), 6),     # a head too wide was read as satisfied
], ids=str)
def test_fit_rule(item, k):
    constraint = eq(item, Monomial.one()) if isinstance(item, Monomial) else item
    for width in (0, 2, k - 1):
        with pytest.raises(ValueError, match=f"uses x{k} but n = {width}$"):
            models([constraint], width)
    models([constraint], k)


# the one index rule: an int, not a bool, at least 0; anything else is a
# ValueError that names the value
@pytest.mark.parametrize("build, shown", [
    (lambda: Monomial.of(1.5), "1.5"),              # printed x2.5
    (lambda: HornClause({True}, 2), "True"),        # printed x2 -> x3
    (lambda: HornClause({1}, True), "True"),        # reported a tautology
    (lambda: HornClause({0}, 1.0), "1.0"),          # was accepted
    (lambda: Monomial(frozenset({"1"})), "'1'"),    # raised TypeError
    (lambda: Monomial.of(0, -1), "-1"),
    (lambda: HornClause({-2}, None), "-2"),
    (lambda: HornClause({0}, -1), "-1"),
])
def test_index_rule(build, shown):
    with pytest.raises(ValueError, match=f"^a variable index must be an int >= 0, got {re.escape(shown)}$"):
        build()


class TestEquationNormalization:
    def test_orientation_fixed(self):
        a = eq(Monomial.of(0, 1), Monomial.of(0))
        b = eq(Monomial.of(0), Monomial.of(0, 1))
        assert a == b
        assert a.lhs == Monomial.of(0)

    def test_reflexive_rejected(self):
        with pytest.raises(ValueError):
            eq(Monomial.of(0), Monomial.of(0))


class TestHornClause:
    def test_tautology_rejected(self):
        with pytest.raises(ValueError):
            HornClause({0, 1}, 1)

    def test_rendering(self):
        assert str(HornClause({0, 1}, 2)) == "x1 & x2 -> x3"
        assert str(HornClause(set(), 2)) == "-> x3"
        assert str(HornClause({0}, None)) == "x1 -> false"


class TestEquationsToHorn:
    def test_absorption_becomes_implication(self):
        got = equations_to_horn([eq(Monomial.of(0, 1), Monomial.of(0))])
        assert got == {HornClause({0}, 1)}
        assert models([eq(Monomial.of(0, 1), Monomial.of(0))], 2) == models(got, 2)

    def test_equal_one_becomes_unit(self):
        got = equations_to_horn([eq(Monomial.of(0), Monomial.one())])
        assert got == {HornClause(set(), 0)}

    def test_equal_zero_becomes_falsum_clause(self):
        got = equations_to_horn([eq(Monomial.of(0, 1), Monomial.zero())])
        assert got == {HornClause({0, 1}, None)}

    def test_one_equals_zero_becomes_contradiction(self):
        got = equations_to_horn([eq(Monomial.one(), Monomial.zero())])
        assert got == {HornClause(set(), None)}

    def test_result_deduplicated(self):
        pair = [eq(Monomial.of(0, 1), Monomial.of(0)),
                eq(Monomial.of(0), Monomial.of(0, 1))]
        assert len(equations_to_horn(pair)) == 1


class TestHornToEquations:
    def test_body_and_head(self):
        got = horn_to_equations([HornClause({0, 1}, 2)])
        assert got == {eq(Monomial.of(0, 1), Monomial.of(0, 1, 2))}

    def test_empty_body_gives_constant_one(self):
        got = horn_to_equations([HornClause(set(), 1)])
        assert got == {eq(Monomial.one(), Monomial.of(1))}

    def test_falsum_head_gives_zero(self):
        got = horn_to_equations([HornClause({0}, None)])
        assert got == {eq(Monomial.of(0), Monomial.zero())}
        assert models([HornClause({0}, None)], 1) == models(got, 1)


class TestModels:
    def test_empty_theory_gives_full_family(self):
        assert models([], 2) == VectorFamily(2, range(1 << 2))

    def test_absorption_models(self):
        fam = models([eq(Monomial.of(0, 1), Monomial.of(0))], 2)
        assert [fam.format_vector(v) for v in fam] == ["00", "01", "11"]

    def test_contradiction_has_no_models(self):
        assert len(models([eq(Monomial.one(), Monomial.zero())], 2)) == 0

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            models([], 17)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            models([HornClause({5}, None)], 2)

    def test_mixed_presentations(self):
        fam = models([HornClause({0}, 1), eq(Monomial.of(1), Monomial.one())], 2)
        assert [fam.format_vector(v) for v in fam] == ["01", "11"]


class TestCanonicalForm:
    """A theory's canonical form is its model set: two systems, in either
    presentation, are equivalent iff models() gives the same family."""

    def test_round_trip_agreement(self):
        eqs = [eq(Monomial.of(0, 1), Monomial.of(0))]
        assert models(eqs, 2) == models(equations_to_horn(eqs), 2)

    def test_equality_split_two_ways(self):
        single = [eq(Monomial.of(0), Monomial.of(1))]
        split = [eq(Monomial.of(0, 1), Monomial.of(0)),
                 eq(Monomial.of(0, 1), Monomial.of(1))]
        assert models(single, 2) == models(split, 2)
        assert models(single, 2).to_text() == "00\n11\n"

    def test_empty_theory(self):
        assert models([], 2) == VectorFamily(2, range(1 << 2))


class TestEquationGrammar:
    def test_basic_line(self):
        assert parse_equations("x1 x2 = x1") == {eq(Monomial.of(0, 1), Monomial.of(0))}

    def test_constant_side(self):
        assert parse_equations("x1 = 0") == {eq(Monomial.of(0), Monomial.zero())}

    def test_reflexive_dropped(self):
        assert parse_equations("x2 x1 = x1 x2") == frozenset()

    def test_star_separator(self):
        assert parse_equations("x1*x2 = x3") == parse_equations("x1 x2 = x3")
        assert parse_equations("x1 * x2 = x3") == parse_equations("x1 x2 = x3")

    @pytest.mark.parametrize("text, column", [
        ("x1 * = x2", 4),
        ("* x1 = x2", 1),
        ("x2 = x1 *", 9),
        ("x1 * * x2 = x3", 4),
        ("x1 = *", 6),
    ])
    def test_stray_star(self, text, column):
        # a `*` stands between two factors; the first that lacks one is
        # the error's column
        with pytest.raises(ParseError) as err:
            parse_equations("x1 = x2\n" + text)
        assert (err.value.line, err.value.column) == (2, column)
        assert str(err.value) == f"line 2, column {column}: expected a factor on each side of '*'"

    def test_comments_and_blanks(self):
        text = "# two constraints\n\nx1 = 1\nx2 x1 = 0  # inline\n"
        assert len(parse_equations(text)) == 2

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_equations("x1 = x2\nx1 = y3\n")
        assert err.value.line == 2 and err.value.column == 6

    def test_missing_equals(self):
        with pytest.raises(ParseError) as err:
            parse_equations("x1 x2")
        assert err.value.line == 1

    def test_double_equals(self):
        with pytest.raises(ParseError):
            parse_equations("x1 = x2 = x3")

    def test_empty_side(self):
        with pytest.raises(ParseError):
            parse_equations("x1 =")

    def test_constant_mixed_with_vars(self):
        with pytest.raises(ParseError):
            parse_equations("x1 0 = x2")

    def test_x0_rejected(self):
        with pytest.raises(ParseError):
            parse_equations("x0 = x1")


class TestClauseGrammar:
    def test_basic_forms(self):
        assert parse_clauses("x1 & x2 -> x3") == {HornClause({0, 1}, 2)}
        assert parse_clauses("-> x3") == {HornClause(set(), 2)}
        assert parse_clauses("x1 -> false") == {HornClause({0}, None)}

    def test_tautology_dropped(self):
        assert parse_clauses("x1 & x2 -> x1") == frozenset()

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_clauses("x1 x2 -> x3")
        with pytest.raises(ParseError):
            parse_clauses("x1 ->")
        with pytest.raises(ParseError):
            parse_clauses("x1 -> x2 -> x3")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_clauses("x1 & y2 -> x3")
        assert err.value.line == 1

    @pytest.mark.parametrize("text, column, message", [
        ("x1 & y2 -> x3", 6, "expected a variable like x1, got 'y2'"),
        ("x1 -> y3", 7, "expected a variable like x1, got 'y3'"),
        ("x1 ->", 6, "missing clause head"),
        ("x1 -> x2 -> x3", 1, "expected exactly one '->' per clause"),
    ])
    def test_error_columns(self, text, column, message):
        # a bad variable's column is that of its first character, past the
        # blanks after its separator, in the body and the head alike
        with pytest.raises(ParseError) as err:
            parse_clauses("x1 -> x2\n" + text)
        assert (err.value.line, err.value.column) == (2, column)
        assert str(err.value) == f"line 2, column {column}: {message}"


# strategies for random theories over at most 4 variables

monomials = st.one_of(
    st.just(Monomial.zero()),
    st.sets(st.integers(0, 3), max_size=4).map(Monomial),
)
equations = st.tuples(monomials, monomials).filter(lambda p: p[0] != p[1]).map(
    lambda p: BinomialEquation(*p))
equation_sets = st.frozensets(equations, max_size=6)

heads = st.one_of(st.none(), st.integers(0, 3))
clauses = st.tuples(st.sets(st.integers(0, 3), max_size=4), heads).filter(
    lambda p: p[1] is None or p[1] not in p[0]).map(lambda p: HornClause(*p))
clause_sets = st.frozensets(clauses, max_size=6)


@given(equation_sets)
@settings(max_examples=300)
def test_equations_to_horn_preserves_models(eqs):
    assert models(eqs, 4) == models(equations_to_horn(eqs), 4)


@given(clause_sets)
@settings(max_examples=300)
def test_horn_to_equations_preserves_models(cls):
    assert models(cls, 4) == models(horn_to_equations(cls), 4)


@given(st.one_of(equation_sets, clause_sets))
@settings(max_examples=300)
def test_model_sets_are_meet_closed(constraints):
    assert is_meet_closed(models(constraints, 4))


def bit(value, n, i):
    """The value of x(i+1) at the width-n point `value`: character i of
    its text, read without the package."""
    return int(format(value, f"0{n}b")[i])


def reference_holds(c, value, n):
    """Whether the constraint holds at the point, each bit read through
    bit()."""
    if isinstance(c, HornClause):
        if any(bit(value, n, i) == 0 for i in c.body):
            return True
        return c.head is not None and bit(value, n, c.head) == 1
    def side(m):
        return not m.is_zero and all(bit(value, n, i) == 1 for i in m.vars)
    return side(c.lhs) == side(c.rhs)


def reference_models(constraints, n):
    """The per-point loop: each constraint evaluated at each point."""
    return VectorFamily(n, [value for value in range(1 << n)
                            if all(reference_holds(c, value, n) for c in constraints)])


def mixed_theories(n):
    """Lists of equations and clauses over the variables of width n."""
    index = st.integers(0, n - 1) if n else st.nothing()
    sides = st.one_of(st.just(Monomial.zero()), st.sets(index, max_size=min(n, 4)).map(Monomial))
    eqs = st.tuples(sides, sides).filter(lambda p: p[0] != p[1]).map(
        lambda p: BinomialEquation(*p))
    cls = st.tuples(st.sets(index, max_size=min(n, 4)), st.one_of(st.none(), index)).filter(
        lambda p: p[1] is None or p[1] not in p[0]).map(lambda p: HornClause(*p))
    return st.tuples(st.just(n), st.lists(st.one_of(eqs, cls), max_size=8))


@given(st.integers(0, 8).flatmap(mixed_theories))
@settings(max_examples=300)
def test_models_match_the_per_point_reference(theory):
    n, constraints = theory
    eqs = [c for c in constraints if isinstance(c, BinomialEquation)]
    cls = [c for c in constraints if isinstance(c, HornClause)]
    for system in (constraints, equations_to_horn(eqs), horn_to_equations(cls)):
        assert models(system, n) == reference_models(system, n)


@given(equation_sets)
@settings(max_examples=200)
def test_equation_format_parse_identity(eqs):
    assert parse_equations(format_equations(eqs)) == eqs


@given(clause_sets)
@settings(max_examples=200)
def test_clause_format_parse_identity(cls):
    assert parse_clauses(format_clauses(cls)) == cls


# each object derives its sorted indices, sort key and largest index once,
# at construction; these references derive them from the fields alone

def monomial_reference(m):
    if m.is_zero:
        return (0, 0, ()), -1, "0"
    indices = tuple(sorted(m.vars))
    text = " ".join(f"x{i + 1}" for i in indices) if indices else "1"
    return (1, len(indices), indices), max(indices, default=-1), text


def equation_reference(e):
    (lhs_key, lhs_max, lhs_text), (rhs_key, rhs_max, rhs_text) = (
        monomial_reference(e.lhs), monomial_reference(e.rhs))
    assert lhs_key < rhs_key
    return (lhs_key, rhs_key), max(lhs_max, rhs_max), f"{lhs_text} = {rhs_text}"


def clause_reference(c):
    body = tuple(sorted(c.body))
    head_key = (1, 0) if c.head is None else (0, c.head)
    indices = set(body) | ({c.head} if c.head is not None else set())
    text = " & ".join(f"x{i + 1}" for i in body)
    head = "false" if c.head is None else f"x{c.head + 1}"
    return ((len(body), body, head_key), max(indices, default=-1),
            f"{text} -> {head}" if text else f"-> {head}")


def reference(obj):
    return {Monomial: monomial_reference, BinomialEquation: equation_reference,
            HornClause: clause_reference}[type(obj)](obj)


def derived(obj):
    return obj.sort_key(), obj.max_index(), str(obj)


wide_monomials = st.one_of(
    st.just(Monomial.zero()),
    st.sets(st.integers(0, 40), max_size=6).map(Monomial),
)
wide_equations = st.tuples(wide_monomials, wide_monomials).filter(
    lambda p: p[0] != p[1]).map(lambda p: BinomialEquation(*p))
wide_clauses = st.tuples(st.sets(st.integers(0, 40), max_size=6),
                         st.one_of(st.none(), st.integers(0, 40))).filter(
    lambda p: p[1] is None or p[1] not in p[0]).map(lambda p: HornClause(*p))
theory_objects = st.one_of(wide_monomials, wide_equations, wide_clauses)


@given(theory_objects)
@settings(max_examples=300)
def test_stored_data_matches_the_fields(obj):
    assert derived(obj) == reference(obj)
    assert obj.sort_key() is obj.sort_key()  # read, not rebuilt per call


@given(theory_objects)
@settings(max_examples=200)
def test_stored_data_survives_copies(obj):
    for other in (dataclasses.replace(obj), copy.copy(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))):
        assert other == obj and hash(other) == hash(obj)
        assert derived(other) == derived(obj)


@given(wide_monomials, st.sets(st.integers(0, 40), max_size=6))
@settings(max_examples=200)
def test_replace_derives_afresh(m, indices):
    # replace goes through the constructor, so nothing derived is stale
    other = dataclasses.replace(Monomial.one(), vars=indices)
    assert derived(other) == monomial_reference(other)
    clause = dataclasses.replace(HornClause({41}, None), body=indices)
    assert derived(clause) == clause_reference(clause)
    if m != other:
        # replacing a side re-orients the equation and its key
        e = dataclasses.replace(BinomialEquation(m, Monomial.of(41)), rhs=other)
        assert derived(e) == equation_reference(e)


class TestPinnedIdentity:
    """repr, == and hash come from the dataclass fields only."""

    def test_repr(self):
        assert repr(Monomial.of(2, 0)) == "Monomial(vars=frozenset({0, 2}), is_zero=False)"
        assert repr(Monomial.zero()) == "Monomial(vars=frozenset(), is_zero=True)"
        assert repr(eq(Monomial.of(0, 1), Monomial.of(0))) == (
            "BinomialEquation(lhs=Monomial(vars=frozenset({0}), is_zero=False), "
            "rhs=Monomial(vars=frozenset({0, 1}), is_zero=False))")
        assert repr(HornClause({1, 0}, None)) == "HornClause(body=frozenset({0, 1}), head=None)"

    def test_eq_and_hash(self):
        m = Monomial.of(2, 0)
        assert m == Monomial(frozenset({0, 2}), False) and m != Monomial.of(0)
        assert hash(m) == hash((frozenset({0, 2}), False))
        e = eq(Monomial.of(0, 1), Monomial.of(0))
        assert hash(e) == hash((Monomial.of(0), Monomial.of(0, 1)))
        c = HornClause({0, 1}, 2)
        assert c == HornClause(frozenset({0, 1}), 2) and c != HornClause({0, 1}, None)
        assert hash(c) == hash((frozenset({0, 1}), 2))
        assert [f.name for f in dataclasses.fields(BinomialEquation)] == ["lhs", "rhs"]
        assert [f.name for f in dataclasses.fields(HornClause)] == ["body", "head"]
        assert [f.name for f in dataclasses.fields(Monomial)] == ["vars", "is_zero"]
