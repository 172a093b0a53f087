import concurrent.futures
import inspect
import json
import sys
import time
from pathlib import Path

import pytest
from conftest import brute_reference, random_instance

import hornenum.counter as counter_module
from hornenum.counter import (ComponentCounter, CounterStats, count_models,
                              count_variant, count_width, preprocess,
                              run_external_counter)
from hornenum.encoder import encode, endpoint_units
from hornenum.errors import ExternalToolError, ResourceLimitError
from hornenum.families import Variant
from hornenum.oracle import _orbits, brute_count
from hornenum.validation import reference_count

STUB = str(Path(__file__).parent / "external_stub.py")
STUB_CMD = f"{sys.executable} {STUB} {{file}}"
SLICE_POOL = Path(__file__).parent.parent / "perfbench" / "slice_pool.json"


def search_reference(clauses, num_vars):
    """The model count by the search with no truth table (TABLE_VARS = 0,
    as in the branching_only fixture): a path independent of the table
    leaves, and fast where brute_reference's 2^num_vars loop is not."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counter_module, "TABLE_VARS", 0)
        return ComponentCounter(num_vars, preprocess(clauses, num_vars)).count()


def independent_split(clauses, num_vars):
    """The singles a leaf of variables 1..num_vars splits off: every
    variable that shares no clause with an earlier pick, from the
    sparsest up (fewest clauses, ties to the lowest id)."""
    split, taken = [], set()
    for v in sorted(range(1, num_vars + 1),
                    key=lambda v: (sum(v in map(abs, clause) for clause in clauses), v)):
        mine = {j for j, clause in enumerate(clauses) if v in map(abs, clause)}
        if not mine & taken:
            split.append(v)
            taken |= mine
    return split


def grouped_split(clauses, num_vars):
    """The groups a leaf of variables 1..num_vars splits off: the
    singles of independent_split, then each other variable, from the
    sparsest up, whose clauses meet those of exactly one group, a
    single, as its partner.  The leaf is counted over a table of the
    variables in no group if they are at most TABLE_BASE, and not
    counted (None) otherwise."""
    def mine(v):
        return {j for j, clause in enumerate(clauses) if v in map(abs, clause)}

    singles = independent_split(clauses, num_vars)
    groups = [[v] for v in singles]
    for v in sorted(set(range(1, num_vars + 1)) - set(singles), key=lambda v: (len(mine(v)), v)):
        met = [group for group in groups if mine(v) & set().union(*map(mine, group))]
        if len(met) == 1 and len(met[0]) == 1:
            met[0].append(v)
    return groups


def table_width(clauses, num_vars):
    """The number of variables a leaf of variables 1..num_vars leaves in
    its table: those in no group of grouped_split."""
    return num_vars - sum(map(len, grouped_split(clauses, num_vars)))


def pool_slices(bins):
    """(clauses, num_vars, count) of the benchmark pool's slices in bins."""
    pool = json.loads(SLICE_POOL.read_text())
    width = pool["width"]
    return [(list(encode(width, Variant.from_name(entry["variant"])).clauses)
             + [(unit,) for unit in entry["units"]], 1 << width, entry["count"])
            for entry in pool["slices"] if entry["bin"] in bins]


def variant_mask(n, variant):
    """The clauses of encode(n, h) in force for a variant, as count_width
    starts it: the ternary clauses, and the unit clauses of its
    endpoints."""
    instance = encode(n, Variant.H)
    units = instance.unit_clauses
    return ((1 << len(instance.clauses)) - (1 << len(units))
            | sum(1 << units.index((pid,)) for pid in endpoint_units(n, variant)))


def unit_table(clauses, num_vars):
    """An engine over the clauses followed by a unit clause for each
    literal, the mask of the clauses themselves, and the id of each
    literal's unit clause.  The mask with the units of some literals
    puts those literals in force, as count_width puts each variant's
    endpoints; preprocess keeps the first of two equal clauses, so the
    clauses come first, as preprocess(clauses) returns them."""
    literals = [lit for v in range(1, num_vars + 1) for lit in (v, -v)]
    prepared = preprocess(list(clauses) + [(lit,) for lit in literals], num_vars)
    if prepared is None:
        return None
    unit = {lit: prepared.index((lit,)) for lit in literals}
    return ComponentCounter(num_vars, prepared), (1 << len(preprocess(clauses, num_vars))) - 1, unit


def bfs_components(counter, free, open_):
    """A residual's free variables in no open clause, and the components
    of the others as (variables, clauses) by lowest variable, found by a
    breadth-first search that reaches each open clause of a variable and
    then each free variable of that clause."""
    lone, parts = 0, []
    unvisited = sorted(v for v in range(1, counter.num_vars + 1) if free >> v & 1)
    while unvisited:
        frontier = [unvisited.pop(0)]
        comp_vars, comp_clauses = 0, 0
        while frontier:
            v = frontier.pop(0)
            comp_vars |= 1 << v
            for i, clause in enumerate(counter.clauses):
                if open_ >> i & 1 and v in map(abs, clause) and not comp_clauses >> i & 1:
                    comp_clauses |= 1 << i
                    for u in sorted(map(abs, clause)):
                        if u in unvisited:
                            unvisited.remove(u)
                            frontier.append(u)
        if comp_clauses:
            parts.append((comp_vars, comp_clauses))
        else:
            lone += 1
    return lone, parts


class TestPreprocess:
    def test_duplicate_literals_merged(self):
        assert preprocess([(1, 1, 2)], 2) == [(1, 2)]

    def test_tautologies_dropped(self):
        assert preprocess([(1, -1), (2,)], 2) == [(2,)]

    def test_duplicate_clauses_dropped(self):
        assert preprocess([(2, 1), (1, 2)], 2) == [(1, 2)]

    def test_empty_clause_detected(self):
        assert preprocess([(1,), ()], 1) is None

    def test_bad_literals(self):
        with pytest.raises(ValueError):
            preprocess([(0,)], 2)
        with pytest.raises(ValueError):
            preprocess([(3,)], 2)
        with pytest.raises(ValueError):
            count_models([(1, "a")], 2)
        with pytest.raises(ValueError):
            count_models([(True,)], 1)
        with pytest.raises(ValueError):
            preprocess([(1, -3)], 2)
        with pytest.raises(ValueError):
            preprocess([(1.0,)], 2)

    def test_int_subclass_literals_accepted(self):
        class Literal(int):
            pass

        assert preprocess([(Literal(-2), Literal(1))], 2) == [(-2, 1)]
        assert count_models([(Literal(1),)], 2) == 2
        assert preprocess([(1, 2), (Literal(2), 1, Literal(-3))], 3) == [(1, 2), (-3, 1, 2)]

    def test_clauses_are_read_in_order(self):
        # an empty clause settles the count before a later clause is
        # read, and an invalid literal raises before a later empty clause
        assert preprocess([(), (0,)], 1) is None
        with pytest.raises(ValueError):
            preprocess([(0,), ()], 1)

    @pytest.mark.parametrize("bad", [True, 1.0, 3, -3, "a", [1]])
    def test_bad_literal_among_valid_clauses(self, bad):
        # a bool or a float equals an int literal, so a set of literals
        # alone would take it for one, alone or beside that literal
        for clauses in ([(1, 2), (bad,)], [(bad, 2), (1, -2)], [(1,), (1, bad)], [(-1, bad, 2)]):
            with pytest.raises(ValueError, match="invalid for 2 variables"):
                preprocess(clauses, 2)

    def test_first_order_kept(self):
        assert preprocess([(3, 1), (2,), (1, 3, 1), (-2, 2, 1), (2,), (1,)], 3) == [
            (1, 3), (2,), (1,)]

    def test_iterator_clauses_are_read_once(self):
        # a clause that is an iterator holds its literals only until the
        # first read, so a second read would see an empty clause
        assert preprocess([iter((2, 1)), iter((-1,))], 2) == [(1, 2), (-1,)]
        assert count_models([iter((1, 2))], 2) == 3
        with pytest.raises(ValueError, match="invalid for 2 variables"):
            count_models([iter((1, 2.0))], 2)

    def test_cost_does_not_grow_with_declared_variables(self):
        # the literals are checked against those of earlier clauses, not
        # against a set of every literal of the declared variables
        start = time.monotonic()
        assert preprocess([(1, 2), (-3,)], 10**9) == [(1, 2), (-3,)]
        assert time.monotonic() - start < 1.0


class TestCountModels:
    def test_known_variant_counts(self):
        assert count_models(encode(2, Variant.H01)) == 14
        assert count_models(encode(2, Variant.H1)) == 7

    def test_empty_instance_counts_all_assignments(self):
        for k in range(8):
            assert count_models([], k) == 2 ** k

    def test_contradiction(self):
        assert count_models([(1,), (-1,)], 3) == 0

    def test_raw_clauses_need_num_vars(self):
        with pytest.raises(ValueError):
            count_models([(1,)])

    def test_instance_num_vars_must_agree(self):
        instance = encode(3, Variant.H)
        assert count_models(instance, num_vars=8) == 45
        with pytest.raises(ValueError, match="num_vars"):
            count_models(instance, num_vars=2)

    def test_tautological_input_only(self):
        assert count_models([(1, -1)], 2) == 4

    @pytest.mark.parametrize("n", range(5))
    def test_all_variants_match_oracle(self, n):
        for variant in Variant:
            assert count_models(encode(n, variant)) == brute_count(n, variant)

    def test_all_false_satisfies_ternary_clauses(self):
        # every generated ternary clause has a negative literal, so the
        # model count of the endpoint-free variant is always positive
        for n in range(5):
            instance = encode(n, Variant.H01)
            assert all(any(lit < 0 for lit in clause)
                       for clause in instance.ternary_clauses)
            assert count_models(instance) >= 1


class TestCounterLaws:
    def test_free_variable_multiplication(self, rng):
        for _ in range(50):
            num_vars, clauses = random_instance(rng)
            base = count_models(clauses, num_vars)
            for extra in (1, 3):
                assert count_models(clauses, num_vars + extra) == base << extra

    def test_branch_sum_law(self, rng):
        for _ in range(50):
            num_vars, clauses = random_instance(rng)
            total = count_models(clauses, num_vars)
            v = rng.randint(1, num_vars)
            assert total == (count_models(clauses + [(v,)], num_vars)
                             + count_models(clauses + [(-v,)], num_vars))

    def test_matches_brute_reference_on_denser_instances(self, rng):
        # up to 10 variables and 20 clauses: long unit chains and
        # conflicts found deep inside propagation
        for _ in range(300):
            num_vars, clauses = random_instance(rng, max_vars=10, max_clauses=20)
            assert count_models(clauses, num_vars) == brute_reference(clauses, num_vars)

    def test_thread_independence(self):
        # at n <= 2 the unit clauses settle the instance, and a
        # contradiction leaves no residual at all
        instances = [(encode(n, variant), None) for n in range(3) for variant in Variant]
        instances += [(encode(3, Variant.H), None), (encode(4, Variant.H1), None),
                      (encode(4, Variant.H01), None), ([(1,), (-1,)], 1)]
        for instance, num_vars in instances:
            single = count_models(instance, num_vars, threads=1)
            assert count_models(instance, num_vars, threads=2) == single
            assert count_models(instance, num_vars, threads=3) == single


@pytest.mark.usefixtures("branching_only")
class TestCounterLawsBranchingOnly(TestCounterLaws):
    """Every law again with no component counted by truth table: at the
    default, the random instances of at most 10 variables never branch."""


class TestSubsumedClauses:
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_new_binary_clause_closes_what_it_subsumes(self, signs):
        # x1 true leaves clause 0 the binary clause (a b), a = +-2 and
        # b = +-3.  It closes every other open clause that holds both a
        # and b, the identical (a b) included, and keeps those that hold
        # only one of them or one with the opposite sign
        a, b = signs[0] * 2, signs[1] * 3
        clauses = [(-1, a, b), (a, b), (a, b, 4), (a, -5, b, 6),
                   (a, 4, 6), (-a, b, 4), (a, -b, 6), (1, 4, 6)]
        counter = ComponentCounter(6, preprocess(clauses, 6))
        free = ((1 << 7) - 1) ^ 0b11
        open_ = ((1 << len(clauses)) - 1) & ~counter._sat_pos[1]
        residual = counter._propagate(free, open_, counter._occ[1], [1])
        assert residual is not None
        assert {i for i in range(len(clauses)) if residual[1] >> i & 1} == {0, 4, 5, 6}
        assert counter.count(residual) == brute_reference(clauses + [(1,)], 6)
        assert ComponentCounter(6, preprocess(clauses, 6)).count() == brute_reference(clauses, 6)


class TestTruthTables:
    @pytest.mark.parametrize("k", [*range(6), counter_module.TABLE_BASE])
    def test_columns_definition(self, k):
        columns, complements = counter_module._tables(k)
        assert len(columns) == k
        for j, column in enumerate(columns):
            assert column >> (1 << k) == 0
            assert all((column >> x & 1) == (x >> j & 1) for x in range(1 << k))
        rows = (1 << (1 << k)) - 1
        assert complements == tuple(rows ^ column for column in columns)

    @pytest.mark.parametrize("k", range(counter_module.TABLE_VARS + 1))
    def test_count_table_matches_the_reference(self, rng, k):
        # a leaf of k variables among k + 3: each open clause has one to
        # three free literals of either sign, and some also have literals
        # of the other variables, assigned so that those are false; above
        # TABLE_BASE the reference is the search without tables, or None
        # if the singles and pairs leave more than TABLE_BASE variables
        num_vars = k + 3
        for _ in range(4 if k <= 10 else 1):
            inside = rng.sample(range(1, num_vars + 1), k)
            false_lit = {v: rng.choice((v, -v)) for v in range(1, num_vars + 1)
                         if v not in inside}
            clauses = []
            for _ in range(rng.randint(k // 2, k + 2) if k else 0):
                width = min(k, rng.choice((1, 2, 2, 3, 3, 3, 3, 3)))
                clause = [rng.choice((1, -1)) * v for v in rng.sample(inside, width)]
                clause += rng.sample(sorted(false_lit.values()), rng.choice((0, 0, 1, 2)))
                clauses.append(tuple(clause))
            prepared = preprocess(clauses, num_vars)
            counter = ComponentCounter(num_vars, prepared)
            variables = sum(1 << v for v in inside)
            relabel = {v: j + 1 for j, v in enumerate(sorted(inside))}
            restricted = [[(1 if lit > 0 else -1) * relabel[abs(lit)]
                           for lit in clause if abs(lit) in relabel] for clause in prepared]
            got = counter._count_table(variables, (1 << len(prepared)) - 1)
            if k <= counter_module.TABLE_BASE:
                assert got == brute_reference(restricted, k)
            elif table_width(restricted, k) > counter_module.TABLE_BASE:
                assert got is None
            else:
                assert got == search_reference(restricted, k)

    @pytest.mark.parametrize("case", ["positive", "negative", "pair", "split only", "no clause",
                                      "both signs", "some in no clause"])
    @pytest.mark.parametrize("k", [counter_module.TABLE_BASE, counter_module.TABLE_BASE + 1,
                                   20, counter_module.TABLE_VARS])
    def test_cofactored_leaf(self, rng, monkeypatch, k, case):
        # a leaf of k variables: the first TABLE_BASE are dense (a binary
        # chain and random ternary clauses), the k - TABLE_BASE others are
        # in at most two clauses each, so they are the sparsest:
        # positive: each in clauses only as a positive literal;
        # negative: only as a negative literal;
        # pair: two of them in one clause, signs drawn at random;
        # split only: also in a clause of split literals only;
        # no clause: in no clause at all (each doubles the count);
        # both signs: in two clauses that differ only in its sign, so the
        # rows they exclude at its two values meet (those rows weigh 0);
        # some in no clause: every other one in no clause, the rest in a
        # clause each, signs drawn at random.
        # Pairs can leave no k - TABLE_BASE variables that share no clause;
        # a partner whose clauses meet only its single's is summed out with
        # it, and the leaf is not counted (None) if the variables in no
        # group are more than TABLE_BASE, and then builds no table.
        # Every group is summed out: no table is wider than the variables
        # left
        base = counter_module.TABLE_BASE
        dense, sparse = range(1, base + 1), list(range(base + 1, k + 1))
        for _ in range(3):
            clauses = [(-i, i + 1) if i % 2 else (i, i + 1) for i in range(1, base)]
            for _ in range(2 * base):
                clauses.append(tuple(rng.choice((1, -1)) * v for v in rng.sample(dense, 3)))

            def with_dense(*lits):
                picked = rng.sample(dense, 3 - len(lits))
                return tuple(lits) + tuple(rng.choice((1, -1)) * v for v in picked)

            for j, x in enumerate(sparse):
                # x's partner in a two-variable clause: itself if it has none
                y = sparse[j ^ 1] if j ^ 1 < len(sparse) else x
                pair = {rng.choice((1, -1)) * v for v in {x, y}}
                if case == "positive":
                    clauses += [with_dense(x), with_dense(x)]
                elif case == "negative":
                    clauses += [with_dense(-x), with_dense(-x)]
                elif case == "pair" and j % 2 == 0:
                    clauses.append(with_dense(*pair))
                elif case == "split only":
                    clauses.append(with_dense(rng.choice((1, -1)) * x))
                    if j % 2 == 0:
                        clauses.append(tuple(pair))
                elif case == "both signs":
                    clause = with_dense(x)
                    clauses += [clause, (-x,) + clause[1:]]
                elif case == "some in no clause" and j % 2:
                    clauses.append(with_dense(rng.choice((1, -1)) * x))
            occurrences = [sum(v in map(abs, clause) for clause in clauses) for v in range(1, k + 1)]
            assert max(occurrences[base:], default=0) < min(occurrences[:base])
            prepared = preprocess(clauses, k)
            counter = ComponentCounter(k, prepared)
            monkeypatch.setattr(counter_module, "_TABLES", {})
            got = counter._count_table(((1 << k) - 1) << 1, (1 << len(prepared)) - 1)
            rest = table_width(prepared, k)
            if rest > base:
                assert got is None
                assert not counter_module._TABLES
            else:
                assert got == search_reference(clauses, k)
                assert max(counter_module._TABLES) <= rest

    @pytest.mark.parametrize("core, sparse", [(2, 3), (3, 6), (6, 6), (9, 3)])
    def test_narrow_leaf_sums_out_every_independent_variable(self, rng, monkeypatch,
                                                              core, sparse):
        # a leaf of at most TABLE_BASE variables: a dense core (a binary
        # chain and random binary clauses) and sparser variables that
        # share no clause, cycling through three kinds: in no clause (a
        # doubling), in one clause with two core variables, and in two
        # clauses that differ only in its sign; the core variables left
        # over may join the split too.  The table is only as wide as the
        # variables the split leaves
        k = core + sparse
        assert k <= counter_module.TABLE_BASE
        for _ in range(4):
            clauses = [(-i, i + 1) if i % 2 else (i, i + 1) for i in range(1, core)]
            clauses += [tuple(rng.choice((1, -1)) * v for v in rng.sample(range(1, core + 1), 2))
                        for _ in range(2 * core)]
            for x in range(core + 1, k + 1):
                clause = (rng.choice((1, -1)) * x,) + tuple(
                    rng.choice((1, -1)) * v for v in rng.sample(range(1, core + 1), 2))
                if x % 3 == 1:
                    clauses.append(clause)
                elif x % 3 == 2:
                    clauses += [clause, (-clause[0],) + clause[1:]]
            prepared = preprocess(clauses, k)
            split = independent_split(prepared, k)
            assert set(range(core + 1, k + 1)) <= set(split)
            counter = ComponentCounter(k, prepared)
            monkeypatch.setattr(counter_module, "_TABLES", {})
            got = counter._count_table(((1 << k) - 1) << 1, (1 << len(prepared)) - 1)
            assert got == brute_reference(clauses, k)
            assert max(counter_module._TABLES) <= k - len(split)
        # unit clauses only: every variable is split off, over a table of
        # no variable and one row
        counter = ComponentCounter(3, [(1,), (-2,)])
        assert counter._count_table(0b1110, 0b11) == 2

    @pytest.mark.parametrize("u", range(1, counter_module.TABLE_VARS - counter_module.TABLE_BASE + 1))
    def test_tally_carries(self, rng, monkeypatch, u):
        # split variables 1..u, each in one clause with the same two table
        # literals: every split set is the same quarter of the rows, whose
        # count reaches u, so the binary count of that quarter carries
        # across every digit boundary below u; the split variables' signs
        # are drawn at random, so both Q[s][0] and Q[s][1] are used.  At
        # u = 1 the clause of a meets only the single 1's, so a joins it as
        # its partner and the table holds b alone (test_pair_weights
        # carries both counters of pairs)
        a, b = u + 1, u + 2
        for _ in range(3):
            pair = (rng.choice((1, -1)) * a, rng.choice((1, -1)) * b)
            clauses = [(rng.choice((1, -1)) * s,) + pair for s in range(1, u + 1)]
            counter = ComponentCounter(b, preprocess(clauses, b))
            monkeypatch.setattr(counter_module, "_TABLES", {})
            got = counter._count_table(((1 << b) - 1) << 1, (1 << u) - 1)
            assert got == brute_reference(clauses, b) == 3 * 2 ** u + 1
            assert list(counter_module._TABLES) == [2 if u > 1 else 1]

    @pytest.mark.parametrize("kinds", ["both", "both, s only", "both, r only",
                                       "both, s only, r only"])
    def test_pair_clause_kinds(self, rng, monkeypatch, kinds):
        # a pair (s, r) = (1, 2) over a table of variables 3..6: a clause of
        # both, with the clauses of s only and of r only that kinds names,
        # in every sign pattern of s and r; each of these clauses also has
        # zero to two table literals of random signs.  The table variables
        # are in more clauses (a cycle of binary clauses), and all of them
        # are in one clause with a second pair (7, 8), so none is a single;
        # the sparser of s and r is the pair's single, the other its partner
        table = range(3, 7)
        for signs in range(16):
            sign_s, sign_r, sign_s_only, sign_r_only = (1 - 2 * (signs >> i & 1) for i in range(4))

            def signed(*variables):
                return tuple(rng.choice((1, -1)) * v for v in variables)

            def with_table(*lits):
                return tuple(lits) + signed(*rng.sample(table, rng.randint(0, 2)))

            clauses = [signed(v, v % 4 + 3) for v in table] + [signed(7, 8, *table)]
            clauses.append(with_table(sign_s * 1, sign_r * 2))
            if "s only" in kinds:
                clauses.append(with_table(sign_s_only * 1))
            if "r only" in kinds:
                clauses.append(with_table(sign_r_only * 2))
            prepared = preprocess(clauses, 8)
            assert sorted(map(sorted, grouped_split(prepared, 8))) == [[1, 2], [7, 8]]
            counter = ComponentCounter(8, prepared)
            monkeypatch.setattr(counter_module, "_TABLES", {})
            got = counter._count_table(0b111111110, (1 << len(prepared)) - 1)
            assert got == brute_reference(clauses, 8)
            assert list(counter_module._TABLES) == [4]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", range(1, counter_module.TABLE_VARS // 2))
    def test_pair_weights(self, rng, monkeypatch, p, m):
        # p pairs (2i - 1, 2i), each in m clauses with the same two table
        # literals, at m of the four value pairs: a quarter of the rows is
        # in m of every pair's four sets, so it weighs (4 - m)^p, and the
        # other rows 4^p.  m = 1 is a weight-3 row (threes), m = 2 one
        # halving, m = 3 two (added at digit 1), m = 4 excluded.  The
        # count of each counter reaches p or 2p, so it carries across
        # every digit boundary below
        a, b = 2 * p + 1, 2 * p + 2
        for _ in range(2):
            lits = (rng.choice((1, -1)) * a, rng.choice((1, -1)) * b)
            values = rng.sample([(1, 1), (1, -1), (-1, 1), (-1, -1)], m)
            clauses = [(sign_s * (2 * i - 1), sign_r * 2 * i) + lits
                       for i in range(1, p + 1) for sign_s, sign_r in values]
            assert grouped_split(clauses, b) == [[2 * i - 1, 2 * i] for i in range(1, p + 1)]
            counter = ComponentCounter(b, preprocess(clauses, b))
            monkeypatch.setattr(counter_module, "_TABLES", {})
            got = counter._count_table(((1 << b) - 1) << 1, (1 << len(clauses)) - 1)
            assert got == 3 * 4 ** p + (4 - m) ** p
            if b <= 12:
                assert got == brute_reference(clauses, b)
            assert list(counter_module._TABLES) == [2]

    @pytest.mark.parametrize("k", range(counter_module.TABLE_BASE + 2, counter_module.TABLE_VARS + 1))
    def test_leaf_counted_through_its_pairs(self, rng, monkeypatch, k):
        # a leaf of k variables that the singles alone leave wider than
        # TABLE_BASE, and its pairs do not: m pairs (2i - 1, 2i), each in a
        # clause of both and a clause of each alone with core variables,
        # over a core of the other k - 2m, a cycle of binary clauses and
        # random ternary ones.  One more clause of the first pair holds
        # every core variable, so none is a single; the singles are 1, 3,
        # .., 2m - 1, and more than TABLE_BASE variables are left, m +
        # core.
        # (At k = TABLE_BASE + 1 the singles always leave at most
        # TABLE_BASE.)
        base = counter_module.TABLE_BASE
        for _ in range(2):
            m = rng.randint(-(-(k - base) // 2), k - base - 1)
            core = list(range(2 * m + 1, k + 1))

            def signed(*variables):
                return tuple(rng.choice((1, -1)) * v for v in variables)

            clauses = [signed(v, core[(j + 1) % len(core)]) for j, v in enumerate(core)]
            clauses += [signed(*rng.sample(core, 3)) for _ in core]
            clauses.append(signed(1, 2, *core))
            for i in range(1, m + 1):
                clauses += [signed(2 * i - 1, 2 * i, rng.choice(core)),
                            signed(2 * i - 1, *rng.sample(core, 2)),
                            signed(2 * i, *rng.sample(core, 2))]
            prepared = preprocess(clauses, k)
            assert k - len(independent_split(prepared, k)) > base
            assert table_width(prepared, k) == k - 2 * m <= base
            counter = ComponentCounter(k, prepared)
            monkeypatch.setattr(counter_module, "_TABLES", {})
            got = counter._count_table(((1 << k) - 1) << 1, (1 << len(prepared)) - 1)
            assert got == search_reference(clauses, k)
            assert list(counter_module._TABLES) == [k - 2 * m]

    @pytest.mark.parametrize("extra, decides", [(0, False), (1, True)])
    def test_component_at_the_table_boundary(self, rng, extra, decides):
        # one component of TABLE_VARS (+ extra) variables and no unit
        # clause: a binary chain joins TABLE_BASE of them, random ternary
        # clauses fill in, and each other variable is in one ternary clause
        # with two of these, so the leaf at the bound has its split
        base = counter_module.TABLE_BASE
        k = counter_module.TABLE_VARS + extra
        for _ in range(3):
            clauses = [(-i, i + 1) if i % 2 else (i, i + 1) for i in range(1, base)]
            for x in range(base + 1, k + 1):
                picked = [x] + rng.sample(range(1, base + 1), 2)
                clauses.append(tuple(rng.choice((1, -1)) * v for v in picked))
            for _ in range(2 * base):
                picked = rng.sample(range(1, base + 1), 3)
                clauses.append(tuple(rng.choice((1, -1)) * v for v in picked))
            counter = ComponentCounter(k, preprocess(clauses, k))
            assert counter.count() == search_reference(clauses, k)
            assert (counter.stats.decisions > 0) == decides

    @pytest.mark.parametrize("extra", [0, 1])
    def test_residual_at_the_table_boundary(self, rng, extra):
        # TABLE_VARS (+ extra) free variables in two clause parts, the last
        # two variables in no clause: each part is a binary chain and
        # random ternary clauses over its core, and its last few variables
        # are in one ternary clause each with two core variables, so that
        # at the bound the residual has its split and is counted whole as
        # one node; one variable more and it is split first
        k = counter_module.TABLE_VARS + extra
        half = (k - 2) // 2
        sparse = -(-(counter_module.TABLE_VARS - counter_module.TABLE_BASE - 2) // 2)
        for _ in range(3):
            clauses = []
            for lo, hi in ((1, half), (half + 1, k - 2)):
                core = range(lo, hi - sparse + 1)
                clauses += [(-i, i + 1) if i % 2 else (i, i + 1) for i in core[:-1]]
                picks = [rng.sample(core, 3) for _ in core]
                picks += [[v] + rng.sample(core, 2) for v in range(hi - sparse + 1, hi + 1)]
                clauses += [tuple(rng.choice((1, -1)) * v for v in picked) for picked in picks]
            counter = ComponentCounter(k, preprocess(clauses, k))
            assert counter.count() == search_reference(clauses, k)
            stats = counter.stats
            assert (stats.nodes, stats.components, stats.decisions) == (
                (2, 2, 0) if extra else (1, 0, 0))


class TestPoolJobs:
    def test_jobs_sum_to_the_serial_count(self):
        # cofactor-expand the start by the engine's branching rule into
        # independent residuals, the residual with the most open clauses
        # first; each counted over a table of only its open clauses must
        # equal its count over the whole table, and the counts sum to h1(5)
        instance = encode(5, Variant.H1)
        num_vars = instance.predicate_count
        prepared = preprocess(instance.clauses, num_vars)
        table = ComponentCounter(num_vars, prepared)
        residuals = [table._start()]
        while len(residuals) < 8:
            j = max(range(len(residuals)), key=lambda j: residuals[j][1].bit_count())
            assert residuals[j][1]
            residuals += [r for r in table._branch(*residuals.pop(j)) if r is not None]
        counts = []
        for residual in residuals:
            engine, compact = table._open_table(residual)
            counts.append(engine.count(compact))
        assert counts == [ComponentCounter(num_vars, prepared).count(r) for r in residuals]
        assert sum(counts) == 1385552


class TestWidthSixSlices:
    """The slices of the benchmark's verified width-6 pool: all six, one
    per hardness bin, counted with their search effort pinned, and the
    two easiest again with threads=2, which counts in one process too."""

    @pytest.mark.parametrize("threads, bins", [(1, range(6)), (2, (0, 1))], ids=["1", "2"])
    def test_recorded_counts(self, threads, bins):
        slices = pool_slices(bins)
        assert len(slices) == len(bins)
        for clauses, num_vars, expected in slices:
            assert count_models(clauses, num_vars, threads=threads) == expected

    def test_search_stats(self):
        # the exact width-6 search effort per bin, (nodes, decisions,
        # propagations, components, cache_hits): a change here is a
        # different search, whatever the leaves cost
        expected = [(95, 46, 275, 4, 0), (60, 27, 222, 10, 2), (125, 62, 359, 0, 0),
                    (245, 120, 678, 8, 0), (223, 103, 506, 32, 7), (354, 175, 756, 6, 0)]
        # and the leaves, leaf_fallbacks and sweeps that search took;
        # nodes - cache_hits - decisions = leaves - leaf_fallbacks
        work = [(49, 0, 49), (33, 2, 28), (63, 0, 62), (128, 3, 122), (114, 1, 115),
                (179, 0, 180)]
        for (clauses, num_vars, count), pinned, pinned_work in zip(
                pool_slices(range(6)), expected, work):
            counter = ComponentCounter(num_vars, preprocess(clauses, num_vars))
            assert counter.count() == count
            stats = counter.stats
            assert (stats.nodes, stats.decisions, stats.propagations, stats.components,
                    stats.cache_hits) == pinned
            assert (stats.leaves, stats.leaf_fallbacks, stats.sweeps) == pinned_work


class TestComponents:
    """The component sweep of _components against bfs_components: the
    same parts in the same order, so the same search."""

    def test_same_parts_as_a_clause_bfs(self, rng):
        # residuals wider than TABLE_VARS, reached by random decisions from
        # the start of an instance of a few clause groups over shuffled
        # ids, with variables in no clause
        wide = counter_module.TABLE_VARS + 1
        seen = {"split": 0, "lone": 0, "bulk": 0, "swept": 0}
        for _ in range(40):
            num_vars = rng.randint(wide + 4, 3 * wide)
            ids = rng.sample(range(1, num_vars + 1), num_vars - rng.randint(0, 8))
            cuts = sorted(rng.sample(range(1, len(ids)), rng.randint(0, 4)))
            clauses = []
            for group in map(ids.__getitem__, map(slice, [0] + cuts, cuts + [None])):
                for _ in range(rng.randint(len(group) // 2, 2 * len(group))):
                    picked = rng.sample(group, min(len(group), rng.randint(2, 3)))
                    clauses.append(tuple(rng.choice((1, -1)) * v for v in picked))
            prepared = preprocess(clauses, num_vars)
            if prepared is None:
                continue
            counter = ComponentCounter(num_vars, prepared)
            residual = counter._start()
            while residual is not None and residual[0].bit_count() > counter_module.TABLE_VARS:
                free, open_, _ = residual
                lone, parts = counter._components(free, open_)
                assert (lone, parts) == bfs_components(counter, free, open_)
                seen["split"] += len(parts) > 1
                seen["lone"] += lone > 0
                seen["bulk" if open_.bit_count() < free.bit_count() else "swept"] += 1
                residual = rng.choice(counter._branch(*residual))
        assert min(seen.values()) > 0, seen

    def test_same_parts_on_the_pool_slices(self, monkeypatch):
        # every wide residual that the search of the six pool slices meets
        seen = []
        sweep = ComponentCounter._components

        def recorded(counter, free, open_):
            found = sweep(counter, free, open_)
            seen.append((found, bfs_components(counter, free, open_)))
            return found

        monkeypatch.setattr(ComponentCounter, "_components", recorded)
        for clauses, num_vars, expected in pool_slices(range(6)):
            assert count_models(clauses, num_vars) == expected
        assert sum(len(found[1]) > 1 for found, _ in seen) > 0
        for found, reference in seen:
            assert found == reference

    def test_disjoint_binary_clauses_count_quickly(self):
        # 3,000 parts: each finished part costs no pass over the rest
        clauses = [(2 * i - 1, 2 * i) for i in range(1, 3001)]
        start = time.monotonic()
        assert count_models(clauses, 6000) == 3 ** 3000
        assert time.monotonic() - start < 3.0

    def test_variables_in_no_clause_count_quickly(self):
        # the free variables in no open clause are counted in one step,
        # not seeded one by one: seeded, the sweep's cost grows with the
        # square of the declared variables, and this count takes seconds
        start = time.monotonic()
        assert count_models([(1, 2), (-3, 4)], 200_000) == 9 << 199_996
        assert time.monotonic() - start < 0.5


class TestEngines:
    def test_component_engine_multiplies_disjoint_parts(self):
        # two copies of a binary chain, together wider than TABLE_VARS, so
        # the residual is split rather than counted whole
        k = counter_module.TABLE_VARS // 2 + 1
        part = [(i, i + 1) for i in range(1, k)]
        clauses = part + [(a + k, b + k) for a, b in part]
        counter = ComponentCounter(2 * k, preprocess(clauses, 2 * k))
        assert counter.count() == brute_reference(part, k) ** 2
        assert counter.stats.components == 2

    # the width-5 searches reach no component twice, so the cache is
    # exercised on the pool's bin-4 width-6 slice
    def test_component_cache_hits(self):
        [(clauses, num_vars, expected)] = pool_slices((4,))
        counter = ComponentCounter(num_vars, preprocess(clauses, num_vars))
        assert counter.count() == expected
        assert counter.stats.cache_hits > 0

    def test_cache_eviction_keeps_count_exact(self, monkeypatch):
        monkeypatch.setattr(counter_module, "DEFAULT_CACHE_LIMIT", 16)
        instance = encode(5, Variant.H1)
        prepared = preprocess(instance.clauses, instance.predicate_count)
        tiny = ComponentCounter(instance.predicate_count, prepared)
        assert tiny.count() == 1385552
        assert tiny.stats.cache_evictions > 0


class TestBudget:
    def test_budget_exceeded_raises(self):
        instance = encode(5, Variant.H)
        with pytest.raises(ResourceLimitError) as err:
            count_models(instance, budget_seconds=1e-9)
        assert err.value.stats is not None

    def test_budget_exceeded_component_engine(self):
        instance = encode(5, Variant.H)
        counter = ComponentCounter(instance.predicate_count,
                                   preprocess(instance.clauses, instance.predicate_count),
                                   deadline=time.monotonic() - 1)
        with pytest.raises(ResourceLimitError) as err:
            counter.count()
        assert err.value.stats["nodes"] == 0

    @pytest.mark.parametrize("n", range(5))
    def test_spent_budget_raises_at_every_width(self, n, monkeypatch):
        # at n <= 2 the unit clauses settle the instance before any node;
        # the external route raises before it starts the command
        def no_run(*args, **kwargs):
            raise AssertionError("external command started on a spent budget")

        monkeypatch.setattr("subprocess.run", no_run)
        for method in ("dpll", "bruteforce", "external"):
            for variant in Variant:
                with pytest.raises(ResourceLimitError):
                    count_variant(n, variant, method, budget_seconds=-1,
                                  external_cmd=STUB_CMD)

    def test_spent_budget_raises_in_the_pool(self):
        # a contradiction leaves no residual to read the deadline, with
        # threads=2 as with one
        with pytest.raises(ResourceLimitError):
            count_models([(1,), (-1,)], 1, threads=2, budget_seconds=-1)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_spent_budget_raises_on_an_empty_clause(self, threads):
        # preprocessing settles the count at 0 before any engine runs
        with pytest.raises(ResourceLimitError):
            count_models([(1,), ()], 1, threads=threads, budget_seconds=-1)

    def test_spent_budget_raises_on_unit_clauses(self):
        # the unit clauses close clauses at the start, so the count runs
        # in an engine over the open ones, under the same deadline
        clauses = [(1,), (-2,), (-1, 2, 3), (3, 4, 5), (-3, -4, 6)]
        with pytest.raises(ResourceLimitError):
            count_models(clauses, 6, budget_seconds=-1)
        counter = ComponentCounter(6, preprocess(clauses, 6), deadline=time.monotonic() - 1)
        with pytest.raises(ResourceLimitError):
            counter.count()

    def test_compacted_count_keeps_the_deadline(self, monkeypatch):
        # the deadline passes after the engine read it on entry and
        # before the engine over the open clauses starts its search
        instance = encode(5, Variant.H1)
        num_vars = instance.predicate_count
        counter = ComponentCounter(num_vars, preprocess(instance.clauses, num_vars),
                                   deadline=time.monotonic() + 0.05)
        start = ComponentCounter._start

        def slow_start(self, open_=None):
            time.sleep(0.1)
            return start(self, open_)

        monkeypatch.setattr(ComponentCounter, "_start", slow_start)
        with pytest.raises(ResourceLimitError):
            counter.count()

    def test_no_budget(self):
        assert count_models(encode(3, Variant.H), budget_seconds=None) == 45

    def test_nan_budget_rejected(self):
        # NaN compares false with every clock reading, so it would never
        # stop a count; an infinite budget still means no limit
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError, match="nan"):
            count_models(encode(3, Variant.H), budget_seconds=nan)
        with pytest.raises(ValueError, match="nan"):
            count_width(5, budget_seconds=nan)
        for method in ("dpll", "bruteforce", "identity", "external"):
            with pytest.raises(ValueError, match="nan"):
                count_variant(3, Variant.H, method, budget_seconds=nan,
                              external_cmd=STUB_CMD)
        assert count_models(encode(3, Variant.H), budget_seconds=inf) == 45
        assert count_width(3, budget_seconds=inf)[Variant.H].count == 45

    def test_pooled_count_stops_at_one_deadline(self):
        # one budget for the whole count, with threads=2 as with one
        start = time.monotonic()
        with pytest.raises(ResourceLimitError):
            count_models(encode(6, Variant.H1), threads=2, budget_seconds=1.0)
        assert time.monotonic() - start < 2.0

    def test_serial_count_stops_near_its_deadline(self):
        # the engine reads the deadline every 512 nodes, and width-6
        # nodes are the costliest: the count must stop soon after it
        start = time.monotonic()
        with pytest.raises(ResourceLimitError):
            count_width(6, budget_seconds=0.5)
        assert time.monotonic() - start < 1.5

    def test_identity_sub_counts_share_one_deadline(self, monkeypatch):
        real_encode = counter_module.encode

        def slow_encode(*args, **kwargs):
            time.sleep(0.2)
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(counter_module, "encode", slow_encode)
        # h(4) inverts h1(0..4): five sub-counts, each well inside the
        # budget on its own, together past it
        with pytest.raises(ResourceLimitError):
            count_variant(4, Variant.H, "identity", budget_seconds=0.5)



class TestDepth:
    def test_deep_chain_is_a_resource_limit(self):
        # the search recurses per decision level; a chain of implications
        # x1 -> x2 -> ... is as deep as it is long
        chain = [(-i, i + 1) for i in range(1, 120)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            with pytest.raises(ResourceLimitError, match="recursion limit"):
                count_models(chain, 120)
            # a residual given to count() is searched without the
            # compacted table, and is as deep
            counter = ComponentCounter(120, preprocess(chain, 120))
            start = counter._start()
            with pytest.raises(ResourceLimitError, match="recursion limit"):
                counter.count(start)
        finally:
            sys.setrecursionlimit(limit)
        assert count_models(chain, 120) == 121

    def test_long_chain_counts_quickly(self):
        # each implication is propagated once, not rescanned per level
        chain = [(-i, i + 1) for i in range(1, 600)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter's default
        try:
            start = time.monotonic()
            assert count_models(chain, 600) == 601
            assert time.monotonic() - start < 3.0
        finally:
            sys.setrecursionlimit(limit)

    def test_shuffled_chain_counts_quickly(self, rng):
        # the same chain over shuffled ids: the component sweep reaches
        # its variables out of id order, one neighbour at a time
        ids = rng.sample(range(1, 601), 600)
        chain = [(-a, b) for a, b in zip(ids, ids[1:])]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter's default
        try:
            start = time.monotonic()
            assert count_models(chain, 600) == 601
            assert time.monotonic() - start < 3.0
        finally:
            sys.setrecursionlimit(limit)


class TestCountVariant:
    @pytest.mark.parametrize("variant, expected", [
        ("h", dict(nodes=57, decisions=28, propagations=145, components=0,
                   cache_hits=0, cache_entries=57, leaves=47, leaf_fallbacks=18, sweeps=10)),
        ("h1", dict(nodes=81, decisions=41, propagations=330, components=0,
                    cache_hits=0, cache_entries=81, leaves=66, leaf_fallbacks=26, sweeps=15)),
    ])
    def test_width_five_search_stats(self, variant, expected):
        # the exact search effort: a change here is a different search
        report = count_variant(5, variant)
        assert report.stats.to_dict() == dict(expected, cache_evictions=0, subproblems=1)

    def test_width_five_branching_stats(self, branching_only):
        # with no truth tables the search is the one that branches on
        # every component
        report = count_variant(5, "h")
        assert report.stats.to_dict() == dict(
            nodes=11519, decisions=5884, propagations=8689, components=3699,
            cache_hits=5635, cache_entries=5884, cache_evictions=0, subproblems=1,
            leaves=0, leaf_fallbacks=0, sweeps=11087)

    @pytest.mark.parametrize("n", range(4))
    def test_methods_agree(self, n):
        for variant in Variant:
            dpll = count_variant(n, variant, "dpll")
            brute = count_variant(n, variant, "bruteforce")
            assert dpll.count == brute.count
            if not (variant is Variant.H0 and n == 0):
                identity = count_variant(n, variant, "identity")
                assert identity.count == dpll.count
                assert identity.method == "identity-derived"

    @pytest.mark.parametrize("n", [4, 5])
    def test_identity_route_matches_the_reference(self, n):
        for variant in Variant:
            report = count_variant(n, variant, "identity")
            assert report.count == reference_count(variant, n)
            assert report.method == "identity-derived"

    @pytest.mark.parametrize("method", ["dpll", "bruteforce", "identity", "external"])
    def test_negative_width_rejected(self, method):
        for variant in Variant:
            with pytest.raises(ValueError, match="n must be nonnegative"):
                count_variant(-1, variant, method, external_cmd=STUB_CMD)

    @pytest.mark.parametrize("method", ["dpll", "bruteforce", "identity", "external"])
    def test_bad_threads_rejected(self, method):
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                count_variant(2, Variant.H, method, threads=threads, external_cmd=STUB_CMD)

    def test_identity_h0_undefined_at_width_zero(self):
        with pytest.raises(ValueError):
            count_variant(0, Variant.H0, "identity")

    def test_identity_alias(self):
        report = count_variant(2, Variant.H01, "identity-derived")
        assert report.count == 14

    def test_variant_by_name(self):
        assert count_variant(3, "h1", "dpll").count == 61

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            count_variant(2, Variant.H, "montecarlo")

    def test_report_shape(self):
        report = count_variant(3, Variant.H, "dpll")
        assert report.method == "dpll"
        assert report.count == 45
        assert report.elapsed >= 0
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["count"] == 45
        assert payload["stats"]["decisions"] == report.stats.decisions

    def test_stats_merge(self):
        merged = CounterStats(nodes=1, decisions=2)
        merged.merge(CounterStats(nodes=10, decisions=20, propagations=5))
        assert (merged.nodes, merged.decisions, merged.propagations) == (11, 22, 5)


class TestCountWidth:
    @pytest.mark.parametrize("n", range(6))
    def test_every_variant_matches(self, n):
        reports = count_width(n)
        assert set(reports) == set(Variant)
        for variant, report in reports.items():
            assert (report.variant, report.n, report.method) == (variant, n, "dpll")
            assert report.count == count_variant(n, variant).count
            assert report.count == reference_count(variant, n)

    def test_later_variants_come_from_the_cache(self):
        # h01 is searched first; h1, h0 and h reach its components
        reports = count_width(5)
        assert list(reports) == [Variant.H01, Variant.H1, Variant.H0, Variant.H]
        assert reports[Variant.H01].stats.nodes == 81
        for variant in (Variant.H1, Variant.H0, Variant.H):
            assert reports[variant].stats.nodes <= 2
            assert reports[variant].stats.cache_hits >= 1

    def test_stats_include_the_endpoint_propagations(self):
        # a variant's stats are those of an engine started from its
        # endpoint unit clauses, whose literals count as propagations, and
        # one run; in count_width they start fresh for each variant.  h
        # has both endpoint units in force, so its mask is every clause
        instance = encode(4, Variant.H)
        num_vars = instance.predicate_count
        engine = ComponentCounter(num_vars, preprocess(instance.clauses, num_vars))
        assert engine.count(engine._start()) == 2271
        assert count_variant(4, Variant.H).stats == engine.stats
        assert engine.stats.propagations >= len(endpoint_units(4, Variant.H)) == 2
        stats = count_width(4)[Variant.H].stats
        assert stats.propagations >= 2
        assert stats.subproblems == engine.stats.subproblems == 1

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_encoded_clauses_are_canonical(self, n, variant):
        # count_width hands the encoder's clauses to the engine as
        # emitted: preprocess would only sort each clause's literals
        clauses = encode(n, variant).clauses
        assert preprocess(clauses, 1 << n) == [tuple(sorted(clause)) for clause in clauses]

    @pytest.mark.parametrize("n", range(6))
    def test_same_search_as_the_preprocessed_clauses(self, n):
        # the order of a clause's literals changes no count and no stat
        instance = encode(n, Variant.H)
        num_vars = instance.predicate_count
        engine = ComponentCounter(num_vars, preprocess(instance.clauses, num_vars))
        for variant, report in count_width(n).items():
            engine.stats = CounterStats()
            start = engine._start(variant_mask(n, variant))
            assert engine.count(start) == report.count
            assert engine.stats == report.stats

    @pytest.mark.parametrize("n", range(6))
    def test_unit_clauses_out_of_force_change_nothing(self, n):
        # h's table with only its ternary clauses in force is h01's
        # search: the closed unit clauses add no node, key or stat
        instance = encode(n, Variant.H)
        engine = ComponentCounter(instance.predicate_count, instance.clauses)
        start = engine._start(variant_mask(n, Variant.H01))
        report = count_width(n)[Variant.H01]
        assert engine.count(start) == report.count
        assert engine.stats == report.stats

    def test_conflicting_start_searches_nothing(self):
        # an engine whose start is a conflict counts 0 without a search,
        # as count_width does for such a variant, so no run is merged
        engine = ComponentCounter(1, preprocess([(1,), (-1,)], 1))
        assert engine.count() == 0
        assert engine.stats.subproblems == 0
        engine = ComponentCounter(2, preprocess([(1,), (-1, 2)], 2))
        assert engine.count() == 1
        assert engine.stats.subproblems == 1

    def test_bad_threads_rejected_before_encoding(self, monkeypatch):
        def no_encode(*args, **kwargs):
            raise AssertionError("encoded before threads was checked")

        monkeypatch.setattr(counter_module, "encode", no_encode)
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                count_width(3, threads=threads)

    @pytest.mark.parametrize("n", range(6))
    def test_spent_budget_raises(self, n):
        with pytest.raises(ResourceLimitError):
            count_width(n, budget_seconds=-1)

    def test_encoding_cap(self, monkeypatch):
        def no_engine(*args, **kwargs):
            raise AssertionError("engine built above the encoding cap")

        monkeypatch.setattr(counter_module, "ComponentCounter", no_engine)
        with pytest.raises(ResourceLimitError):
            count_width(7)


class TestThreads:
    """threads is checked and otherwise unused: every count runs in the
    calling process, in one engine."""

    def test_threads_change_nothing(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a count started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        engines = []

        class Recorded(ComponentCounter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        # the first engine of a count holds its stats, which an engine
        # over its open clauses shares
        monkeypatch.setattr(counter_module, "ComponentCounter", Recorded)
        for clauses, num_vars, expected in pool_slices((0, 1)):
            runs = []
            for threads in (1, 2):
                engines.clear()
                value = count_models(clauses, num_vars, threads=threads)
                runs.append((value, engines[0].stats.to_dict()))
            assert runs[0] == runs[1]
            assert runs[0][0] == expected
        serial, threaded = count_width(5), count_width(5, threads=2)
        assert list(threaded) == list(serial)
        assert [(r.count, r.stats.to_dict()) for r in threaded.values()] == [
            (r.count, r.stats.to_dict()) for r in serial.values()]


class TestAssumedLiterals:
    """Literals put in force by the unit clauses of a start's mask (see
    unit_table), as count_width puts each variant's endpoints."""

    def test_conflicting_literals_count_zero(self):
        counter, own, unit = unit_table([(1,), (2, 3)], 3)
        assert counter._start(own | 1 << unit[-1]) is None
        assert counter._start(own | 1 << unit[2] | 1 << unit[-2]) is None
        assert counter.stats.subproblems == 0
        assert counter.count(counter._start(own | 1 << unit[1])) == 3

    @pytest.mark.parametrize("tables", [True, False])
    def test_matches_the_reference_on_random_instances(self, rng, request, tables):
        # one engine per instance, so later counts reuse the cache of
        # earlier ones
        if not tables:
            request.getfixturevalue("branching_only")
        for _ in range(60):
            num_vars, clauses = random_instance(rng)
            table = unit_table(clauses, num_vars)
            if table is None:
                continue
            counter, own, unit = table
            for _ in range(3):
                assumed = tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
                                for _ in range(rng.randint(0, 2)))
                expected = brute_reference(list(clauses) + [(lit,) for lit in assumed],
                                           num_vars)
                start = counter._start(own | sum(1 << unit[lit] for lit in set(assumed)))
                assert (0 if start is None else counter.count(start)) == expected


def effort(stats):
    """The search effort that identifies a search: (nodes, decisions,
    propagations, components, cache_hits)."""
    return (stats.nodes, stats.decisions, stats.propagations, stats.components,
            stats.cache_hits)


def full_scan_start(counter, open_=None):
    """The start residual reached from the clauses in force, open_ (by
    default every clause), by scanning every variable's clauses, highest
    variable first."""
    if open_ is None:
        open_ = (1 << len(counter.clauses)) - 1
    return counter._propagate(((1 << counter.num_vars) - 1) << 1, open_, 0,
                              list(range(1, counter.num_vars + 1)))


class TestStart:
    def test_agrees_with_a_scan_of_every_variable(self, rng):
        # units, binary clauses, and unit clauses in force for chosen
        # literals.  A clause that a unit leaves binary may tie with an
        # input binary clause on the same two literals, and the two scans
        # may then keep a different one of the two open: the free
        # variables and the count must still agree.  Without unit clauses
        # only the input's binary clauses close clauses, none closes
        # another, and the residuals must be the same
        closed = 0
        for _ in range(400):
            num_vars, clauses = random_instance(rng, max_vars=8, max_clauses=24, max_width=4)
            table = unit_table(clauses, num_vars)
            if table is None:
                continue
            counter, own, unit = table
            reference = unit_table(clauses, num_vars)[0]
            assumed = tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
                            for _ in range(rng.randint(0, 3)))
            mask = own | sum(1 << unit[lit] for lit in set(assumed))
            start, expected = counter._start(mask), full_scan_start(reference, mask)
            assert (start is None) == (expected is None)
            if start is not None:
                assert start[0] == expected[0]
                assert counter.count(start) == reference.count(expected)
            wide = [clause for clause in preprocess(clauses, num_vars) if len(clause) > 1]
            counter, reference = (ComponentCounter(num_vars, wide) for _ in range(2))
            start = counter._start()
            assert start == full_scan_start(reference)
            assert counter.stats.propagations == reference.stats.propagations
            closed += start[1] != (1 << len(wide)) - 1
        assert closed >= 50

    def test_same_binary_clause_from_two_assumptions(self):
        # the unit clauses -1 and -2 leave both ternary clauses the binary
        # clause (3 7), and the first one scanned closes the other.  The
        # start pops the highest variable of a unit clause first, and the
        # scan of variable 2 meets its unit clause 3 before clause 0 (the
        # highest id first): -2 leaves clause 0 binary, which closes
        # clause 1, so clause 0 stays open, not clause 1
        counter = ComponentCounter(7, preprocess([(2, 3, 7), (1, 3, 7), (-1,), (-2,)], 7))
        assert counter._start() == (0b11111000, 0b0001, 0b0001)
        assert counter.stats.propagations == 2

    def test_a_unit_clause_and_its_negation_conflict(self):
        # both in force, the start is a conflict; either one alone is not
        counter = ComponentCounter(2, preprocess([(1,), (-1,), (-1, 2)], 2))
        assert counter._start() is None
        assert counter.count(counter._start(0b101)) == 1
        assert counter.count(counter._start(0b110)) == 2

    def test_open_table_reindexes_the_residual(self, monkeypatch):
        # the two residuals of the start's first decision, each counted
        # over a table of only its open clauses; the counts sum to h(4).
        # A cache limit of 0 clears the cache before every entry, so each
        # compacted engine evicts once per node
        instance = encode(4, Variant.H)
        num_vars = instance.predicate_count
        prepared = preprocess(instance.clauses, num_vars)
        reference = ComponentCounter(num_vars, prepared)
        table = ComponentCounter(num_vars, prepared)
        monkeypatch.setattr(counter_module, "DEFAULT_CACHE_LIMIT", 0)
        residuals = table._branch(*table._start())
        assert None not in residuals
        counts = []
        for residual in residuals:
            free, open_, shortened = residual
            ids = [i for i in range(len(prepared)) if open_ >> i & 1]
            engine, compact = table._open_table(residual)
            assert engine.clauses == [prepared[i] for i in ids]
            assert engine.stats is table.stats
            assert compact[:2] == (free, (1 << len(ids)) - 1)
            assert [compact[2] >> j & 1 for j in range(len(ids))] == [
                shortened >> i & 1 for i in ids]
            counts.append(engine.count(compact))
            assert counts[-1] == reference.count(residual)
        assert sum(counts) == 2271
        assert table.stats.cache_evictions == table.stats.nodes > 0


class TestOneCoordinateSplit:
    """Width 5 from the classes of width 4 (the one-coordinate split of
    Habib & Nourine): a family F splits on one coordinate into F1 and F0,
    its members with that coordinate 1 and 0, and F is meet-closed
    exactly when F1 and F0 are and every meet r & s of r in F1 and s in
    F0 is in F0.  So h1(5) sums, over the classes G of h1(4), |orbit(G)|
    times the number of closed F0 that G meets into F0: the models of
    encode(4, h01) plus a binary clause (-P_s, P_(r & s)) for each r in G
    and each s with r & s != s.  h(5) adds the unit clause P_(0...0).
    Each start closes the clauses that its binary clauses subsume, and
    must reach the residual of a scan of every variable."""

    @pytest.mark.parametrize("variant, units", [(Variant.H1, []), (Variant.H, [(1,)])],
                             ids=["h1", "h"])
    def test_classes_of_width_four_sum_to_width_five(self, variant, units):
        ternary = list(encode(4, Variant.H01).clauses)
        classes = [(first, size) for first, size in _orbits(4) if first >> 15 & 1]
        assert len(classes) == 184
        total = 0
        for first, size in classes:
            members = [r for r in range(16) if first >> r & 1]
            binary = [(-(s + 1), (r & s) + 1) for r in members for s in range(16) if r & s != s]
            clauses = units + ternary + binary
            prepared = preprocess(clauses, 16)
            assert ComponentCounter(16, prepared)._start() == full_scan_start(
                ComponentCounter(16, prepared))
            total += size * count_models(clauses, 16)
        assert total == reference_count(variant, 5)

    def test_one_engine_with_a_mask_per_class(self):
        # one table: the unit clause P_(0...0), the ternary clauses, and
        # the binary clause (-P_s, P_u) for each u strictly inside s.  A
        # class's mask puts in force the ternary clauses and the binary
        # clauses its members meet into, and h's the unit clause too, so
        # all 2 x 184 counts share one component cache
        ternary = list(encode(4, Variant.H01).clauses)
        binary = [(-(s + 1), u + 1) for s in range(16) for u in range(16) if u & s == u != s]
        assert len(binary) == 65
        prepared = preprocess([(1,)] + ternary + binary, 16)
        engine = ComponentCounter(16, prepared)
        ids = {clause: i for i, clause in enumerate(prepared)}
        shared = (1 << (1 + len(ternary))) - 2
        totals = {Variant.H1: 0, Variant.H: 0}
        for first, size in _orbits(4):
            if not first >> 15 & 1:
                continue
            members = [r for r in range(16) if first >> r & 1]
            mask = shared | sum(1 << i for i in {ids[(-(s + 1), (r & s) + 1)]
                                                 for r in members for s in range(16) if r & s != s})
            for variant, unit in ((Variant.H1, 0), (Variant.H, 1)):
                start = engine._start(mask | unit)
                totals[variant] += size * (0 if start is None else engine.count(start))
        for variant, total in totals.items():
            assert total == reference_count(variant, 5)


class TestCompactedStart:
    """An engine counting from its own start searches a table of only the
    clauses the start left open: the same search as over the whole
    table."""

    @pytest.mark.parametrize("tables", [True, False])
    def test_same_search_as_the_full_table(self, rng, request, tables):
        if not tables:
            request.getfixturevalue("branching_only")
        compacted = 0
        for _ in range(200):
            num_vars, clauses = random_instance(rng, max_vars=10, max_clauses=24)
            assert count_models(clauses, num_vars) == brute_reference(clauses, num_vars)
            prepared = preprocess(clauses, num_vars)
            if prepared is None:
                continue
            full = ComponentCounter(num_vars, prepared)
            start = full._start()
            own = ComponentCounter(num_vars, prepared)
            assert own.count() == (0 if start is None else full.count(start))
            assert effort(own.stats) == effort(full.stats)
            compacted += start is not None and start[1] != (1 << len(prepared)) - 1
        assert compacted >= 50

    @pytest.mark.parametrize("source", [Variant.H, Variant.H1, 0, 4],
                             ids=["h(5)", "h1(5)", "bin 0", "bin 4"])
    def test_same_search_on_encoded_instances(self, source):
        # the width-5 instances, and two slices of the width-6 pool
        if isinstance(source, Variant):
            encoded = encode(5, source)
            clauses, num_vars = encoded.clauses, encoded.predicate_count
        else:
            [(clauses, num_vars, _)] = pool_slices((source,))
        prepared = preprocess(clauses, num_vars)
        full = ComponentCounter(num_vars, prepared)
        start = full._start()
        assert start[1] != (1 << len(prepared)) - 1
        own = ComponentCounter(num_vars, prepared)
        assert own.count() == full.count(start)
        assert effort(own.stats) == effort(full.stats)
        assert own.stats.cache_entries == full.stats.cache_entries > 0


class TestExternalMethod:
    def test_stub_counter_agrees(self):
        for n, variant, expected in [(2, Variant.H01, 14), (3, Variant.H, 45)]:
            report = count_variant(n, variant, "external", external_cmd=STUB_CMD)
            assert report.count == expected
            assert report.method == "external"

    def test_template_without_placeholder(self):
        assert run_external_counter(encode(2, Variant.H1),
                                    command=f"{sys.executable} {STUB}") == 7

    def test_unconfigured(self, monkeypatch):
        monkeypatch.delenv("HORNENUM_EXTERNAL_CMD", raising=False)
        with pytest.raises(ExternalToolError):
            count_variant(2, Variant.H, "external")

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("HORNENUM_EXTERNAL_CMD", STUB_CMD)
        assert count_variant(2, Variant.H1, "external").count == 7

    def test_nonzero_exit_reported(self):
        with pytest.raises(ExternalToolError) as err:
            run_external_counter(encode(2, Variant.H), command="false {file}")
        assert err.value.command

    def test_unparseable_output(self):
        with pytest.raises(ExternalToolError):
            run_external_counter(encode(2, Variant.H),
                                 command="echo nonsense # {file}")

    def test_non_integer_capture(self):
        pattern = r"count=(\w+)"
        with pytest.raises(ExternalToolError) as err:
            count_variant(3, Variant.H, "external", external_cmd="echo count=abc # {file}",
                          external_pattern=pattern)
        assert repr(pattern) in str(err.value)
        assert "count=abc" in err.value.output

    def test_invalid_pattern_rejected_before_running(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("external command started with an invalid pattern")

        monkeypatch.setattr("subprocess.run", no_run)
        with pytest.raises(ValueError, match=r"invalid external pattern '\('"):
            count_variant(2, Variant.H, "external", external_cmd=STUB_CMD,
                          external_pattern="(")

    def test_invalid_pattern_rejected_without_a_command(self, monkeypatch):
        # a bad pattern is a usage error even when no command is configured
        monkeypatch.delenv("HORNENUM_EXTERNAL_CMD", raising=False)
        with pytest.raises(ValueError, match=r"invalid external pattern '\('"):
            run_external_counter(encode(2, Variant.H), pattern="(")

    def test_custom_pattern(self):
        cmd = f"{sys.executable} {STUB} {{file}} | sed 's/^/models: /'"
        got = run_external_counter(encode(2, Variant.H01), command=cmd,
                                   pattern=r"models: (\d+)")
        assert got == 14
