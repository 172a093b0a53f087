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
from hornenum.encoder import encode
from hornenum.errors import ExternalToolError, ResourceLimitError
from hornenum.families import Variant
from hornenum.oracle import brute_count
from hornenum.validation import reference_count

STUB = str(Path(__file__).parent / "external_stub.py")
STUB_CMD = f"{sys.executable} {STUB} {{file}}"
SLICE_POOL = Path(__file__).parent.parent / "perfbench" / "slice_pool.json"


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
        # at n <= 2 the unit clauses settle the instance, so every pool
        # job is a settled residual; a contradiction leaves no job at all
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


class TestTruthTables:
    @pytest.mark.parametrize("k", range(6))
    def test_columns_definition(self, k):
        columns = counter_module._columns(k)
        assert len(columns) == k
        for j, column in enumerate(columns):
            assert column >> (1 << k) == 0
            assert all((column >> x & 1) == (x >> j & 1) for x in range(1 << k))

    @pytest.mark.parametrize("extra, decides", [(0, False), (1, True)])
    def test_component_at_the_table_boundary(self, rng, extra, decides):
        # one component of TABLE_VARS (+ extra) variables and no unit
        # clause: a binary chain joins them, random ternary clauses fill in
        k = counter_module.TABLE_VARS + extra
        for _ in range(3):
            clauses = [(-i, i + 1) if i % 2 else (i, i + 1) for i in range(1, k)]
            for _ in range(2 * k):
                picked = rng.sample(range(1, k + 1), 3)
                clauses.append(tuple(rng.choice((1, -1)) * v for v in picked))
            counter = ComponentCounter(k, preprocess(clauses, k))
            assert counter.count() == brute_reference(clauses, k)
            assert (counter.stats.decisions > 0) == decides

    @pytest.mark.parametrize("extra", [0, 1])
    def test_residual_at_the_table_boundary(self, rng, extra):
        # TABLE_VARS (+ extra) free variables in two clause parts, the last
        # two variables in no clause: at the bound the residual is counted
        # whole as one node; one variable more and it is split first
        k = counter_module.TABLE_VARS + extra
        half = (k - 2) // 2
        for _ in range(3):
            clauses = []
            for lo, hi in ((1, half), (half + 1, k - 2)):
                clauses += [(-i, i + 1) if i % 2 else (i, i + 1) for i in range(lo, hi)]
                for _ in range(hi - lo + 1):
                    picked = rng.sample(range(lo, hi + 1), 3)
                    clauses.append(tuple(rng.choice((1, -1)) * v for v in picked))
            counter = ComponentCounter(k, preprocess(clauses, k))
            assert counter.count() == brute_reference(clauses, k)
            stats = counter.stats
            assert (stats.nodes, stats.components, stats.decisions) == (
                (2, 2, 0) if extra else (1, 0, 0))


class TestPoolJobs:
    def test_jobs_sum_to_the_serial_count(self):
        # each job counts its residual over a table of only its open
        # clauses; the count must equal that over the whole table
        instance = encode(5, Variant.H1)
        num_vars = instance.predicate_count
        prepared = preprocess(instance.clauses, num_vars)
        table = ComponentCounter(num_vars, prepared)
        residuals = counter_module._split_residuals(table, table._start(), 8)
        assert len(residuals) > 1
        counts = [counter_module._count_job(num_vars, prepared, None, r)[0] for r in residuals]
        assert counts == [ComponentCounter(num_vars, prepared).count(r) for r in residuals]
        assert sum(counts) == 1385552


class TestWidthSixSlices:
    """The two easiest slices of the benchmark's verified width-6 pool,
    counted serially and through the pool split."""

    @pytest.fixture(scope="class")
    def slices(self):
        pool = json.loads(SLICE_POOL.read_text())
        width = pool["width"]
        chosen = []
        for entry in pool["slices"]:
            if entry["bin"] in (0, 1):
                base = encode(width, Variant.from_name(entry["variant"])).clauses
                clauses = list(base) + [(unit,) for unit in entry["units"]]
                chosen.append((clauses, 1 << width, entry["count"]))
        assert len(chosen) == 2
        return chosen

    @pytest.mark.parametrize("threads", [1, 2])
    def test_recorded_counts(self, slices, threads):
        for clauses, num_vars, expected in slices:
            assert count_models(clauses, num_vars, threads=threads) == expected


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

    # at width 4 truth tables count almost every component, so the cache
    # is exercised at width 5
    def test_component_cache_hits(self):
        instance = encode(5, Variant.H1)
        counter = ComponentCounter(instance.predicate_count,
                                   preprocess(instance.clauses, instance.predicate_count))
        assert counter.count() == 1385552
        assert counter.stats.cache_hits > 0

    def test_cache_eviction_keeps_count_exact(self):
        instance = encode(5, Variant.H1)
        prepared = preprocess(instance.clauses, instance.predicate_count)
        tiny = ComponentCounter(instance.predicate_count, prepared, cache_limit=16)
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
    def test_spent_budget_raises_at_every_width(self, n):
        # at n <= 2 the unit clauses settle the instance before any node
        for method in ("dpll", "bruteforce"):
            for variant in Variant:
                with pytest.raises(ResourceLimitError):
                    count_variant(n, variant, method, budget_seconds=-1)

    def test_spent_budget_raises_in_the_pool(self):
        # a contradiction leaves the pool no job to read the deadline
        with pytest.raises(ResourceLimitError):
            count_models([(1,), (-1,)], 1, threads=2, budget_seconds=-1)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_spent_budget_raises_on_an_empty_clause(self, threads):
        # preprocessing settles the count at 0 before any engine runs
        with pytest.raises(ResourceLimitError):
            count_models([(1,), ()], 1, threads=threads, budget_seconds=-1)

    def test_no_budget(self):
        assert count_models(encode(3, Variant.H), budget_seconds=None) == 45

    def test_pooled_count_stops_at_one_deadline(self):
        # one budget for the whole count: the eight pool jobs on two
        # workers must not each get it anew from their own start
        start = time.monotonic()
        with pytest.raises(ResourceLimitError):
            count_models(encode(6, Variant.H1), threads=2, budget_seconds=1.0)
        assert time.monotonic() - start < 2.0

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
            prepared = preprocess(chain, 120)
            start = ComponentCounter(120, prepared)._start()
            with pytest.raises(ResourceLimitError, match="recursion limit"):
                counter_module._count_job(120, prepared, None, start)
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


class TestCountVariant:
    @pytest.mark.parametrize("variant, expected", [
        ("h", dict(nodes=938, decisions=467, propagations=1107, components=6,
                   cache_hits=2, cache_entries=936)),
        ("h1", dict(nodes=967, decisions=484, propagations=1336, components=6,
                    cache_hits=4, cache_entries=963)),
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
            nodes=12927, decisions=6989, propagations=10017, components=2984,
            cache_hits=5938, cache_entries=6989, cache_evictions=0, subproblems=1)

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

    @pytest.mark.parametrize("method", ["dpll", "bruteforce", "identity", "external"])
    def test_negative_width_rejected(self, method):
        for variant in Variant:
            with pytest.raises(ValueError, match="n must be nonnegative"):
                count_variant(-1, variant, method, external_cmd=STUB_CMD)

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
        assert reports[Variant.H01].stats.nodes == 967
        for variant in (Variant.H1, Variant.H0, Variant.H):
            assert reports[variant].stats.nodes <= 2
            assert reports[variant].stats.cache_hits >= 1

    def test_pooled_counts_agree(self):
        serial = count_width(5)
        pooled = count_width(5, threads=2)
        assert {v: r.count for v, r in pooled.items()} == {
            v: r.count for v, r in serial.items()}
        assert all(r.stats.subproblems > 1 for r in pooled.values())

    @pytest.mark.parametrize("n", range(6))
    def test_spent_budget_raises(self, n):
        with pytest.raises(ResourceLimitError):
            count_width(n, budget_seconds=-1)

    def test_encoding_cap(self):
        with pytest.raises(ResourceLimitError):
            count_width(3, encode_cap=2)


class TestAssumedLiterals:
    def test_conflicting_literals_count_zero(self):
        counter = ComponentCounter(3, preprocess([(1,), (2, 3)], 3))
        assert counter._start((-1,)) is None
        assert counter._start((2, -2)) is None
        assert counter_module._count_assuming(counter, (-1,), 1)[0] == 0
        assert counter_module._count_assuming(counter, (1,), 1)[0] == 3

    @pytest.mark.parametrize("tables", [True, False])
    def test_matches_the_reference_on_random_instances(self, rng, request, tables):
        # one engine, so later counts reuse the cache of earlier ones
        if not tables:
            request.getfixturevalue("branching_only")
        for _ in range(60):
            num_vars, clauses = random_instance(rng)
            prepared = preprocess(clauses, num_vars)
            if prepared is None:
                continue
            counter = ComponentCounter(num_vars, prepared)
            for _ in range(3):
                assumed = tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
                                for _ in range(rng.randint(0, 2)))
                expected = brute_reference(list(clauses) + [(lit,) for lit in assumed],
                                           num_vars)
                assert counter_module._count_assuming(counter, assumed, 1)[0] == expected


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

    def test_custom_pattern(self):
        cmd = f"{sys.executable} {STUB} {{file}} | sed 's/^/models: /'"
        got = run_external_counter(encode(2, Variant.H01), command=cmd,
                                   pattern=r"models: (\d+)")
        assert got == 14
