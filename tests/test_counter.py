import inspect
import json
import sys
import time
from pathlib import Path

import pytest
from conftest import random_instance

import hornenum.counter as counter_module
from hornenum.counter import (ComponentCounter, CounterStats, count_models,
                              count_variant, preprocess, run_external_counter)
from hornenum.encoder import encode
from hornenum.errors import ExternalToolError, ResourceLimitError
from hornenum.families import Variant
from hornenum.oracle import brute_count

STUB = str(Path(__file__).parent / "external_stub.py")
STUB_CMD = f"{sys.executable} {STUB} {{file}}"


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

    def test_thread_independence(self):
        for n, variant in [(3, Variant.H), (4, Variant.H1), (4, Variant.H01)]:
            instance = encode(n, variant)
            single = count_models(instance, threads=1)
            assert count_models(instance, threads=2) == single
            assert count_models(instance, threads=3) == single


class TestEngines:
    def test_component_engine_multiplies_disjoint_parts(self):
        # two independent constraints: 3 models each over 2 vars
        clauses = [(1, 2), (3, 4)]
        counter = ComponentCounter(4, preprocess(clauses, 4))
        assert counter.count() == 9
        assert counter.stats.components == 2

    def test_component_cache_hits(self):
        instance = encode(4, Variant.H1)
        counter = ComponentCounter(instance.predicate_count,
                                   preprocess(instance.clauses, instance.predicate_count))
        assert counter.count() == 2480
        assert counter.stats.cache_hits > 0

    def test_cache_eviction_keeps_count_exact(self):
        instance = encode(4, Variant.H1)
        prepared = preprocess(instance.clauses, instance.predicate_count)
        tiny = ComponentCounter(instance.predicate_count, prepared, cache_limit=16)
        assert tiny.count() == 2480
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
        assert err.value.stats["nodes"] == 1

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
            with pytest.raises(ResourceLimitError, match="recursion limit"):
                counter_module._count_remapped(chain, None)
        finally:
            sys.setrecursionlimit(limit)
        assert count_models(chain, 120) == 121


class TestCountVariant:
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
