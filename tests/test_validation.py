import json
import time

import pytest

import hornenum.validation as validation
from hornenum.errors import ResourceLimitError
from hornenum.families import Variant
from hornenum.validation import (CheckResult, reference_count, verify_matrix)


class TestReferenceCount:
    def test_h_column(self):
        assert [reference_count(Variant.H, n) for n in range(7)] == [
            1, 1, 4, 45, 2271, 1373701, 75965474236]

    def test_h1_column(self):
        assert reference_count(Variant.H1, 5) == 1385552

    def test_doubled_columns(self):
        assert reference_count(Variant.H0, 0) == 1
        assert reference_count(Variant.H0, 3) == 90
        assert reference_count(Variant.H01, 0) == 2
        assert reference_count(Variant.H01, 4) == 4960

    def test_out_of_table(self):
        assert reference_count(Variant.H, 7) is None
        assert reference_count(Variant.H01, -1) is None


class TestVerifyMatrix:
    def test_small_matrix_passes(self):
        run = verify_matrix(2)
        assert run.passed
        assert run.failures == []
        assert run.checks
        names = [check.name for check in run.checks]
        assert any("oracle" in name for name in names)
        assert any("doubling" in name for name in names)

    def test_trivial_matrix_passes(self):
        assert verify_matrix(0).passed

    def test_progress_callback_sees_every_check(self):
        seen = []
        run = verify_matrix(1, progress=seen.append)
        assert seen == run.checks

    def test_sequence_prefixes_reported_as_warnings(self):
        run = verify_matrix(2, include_nonisomorphic=True)
        warnings_named = [c for c in run.checks if c.warning]
        assert warnings_named
        assert all("A1087" in c.name for c in warnings_named)
        # a warning mismatch must not fail the run
        assert all(c.passed for c in warnings_named)

    def test_skipping_orbits_drops_those_checks(self):
        run = verify_matrix(2, include_nonisomorphic=False)
        assert not any("orbit" in c.name or "A1087" in c.name
                       for c in run.checks)

    def test_poisoned_reference_table_fails(self, monkeypatch):
        bad = list(validation.REFERENCE_H)
        bad[2] = 5
        monkeypatch.setattr(validation, "REFERENCE_H", tuple(bad))
        run = verify_matrix(2, include_nonisomorphic=False)
        assert not run.passed
        assert run.failures
        failure = run.failures[0]
        assert failure.expected != failure.actual

    def test_budget_bounds_the_whole_run(self, monkeypatch):
        budgets = []
        real = validation.count_width

        def spy(n, **kwargs):
            budgets.append(kwargs["budget_seconds"])
            return real(n, **kwargs)

        monkeypatch.setattr(validation, "count_width", spy)
        assert verify_matrix(3, budget_seconds=60.0).passed
        # each count gets only what the counts before it left over
        assert budgets[-1] < budgets[0] <= 60.0
        assert all(later <= earlier for earlier, later in zip(budgets, budgets[1:]))

    def test_spent_budget_stops_the_run(self, monkeypatch):
        widths = []
        real = validation.count_width

        def spy(n, **kwargs):
            widths.append(n)
            time.sleep(0.01)  # the first count spends the whole budget
            return real(n, **kwargs)

        monkeypatch.setattr(validation, "count_width", spy)
        with pytest.raises(ResourceLimitError):
            verify_matrix(5, budget_seconds=0.01)
        assert widths == [0]

    def test_serializes(self):
        run = verify_matrix(1)
        payload = json.loads(json.dumps(run.to_dict()))
        assert payload["passed"] is True
        assert payload["n_max"] == 1
        assert len(payload["checks"]) == len(run.checks)


class TestCheckResult:
    def test_to_dict(self):
        check = CheckResult(name="x", passed=False, expected=1, actual=2)
        payload = check.to_dict()
        assert payload == {"name": "x", "passed": False, "expected": 1,
                           "actual": 2, "warning": False,
                           "elapsed": check.elapsed}
