import json
import time
from types import SimpleNamespace

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

    def test_overrun_after_the_last_check_fails_the_run(self, monkeypatch):
        last = verify_matrix(2).checks[-1].name
        skew = [0.0]

        def jump_at_last_check(result):
            if result.name == last:
                skew[0] = 3600.0  # the clock jumps past the deadline here

        monkeypatch.setattr(validation, "time", SimpleNamespace(
            monotonic=lambda: time.monotonic() + skew[0]))
        with pytest.raises(ResourceLimitError, match="after"):
            verify_matrix(2, budget_seconds=60.0, progress=jump_at_last_check)

    def test_each_check_reads_the_deadline(self, monkeypatch):
        # the counts of the checks after "reference table: h(0)" are all
        # cached, and the first of them still stops the run
        skew = [0.0]

        def jump_after_h0(result):
            if result.name == "reference table: h(0)":
                skew[0] = 3600.0  # the clock jumps past the deadline here

        monkeypatch.setattr(validation, "time", SimpleNamespace(
            monotonic=lambda: time.monotonic() + skew[0]))
        with pytest.raises(ResourceLimitError, match="after 21 checks"):
            verify_matrix(5, budget_seconds=60.0, progress=jump_after_h0)

    def test_nan_budget_is_rejected_before_any_check(self):
        seen = []
        with pytest.raises(ValueError, match="nan"):
            verify_matrix(2, budget_seconds=float("nan"), progress=seen.append)
        assert seen == []

    @pytest.mark.parametrize("n_max", [validation.VERIFY_DPLL_CAP + 1, 7, -1])
    def test_n_max_outside_the_cap_is_rejected(self, monkeypatch, n_max):
        # a wider n_max used to run the matrix of the cap under its own
        # name; now no check runs and nothing is counted
        def no_count(*args, **kwargs):
            raise AssertionError("counted before n_max was checked")

        monkeypatch.setattr(validation, "count_width", no_count)
        seen = []
        with pytest.raises(ValueError, match=f"verify cap {validation.VERIFY_DPLL_CAP}"):
            verify_matrix(n_max, progress=seen.append)
        assert seen == []

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
        assert list(payload) == ["name", "passed", "expected", "actual", "warning", "elapsed"]
        # a side that is not an int, a str or None is given as its str
        payload = CheckResult("y", True, (1, 2), None).to_dict()
        assert (payload["expected"], payload["actual"]) == ("(1, 2)", None)
