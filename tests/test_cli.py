import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hornenum.validation as validation
from hornenum.cli import main

GOLDEN = Path(__file__).parent / "golden"
STUB = Path(__file__).parent / "external_stub.py"


class TestCount:
    def test_human_output(self, capsys):
        assert main(["count", "--n", "3", "--variant", "h"]) == 0
        out = capsys.readouterr().out
        assert "h(3) = 45" in out
        assert "method: dpll" in out
        for field in ("nodes", "cache hits", "decisions"):
            assert f"{field}: " in out

    def test_json_output(self, capsys):
        assert main(["count", "--n", "2", "--variant", "h01", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "count"
        assert payload["count"] == 14
        assert payload["variant"] == "h01"
        assert payload["stats"]["nodes"] >= 0

    def test_identity_method(self, capsys):
        assert main(["count", "--n", "3", "--variant", "h0",
                     "--method", "identity", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "identity-derived"
        assert payload["count"] == 90

    def test_threads_json_output(self, capsys):
        # --threads 2 counts in one engine, as --threads 1 does
        payloads = []
        for threads in ("1", "2"):
            assert main(["count", "--n", "4", "--variant", "h01",
                         "--threads", threads, "--json"]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[1]["count"] == 4960
        assert payloads[1]["stats"] == payloads[0]["stats"]
        assert payloads[1]["stats"]["subproblems"] == 1

    def test_zero_budget_disables_limit(self, capsys):
        assert main(["count", "--n", "3", "--variant", "h",
                     "--budget-seconds", "0"]) == 0

    def test_bruteforce_width_cap_is_resource_error(self, capsys):
        assert main(["count", "--n", "5", "--variant", "h",
                     "--method", "bruteforce"]) == 3
        assert "resource limit" in capsys.readouterr().err

    def test_identity_h0_width_zero_is_usage_error(self, capsys):
        assert main(["count", "--n", "0", "--variant", "h0",
                     "--method", "identity"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["h", "h1"])
    @pytest.mark.parametrize("method", ["dpll", "identity", "bruteforce"])
    def test_negative_width_is_usage_error(self, capsys, method, variant):
        assert main(["count", "--n", "-1", "--variant", variant,
                     "--method", method]) == 2
        assert "n must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["dpll", "identity", "bruteforce"])
    def test_zero_threads_is_usage_error(self, capsys, method):
        assert main(["count", "--n", "2", "--variant", "h", "--method", method,
                     "--threads", "0"]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err

    def test_external_stub(self, capsys):
        cmd = f"{sys.executable} {STUB} {{file}}"
        assert main(["count", "--n", "2", "--variant", "h01",
                     "--method", "external", "--external-cmd", cmd,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 14
        assert payload["method"] == "external"

    def test_external_non_integer_count(self, capsys):
        assert main(["count", "--n", "3", "--variant", "h",
                     "--method", "external", "--external-cmd", "echo count=abc",
                     "--external-pattern", r"count=(\w+)"]) == 4
        err = capsys.readouterr().err
        assert "external tool:" in err and "count=abc" in err

    def test_invalid_external_pattern_is_usage_error(self, capsys):
        cmd = f"{sys.executable} {STUB} {{file}}"
        assert main(["count", "--n", "2", "--variant", "h",
                     "--method", "external", "--external-cmd", cmd,
                     "--external-pattern", "("]) == 2
        assert "invalid external pattern '('" in capsys.readouterr().err

    def test_invalid_external_pattern_without_command_is_usage_error(self, capsys,
                                                                     monkeypatch):
        monkeypatch.delenv("HORNENUM_EXTERNAL_CMD", raising=False)
        assert main(["count", "--n", "2", "--variant", "h",
                     "--method", "external", "--external-pattern", "("]) == 2
        assert "invalid external pattern '('" in capsys.readouterr().err

    def test_nan_budget_is_usage_error(self, capsys):
        assert main(["count", "--n", "2", "--variant", "h",
                     "--budget-seconds", "nan"]) == 2
        assert "nan" in capsys.readouterr().err

    def test_width_over_encode_cap_is_resource_error(self, capsys):
        assert main(["count", "--n", "7", "--variant", "h"]) == 3
        assert "encoding cap" in capsys.readouterr().err

    def test_external_failure(self, capsys):
        assert main(["count", "--n", "2", "--variant", "h",
                     "--method", "external",
                     "--external-cmd", "/nonexistent-tool-xyz {file}"]) == 4
        assert "external tool:" in capsys.readouterr().err

    def test_missing_variant_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "2"])
        assert exc.value.code == 2


class TestEncode:
    def test_stdout_matches_golden(self, capsys):
        assert main(["encode", "--n", "2", "--variant", "h01"]) == 0
        expected = (GOLDEN / "n2_h01.cnf").read_text()
        assert capsys.readouterr().out == expected

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "out.cnf"
        assert main(["encode", "--n", "3", "--variant", "h",
                     "--out", str(target)]) == 0
        assert target.read_bytes() == (GOLDEN / "n3_h.cnf").read_bytes()
        assert capsys.readouterr().out == ""

    def test_json_embeds_dimacs_without_out(self, capsys):
        assert main(["encode", "--n", "2", "--variant", "h1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dimacs"] == (GOLDEN / "n2_h1.cnf").read_text()
        assert payload["predicates"] == 4
        assert payload["clauses"] == 2

    def test_json_with_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.cnf"
        assert main(["encode", "--n", "0", "--variant", "h01", "--json",
                     "--out", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "dimacs" not in payload
        assert target.read_text() == (GOLDEN / "n0_h01.cnf").read_text()

    def test_width_over_cap_is_resource_error(self, capsys):
        assert main(["encode", "--n", "7", "--variant", "h"]) == 3


class TestTranslate:
    def test_equations_to_clauses(self, tmp_path, capsys):
        source = tmp_path / "eqs.txt"
        source.write_text("x1 x2 = x1\n")
        assert main(["translate", "to-clauses", str(source)]) == 0
        assert capsys.readouterr().out == "x1 -> x2\n"

    def test_clauses_to_equations(self, tmp_path, capsys):
        source = tmp_path / "clauses.txt"
        source.write_text("x1 -> x2\n")
        assert main(["translate", "to-equations", str(source)]) == 0
        assert capsys.readouterr().out == "x1 = x1 x2\n"

    def test_verify_reports_match(self, tmp_path, capsys):
        source = tmp_path / "eqs.txt"
        source.write_text("x1 x2 = x3\n0 = x1 x4\n")
        assert main(["translate", "to-clauses", str(source),
                     "--verify", "--n", "4"]) == 0
        captured = capsys.readouterr()
        assert "model sets match at n=4" in captured.err

    def test_verify_needs_n(self, tmp_path, capsys):
        source = tmp_path / "eqs.txt"
        source.write_text("x1 = x2\n")
        assert main(["translate", "to-clauses", str(source), "--verify"]) == 2
        assert "--verify needs --n" in capsys.readouterr().err

    def test_verify_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        # force disagreement to exercise the mismatch path
        import hornenum.theory as theory
        monkeypatch.setattr(theory, "models",
                            lambda constraints, n: object())
        source = tmp_path / "eqs.txt"
        source.write_text("x1 = x2\n")
        assert main(["translate", "to-clauses", str(source),
                     "--verify", "--n", "2"]) == 1
        assert "DIFFER" in capsys.readouterr().err

    def test_json_round_trip(self, tmp_path, capsys):
        source = tmp_path / "clauses.txt"
        source.write_text("x1 & x2 -> x3\n-> x1\n")
        assert main(["translate", "to-equations", str(source),
                     "--verify", "--n", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["models_match"] is True
        assert payload["input_count"] == 2
        assert payload["output"]

    def test_out_file(self, tmp_path, capsys):
        source = tmp_path / "eqs.txt"
        source.write_text("x1 x3 = 0\n")
        target = tmp_path / "clauses.txt"
        assert main(["translate", "to-clauses", str(source),
                     "--out", str(target)]) == 0
        assert target.read_text() == "x1 & x3 -> false\n"

    def test_parse_error_position(self, tmp_path, capsys):
        source = tmp_path / "eqs.txt"
        source.write_text("x1 = x2\nx1 = y3\n")
        assert main(["translate", "to-clauses", str(source)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_file(self, capsys):
        assert main(["translate", "to-clauses", "/no/such/file"]) == 2

    def test_json_out_that_cannot_be_written_prints_nothing(self, tmp_path, capsys):
        # the file is written before the payload is printed, as encode does
        source = tmp_path / "eqs.txt"
        source.write_text("x1 = x2\n")
        target = tmp_path / "missing" / "x.horn"
        assert main(["translate", "to-clauses", str(source), "--json",
                     "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestCheck:
    def test_closed_family(self, tmp_path, capsys):
        source = tmp_path / "family.txt"
        source.write_text("00\n01\n11\n")
        assert main(["check", str(source)]) == 0
        out = capsys.readouterr().out
        assert "width 2, 3 vectors" in out
        assert "meet-closed: yes" in out
        assert "h=yes" in out
        source.write_text("01\n01\n")
        assert main(["check", str(source)]) == 0
        assert "width 2, 1 vector\n" in capsys.readouterr().out

    def test_unclosed_family_prints_closure(self, tmp_path, capsys):
        source = tmp_path / "family.txt"
        source.write_text("01\n10\n")
        assert main(["check", str(source)]) == 0
        out = capsys.readouterr().out
        assert "meet-closed: no" in out
        lines = out.splitlines()
        header = lines.index("closure adds 1 vector:")
        assert lines[header + 1:] == ["00"]

    def test_json(self, tmp_path, capsys):
        source = tmp_path / "family.txt"
        source.write_text("# comment\n101\n111\n")
        assert main(["check", str(source), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["width"] == 3
        assert payload["size"] == 2
        assert payload["meet_closed"] is True
        assert payload["variants"]["h1"] is True
        assert payload["variants"]["h"] is False
        assert payload["closure"] is None

    def test_comments_and_indents_anywhere(self, tmp_path, capsys):
        source = tmp_path / "family.txt"
        source.write_text("00  # bottom\n  01\n11\n")
        assert main(["check", str(source), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == 3
        assert payload["meet_closed"] is True

    def test_ragged_widths_is_usage_error(self, tmp_path, capsys):
        source = tmp_path / "family.txt"
        source.write_text("00\n111\n")
        assert main(["check", str(source)]) == 2
        assert "error: line" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/family"]) == 2


class TestVerify:
    def test_human_output(self, capsys):
        assert main(["verify", "--n-max", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS oracle vs dpll: h(0)" in out
        assert "0 failures" in out

    def test_json_output(self, capsys):
        assert main(["verify", "--n-max", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["n_max"] == 1
        assert payload["failure_count"] == 0

    def test_pooled_run(self, capsys):
        assert main(["verify", "--n-max", "3", "--threads", "2"]) == 0
        assert "0 failures" in capsys.readouterr().out

    def test_zero_threads_is_usage_error(self, capsys):
        assert main(["verify", "--n-max", "1", "--threads", "0"]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err

    def test_nan_budget_is_usage_error(self, capsys):
        assert main(["verify", "--n-max", "2", "--budget-seconds", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nan" in captured.err

    def test_skip_orbits(self, capsys):
        assert main(["verify", "--n-max", "1", "--skip-orbits", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert not any("orbit" in c["name"] for c in payload["checks"])

    def test_failure_exit_code(self, capsys, monkeypatch):
        bad = list(validation.REFERENCE_H)
        bad[1] = 99
        monkeypatch.setattr(validation, "REFERENCE_H", tuple(bad))
        assert main(["verify", "--n-max", "1", "--skip-orbits"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "expected" in out

    def test_full_matrix_at_width_five(self, capsys):
        # the four counts of a width come from one shared search; the
        # matrix must still hold every check, under the same names
        assert main(["verify", "--n-max", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = (GOLDEN / "verify_n5_checks.txt").read_text().splitlines()
        assert len(payload["checks"]) == 97
        assert payload["failure_count"] == 0
        assert [check["name"] for check in payload["checks"]] == names

    @pytest.mark.parametrize("n_max", ["6", "7"])
    def test_n_max_above_the_cap_is_usage_error(self, capsys, n_max):
        assert main(["verify", "--n-max", n_max, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verify cap 5" in captured.err

    def test_budget_bounds_the_run(self, capsys, monkeypatch):
        # the clock jumps an hour past the deadline right after the run
        # sets it, so the run overruns however fast the host is
        readings = iter([0.0])
        monkeypatch.setattr(validation, "time", SimpleNamespace(
            monotonic=lambda: next(readings, 3600.0)))
        assert main(["verify", "--n-max", "5", "--budget-seconds", "0.01"]) == 3
        assert "resource limit" in capsys.readouterr().err


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_variant(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "2", "--variant", "horn"])
        assert exc.value.code == 2
