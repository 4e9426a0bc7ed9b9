"""Command-line front end: subcommands, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyp321.cli
from hyp321.cli import main
from hyp321.database import (get_entry, load_db, save_db, seed_db,
                             _build_entry)
from hyp321.entries import RAW_ENTRIES
from hyp321.series import sum_series_numeric


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_basel_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--upper", "1,1,1",
                           "--lower", "2,2")
        assert code == 0
        assert "1.64493406685" in out

    def test_every_recoverable_error_exits_4(self, capsys, monkeypatch):
        """The CLI's numeric errors are the library's recoverable ones and
        three of its own, so a ZeroDivisionError exits 4 too."""
        from hyp321.database import RECOVERABLE
        assert set(RECOVERABLE) <= set(hyp321.cli._NUMERIC_ERRORS)

        def divide(*args, **kwargs):
            raise ZeroDivisionError("complex division by zero")
        monkeypatch.setattr(hyp321.cli, "sum_series_numeric", divide)
        code, _, err = run(capsys, "eval", "--upper", "1,1,1", "--lower", "2,2")
        assert code == 4 and "numeric error" in err

    def test_thomae_image_named_only_when_used(self, capsys):
        code, out, _ = run(capsys, "eval", "--upper", "300,300,300",
                           "--lower", "451,451")
        assert code == 0
        assert "value = 6.1830444569e+154" in out
        assert "via Thomae base 1 (excess 300)" in out
        _, out, _ = run(capsys, "eval", "--upper", "1,1,1", "--lower", "2,2")
        assert "via" not in out

    def test_no_well_conditioned_image_is_numeric_error(self, capsys):
        code, _, err = run(capsys, "eval", "--upper", "1000000,1,1",
                           "--lower", "1000001,5/2")
        assert code == 4
        assert "no well-conditioned Thomae image" in err

    def test_divergent_is_numeric_error(self, capsys):
        code, _, err = run(capsys, "eval", "--upper", "0.5,0.5,1",
                           "--lower", "0.2,0.1")
        assert code == 4
        assert "excess" in err

    def test_division_by_zero_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--upper", "1/0,1,1",
                         "--lower", "2,2")
        assert code == 2

    def test_parameter_too_large_for_float_is_numeric_error(self, capsys):
        huge = "1" + "0" * 400
        code, _, err = run(capsys, "eval", "--upper", f"{huge},1,1",
                           "--lower", "2,3")
        assert code == 4
        assert "too large" in err

    def test_identify_parameter_too_large_for_float_is_numeric_error(
            self, capsys):
        huge = "1" + "0" * 400
        code, _, err = run(capsys, "identify", "--upper", f"{huge},1,1",
                           "--lower", f"2,{huge}")
        assert code == 4
        assert "too large" in err

    def test_inexact_decimal_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "--upper", "0.3333333333,1,1",
                           "--lower", "2,2")
        assert code == 2
        assert "fraction" in err

    def test_exact_decimal_accepted(self, capsys):
        code, out, _ = run(capsys, "eval", "--upper", "0.25,1,1",
                           "--lower", "2,2")
        assert code == 0

    def test_symbolic_parameters_rejected(self, capsys):
        code, _, _ = run(capsys, "eval", "--upper", "a,1,1", "--lower", "2,2")
        assert code == 2


class TestIdentify:
    def test_symbolic_hit(self, capsys):
        code, out, _ = run(capsys, "identify", "--upper", "a,b,2-b",
                           "--lower", "c,2*a+2-c")
        assert code == 0
        assert "B.17" in out

    def test_numeric_hit_cross_checked(self, capsys):
        code, out, _ = run(capsys, "identify", "--upper", "1.1,0.4,1.6",
                           "--lower", "2,2.2")
        assert code == 0
        assert "B.17" in out
        assert "rel_err" in out

    def test_no_match(self, capsys):
        code, out, _ = run(capsys, "identify", "--upper", "0.3,0.4,0.5",
                           "--lower", "0.7,0.8")
        assert code == 3
        assert "no match" in out

    def test_query_series_summed_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sum_series_numeric(*args, **kwargs)

        monkeypatch.setattr(hyp321.cli, "sum_series_numeric", counted)
        code, out, _ = run(capsys, "identify", "--upper", "1.1,0.4,1.6",
                           "--lower", "2,2.2")
        assert code == 0 and len(calls) == 1
        assert out.count("  check: series=") == 24

    def test_divergent_query_check_unavailable_per_hit(self, capsys):
        code, out, _ = run(capsys, "identify", "--upper=-1/2,2/5,8/5",
                           "--lower", "1/2,1/2")
        assert code == 0
        assert out.count("  check: unavailable (DivergentSeries)") == 12

    def test_deterministic_output(self, capsys):
        args = ("identify", "--upper", "1.1,0.4,1.6", "--lower", "2,2.2",
                "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestVerify:
    def test_single_entry_report(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code, out, _ = run(capsys, "verify", "--entry", "B.37",
                           "--trials", "5", "--seed", "42",
                           "--report", str(report))
        assert code == 0
        assert out.startswith("PASS B.37")
        assert report.read_text() == out

    @pytest.mark.parametrize("trials", ["2", "0", "-1"])
    def test_fewer_than_three_trials_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "verify", "--entry", "B.37",
                             "--trials", trials)
        assert code == 2 and not out
        assert err == f"error: verify needs at least 3 trials, got {trials}\n"

    def test_unknown_entry(self, capsys):
        code, _, _ = run(capsys, "verify", "--entry", "B.999")
        assert code == 2
        code, out, err = run(capsys, "db", "show", "B.999")
        assert code == 2 and not out
        assert err == "error: no such entry 'B.999'\n"

    def test_other_key_error_is_not_an_unknown_entry(self, monkeypatch):
        def broken(args):
            raise KeyError("entries")

        monkeypatch.setattr(hyp321.cli, "_cmd_db", broken)
        with pytest.raises(KeyError):
            main(["db", "list"])

    def test_failing_database_exits_nonzero(self, capsys, tmp_path):
        raw = dict(next(r for r in RAW_ENTRIES if r["id"] == "B.37"))
        raw["rhs"] = raw["rhs"].replace("-6*", "-5.9*")
        bad = tmp_path / "bad.json"
        save_db([_build_entry(raw)], str(bad))
        code, out, _ = run(capsys, "--db", str(bad), "verify")
        assert code == 1
        assert out.startswith("FAIL B.37")


class TestElements:
    def test_watson(self, capsys):
        code, out, _ = run(capsys, "watson", "--a", "0.3", "--b", "0.5",
                           "--c", "1.4", "--m", "0", "--n", "0")
        assert code == 0
        assert "agrees" in out

    def test_dixon_rational_input(self, capsys):
        code, out, _ = run(capsys, "dixon", "--a", "3/10", "--b", "1/5",
                           "--c", "1/10", "--m", "2", "--n", "0")
        assert code == 0

    def test_whipple_exceptional(self, capsys):
        code, _, err = run(capsys, "whipple", "--a", "-2", "--b", "0.3",
                           "--c", "1.4", "--m", "0", "--n", "0")
        assert code == 4

    @pytest.mark.parametrize("family, abc", [
        ("watson", ("0.3", "0.2", "100")), ("dixon", ("0.3", "100.2", "1.3"))])
    def test_non_finite_element_is_numeric_error(self, capsys, family, abc):
        code, out, err = run(capsys, family, "--a", abc[0], "--b", abc[1],
                             "--c", abc[2], "--m", "0", "--n", "0")
        assert code == 4
        assert "not finite" in err
        assert "agrees" not in out

    def test_overflow_is_numeric_error(self, capsys):
        code, _, err = run(capsys, "dixon", "--a", "0.3", "--b", "100.2",
                           "--c", "100.45", "--m", "0", "--n", "0")
        assert code == 4
        assert err.startswith("numeric error:")

    def test_unchecked_value_still_printed(self, capsys):
        code, out, _ = run(capsys, "watson", "--a", "0.3", "--b", "0.4",
                           "--c", "0.25", "--m", "0", "--n", "-2")
        assert code == 0
        assert "not convergent" in out

    def test_far_offset(self, capsys):
        code, out, _ = run(capsys, "watson", "--a", "0.3", "--b", "0.2",
                           "--c", "0.4", "--m", "1000", "--n", "0")
        assert code == 0
        assert "watson(1000,0) = 1.00005998278" in out

    def test_far_offset_overflow_is_numeric_error(self, capsys):
        code, _, err = run(capsys, "dixon", "--a", "0.3", "--b", "0.2",
                           "--c", "0.4", "--m", "0", "--n", "1000")
        assert code == 4
        assert err.startswith("numeric error:")

    def test_offset_beyond_bound_is_usage_error(self, capsys):
        code, out, err = run(capsys, "whipple", "--a", "0.3", "--b", "0.2",
                             "--c", "0.4", "--m", "0", "--n", "-10001")
        assert code == 2 and not out
        assert err == "error: offset (0,-10001) is beyond |m|, |n| <= 10000\n"


@pytest.mark.parametrize("argv", [
    ("eval", "--upper", "1,1,1", "--lower", "2,2"),
    ("identify", "--upper", "1,1,1", "--lower", "2,2"),
    ("verify", "--entry", "B.1")] + [
    (family, "--a", "0.3", "--b", "0.2", "--c", "0.4", "--m", "0", "--n", "0")
    for family in ("watson", "dixon", "whipple")])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bad_tol_is_usage_error(capsys, argv, tol):
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 2 and not out
    assert err == ("error: rel_tol must be a finite positive number, "
                   f"got {float(tol)!r}\n")


class TestDbAndCull:
    def test_list_and_show(self, capsys):
        code, out, _ = run(capsys, "db", "list")
        assert code == 0
        assert "B.37" in out and "CONJ.24" in out
        code, out, _ = run(capsys, "db", "show", "B.54")
        assert code == 0
        assert "Gessel" in out

    def test_export_round_trip(self, capsys, tmp_path):
        path = tmp_path / "db.json"
        code, _, _ = run(capsys, "db", "export", str(path))
        assert code == 0
        back = load_db(str(path))
        assert [e.id for e in back] == [e.id for e in seed_db()]
        doc = json.loads(path.read_text())
        assert doc["schema"] == "hyp321/1"

    def test_malformed_database_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        save_db([get_entry(seed_db(), "B.37")], str(path))
        doc = json.loads(path.read_text())
        doc["entries"][0]["upper"][0]["coeffs"] = "notadict"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "--db", str(path), "db", "list")
        assert code == 2 and not out
        assert "coeffs: expected Mapping" in err

    @pytest.mark.parametrize("content", [b'{"schema": "hyp321/1", "entr',
                                         b'{"schema": "hyp\xff"}'])
    def test_unreadable_database_is_a_usage_error(self, capsys, tmp_path,
                                                  content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "--db", str(path), "db", "list")
        assert code == 2 and not out
        assert err.startswith(f"error: {path} is not a UTF-8 JSON file")

    @pytest.mark.parametrize("entries", [{}, {"entries": 3},
                                         {"entries": {"B.37": {}}}])
    def test_database_without_an_entries_list(self, capsys, tmp_path,
                                              entries):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"schema": "hyp321/1", **entries}))
        code, out, err = run(capsys, "--db", str(path), "db", "list")
        assert code == 2 and not out
        assert err == "error: a database file needs an 'entries' list\n"

    def test_env_var_database(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "mini.json"
        save_db([get_entry(seed_db(), "B.37")], str(path))
        monkeypatch.setenv("HYP321_DB", str(path))
        code, out, _ = run(capsys, "db", "list")
        assert code == 0
        assert out.strip().startswith("B.37") and "B.38" not in out

    def test_cull_round_trip(self, capsys, tmp_path):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        db = seed_db()
        subset = [get_entry(db, i) for i in
                  ("B.17", "B.37", "B.43", "B.44", "B.45")]
        save_db(subset, str(src))
        code, out, _ = run(capsys, "cull", "--in", str(src), "--out", str(dst))
        assert code == 0
        kept = load_db(str(dst))
        kept_ids = {e.id for e in kept}
        assert "B.43" in kept_ids
        assert not {"B.44", "B.45"} & kept_ids
        assert "dropped" in out


class TestValuesStartingWithMinus:
    """A value of --upper, --lower, --a, --b or --c that starts with "-"
    but is not a plain negative number reads as its ``--opt=value`` form
    does."""

    @pytest.mark.parametrize("argv, option, count, text", [
        (("eval", "--upper", "-40,41/2,61/2", "--lower", "3/2,5/2"),
         "--upper", 1, "41 terms, terminating)"),
        # the README's terminating query and its hit count
        (("identify", "--upper", "-n,a,b", "--lower", "c,1+a+b-c-n"),
         "--upper", 44, "  variant="),
        (("watson", "--a", "-1/2", "--b", "1/3", "--c", "1/4", "--m", "0",
          "--n", "0"), "--a", 1, "watson(0,0) = 0.69500753567\n"),
        (("eval", "--upper", "1,1,1", "--lower", "-1/2,5"), "--lower", 1,
         "convergent)"),
        (("dixon", "--a", "3/10", "--b", "-1/5", "--c", "1/10", "--m", "2",
          "--n", "0"), "--b", 1, "dixon(2,0) = "),
        (("dixon", "--a", "3/10", "--b", "1/5", "--c", "-1/10", "--m", "2",
          "--n", "0"), "--c", 1, "dixon(2,0) = ")])
    def test_negative_and_symbolic_values(self, capsys, argv, option, count,
                                          text):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.count(text) == count and not err
        i = argv.index(option)
        joined = argv[:i] + (f"{option}={argv[i + 1]}",) + argv[i + 2:]
        assert run(capsys, *joined) == (code, out, err)

    @pytest.mark.parametrize("argv", [
        ["eval", "--upper", "--lower", "2,2"],
        ["eval", "--upper", "-h"],
        ["db", "show", "--", "--upper", "-x"],
        ["eval", "--tol", "-1/2", "--upper", "1,1,1"]])
    def test_options_stay_options(self, argv):
        assert hyp321.cli._bind_param_values(argv) == argv

    def test_option_without_value_is_still_a_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--upper", "--lower", "2,2")
        assert code == 2 and not out
        assert "argument --upper: expected one argument" in err


class TestExitPaths:
    def test_element_mismatch_is_a_verification_failure(self, capsys,
                                                        monkeypatch):
        import hyp321.contiguous

        def off(*args, **kwargs):
            res = sum_series_numeric(*args, **kwargs)
            return dataclasses.replace(res, value=res.value * 1.1)
        monkeypatch.setattr(hyp321.contiguous, "sum_series_numeric", off)
        code, out, err = run(capsys, "watson", "--a", "0.3", "--b", "0.5",
                             "--c", "1.4", "--m", "0", "--n", "0")
        assert code == 1 and not out
        assert err.startswith("verification failure: watson element (0,0) "
                              "disagrees with the direct series")

    def test_missing_database_file(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = run(capsys, "--db", str(path), "db", "list")
        assert code == 2 and not out
        assert err.startswith("error: [Errno 2]") and str(path) in err

    def test_report_into_a_missing_directory(self, capsys, tmp_path,
                                             monkeypatch):
        path = tmp_path / "missing" / "report.txt"
        monkeypatch.setattr(hyp321.cli, "verify_entry", pytest.fail)
        code, out, err = run(capsys, "verify", "--entry", "B.37",
                             "--report", str(path))
        assert code == 2 and not out  # nothing verified
        assert err.startswith("error: [Errno 2]") and str(path) in err

    def test_argparse_usage_error(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2 and not out
        assert "invalid choice: 'frobnicate'" in err

    @pytest.mark.parametrize("action", ["show", "export"])
    def test_db_action_without_a_target(self, capsys, action):
        code, out, err = run(capsys, "db", action)
        assert code == 2 and not out
        assert err == "error: db show/export requires a target\n"

    def test_parameter_count(self, capsys):
        code, out, err = run(capsys, "eval", "--upper", "1,1",
                             "--lower", "2,2")
        assert code == 2 and not out
        assert err == ("error: expected 3 upper and 2 lower parameters, "
                       "got 2/2\n")

    def test_deeply_nested_parameter_is_a_usage_error(self, capsys):
        deep = "(" * 400 + "1" + ")" * 400
        code, out, err = run(capsys, "eval", "--upper", f"{deep},1,1",
                             "--lower", "2,3")
        assert code == 2 and not out
        assert err.startswith("error: expression nested deeper than 100 "
                              "levels (at position ")

    def test_deeply_nested_database_rhs_is_a_usage_error(self, capsys,
                                                         tmp_path):
        path = tmp_path / "deep.json"
        save_db([get_entry(seed_db(), "B.37")], str(path))
        doc = json.loads(path.read_text())
        for _ in range(600):
            doc["entries"][0]["rhs"] = ["Neg", doc["entries"][0]["rhs"]]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "--db", str(path), "db", "list")
        assert code == 2 and not out
        assert err == "error: expression nested deeper than 100 levels\n"

    def test_symbolic_element_argument(self, capsys):
        code, out, err = run(capsys, "watson", "--a", "x", "--b", "0.5",
                             "--c", "1.4", "--m", "0", "--n", "0")
        assert code == 2 and not out
        assert err == "error: --a must be numeric, got x\n"

    def test_derived_definitions_printed(self, capsys):
        code, out, _ = run(capsys, "identify", "--upper", "a,b,d-n",
                           "--lower", "b+d+1,a-n+1")
        assert code == 0
        assert ("B.40  variant=T10·(abc|fe)  {a -> a, b -> b, d -> d, "
                "n -> n}\n") in out
        hit = out[out.index("B.40  variant=T10·(abc|fe)"):].splitlines()
        assert hit[2] == "  with d = (a)*(n)*(1/(b + n))"


def test_cli_import_loads_no_mpmath():
    """``import hyp321.cli`` plus the first ``seed_db()`` stays light: it is
    what the benchmark's ``setup_s`` times."""
    src = str(Path(hyp321.cli.__file__).resolve().parents[1])
    code = ("import sys, hyp321.cli\n"
            "hyp321.cli.seed_db()\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'mpmath'])")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
