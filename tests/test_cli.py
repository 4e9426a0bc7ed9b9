"""Command-line front end: subcommands, exit codes, determinism."""

import dataclasses
import json

import pytest

from hyp321.cli import main
from hyp321.database import (get_entry, load_db, save_db, seed_db,
                             _build_entry)
from hyp321.entries import RAW_ENTRIES


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

    def test_unknown_entry(self, capsys):
        code, _, _ = run(capsys, "verify", "--entry", "B.999")
        assert code == 2

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

    def test_unchecked_value_still_printed(self, capsys):
        code, out, _ = run(capsys, "watson", "--a", "0.3", "--b", "0.4",
                           "--c", "0.25", "--m", "0", "--n", "-2")
        assert code == 0
        assert "not convergent" in out


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
