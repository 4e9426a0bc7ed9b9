"""Golden corpus of oracle outputs, diffed byte for byte.

The corpus holds ``repr`` of the value and term count of seeded real
generic, small-excess and terminating sums (the error estimate of the
non-terminating ones only), ``verify_all`` reports at seeds 0..2, and
Watson/Dixon/Whipple elements.  Complex and large-parameter inputs are left
out: their values change whenever the oracle's algorithm for them does.

Regenerate, after a change that is meant to alter these outputs, with::

    PYTHONPATH=src python tests/test_golden_oracle.py --write

and review the change first with ``--diff``: per section, how many values
changed and by how much (relative), and how many ``verify_all`` flags
flipped.
"""

import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

from hyp321.contiguous import dixon_element, watson_element, whipple_element
from hyp321.database import seed_db, verify_all
from hyp321.errors import Hyp321Error, NoConvergentCheck
from hyp321.series import sum_series_numeric

GOLDEN = Path(__file__).parent / "golden" / "oracle.json"

_ELEMENTS = {"watson": watson_element, "dixon": dixon_element,
             "whipple": whipple_element}


def _lower(rng, up, s_lo, s_hi):
    s = rng.uniform(s_lo, s_hi)
    e = rng.uniform(0.5, min(2.5, sum(up) + s - 0.3))
    return [e, sum(up) - e + s]


def _inputs():
    rng = random.Random(2718)
    out = []
    for _ in range(20):
        up = [rng.uniform(0.1, 1.5) for _ in range(3)]
        out.append(("generic", up, _lower(rng, up, 0.3, 1.5)))
    for _ in range(20):
        up = [rng.uniform(0.1, 1.5) for _ in range(3)]
        out.append(("small_excess", up, _lower(rng, up, 0.05, 0.3)))
    for _ in range(10):
        # half-integer parameters whose large terms cancel
        up = [-rng.randint(5, 40), rng.randint(10, 30) + 0.5,
              rng.randint(10, 30) + 0.5]
        out.append(("terminating", up,
                    [rng.randint(1, 3) + 0.5, rng.randint(1, 3) + 0.5]))
    for _ in range(10):
        up = [-rng.randint(1, 12), rng.uniform(0.1, 3.0),
              rng.uniform(0.1, 3.0)]
        out.append(("terminating", up,
                    [rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)]))
    return out


def _evals():
    rows = []
    for regime, up, lo in _inputs():
        r = sum_series_numeric(up, lo, rel_tol=1e-10)
        row = {"regime": regime, "upper": repr(up), "lower": repr(lo),
               "value": repr(r.value), "terms_used": repr(r.terms_used)}
        if not r.terminated:
            row["estimate"] = repr(r.abs_error_estimate)
        rows.append(row)
    return rows


def _reports():
    db = seed_db()
    out = {}
    for seed in range(3):
        out[str(seed)] = {
            eid: {"passed": rep.passed,
                  "samples": [[repr(s.lhs), repr(s.rel_err)]
                              for s in rep.samples]}
            for eid, rep in verify_all(db, trials=5, seed=seed).items()}
    return out


def _elements():
    rng = random.Random(1618)
    rows = []
    for k in range(50):
        family = ("watson", "dixon", "whipple")[k % 3]
        a, b, c = (rng.uniform(0.1, 1.5) for _ in range(3))
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        row = {"family": family, "args": repr((a, b, c, m, n))}
        try:
            row["value"] = repr(_ELEMENTS[family](a, b, c, m, n,
                                                  rel_tol=1e-7))
        except NoConvergentCheck as exc:
            row["unchecked"] = repr(exc.value)
        except Hyp321Error as exc:
            row["error"] = type(exc).__name__
        rows.append(row)
    return rows


def build_corpus() -> str:
    corpus = {"evals": _evals(), "verify_all": _reports(),
              "elements": _elements()}
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"


def test_oracle_corpus_unchanged():
    assert build_corpus() == GOLDEN.read_text()


def test_corpus_independent_of_hash_seed():
    """The corpus built under another PYTHONHASHSEED is the same file."""
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONIOENCODING="utf-8",
               PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, test_golden_oracle as g; "
         "sys.stdout.write(g.build_corpus())"],
        env=env, capture_output=True, text=True, encoding="utf-8",
        check=True).stdout
    assert out == GOLDEN.read_text(encoding="utf-8")


def test_diff_summary_counts_changes():
    old = json.loads(GOLDEN.read_text())
    assert "0 passed flags flipped" in diff_summary(old, old)
    new = json.loads(GOLDEN.read_text())
    new["elements"][1]["value"] = repr(_num(old["elements"][1]["value"])
                                       * (1 + 1e-12))
    report = next(iter(new["verify_all"]["0"].values()))
    report["passed"] = not report["passed"]
    summary = diff_summary(old, new)
    assert "1 passed flags flipped" in summary
    assert "elements: 1 of 50 values changed" in summary
    assert "evals: 0 of " in summary


def _num(text: str) -> complex:
    return complex(text.strip("()"))


def _changes(pairs: list) -> str:
    """How many of the (old, new) value texts differ, and by how much."""
    rels = sorted(abs(_num(new) - _num(old)) / max(abs(_num(old)), 1e-300)
                  for old, new in pairs if old != new)
    out = f"{len(rels)} of {len(pairs)} values changed"
    if rels:
        out += (f", relative change largest {rels[-1]:.3g},"
                f" median {statistics.median(rels):.3g}")
    return out


def diff_summary(old: dict, new: dict) -> str:
    """A per-section summary of how ``new`` differs from ``old``."""
    evals = [(o[k], n[k]) for o, n in zip(old["evals"], new["evals"])
             for k in ("value", "estimate", "terms_used") if k in o]
    flips, series, errs = 0, [], []
    for seed, reports in old["verify_all"].items():
        for eid, rep in reports.items():
            other = new["verify_all"][seed][eid]
            flips += rep["passed"] != other["passed"]
            for (lhs, err), (lhs2, err2) in zip(rep["samples"],
                                                other["samples"]):
                series.append((lhs, lhs2))
                errs.append((float(err), float(err2)))
    closer = sum(e2 < e for e, e2 in errs)
    further = sum(e2 > e for e, e2 in errs)
    before, after = ([e[i] for e in errs] for i in (0, 1))
    outcomes, elements = 0, []
    for o, n in zip(old["elements"], new["elements"]):
        kind = next(k for k in ("value", "unchecked", "error") if k in o)
        if kind not in n:
            outcomes += 1
        elif kind != "error":
            elements.append((o[kind], n[kind]))
    return "\n".join([
        f"evals: {_changes(evals)}",
        f"verify_all: {flips} passed flags flipped; series {_changes(series)};"
        f" closed-form error of {len(errs)} samples: median"
        f" {statistics.median(before):.3g} -> {statistics.median(after):.3g},"
        f" mean {statistics.fmean(before):.3g} -> {statistics.fmean(after):.3g};"
        f" {closer} closer, {further} further",
        f"elements: {_changes(elements)}; {outcomes} outcomes changed kind"])


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        print(diff_summary(json.loads(GOLDEN.read_text()),
                           json.loads(build_corpus())))
    elif sys.argv[1:] == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(build_corpus())
    else:
        sys.exit("usage: test_golden_oracle.py --diff | --write")
