"""Golden corpus of oracle outputs, diffed byte for byte.

The corpus holds ``repr`` of the value and term count of seeded real
generic, small-excess and terminating sums (the error estimate of the
non-terminating ones only), ``verify_all`` reports at seeds 0..2, and
Watson/Dixon/Whipple elements.  Complex and large-parameter inputs are left
out: their values change whenever the oracle's algorithm for them does.

Regenerate, after a change that is meant to alter these outputs, with::

    PYTHONPATH=src python tests/test_golden_oracle.py --write
"""

import json
import random
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_oracle.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(build_corpus())
