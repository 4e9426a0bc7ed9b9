"""Golden corpus of matcher outputs, diffed byte for byte.

The corpus holds the hits of the two README ``identify`` queries (entry,
variant, substitution, the instantiated right-hand side and the derived
definitions, all as text) and the ids of the survivors of
``cull(seed_db())``.  It must not depend on PYTHONHASHSEED.

Regenerate, after a change that is meant to alter these outputs, with::

    PYTHONPATH=src python tests/test_golden_matcher.py --write
"""

import json
import sys
from fractions import Fraction as Q
from pathlib import Path

from hyp321.database import seed_db
from hyp321.expr import expr_str
from hyp321.matcher import cull, identify
from hyp321.parser import parse_param_list
from hyp321.series import ParamSet

GOLDEN = Path(__file__).parent / "golden" / "matcher.json"

#: the README's library example and its ``hyp321 identify`` example
QUERIES = {
    "numeric": ParamSet.make([Q(11, 10), Q(2, 5), Q(8, 5)], [Q(2), Q(11, 5)]),
    "symbolic": ParamSet.make(parse_param_list("a,b,2-b"),
                              parse_param_list("c,2*a+2-c")),
}


def _hits(query):
    return [{"entry": h.entry_id, "variant": h.variant.name,
             "substitution": str(h.substitution),
             "rhs": expr_str(h.instantiated_rhs),
             "derived": [[s.name, expr_str(d)] for s, d in h.derived]}
            for h in identify(seed_db(), query)]


def build_corpus() -> str:
    corpus = {"identify": {name: _hits(q) for name, q in QUERIES.items()},
              "cull_survivors": [e.id for e in cull(seed_db())]}
    return json.dumps(corpus, indent=1, sort_keys=True,
                      ensure_ascii=False) + "\n"


def test_matcher_corpus_unchanged():
    assert build_corpus() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_matcher.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(build_corpus(), encoding="utf-8")
