"""Golden corpus of matcher outputs, diffed byte for byte.

The corpus holds the hits of the two README ``identify`` queries (entry,
variant, substitution, the instantiated right-hand side and the derived
definitions, all as text), the ids of the survivors of ``cull(seed_db())``
and a Thomae-closure pool: ten seed entries plus the nine non-identity
class-representative images of each, with the ids of the pool's survivors
and, for every image, the ``equivalent(parent, image)`` witness as text.
It must not depend on PYTHONHASHSEED.

Regenerate, after a change that is meant to alter these outputs, with::

    PYTHONPATH=src python tests/test_golden_matcher.py --write
"""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

from hyp321.database import get_entry, seed_db
from hyp321.expr import Mul, Recip, expr_str
from hyp321.matcher import cull, equivalent, identify
from hyp321.parser import parse_param_list
from hyp321.series import ParamSet, excess
from hyp321.thomae import (CLASS_REPRESENTATIVES, IDENTITY_VARIANT,
                           apply_variant)

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


#: the seed entries of ``test_matcher._planted_pool``
CLOSURE_PARENTS = ("B.17", "B.37", "B.43", "B.44", "B.45", "B.46", "B.47",
                   "B.50", "B.51", "B.52")


def closure_pool() -> list[tuple]:
    """(parent, image) for the nine non-identity class-representative
    images of each closure parent; an image's rhs is its parent's divided by
    the prefactor."""
    out = []
    for parent in (get_entry(seed_db(), i) for i in CLOSURE_PARENTS):
        for v in CLASS_REPRESENTATIVES:
            if v == IDENTITY_VARIANT:
                continue
            img, pref = apply_variant(v, parent.lhs)
            out.append((parent, dataclasses.replace(
                parent, id=f"{parent.id}|{v.name}", lhs=img,
                rhs=Mul((Recip(pref), parent.rhs)), excess=excess(img))))
    return out


def _closure() -> dict:
    pairs = closure_pool()
    parents = [get_entry(seed_db(), i) for i in CLOSURE_PARENTS]
    witnesses = {}
    for parent, image in pairs:
        w = equivalent(parent, image)
        witnesses[image.id] = None if w is None else [w[0].name, str(w[1])]
    return {"survivors": [e.id for e in
                          cull(parents + [img for _, img in pairs])],
            "witnesses": witnesses}


def build_corpus() -> str:
    corpus = {"identify": {name: _hits(q) for name, q in QUERIES.items()},
              "cull_survivors": [e.id for e in cull(seed_db())],
              "closure": _closure()}
    return json.dumps(corpus, indent=1, sort_keys=True,
                      ensure_ascii=False) + "\n"


def test_matcher_corpus_unchanged():
    assert build_corpus() == GOLDEN.read_text(encoding="utf-8")


def test_corpus_independent_of_hash_seed():
    """The corpus built under another PYTHONHASHSEED is the same file."""
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONIOENCODING="utf-8",
               PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, test_golden_matcher as g; "
         "sys.stdout.write(g.build_corpus())"],
        env=env, capture_output=True, text=True, encoding="utf-8",
        check=True).stdout
    assert out == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_matcher.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(build_corpus(), encoding="utf-8")
