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

and review the change first with ``--diff``: per section, the ``identify``
hits added, removed and changed, the survivors added and removed, and the
closure witnesses whose variant changed against those whose substitution
text alone changed.
"""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
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


def test_diff_summary_counts_changes():
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert diff_summary(old, old).splitlines()[-1] == (
        f"closure witnesses: 0 of {len(old['closure']['witnesses'])} changed"
        " variant, 0 changed substitution text only, 0 found or lost")
    assert diff_summary(old, old).count(" 0 removed") == 4
    new = json.loads(GOLDEN.read_text(encoding="utf-8"))
    hits = new["identify"]["numeric"]
    hits[0] = dict(hits[0], rhs=hits[0]["rhs"] + " + 0")
    del hits[1]
    new["cull_survivors"].append("X.1")
    new["closure"]["survivors"].pop()
    witnesses = new["closure"]["witnesses"]
    first, second, third = sorted(k for k, w in witnesses.items() if w)[:3]
    witnesses[first] = ["another", witnesses[first][1]]
    witnesses[second] = [witnesses[second][0], "{a -> b}"]
    witnesses[third] = None
    assert diff_summary(old, new).splitlines() == [
        "identify numeric: 0 hits added, 1 removed, 1 changed",
        "identify symbolic: 0 hits added, 0 removed, 0 changed",
        "cull survivors: 1 added, 0 removed",
        "closure survivors: 0 added, 1 removed",
        f"closure witnesses: 1 of {len(witnesses)} changed variant,"
        " 1 changed substitution text only, 1 found or lost"]


def _hit_changes(old: list, new: list) -> str:
    """Hits added, removed and changed: a hit found in only one list is
    changed when the other has one of the same entry and variant that it
    lacks."""
    def unmatched(hits, other):
        left = Counter(json.dumps(h, sort_keys=True) for h in hits)
        left -= Counter(json.dumps(h, sort_keys=True) for h in other)
        return Counter((json.loads(h)["entry"], json.loads(h)["variant"])
                       for h in left.elements())

    gone, came = unmatched(old, new), unmatched(new, old)
    changed = sum((gone & came).values())
    return (f"{sum(came.values()) - changed} hits added, "
            f"{sum(gone.values()) - changed} removed, {changed} changed")


def _set_changes(old: list, new: list) -> str:
    return (f"{len(set(new) - set(old))} added, "
            f"{len(set(old) - set(new))} removed")


def diff_summary(old: dict, new: dict) -> str:
    """A per-section summary of how ``new`` differs from ``old``."""
    lines = [f"identify {q}: {_hit_changes(old['identify'][q], hits)}"
             for q, hits in sorted(new["identify"].items())]
    lines.append("cull survivors: " + _set_changes(old["cull_survivors"],
                                                   new["cull_survivors"]))
    lines.append("closure survivors: " + _set_changes(
        old["closure"]["survivors"], new["closure"]["survivors"]))
    pairs = [(w, new["closure"]["witnesses"].get(k))
             for k, w in old["closure"]["witnesses"].items()]
    variant = sum(bool(o and w) and o[0] != w[0] for o, w in pairs)
    text = sum(bool(o and w) and o[0] == w[0] and o[1] != w[1]
               for o, w in pairs)
    lost = sum((o is None) != (w is None) for o, w in pairs)
    lines.append(f"closure witnesses: {variant} of {len(pairs)} changed"
                 f" variant, {text} changed substitution text only,"
                 f" {lost} found or lost")
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        print(diff_summary(json.loads(GOLDEN.read_text(encoding="utf-8")),
                           json.loads(build_corpus())))
    elif sys.argv[1:] == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(build_corpus(), encoding="utf-8")
    else:
        sys.exit("usage: test_golden_matcher.py --diff | --write")
