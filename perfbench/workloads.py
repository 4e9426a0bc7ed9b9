"""The three workloads: seeded inputs, one timed operation, output checks.

Each workload splits its inputs into *units* of operations.  ``run.py``
runs every operation in a fresh fork of a process that has imported
hyp321 and called nothing, so each one starts with the library's caches
empty, as a CLI invocation does; it runs every unit once and then the units
again in turn until the time is up.  ``op`` runs inside that fork and times
only the library calls; ``check`` runs afterwards in the parent and
compares the outputs with references computed there, once per distinct
operation, so ``attempted`` and ``failed`` depend only on the seed.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections import Counter, defaultdict

import inputs as I
import stats
from hyp321 import contiguous, database, matcher, series
from hyp321.contiguous import ContigQuery
from hyp321.errors import (Hyp321Error, InsufficientSamples,
                           NoConvergentCheck)
from hyp321.expr import eval_expr

clock = time.perf_counter

#: relative agreement a closed form must reach against its reference
HIT_REL_TOL = 1e-6

#: rel_tol of every sum_series_numeric call (the CLI ``eval`` default)
EVAL_REL_TOL = 1e-10

#: rel_tol of every element call (the CLI ``watson|dixon|whipple`` default)
ELEMENT_REL_TOL = 1e-7

_SCALE = {"ms": 1e3, "us": 1e6}


def _latency(seconds: list[float], unit: str = "ms") -> dict:
    """Sample count, median and the tail percentile with ten samples
    beyond it (none below 40 samples)."""
    out = {"n": len(seconds)}
    if seconds:
        out[f"p50_{unit}"] = statistics.median(seconds) * _SCALE[unit]
        tail = stats.tail_percentile(len(seconds))
        if tail is not None:
            out[f"p{tail:g}_{unit}"] = \
                stats.percentile(seconds, tail) * _SCALE[unit]
    return out


def _distinct(plain, traced, outputs, res: "Outcome") -> dict:
    """The first result of each operation, by key in run order.

    An operation runs more than once when the units repeat and when the run
    is traced; every run of it must give the same ``outputs(result)``, or
    the difference goes into ``res.errors``.
    """
    first, seen = {}, {}
    for key, r in plain + traced:
        out = repr(outputs(r))  # repr: a NaN equals itself
        if key not in first:
            first[key], seen[key] = r, out
        elif seen[key] != out and seen[key] is not None:
            seen[key] = None  # reported once
            res.errors.append(f"operation {key}: outputs differ between runs")
    return first


class Outcome:
    """Check tallies of one run.

    ``failed`` counts wrong outputs (a missed planted entry, a closed form
    or value that disagrees with its reference, a planted image that
    survives culling).  ``errors`` lists what makes the run incorrect: an
    untyped exception from the library or outputs that differ between two
    runs of the same input.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.report: dict = {}

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


# ---------------------------------------------------------------------------

class IdentifyStream:
    """Seeded identify(seed_db(), q) calls: planted numeric, planted
    symbolic and random rational queries in equal shares."""

    name = "identify_stream"

    def generate(self, seed: int, seconds: float):
        # a round of three queries takes about 7-10 s today, and every
        # round runs at least once
        rounds = max(2, math.ceil(seconds / 10.0))
        return I.identify_queries(random.Random(seed), rounds)

    def units(self, inputs):
        return [[(r, k) for k in range(len(rnd))]
                for r, rnd in enumerate(inputs)]

    def op(self, inputs, key, tracer):
        q = inputs[key[0]][key[1]]
        if tracer is not None:
            tracer.query = f"{q.kind}-{key[0]}"
        db = database.seed_db()
        error = None
        t0 = clock()
        try:
            hits = matcher.identify(db, q.params)
        except Exception as exc:  # a failed query, not a failed run
            hits, error = [], (isinstance(exc, Hyp321Error),
                               f"{type(exc).__name__}: {exc}")
        elapsed = clock() - t0
        if tracer is not None:
            tracer.uninstall()
        point = dict(q.point)
        out = []
        for h in hits:
            value = None
            if not h.derived:
                try:
                    value = eval_expr(h.instantiated_rhs, point,
                                      watson=contiguous.watson_element)
                except Hyp321Error as exc:
                    value = type(exc).__name__
            out.append((h.entry_id, h.variant.name, value))
        return {"op_s": elapsed, "kind": q.kind, "hits": out,
                "error": error}

    def check(self, inputs, plain, traced) -> Outcome:
        res = Outcome()
        times = defaultdict(list)
        planted = found = checked = wrong = unchecked = 0
        ref_sources = Counter()
        for key, r in plain:
            times[inputs[key[0]][key[1]].kind].append(r["op_s"])
        first = _distinct(plain, traced,
                          lambda r: (r["hits"], r["error"]), res)
        for key, r in first.items():
            q = inputs[key[0]][key[1]]
            needed = any(v is not None for _, _, v in r["hits"])
            ref, source = I.reference(q.upper, q.lower) if needed \
                else (None, "not needed")
            ref_sources[source] += 1
            ok = r["error"] is None
            if r["error"] is not None and not r["error"][0]:
                res.errors.append(f"identify {key}: {r['error'][1]}")
            if q.source is not None:
                planted += 1
                hit = any(eid == q.source for eid, _, _ in r["hits"])
                found += hit
                ok = ok and hit
            for _, _, value in r["hits"]:
                if value is None:
                    continue
                if ref is None or isinstance(value, str):
                    unchecked += 1
                    continue
                checked += 1
                if I.rel_err(value, ref) > HIT_REL_TOL:
                    wrong += 1
                    ok = False
            res.count(ok)
        total = sum(sum(v) for v in times.values())
        rep = {f"identify_{kind}": _latency(v)
               for kind, v in sorted(times.items())}
        rep["identify_qps"] = sum(len(v) for v in times.values()) / total
        rep["identify_fail_share"] = res.failed / res.attempted
        rep["planted_recall"] = f"{found}/{planted}"
        rep["derived_free_hits_checked"] = checked
        rep["derived_free_hits_wrong"] = wrong
        rep["derived_free_hits_unchecked"] = unchecked
        rep["query_references"] = dict(ref_sources)
        res.report = rep
        return res


# ---------------------------------------------------------------------------

class CullPool:
    """cull() of pools that split the seed database, each with planted
    Thomae images that verify."""

    name = "cull_pool"
    pool_size = 6
    planted_per_pool = 2

    def generate(self, seed: int, seconds: float):
        return I.cull_pools(random.Random(seed), self.pool_size,
                            self.planted_per_pool)

    def units(self, inputs):
        """One unit, a pass over the split of the database (about 35 s
        today): a run that repeats it culls every pool equally often."""
        return [list(range(len(inputs)))]

    def op(self, inputs, key, tracer):
        pool, _ = inputs[key]
        if tracer is not None:
            tracer.query = f"pool-{key}"
        error = None
        t0 = clock()
        try:
            kept = matcher.cull(pool)
        except Exception as exc:  # a failed cull, not a failed run
            kept, error = list(pool), f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        return {"op_s": elapsed, "kept": [e.id for e in kept], "error": error}

    def check(self, inputs, plain, traced) -> Outcome:
        res = Outcome()
        first = _distinct(plain, traced, lambda r: (r["kept"], r["error"]),
                          res)
        survivors = {}
        for key, r in first.items():
            _, planted = inputs[key]
            if r["error"] is not None:
                res.errors.append(f"cull pool-{key}: {r['error']}")
            survivors[key] = r["kept"]
            for pid in planted:
                res.count(pid not in r["kept"])
        times = [r["op_s"] for _, r in plain]
        n_planted = sum(len(inputs[k][1]) for k in survivors)
        stray = sorted(pid for k in survivors for pid in inputs[k][1]
                       if pid in survivors[k])
        res.report = {
            "cull": _latency(times),
            "cull_s": statistics.median(times),
            "cull_fail_share": len(stray) / n_planted,
            "planted_removed": f"{n_planted - len(stray)}/{n_planted}",
            "planted_survivors": stray,
            "survivors": {f"pool-{k}": v for k, v in sorted(survivors.items())},
        }
        return res


# ---------------------------------------------------------------------------

def _input_key(up, lo) -> tuple:
    return tuple(up), tuple(lo)


class NumericMix:
    """sum_series_numeric over five regimes in fixed shares, Watson/Dixon/
    Whipple elements with CLI cross-checks, one verify_all sweep per round;
    no matcher calls.

    Every round draws fresh inputs, so the mean round of a run averages
    over many inputs; the two known hard inputs are in every round.  A run
    makes ``rounds`` distinct rounds and repeats them while time is left.
    The counts put evals, elements and verify_all at roughly a third of a
    round each, so a change in any of them moves the round time; the
    three cheap regimes (about 0.3 ms a call) stay a few per cent of it.
    """

    name = "numeric_mix"
    #: eval inputs per round, the fixed hard inputs included
    per_regime = {"generic": 30, "small_excess": 30, "terminating": 30,
                  "large": 2, "complex": 10}
    per_family = 100
    #: distinct rounds per run: about 25 s today, so a 40-s run repeats
    #: the first rounds; a slower program still makes every one of them
    rounds = 24
    #: distinct inputs per regime and run that get a reference: mpmath
    #: takes 0.5-2.5 s on the first three regimes and under 1 s on large
    #: parameters; terminating sums are exact and all checked
    ref_quota = {"generic": 1, "small_excess": 1, "complex": 1, "large": 4}
    #: elements per family and run that get an mpmath reference of their
    #: series (the first with excess >= 0.5)
    element_refs = 1

    def generate(self, seed: int, seconds: float):
        rng = random.Random(seed)
        rounds = []
        for k in range(self.rounds):
            evals = []
            for regime in I.EVAL_REGIMES:
                fixed = [(r, u, l) for r, u, l in I.FIXED_EVAL_INPUTS
                         if r == regime]
                evals += fixed
                evals += [(regime, *I.eval_input(regime, rng))
                          for _ in range(self.per_regime[regime] - len(fixed))]
            elements = [I.element_input(f, rng) for f in I.FAMILIES
                        for _ in range(self.per_family)]
            rounds.append({"evals": evals, "elements": elements,
                           "verify_seed": seed * 1000 + k})
        return rounds

    def units(self, inputs):
        return [[k] for k in range(len(inputs))]

    def op(self, inputs, key, tracer):
        rnd = inputs[key]
        if tracer is not None:
            tracer.query = f"round-{key}"
        db = database.seed_db()
        fns = {"watson": contiguous.watson_element,
               "dixon": contiguous.dixon_element,
               "whipple": contiguous.whipple_element}
        eval_out = []
        for _, up, lo in rnd["evals"]:
            up = [complex(u) for u in up]
            lo = [complex(l) for l in lo]
            t0 = clock()
            try:
                r = series.sum_series_numeric(up, lo, rel_tol=EVAL_REL_TOL)
                got = (r.value, r.abs_error_estimate)
            except Hyp321Error as exc:
                got = ("typed", type(exc).__name__)
            except Exception as exc:  # an untyped failure is a result
                got = ("untyped", type(exc).__name__)
            eval_out.append((clock() - t0, got))
        elem_out = []
        for family, a, b, c, m, n in rnd["elements"]:
            t0 = clock()
            try:
                got = ("value", fns[family](a, b, c, m, n,
                                            rel_tol=ELEMENT_REL_TOL))
            except NoConvergentCheck as exc:
                got = ("refused", "NoConvergentCheck", exc.value)
            except Hyp321Error as exc:
                # the cross-check raises the base class when the element
                # disagrees with its direct series: a wrong value, as the
                # CLI reports it; subclasses are typed refusals
                got = ("mismatch", str(exc)) if type(exc) is Hyp321Error \
                    else ("refused", type(exc).__name__)
            except Exception as exc:
                got = ("untyped", type(exc).__name__)
            elem_out.append((clock() - t0, got))
        t0 = clock()
        try:
            reports = database.verify_all(db, trials=5,
                                          seed=rnd["verify_seed"])
            verify = {k: v.passed for k, v in reports.items()}
        except InsufficientSamples as exc:
            verify = {"InsufficientSamples": str(exc)}
        verify_s = clock() - t0
        total = (sum(t for t, _ in eval_out)
                 + sum(t for t, _ in elem_out) + verify_s)
        return {"op_s": total, "evals": eval_out, "elements": elem_out,
                "verify": verify, "verify_s": verify_s}

    def _eval_refs(self, inputs, keys) -> dict:
        """References for the eval inputs of the rounds that ran, keyed by
        input; the known hard inputs recur in every round."""
        refs = {}
        used = Counter()
        for k in keys:
            for regime, up, lo in inputs[k]["evals"]:
                key = _input_key(up, lo)
                if key in refs or used[regime] >= self.ref_quota.get(
                        regime, len(keys) * self.per_regime[regime]):
                    continue
                used[regime] += 1
                refs[key] = I.reference(up, lo)
        return refs

    def _element_refs(self, inputs, keys) -> dict:
        refs = {}
        used = Counter()
        for k in keys:
            for i, (family, a, b, c, m, n) in enumerate(inputs[k]["elements"]):
                if used[family] == self.element_refs:
                    continue
                up, lo = ContigQuery(family, a, b, c, m, n).series_params()
                if (sum(lo) - sum(up)) >= I.MPMATH_MIN_EXCESS:
                    used[family] += 1
                    ref, _ = I.reference(up, lo)
                    if ref is not None:
                        refs[(k, i)] = ref
        return refs

    def check(self, inputs, plain, traced) -> Outcome:
        res = Outcome()
        first = _distinct(plain, traced, lambda r: (
            [got for _, got in r["evals"]],
            [got for _, got in r["elements"]], r["verify"]), res)
        keys = sorted(first)
        refs = self._eval_refs(inputs, keys)
        elem_refs = self._element_refs(inputs, keys)
        eval_t, elem_t, verify_t = [], [], []
        for _, r in plain:
            eval_t += [t for t, _ in r["evals"]]
            elem_t += [t for t, _ in r["elements"]]
            verify_t.append(r["verify_s"])
        eval_fail = Counter()
        with_ref = no_ref = 0
        refusals, mismatches = Counter(), Counter()
        elem_fail = elem_checked = verify_fail = verified = 0
        for k, r in first.items():
            for i, (_, got) in enumerate(r["evals"]):
                regime, up, lo = inputs[k]["evals"][i]
                ref, _ = refs.get(_input_key(up, lo), (None, "not computed"))
                if got[0] == "untyped":
                    res.errors.append(f"eval round {k} input {i}: {got[1]}")
                if ref is None:
                    no_ref += 1
                    ok = got[0] != "untyped"
                else:
                    with_ref += 1
                    if isinstance(got[0], str):
                        ok = False  # raised where a reference exists
                    else:
                        err = abs(got[0] - ref)
                        ok = err <= EVAL_REL_TOL * abs(ref) or err <= got[1]
                if not ok:
                    eval_fail[regime] += 1
                res.count(ok)
            for i, (_, got) in enumerate(r["elements"]):
                if got[0] == "untyped":
                    res.errors.append(f"element round {k} input {i}: {got[1]}")
                ok = got[0] in ("value", "refused")
                if got[0] == "refused":
                    refusals[got[1]] += 1
                if got[0] == "mismatch":
                    mismatches[inputs[k]["elements"][i][0]] += 1
                value = got[1] if got[0] == "value" else \
                    got[2] if got[1] == "NoConvergentCheck" else None
                if ok and value is not None and (k, i) in elem_refs:
                    ref = elem_refs[(k, i)]
                    ok = abs(value - ref) <= ELEMENT_REL_TOL * max(1.0, abs(ref))
                elem_fail += not ok
                elem_checked += 1
                res.count(ok)
            if "InsufficientSamples" in r["verify"]:
                verified += 1
                verify_fail += 1
                res.count(False)
            else:
                for passed in r["verify"].values():
                    verified += 1
                    verify_fail += not passed
                    res.count(passed)
        n_eval, n_elem = len(eval_t), len(elem_t)
        split = Counter()
        for k, r in plain:
            for (regime, _, _), (t, _) in zip(inputs[k]["evals"], r["evals"]):
                split[f"eval.{regime}"] += t
            split["elements"] += sum(t for t, _ in r["elements"])
            split["verify_all"] += r["verify_s"]
        round_s = sum(split.values())
        res.report = {
            "round": _latency([r["op_s"] for _, r in plain]),
            "eval": _latency(eval_t, "us"),
            "eval_per_s": n_eval / sum(eval_t),
            "eval_fail_share": sum(eval_fail.values()) / max(with_ref, 1),
            "eval_failures_by_regime": dict(eval_fail),
            "eval_calls_with_reference": with_ref,
            "eval_calls_without_reference": no_ref,
            "eval_reference_sources": dict(Counter(s for _, s in refs.values())),
            "element": _latency(elem_t),
            "element_per_s": n_elem / sum(elem_t),
            "element_fail_share": elem_fail / elem_checked,
            "element_refusals": dict(refusals),
            "element_mismatches_by_family": dict(mismatches),
            "element_mpmath_checked": len(elem_refs),
            "verify_db_s": statistics.median(verify_t),
            "verify_fail_share": verify_fail / verified,
            "round_share": {part: t / round_s
                            for part, t in sorted(split.items())},
        }
        return res


WORKLOADS = {w.name: w for w in (IdentifyStream(), CullPool(), NumericMix())}
