"""Seeded input generators and independent references for the benchmark.

Every generator takes a ``random.Random`` built from the workload seed and
returns plain data (``ParamSet``s, ``DbEntry`` pools, numbers); the library
only ever sees those generated inputs.  References never go through the
library's own numeric code: terminating rational sums are summed exactly in
``Fraction``, everything else is ``mpmath.hyp3f2`` where it converges.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
import signal
from fractions import Fraction
from typing import Iterator, Optional

import mpmath

from hyp321 import expr as E
from hyp321.database import seed_db, verify_entry
from hyp321.errors import Hyp321Error
from hyp321.expr import LinExpr, Symbol
from hyp321.matcher import cull
from hyp321.parser import parse_linexpr
from hyp321.series import ParamSet, excess
from hyp321.thomae import ThomaeVariant, all_variants, apply_variant

#: working precision of the mpmath references (decimal digits); 20 digits
#: cost about 0.6 s per generic 3F2(1), 30 digits about 2 s
REF_DPS = 20

#: mpmath.hyp3f2 at unit argument takes tens of seconds and then fails when
#: the excess is small, so it is only asked where Re(excess) reaches this
MPMATH_MIN_EXCESS = 0.5

#: wall-clock limit of one mpmath reference, a guard against a run that
#: never ends: the slowest reference seen took 2.5 s, and one that stops
#: near the limit would make the checks, and ``failed``, depend on the host
REF_TIMEOUT_S = 30.0

#: denominators of generated rationals; primes keep values off the integers
_DENOMS = (7, 11, 13, 17)

_REL_RE = re.compile(r"(<=|>=|<|>)")


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def exact_terminating_sum(upper, lower) -> Optional[Fraction]:
    """Exact value of a terminating 3F2(1) with rational parameters, or None.

    None when no upper parameter is a non-positive integer or a lower
    parameter vanishes before the sum terminates.
    """
    upper = [Fraction(u) for u in upper]
    lower = [Fraction(l) for l in lower]
    stops = [-u for u in upper if u.denominator == 1 and u <= 0]
    if not stops:
        return None
    n = int(min(stops))
    total = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        total += term
        num = Fraction(1)
        for u in upper:
            num *= u + k
        den = Fraction(k + 1)
        for l in lower:
            den *= l + k
        if den == 0:
            return None if num != 0 else total
        term *= num / den
    return total


def mpmath_3f2(upper, lower) -> Optional[complex]:
    """``mpmath.hyp3f2`` at unit argument, or None where it is not asked.

    Inputs with Re(excess) below ``MPMATH_MIN_EXCESS`` get the Kummer
    relation (the image's excess is the largest upper parameter) when that
    helps; otherwise they have no reference.
    """
    up = [complex(u) for u in upper]
    lo = [complex(l) for l in lower]
    s = sum(lo) - sum(up)
    with mpmath.workdps(REF_DPS):
        if s.real >= MPMATH_MIN_EXCESS:
            return complex(mpmath.hyp3f2(*up, *lo, 1))
        a, b, c = sorted(up, key=lambda z: -z.real)
        if a.real < MPMATH_MIN_EXCESS or s.real <= 0:
            return None
        d, e = lo
        a, b, c, d, e, s = (mpmath.mpmathify(x) for x in (a, b, c, d, e, s))
        pref = (mpmath.gamma(d) * mpmath.gamma(e) * mpmath.gamma(s)
                / (mpmath.gamma(a) * mpmath.gamma(s + b) * mpmath.gamma(s + c)))
        return complex(pref * mpmath.hyp3f2(d - a, e - a, s, s + b, s + c, 1))


class _TimedOut(Exception):
    pass


def _alarm(signum, frame):
    raise _TimedOut


def reference(upper, lower) -> tuple[Optional[complex], str]:
    """(value, source) for a 3F2(1); source is 'exact', 'mpmath', 'none' or
    'timeout' (mpmath gets ``REF_TIMEOUT_S``; a few large-parameter inputs
    would otherwise take tens of seconds)."""
    if all(isinstance(x, (int, Fraction)) for x in list(upper) + list(lower)):
        exact = exact_terminating_sum(upper, lower)
        if exact is not None:
            return complex(exact), "exact"
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, REF_TIMEOUT_S)
    try:
        v = mpmath_3f2(upper, lower)
    except _TimedOut:
        return None, "timeout"
    except (mpmath.libmp.NoConvergence, ZeroDivisionError, ValueError):
        v = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return (v, "mpmath") if v is not None else (None, "none")


def rel_err(value: complex, ref: complex) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# Entry helpers
# ---------------------------------------------------------------------------

def _constraint_holds(text: str, values: dict) -> bool:
    left, op, right = _REL_RE.split(text)
    lv = parse_linexpr(left).eval(values).real
    rv = parse_linexpr(right).eval(values).real
    return {"<": lv < rv, "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv}[op]


def legal_integers(entry, rng) -> Optional[dict]:
    """A draw of the entry's integer symbols from 0..4 meeting its constraints."""
    if not entry.int_symbols:
        return {}
    for _ in range(60):
        values = {s: rng.randint(0, 4) for s, _ in entry.int_symbols}
        if all(_constraint_holds(c, values)
               for _, cons in entry.int_symbols for c in cons):
            return values
    return None


def _rational(rng, lo: int = 1, hi: int = 12) -> Fraction:
    d = rng.choice(_DENOMS)
    return Fraction(rng.randint(lo, hi), d)


def _subs(p: ParamSet, mapping: dict) -> ParamSet:
    return ParamSet(tuple(u.subs(mapping) for u in p.upper),
                    tuple(l.subs(mapping) for l in p.lower))


def _constants(p: ParamSet) -> tuple[list[Fraction], list[Fraction]]:
    return [u.const for u in p.upper], [l.const for l in p.lower]


def _nonpos_int(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def _summable(upper, lower) -> bool:
    """Convergent with excess >= 0.3, or terminating; no lower pole."""
    if any(_nonpos_int(l) for l in lower):
        return False
    return any(_nonpos_int(u) for u in upper) or \
        sum(lower) - sum(upper) >= Fraction(3, 10)


def _identifiable(db) -> list:
    """Verified entries without derived symbols (identify skips conjectures)."""
    return [e for e in db if e.status == "verified" and not e.derived]


# ---------------------------------------------------------------------------
# identify_stream
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Query:
    kind: str                 # "numeric" | "symbolic" | "random"
    params: ParamSet
    source: Optional[str]     # planted entry id, None for random queries
    point: tuple              # ((Symbol, value), ...) for the closed-form check
    upper: tuple              # numeric parameters at ``point``
    lower: tuple


def _planted_numeric(entries: Iterator, rng) -> Query:
    variants = all_variants()
    for entry in entries:
        ints = legal_integers(entry, rng)
        if ints is None:
            continue
        values = {s: LinExpr.of(v) for s, v in ints.items()}
        for s in entry.lhs.free_symbols():
            if s.kind == "continuous":
                values[s] = LinExpr.of(_rational(rng))
        p = _subs(entry.lhs, values)
        if not _summable(*_constants(p)):
            continue
        img, _ = apply_variant(rng.choice(variants), p)
        up, lo = _constants(img)
        return Query("numeric", img, entry.id, (), tuple(up), tuple(lo))


def _random_matrix(n: int, rng) -> list[list[Fraction]]:
    """A random invertible n x n rational matrix: scaled permutation + shear."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = Fraction(rng.choice((1, -1, 2, -2))) / rng.choice((1, 2))
    if n > 1:  # row i += k * row j keeps the determinant
        i, j = rng.sample(range(n), 2)
        k = Fraction(rng.choice((1, -1)), rng.choice((1, 2)))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


def _planted_symbolic(entries: Iterator, rng) -> Query:
    variants = all_variants()
    for entry in entries:
        syms = sorted(entry.lhs.free_symbols(), key=lambda s: s.name)
        cont = [s for s in syms if s.kind == "continuous"]
        ints = [s for s in syms if s.kind == "integer"]
        xs = [Symbol(f"x{i}") for i in range(len(cont))]
        ks = [Symbol(f"k{i}", "integer") for i in range(len(ints))]
        m = _random_matrix(len(cont), rng)
        mapping = {}
        for i, s in enumerate(cont):
            lin = LinExpr.of(Fraction(rng.randint(-2, 2), rng.choice((2, 3))))
            for j, x in enumerate(xs):
                lin = lin + LinExpr.of(x) * m[i][j]
            mapping[s] = lin
        shuffled = ks[:]
        rng.shuffle(shuffled)
        mapping.update({s: LinExpr.of(k) for s, k in zip(ints, shuffled)})
        p = _subs(entry.lhs, mapping)
        img, _ = apply_variant(rng.choice(variants), p)
        point = _query_point(entry, mapping, img, rng)
        if point is None:
            continue
        up, lo = img.eval(dict(point))
        return Query("symbolic", img, entry.id, point, tuple(up), tuple(lo))


def _query_point(entry, mapping, img, rng) -> Optional[tuple]:
    """Query-symbol values where the entry's constraints hold and the
    query's series converges with a usable excess."""
    qsyms = sorted(img.free_symbols(), key=lambda s: s.name)
    for _ in range(200):
        point = {s: (rng.randint(1, 4) if s.kind == "integer"
                     else float(_rational(rng, 1, 14))) for s in qsyms}
        tvals = {s: lin.eval(point).real for s, lin in mapping.items()
                 if s.kind == "integer"}
        if any(v < 0 for v in tvals.values()):
            continue
        if not all(_constraint_holds(c, tvals)
                   for _, cons in entry.int_symbols for c in cons):
            continue
        up, lo = img.eval(point)
        if any(abs(z.imag) < 1e-12 and z.real <= 0
               and abs(z.real - round(z.real)) < 1e-12 for z in lo):
            continue
        if (sum(lo) - sum(up)).real >= MPMATH_MIN_EXCESS:
            return tuple(sorted(point.items(), key=lambda kv: kv[0].name))
    return None


def _random_query(rng) -> Query:
    while True:
        up = [_rational(rng, 1, 25) for _ in range(3)]
        e = _rational(rng, 4, 30)
        s = _rational(rng, 7, 18)
        f = sum(up) - e + s
        if f <= Fraction(1, 5):
            continue
        lo = [e, f]
        if not _summable(up, lo):
            continue
        return Query("random", ParamSet.make(up, lo), None, (),
                     tuple(up), tuple(lo))


def identify_queries(rng, rounds: int) -> list[list[Query]]:
    """``rounds`` rounds of one planted numeric, one planted symbolic and
    one random rational query each.

    Planted queries walk seeded orders of the entries, so one run plants
    from different entries.
    """
    order = _identifiable(seed_db())
    numeric = itertools.cycle(rng.sample(order, len(order)))
    symbolic = itertools.cycle(rng.sample(order, len(order)))
    return [[_planted_numeric(numeric, rng), _planted_symbolic(symbolic, rng),
             _random_query(rng)] for _ in range(rounds)]


# ---------------------------------------------------------------------------
# cull_pool
# ---------------------------------------------------------------------------

#: seed of the split of the database into cull pools.  The split and the
#: parents of the planted images are the same for every workload seed,
#: which chooses only the Thomae variant of each image: a pool's cull cost
#: depends on which entries share it, and a seeded split moved the mean
#: cull time by about 10% from seed to seed
PARTITION_SEED = 0


def cull_pools(rng, pool_size: int,
               n_planted: int) -> list[tuple[list, list[str]]]:
    """The database split into pools of ``pool_size`` entries, each with
    ``n_planted`` planted Thomae images from ``rng`` that verify, as
    [(pool, planted ids)].

    Images are planted only from pool entries that survive culling on
    their own, so that removing the image is always the right answer; the
    k-th image of a pool comes from the k-th such entry.
    """
    db = [e for e in seed_db() if e.status != "flagged"]
    random.Random(PARTITION_SEED).shuffle(db)
    bases = [db[i:i + pool_size]
             for i in range(0, len(db) - pool_size + 1, pool_size)]
    parents = [[e for e in base if cull([e]) == [e]] for base in bases]
    out = []
    for base, heads in zip(bases, parents):
        pool = list(base)
        planted: list[str] = []
        attempts = 0
        while len(planted) < n_planted:
            attempts += 1
            if attempts > 50 * n_planted:
                raise RuntimeError("could not plant enough verified images")
            parent = heads[len(planted) % len(heads)]
            img, pref = apply_variant(ThomaeVariant(rng.randint(1, 9)),
                                      parent.lhs)
            candidate = dataclasses.replace(
                parent, id=f"Z.IMG.{len(out):02d}.{len(planted)}",
                lhs=img, rhs=E.Mul((E.Recip(pref), parent.rhs)),
                excess=excess(img))
            try:
                if not verify_entry(candidate, trials=3, seed=attempts,
                                    rel_tol=1e-6).passed:
                    continue
            except Hyp321Error:
                continue
            pool.append(candidate)
            planted.append(candidate.id)
        out.append((pool, planted))
    return out


# ---------------------------------------------------------------------------
# numeric_mix
# ---------------------------------------------------------------------------

EVAL_REGIMES = ("generic", "small_excess", "terminating", "large", "complex")


def _close_lower(rng, up, s_lo: float, s_hi: float, e_lo: float, e_hi: float):
    """Lower parameters [e, f] giving an excess drawn from [s_lo, s_hi];
    ``e`` is drawn from [e_lo, e_hi] but kept below Re(sum(up)) + s - 0.3,
    so that Re(f) >= 0.3 for every ``up``."""
    s = rng.uniform(s_lo, s_hi)
    cap = sum(up).real + s - 0.3
    e = rng.uniform(min(e_lo, cap), min(e_hi, cap))
    return [e, sum(up) - e + s]


def eval_input(regime: str, rng) -> tuple[list, list]:
    """One sum_series_numeric input from ``regime``."""
    if regime == "generic":
        up = [rng.uniform(0.1, 1.5) for _ in range(3)]
        return up, _close_lower(rng, up, 0.3, 1.5, 0.5, 2.5)
    if regime == "small_excess":
        up = [rng.uniform(0.1, 1.5) for _ in range(3)]
        return up, _close_lower(rng, up, 0.05, 0.3, 0.5, 2.5)
    if regime == "terminating":
        # like 3F2(-40, 20.5, 30.5; 1.5, 2.5): huge terms that cancel
        n = rng.randint(20, 40)
        up = [-n, Fraction(2 * rng.randint(10, 30) + 1, 2),
              Fraction(2 * rng.randint(10, 30) + 1, 2)]
        lo = [Fraction(2 * rng.randint(1, 3) + 1, 2),
              Fraction(2 * rng.randint(1, 3) + 1, 2)]
        return up, lo
    if regime == "large":
        up = [rng.uniform(10, 300) for _ in range(3)]
        return up, _close_lower(rng, up, 0.5, 3.0, 10, 300)
    if regime == "complex":
        up = [complex(rng.uniform(0.1, 1.5), rng.uniform(-0.5, 0.5))
              for _ in range(3)]
        lo = _close_lower(rng, up, 0.5, 1.5, 0.5, 2.5)
        return up, [lo[0] + 1j * rng.uniform(-0.3, 0.3), lo[1]]
    raise ValueError(regime)


#: the known hard inputs every numeric_mix run carries, one per defect
#: regime (exact sum 1.2077e17 / mpmath 6.18e154)
FIXED_EVAL_INPUTS = (
    ("terminating", [-40, Fraction(41, 2), Fraction(61, 2)],
     [Fraction(3, 2), Fraction(5, 2)]),
    ("large", [300, 300, 300], [451, 451]),
)

FAMILIES = ("watson", "dixon", "whipple")


def element_input(family: str, rng) -> tuple:
    """(family, a, b, c, m, n) with |m|, |n| <= 8."""
    a, b, c = (rng.uniform(0.1, 1.5) for _ in range(3))
    return family, a, b, c, rng.randint(-8, 8), rng.randint(-8, 8)

