"""Closed-form 3F2(1) database: typed entries, numeric verification, (de)serialization.

An entry states ``3F2(lhs; 1) = rhs`` where the left side is a
:class:`~hyp321.series.ParamSet` affine in the entry's symbols and the right
side is a closed-form :class:`~hyp321.expr.Expr` tree.  Entries whose natural
parameters are nonlinear functions of the base symbols carry *derived*
symbols: extra continuous names defined by an expression in the base symbols,
so the parameter lists stay affine.

Verification, and the ``identify`` spot check on each hit built as an entry
in the query's symbols, compare the direct-summation oracle against the
evaluated closed form (:meth:`DbEntry.checks`) at points from
:meth:`DbEntry.draw`, the one sampler of an entry's convergent domain, which
the ``cull`` witness check shares.
"""

from __future__ import annotations

import json
import math
import operator
import random
import re
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .contiguous import family_params, watson_element, x_to_w
from .entries import RAW_ENTRIES
from .errors import (AnchorPole, DivergentSeries, Hyp321Error,
                     InsufficientSamples, LowerPole, NoConvergence,
                     NonFiniteParameter, NonIntegerSumBound, ParseError,
                     PoleError, SchemaVersionMismatch, ShapeError,
                     SingularRecursionPath, UnknownEntry)
from .expr import (Expr, LinExpr, Mul, Symbol, eval_expr, expr_from_json,
                   expr_to_json, free_symbols, lin_from_json, lin_to_json,
                   sym, substitute)
from .parser import parse_expr, parse_linexpr, parse_param_list
from .series import (ParamSet, check_tol, excess, is_terminating,
                     sample_continuous, series_pfq)

SCHEMA = "hyp321/1"

DEFAULT_REL_TOL = 1e-7

#: statuses an entry may carry; "flagged" entries are retained, never dropped
STATUSES = ("verified", "conjecture", "flagged")


@dataclass(frozen=True)
class DbEntry:
    """One closed-form evaluation ``3F2(lhs; 1) = rhs``."""

    id: str
    lhs: ParamSet
    rhs: Expr
    #: integer symbols with their sampling constraints, e.g. ("n>=1", "n<m")
    int_symbols: tuple[tuple[Symbol, tuple[str, ...]], ...]
    #: derived continuous symbols in dependency order: (symbol, definition)
    derived: tuple[tuple[Symbol, Expr], ...]
    #: parametric excess of ``lhs`` (redundant; checked on load)
    excess: LinExpr
    provenance: str
    status: str = "verified"
    rel_tol: float = DEFAULT_REL_TOL

    def base_continuous(self) -> tuple[Symbol, ...]:
        """Continuous symbols that are sampled directly (not derived)."""
        return self._base_continuous

    @cached_property
    def _base_continuous(self) -> tuple[Symbol, ...]:
        derived_names = {s for s, _ in self.derived}
        return tuple(sorted(
            (s for s in _symbols(self.lhs, self.rhs, self.derived)
             if s.kind == "continuous" and s not in derived_names),
            key=lambda s: s.name))

    def assignment_with_derived(
            self, base: Mapping[Symbol, complex]) -> dict[Symbol, complex]:
        full = dict(base)
        for s, d in self.derived:
            full[s] = eval_expr(d, full)
        return full

    @cached_property
    def int_ranges(self) -> dict[Symbol, tuple[int, int]]:
        """The sampling range of each integer symbol, in ``int_symbols``
        order: from the least k >= 0 that every constraint naming the symbol
        alone allows, to max(4, k + 3)."""
        return {s: _int_range(cs, s) for s, cs in self.int_symbols}

    @cached_property
    def int_grid(self) -> tuple[dict[Symbol, int], ...]:
        """The legal integer assignments within ``int_ranges``, in product
        order."""
        ranges = [range(lo, hi + 1) for lo, hi in self.int_ranges.values()]
        grid = (dict(zip(self.int_ranges, combo)) for combo in product(*ranges))
        return tuple(g for g in grid if self.ints_hold(g))

    def ints_hold(self, values: Mapping[Symbol, complex],
                  skip_unbound: bool = False) -> bool:
        """True when every integer-symbol constraint holds at ``values``.

        A constraint that cannot be evaluated (it names a symbol missing from
        ``values``) raises, or is skipped when ``skip_unbound`` is set.
        """
        values = {sym(s.name): v for s, v in values.items()}  # by name
        for _, constraints in self.int_symbols:
            for text in constraints:
                try:
                    if not parse_constraint(text).holds(values):
                        return False
                except Hyp321Error:
                    if not skip_unbound:
                        raise
        return True

    def draw(self, rng) -> dict[Symbol, complex] | str:
        """A point of the entry's convergent domain: the continuous symbols
        from the sampling box, a point of ``int_grid``, the derived symbols,
        and a divergent excess moved to a drawn target along one continuous
        symbol; or the refusing gate, "constraints" (no grid) or "excess".
        The sampler of all three numeric checks: ``checks`` (verification,
        the spot check) and the witness."""
        if not self.int_grid:
            return "constraints"
        base = {s: sample_continuous(rng) for s in self.base_continuous()}
        base |= rng.choice(self.int_grid)
        full = self.assignment_with_derived(base)
        if converges_at(self.lhs, self.excess, full):
            return full

        def excess_at(point: Mapping[Symbol, complex]) -> float:
            return self.excess.eval(self.assignment_with_derived(point)).real

        target = 0.45 + 0.4 * rng.random()
        for s in self.base_continuous():
            fixed = _newton_shift(excess_at, dict(base), s, target)
            if fixed is not None:
                # _newton_shift evaluated this point's excess without error
                # and found it within 0.02 of target >= 0.45: it converges
                return self.assignment_with_derived(fixed)
        return "excess"

    def checks(self, seed: int, tries: int, series_tol: float) -> Iterator:
        """``sample_checks`` of the oracle against the closed form, at up to
        ``tries`` draws from the rng of ``id`` and ``seed``."""
        return sample_checks(
            entry_rng(self.id, seed), tries, self.draw,
            lambda full: series_pfq(self.lhs, full, rel_tol=series_tol).value,
            lambda full: eval_expr(self.rhs, full, watson=watson_element))


@dataclass(frozen=True)
class SampleRecord:
    assignment: tuple[tuple[str, complex], ...]
    lhs: complex
    rhs: complex
    rel_err: float


@dataclass(frozen=True)
class VerificationReport:
    entry_id: str
    passed: bool
    samples: tuple[SampleRecord, ...]

    @property
    def max_rel_err(self) -> float:
        return max((s.rel_err for s in self.samples), default=float("nan"))


def _symbols(lhs: ParamSet, rhs: Expr,
             derived: Sequence[tuple[Symbol, Expr]]) -> frozenset[Symbol]:
    """The free symbols of an entry's lhs, rhs and derived definitions."""
    return lhs.free_symbols().union(free_symbols(rhs),
                                    *(free_symbols(d) for _, d in derived))


# ---------------------------------------------------------------------------
# Building the seeded database
# ---------------------------------------------------------------------------

def _build_entry(raw: dict, memo: Optional[dict] = None) -> DbEntry:
    """The entry of a ``RAW_ENTRIES`` row; ``memo`` shares call subtrees
    between the rows of one build (``parser.parse_expr``)."""
    upper = parse_param_list(raw["upper"], memo)
    lower = parse_param_list(raw["lower"], memo)
    lhs = ParamSet(upper, lower)
    rhs = parse_expr(raw["rhs"], memo)
    derived = tuple((sym(name), parse_expr(d, memo))
                    for name, d in raw.get("derived", []))
    ints = raw.get("ints", {})
    int_symbols = tuple(
        (s, tuple(ints.get(s.name, (f"{s.name}>=1",))))
        for s in sorted((x for x in _symbols(lhs, rhs, derived)
                         if x.kind == "integer"), key=lambda x: x.name))
    return DbEntry(
        id=raw["id"],
        lhs=lhs,
        rhs=rhs,
        int_symbols=int_symbols,
        derived=derived,
        excess=excess(lhs),
        provenance=raw.get("prov", ""),
        status=raw.get("status", "verified"),
    )


def _contiguous_transplants(by_id: dict[str, DbEntry]) -> list[DbEntry]:
    """Dixon-family elements obtained by transplanting Watson closed forms.

    The Dixon element X_{m,n} is the Watson element W_{m,n} at the arguments
    of ``contiguous.x_to_w`` times its gamma quotient; applying that map to
    the closed forms of B.47 (offsets (1,0)) and B.43 (offsets (0,-1))
    yields two further members of the Dixon lattice.
    """
    a, b, c = sym("a"), sym("b"), sym("c")
    A, B, C = LinExpr.of(a), LinExpr.of(b), LinExpr.of(c)
    out = []
    for new_id, base_id, m, n, prov in (
            ("EXT.X10", "B.47", 1, 0,
             "Prudnikov 7.4.4.22 : T1, transplanted to the Dixon "
             "lattice (m=1, n=0)"),
            ("EXT.X0M1", "B.43", 0, -1,
             "Prudnikov 7.4.4.20 : T1, transplanted to the Dixon "
             "lattice (m=0, n=-1)")):
        args, pref = x_to_w(A, B, C, m, n)
        lhs = ParamSet(*family_params("dixon", A, B, C, m, n))
        rhs = Mul((pref, substitute(by_id[base_id].rhs,
                                    {a: args[0], b: args[1], c: args[2]})))
        out.append(DbEntry(id=new_id, lhs=lhs, rhs=rhs, int_symbols=(),
                           derived=(), excess=excess(lhs), provenance=prov))
    return out


_SEED_CACHE: Optional[tuple[DbEntry, ...]] = None


def seed_db() -> list[DbEntry]:
    """The built-in database (parsed once, then cached)."""
    global _SEED_CACHE
    if _SEED_CACHE is None:
        memo: dict = {}  # this build's, dropped with it
        entries = [_build_entry(raw, memo) for raw in RAW_ENTRIES]
        by_id = {e.id: e for e in entries}
        entries.extend(_contiguous_transplants(by_id))
        _SEED_CACHE = tuple(entries)
    return list(_SEED_CACHE)


def get_entry(entries: Sequence[DbEntry], entry_id: str) -> DbEntry:
    for e in entries:
        if e.id == entry_id:
            return e
    raise UnknownEntry(entry_id)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

_REL_RE = re.compile(r"(<=|>=|<|>)")

#: errors of one numeric draw that discard the draw instead of failing
RECOVERABLE = (PoleError, AnchorPole, SingularRecursionPath, DivergentSeries,
               LowerPole, NoConvergence, NonFiniteParameter,
               NonIntegerSumBound, OverflowError, ZeroDivisionError)

_COMPARE = {"<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Constraint:
    """A parsed integer-symbol constraint ``lhs op rhs``, e.g. ``n >= 1``."""

    lhs: LinExpr
    op: str
    rhs: LinExpr

    def holds(self, assignment: Mapping[Symbol, complex]) -> bool:
        """Compare the real parts; raises UnboundSymbol for a missing symbol."""
        return _COMPARE[self.op](self.lhs.eval(assignment).real,
                                 self.rhs.eval(assignment).real)


@lru_cache(maxsize=256)
def parse_constraint(text: str) -> Constraint:
    """Parse a constraint string once; raises ParseError when malformed."""
    parts = _REL_RE.split(text)
    if len(parts) != 3:
        raise ParseError(f"bad constraint {text!r}")
    return Constraint(parse_linexpr(parts[0]), parts[1],
                      parse_linexpr(parts[2]))


def _int_range(constraints: Sequence[str], s: Symbol) -> tuple[int, int]:
    """``DbEntry.int_ranges``' rule for one integer symbol, named by name."""
    s, lo = sym(s.name), 0
    for c in map(parse_constraint, constraints):
        d = c.lhs - c.rhs
        if d.free_symbols() == {s}:
            k = math.ceil(-d.const / d.coeff(s))  # at or above the boundary
            if c.holds({s: k + 1}):  # a lower bound
                lo = max(lo, k if c.holds({s: k}) else k + 1)
    return lo, max(4, lo + 3)


def converges_at(p: ParamSet, exc: LinExpr, full: Mapping) -> bool:
    """The convergence gate: ``p`` terminates, or Re(``exc``) > 0.3, where
    the caller passes ``exc = excess(p)`` to compute it once per check."""
    return is_terminating(p, full) or exc.eval(full).real > 0.3


def _newton_shift(excess_at: Callable, base: dict[Symbol, complex],
                  s: Symbol, target: float) -> Optional[dict[Symbol, complex]]:
    """Move one continuous symbol until ``excess_at`` hits ``target``."""
    h = 1e-5
    for _ in range(14):
        try:
            cur = excess_at(base)
        except RECOVERABLE:
            return None
        if abs(cur - target) < 0.02:
            return base
        bumped = dict(base)
        bumped[s] = base[s] + h
        try:
            grad = (excess_at(bumped) - cur) / h
        except RECOVERABLE:
            return None
        if abs(grad) < 1e-9:
            return None
        nxt = base[s] + (target - cur) / grad
        if abs(nxt) > 60 or nxt != nxt:
            return None
        base[s] = nxt
    return None


def entry_rng(key: str, seed: int):
    """The rng of every numeric check: seeded by ``seed`` and ``key``."""
    return random.Random((seed << 32) ^ zlib.crc32(key.encode()))


def sample_checks(rng, tries: int, draw: Callable, lhs: Callable,
                  rhs: Callable) -> Iterator:
    """Yield one outcome per draw: a comparison or why none was made.

    ``draw(rng)`` returns a full assignment, or the name of the gate that
    refused the draw, e.g. "excess".  The outcome is a :class:`SampleRecord`
    of ``lhs`` against ``rhs`` (equal when both are below 1e-14), that gate
    name, or the class name of a ``RECOVERABLE`` error.
    """
    for _ in range(tries):
        try:
            full = draw(rng)
            if isinstance(full, str):
                yield full
                continue
            lv, rv = lhs(full), rhs(full)
        except RECOVERABLE as exc:
            yield type(exc).__name__
            continue
        tiny = abs(lv) < 1e-14 and abs(rv) < 1e-14
        err = 0.0 if tiny else abs(lv - rv) / max(abs(lv), abs(rv), 1e-300)
        yield SampleRecord(tuple(sorted((s.name, full[s]) for s in full)),
                           lv, rv, err)


def verify_entry(entry: DbEntry, trials: int = 5, seed: int = 0,
                 rel_tol: Optional[float] = None) -> VerificationReport:
    """Check an entry numerically at ``trials`` (at least 3) random points.

    The points are the entry's own draws, where the oracle is compared with
    the closed form (:meth:`DbEntry.checks`).  Draws that ``draw`` refuses,
    or where either side hits a pole or the series cannot be summed, are
    discarded and redrawn; fewer than three comparisons raise
    :class:`InsufficientSamples`, naming the discards.  Fewer than 3 trials,
    or a tolerance (``rel_tol``, else the entry's) that is not finite and
    positive, raise :class:`ShapeError`.
    """
    if trials < 3:
        raise ShapeError(f"verify needs at least 3 trials, got {trials}")
    tol = entry.rel_tol if rel_tol is None else rel_tol
    check_tol(tol)
    series_tol = min(1e-10, tol / 100.0)

    samples, discarded = [], Counter()
    for out in entry.checks(seed, 100 * trials, series_tol):
        if isinstance(out, str):
            discarded[out] += 1
        else:
            samples.append(out)
            if len(samples) == trials:
                break
    if len(samples) < 3:
        reasons = ", ".join(f"{k} {v}" for k, v in discarded.most_common())
        raise InsufficientSamples(
            f"{entry.id}: only {len(samples)} usable samples after "
            f"{len(samples) + discarded.total()} draws "
            f"(discarded: {reasons or 'none'})")
    passed = all(s.rel_err < tol for s in samples)
    return VerificationReport(entry.id, passed, tuple(samples))


def verify_all(entries: Sequence[DbEntry], trials: int = 5, seed: int = 0,
               rel_tol: Optional[float] = None
               ) -> dict[str, VerificationReport]:
    return {e.id: verify_entry(e, trials=trials, seed=seed, rel_tol=rel_tol)
            for e in entries}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def entry_to_json(e: DbEntry) -> dict:
    return {
        "id": e.id,
        "upper": [lin_to_json(p) for p in e.lhs.upper],
        "lower": [lin_to_json(p) for p in e.lhs.lower],
        "rhs": expr_to_json(e.rhs),
        "int_symbols": [[s.name, list(cs)] for s, cs in e.int_symbols],
        "derived": [[s.name, expr_to_json(d)] for s, d in e.derived],
        "excess": lin_to_json(e.excess),
        "provenance": e.provenance,
        "status": e.status,
        "rel_tol": repr(e.rel_tol),
    }


def entry_from_json(d: Mapping) -> DbEntry:
    try:
        lhs = ParamSet(tuple(lin_from_json(p) for p in d["upper"]),
                       tuple(lin_from_json(p) for p in d["lower"]))
        rhs = expr_from_json(d["rhs"])
        int_symbols = tuple((sym(name), tuple(cs))
                            for name, cs in d.get("int_symbols", []))
        derived = tuple((sym(name), expr_from_json(j))
                        for name, j in d.get("derived", []))
        stored_excess = lin_from_json(d["excess"])
        status = d.get("status", "verified")
        rel_tol = float(d.get("rel_tol", repr(DEFAULT_REL_TOL)))
        entry_id = d["id"]
        provenance = d.get("provenance", "")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed database entry: {exc}") from None
    if status not in STATUSES:
        raise ParseError(f"{entry_id}: unknown status {status!r}")
    if stored_excess != excess(lhs):
        raise ParseError(
            f"{entry_id}: stored excess {stored_excess} does not match "
            f"the parameter lists (expected {excess(lhs)})")
    ints = {s for s in _symbols(lhs, rhs, derived) if s.kind == "integer"}
    declared = sorted(s.name for s, _ in int_symbols)
    used = sorted(s.name for s in ints)
    if declared != used:
        raise ParseError(f"{entry_id}: declares the integer symbols "
                         f"{declared}, but uses {used}")
    try:
        check_tol(rel_tol)
        for text in (t for _, cs in int_symbols for t in cs):
            c = parse_constraint(text)
            if not c.lhs.free_symbols() | c.rhs.free_symbols() <= ints:
                raise ParseError(f"constraint {text!r} names a symbol that "
                                 f"is not an integer symbol")
    except (ShapeError, ParseError, TypeError) as exc:
        raise ParseError(f"{entry_id}: {exc}") from None
    return DbEntry(id=entry_id, lhs=lhs, rhs=rhs, int_symbols=int_symbols,
                   derived=derived, excess=stored_excess,
                   provenance=provenance, status=status, rel_tol=rel_tol)


def db_to_json(entries: Sequence[DbEntry]) -> dict:
    return {"schema": SCHEMA, "entries": [entry_to_json(e) for e in entries]}


def db_from_json(doc: Mapping) -> list[DbEntry]:
    if not isinstance(doc, Mapping) or doc.get("schema") != SCHEMA:
        raise SchemaVersionMismatch(
            f"expected schema {SCHEMA!r}, got {doc.get('schema')!r}"
            if isinstance(doc, Mapping) else "document is not an object")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ParseError("a database file needs an 'entries' list")
    out = [entry_from_json(d) for d in entries]
    repeated = sorted(k for k, v in Counter(e.id for e in out).items() if v > 1)
    if repeated:
        raise ParseError(f"duplicate entry ids: {', '.join(repeated)}")
    return out


def dumps_db(entries: Sequence[DbEntry]) -> str:
    """Byte-deterministic text form of the database."""
    return json.dumps(db_to_json(entries), sort_keys=True, indent=1,
                      ensure_ascii=False) + "\n"


def save_db(entries: Sequence[DbEntry], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_db(entries))


def load_db(path: str) -> list[DbEntry]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not a UTF-8 JSON file: {exc}") from None
    return db_from_json(doc)
