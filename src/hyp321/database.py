"""Closed-form 3F2(1) database: typed entries, numeric verification, (de)serialization.

An entry states ``3F2(lhs; 1) = rhs`` where the left side is a
:class:`~hyp321.series.ParamSet` affine in the entry's symbols and the right
side is a closed-form :class:`~hyp321.expr.Expr` tree.  Entries whose natural
parameters are nonlinear functions of the base symbols carry *derived*
symbols: extra continuous names defined by an expression in the base symbols,
so the parameter lists stay affine.

Verification samples the free symbols (integers small, continuous ones from a
fixed box), repairs the parametric excess into the convergence region when
possible, and compares the direct-summation oracle against the evaluated
closed form.
"""

from __future__ import annotations

import json
import operator
import re
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence

from .entries import RAW_ENTRIES
from .errors import (DivergentSeries, Hyp321Error, InsufficientSamples,
                     LowerPole, NoConvergence, NonFiniteParameter,
                     NonIntegerSumBound, ParseError, PoleError,
                     SchemaVersionMismatch)
from .expr import (Expr, LinExpr, Mul, Symbol, eval_expr, expr_from_json,
                   expr_to_json, free_symbols, lin_from_json, lin_to_json,
                   sym, substitute)
from .parser import parse_expr, parse_linexpr, parse_param_list
from .series import (ParamSet, excess, is_terminating, sample_continuous,
                     series_pfq)

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
        derived_names = {s for s, _ in self.derived}
        syms = set(self.lhs.free_symbols()) | free_symbols(self.rhs)
        for _, d in self.derived:
            syms |= free_symbols(d)
        return tuple(sorted(
            (s for s in syms
             if s.kind == "continuous" and s not in derived_names),
            key=lambda s: s.name))

    def assignment_with_derived(
            self, base: Mapping[Symbol, complex]) -> dict[Symbol, complex]:
        full = dict(base)
        for s, d in self.derived:
            full[s] = eval_expr(d, full)
        return full


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


# ---------------------------------------------------------------------------
# Building the seeded database
# ---------------------------------------------------------------------------

def _build_entry(raw: dict) -> DbEntry:
    upper = parse_param_list(raw["upper"])
    lower = parse_param_list(raw["lower"])
    lhs = ParamSet(tuple(upper), tuple(lower))
    rhs = raw["rhs"] if isinstance(raw["rhs"], Expr) else parse_expr(raw["rhs"])
    derived = tuple((sym(name), parse_expr(d) if not isinstance(d, Expr) else d)
                    for name, d in raw.get("derived", []))
    syms = set(lhs.free_symbols()) | free_symbols(rhs)
    for _, d in derived:
        syms |= free_symbols(d)
    ints = raw.get("ints", {})
    int_symbols = tuple(
        (s, tuple(ints.get(s.name, (f"{s.name}>=1",))))
        for s in sorted((x for x in syms if x.kind == "integer"),
                        key=lambda x: x.name))
    return DbEntry(
        id=raw["id"],
        lhs=lhs,
        rhs=rhs,
        int_symbols=int_symbols,
        derived=derived,
        excess=excess(lhs),
        provenance=raw.get("prov", ""),
        status=raw.get("status", "verified"),
        rel_tol=raw.get("tol", DEFAULT_REL_TOL),
    )


def _contiguous_transplants(by_id: dict[str, DbEntry]) -> list[DbEntry]:
    """Dixon-family elements obtained by transplanting Watson closed forms.

    The Dixon element with offsets (m, n) equals the Watson element with
    offsets (m, n) at shifted arguments times a gamma quotient; applying the
    shift ``a -> 1+m+a-2b, b -> a, c -> 1+m+a-b-c`` to the closed forms of
    B.47 (offsets (1,0)) and B.43 (offsets (0,-1)) yields two further members
    of the Dixon lattice.
    """
    a, b, c = sym("a"), sym("b"), sym("c")
    A, B, C = LinExpr.of(a), LinExpr.of(b), LinExpr.of(c)
    out = []
    for new_id, lower, base_id, shift, pref, prov in (
            ("EXT.X10", [A - B + 2, A - C + 2], "B.47",
             {a: A - B * 2 + 2, b: A, c: A - B - C + 2},
             "G(a-2*b-2*c+4)*G(2+a-c)/(G(2-c)*G(2*a-2*b-2*c+4))",
             "Prudnikov 7.4.4.22 : T1, transplanted to the Dixon "
             "lattice (m=1, n=0)"),
            ("EXT.X0M1", [A - B + 1, A - C], "B.43",
             {a: A - B * 2 + 1, b: A, c: A - B - C + 1},
             "G(a-2*b-2*c+1)*G(a-c)/(G(-c)*G(2*a-2*b-2*c+1))",
             "Prudnikov 7.4.4.20 : T1, transplanted to the Dixon "
             "lattice (m=0, n=-1)")):
        lhs = ParamSet.make([a, b, c], lower)
        rhs = Mul((parse_expr(pref), substitute(by_id[base_id].rhs, shift)))
        out.append(DbEntry(id=new_id, lhs=lhs, rhs=rhs, int_symbols=(),
                           derived=(), excess=excess(lhs), provenance=prov))
    return out


_SEED_CACHE: Optional[tuple[DbEntry, ...]] = None


def seed_db() -> list[DbEntry]:
    """The built-in database (parsed once, then cached)."""
    global _SEED_CACHE
    if _SEED_CACHE is None:
        entries = [_build_entry(raw) for raw in RAW_ENTRIES]
        by_id = {e.id: e for e in entries}
        entries.extend(_contiguous_transplants(by_id))
        _SEED_CACHE = tuple(entries)
    return list(_SEED_CACHE)


def get_entry(entries: Sequence[DbEntry], entry_id: str) -> DbEntry:
    for e in entries:
        if e.id == entry_id:
            return e
    raise KeyError(entry_id)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

_REL_RE = re.compile(r"(<=|>=|<|>)")

#: errors of one numeric draw that discard the draw instead of failing
RECOVERABLE = (PoleError, DivergentSeries, LowerPole, NoConvergence,
               NonFiniteParameter, NonIntegerSumBound, OverflowError,
               ZeroDivisionError)

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


def int_range(constraints: Sequence[str], name: str) -> tuple[int, int]:
    """The sampling range of integer symbol ``name``: from 0 or 1 up to 4."""
    lo = 0 if f"{name}>=0" in [c.replace(" ", "") for c in constraints] else 1
    return lo, 4


def constraints_hold(entry: DbEntry, assignment: Mapping[Symbol, complex],
                     skip_unbound: bool = False) -> bool:
    """True when every integer-symbol constraint of ``entry`` holds.

    A constraint that cannot be evaluated (it names a symbol missing from
    ``assignment``) raises, or is skipped when ``skip_unbound`` is set.
    """
    for _, constraints in entry.int_symbols:
        for text in constraints:
            try:
                if not parse_constraint(text).holds(assignment):
                    return False
            except Hyp321Error:
                if not skip_unbound:
                    raise
    return True


def _draw_integers(entry: DbEntry, rng) -> Optional[dict[Symbol, int]]:
    out: dict[Symbol, int] = {}
    for s, constraints in entry.int_symbols:
        lo, hi = int_range(constraints, s.name)
        out[s] = rng.randint(lo, hi)
    return out if constraints_hold(entry, out) else None


def _excess_at(entry: DbEntry, base: Mapping[Symbol, complex]) -> float:
    full = entry.assignment_with_derived(base)
    return entry.excess.eval(full).real


def _newton_shift(entry: DbEntry, base: dict[Symbol, complex], s: Symbol,
                  target: float) -> Optional[dict[Symbol, complex]]:
    """Move one continuous symbol until the excess hits ``target``."""
    h = 1e-5
    for _ in range(14):
        try:
            cur = _excess_at(entry, base)
        except RECOVERABLE:
            return None
        if abs(cur - target) < 0.02:
            return base
        bumped = dict(base)
        bumped[s] = base[s] + h
        try:
            grad = (_excess_at(entry, bumped) - cur) / h
        except RECOVERABLE:
            return None
        if abs(grad) < 1e-9:
            return None
        nxt = base[s] + (target - cur) / grad
        if abs(nxt) > 60 or nxt != nxt:
            return None
        base[s] = nxt
    return None


def repaired_assignment(entry: DbEntry, base: dict[Symbol, complex],
                         rng) -> Optional[dict[Symbol, complex]]:
    """Full assignment with the excess pushed into the convergence region."""
    try:
        full = entry.assignment_with_derived(base)
    except RECOVERABLE:
        return None
    if is_terminating(entry.lhs, full):
        return full
    s_val = entry.excess.eval(full).real
    if s_val >= 0.3:
        return full
    target = 0.45 + 0.4 * rng.random()
    for s in entry.base_continuous():
        trial = dict(base)
        fixed = _newton_shift(entry, trial, s, target)
        if fixed is not None:
            try:
                full = entry.assignment_with_derived(fixed)
            except RECOVERABLE:
                continue
            if (is_terminating(entry.lhs, full)
                    or entry.excess.eval(full).real > 0.05):
                return full
    return None


def _entry_rng(entry_id: str, seed: int):
    import random

    return random.Random((seed << 32) ^ zlib.crc32(entry_id.encode()))


def default_watson(a: complex, b: complex, c: complex,
                   m: int, n: int) -> complex:
    """The resolver of ``WatsonRef`` nodes: the Watson lattice element."""
    from .contiguous import watson_element

    return watson_element(a, b, c, m, n)


def verify_entry(entry: DbEntry, trials: int = 5, seed: int = 0,
                 rel_tol: Optional[float] = None,
                 watson: Optional[Callable] = None) -> VerificationReport:
    """Check an entry numerically at ``trials`` random sample points.

    Draw integer symbols small, continuous symbols from the sampling box,
    evaluate derived symbols, repair the excess if the series would diverge,
    then compare oracle and closed form.  Draws where either side hits a pole
    or the series cannot be summed are discarded and redrawn; fewer than three
    successful comparisons raise :class:`InsufficientSamples`.
    """
    tol = entry.rel_tol if rel_tol is None else rel_tol
    series_tol = min(1e-10, tol / 100.0)
    rng = _entry_rng(entry.id, seed)
    resolver = watson if watson is not None else default_watson
    samples: list[SampleRecord] = []
    attempts = 0
    max_attempts = 100 * trials
    while len(samples) < trials and attempts < max_attempts:
        attempts += 1
        ints = _draw_integers(entry, rng)
        if ints is None:
            continue
        base: dict[Symbol, complex] = dict(ints)
        for s in entry.base_continuous():
            base[s] = sample_continuous(rng)
        full = repaired_assignment(entry, base, rng)
        if full is None:
            continue
        try:
            lhs = series_pfq(entry.lhs, full, rel_tol=series_tol).value
            rhs = eval_expr(entry.rhs, full, watson=resolver)
        except RECOVERABLE:
            continue
        scale = max(abs(lhs), abs(rhs), 1e-300)
        if abs(lhs) < 1e-14 and abs(rhs) < 1e-14:
            err = 0.0
        else:
            err = abs(lhs - rhs) / scale
        samples.append(SampleRecord(
            assignment=tuple(sorted((s.name, full[s]) for s in full)),
            lhs=lhs, rhs=rhs, rel_err=err))
    if len(samples) < 3:
        raise InsufficientSamples(
            f"{entry.id}: only {len(samples)} usable samples "
            f"after {attempts} draws")
    passed = all(s.rel_err < tol for s in samples)
    return VerificationReport(entry.id, passed, tuple(samples))


def verify_all(entries: Sequence[DbEntry], trials: int = 5, seed: int = 0,
               rel_tol: Optional[float] = None,
               watson: Optional[Callable] = None,
               skip_status: Sequence[str] = ()) -> dict[str, VerificationReport]:
    out = {}
    for e in entries:
        if e.status in skip_status:
            continue
        out[e.id] = verify_entry(e, trials=trials, seed=seed,
                                 rel_tol=rel_tol, watson=watson)
    return out


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
    return [entry_from_json(d) for d in doc["entries"]]


def dumps_db(entries: Sequence[DbEntry]) -> str:
    """Byte-deterministic text form of the database."""
    return json.dumps(db_to_json(entries), sort_keys=True, indent=1,
                      ensure_ascii=False) + "\n"


def save_db(entries: Sequence[DbEntry], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_db(entries))


def load_db(path: str) -> list[DbEntry]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return db_from_json(doc)
