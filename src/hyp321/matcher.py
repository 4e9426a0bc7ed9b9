"""Identification and equivalence culling for closed-form ₃F₂(1) sums.

``unify`` solves, exactly over the rationals, for a substitution carrying a
symbolic parameter template onto a query parameter set.  ``identify`` combines
unification with the ten distinct Thomae images of a query to look the query
up in the database; ``equivalent`` and ``cull`` use the same machinery to
reduce a collection of identities to an inequivalent base set.

All symbolic matching is exact (``fractions.Fraction``); floating-point values
never participate in unification.  Numeric evaluation is used only as an
optional spot check on candidate matches.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from operator import mul
from typing import Mapping, Optional, Sequence

from .database import (RECOVERABLE, DbEntry, constraints_hold,
                       default_watson, int_range, repaired_assignment)
from .errors import Hyp321Error
from .expr import (Add, Cos, Expr, FiniteSum, Gamma, LinExpr, LIN_ZERO, Mul,
                   Neg, Pochhammer, Polygamma, Pow, Recip, Sin, Symbol,
                   WatsonRef, combine, eval_expr, free_symbols, substitute)
from .series import (ParamSet, excess, is_terminating, sample_continuous,
                     series_pfq)
from .thomae import (CLASS_REPRESENTATIVES, IDENTITY_VARIANT, LOWER_PERMS,
                     UPPER_PERMS, ThomaeVariant, apply_variant,
                     distinct_images, five_forms)

Q = Fraction

#: the identity, then one variant per class of Thomae images
_IMAGE_VARIANTS = (IDENTITY_VARIANT,) + CLASS_REPRESENTATIVES


@dataclass(frozen=True)
class Substitution:
    """Map from template symbols to affine expressions in query symbols."""

    mapping: tuple[tuple[Symbol, LinExpr], ...]

    def as_dict(self) -> dict[Symbol, LinExpr]:
        return dict(self.mapping)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{s.name} -> {lin}" for s, lin in self.mapping) + "}"


@dataclass(frozen=True)
class MatchResult:
    """One identification hit: the query is ``variant``-image of ``entry_id``.

    ``instantiated_rhs`` is the entry's closed form after substitution,
    multiplied by the Thomae prefactor, so that it evaluates to the *query's*
    value.  ``derived`` carries the entry's helper-symbol definitions with the
    same substitution applied; they must be bound (in order) before
    ``instantiated_rhs`` is evaluated.
    """

    entry_id: str
    variant: ThomaeVariant
    substitution: Substitution
    instantiated_rhs: Expr
    derived: tuple[tuple[Symbol, Expr], ...] = ()


# ---------------------------------------------------------------------------
# Exact unification
# ---------------------------------------------------------------------------

def _gauss_jordan(rows: list[list[Fraction]],
                  ncols: int) -> Optional[list[list[Fraction]]]:
    """Gauss-Jordan over Fraction on the first ``ncols`` columns.

    Pivots on the first nonzero entry; later columns ride along.  Returns the
    reduced rows, pivot rows first, or None when the rank is below ``ncols``.
    """
    m = [row[:] for row in rows]
    for col in range(ncols):
        piv = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Q(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(len(m)):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return m


@dataclass(frozen=True)
class _Compiled:
    """A template's slots ``M sigma + c``, eliminated once.

    An alignment q is consistent iff ``consistency @ q == check``, and its
    unique solution is then ``left_inverse @ q - offset``.
    """

    syms: tuple[Symbol, ...]
    left_inverse: tuple[tuple[Fraction, ...], ...]   # k x 5
    offset: tuple[Fraction, ...]                      # left_inverse @ c
    consistency: tuple[tuple[int, ...], ...]         # (5 - k) x 5
    check: tuple[int, ...]                            # consistency @ c


@lru_cache(maxsize=256)
def _compile(upper: tuple[LinExpr, ...],
             lower: tuple[LinExpr, ...]) -> Optional[_Compiled]:
    """Eliminate ``[M | I]`` for the slot-ordered template (cached).

    Each consistency row is scaled so that it and its check are integers.
    None when the rank of M is below the number of template symbols: every
    alignment is then underdetermined.
    """
    params = upper + lower
    syms = tuple(sorted(frozenset().union(*(p.free_symbols() for p in params)),
                        key=lambda s: s.name))
    k = len(syms)
    m = _gauss_jordan([[p.coeff(s) for s in syms] + [Q(int(i == j))
                                                     for j in range(5)]
                       for i, p in enumerate(params)], k)
    if m is None:
        return None

    def dot(row):
        return sum((r * p.const for r, p in zip(row, params)), Q(0))

    inverse = tuple(tuple(row[k:]) for row in m[:k])
    consistency = []
    for row in m[k:]:
        scale = lcm(*(x.denominator for x in row[k:] + [dot(row[k:])]))
        consistency.append(tuple(int(x * scale) for x in row[k:]))
    return _Compiled(syms, inverse, tuple(map(dot, inverse)),
                     tuple(consistency),
                     tuple(int(dot(row)) for row in consistency))


def _point_value(lin: LinExpr) -> Fraction:
    """``lin`` at a fixed integer point seeded by each symbol's name."""
    return lin.const + sum(c * (zlib.crc32(s.name.encode()) + 1)
                           for s, c in lin.terms)


def _integer_bindings_ok(mapping: Mapping[Symbol, LinExpr]) -> bool:
    for s, lin in mapping.items():
        if s.kind != "integer":
            continue
        if lin.is_constant:
            k = lin.as_integer()
            if k is None or k < 0:
                return False
        elif not lin.is_integer_valued():
            return False
    return True


def unify(template: ParamSet, query: ParamSet) -> list[Substitution]:
    """All exact substitutions carrying ``template`` onto ``query``.

    For each of the 6 x 2 slot alignments the five linear equations
    ``template_i(sigma) = query_i`` are solved over the rationals for the
    template symbols.  The template's coefficient matrix is eliminated once
    (``_compile``, cached by slot order) into a left inverse and consistency
    rows.  An alignment is rejected early when a consistency row is nonzero
    at a fixed integer point, then checked exactly, then solved by one
    matrix-vector product.  A solution is kept when it is unique and exact,
    integer-kind symbols bind to non-negative integer constants or to
    integer-valued affine forms, and re-instantiation reproduces the query as
    a multiset.  Template symbols must be disjoint from query symbols.
    """
    if any(len(p.upper) != 3 or len(p.lower) != 2 for p in (template, query)):
        raise ValueError("unify expects 3F2 parameter sets")
    comp = _compile(template.upper, template.lower)
    if comp is None:
        return []
    values = [_point_value(q) for q in query.upper + query.lower]
    scale = lcm(*(x.denominator for x in values))
    values = [x.numerator * (scale // x.denominator) for x in values]
    targets = [scale * chk for chk in comp.check]
    out: list[Substitution] = []
    seen: set = set()
    for up in UPPER_PERMS:
        for lp in LOWER_PERMS:
            point = [values[i] for i in up] + [values[3 + i] for i in lp]
            if any(sum(map(mul, row, point)) != t
                   for row, t in zip(comp.consistency, targets)):
                continue
            forms = [query.upper[i] for i in up] + \
                [query.lower[i] for i in lp]
            if any(combine(row, forms, chk) != LIN_ZERO
                   for row, chk in zip(comp.consistency, comp.check)):
                continue
            mapping = {s: combine(row, forms, off) for s, row, off in
                       zip(comp.syms, comp.left_inverse, comp.offset)}
            if not _integer_bindings_ok(mapping):
                continue
            inst = ParamSet(tuple(u.subs(mapping) for u in template.upper),
                            tuple(l.subs(mapping) for l in template.lower))
            if inst != query:
                continue
            sub = Substitution(tuple(mapping.items()))
            if sub not in seen:
                seen.add(sub)
                out.append(sub)
    return out


# ---------------------------------------------------------------------------
# Identification against the database
# ---------------------------------------------------------------------------

def _entry_constraints_ok(entry: DbEntry,
                          mapping: Mapping[Symbol, LinExpr]) -> bool:
    """Check integer-symbol constraints for bindings that are constant.

    Symbolic bindings are accepted here (the constraints travel with the
    match and can only be adjudicated at evaluation time).
    """
    values = {s: mapping[s].eval({}) for s, _ in entry.int_symbols
              if s in mapping and mapping[s].is_constant}
    return constraints_hold(entry, values, skip_unbound=True)


def _spot_check(query: ParamSet, match: MatchResult, entry: DbEntry,
                seed: int, rel_tol: float) -> bool:
    """Numerically test one candidate match at a random legal assignment.

    Returns False only on a demonstrated numeric mismatch; if no convergent
    check point can be found the candidate is accepted.
    """
    rng = random.Random((seed << 32) ^ zlib.crc32(
        (match.entry_id + "|" + match.variant.name).encode()))
    derived_names = {s for s, _ in match.derived}
    base: set[Symbol] = set(query.free_symbols())
    base |= free_symbols(match.instantiated_rhs)
    for _, d in match.derived:
        base |= free_symbols(d)
    base -= derived_names
    order = sorted(base, key=lambda s: s.name)
    submap = match.substitution.as_dict()
    for _ in range(30):
        assign: dict[Symbol, complex] = {}
        for s in order:
            assign[s] = rng.randint(1, 4) if s.kind == "integer" \
                else sample_continuous(rng)
        try:
            full = dict(assign)
            for s, d in match.derived:
                full[s] = eval_expr(d, full)
            # respect the entry's own integer constraints at this draw
            ivals: dict[Symbol, complex] = {}
            bad = False
            for s, _ in entry.int_symbols:
                lin = submap.get(s)
                if lin is None:
                    bad = True
                    break
                v = lin.eval(full)
                if abs(v.imag) > 1e-9 or abs(v.real - round(v.real)) > 1e-9:
                    bad = True
                    break
                ivals[s] = complex(round(v.real))
            if bad:
                continue
            if not constraints_hold(entry, ivals):
                continue
            exc = excess(query).eval(full)
            if not is_terminating(query, full) and exc.real <= 0.3:
                continue
            lhs = series_pfq(query, full, rel_tol=1e-10).value
            rhs = eval_expr(match.instantiated_rhs, full,
                            watson=default_watson)
        except (RECOVERABLE + (Hyp321Error,)):
            continue
        err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        return err < rel_tol
    return True


def _rename_captured_indices(e: Expr, taken: frozenset[Symbol]) -> Expr:
    """Alpha-rename finite-sum indices that collide with ``taken`` symbols."""
    if isinstance(e, (Add, Mul)):
        return type(e)(tuple(_rename_captured_indices(x, taken)
                             for x in e.args))
    if isinstance(e, (Neg, Recip, Gamma, Sin, Cos)):
        return type(e)(_rename_captured_indices(e.arg, taken))
    if isinstance(e, Pow):
        return Pow(_rename_captured_indices(e.base, taken),
                   _rename_captured_indices(e.exponent, taken))
    if isinstance(e, Polygamma):
        return Polygamma(e.order, _rename_captured_indices(e.arg, taken))
    if isinstance(e, Pochhammer):
        return Pochhammer(_rename_captured_indices(e.base, taken), e.count)
    if isinstance(e, WatsonRef):
        return WatsonRef(_rename_captured_indices(e.a, taken),
                         _rename_captured_indices(e.b, taken),
                         _rename_captured_indices(e.c, taken), e.m, e.n)
    if isinstance(e, FiniteSum):
        body = _rename_captured_indices(e.body, taken)
        idx = e.index
        if idx in taken:
            fresh = Symbol(idx.name + "_", "integer")
            while fresh in taken or fresh in free_symbols(body):
                fresh = Symbol(fresh.name + "_", "integer")
            body = substitute(body, {idx: LinExpr.of(fresh)})
            idx = fresh
        return FiniteSum(idx, e.lower, e.upper, body)
    return e


def _substitute_capture_free(e: Expr, smap: Mapping[Symbol, LinExpr]) -> Expr:
    taken = frozenset().union(*(t.free_symbols() for t in smap.values()),
                              frozenset())
    return substitute(_rename_captured_indices(e, taken), smap)


def identify(entries: Sequence[DbEntry], query: ParamSet, *,
             include_conjectures: bool = False, numeric_check: bool = True,
             seed: int = 0, rel_tol: float = 1e-6) -> list[MatchResult]:
    """Look a ₃F₂(1) parameter set up in the database.

    Each of the query's distinct Thomae images (the 120 formal variants
    collapse to at most ten distinct parameter multisets) is unified against
    every non-flagged entry; conjectural entries participate only when
    ``include_conjectures`` is set.  Results are ordered by entry id, then
    variant name, and each instantiated closed form evaluates to the query's
    own value.
    """
    images = distinct_images(query, _IMAGE_VARIANTS)
    results: list[MatchResult] = []
    for entry in sorted(entries, key=lambda e: e.id):
        if entry.status == "flagged":
            continue
        if entry.status == "conjecture" and not include_conjectures:
            continue
        for v, img, pref in images:
            for sub in unify(entry.lhs, img):
                smap = sub.as_dict()
                if not _entry_constraints_ok(entry, smap):
                    continue
                inst_rhs = Mul((pref, _substitute_capture_free(entry.rhs,
                                                               smap)))
                derived = tuple((s, _substitute_capture_free(d, smap))
                                for s, d in entry.derived)
                match = MatchResult(entry.id, v, sub, inst_rhs, derived)
                if numeric_check and not _spot_check(query, match, entry,
                                                     seed, rel_tol):
                    continue
                results.append(match)
    results.sort(key=lambda r: (r.entry_id, r.variant.name))
    return results


# ---------------------------------------------------------------------------
# Equivalence and culling
# ---------------------------------------------------------------------------

def _qsym(s: Symbol) -> Symbol:
    return Symbol("q*" + s.name, s.kind)


def _renamed(p: ParamSet) -> ParamSet:
    """Rename every symbol so the set is disjoint from any template."""
    mapping = {s: LinExpr.make({_qsym(s): Q(1)}) for s in p.free_symbols()}
    return ParamSet(tuple(u.subs(mapping) for u in p.upper),
                    tuple(l.subs(mapping) for l in p.lower))


def _int_grid(entry: DbEntry) -> list[dict[Symbol, int]]:
    """The legal small integer assignments for an entry's integer symbols."""
    syms = [s for s, _ in entry.int_symbols]
    ranges = [range(lo, hi + 1) for lo, hi in
              (int_range(cs, s.name) for s, cs in entry.int_symbols)]
    grid = (dict(zip(syms, combo)) for combo in product(*ranges))
    return [g for g in grid if constraints_hold(entry, g)]


def _int_ranges_ok(e1: DbEntry, e2: DbEntry, sub: Substitution) -> bool:
    """Every legal integer draw of ``e1`` must land inside ``e2``'s ranges.

    Without this, a template like (a, m, b; c, m-n) would absorb arbitrary
    entries through bindings such as m -> -n that are integer-valued but can
    never satisfy the template's own m >= 1 constraint.
    """
    tints = {s for s, _ in e2.int_symbols}
    smap = sub.as_dict()
    if not any(s in smap for s in tints):
        return True
    for g in _int_grid(e1):
        qassign = {_qsym(s): complex(v) for s, v in g.items()}
        t_assign: dict[Symbol, complex] = {}
        for s in tints:
            lin = smap.get(s)
            if lin is None:
                continue
            try:
                v = lin.eval(qassign)
            except Hyp321Error:
                return False  # binding leaks a continuous symbol
            if v.real < -1e-9:
                return False
            t_assign[s] = v
        if not constraints_hold(e2, t_assign, skip_unbound=True):
            return False
    return True


def _derived_ok(e1: DbEntry, e2: DbEntry, sub: Substitution,
                rename_fwd: Mapping[Symbol, LinExpr]) -> bool:
    """Bound helper symbols must stand for structurally identical helpers.

    Derived symbols denote nonlinear functions of the base symbols, so the
    identity attached to a template only holds on that variety.  A witness
    binding a template derived symbol is accepted only when the binding is a
    plain query derived symbol whose definition, after the base-symbol
    substitution, is structurally equal to the template's own definition.
    """
    if not e2.derived:
        return True
    smap = sub.as_dict()
    tder = dict(e2.derived)
    qder = {_qsym(s): d for s, d in e1.derived}
    base_map = {s: lin for s, lin in smap.items() if s not in tder}
    for s, d in e2.derived:
        lin = smap.get(s)
        if lin is None:
            continue
        if lin.const != 0 or len(lin.terms) != 1:
            return False
        (qs, coef), = lin.terms
        if coef != 1 or qs not in qder:
            return False
        if substitute(d, base_map) != substitute(qder[qs], rename_fwd):
            return False
    return True


def _invertible(sub: Substitution) -> bool:
    """True when the witness substitution is an invertible affine map.

    Equivalence is symmetric up to inversion; a substitution that collapses
    symbols (e.g. binds an integer symbol to the constant 1) witnesses a
    specialization, not an equivalence, and specialization detection is out
    of scope for the automated cull.
    """
    qsyms = sorted({t for _, lin in sub.mapping for t, _ in lin.terms},
                   key=lambda s: s.name)
    if len(qsyms) != len(sub.mapping):
        return False
    rows = [[lin.coeff(t) for t in qsyms] for _, lin in sub.mapping]
    return _gauss_jordan(rows, len(qsyms)) is not None


def _kinds_preserved(e2: DbEntry, sub: Substitution) -> bool:
    """Continuous template symbols may not absorb integer query symbols.

    Integer symbols are strong constraints on acceptable transformations:
    two catalogued identities related only by folding an integer offset into
    a continuous slot are distinct catalogue entries (their closed forms are
    organized around different integer structure), so such a witness does not
    count as equivalence.
    """
    for s, lin in sub.mapping:
        if s.kind == "continuous":
            if any(t.kind == "integer" for t, _ in lin.terms):
                return False
    return True


# The bounds of both caches hold about 150 entries with ten images each:
# cull(seed_db()) and a pool of the seed entries with 50 planted images.
@lru_cache(maxsize=256)
def _images_of(q: ParamSet) -> tuple:
    """Distinct Thomae images of a parameter set, identity first (cached)."""
    return tuple((v, img)
                 for v, img, _ in distinct_images(q, _IMAGE_VARIANTS))


@lru_cache(maxsize=2048)
def _witness_sound(e1: DbEntry, v: ThomaeVariant, tries: int = 24) -> bool:
    """Check numerically that the connecting Thomae relation is non-degenerate.

    A formal parameter-multiset witness can exist even though the relation
    linking the two evaluations breaks down on the whole legal domain (gamma
    poles in the prefactor at integer parameters).  The witness is accepted
    only if F(lhs) = prefactor * F(image) verifies at some legal assignment;
    a relation that is never evaluable is treated as degenerate.
    """
    if v == IDENTITY_VARIANT:
        return True
    rng = random.Random(zlib.crc32((e1.id + "|" + v.name).encode()))
    img, pref = apply_variant(v, e1.lhs)
    grid = _int_grid(e1)
    img_excess = excess(img)
    for _ in range(tries):
        base: dict[Symbol, complex] = {
            s: sample_continuous(rng) for s in e1.base_continuous()}
        if grid:
            base.update(rng.choice(grid))
        try:
            full = e1.assignment_with_derived(base)
            if not is_terminating(e1.lhs, full) and \
                    excess(e1.lhs).eval(full).real <= 0.3:
                repaired = repaired_assignment(e1, base, rng)
                if repaired is None:
                    continue
                full = repaired
            if not is_terminating(img, full) and \
                    img_excess.eval(full).real <= 0.3:
                continue
            lv = series_pfq(e1.lhs, full, rel_tol=1e-10).value
            iv = series_pfq(img, full, rel_tol=1e-10).value
            pv = eval_expr(pref, full)
        except (RECOVERABLE + (Hyp321Error,)):
            continue
        err = abs(lv - pv * iv) / max(abs(lv), abs(pv * iv), 1e-300)
        return err < 1e-6
    return False


def equivalent(e1: DbEntry, e2: DbEntry
               ) -> Optional[tuple[ThomaeVariant, Substitution]]:
    """Witness that ``e2``'s parameter set is a Thomae image of ``e1``'s.

    Returns ``(variant, substitution)`` such that substituting into ``e2``'s
    template reproduces the variant-image of ``e1``'s parameters, or None.
    A witness must respect integer-symbol ranges and derived-symbol
    definitions on both sides, and the connecting Thomae relation must hold
    numerically at a legal assignment.
    """
    q = _renamed(e1.lhs)
    rename_syms = set(e1.lhs.free_symbols())
    for _, d in e1.derived:
        rename_syms |= free_symbols(d)
    rename_fwd = {s: LinExpr.make({_qsym(s): Q(1)}) for s in rename_syms}

    for v, img in _images_of(q):
        for sub in unify(e2.lhs, img):
            if _invertible(sub) and \
               _kinds_preserved(e2, sub) and \
               _int_ranges_ok(e1, e2, sub) and \
               _derived_ok(e1, e2, sub, rename_fwd) and \
               _witness_sound(e1, v):
                return v, sub
    return None


def _int_lower_bound(entry: DbEntry, s: Symbol) -> int:
    for t, constraints in entry.int_symbols:
        if t == s:
            lo, _ = int_range(constraints, s.name)
            return lo
    return 0


def _sup_if_bounded(entry: DbEntry, lin: LinExpr) -> Optional[Fraction]:
    """Least upper bound of an integer-valued affine form, if one exists."""
    hi = lin.const
    for s, c in lin.terms:
        if s.kind != "integer" or c > 0:
            return None
        hi += c * _int_lower_bound(entry, s)
    return hi


def _excess_nonpositive_integer(entry: DbEntry) -> bool:
    exc = entry.excess
    if not exc.is_integer_valued():
        return False
    sup = _sup_if_bounded(entry, exc)
    return sup is not None and sup <= 0


def _terminating_template(entry: DbEntry) -> bool:
    for u in entry.lhs.upper:
        if u.is_integer_valued():
            sup = _sup_if_bounded(entry, u)
            if sup is not None and sup <= 0:
                return True
    return False


def _karlsson_minton_template(entry: DbEntry, kmax: int = 3) -> bool:
    for u in entry.lhs.upper:
        for l in entry.lhs.lower:
            k = (u - l).as_integer()
            if k is not None and 1 <= k <= kmax:
                return True
    return False


def _n_continuous(entry: DbEntry) -> int:
    derived = dict(entry.derived)
    syms: set[Symbol] = set()
    for p in entry.lhs.upper + entry.lhs.lower:
        for s in p.free_symbols():
            if s in derived:
                syms |= {t for t in free_symbols(derived[s])
                         if t.kind == "continuous"}
            elif s.kind == "continuous":
                syms.add(s)
    return len(syms)


def _retention_rank(entry: DbEntry) -> tuple:
    return (-_n_continuous(entry), len(entry.int_symbols), entry.id)


def _orbit_key(entry: DbEntry) -> tuple:
    """A key that every pair of entries linked by ``equivalent`` shares.

    Every Thomae variant permutes the five forms y of ``five_forms``.  An
    accepted witness is a full-rank affine map that keeps integer and
    continuous symbols apart, so it keeps constant forms with their values,
    keeps the other forms non-constant, and keeps the number of symbols of
    each kind.
    The key holds those counts and the constant y_i, |y_i-y_j| and y_i+y_j.
    """
    y = five_forms(entry.lhs)
    pairs = list(combinations(y, 2))

    def constants(forms) -> list[Fraction]:
        return [x.const for x in forms if x.is_constant]

    syms = entry.lhs.free_symbols()
    return (sum(s.kind == "integer" for s in syms), len(syms),
            tuple(sorted(constants(y))),
            tuple(sorted(abs(d) for d in constants(u - v for u, v in pairs))),
            tuple(sorted(constants(u + v for u, v in pairs))))


def cull(entries: Sequence[DbEntry]) -> list[DbEntry]:
    """Reduce a collection of identities to an inequivalent base set.

    Dropped are: entries whose parametric excess is forced to a non-positive
    integer without the sum terminating; entries where an upper parameter
    exceeds a lower one by a small positive integer (the sum then reduces by
    partial fractions); and, for every class of Thomae-equivalent entries,
    all but the most general member (more continuous symbols wins; ties fall
    to fewer integer symbols, then the lexicographically smaller id).
    Flagged entries are kept untouched: they are quarantined, never dropped.
    Input order is preserved among survivors.

    Only entries with equal ``_orbit_key`` are compared.  Thomae variants
    permute five linear forms of the parameters, and an accepted witness is
    an invertible affine map that keeps symbol kinds apart; both keep the
    key, so entries with different keys are never equivalent.
    """
    candidates: list[DbEntry] = []
    for e in entries:
        if e.status == "flagged":
            candidates.append(e)
            continue
        if _excess_nonpositive_integer(e) and not _terminating_template(e):
            continue
        if _karlsson_minton_template(e):
            continue
        candidates.append(e)

    ranked = sorted((e for e in candidates if e.status != "flagged"),
                    key=_retention_rank)
    retained: dict[tuple, list[DbEntry]] = {}
    for e in ranked:
        bucket = retained.setdefault(_orbit_key(e), [])
        if any(equivalent(e, r) is not None or equivalent(r, e) is not None
               for r in bucket):
            continue
        bucket.append(e)

    chosen = {id(e) for bucket in retained.values() for e in bucket}
    return [e for e in candidates
            if e.status == "flagged" or id(e) in chosen]
