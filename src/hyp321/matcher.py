"""Identification and equivalence culling for closed-form ₃F₂(1) sums.

``unify`` solves, exactly over the rationals, for a substitution carrying a
symbolic parameter template onto a query parameter set.  ``identify`` combines
unification with the ten distinct Thomae images of a query to look the query
up in the database; ``equivalent`` and ``cull`` use the same machinery to
reduce a collection of identities to an inequivalent base set.

All symbolic matching is exact: each parameter set is encoded as integer
rows over one common denominator (``expr.slot_rows``) and eliminated with
Python ints.  Thomae images stay in that encoding from
``thomae.distinct_images`` to ``unify``, and ``LinExpr`` values are built
only for the substitutions that ``unify`` returns.  Floating-point values
never participate in unification.  Numeric evaluation only checks a hit,
as a ``DbEntry`` in the query's symbols at its own draws (``DbEntry.checks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import gcd
from operator import mul
from typing import Iterator, Optional, Sequence

from .database import (DbEntry, SampleRecord, converges_at, entry_rng,
                       parse_constraint, sample_checks)
from .errors import Hyp321Error, ShapeError
from .expr import (Expr, LinExpr, Mul, Symbol, combine_rows, eval_expr,
                   free_symbols, int_rows, row_lin, slot_rows, substitute)
from .series import (KARLSSON_MINTON_KMAX, ParamSet, check_tol, excess,
                     series_pfq)
from .thomae import (CLASS_REPRESENTATIVES, DOUBLED_FORMS, IDENTITY_VARIANT,
                     LOWER_PERMS, UPPER_PERMS, ThomaeVariant, apply_variant,
                     distinct_images)

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
    same substitution applied (a fresh symbol where one would mention its
    own); they must be bound (in order) before ``instantiated_rhs`` is
    evaluated.
    """

    entry_id: str
    variant: ThomaeVariant
    substitution: Substitution
    instantiated_rhs: Expr
    derived: tuple[tuple[Symbol, Expr], ...] = ()


# ---------------------------------------------------------------------------
# Exact unification
# ---------------------------------------------------------------------------

def _eliminate(rows: list[list[int]],
               ncols: int) -> Optional[tuple[int, list[list[int]]]]:
    """Fraction-free Gauss-Jordan (Bareiss) over int on the first ``ncols``.

    Pivots on the first nonzero entry; later columns ride along.  Every
    division is exact.  Returns ``(d, rows)``: the pivot rows come first and
    row i < ``ncols`` reads d on column i and 0 on the other pivot columns,
    so that dividing the rows by d gives the reduced echelon form.  None when
    the rank is below ``ncols``.
    """
    m = [row[:] for row in rows]
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        p, top = m[col][col], m[col]
        m = [row if i == col else
             [(p * x - row[col] * y) // prev for x, y in zip(row, top)]
             for i, row in enumerate(m)]
        prev = p
    return prev, m


def _aligned_dots(row: Sequence[int], col: Sequence[int]) -> list[int]:
    """``row @ col`` for each slot alignment, ``row`` over the template's
    slots and ``col`` over the query's, when template slot j meets query
    slot ``(up + lp)[j]``: ``up`` runs over ``UPPER_PERMS`` and, for each,
    ``lp`` over ``LOWER_PERMS``."""
    r0, r1, r2, r3, r4 = row
    kept, swapped = r3 * col[3] + r4 * col[4], r3 * col[4] + r4 * col[3]
    out = []
    for i, j, k in UPPER_PERMS:
        upper = r0 * col[i] + r1 * col[j] + r2 * col[k]
        out += (upper + kept, upper + swapped)
    return out


@dataclass(frozen=True)
class _Compiled:
    """A template's slots ``M sigma + c`` as integer rows, eliminated once.

    ``slot_rows`` gives the slots as ``[den M | den c]``; ``_eliminate`` of
    ``[den M | I]`` gives a left inverse ``L / det`` of ``den M`` and
    ``consistency`` rows C with ``C M = 0``.  For a query q with integer
    columns over its own denominator Dq, aligned to the template's slots,
    an alignment is consistent iff every row r of C has ``r @ q`` zero on
    the symbol columns and ``den * (r @ q_const) == Dq * (r @ den c)``, the
    ``check``.  The solution is then ``(den L @ q - Dq * (L @ den c)
    e_const) / (det * Dq)``, with ``offset`` the ``L @ den c`` and
    ``inverse`` the ``den L``.
    """

    syms: tuple[Symbol, ...]
    integer: tuple[int, ...]           # positions of integer-kind symbols
    det: int                           # > 0
    den: int
    consistency: tuple[tuple[int, ...], ...]
    check: tuple[int, ...]
    offset: tuple[int, ...]
    inverse: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=256)
def _compile(upper: tuple[LinExpr, ...],
             lower: tuple[LinExpr, ...]) -> Optional[_Compiled]:
    """Eliminate ``[den M | I]`` for the slot-ordered template (cached).

    None when the rank of M is below the number of template symbols: every
    alignment is then underdetermined.
    """
    syms, rows, den = slot_rows(upper + lower)
    k = len(syms)
    reduced = _eliminate([[*row[:k]] + [int(i == j) for j in range(5)]
                          for i, row in enumerate(rows)], k)
    if reduced is None:
        return None
    det, m = reduced
    sign = -1 if det < 0 else 1
    inverse = [[sign * x for x in row[k:]] for row in m[:k]]
    consistency = [row[k:] for row in m[k:]]
    consistency = [tuple(x // gcd(*row) for x in row) for row in consistency]
    const = [row[k] for row in rows]

    def dot(row):
        return sum(map(mul, row, const))

    return _Compiled(syms, tuple(i for i, s in enumerate(syms)
                                 if s.kind == "integer"),
                     sign * det, den, tuple(consistency),
                     tuple(map(dot, consistency)), tuple(map(dot, inverse)),
                     tuple(tuple(den * x for x in row) for row in inverse))


def unify(template: ParamSet, query: ParamSet | tuple) -> list[Substitution]:
    """All exact substitutions carrying ``template`` onto ``query``.

    For each of the 6 x 2 slot alignments the five linear equations
    ``template_i(sigma) = query_i`` are solved over the rationals for the
    template symbols.  The template's coefficient matrix is eliminated once
    (``_compile``, cached by slot order) into a left inverse and consistency
    rows, and the query is encoded as integer rows; the alignments are all
    tested, and those left solved, together, exactly with Python ints, one
    row and query column at a time (``_aligned_dots``).  A solution is kept
    when it is unique and exact, and integer-kind symbols bind to
    non-negative integer constants or to integer-valued affine forms; a
    consistent alignment reproduces the query as a multiset.  Template and
    query may share symbol names: the substitution is applied
    simultaneously, so ``{a -> b, b -> a}`` swaps them.  ``query`` is a
    ``ParamSet`` or its five slots already encoded as ``(syms, rows, den)``,
    as ``distinct_images`` gives them: every test here is unchanged when
    the rows and ``den`` are scaled together, and ``row_lin`` normalises.
    """
    if any(len(p.upper) != 3 or len(p.lower) != 2 for p in (template, query)
           if isinstance(p, ParamSet)):
        raise ShapeError("unify expects 3F2 parameter sets")
    comp = _compile(template.upper, template.lower)
    if comp is None:
        return []
    qsyms, rows, qden = (int_rows(query.upper + query.lower)
                         if isinstance(query, ParamSet) else query)
    cols = list(zip(*rows))
    const = cols.pop()
    scaled = [comp.den * x for x in const]
    alive = range(len(UPPER_PERMS) * len(LOWER_PERMS))
    for row, chk in zip(comp.consistency, comp.check):
        for col, want in [(col, 0) for col in cols] + [(scaled, qden * chk)]:
            dots = _aligned_dots(row, col)
            alive = [a for a in alive if dots[a] == want]
            if not alive:
                return []
    offsets = [qden * off for off in comp.offset]
    det = comp.det * qden
    continuous = [i for i, s in enumerate(qsyms) if s.kind != "integer"]
    solved = {}  # template symbol -> its row's dots on each query column

    def solution(i: int, a: int) -> tuple[int, ...]:  # symbol i, alignment a
        return tuple([d[a] for d in solved[i][:-1]] +
                     [solved[i][-1][a] - offsets[i]])

    # the integer rows first, so that no other row is formed for an
    # alignment that binds an integer symbol badly
    for i in sorted(range(len(comp.syms)), key=lambda i: i not in comp.integer):
        solved[i] = [_aligned_dots(comp.inverse[i], col)
                     for col in cols + [const]]
        if i in comp.integer:
            alive = [a for a in alive if _integer_binding_ok(
                solution(i, a), det, continuous)]
            if not alive:
                return []
    out: list[Substitution] = []
    seen: set = set()
    for a in alive:
        sol = tuple(solution(i, a) for i in range(len(comp.syms)))
        if sol not in seen:
            seen.add(sol)
            out.append(Substitution(tuple(
                (s, row_lin(qsyms, row, det))
                for s, row in zip(comp.syms, sol))))
    return out


def _integer_binding_ok(row: tuple[int, ...], den: int,
                        continuous: list[int]) -> bool:
    """Whether ``row / den`` is a non-negative integer constant or an
    integer-valued form: integer coefficients, on integer symbols only."""
    return all(x % den == 0 for x in row) and \
        not any(row[i] for i in continuous) and \
        (any(row[:-1]) or row[-1] >= 0)


# ---------------------------------------------------------------------------
# Identification against the database
# ---------------------------------------------------------------------------

def _hit_entry(query: ParamSet, match: MatchResult,
               entry: DbEntry) -> Optional[DbEntry]:
    """The hit ``3F2(query) = instantiated_rhs`` as an entry in the query's
    symbols: each integer symbol >= 1 and under every constraint of
    ``entry`` carried through the substitution.  None when an integer
    symbol of ``entry`` is unbound or a derived definition uses a symbol
    not drawn or derived before it."""
    smap = match.substitution.as_dict()
    if any(s not in smap for s, _ in entry.int_symbols):
        return None
    syms = query.free_symbols().union(
        free_symbols(match.instantiated_rhs),
        *(free_symbols(d) for _, d in match.derived))
    known = set(syms) - {s for s, _ in match.derived}
    for s, d in match.derived:
        if not free_symbols(d) <= known:
            return None
        known.add(s)
    carried = tuple(f"{c.lhs.subs(smap)}{c.op}{c.rhs.subs(smap)}" for c in
                    map(parse_constraint, (t for _, cs in entry.int_symbols
                                           for t in cs)))
    return DbEntry(
        id=f"{match.entry_id}|{match.variant.name}", lhs=query,
        rhs=match.instantiated_rhs,
        int_symbols=tuple((s, (f"{s.name}>=1",) + carried) for s in sorted(
            (s for s in syms if s.kind == "integer"), key=lambda s: s.name)),
        derived=match.derived, excess=excess(query), provenance="")


def _spot_check(query: ParamSet, match: MatchResult, entry: DbEntry,
                seed: int, rel_tol: float) -> bool:
    """Test a candidate match numerically at the draws of its hit entry
    (``_hit_entry``), 30 of them, or one when there is no symbol to draw:
    False only on a demonstrated mismatch, an untestable match is
    accepted."""
    hit = _hit_entry(query, match, entry)
    if hit is None:
        return True
    tries = 30 if hit.base_continuous() or hit.int_symbols else 1
    return next((o.rel_err < rel_tol for o in hit.checks(seed, tries, 1e-10)
                 if isinstance(o, SampleRecord)), True)


def _bound_apart(s: Symbol, d: Expr, taken: frozenset[Symbol]
                 ) -> tuple[Symbol, Expr]:
    """A derived binding ``s = d``, renamed away from the query's symbols
    when ``d`` mentions ``s``: bound as it is, it would be circular."""
    used = free_symbols(d)
    while s in used:
        s, used = Symbol(s.name + "_", s.kind), used | taken
    return s, d


def identify(entries: Sequence[DbEntry], query: ParamSet, *,
             include_conjectures: bool = False, seed: int = 0,
             rel_tol: float = 1e-6) -> list[MatchResult]:
    """Look a ₃F₂(1) parameter set up in the database.

    Each of the query's distinct Thomae images (the 120 formal variants
    collapse to at most ten distinct parameter multisets) is unified against
    every non-flagged entry; conjectural entries participate only when
    ``include_conjectures`` is set.  Results are ordered by entry id, then
    variant name, and each instantiated closed form evaluates to the query's
    own value.
    """
    check_tol(rel_tol)
    images = _images_of(query.upper, query.lower)
    prefactor = cache(lambda v: apply_variant(v, query)[1])  # once per image
    taken = query.free_symbols()
    results: list[MatchResult] = []
    for entry in sorted(entries, key=lambda e: e.id):
        if entry.status == "flagged":
            continue
        if entry.status == "conjecture" and not include_conjectures:
            continue
        for v, encoded in images:
            for sub in unify(entry.lhs, encoded):
                smap = sub.as_dict()
                # symbolic bindings are judged by the spot check's draws
                fixed = {s: smap[s].eval({}) for s, _ in entry.int_symbols
                         if s in smap and smap[s].is_constant}
                if not entry.ints_hold(fixed, skip_unbound=True):
                    continue
                inst_rhs = Mul((prefactor(v), substitute(entry.rhs, smap)))
                derived = tuple(_bound_apart(s, substitute(d, smap), taken)
                                for s, d in entry.derived)
                match = MatchResult(entry.id, v, sub, inst_rhs, derived)
                if not _spot_check(query, match, entry, seed, rel_tol):
                    continue
                results.append(match)
    results.sort(key=lambda r: (r.entry_id, r.variant.name))
    return results


# ---------------------------------------------------------------------------
# Equivalence and culling
# ---------------------------------------------------------------------------

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
    for g in e1.int_grid:
        t_assign: dict[Symbol, complex] = {}
        for s in tints:
            lin = smap.get(s)
            if lin is None:
                continue
            try:
                v = lin.eval(g)
            except Hyp321Error:
                return False  # binding leaks a continuous symbol
            if v.real < -1e-9:
                return False
            t_assign[s] = v
        if not e2.ints_hold(t_assign, skip_unbound=True):
            return False
    return True


def _derived_ok(e1: DbEntry, e2: DbEntry, sub: Substitution) -> bool:
    """Bound helper symbols must stand for structurally identical helpers.

    Derived symbols denote nonlinear functions of the base symbols, so the
    identity attached to a template only holds on that variety.  A witness
    may bind a template derived symbol only to a plain query derived symbol
    whose definition equals the template's once the witness substitutes the
    template base symbols, and only when every symbol of the template's
    definition is such a base symbol, bound by the witness: EQ.14's
    ``d = s*b`` matches nothing, whatever names the two entries share.
    """
    if not e2.derived:
        return True
    smap = sub.as_dict()
    tder = dict(e2.derived)
    qder = {LinExpr.of(s): d for s, d in e1.derived}
    base_map = {s: lin for s, lin in smap.items() if s not in tder}
    for s, d in e2.derived:
        if s not in smap:
            continue
        if smap[s] not in qder or free_symbols(d) - base_map.keys() or \
                substitute(d, base_map) != qder[smap[s]]:
            return False
    return True


def _invertible_pair(e1: DbEntry, e2: DbEntry) -> bool:
    """True when every witness carrying ``e2`` onto an image of ``e1`` is an
    invertible affine map.

    Equivalence is symmetric up to inversion; a substitution that collapses
    symbols (e.g. binds an integer symbol to the constant 1) witnesses a
    specialization, not an equivalence, and specialization detection is out
    of scope for the automated cull.  A witness S solves ``M S = Q`` for
    ``e2``'s full-rank slot matrix M and an image's matrix Q, which has
    ``e1``'s rank, so S has that rank too: it is square and invertible
    exactly when ``e1``'s slot matrix has full column rank and both entries
    have as many symbols.
    """
    first = _compile(e1.lhs.upper, e1.lhs.lower)
    second = _compile(e2.lhs.upper, e2.lhs.lower)
    return first is not None and second is not None and \
        len(first.syms) == len(second.syms)


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


# `_compile`, `_images_of` and `slot_rows` each keep 256 parameter sets.  The
# cull of 550 entries (the seed entries and nine images of each of the 51
# survivors of cull(seed_db())) passes 521 and 487 sets through the first
# two, and their cache_info() reads 521 and 487 misses (33,963 and 2,398
# hits), as unbounded caches do: no set is needed again once it is evicted.
@lru_cache(maxsize=256)
def _images_of(upper: tuple[LinExpr, ...], lower: tuple[LinExpr, ...]
               ) -> tuple:
    """Distinct Thomae images of a parameter set, identity first, each as
    ``(variant, (syms, rows, den))`` (cached).  Keyed on the slot order,
    never on the multiset-equal ``ParamSet``: each image's variant name
    depends on it."""
    return tuple(distinct_images(ParamSet(upper, lower), _IMAGE_VARIANTS))


def _witness_samples(e1: DbEntry, v: ThomaeVariant, tries: int) -> Iterator:
    """Outcomes of F(lhs) = prefactor * F(image) at ``e1.draw`` points,
    where the image must converge too."""
    img, pref = apply_variant(v, e1.lhs)
    img_excess = excess(img)

    def draw(rng):
        full = e1.draw(rng)
        if isinstance(full, str) or converges_at(img, img_excess, full):
            return full
        return "excess"

    return sample_checks(
        entry_rng(e1.id + "|" + v.name, 0), tries, draw,
        lambda full: series_pfq(e1.lhs, full, rel_tol=1e-10).value,
        lambda full: series_pfq(img, full, rel_tol=1e-10).value
        * eval_expr(pref, full))


def _witness_sound(e1: DbEntry, v: ThomaeVariant) -> bool:
    """Check numerically that the connecting Thomae relation is non-degenerate.

    A formal parameter-multiset witness can exist even though the relation
    linking the two evaluations breaks down on the whole legal domain (gamma
    poles in the prefactor at integer parameters).  The witness is accepted
    only if F(lhs) = prefactor * F(image) verifies at one of 24 legal draws;
    a relation with no usable draw is treated as degenerate.
    """
    return v == IDENTITY_VARIANT or next(
        (o.rel_err < 1e-6 for o in _witness_samples(e1, v, 24)
         if isinstance(o, SampleRecord)), False)


def equivalent(e1: DbEntry, e2: DbEntry
               ) -> Optional[tuple[ThomaeVariant, Substitution]]:
    """Witness that ``e2``'s parameter set is a Thomae image of ``e1``'s.

    Returns ``(variant, substitution)`` such that substituting into ``e2``'s
    template reproduces the variant-image of ``e1``'s parameters, written in
    ``e1``'s own symbols, or None.  A witness must be an invertible affine
    map (``_invertible_pair``, decided once per pair), respect integer-symbol
    ranges and derived-symbol definitions on both sides (``_derived_ok``:
    every symbol of an ``e2`` definition must be a base symbol it binds),
    and the connecting Thomae relation must hold numerically at a legal draw.
    """
    if not _invertible_pair(e1, e2):
        return None
    for v, encoded in _images_of(e1.lhs.upper, e1.lhs.lower):
        for sub in unify(e2.lhs, encoded):
            if _kinds_preserved(e2, sub) and \
               _int_ranges_ok(e1, e2, sub) and \
               _derived_ok(e1, e2, sub) and \
               _witness_sound(e1, v):
                return v, sub
    return None


def _nonpositive_integer(entry: DbEntry, lin: LinExpr) -> bool:
    """True iff ``lin`` is an integer-valued form that is <= 0 at every legal
    integer draw of ``entry``: it names only integer symbols, each with a
    non-positive coefficient, and is <= 0 at the lower bounds of their
    ``int_ranges`` (0 for a symbol the entry does not declare)."""
    if not lin.is_integer_valued():
        return False
    sup = lin.const
    for s, c in lin.terms:
        if c > 0:
            return False
        sup += c * entry.int_ranges.get(s, (0, 0))[0]
    return sup <= 0


def _karlsson_minton_template(entry: DbEntry) -> bool:
    return any(u.terms == l.terms and (k := u.const - l.const).denominator == 1
               and 1 <= k <= KARLSSON_MINTON_KMAX
               for u in entry.lhs.upper for l in entry.lhs.lower)


def _retention_rank(entry: DbEntry) -> tuple:
    return (-len(entry.base_continuous()), len(entry.int_symbols), entry.id)


def _orbit_key(entry: DbEntry) -> tuple:
    """A key that every pair of entries linked by ``equivalent`` shares.

    Every Thomae variant permutes the five forms y of ``five_forms``.  An
    accepted witness is a full-rank affine map that keeps integer and
    continuous symbols apart, so it keeps constant forms with their values,
    keeps the other forms non-constant, and keeps the number of symbols of
    each kind.
    The key holds those counts and the constant y_i, |y_i-y_j| and y_i+y_j,
    read off twice the forms as integer rows (symbol part, then constant).
    """
    syms, rows, den = int_rows(entry.lhs.upper + entry.lhs.lower)
    y = [(row[:-1], row[-1]) for row in combine_rows(DOUBLED_FORMS, rows)]
    zero = (0,) * len(syms)
    pairs = list(combinations(y, 2))

    def values(consts) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, 2 * den) for x in sorted(consts))

    return (sum(s.kind == "integer" for s in syms), len(syms),
            values(c for v, c in y if v == zero),
            values(abs(c - d) for (v, c), (w, d) in pairs if v == w),
            values(c + d for (v, c), (w, d) in pairs
                   if all(x == -z for x, z in zip(v, w))))


def cull(entries: Sequence[DbEntry]) -> list[DbEntry]:
    """Reduce a collection of identities to an inequivalent base set.

    Dropped are: entries whose parametric excess is forced to a non-positive
    integer without the sum terminating; entries where an upper parameter
    exceeds a lower one by a small positive integer (the sum then reduces by
    partial fractions); and, for every class of Thomae-equivalent entries,
    all but the most general member (more continuous symbols wins; ties fall
    to fewer integer symbols, then the lexicographically smaller id).
    Flagged entries are kept untouched: they are quarantined, never dropped.
    Input order is preserved among survivors; an entry given more than once
    survives at its first place only.

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
        if _nonpositive_integer(e, e.excess) and \
                not any(_nonpositive_integer(e, u) for u in e.lhs.upper):
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

    chosen = {id(e): e for bucket in retained.values() for e in bucket}
    return [e for e in candidates  # popped: a repeated entry is kept once
            if e.status == "flagged" or chosen.pop(id(e), None) is not None]
