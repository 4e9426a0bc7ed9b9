"""The Thomae group of 3F2(1): S5 acting on five linear forms.

With sigma = a + b + c, the parameters (a, b, c; f, e) have the five forms
y = (sigma/2 - a, sigma/2 - b, sigma/2 - c, e - sigma/2, f - sigma/2), and
a = y1 + y2, b = y0 + y2, c = y0 + y1, f = y4 + T, e = y3 + T with
T = y0 + y1 + y2; the excess s = e + f - sigma is y3 + y4.  Since
F(a, b, c; f, e) / (Γ(e)Γ(f)Γ(s)) is invariant under every permutation of
the forms (Whipple 1923; Beyer, Louck and Stein, J. Math. Phys. 28 (1987)
497), F = Γ(s)Γ(f)Γ(e) / (Γ(s')Γ(f')Γ(e')) * F(image).  An image is fixed by
the two forms that become y3 and y4: base relation k <-> the k-th pair of
``combinations(range(5), 2)``, the other three forms, sorted, becoming
y0, y1, y2 (base 10 is the identity).  Composing a base with the 6 orderings
of the upper and 2 of the lower slots gives 120 variants, which for generic
parameters reach only the 10 images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Optional, Sequence

from .errors import ShapeError
from .expr import (Expr, Gamma, LinExpr, Lin, Mul, ONE, Recip, combine,
                   combine_rows, int_rows, row_lin, slot_rows)
from .series import ParamSet

__all__ = ["ThomaeVariant", "BASE_COUNT", "DOUBLED_FORMS", "all_variants",
           "apply_variant", "base_relation", "five_forms", "gamma_args",
           "numeric_images"]

BASE_COUNT = 10

UPPER_PERMS = tuple(itertools.permutations((0, 1, 2)))
LOWER_PERMS = ((0, 1), (1, 0))
_UPPER_LETTERS = "abc"
_LOWER_LETTERS = "fe"

#: twice the five forms, as integer rows over the slots (a, b, c, f, e)
DOUBLED_FORMS = ((-1, 1, 1, 0, 0), (1, -1, 1, 0, 0), (1, 1, -1, 0, 0),
                 (-1, -1, -1, 0, 2), (-1, -1, -1, 2, 0))
#: the slots (a, b, c, f, e) as sums of forms, by form position
_SLOT_FORMS = ((1, 2), (0, 2), (0, 1), (0, 1, 2, 4), (0, 1, 2, 3))
#: the gamma arguments s, f, e of the prefactor, by form position
_GAMMA_FORMS = ((3, 4),) + _SLOT_FORMS[3:]


def five_forms(p: ParamSet) -> list[LinExpr]:
    """The five forms y of a 3F2 parameter set; every variant permutes them."""
    syms, rows, den = int_rows(p.upper + p.lower)
    return [row_lin(syms, y, 2 * den)
            for y in combine_rows(DOUBLED_FORMS, rows)]


def _row(forms: Iterable[int]) -> tuple[int, ...]:
    """A sum of forms as an integer row over the slots (a, b, c, f, e)."""
    return tuple(sum(col) // 2 for col in
                 zip(*(DOUBLED_FORMS[k] for k in forms)))


def _base(pair: tuple[int, int]) -> tuple:
    """Form order, image rows and prefactor rows of the base for ``pair``.

    ``order[k]`` is the form at position k of the image.  Gamma factors
    common to both sides cancel by their sets of forms, never by value, so
    that the prefactor does not depend on the parameters it is applied to.
    """
    order = tuple(k for k in range(5) if k not in pair) + pair
    num = [frozenset(g) for g in _GAMMA_FORMS]
    den = [frozenset(order[k] for k in g) for g in _GAMMA_FORMS]
    return (order,
            tuple(_row(order[k] for k in slot) for slot in _SLOT_FORMS),
            tuple(_row(g) for g in num if g not in den),
            tuple(_row(g) for g in den if g not in num))


_BASES = dict(enumerate(map(_base, itertools.combinations(range(5), 2)), 1))


def base_relation(base: int, a: LinExpr, b: LinExpr, c: LinExpr,
                  f: LinExpr, e: LinExpr) -> tuple[ParamSet, Expr]:
    """Image parameters and prefactor of base relation ``base`` in 1..10.

    Semantics: F([a,b,c],[f,e]; 1) = prefactor * F(image; 1).
    """
    return apply_variant(ThomaeVariant(base), ParamSet((a, b, c), (f, e)))


def numeric_images(slots: Sequence[complex]) -> list[tuple]:
    """The nine non-identity base images of numeric slots (a, b, c, f, e).

    Each is ``(base, image, num, den)``: the image's slots (a', b', c', f',
    e') and the gamma arguments of its prefactor, so that
    F = prod Γ(num) / prod Γ(den) * F(image), from the same integer rows as
    ``base_relation``.
    """
    def dot(row):
        return sum(r * x for r, x in zip(row, slots) if r)

    return [(k, [dot(r) for r in image], [dot(r) for r in num],
             [dot(r) for r in den])
            for k, (_, image, num, den) in _BASES.items() if k != BASE_COUNT]


@dataclass(frozen=True)
class ThomaeVariant:
    """A base relation composed with a reordering of the input slots."""

    base: int
    upper_perm: tuple[int, int, int] = (0, 1, 2)
    lower_perm: tuple[int, int] = (0, 1)

    @property
    def name(self) -> str:
        up = "".join(_UPPER_LETTERS[i] for i in self.upper_perm)
        lo = "".join(_LOWER_LETTERS[i] for i in self.lower_perm)
        return f"T{self.base}·({up}|{lo})"

    def __str__(self) -> str:
        return self.name


IDENTITY_VARIANT = ThomaeVariant(10)


def _slots(v: ThomaeVariant, p: ParamSet) -> list[LinExpr]:
    if len(p.upper) != 3 or len(p.lower) != 2:
        raise ShapeError("Thomae relations apply to 3F2 parameter sets only")
    return [p.upper[i] for i in v.upper_perm] + \
        [p.lower[i] for i in v.lower_perm]


def apply_variant(v: ThomaeVariant, p: ParamSet) -> tuple[ParamSet, Expr]:
    """Apply a variant: permute the slots of ``p``, then the base relation."""
    num, den = gamma_args(v, p)
    syms, rows, d = int_rows(_slots(v, p))
    img = [row_lin(syms, r, d) for r in combine_rows(_BASES[v.base][1], rows)]
    factors = [Gamma(Lin(x)) for x in num] + [Recip(Gamma(Lin(x))) for x in den]
    return (ParamSet(tuple(img[:3]), tuple(img[3:])),
            Mul(tuple(factors)) if factors else ONE)


def gamma_args(v: ThomaeVariant, p: ParamSet) -> tuple[list[LinExpr], list[LinExpr]]:
    """The gamma arguments ``(num, den)`` of ``v``'s prefactor at ``p``, so
    that F(p) = prod Γ(num) / prod Γ(den) * F(image): the prefactor rows of
    ``v``'s base relation combined over ``p``'s slots in ``v``'s order."""
    if v.base not in _BASES:
        raise ShapeError(f"base relation index {v.base} outside 1..10")
    slots = _slots(v, p)
    return tuple([combine(row, slots) for row in rows] for rows in _BASES[v.base][2:])


def all_variants() -> list[ThomaeVariant]:
    """All 120 variants in deterministic order (base, upper perm, lower perm)."""
    return [ThomaeVariant(base, up, lo)
            for base in range(1, BASE_COUNT + 1)
            for up in UPPER_PERMS
            for lo in LOWER_PERMS]


@cache
def _image_forms(v: ThomaeVariant) -> tuple[tuple[int, ...], ...]:
    """The input forms summed by each slot (a', b', c', f', e') of ``v``'s
    image: ``v`` moves input form ``moved[order[k]]`` to form k."""
    moved = v.upper_perm + (4 - v.lower_perm[1], 4 - v.lower_perm[0])
    order = _BASES[v.base][0]
    return tuple(tuple(sorted(moved[order[k]] for k in slot))
                 for slot in _SLOT_FORMS)


def _class_representatives() -> tuple[ThomaeVariant, ...]:
    firsts: dict[frozenset, ThomaeVariant] = {}
    for v in all_variants():  # keyed by the forms the lower slots sum
        firsts.setdefault(frozenset(_image_forms(v)[3:]), v)
    return tuple(firsts.values())


#: The first variant of each generic image class (the pair of input forms
#: made lower), in ``all_variants()`` order.  Every other variant gives, as a
#: polynomial identity, the same image as the representative of its class.
CLASS_REPRESENTATIVES = _class_representatives()


def distinct_images(p: ParamSet,
                    variants: Optional[Iterable[ThomaeVariant]] = None
                    ) -> list[tuple[ThomaeVariant, tuple]]:
    """One representative variant per distinct image multiset, in order.

    Without ``variants`` only the ten ``CLASS_REPRESENTATIVES`` are applied,
    one variant per class.  Each of the 120 variants reaches the image of
    its class representative, which precedes it in ``all_variants()``, so
    the result equals a scan of all 120 for every parameter set, even where
    classes coincide.  ``apply_variant`` gives a variant's prefactor.

    Each image is ``(variant, (syms, rows, den))``: its five slot rows over
    the symbols and common denominator of ``p``'s ``slot_rows``, so that
    ``row_lin(syms, row, den)`` is a slot.  A slot row is half a sum of
    doubled forms (``_image_forms``), made once per set of forms; two images
    are the same multiset when their sorted upper and lower rows are.
    """
    syms, rows, den = slot_rows(tuple(_slots(IDENTITY_VARIANT, p)))
    twice = combine_rows(DOUBLED_FORMS, rows)

    @cache
    def half_sum(forms: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([sum(col) // 2 for col in zip(*[twice[k] for k in forms])])

    seen: set = set()
    out = []
    for v in (variants if variants is not None else CLASS_REPRESENTATIVES):
        img = [half_sum(forms) for forms in _image_forms(v)]
        k = (tuple(sorted(img[:3])), tuple(sorted(img[3:])))
        if k not in seen:
            seen.add(k)
            out.append((v, (syms, img, den)))
    return out
