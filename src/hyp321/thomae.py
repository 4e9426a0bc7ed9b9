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
from fractions import Fraction
from typing import Iterable, Optional

from .expr import Expr, Gamma, LinExpr, Lin, Mul, ONE, Recip, combine
from .series import ParamSet

__all__ = ["ThomaeVariant", "BASE_COUNT", "all_variants", "apply_variant",
           "base_relation", "five_forms", "inverse_of"]

BASE_COUNT = 10

UPPER_PERMS = tuple(itertools.permutations((0, 1, 2)))
LOWER_PERMS = ((0, 1), (1, 0))
_UPPER_LETTERS = "abc"
_LOWER_LETTERS = "fe"

_H = Fraction(1, 2)
#: the five forms as rows over the slots (a, b, c, f, e)
_FORM_ROWS = ((-_H, _H, _H, 0, 0), (_H, -_H, _H, 0, 0), (_H, _H, -_H, 0, 0),
              (-_H, -_H, -_H, 0, 1), (-_H, -_H, -_H, 1, 0))
#: the slots (a, b, c, f, e) as sums of forms, by form position
_SLOT_FORMS = ((1, 2), (0, 2), (0, 1), (0, 1, 2, 4), (0, 1, 2, 3))
#: the gamma arguments s, f, e of the prefactor, by form position
_GAMMA_FORMS = ((3, 4),) + _SLOT_FORMS[3:]


def five_forms(p: ParamSet) -> list[LinExpr]:
    """The five forms y of a 3F2 parameter set; every variant permutes them."""
    return [combine(row, p.upper + p.lower) for row in _FORM_ROWS]


def _row(forms: Iterable[int]) -> tuple[int, ...]:
    """A sum of forms as an integer row over the slots (a, b, c, f, e)."""
    return tuple(int(sum(col)) for col in
                 zip(*(_FORM_ROWS[k] for k in forms)))


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
    if base not in _BASES:
        raise ValueError(f"base relation index {base} outside 1..10")
    _, image, num, den = _BASES[base]
    slots = (a, b, c, f, e)
    img = [combine(row, slots) for row in image]
    factors = [Gamma(Lin(combine(row, slots))) for row in num] + \
        [Recip(Gamma(Lin(combine(row, slots)))) for row in den]
    return (ParamSet(tuple(img[:3]), tuple(img[3:])),
            Mul(tuple(factors)) if factors else ONE)


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


def _form_perm(v: ThomaeVariant) -> tuple[int, ...]:
    """The input form at each form position of ``v``'s image (f: form 4)."""
    moved = v.upper_perm + (4 - v.lower_perm[1], 4 - v.lower_perm[0])
    return tuple(moved[k] for k in _BASES[v.base][0])


def apply_variant(v: ThomaeVariant, p: ParamSet) -> tuple[ParamSet, Expr]:
    """Apply a variant: permute the slots of ``p``, then the base relation."""
    if len(p.upper) != 3 or len(p.lower) != 2:
        raise ValueError("Thomae relations apply to 3F2 parameter sets only")
    a, b, c = (p.upper[i] for i in v.upper_perm)
    f, e = (p.lower[i] for i in v.lower_perm)
    return base_relation(v.base, a, b, c, f, e)


def all_variants() -> list[ThomaeVariant]:
    """All 120 variants in deterministic order (base, upper perm, lower perm)."""
    return [ThomaeVariant(base, up, lo)
            for base in range(1, BASE_COUNT + 1)
            for up in UPPER_PERMS
            for lo in LOWER_PERMS]


def _class_representatives() -> tuple[ThomaeVariant, ...]:
    firsts: dict[frozenset, ThomaeVariant] = {}
    for v in all_variants():
        firsts.setdefault(frozenset(_form_perm(v)[3:]), v)
    return tuple(firsts.values())


#: The first variant of each generic image class (the pair of input forms
#: made lower), in ``all_variants()`` order.  Every other variant gives, as a
#: polynomial identity, the same image as the representative of its class.
CLASS_REPRESENTATIVES = _class_representatives()


def distinct_images(p: ParamSet,
                    variants: Optional[Iterable[ThomaeVariant]] = None
                    ) -> list[tuple[ThomaeVariant, ParamSet, Expr]]:
    """One representative variant per distinct image multiset, in order.

    Without ``variants`` only the ten ``CLASS_REPRESENTATIVES`` are applied,
    one variant per class.  Each of the 120 variants reaches the image of
    its class representative, which precedes it in ``all_variants()``, so
    the result equals a scan of all 120 for every parameter set, even where
    classes coincide.
    """
    seen: set = set()
    out = []
    for v in (variants if variants is not None else CLASS_REPRESENTATIVES):
        img, pref = apply_variant(v, p)
        k = img.key()
        if k not in seen:
            seen.add(k)
            out.append((v, img, pref))
    return out


def inverse_of(v: ThomaeVariant) -> ThomaeVariant:
    """A variant ``w`` with ``w(v(P))`` equal to ``P`` for generic ``P``.

    The first in ``all_variants()`` whose composition with ``v`` brings the
    input forms e and f (3 and 4) back to the lower positions.
    """
    pv = _form_perm(v)
    for w in all_variants():
        pw = _form_perm(w)
        if {pv[pw[3]], pv[pw[4]]} == {3, 4}:
            return w
    raise ValueError(f"no inverse found for {v.name}")  # pragma: no cover
