"""The ten two-term relations for 3F2(1) and their 120 permutation variants.

Each base relation maps a 3F2 with upper parameters (a, b, c) and lower
parameters (f, e) to another 3F2 times a quotient of gamma factors:

    F(a, b, c; f, e) = prefactor * F(upper'; lower').

Writing s = e + f - a - b - c for the parametric excess, the ten images have
excesses s, a, b, c, e-a, e-b, e-c, f-a, f-b, f-c respectively, so the base
relations are distinguished by where they transport the excess.  Composing a
base relation with one of the 6 orderings of the upper parameters and 2 of the
lower parameters gives 120 variants; for generic parameters these produce only
10 distinct parameter multisets (each image is stabilized by reorderings of
its own slots).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .expr import Expr, Gamma, LinExpr, Lin, Mul, ONE, Recip
from .series import ParamSet

__all__ = ["ThomaeVariant", "BASE_COUNT", "all_variants", "apply_variant",
           "base_relation", "inverse_of"]

BASE_COUNT = 10

UPPER_PERMS = tuple(itertools.permutations((0, 1, 2)))
LOWER_PERMS = ((0, 1), (1, 0))
_UPPER_LETTERS = "abc"
_LOWER_LETTERS = "fe"


def _g(l: LinExpr) -> Expr:
    return Gamma(Lin(l))


def _gamma_quotient(num: Sequence[LinExpr], den: Sequence[LinExpr]) -> Expr:
    factors = [_g(l) for l in num] + [Recip(_g(l)) for l in den]
    if not factors:
        return ONE
    return Mul(tuple(factors))


def base_relation(base: int, a: LinExpr, b: LinExpr, c: LinExpr,
                  f: LinExpr, e: LinExpr) -> tuple[ParamSet, Expr]:
    """Image parameters and prefactor of base relation ``base`` in 1..10.

    Semantics: F([a,b,c],[f,e]; 1) = prefactor * F(image; 1).
    """
    s = e + f - a - b - c
    if base == 1:
        return (ParamSet((s, f - c, e - c), (e - b + f - c, e + f - a - c)),
                _gamma_quotient([s, f, e], [c, e - b + f - c, e + f - a - c]))
    if base == 2:
        return (ParamSet((s, f - b, e - b), (e - b + f - c, e - b + f - a)),
                _gamma_quotient([s, f, e], [b, e - b + f - c, e - b + f - a]))
    if base == 3:
        return (ParamSet((f - c, f - b, a), (e - b + f - c, f)),
                _gamma_quotient([s, e], [e - a, e - b + f - c]))
    if base == 4:
        return (ParamSet((e - c, e - b, a), (e - b + f - c, e)),
                _gamma_quotient([s, f], [f - a, e - b + f - c]))
    if base == 5:
        return (ParamSet((s, f - a, e - a), (e + f - a - c, e - b + f - a)),
                _gamma_quotient([s, f, e], [a, e + f - a - c, e - b + f - a]))
    if base == 6:
        return (ParamSet((f - c, f - a, b), (e + f - a - c, f)),
                _gamma_quotient([s, e], [e - b, e + f - a - c]))
    if base == 7:
        return (ParamSet((e - c, e - a, b), (e + f - a - c, e)),
                _gamma_quotient([s, f], [f - b, e + f - a - c]))
    if base == 8:
        return (ParamSet((f - b, f - a, c), (e - b + f - a, f)),
                _gamma_quotient([s, e], [e - c, e - b + f - a]))
    if base == 9:
        return (ParamSet((e - b, e - a, c), (e - b + f - a, e)),
                _gamma_quotient([s, f], [f - c, e - b + f - a]))
    if base == 10:
        return ParamSet((a, b, c), (f, e)), ONE
    raise ValueError(f"base relation index {base} outside 1..10")


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

#: The first variant of each generic image class, in ``all_variants()``
#: order.  Every other variant gives, as a polynomial identity, the same
#: image as the representative of its class.
CLASS_REPRESENTATIVES = (
    ThomaeVariant(1, (0, 1, 2), (0, 1)),
    ThomaeVariant(1, (0, 2, 1), (0, 1)),
    ThomaeVariant(1, (1, 2, 0), (0, 1)),
    ThomaeVariant(3, (0, 1, 2), (0, 1)),
    ThomaeVariant(3, (0, 1, 2), (1, 0)),
    ThomaeVariant(3, (1, 0, 2), (0, 1)),
    ThomaeVariant(3, (1, 0, 2), (1, 0)),
    ThomaeVariant(3, (2, 0, 1), (0, 1)),
    ThomaeVariant(3, (2, 0, 1), (1, 0)),
    IDENTITY_VARIANT,
)


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
    """A variant ``w`` with ``w(v(P))`` equal to ``P`` for generic ``P``."""
    from .expr import sym

    p0 = ParamSet.make([sym("a"), sym("b"), sym("c")], [sym("f"), sym("e")])
    img, _ = apply_variant(v, p0)
    for w in all_variants():
        back, _ = apply_variant(w, img)
        if back == p0:
            return w
    raise ValueError(f"no inverse found for {v.name}")  # pragma: no cover
