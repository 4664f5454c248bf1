"""Hopf structure maps and tensor-leg elements.

MultiElements represent elements of the tensor powers of the algebra (two
legs for the direct square, four legs for its coproduct, and so on).  All
legs share one deformation parameter.  The counit, the coinverse κ, κ² and
Δ on one leg act leg by leg on an Element or a MultiElement alike, reading
each key as its tuple of leg monomials; the coproduct and θ take an Element.
`partial_theta`, θ on one leg, is the one code that forms θx; it and `theta`
read θ's q-free part from one bounded memo (`_theta_image`).

On the generators:

    Δ(a)  = a ⊗ a  - c ⊗ c*          Δ(c)  = a ⊗ c  + c ⊗ a*
    Δ(a*) = a* ⊗ a* - c* ⊗ c         Δ(c*) = a* ⊗ c* + c* ⊗ a
    ε(a) = ε(a*) = 1,  ε(c) = ε(c*) = 0
    κ(a) = a*,  κ(a*) = a,  κ(c) = -(1/q) c,  κ(c*) = -q c*

These choices make the fundamental matrix [[a, √q c], [-c*/√q, a*]] a
unitary corepresentation and Δ coassociative.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .algebra import (
    PLAIN,
    STAR,
    AlgebraParams,
    Element,
    LRU,
    MONO_MUL_CACHE_SIZE,
    Monomial,
    MONO_A,
    MONO_ASTAR,
    MONO_C,
    MONO_CSTAR,
    UNIT,
    _ElementCore,
    _checked_kind,
    _mono,
    _mono_mul,
)


class MultiElement(_ElementCore):
    """Linear combination of tuples of monomials: an element of a tensor power.

    It has at least two legs, since one leg is an Element's kind, and
    every key must be a plain tuple of `legs` Monomials.  The key check,
    pruning, linear arithmetic and adjoint are `algebra._ElementCore`'s; the
    symbolic product is this kind's own.
    """

    __slots__ = ()

    def __init__(self, params: AlgebraParams, legs: int, terms: Mapping[tuple, complex] | None = None):
        if legs < 2:
            raise ValueError(f"a MultiElement has at least two legs, got {legs}")
        super().__init__(params, terms, legs)

    @classmethod
    def zero(cls, params: AlgebraParams, legs: int) -> "MultiElement":
        return cls(params, legs)

    @classmethod
    def unit(cls, params: AlgebraParams, legs: int) -> "MultiElement":
        return cls(params, legs, {(UNIT,) * legs: 1.0})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._scaled(other)
        if not isinstance(other, MultiElement):
            return NotImplemented
        self._check(other)
        q = self.params.q
        out: dict = {}
        for tx, cx in self.terms.items():
            for ty, cy in other.terms.items():
                base = cx * cy
                # leg-wise monomial products, expanded over all legs
                partial = [((), base)]
                for mono_x, mono_y in zip(tx, ty):
                    factors = _mono_mul(mono_x, mono_y, q)
                    partial = [
                        (tup + (mono,), coeff * scale)
                        for tup, coeff in partial
                        for mono, scale in factors
                    ]
                for tup, coeff in partial:
                    out[tup] = out.get(tup, 0j) + coeff
        return MultiElement._trusted(self.params, self.legs, out)

    def __repr__(self):
        return f"MultiElement(legs={self.legs}, {self})"


def tensor(*factors) -> MultiElement:
    """Tensor product of Elements / MultiElements, with legs concatenated.

    Each coefficient is the fold ((1+0j)·c_1)·c_2·… of the factors'
    coefficients, added onto 0j.  Every factor's keys are distinct, and so
    are their concatenations, so each is added once.
    """
    legs = sum(f.legs for f in factors)
    if legs < 2:
        raise ValueError(f"a MultiElement has at least two legs, and the factors of tensor() have {legs}")
    params = factors[0].params
    for f in factors[1:]:
        if f.params is not params and f.params != params:
            raise ValueError("tensor factors carry different algebra parameters")
    terms = [((), 1.0 + 0.0j)]
    for f in factors:
        terms = [(tup + f.leg_monomials(key), c * c2) for tup, c in terms for key, c2 in f.terms.items()]
    return MultiElement._trusted(params, legs, {key: 0j + coeff for key, coeff in terms})


# -- coproduct ---------------------------------------------------------------

_DELTA_TABLE = {
    MONO_A: (((MONO_A, MONO_A), 1.0), ((MONO_C, MONO_CSTAR), -1.0)),
    MONO_ASTAR: (((MONO_ASTAR, MONO_ASTAR), 1.0), ((MONO_CSTAR, MONO_C), -1.0)),
    MONO_C: (((MONO_A, MONO_C), 1.0), ((MONO_C, MONO_ASTAR), 1.0)),
    MONO_CSTAR: (((MONO_ASTAR, MONO_CSTAR), 1.0), ((MONO_CSTAR, MONO_A), 1.0)),
}

# Δ of each basis monomial, keyed by (q, tol, monomial)
COPRODUCT_CACHE_SIZE = 1024
_COPRODUCT_CACHE = LRU(COPRODUCT_CACHE_SIZE)


def _coproduct_monomial(params: AlgebraParams, mono: Monomial) -> MultiElement:
    key = (params.q, params.tol, mono)
    cached = _COPRODUCT_CACHE.get(key)
    if cached is not None:
        return cached
    out = MultiElement.unit(params, 2)
    gens = (
        (MONO_A if mono.sector == PLAIN else MONO_ASTAR, mono.k),
        (MONO_C, mono.m),
        (MONO_CSTAR, mono.n),
    )
    for gen, count in gens:
        if count == 0:
            continue
        factor = MultiElement(params, 2, dict(_DELTA_TABLE[gen]))
        for _ in range(count):
            out = out * factor
    return _COPRODUCT_CACHE.put(key, out)


def coproduct(x: Element) -> MultiElement:
    """Δ as a multiplicative *-homomorphism into the two-leg algebra."""
    _checked_kind(1, x)
    return apply_coproduct_leg(x, 0)


def apply_coproduct_leg(x, leg: int) -> MultiElement:
    """Apply Δ to one leg of an Element or MultiElement, giving a MultiElement with one leg more."""
    if not 0 <= leg < x.legs:
        raise ValueError(f"leg {leg} out of range for {x.legs} legs")
    out: dict = {}
    for key, coeff in x.terms.items():
        monos = x.leg_monomials(key)
        for (g1, g2), c in _coproduct_monomial(x.params, monos[leg]).terms.items():
            key2 = monos[:leg] + (g1, g2) + monos[leg + 1:]
            out[key2] = out.get(key2, 0j) + coeff * c
    return MultiElement._trusted(x.params, x.legs + 1, out)


def product_coproduct(x: MultiElement) -> MultiElement:
    """Coproduct of the direct square: two legs in, four legs out, ordered (A,B,A,B)."""
    _checked_kind(2, x)
    out: dict = {}
    for (ma, mb), coeff in x.terms.items():
        da = _coproduct_monomial(x.params, ma)
        db = _coproduct_monomial(x.params, mb)
        for (a1, a2), ca in da.terms.items():
            cca = coeff * ca
            for (b1, b2), cb in db.terms.items():
                key = (a1, b1, a2, b2)
                out[key] = out.get(key, 0j) + cca * cb
    return MultiElement(x.params, 4, out)


# -- counit ------------------------------------------------------------------

def counit(x) -> complex:
    """ε: the unital homomorphism with ε(a) = ε(a*) = 1 and ε(c) = ε(c*) = 0.

    It takes an Element or a MultiElement, on which it acts leg-wise; the
    terms with a c or c* on no leg are added onto 0j in term order.
    """
    total = 0j
    for key, coeff in x.terms.items():
        if all(mono.m == 0 and mono.n == 0 for mono in x.leg_monomials(key)):
            total += coeff
    return total


def product_counit(x: MultiElement) -> complex:
    """ε of the direct square, applied leg-wise."""
    _checked_kind(2, x)
    return counit(x)


# -- coinverse ---------------------------------------------------------------

def _coinverse_monomial(mono: Monomial, q: float):
    """κ on a basis monomial as (real scale, monomial)."""
    scale = (-q) ** mono.n * (-1.0 / q) ** mono.m
    if mono.sector == PLAIN:
        scale *= q ** ((mono.m + mono.n) * mono.k)
        return scale, _mono(STAR, mono.k, mono.m, mono.n)
    scale *= q ** (-(mono.m + mono.n) * mono.k)
    return scale, _mono(PLAIN, mono.k, mono.m, mono.n)


def coinverse(x):
    """κ: the antihomomorphic coinverse (antipode), leg by leg on tensors."""
    q = x.params.q
    return x._legwise(lambda mono: _coinverse_monomial(mono, q), False)


def coinverse_squared(x):
    """κ² as a homomorphism; acts diagonally on monomials, leg-wise on tensors."""
    q = x.params.q
    return x._legwise(lambda mono: (q ** (2 * (mono.n - mono.m)), mono), False)


def product_coinverse(x: MultiElement) -> MultiElement:
    """κ of the direct square, applied leg-wise."""
    _checked_kind(2, x)
    return coinverse(x)


# -- transposition map ---------------------------------------------------------

@lru_cache(maxsize=MONO_MUL_CACHE_SIZE)
def _theta_image(mono: Monomial):
    """The q-free part of θ on a basis monomial: (sign, image monomial, power of q)."""
    return (-1.0) ** (mono.m + mono.n), _mono(mono.sector, mono.k, mono.n, mono.m), mono.n - mono.m


def _theta_monomial(mono: Monomial, q: float):
    """θ = (adjoint ∘ κ) on a basis monomial as (real scale, monomial)."""
    sign, image, power = _theta_image(mono)
    return sign * q ** power, image


def theta(x: Element) -> Element:
    """θ(x) = κ(x)*: an antilinear homomorphism (the transposition map)."""
    _checked_kind(1, x)
    q = x.params.q
    return x._legwise(lambda mono: _theta_monomial(mono, q), True)


def partial_theta(x: MultiElement, leg: int = 1) -> MultiElement:
    """Apply θ to one leg's basis monomials, leaving stored coefficients alone.

    θ itself is antilinear, so a leg-wise θ is only defined relative to the
    monomial basis; with this convention the image of a transformed density
    matrix is the transform of its partial transpose.  It is the one path
    that forms θx: `CatalogMap.gather` calls it for each row of a stack.
    """
    _require_theta_leg(x, leg)
    q = x.params.q
    out: dict = {}
    for key, coeff in x.terms.items():
        sign, mono, power = _theta_image(key[leg])
        image = (mono, key[1]) if leg == 0 else (key[0], mono)
        # θ on a leg is one-to-one on keys, so every image is added onto 0j once
        out[image] = 0j + coeff * (sign * q ** power)
    return MultiElement._trusted(x.params, 2, out)


def _require_theta_leg(x: MultiElement, leg: int):
    """The argument checks of `partial_theta`, in its order and with its messages."""
    _checked_kind(2, x)
    if leg not in (0, 1):
        raise ValueError("leg must be 0 or 1")
