"""Hopf structure maps and tensor-leg elements.

The coproduct, counit and coinverse act on single-leg Elements; their
leg-wise extensions act on MultiElements, which represent elements of the
tensor powers of the algebra (two legs for the direct square, four legs for
its coproduct, and so on).  All legs share one deformation parameter.

On the generators:

    Δ(a)  = a ⊗ a  - c ⊗ c*          Δ(c)  = a ⊗ c  + c ⊗ a*
    Δ(a*) = a* ⊗ a* - c* ⊗ c         Δ(c*) = a* ⊗ c* + c* ⊗ a
    ε(a) = ε(a*) = 1,  ε(c) = ε(c*) = 0
    κ(a) = a*,  κ(a*) = a,  κ(c) = -(1/q) c,  κ(c*) = -q c*

These choices make the fundamental matrix [[a, √q c], [-c*/√q, a*]] a
unitary corepresentation and Δ coassociative.
"""

from __future__ import annotations

from typing import Mapping

from .algebra import (
    PLAIN,
    STAR,
    AlgebraParams,
    Element,
    LRU,
    Monomial,
    MONO_A,
    MONO_ASTAR,
    MONO_C,
    MONO_CSTAR,
    UNIT,
    _ElementCore,
    _format_terms,
    _mono,
    _mono_adjoint,
    _mono_mul,
)


class MultiElement(_ElementCore):
    """Linear combination of tuples of monomials: an element of a tensor power.

    Every key must be a plain tuple of `legs` Monomials.  Pruning and the
    linear arithmetic are `algebra._ElementCore`'s.
    """

    __slots__ = ()

    def __init__(self, params: AlgebraParams, legs: int, terms: Mapping[tuple, complex] | None = None):
        if legs < 1:
            raise ValueError("legs must be at least 1")
        if terms:
            kinds = (Monomial,) * legs
            for tup in terms:
                if not (type(tup) is tuple and len(tup) == legs
                        and all(map(isinstance, tup, kinds))):
                    raise ValueError(f"term {tup!r} is not a tuple of {legs} monomials")
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

    def adjoint(self) -> "MultiElement":
        q = self.params.q
        out: dict = {}
        for tup, coeff in self.terms.items():
            scale = 1.0
            monos = []
            for mono in tup:
                s, mono2 = _mono_adjoint(mono, q)
                scale *= s
                monos.append(mono2)
            key = tuple(monos)
            out[key] = out.get(key, 0j) + coeff.conjugate() * scale
        return MultiElement._trusted(self.params, self.legs, out)

    def __repr__(self):
        return f"MultiElement(legs={self.legs}, {_format_terms(self.terms)!s})"


def tensor(*factors) -> MultiElement:
    """Tensor product of Elements / MultiElements, with legs concatenated.

    Each coefficient is the fold ((1+0j)·c_1)·c_2·… of the factors'
    coefficients, added onto 0j.  Every factor's keys are distinct, and so
    are their concatenations, so each is added once.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    params = factors[0].params
    for f in factors[1:]:
        if f.params is not params and f.params != params:
            raise ValueError("tensor factors carry different algebra parameters")
    terms = [((), 1.0 + 0.0j)]
    legs = 0
    for f in factors:
        if isinstance(f, Element):
            terms = [(tup + (mono,), c * c2) for tup, c in terms for mono, c2 in f.terms.items()]
            legs += 1
        else:
            terms = [(tup + t2, c * c2) for tup, c in terms for t2, c2 in f.terms.items()]
            legs += f.legs
    return MultiElement._trusted(params, legs, {key: 0j + coeff for key, coeff in terms})


def _require_legs(x: MultiElement, legs: int):
    if not isinstance(x, MultiElement) or x.legs != legs:
        got = x.legs if isinstance(x, MultiElement) else "Element"
        raise ValueError(f"expected a MultiElement with {legs} legs, got {got}")


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
    out: dict = {}
    for mono, coeff in x.terms.items():
        for tup, c in _coproduct_monomial(x.params, mono).terms.items():
            out[tup] = out.get(tup, 0j) + coeff * c
    return MultiElement(x.params, 2, out)


def apply_coproduct_leg(x: MultiElement, leg: int) -> MultiElement:
    """Apply Δ to one leg, producing a MultiElement with one extra leg."""
    if not 0 <= leg < x.legs:
        raise ValueError(f"leg {leg} out of range for {x.legs} legs")
    out: dict = {}
    for tup, coeff in x.terms.items():
        for (g1, g2), c in _coproduct_monomial(x.params, tup[leg]).terms.items():
            key = tup[:leg] + (g1, g2) + tup[leg + 1:]
            out[key] = out.get(key, 0j) + coeff * c
    return MultiElement(x.params, x.legs + 1, out)


def product_coproduct(x: MultiElement) -> MultiElement:
    """Coproduct of the direct square: two legs in, four legs out, ordered (A,B,A,B)."""
    _require_legs(x, 2)
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
    multi = isinstance(x, MultiElement)
    total = 0j
    for key, coeff in x.terms.items():
        if all(mono.m == 0 and mono.n == 0 for mono in (key if multi else (key,))):
            total += coeff
    return total


def product_counit(x: MultiElement) -> complex:
    """ε of the direct square, applied leg-wise."""
    _require_legs(x, 2)
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


def coinverse(x: Element) -> Element:
    """κ: the antihomomorphic coinverse (antipode)."""
    out: dict = {}
    for mono, coeff in x.terms.items():
        scale, mono2 = _coinverse_monomial(mono, x.params.q)
        out[mono2] = out.get(mono2, 0j) + coeff * scale
    return Element(x.params, out)


def coinverse_squared(x):
    """κ² as a homomorphism; acts diagonally on monomials, leg-wise on tensors."""
    q = x.params.q
    multi = isinstance(x, MultiElement)
    out = {}
    for key, coeff in x.terms.items():
        scale = 1.0  # 1.0·q^e is q^e exactly, so one leg keeps the bits of coeff·q^e
        for mono in (key if multi else (key,)):
            scale *= q ** (2 * (mono.n - mono.m))
        out[key] = out.get(key, 0j) + coeff * scale
    return MultiElement(x.params, x.legs, out) if multi else Element(x.params, out)


def product_coinverse(x: MultiElement) -> MultiElement:
    """κ of the direct square, applied leg-wise."""
    _require_legs(x, 2)
    q = x.params.q
    out: dict = {}
    for tup, coeff in x.terms.items():
        scale = 1.0
        monos = []
        for mono in tup:
            s, mono2 = _coinverse_monomial(mono, q)
            scale *= s
            monos.append(mono2)
        key = tuple(monos)
        out[key] = out.get(key, 0j) + coeff * scale
    return MultiElement(x.params, 2, out)


# -- transposition map ---------------------------------------------------------

def _theta_monomial(mono: Monomial, q: float):
    """θ = (adjoint ∘ κ) on a basis monomial as (real scale, monomial)."""
    return _theta_scale(mono, q), _theta_image(mono)


def _theta_scale(mono: Monomial, q: float) -> float:
    return (-1.0) ** (mono.m + mono.n) * q ** (mono.n - mono.m)


def _theta_image(mono: Monomial) -> Monomial:
    return _mono(mono.sector, mono.k, mono.n, mono.m)


def theta(x: Element) -> Element:
    """θ(x) = κ(x)*: an antilinear homomorphism (the transposition map)."""
    q = x.params.q
    out: dict = {}
    for mono, coeff in x.terms.items():
        scale, mono2 = _theta_monomial(mono, q)
        out[mono2] = out.get(mono2, 0j) + coeff.conjugate() * scale
    return Element(x.params, out)


def partial_theta(x: MultiElement, leg: int = 1) -> MultiElement:
    """Apply θ to one leg's basis monomials, leaving stored coefficients alone.

    θ itself is antilinear, so a leg-wise θ is only defined relative to the
    monomial basis; with this convention the image of a transformed density
    matrix is the transform of its partial transpose.
    """
    _require_theta_leg(x, leg)
    q = x.params.q
    out: dict = {}
    for tup, coeff in x.terms.items():
        scale, mono2 = _theta_monomial(tup[leg], q)
        key = (mono2, tup[1]) if leg == 0 else (tup[0], mono2)
        out[key] = out.get(key, 0j) + coeff * scale
    return MultiElement._trusted(x.params, 2, out)


def _require_theta_leg(x: MultiElement, leg: int):
    """The argument checks of `partial_theta`, in its order and with its messages."""
    _require_legs(x, 2)
    if leg not in (0, 1):
        raise ValueError("leg must be 0 or 1")
