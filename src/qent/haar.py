"""The Haar state on the quantum SU(2) algebra and on its direct square.

The state h is the unique normalized two-sided invariant functional:
(h ⊗ id)Δx = h(x)·1 = (id ⊗ h)Δx.  On the normal-ordered basis it vanishes
unless the a-power is zero and the c and c* powers match, and

    h((cc*)^m) = q^m (1 - q²) / (1 - q^(2m+2))  =  q^m / Σ_{j=0..m} q^(2j),

computed in the second form, whose terms are all positive: the first
cancels as q → 1, the second is 1/(m + 1) at q = 1, the classical value.
It is validated in the test suite against an independent linear solver for
the invariance equations.  On multi-leg elements h acts as the product of
the per-leg values, which is what lets every two-leg pairing be assembled
from the single-leg values h(p·m) that `corep.pairing_tables` computes.
"""

from __future__ import annotations

import numpy as np

from .algebra import PLAIN, AlgebraParams, Monomial, _ElementCore, _checked_kind, _mono_adjoint, _mono_mul
from .hopf import (
    MultiElement,
    _coinverse_monomial,
    _coproduct_monomial,
    coproduct,
    product_coinverse,
    product_coproduct,
)

_UNIT_KEY = Monomial()


def haar_monomial(mono: Monomial, params: AlgebraParams) -> complex:
    """h on a single basis monomial."""
    if mono.k > 0 or mono.m != mono.n:
        return 0j
    q = params.q
    r = q * q
    # Σ_{j<n} r^j for n = m + 1, its bits read in turn: n → 2n takes it to S·(1 + r^n), n → n + 1 adds r^n
    total, power = 0.0, 1.0
    for bit in bin(mono.m + 1)[2:]:
        total, power = total * (1.0 + power), power * power
        if bit == "1":
            total, power = total + power, power * r
    return complex(q ** mono.m / total)


def haar(x) -> complex:
    """Linear extension of the per-monomial Haar value; product state on tensors.

    Each term's coefficient is multiplied by its legs' values in leg order,
    stopping at the first zero, and the terms are added onto 0j in order.
    """
    if not isinstance(x, _ElementCore):
        raise TypeError(f"haar() expects an Element or MultiElement, got {type(x)!r}")
    total = 0j
    for key, coeff in x.terms.items():
        value = coeff
        for mono in x.leg_monomials(key):
            value *= haar_monomial(mono, x.params)
            if not value:
                break
        total += value
    return total


# witness monomials indexed, and per-m matrices kept, by one PairingTables' Gram store
GRAM_SIZE = 64


class PairingTables:
    """Single-leg Haar pairings at one AlgebraParams, and a store of their Gram matrices.

    `leg(p, m)` is h(p·m) = Σ_w s·h(w) over the normal form p·m = Σ_w s·w,
    added in the normal form's order.  `convolution(m, p, p2)` is

        G(m; p, p2) = Σ_{Δm = a1 ⊗ a2} h(κ(a1)·p2*) · h(p·a2),

    the one-leg factor of the positive-definiteness pairing: for two-leg x
    and b = Σ_j β_j p_j ⊗ s_j the pairing is
    Σ x_(ma,mb) Σ_jk β_j conj(β_k) G(ma; p_j, p_k) G(mb; s_j, s_k).
    Both are computed afresh on every call from the cached monomial product
    and coproduct; `gram(m, monos)` is the matrix of G(m; p, p2) over p, p2
    in monos, the one store of these values.
    """

    __slots__ = ("params", "_gram_index", "_grams")

    def __init__(self, params: AlgebraParams):
        self.params = params
        self._gram_index, self._grams = {}, {}

    def leg(self, p: Monomial, m: Monomial) -> complex:
        params = self.params
        return sum((scale * h for mono, scale in _mono_mul(p, m, params.q)
                    if (h := haar_monomial(mono, params))), 0j)

    def convolution(self, m: Monomial, p: Monomial, p2: Monomial) -> complex:
        q = self.params.q
        adj_scale, p2_adj = _mono_adjoint(p2, q)
        value = 0j
        for (a1, a2), coeff in _coproduct_monomial(self.params, m).terms.items():
            kappa_scale, a1_kappa = _coinverse_monomial(a1, q)
            value += (coeff * kappa_scale * adj_scale
                      * self.leg(a1_kappa, p2_adj) * self.leg(p, a2))
        return value

    def gram(self, m: Monomial, monos) -> np.ndarray:
        """The matrix [[G(m; p, p2) for p2 in monos] for p in monos].

        It is sliced from one matrix per m over an index of the monomials
        asked for so far; an entry is NaN until it is first asked for and
        filled from `convolution`.  Witnesses of one algebra share few
        monomials, so the index stays small and the slices are cheap.  A
        call that would take the index or the matrices past `GRAM_SIZE`
        clears both first; one call's monomials are always indexed.
        """
        index, grams = self._gram_index, self._grams
        asked = dict.fromkeys(monos)
        if len(index.keys() | asked.keys()) > GRAM_SIZE or (m not in grams and len(grams) >= GRAM_SIZE):
            index.clear()
            grams.clear()
        for p in asked:
            index.setdefault(p, len(index))
        rows = np.fromiter((index[p] for p in monos), np.intp, len(monos))
        values = grams.get(m)
        size = len(index)
        if values is None or len(values) < size:
            grown = np.full((size, size), np.nan, dtype=complex)
            if values is not None:
                grown[:len(values), :len(values)] = values
            values = grams[m] = grown
        block = values[rows[:, None], rows]
        for i, j in zip(*np.nonzero(np.isnan(block))):
            block[i, j] = values[rows[i], rows[j]] = self.convolution(m, monos[i], monos[j])
        return block


def leg_support(p: Monomial, m: Monomial) -> bool:
    """Whether h(p·m) may be non-zero at some q: whether the charges of p and m cancel.

    Every rewriting rule keeps two charges additive: the signed a-power (k
    for a^k, -k for a*^k) and the c-power minus the c*-power.  h vanishes at
    every q unless both are zero, and is then non-zero on every monomial of
    p·m, so the answer costs no rewriting, whatever the exponents.
    """
    a_charge = (p.k if p.sector == PLAIN else -p.k) + (m.k if m.sector == PLAIN else -m.k)
    return a_charge == 0 and p.m - p.n + m.m - m.n == 0


def translated_haar_left(a, b) -> complex:
    """h(ab): the Haar value of the product, i.e. h translated by a on the left."""
    return haar(a * b)


def translated_haar_right(a, b) -> complex:
    """h(ba): the Haar value of the product in the opposite order."""
    return haar(b * a)


def convolve_check(a: MultiElement, b: MultiElement) -> complex:
    """((hb)* ∗ hb)(a): convolution of the translated functional with its involution.

    Here (η' ∗ η)(x) = (η' ⊗ η)Δx, with η(y) = h(by) and
    η*(y) = conj(η(κ(y)*)).  For every a and b this equals the
    positive-definiteness pairing computed in the entanglement module, which
    the tests cross-check.
    """
    for x in (a, b):
        _checked_kind(2, x)
    params = a.params
    total = 0j
    for (m0, m1, m2, m3), coeff in product_coproduct(a).terms.items():
        first = MultiElement(params, 2, {(m0, m1): 1.0})
        second = MultiElement(params, 2, {(m2, m3): 1.0})
        eta_star = haar(b * product_coinverse(first).adjoint()).conjugate()
        eta = haar(b * second)
        total += coeff * eta_star * eta
    return total


def invariance_residual(x: Element) -> float:
    """Deviation of both one-sided Haar contractions of Δx from h(x)·1."""
    params = x.params
    hx = haar(x)
    left: dict = {}
    right: dict = {}
    for (m0, m1), coeff in coproduct(x).terms.items():
        h0 = haar_monomial(m0, params)
        if h0:
            left[m1] = left.get(m1, 0j) + coeff * h0
        h1 = haar_monomial(m1, params)
        if h1:
            right[m0] = right.get(m0, 0j) + coeff * h1
    residual = 0.0
    for contracted in (left, right):
        keys = set(contracted) | {_UNIT_KEY}
        for key in keys:
            expect = hx if key == _UNIT_KEY else 0j
            residual = max(residual, abs(contracted.get(key, 0j) - expect))
    return residual
