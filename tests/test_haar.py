"""Haar state tests, anchored by an independent invariance-system oracle.

The oracle treats the state as an unknown linear functional on the basis of
monomials up to a degree cutoff, imposes both one-sided invariance
identities plus normalization as a linear system, and solves it by least
squares.  The closed form shipped in the package must coincide with the
solver's output on every basis monomial; several concrete values computed
by the oracle are frozen below.
"""

from fractions import Fraction

import numpy as np
import pytest

from qent.algebra import AlgebraParams, Element, Monomial, PLAIN
from qent.corep import fundamental_corep, product_catalog
from qent.entangle import NOT_POSITIVE_DEFINITE, POSITIVE_DEFINITE, pd_witness_value, ppt_check
from qent.fourier import forward, singlet_state, werner_state
from qent.haar import (
    convolve_check,
    haar,
    haar_monomial,
    invariance_residual,
    translated_haar_left,
    translated_haar_right,
)
from qent.hopf import MultiElement, coproduct, tensor
from qent.corep import product_corep
from qent.verify import monomials_up_to, random_element

from conftest import gens


def solve_invariance_system(params, max_degree):
    """Least-squares solution of the two-sided invariance equations for h."""
    basis = monomials_up_to(max_degree)
    index = {mono: i for i, mono in enumerate(basis)}
    unit = Monomial()
    rows, rhs = [], []

    for mono in basis:
        dx = coproduct(Element.monomial(params, mono))
        # (h x id) Delta x = h(x) 1: for every output monomial w on the free leg,
        # sum_v c_(v,w) h[v] - delta_(w,1) h[x] = 0, and symmetrically.
        for free_leg in (1, 0):
            grouped = {}
            for tup, coeff in dx.terms.items():
                contracted, free = tup[1 - free_leg], tup[free_leg]
                grouped.setdefault(free, []).append((contracted, coeff))
            for free, pairs in grouped.items():
                row = np.zeros(len(basis), dtype=complex)
                for contracted, coeff in pairs:
                    row[index[contracted]] += coeff
                if free == unit:
                    row[index[mono]] -= 1.0
                rows.append(row)
                rhs.append(0.0)

    norm_row = np.zeros(len(basis), dtype=complex)
    norm_row[index[unit]] = 1.0
    rows.append(norm_row)
    rhs.append(1.0)

    system = np.array(rows)
    solution, *_ = np.linalg.lstsq(system, np.array(rhs), rcond=None)
    assert np.max(np.abs(system @ solution - np.array(rhs))) < 1e-10, "invariance system inconsistent"

    # the homogeneous part must have a one-dimensional solution space
    sigma = np.linalg.svd(system[:-1], compute_uv=False)
    null_dim = int(np.sum(sigma <= 1e-10 * sigma[0])) + len(basis) - len(sigma)
    assert null_dim == 1, f"invariance system does not determine h (nullity {null_dim})"

    return {mono: solution[index[mono]] for mono in basis}


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 1.0])
def test_closed_form_matches_invariance_oracle(q):
    params = AlgebraParams(q=q)
    oracle = solve_invariance_system(params, max_degree=4)
    for mono, value in oracle.items():
        assert abs(value - haar_monomial(mono, params)) < 1e-9, f"{mono} at q={q}"


def test_frozen_oracle_values(params):
    # values computed (and re-checked here) with the invariance solver at q = 0.5
    oracle = solve_invariance_system(params, max_degree=4)
    cc = Monomial(PLAIN, 0, 1, 1)
    cc2 = Monomial(PLAIN, 0, 2, 2)
    assert abs(oracle[cc] - 0.4) < 1e-12
    assert abs(oracle[cc2] - 4.0 / 21.0) < 1e-12
    assert abs(haar_monomial(cc, params) - 0.4) < 1e-12
    assert abs(haar_monomial(cc2, params) - 4.0 / 21.0) < 1e-12


def test_haar_monomial_examples(params):
    a, astar, c, cstar = gens(params)
    assert haar(Element.unit(params)) == 1
    assert abs(haar(c * cstar) - 0.4) < 1e-12
    assert haar(a * (c * cstar)) == 0
    assert haar(astar) == 0
    assert abs(haar(c * cstar) * 0 + haar_monomial(Monomial(PLAIN, 0, 2, 1), params)) == 0


def test_haar_at_q_one():
    params = AlgebraParams(q=1.0)
    for m in range(6):
        mono = Monomial(PLAIN, 0, m, m)
        assert abs(haar_monomial(mono, params) - 1.0 / (m + 1)) < 1e-12


# q = 1 - 2^-k: the form q^m (1 - q²)/(1 - q^(2m+2)) lost about 2^-k of relative precision here
NEAR_ONE = tuple(1.0 - 2.0 ** -k for k in (10, 20, 28, 30, 40))


@pytest.mark.parametrize("q", NEAR_ONE)
def test_haar_monomial_keeps_its_precision_just_below_q_one(q):
    params = AlgebraParams(q=q)
    exact_q = Fraction(q)
    for m in range(7):
        exact = exact_q ** m / sum(exact_q ** (2 * j) for j in range(m + 1))
        got = haar_monomial(Monomial(PLAIN, 0, m, m), params)
        assert got.imag == 0.0 and abs(Fraction(got.real) - exact) <= Fraction(4e-16) * exact, m


@pytest.mark.parametrize("q", NEAR_ONE)
def test_werner_verdicts_just_below_q_one(q):
    catalog = product_catalog(AlgebraParams(q=q))
    U = catalog[3]
    for p, verdict in ((0.2, POSITIVE_DEFINITE), (0.6, NOT_POSITIVE_DEFINITE)):
        assert ppt_check(forward(werner_state(p), U), catalog).verdict == verdict, p


def test_haar_classical_limit_monte_carlo():
    """At q = 1 the state is integration over the classical group."""
    rng = np.random.default_rng(2024)
    samples = 200_000
    # Haar-random 2x2 unitaries via QR; |u_01|^2 integrates the monomial cc*
    z = (rng.normal(size=(samples, 2, 2)) + 1j * rng.normal(size=(samples, 2, 2))) / np.sqrt(2)
    qmat, rmat = np.linalg.qr(z)
    phases = np.diagonal(rmat, axis1=1, axis2=2).copy()
    phases /= np.abs(phases)
    u = qmat * phases[:, None, :]
    estimate = float(np.mean(np.abs(u[:, 0, 1]) ** 2))
    assert abs(estimate - 0.5) < 0.01
    assert abs(haar_monomial(Monomial(PLAIN, 0, 1, 1), AlgebraParams(q=1.0)) - 0.5) < 1e-12


def test_haar_multi_leg(params):
    a, astar, c, cstar = gens(params)
    assert haar(tensor(a, astar)) == 0
    assert abs(haar(tensor(c * cstar, c * cstar)) - 0.16) < 1e-12
    assert haar(MultiElement.unit(params, 2)) == 1


def test_translated_haar(params):
    a, astar, c, cstar = gens(params)
    one = Element.unit(params)
    left = tensor(a, one)
    right = tensor(astar, one)
    # h(aa*) = 1 - q*phi(1) = 0.8 at q = 0.5 (frozen from the invariance oracle)
    assert abs(translated_haar_left(left, right) - 0.8) < 1e-12
    assert abs(translated_haar_right(right, left) - 0.8) < 1e-12
    # h(a*a) = 1 - (1/q)*phi(1) = 0.2
    assert abs(translated_haar_left(right, left) - 0.2) < 1e-12
    x = tensor(c * cstar, one)
    assert abs(translated_haar_left(MultiElement.unit(params, 2), x) - haar(x)) < 1e-12
    assert abs(translated_haar_left(left, MultiElement.unit(params, 2))) < 1e-12


def test_translated_haar_leg_mismatch(params):
    with pytest.raises(ValueError):
        translated_haar_left(MultiElement.unit(params, 2), MultiElement.unit(params, 3))


def test_convolve_check_examples(params):
    one2 = MultiElement.unit(params, 2)
    assert abs(convolve_check(one2, one2) - 1.0) < 1e-12

    fund = fundamental_corep(params)
    U = product_corep(fund, fund)
    x = forward(singlet_state(), U)
    got = convolve_check(x, one2)
    expect = pd_witness_value(x, one2)
    assert abs(got - expect) < 1e-12

    # scaling the witness by i leaves the positivity sign unchanged (|i|^2 = 1)
    rng = np.random.default_rng(5)
    from qent.verify import random_multi_element

    for _ in range(10):
        b = random_multi_element(rng, params, max_degree=2)
        assert abs(convolve_check(x, b) - convolve_check(x, b * 1j)) < 1e-9


def test_convolution_equals_pd_pairing(params, rng):
    from qent.verify import random_multi_element

    for _ in range(15):
        a = random_multi_element(rng, params, max_degree=2)
        b = random_multi_element(rng, params, max_degree=2)
        assert abs(convolve_check(a, b) - pd_witness_value(a, b)) < 1e-9


def test_invariance_examples(params):
    a, astar, c, cstar = gens(params)
    assert invariance_residual(Element.unit(params)) == 0
    assert invariance_residual(c * cstar) < 1e-12
    assert invariance_residual(a) < 1e-12


@pytest.mark.parametrize("q", [0.3, 0.7, 1.0])
def test_invariance_degree_six(q):
    params = AlgebraParams(q=q)
    worst = max(
        invariance_residual(Element.monomial(params, mono))
        for mono in monomials_up_to(6)
    )
    assert worst < 1e-9


def test_gram_matrix_is_psd(params):
    basis = monomials_up_to(2)
    gram = np.empty((len(basis), len(basis)), dtype=complex)
    for i, mi in enumerate(basis):
        left = Element.monomial(params, mi).adjoint()
        for j, mj in enumerate(basis):
            gram[i, j] = haar(left * Element.monomial(params, mj))
    assert np.max(np.abs(gram - gram.conj().T)) < 1e-12
    assert np.linalg.eigvalsh((gram + gram.conj().T) / 2).min() >= -1e-10


def test_hermiticity(params, rng):
    for _ in range(25):
        x = random_element(rng, params, max_degree=3)
        assert abs(haar(x.adjoint()) - haar(x).conjugate()) < 1e-12


def test_orthogonality_consistency(params):
    fund = fundamental_corep(params)
    u12 = fund.entries[0][1]
    got = haar(u12 * u12.adjoint())
    expect = fund.F[1, 1] / np.trace(fund.F)
    assert abs(got - expect) < 1e-12


def test_positivity_of_state(params, rng):
    for _ in range(25):
        x = random_element(rng, params, max_degree=2)
        value = haar(x.adjoint() * x)
        assert abs(value.imag) < 1e-10
        assert value.real >= -1e-9
