"""Transform, inverse, reconstruction and support tests."""

import numpy as np
import pytest

from qent.algebra import AlgebraParams, Element, Monomial, PLAIN, STAR
from qent.corep import fundamental_corep, product_catalog, trivial_corep
from qent.fourier import (
    DensityOp,
    forward,
    inverse,
    maximally_mixed,
    normalization_check,
    product_basis_projector,
    reconstruct,
    singlet_state,
    support_residual,
    werner_state,
)
from qent.hopf import MultiElement, partial_theta, tensor
from qent.verify import random_hermitian

from conftest import gens

A = Monomial(PLAIN, 1, 0, 0)
ASTAR = Monomial(STAR, 1, 0, 0)
C = Monomial(PLAIN, 0, 1, 0)
CSTAR = Monomial(PLAIN, 0, 0, 1)


@pytest.fixture
def U(params):
    return product_catalog(params, ("fund*fund",))[0]


@pytest.fixture
def catalog(params):
    return product_catalog(params)


def test_densityop_validation():
    with pytest.raises(ValueError):
        DensityOp((2, 2), np.eye(3))
    with pytest.raises(ValueError):
        DensityOp((0, 2), np.zeros((0, 0)))
    rho = singlet_state()
    assert rho.is_state(1e-12)
    assert rho.dims == (2, 2)
    assert abs(rho.trace() - 1) < 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
def test_non_finite_operators_are_rejected(U, bad):
    mat = np.eye(4, dtype=complex) / 4.0
    mat[1, 2] = bad
    with pytest.raises(ValueError):
        DensityOp((2, 2), mat)
    with pytest.raises(ValueError):
        forward(mat, U)


def test_forward_refuses_a_coefficient_whose_modulus_overflows(U):
    mat = np.eye(4, dtype=complex) / 4.0
    mat[1, 2] = complex(1.5e308, 1.5e308)
    rho = DensityOp((2, 2), mat)  # every entry is finite
    with pytest.raises(ValueError, match="not finite"):
        forward(rho, U)


def test_forward_singlet(params, U):
    x = forward(singlet_state(), U)
    expect = MultiElement(params, 2, {
        (A, ASTAR): 0.5, (ASTAR, A): 0.5, (C, CSTAR): 0.5, (CSTAR, C): 0.5,
    })
    assert x.distance(expect) < 1e-12


def test_forward_maximally_mixed(params, U):
    x = forward(maximally_mixed(), U)
    a, astar, c, cstar = gens(params)
    expect = tensor(a + astar, a + astar) * 0.25
    assert x.distance(expect) < 1e-12


def test_forward_zero_and_linearity(params, U, rng):
    assert forward(np.zeros((4, 4)), U).is_zero()
    rho, sigma = random_hermitian(rng, 4), random_hermitian(rng, 4)
    lhs = forward(0.3 * rho + 2j * sigma, U)
    rhs = forward(rho, U) * 0.3 + forward(sigma, U) * 2j
    assert lhs.distance(rhs) < 1e-9


def test_forward_dimension_mismatch(params, U):
    with pytest.raises(ValueError):
        forward(np.eye(3), U)


def test_inverse_roundtrip_singlet(params, U):
    rho = singlet_state()
    x = forward(rho, U)
    M = inverse(x, U)
    sqrtF = np.diag(np.sqrt(np.diagonal(U.F)))
    recovered = np.trace(U.F) * (sqrtF @ M @ sqrtF)
    assert np.max(np.abs(recovered - rho.matrix)) < 1e-8


def test_inverse_block_orthogonality(params, U, catalog):
    one2 = MultiElement.unit(params, 2)
    assert np.max(np.abs(inverse(one2, U))) < 1e-12
    TT = next(c for c in catalog if c.label == "triv*triv")
    assert np.allclose(inverse(one2, TT), [[1.0]])


def test_reconstruct_examples(params, U):
    rho = singlet_state()
    assert np.max(np.abs(reconstruct(forward(rho, U), U) - rho.matrix)) < 1e-8
    mixed = maximally_mixed()
    assert np.max(np.abs(reconstruct(forward(mixed, U), U) - mixed.matrix)) < 1e-8
    assert np.max(np.abs(reconstruct(MultiElement.zero(params, 2), U))) < 1e-12


@pytest.mark.parametrize("q", [0.5, 1.0])
def test_roundtrip_random_hermitians(q):
    params = AlgebraParams(q=q)
    U = product_catalog(params, ("fund*fund",))[0]
    rng = np.random.default_rng(77)
    for _ in range(30):
        rho = random_hermitian(rng, 4)
        x = forward(rho, U)
        assert np.max(np.abs(reconstruct(x, U) - rho)) < 1e-8
        assert abs(normalization_check(x) - np.trace(rho)) < 1e-10


def test_normalization_examples(params, U):
    assert abs(normalization_check(forward(singlet_state(), U)) - 1.0) < 1e-12
    doubled = forward(2 * maximally_mixed().matrix, U)
    assert abs(normalization_check(doubled) - 2.0) < 1e-12
    x = MultiElement(params, 2, {
        (A, ASTAR): 0.5, (ASTAR, A): 0.5, (C, CSTAR): 0.5, (CSTAR, C): 0.5,
    })
    assert abs(normalization_check(x) - 1.0) < 1e-12


def test_support_residual(params, U, catalog):
    x = forward(singlet_state(), U)
    assert support_residual(x, [U]) < 1e-9
    assert support_residual(x, catalog) < 1e-9
    bumped = x + MultiElement.unit(params, 2)
    assert abs(support_residual(bumped, [U]) - 1.0) < 1e-9
    assert support_residual(MultiElement.zero(params, 2), catalog) < 1e-12
    # a spin-1 component is outside the span of the shipped catalog
    c = Element.generator(params, "c")
    cstar = Element.generator(params, "c*")
    outside = tensor(c * cstar, Element.unit(params))
    assert support_residual(outside, catalog) > 0.1


def test_partial_transpose_correspondence(params, U, rng):
    for _ in range(20):
        rho = random_hermitian(rng, 4)
        pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert partial_theta(forward(rho, U)).distance(forward(pt, U)) < 1e-10


def test_transform_blocks_of_hermitians_are_hermitian(params, U, rng):
    # the element itself need not be self-adjoint, but its inverse-transform
    # block inherits hermiticity from the operator
    for _ in range(10):
        rho = random_hermitian(rng, 4)
        block = inverse(forward(rho, U), U)
        assert np.max(np.abs(block - block.conj().T)) < 1e-10


def test_single_factor_transform(params):
    fund = fundamental_corep(params)
    a, astar, c, cstar = gens(params)
    assert forward(np.array([[1, 0], [0, 0]]), fund).equal(a)
    assert forward(np.array([[0, 0], [0, 1]]), fund).equal(astar)
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_hermitian(rng, 2)
        x = forward(rho, fund)
        assert np.max(np.abs(reconstruct(x, fund) - rho)) < 1e-9
    triv = trivial_corep(params)
    one = Element.unit(params)
    assert np.allclose(inverse(one, triv), [[1.0]])
    assert np.max(np.abs(inverse(one, fund))) < 1e-12
    assert support_residual(x + 3 * one, (triv, fund)) < 1e-9


def test_sqrt_pair_general_positive_matrix(rng):
    from qent.fourier import _sqrt_pair

    raw = rng.normal(size=(3, 3))
    F = raw @ raw.T + 3 * np.eye(3)
    root, inv_root = _sqrt_pair(F)
    assert np.max(np.abs(root @ root - F)) < 1e-12
    assert np.max(np.abs(inv_root @ inv_root - np.linalg.inv(F))) < 1e-12
    with pytest.raises(ValueError):
        _sqrt_pair(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_reference_states():
    s = singlet_state()
    assert np.allclose(np.linalg.eigvalsh(s.matrix), [0, 0, 0, 1])
    w = werner_state(1.0 / 3.0)
    assert w.is_state(1e-12)
    with pytest.raises(ValueError):
        werner_state(1.5)
    p = product_basis_projector(0, 1)
    assert p.matrix[1, 1] == 1.0 and np.trace(p.matrix) == 1.0
    with pytest.raises(ValueError):
        product_basis_projector(2, 0)
