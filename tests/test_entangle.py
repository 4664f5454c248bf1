"""Positive definiteness, witnesses, separability and the PPT criterion."""

import numpy as np
import pytest

from qent.algebra import AlgebraParams, Element
from qent.corep import fundamental_corep, product_catalog, standard_catalog
from qent.entangle import (
    EIG_TOL,
    ENTANGLED,
    NOT_POSITIVE_DEFINITE,
    POSITIVE_DEFINITE,
    SEPARABLE,
    UNDECIDED_SUPPORT,
    decide_separability_2x2,
    find_negative_witness,
    is_positive_definite,
    is_positive_definite_single,
    partial_transpose,
    pd_witness_value,
    ppt_check,
    ppt_matrix,
    separable_build,
    tensor_pd,
)
from qent.fourier import (
    DensityOp,
    forward,
    maximally_mixed,
    product_basis_projector,
    reconstruct,
    singlet_state,
    werner_state,
)
from qent.hopf import MultiElement, partial_theta, tensor
from qent.verify import random_hermitian, random_pd_element, random_psd, random_state

@pytest.fixture
def U(params):
    return product_catalog(params, ("fund*fund",))[0]


@pytest.fixture
def catalog(params):
    return product_catalog(params)


@pytest.fixture
def singles(params):
    return tuple(standard_catalog(params).values())


def test_pd_witness_value_examples(params, U):
    one2 = MultiElement.unit(params, 2)
    assert abs(pd_witness_value(one2, one2) - 1.0) < 1e-12
    x = forward(singlet_state(), U)
    value = pd_witness_value(x, one2)
    assert abs(value.imag) < 1e-12
    assert value.real >= -1e-9


def test_pd_witness_value_leg_checks(params):
    one2 = MultiElement.unit(params, 2)
    with pytest.raises(ValueError):
        pd_witness_value(one2, MultiElement.unit(params, 3))
    with pytest.raises(ValueError):
        pd_witness_value(Element.unit(params), one2)


def test_is_positive_definite_singlet(params, U, catalog):
    report = is_positive_definite(forward(singlet_state(), U), catalog)
    assert report.verdict == POSITIVE_DEFINITE
    assert report.support_residual < 1e-9
    assert all(v >= -EIG_TOL for v in report.per_block.values())


def test_is_positive_definite_npt(params, U, catalog):
    x = partial_theta(forward(singlet_state(), U))
    report = is_positive_definite(x, catalog)
    assert report.verdict == NOT_POSITIVE_DEFINITE
    assert report.per_block["fund*fund"] < -1e-6
    assert report.witness is not None
    value = pd_witness_value(x, report.witness)
    assert value.real < -1e-9
    assert abs(value.imag) < 1e-9


def test_is_positive_definite_trivial(params):
    TT = product_catalog(params, ("triv*triv",))
    report = is_positive_definite(MultiElement.unit(params, 2), TT)
    assert report.verdict == POSITIVE_DEFINITE
    assert report.per_block["triv*triv"] == pytest.approx(1.0)


def test_undecided_support(params, catalog):
    c = Element.generator(params, "c")
    cstar = Element.generator(params, "c*")
    x = tensor(c * cstar, Element.unit(params))
    report = is_positive_definite(x, catalog)
    assert report.verdict == UNDECIDED_SUPPORT
    assert report.support_residual > 0.1
    assert report.witness is None


def test_find_negative_witness(params, U):
    x = partial_theta(forward(singlet_state(), U))
    b = find_negative_witness(x, U)
    assert b is not None
    assert pd_witness_value(x, b).real < -1e-9
    assert find_negative_witness(forward(singlet_state(), U), U) is None
    assert find_negative_witness(forward(maximally_mixed(), U), U) is None


def test_find_negative_witness_refuses_a_block_of_the_wrong_shape(params, U):
    x = partial_theta(forward(werner_state(0.6), U))
    assert find_negative_witness(x, U) is not None
    # unchecked, a PSD block of the wrong shape would give no witness, and a negative one would fail in numpy
    for block in (np.zeros((2, 2)), -np.eye(2), np.zeros(16)):
        with pytest.raises(ValueError, match=r"block has shape .*, fund\*fund needs \(4, 4\)"):
            find_negative_witness(x, U, block=block)


def test_single_factor_pd(params, singles):
    fund = fundamental_corep(params)
    a = forward(np.array([[1, 0], [0, 0]]), fund)
    report = is_positive_definite_single(a, singles)
    assert report.verdict == POSITIVE_DEFINITE
    sigma = forward(np.diag([1.0, -0.5]), fund)
    report = is_positive_definite_single(sigma, singles)
    assert report.verdict == NOT_POSITIVE_DEFINITE
    c = Element.generator(params, "c")
    report = is_positive_definite_single(c * c.adjoint(), singles)
    assert report.verdict == UNDECIDED_SUPPORT


def test_separable_build_product_state(params, U, singles):
    fund = fundamental_corep(params)
    ket0 = forward(np.array([[1, 0], [0, 0]]), fund)
    ket1 = forward(np.array([[0, 0], [0, 1]]), fund)
    element = separable_build([(1.0, ket0, ket1)], singles)
    recon = reconstruct(element, U)
    assert np.max(np.abs(recon - product_basis_projector(0, 1).matrix)) < 1e-9


def test_separable_build_convexity(params, singles):
    one = Element.unit(params)
    element = separable_build([(0.5, one, one), (0.5, one, one)], singles)
    assert element.equal(MultiElement.unit(params, 2))


def test_separable_build_passes_ppt(params, catalog, singles, rng):
    terms = [
        (0.3, random_pd_element(rng, params), random_pd_element(rng, params)),
        (0.7, random_pd_element(rng, params), random_pd_element(rng, params)),
    ]
    mixture = separable_build(terms, singles)
    assert ppt_check(mixture, catalog).verdict == POSITIVE_DEFINITE


def test_separable_build_rejects_bad_input(params, singles):
    one = Element.unit(params)
    with pytest.raises(ValueError):
        separable_build([(-0.1, one, one)], singles)
    fund = fundamental_corep(params)
    bad = forward(np.diag([1.0, -1.0]), fund)
    with pytest.raises(ValueError):
        separable_build([(1.0, bad, one)], singles)
    with pytest.raises(ValueError):
        separable_build([], singles)


def test_ppt_check_examples(params, U, catalog):
    assert ppt_check(forward(singlet_state(), U), catalog).verdict == NOT_POSITIVE_DEFINITE
    assert ppt_check(MultiElement.unit(params, 2), catalog).verdict == POSITIVE_DEFINITE


def test_ppt_matrix_examples():
    report = ppt_matrix(singlet_state())
    assert not report.psd
    assert np.allclose(sorted(report.eigenvalues), [-0.5, 0.5, 0.5, 0.5], atol=1e-9)
    assert ppt_matrix(maximally_mixed()).psd
    assert np.allclose(ppt_matrix(maximally_mixed()).eigenvalues, 0.25)
    assert ppt_matrix(product_basis_projector(0, 1)).psd
    with pytest.raises(ValueError):
        ppt_matrix(DensityOp((2, 2), np.diag([1j, 0, 0, 0])))


def test_partial_transpose_both_legs(rng):
    rho = random_hermitian(rng, 4)
    pt2 = partial_transpose(rho, (2, 2), leg=1)
    pt1 = partial_transpose(rho, (2, 2), leg=0)
    assert np.allclose(pt1, pt2.T)
    assert np.allclose(partial_transpose(pt2, (2, 2), leg=1), rho)


def test_partial_transpose_refuses_a_leg_other_than_0_or_1(rng):
    rho = random_hermitian(rng, 4)
    for leg in (2, -1, 1.5, None):
        with pytest.raises(ValueError, match="leg must be 0 or 1"):
            partial_transpose(rho, (2, 2), leg=leg)


@pytest.mark.parametrize("q", (0.3, 0.5, 1.0))
def test_the_witness_does_not_follow_the_eigenvector_phase(q, monkeypatch):
    """eigh may return each eigenvector times any phase; the witness is the same up to rounding.

    The eigenvectors are also moved in their last bits, later components
    outgrowing earlier ones.  The failing eigenvector of the state
    (|00⟩ + |11⟩)/√2 has two components of equal modulus and opposite
    sign, so the phase must come from the first of them, not from
    whichever rounding makes larger.
    """
    params = AlgebraParams(q=q)
    catalog = product_catalog(params)
    rng = np.random.default_rng(31)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    mats = [np.outer(bell, bell), singlet_state().matrix, werner_state(0.6).matrix]
    mats += [random_psd(rng, 4) for _ in range(6)]
    xs = [partial_theta(forward(mat, catalog[3])) for mat in mats]
    plain = [is_positive_definite(x, catalog).witness for x in xs]
    assert all(witness is not None for witness in plain[:3])
    eigh = np.linalg.eigh
    for phase in (0.7, np.pi, -2.0):
        def rotated(a, phase=phase):
            vals, vecs = eigh(a)
            n = vecs.shape[1]
            return vals, vecs * np.exp(1j * phase * np.arange(1, n + 1)) * (1.0 + 1e-15 * np.arange(n))[:, None]

        monkeypatch.setattr(np.linalg, "eigh", rotated)
        for x, expect in zip(xs, plain):
            got = is_positive_definite(x, catalog).witness
            if expect is None:
                assert got is None
                continue
            assert list(got.terms) == list(expect.terms)
            size = max(abs(c) for c in expect.terms.values())
            assert max(abs(got.terms[k] - c) for k, c in expect.terms.items()) <= 1e-12 * size
            assert pd_witness_value(x, got).real < 0


def test_tensor_pd(params, singles):
    fund = fundamental_corep(params)
    a = forward(np.array([[1, 0], [0, 0]]), fund)
    b = forward(np.eye(2) / 2, fund)
    product, certificate = tensor_pd(a, b, singles)
    assert product.equal(tensor(a, b))
    assert min(certificate["product"].values()) >= -EIG_TOL
    one = Element.unit(params)
    product, certificate = tensor_pd(one, one, singles)
    assert product.equal(MultiElement.unit(params, 2))
    bad = forward(np.diag([1.0, -1.0]), fund)
    with pytest.raises(ValueError):
        tensor_pd(bad, one, singles)


def test_tensor_pd_blocks_are_kronecker(params, singles, rng):
    from qent.corep import product_corep
    from qent.fourier import inverse

    a = random_pd_element(rng, params)
    b = random_pd_element(rng, params)
    product, _ = tensor_pd(a, b, singles)
    for u in singles:
        for v in singles:
            U = product_corep(u, v)
            block = inverse(product, U)
            kron = np.kron(inverse(a, u), inverse(b, v))
            assert np.max(np.abs(block - kron)) < 1e-9


def test_decide_separability(params):
    assert decide_separability_2x2(singlet_state()) == ENTANGLED
    half_half = DensityOp((2, 2), 0.5 * product_basis_projector(0, 1).matrix
                          + 0.5 * product_basis_projector(1, 0).matrix)
    assert decide_separability_2x2(half_half) == SEPARABLE
    assert decide_separability_2x2(werner_state(1.0 / 3.0)) == SEPARABLE
    assert decide_separability_2x2(werner_state(0.5)) == ENTANGLED
    with pytest.raises(ValueError):
        decide_separability_2x2(DensityOp((1, 4), np.eye(4) / 4))
    with pytest.raises(ValueError):
        decide_separability_2x2(DensityOp((2, 2), np.diag([1.0, 1.0, 0, 0])))  # trace 2


def test_werner_threshold(params):
    low = werner_state(1.0 / 3.0 - 0.05)
    high = werner_state(1.0 / 3.0 + 0.05)
    assert decide_separability_2x2(low) == SEPARABLE
    assert decide_separability_2x2(high) == ENTANGLED


def test_psd_operator_iff_pd_transform(params, U, catalog, rng):
    for idx in range(30):
        rho = random_psd(rng, 4) if idx % 2 == 0 else random_hermitian(rng, 4)
        psd = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -EIG_TOL
        report = is_positive_definite(forward(rho, U), catalog)
        assert psd == (report.verdict == POSITIVE_DEFINITE)
        if report.verdict == NOT_POSITIVE_DEFINITE:
            assert pd_witness_value(forward(rho, U), report.witness).real < -1e-9


def test_pd_transform_vs_random_witnesses(params, U, rng):
    from qent.verify import random_witness

    x = forward(random_psd(rng, 4), U)
    nonzero = 0
    for _ in range(25):
        b = random_witness(rng, params)
        value = pd_witness_value(x, b)
        assert value.real >= -1e-9
        assert abs(value.imag) < 1e-9
        if abs(value) > 1e-6:
            nonzero += 1
    assert nonzero > 10  # the witnesses genuinely probe the pairing


def test_nonhermitian_block_is_not_positive_definite(params, U, catalog):
    coeffs = np.zeros((4, 4), dtype=complex)
    coeffs[0, 0] = coeffs[1, 1] = coeffs[0, 1] = 1.0  # PSD hermitian part, non-hermitian block
    x = forward(coeffs, U)
    report = is_positive_definite(x, catalog)
    assert report.verdict == NOT_POSITIVE_DEFINITE
    # a witness aligned with the block exposes a non-real pairing value
    beta = np.array([1.0, 1j, 0.0, 0.0])
    b = MultiElement.zero(params, 2)
    for col in range(4):
        if beta[col]:
            b = b + U.entries[0][col].adjoint() * complex(beta[col])
    assert abs(pd_witness_value(x, b).imag) > 1e-6


def test_matrix_and_algebra_ppt_agree(params, U, catalog, rng):
    corpus = [singlet_state(), werner_state(0.2), werner_state(1.0 / 3.0), werner_state(0.6)]
    corpus += [random_state(rng) for _ in range(15)]
    for rho in corpus:
        matrix_side = ppt_matrix(rho).psd
        algebra_side = ppt_check(forward(rho, U), catalog).verdict == POSITIVE_DEFINITE
        assert matrix_side == algebra_side


def test_transfer_to_matrices(params, U, singles, rng):
    terms = [
        (0.4, random_pd_element(rng, params), random_pd_element(rng, params)),
        (0.6, random_pd_element(rng, params), random_pd_element(rng, params)),
    ]
    mixture = separable_build(terms, singles)
    mat = reconstruct(mixture, U)
    state = DensityOp((2, 2), mat / np.trace(mat).real)
    assert decide_separability_2x2(state) == SEPARABLE


def test_theta_on_first_leg_agrees(params, U, catalog, rng):
    corpus = [singlet_state(), werner_state(0.2), werner_state(0.6)]
    corpus += [random_state(rng) for _ in range(5)]
    for rho in corpus:
        x = forward(rho, U)
        assert (ppt_check(x, catalog, leg=0).verdict
                == ppt_check(x, catalog, leg=1).verdict)
