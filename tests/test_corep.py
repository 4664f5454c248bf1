"""Corepresentation catalog: unitarity, intertwiners, orthogonality."""

import itertools

import numpy as np
import pytest

from qent.algebra import AlgebraParams, Element
from qent.corep import (
    Q_MIN,
    compute_F,
    engine,
    fundamental_corep,
    intertwiner_residual,
    orthogonality_check,
    product_catalog,
    product_corep,
    standard_catalog,
    trivial_corep,
    unitarity_residual,
)
from qent.haar import haar
from qent.hopf import tensor

from conftest import gens

QS = (0.2, 0.37, 0.64, 1.0)
# a log grid of q from the supported floor up to 1
FLOOR_GRID = tuple(float(q) for q in np.geomspace(Q_MIN, 1.0, 31))


def test_trivial_corep(params):
    triv = trivial_corep(params)
    assert triv.dim == 1
    assert triv.entries[0][0].equal(Element.unit(params))
    assert np.allclose(triv.F, [[1.0]])
    from qent.hopf import counit

    assert counit(triv.entries[0][0]) == 1


def test_fundamental_entries(params):
    fund = fundamental_corep(params)
    a, astar, c, cstar = gens(params)
    rq = np.sqrt(0.5)
    assert fund.entries[0][0].equal(a)
    assert fund.entries[0][1].equal(rq * c)
    assert fund.entries[1][0].equal((-1 / rq) * cstar)
    assert fund.entries[1][1].equal(astar)


def test_fundamental_unitarity(params):
    fund = fundamental_corep(params)
    assert unitarity_residual(fund) < 1e-9
    # row-1 identity spelled out: a a* + q c c* = 1
    a, astar, c, cstar = gens(params)
    row = a * astar + 0.5 * (c * cstar)
    assert row.equal(Element.unit(params))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0])
def test_computed_F(q):
    params = AlgebraParams(q=q)
    fund = fundamental_corep(params)
    assert np.max(np.abs(fund.F - np.diag([1.0 / q, q]))) < 1e-9
    assert abs(np.trace(fund.F) - np.trace(np.linalg.inv(fund.F))) < 1e-12
    assert abs(np.trace(fund.F) - (q + 1.0 / q)) < 1e-12


def test_the_closed_form_F_is_the_solved_intertwiner():
    for q in QS + FLOOR_GRID:
        params = AlgebraParams(q=q)
        fund = fundamental_corep(params)
        assert fund.F.tolist() == [[1.0 / q, 0.0], [0.0, q]]
        solved = compute_F(fund.entries, params)
        assert np.max(np.abs(solved - fund.F)) <= 1e-12 * np.linalg.norm(fund.F), q
        # the engine keeps its one solve
        assert engine(params).solved_F() is engine(params).solved_F()
        assert np.array_equal(engine(params).solved_F(), solved)


@pytest.mark.parametrize("q", QS)
def test_the_closed_form_F_intertwines_every_shipped_block(q):
    params = AlgebraParams(q=q)
    for U in [fundamental_corep(params), *product_catalog(params)]:
        assert intertwiner_residual(U) <= 1e-9, U.label


def test_an_engine_refuses_a_q_below_the_floor():
    assert fundamental_corep(AlgebraParams(q=Q_MIN)).F[1, 1] == Q_MIN
    for q in (0.999 * Q_MIN, 1e-100, 5e-324):
        with pytest.raises(ValueError, match="below the supported range"):
            engine(AlgebraParams(q=q))


def test_a_tol_that_prunes_the_fundamental_corep_is_refused():
    # √q·c falls to tol 0.3 at q = 0.04, and a·1 to tol 1; compute_F finds no intertwiner for either
    for q, tol in ((0.04, 0.3), (0.5, 1.0)):
        with pytest.raises(ValueError, match="prunes a coefficient of the fundamental corep"):
            fundamental_corep(AlgebraParams(q=q, tol=tol))
        params = AlgebraParams(q=q, tol=tol)
        pruned = tuple(tuple(Element(params, e.terms) for e in row)
                       for row in fundamental_corep(AlgebraParams(q=q)).entries)
        with pytest.raises(ValueError):
            compute_F(pruned, params)
    assert len(fundamental_corep(AlgebraParams(q=0.2, tol=0.3)).entries[0][1].terms) == 1


def test_F_identity_in_classical_limit():
    fund = fundamental_corep(AlgebraParams(q=1.0))
    assert np.max(np.abs(fund.F - np.eye(2))) < 1e-12


def test_compute_F_rejects_reducible(params):
    one = Element.unit(params)
    zero = Element.zero(params)
    reducible = ((one, zero), (zero, one))  # triv + triv
    with pytest.raises(ValueError):
        compute_F(reducible, params)


def test_intertwiner_residuals(params):
    triv = trivial_corep(params)
    fund = fundamental_corep(params)
    assert intertwiner_residual(triv) < 1e-12
    assert intertwiner_residual(fund) < 1e-12
    for U in product_catalog(params):
        assert intertwiner_residual(U) < 1e-9


def test_product_corep_structure(params):
    fund = fundamental_corep(params)
    triv = trivial_corep(params)
    U = product_corep(fund, fund)
    assert U.dim == 4
    assert np.allclose(U.F, np.diag([4.0, 1.0, 1.0, 0.25]))
    assert abs(np.trace(U.F) - 6.25) < 1e-12
    a = Element.generator(params, "a")
    assert U.entries[0][0].equal(tensor(a, a))
    TT = product_corep(triv, triv)
    assert TT.dim == 1
    assert TT.entries[0][0].equal(tensor(Element.unit(params), Element.unit(params)))


def test_product_corep_index_convention(params):
    """U_(ik),(jl) = u_ij tensor v_kl with rows (ik) = i*m + k."""
    fund = fundamental_corep(params)
    U = product_corep(fund, fund)
    for i, k, j, l in itertools.product(range(2), repeat=4):
        expect = tensor(fund.entries[i][j], fund.entries[k][l])
        assert U.entries[i * 2 + k][j * 2 + l].equal(expect)


def test_product_unitarity(params):
    for U in product_catalog(params):
        assert unitarity_residual(U) < 1e-9


def test_orthogonality_fundamental(params):
    fund = fundamental_corep(params)
    assert orthogonality_check(fund, fund) < 1e-9
    # h(u11* u11) = F^-1_11 / trF = 0.2 at q = 0.5
    u11 = fund.entries[0][0]
    assert abs(haar(u11.adjoint() * u11) - 0.2) < 1e-12


def test_orthogonality_cross_and_trivial(params):
    triv = trivial_corep(params)
    fund = fundamental_corep(params)
    assert orthogonality_check(fund, triv) < 1e-12
    assert orthogonality_check(triv, fund) < 1e-12
    assert orthogonality_check(triv, triv) < 1e-12
    one = triv.entries[0][0]
    assert abs(haar(one * one) - 1.0) < 1e-12


def test_orthogonality_product_pairs(params):
    products = product_catalog(params)
    for U, W in itertools.product(products, repeat=2):
        assert orthogonality_check(U, W) < 1e-9


def test_standard_catalog_and_labels(params):
    singles = standard_catalog(params)
    assert set(singles) == {"triv", "fund"}
    labels = [U.label for U in product_catalog(params)]
    assert labels == ["triv*triv", "triv*fund", "fund*triv", "fund*fund"]
    with pytest.raises(ValueError):
        product_catalog(params, ("spin1*spin1",))


def test_product_corep_params_mismatch():
    u = fundamental_corep(AlgebraParams(q=0.5))
    v = fundamental_corep(AlgebraParams(q=0.7))
    with pytest.raises(ValueError):
        product_corep(u, v)
