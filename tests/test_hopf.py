"""Hopf structure maps, multi-leg elements, and the transposition map."""

import pytest

from qent.algebra import Element, Monomial, PLAIN, STAR
from qent.corep import fundamental_corep, product_corep
from qent.hopf import (
    MultiElement,
    apply_coproduct_leg,
    coinverse,
    coinverse_squared,
    coproduct,
    counit,
    partial_theta,
    product_coinverse,
    product_coproduct,
    product_counit,
    tensor,
    theta,
)
from qent.verify import random_element

from conftest import gens

A = Monomial(PLAIN, 1, 0, 0)
ASTAR = Monomial(STAR, 1, 0, 0)
C = Monomial(PLAIN, 0, 1, 0)
CSTAR = Monomial(PLAIN, 0, 0, 1)
ONE = Monomial()


def me(params, legs, terms):
    return MultiElement(params, legs, terms)


def test_coproduct_on_generators(params):
    # forced by the comultiplication rule for the fundamental matrix
    assert coproduct(Element.generator(params, "a")).equal(
        me(params, 2, {(A, A): 1.0, (C, CSTAR): -1.0})
    )
    assert coproduct(Element.unit(params)).equal(MultiElement.unit(params, 2))
    assert coproduct(Element.generator(params, "a*")).equal(
        me(params, 2, {(ASTAR, ASTAR): 1.0, (CSTAR, C): -1.0})
    )
    assert coproduct(Element.generator(params, "c")).equal(
        me(params, 2, {(A, C): 1.0, (C, ASTAR): 1.0})
    )


def test_coproduct_is_star_homomorphic(params, rng):
    for _ in range(25):
        x = random_element(rng, params, max_degree=2)
        y = random_element(rng, params, max_degree=2)
        assert coproduct(x * y).distance(coproduct(x) * coproduct(y)) < 1e-9
        assert coproduct(x.adjoint()).distance(coproduct(x).adjoint()) < 1e-9


def test_counit_examples(params):
    a, astar, c, cstar = gens(params)
    assert counit(a) == 1
    assert counit(c) == 0
    assert abs(counit(a * a - 3 * (c * cstar)) - 1.0) < 1e-12


def test_coinverse_examples(params):
    a, astar, c, cstar = gens(params)
    assert coinverse(c).equal(-2.0 * c)  # -(1/q) c at q = 0.5
    assert coinverse(Element.unit(params)).equal(Element.unit(params))
    assert coinverse(a * c).equal(-(astar * c))
    assert coinverse(a).equal(astar)
    assert coinverse(cstar).equal(-0.5 * cstar)


def test_coinverse_is_antihomomorphic(params, rng):
    for _ in range(25):
        x = random_element(rng, params, max_degree=2)
        y = random_element(rng, params, max_degree=2)
        assert coinverse(x * y).distance(coinverse(y) * coinverse(x)) < 1e-9


def test_coinverse_squared_examples(params):
    a, astar, c, cstar = gens(params)
    assert coinverse_squared(c).equal(4.0 * c)      # q^-2 c
    assert coinverse_squared(a).equal(a)
    assert coinverse_squared(cstar).equal(0.25 * cstar)  # q^2 c*
    x = a * c + 2j * cstar
    assert coinverse_squared(x).equal(coinverse(coinverse(x)))


def test_product_coproduct_examples(params):
    a, astar, c, cstar = gens(params)
    one2 = MultiElement.unit(params, 2)
    assert product_coproduct(one2).equal(MultiElement.unit(params, 4))
    got = product_coproduct(tensor(a, Element.unit(params)))
    expect = me(params, 4, {(A, ONE, A, ONE): 1.0, (C, ONE, CSTAR, ONE): -1.0})
    assert got.equal(expect)


def test_product_coproduct_comultiplication_rule(params):
    fund = fundamental_corep(params)
    U = product_corep(fund, fund)
    for row in range(4):
        for col in range(4):
            lhs = product_coproduct(U.entries[row][col])
            terms = {}
            for mid in range(4):
                for tup, coeff in tensor(U.entries[row][mid], U.entries[mid][col]).terms.items():
                    terms[tup] = terms.get(tup, 0j) + coeff
            assert lhs.distance(MultiElement(params, 4, terms)) < 1e-9


def test_product_coproduct_requires_two_legs(params):
    with pytest.raises(ValueError):
        product_coproduct(MultiElement.unit(params, 3))


def test_product_counit_and_coinverse(params):
    a, astar, c, cstar = gens(params)
    assert abs(product_counit(tensor(a, astar)) - 1.0) < 1e-12
    assert abs(product_counit(tensor(c, a))) < 1e-12
    fund = fundamental_corep(params)
    U = product_corep(fund, fund)
    for row in range(4):
        for col in range(4):
            got = product_coinverse(U.entries[row][col])
            expect = U.entries[col][row].adjoint()
            assert got.distance(expect) < 1e-12
    with pytest.raises(ValueError):
        product_counit(MultiElement.unit(params, 3))
    with pytest.raises(ValueError):
        product_coinverse(MultiElement.unit(params, 4))


def test_theta_examples(params):
    a, astar, c, cstar = gens(params)
    assert theta(a).equal(a)
    assert theta(c).equal(-2.0 * cstar)  # -(1/q) c*
    fund = fundamental_corep(params)
    for i in range(2):
        for j in range(2):
            assert theta(fund.entries[i][j]).equal(fund.entries[j][i])


def test_theta_is_composition_of_coinverse_and_adjoint(params, rng):
    for _ in range(20):
        x = random_element(rng, params, max_degree=3)
        assert theta(x).distance(coinverse(x).adjoint()) < 1e-12


def test_theta_is_an_antilinear_homomorphism(params, rng):
    for _ in range(20):
        x = random_element(rng, params, max_degree=2)
        y = random_element(rng, params, max_degree=2)
        assert theta(x * y).distance(theta(x) * theta(y)) < 1e-9
        lam = complex(rng.normal(), rng.normal())
        assert theta(x * lam).distance(theta(x) * lam.conjugate()) < 1e-10


def test_theta_squares_to_identity_on_generators(params):
    for g in gens(params):
        assert theta(theta(g)).equal(g)


def test_partial_theta_examples(params):
    a, astar, c, cstar = gens(params)
    got = partial_theta(tensor(a, c))
    assert got.equal(tensor(a, cstar) * -2.0)  # theta(c) = -(1/q) c*
    one2 = MultiElement.unit(params, 2)
    assert partial_theta(one2).equal(one2)
    # the singlet transform maps to half(a x a* + a* x a - q c x c - (1/q) c* x c*)
    transform = me(params, 2, {(A, ASTAR): 0.5, (ASTAR, A): 0.5, (C, CSTAR): 0.5, (CSTAR, C): 0.5})
    expect = me(params, 2, {(A, ASTAR): 0.5, (ASTAR, A): 0.5, (C, C): -0.25, (CSTAR, CSTAR): -1.0})
    assert partial_theta(transform).equal(expect)


def test_partial_theta_first_leg(params):
    a, astar, c, cstar = gens(params)
    got = partial_theta(tensor(c, a), leg=0)
    assert got.equal(tensor(cstar, a) * -2.0)
    with pytest.raises(ValueError):
        partial_theta(tensor(c, a), leg=2)


def test_coassociativity(params, rng):
    corpus = [Element.generator(params, g) for g in ("a", "a*", "c", "c*")]
    corpus += [random_element(rng, params, max_degree=3) for _ in range(50)]
    for x in corpus:
        dx = coproduct(x)
        left = apply_coproduct_leg(dx, 0)
        right = apply_coproduct_leg(dx, 1)
        assert left.distance(right) < 1e-9


def test_counit_law(params, rng):
    for _ in range(30):
        x = random_element(rng, params, max_degree=3)
        dx = coproduct(x)
        left = Element(params, {
            m1: sum(c for (m0, m1b), c in dx.terms.items()
                    if m1b == m1 and m0.m == 0 and m0.n == 0)
            for m1 in {t[1] for t in dx.terms}
        })
        right = Element(params, {
            m0: sum(c for (m0b, m1), c in dx.terms.items()
                    if m0b == m0 and m1.m == 0 and m1.n == 0)
            for m0 in {t[0] for t in dx.terms}
        })
        assert left.distance(x) < 1e-9
        assert right.distance(x) < 1e-9


def test_antipode_law_on_fundamental(params):
    fund = fundamental_corep(params)
    one = Element.unit(params)
    zero = Element.zero(params)
    for i in range(2):
        for j in range(2):
            target = one if i == j else zero
            lhs = sum((coinverse(fund.entries[i][r]) * fund.entries[r][j] for r in range(2)),
                      start=zero)
            rhs = sum((fund.entries[i][r] * coinverse(fund.entries[r][j]) for r in range(2)),
                      start=zero)
            assert lhs.distance(target) < 1e-9
            assert rhs.distance(target) < 1e-9


def test_anti_comultiplicativity_of_coinverse(params):
    for g in gens(params):
        lhs = coproduct(coinverse(g))
        flipped = MultiElement(params, 2,
                               {(m1, m0): c for (m0, m1), c in coproduct(g).terms.items()})
        assert lhs.distance(product_coinverse(flipped)) < 1e-12


def test_multielement_arithmetic(params):
    a, astar, c, cstar = gens(params)
    x = tensor(a, c)
    y = tensor(c, a)
    z = x * y  # (ac) x (ca) = (ac) x (1/q · ac)
    assert z.equal(tensor(a * c, a * c) * 2.0)
    assert (x + y - y).equal(x)
    assert (x * 2.0).distance(x + x) < 1e-12
    with pytest.raises(ValueError):
        x * MultiElement.unit(params, 3)


def test_multielement_adjoint(params):
    a, astar, c, cstar = gens(params)
    x = tensor(a * c, cstar) * (1 + 2j)
    expect = tensor((a * c).adjoint(), c) * (1 - 2j)
    assert x.adjoint().equal(expect)


def test_multielement_product_associativity(params, rng):
    from qent.verify import random_multi_element

    for _ in range(25):
        x = random_multi_element(rng, params, max_degree=2, n_terms=3)
        y = random_multi_element(rng, params, max_degree=2, n_terms=3)
        z = random_multi_element(rng, params, max_degree=2, n_terms=3)
        assert ((x * y) * z).distance(x * (y * z)) < 1e-8


# the last is finite, but its modulus overflows
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(float("nan"), 1.0),
                                 complex(1.5e308, 1.5e308)])
def test_multielement_rejects_non_finite_coefficients(params, bad):
    unit = (Monomial(), Monomial())
    with pytest.raises(ValueError):
        MultiElement(params, 2, {unit: bad})
    with pytest.raises(ValueError):
        MultiElement._trusted(params, 2, {unit: bad})
    with pytest.raises(ValueError):
        MultiElement.unit(params, 2) * bad


def test_multielement_keys_are_tuples_of_monomials(params):
    a = Monomial(PLAIN, 1, 0, 0)
    # a bare Monomial is a 4-tuple itself, but not a four-leg key
    with pytest.raises(ValueError):
        MultiElement(params, 4, {a: 1.0})
    with pytest.raises(ValueError):
        MultiElement(params, 2, {("a", "c"): 1.0})
    with pytest.raises(ValueError):
        MultiElement(params, 2, {(a,): 1.0})
    # one leg is an Element's kind: a MultiElement has at least two
    for terms in ({a: 1.0}, {(a,): 1.0}):
        with pytest.raises(ValueError, match="a MultiElement has at least two legs, got 1"):
            MultiElement(params, 1, terms)
    # and an Element has one: its constructor takes no leg count
    with pytest.raises(TypeError):
        Element(params, {(a, a): 1.0}, 2)


def test_coinverse_and_the_leg_coproduct_act_leg_wise_on_either_kind(params):
    a, _, c, _ = gens(params)
    two = tensor(a, c)
    assert coinverse(two).equal(tensor(coinverse(a), coinverse(c)))
    assert coinverse(two).equal(product_coinverse(two))
    assert apply_coproduct_leg(two, 1).equal(tensor(a, coproduct(c)))
    ac = a * c
    assert apply_coproduct_leg(ac, 0).equal(coproduct(ac))
    with pytest.raises(ValueError, match="leg 1 out of range for 1 legs"):
        apply_coproduct_leg(ac, 1)


@pytest.mark.parametrize("one_leg_map", [coproduct, theta])
def test_one_leg_maps_refuse_a_two_leg_element_by_its_kind(params, one_leg_map):
    a, _, c, _ = gens(params)
    with pytest.raises(ValueError, match="expected an Element, got a 2-leg element"):
        one_leg_map(tensor(a, c))
    with pytest.raises(ValueError, match="a MultiElement has at least two legs, and the factors of tensor"):
        one_leg_map(tensor(a))
