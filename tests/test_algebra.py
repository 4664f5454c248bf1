"""Normal forms, products, adjoints and the algebra's defining relations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qent.algebra import (
    PLAIN,
    STAR,
    AlgebraParams,
    Element,
    Monomial,
    equal,
    mul,
    normal_form,
)
from qent.hopf import coinverse, coinverse_squared

from conftest import gens

GEN_SYMBOLS = ("a", "a*", "c", "c*")


def test_params_validation():
    AlgebraParams(q=1.0)
    with pytest.raises(ValueError):
        AlgebraParams(q=0.0)
    with pytest.raises(ValueError):
        AlgebraParams(q=-0.5)
    with pytest.raises(ValueError):
        AlgebraParams(q=1.2)
    with pytest.raises(ValueError):
        AlgebraParams(q=0.5, tol=0.0)


@pytest.mark.parametrize("q, tol", [
    (0.5, float("inf")), (0.5, float("nan")), (float("nan"), 1e-9), (float("inf"), 1e-9),
])
def test_params_reject_non_finite_values(q, tol):
    with pytest.raises(ValueError):
        AlgebraParams(q=q, tol=tol)


def test_monomial_validation():
    Monomial(PLAIN, 0, 1, 2)
    Monomial(STAR, 3, 0, 0)
    with pytest.raises(ValueError):
        Monomial(STAR, 0, 1, 0)  # k = 0 must be PLAIN
    with pytest.raises(ValueError):
        Monomial(PLAIN, -1, 0, 0)
    with pytest.raises(ValueError):
        Monomial("weird", 1, 0, 0)
    assert Monomial(PLAIN, 2, 1, 3).degree == 6


def test_monomial_is_a_validated_tuple_value():
    mono = Monomial(STAR, 2, 1, 0)
    assert repr(mono) == "Monomial(sector='star', k=2, m=1, n=0)"
    assert mono == Monomial(STAR, 2, 1, 0) and hash(mono) == hash(Monomial(STAR, 2, 1, 0))
    assert {(mono, Monomial()): 1}[(Monomial(STAR, 2, 1, 0), Monomial(PLAIN))] == 1
    with pytest.raises(AttributeError):
        mono.k = 3
    # the namedtuple copy paths go through the same checks
    with pytest.raises(ValueError):
        mono._replace(k=0)
    with pytest.raises(ValueError):
        Monomial._make((PLAIN, 0, -1, 0))


def test_element_keys_are_monomials(params):
    a = Monomial(PLAIN, 1, 0, 0)
    # a one-leg tuple is a MultiElement's key, and a str no key at all
    with pytest.raises(ValueError, match="is not a monomial"):
        Element(params, {"a": 1.0})
    with pytest.raises(ValueError, match="is not a monomial"):
        Element(params, {(a,): 1.0})
    with pytest.raises(ValueError, match="is not a monomial"):
        Element(params, {a: 1.0, (a, a): 2.0})
    assert Element(params, {a: 1.0}).coeff(a) == 1.0


def test_products_adjoints_and_coinverses_skip_the_key_check(params, monkeypatch):
    a, astar, c, cstar = gens(params)
    x = a * c + 0.5j * astar * cstar
    checked = []
    init = Element.__init__
    monkeypatch.setattr(Element, "__init__", lambda self, *args: checked.append(args) or init(self, *args))
    product, adj, kappa = x * x, x.adjoint(), coinverse(x)
    assert checked == []
    assert product.equal(mul(x, x)) and adj.adjoint().equal(x) and coinverse(kappa).equal(coinverse_squared(x))


# the last is finite, but its modulus overflows
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan")),
                                 complex(float("-inf"), 1.0), complex(1.5e308, 1.5e308)])
def test_element_rejects_non_finite_coefficients(params, bad):
    a = Element.generator(params, "a")
    with pytest.raises(ValueError):
        Element(params, {Monomial(PLAIN, 1, 0, 0): bad})
    with pytest.raises(ValueError):
        a * bad
    with pytest.raises(ValueError):
        a + bad


def test_normal_form_examples(params):
    a, astar, c, cstar = gens(params)
    # ca = q^-1 ac
    assert normal_form(["c", "a"], params).equal(2.0 * (a * c))
    # aa* = 1 - q cc*
    assert normal_form(["a", "a*"], params).equal(1 - 0.5 * (c * cstar))
    # empty word is the unit
    assert normal_form([], params).equal(Element.unit(params))
    # a*a = 1 - (1/q) cc*
    assert normal_form(["a*", "a"], params).equal(1 - 2.0 * (c * cstar))


def test_normal_form_rejects_unknown_symbols(params):
    with pytest.raises(ValueError):
        normal_form(["a", "b"], params)


def test_mul_examples(params):
    a, astar, c, cstar = gens(params)
    assert mul(a, c).equal(a * c)
    assert mul(c, a).equal(2.0 * (a * c))
    expected = a * a + astar * astar + 2 - 2.5 * (c * cstar)
    assert mul(a + astar, a + astar).equal(expected)


def test_mul_rejects_mismatched_params():
    x = Element.generator(AlgebraParams(q=0.5), "a")
    y = Element.generator(AlgebraParams(q=0.7), "a")
    with pytest.raises(ValueError):
        mul(x, y)


def test_adjoint_examples(params):
    a, astar, c, cstar = gens(params)
    assert a.adjoint().equal(astar)
    assert (a * c).adjoint().equal(0.5 * (astar * cstar))
    assert (2j * c).adjoint().equal(-2j * cstar)


def test_equal_examples(params):
    a, astar, c, cstar = gens(params)
    assert equal(1 - 0.5 * (c * cstar), normal_form(["a", "a*"], params))
    assert not equal(a, astar)
    assert equal(mul(mul(a, c), cstar), mul(a, mul(c, cstar)))


def test_equal_is_tolerance_based(params):
    a = Element.generator(params, "a")
    assert equal(a, a + Element.generator(params, "c") * 1e-12)
    assert not equal(a, a + Element.generator(params, "c") * 1e-6)


def test_pruning(params):
    a = Element.generator(params, "a")
    tiny = a * 1e-12
    assert tiny.is_zero()
    assert (a - a).is_zero()


def _random_word(rng, max_len=6):
    length = int(rng.integers(0, max_len + 1))
    return [GEN_SYMBOLS[int(rng.integers(4))] for _ in range(length)]


@pytest.mark.parametrize("q", [0.3, 0.5, 1.0])
def test_confluence_random_rewrite_orders(q):
    """Randomized rule-application orders all land on the same normal form."""
    params = AlgebraParams(q=q)
    rng = np.random.default_rng(99)
    for _ in range(60):
        word = _random_word(rng)
        reference = normal_form(word, params)
        for seed in range(3):
            shuffled = normal_form(word, params, rng=np.random.default_rng(seed))
            assert reference.equal(shuffled), f"word {word} diverged"


def test_normal_form_agrees_with_products(params, rng):
    """The rewriting engine and the closed-form monomial products coincide."""
    for _ in range(60):
        word = _random_word(rng)
        via_mul = Element.unit(params)
        for sym in word:
            via_mul = via_mul * Element.generator(params, sym)
        assert normal_form(word, params).equal(via_mul)


def _random_element(rng, params, max_degree=3, n_terms=3):
    from qent.verify import random_element

    return random_element(rng, params, max_degree, n_terms)


def test_associativity_200_triples(params, rng):
    # q^(-k(m+n)) phases grow like q^-18 in triple products of degree-3
    # elements, so the comparison must be relative to the product's scale
    for _ in range(200):
        x = _random_element(rng, params)
        y = _random_element(rng, params)
        z = _random_element(rng, params)
        lhs = mul(mul(x, y), z)
        rhs = mul(x, mul(y, z))
        scale = max(
            1.0,
            max((abs(v) for v in lhs.terms.values()), default=0.0),
            max((abs(v) for v in rhs.terms.values()), default=0.0),
        )
        assert lhs.distance(rhs) <= 1e-9 * scale


def test_associativity_absolute_small_degree(params, rng):
    # with degree <= 2 factors the phases stay moderate and the absolute
    # tolerance comparison applies directly
    for _ in range(100):
        x = _random_element(rng, params, max_degree=2)
        y = _random_element(rng, params, max_degree=2)
        z = _random_element(rng, params, max_degree=2)
        assert equal(mul(mul(x, y), z), mul(x, mul(y, z)))


def test_unit_law(params, rng):
    one = Element.unit(params)
    for _ in range(20):
        x = _random_element(rng, params)
        assert equal(mul(one, x), x)
        assert equal(mul(x, one), x)


def test_q1_commutativity():
    params = AlgebraParams(q=1.0)
    rng = np.random.default_rng(3)
    for gx in GEN_SYMBOLS:
        for gy in GEN_SYMBOLS:
            x = Element.generator(params, gx)
            y = Element.generator(params, gy)
            assert equal(mul(x, y), mul(y, x))
    for _ in range(20):
        x = _random_element(rng, params)
        y = _random_element(rng, params)
        assert mul(x, y).distance(mul(y, x)) < 1e-10


# -- hypothesis property tests ---------------------------------------------------

# coefficients stay well above the pruning threshold: q-phases scale products
# by as little as q^9, and a true term dropped mid-computation by design
# (pruning at tol) would otherwise show up as a law "violation"
_coeffs = st.complex_numbers(min_magnitude=0.01, max_magnitude=3.0,
                             allow_nan=False, allow_infinity=False)


@st.composite
def monomials(draw, max_degree=3):
    k = draw(st.integers(0, max_degree))
    m = draw(st.integers(0, max_degree - k))
    n = draw(st.integers(0, max_degree - k - m))
    sector = PLAIN if k == 0 else draw(st.sampled_from([PLAIN, STAR]))
    return Monomial(sector, k, m, n)


@st.composite
def elements(draw, q=0.5):
    params = AlgebraParams(q=q)
    pairs = draw(st.lists(st.tuples(monomials(), _coeffs), min_size=0, max_size=4))
    terms = {}
    for mono, coeff in pairs:
        terms[mono] = terms.get(mono, 0j) + coeff
    return Element(params, terms)


@settings(max_examples=40, deadline=None)
@given(elements())
def test_adjoint_is_an_involution(x):
    assert x.adjoint().adjoint().equal(x)


@settings(max_examples=40, deadline=None)
@given(elements(), elements())
def test_adjoint_is_antimultiplicative(x, y):
    assert (x * y).adjoint().distance(y.adjoint() * x.adjoint()) < 1e-7


@settings(max_examples=40, deadline=None)
@given(elements(), elements(), _coeffs)
def test_adjoint_is_antilinear(x, y, lam):
    lhs = (x * lam + y).adjoint()
    rhs = x.adjoint() * lam.conjugate() + y.adjoint()
    assert lhs.distance(rhs) < 1e-7
