"""Compiled Haar-pairing maps against their symbolic definitions, and cache bounds.

`inverse`, `support_residual`, `find_negative_witness` and
`pd_witness_value` evaluate memoised single-leg tables, for product and
single-factor coreps alike. The symbolic definitions they replace are
written out here as oracles: H[r, c] = h(U_rc* · x) from the normal-ordered product, the support
residual from the forward transform of each reconstructed block, and the
pairing from `haar.convolve_check`. The catalog map's positivity test, for
product and single-factor catalogs, is held to the same test run block by
block (`_per_block_report`). The loops that the compiled forms replaced
(summing ρ_rc·U_cr entry by entry, the Gram matrices term by term) are
written out too, and the compiled forms must equal them bit for bit.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qent.algebra import LRU, PLAIN, STAR, AlgebraParams, Element, Monomial
from qent.cli import main as cli_main
from qent.corep import fundamental_corep, product_catalog, standard_catalog
from qent.entangle import (
    find_negative_witness,
    is_positive_definite,
    is_positive_definite_many,
    is_positive_definite_single,
    pd_witness_value,
    ppt_check,
    ppt_many,
    separable_build,
)
from qent.fourier import (
    DensityOp,
    _sqrt_pair,
    forward,
    inverse,
    support_residual,
)
from qent.haar import convolve_check, haar
from qent.hopf import MultiElement, coproduct
from qent.verify import random_element, random_pd_element, random_psd, random_witness, run_suite

# the modules, not the functions of the same names re-exported by qent
algebra, hopf, haar_module, corep, fourier, entangle = (
    sys.modules[f"qent.{name}"]
    for name in ("algebra", "hopf", "haar", "corep", "fourier", "entangle")
)

QS = (0.2, 0.5, 1.0)
DATA = Path(__file__).parent / "data"
# a small tol keeps the symbolic path's pruning of products (at tol) far
# below the comparison bound
TOL = 1e-13

_coeffs = st.complex_numbers(min_magnitude=0.01, max_magnitude=3.0,
                             allow_nan=False, allow_infinity=False)


@st.composite
def monomials(draw, max_degree=2):
    k = draw(st.integers(0, max_degree))
    m = draw(st.integers(0, max_degree - k))
    n = draw(st.integers(0, max_degree - k - m))
    sector = PLAIN if k == 0 else draw(st.sampled_from([PLAIN, STAR]))
    return Monomial(sector, k, m, n)


@st.composite
def two_leg_elements(draw, q):
    """The transform of a random 4x4 matrix plus up to four terms of any degree <= 2."""
    params = AlgebraParams(q=q, tol=TOL)
    U = product_catalog(params, ("fund*fund",))[0]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = forward(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), U)
    extra = draw(st.lists(st.tuples(monomials(), monomials(), _coeffs), max_size=4))
    terms = dict(x.terms)
    for left, right, coeff in extra:
        terms[(left, right)] = terms.get((left, right), 0j) + coeff
    return MultiElement(params, 2, terms)


@st.composite
def one_leg_elements(draw, q):
    """The transform of a random 2x2 matrix, a multiple of 1 and up to four terms of degree <= 2."""
    params = AlgebraParams(q=q, tol=TOL)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = forward(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                fundamental_corep(params))
    terms = dict(x.terms)
    extra = draw(st.lists(st.tuples(monomials(), _coeffs), max_size=4))
    for mono, coeff in [(Monomial(), draw(_coeffs))] + extra:
        terms[mono] = terms.get(mono, 0j) + coeff
    return Element(params, terms)


def symbolic_inverse(x, U):
    H = np.array([[haar(U.entries[r][c].adjoint() * x) for c in range(U.dim)]
                  for r in range(U.dim)])
    sqrtF, inv_sqrtF = _sqrt_pair(U.F)
    return inv_sqrtF @ H.T @ sqrtF


def symbolic_support_residual(x, catalog):
    total = MultiElement.zero(x.params, 2)
    for U in catalog:
        sqrtF, _ = _sqrt_pair(U.F)
        block = float(np.trace(U.F).real) * (sqrtF @ symbolic_inverse(x, U) @ sqrtF)
        total = total + forward(block, U)
    return x.distance(total)


def symbolic_support_residual_single(x, coreps):
    total = Element.zero(x.params)
    for u in coreps:
        sqrtF, _ = _sqrt_pair(u.F)
        block = float(np.trace(u.F).real) * (sqrtF @ symbolic_inverse(x, u) @ sqrtF)
        for i in range(u.dim):
            for j in range(u.dim):
                total = total + u.entries[j][i] * complex(block[i, j])
    return x.distance(total)


def _scale(x):
    return 1.0 + sum(abs(z) for z in x.terms.values())


@pytest.mark.parametrize("q", QS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_inverse_blocks_match_the_symbolic_pairing(q, data):
    x = data.draw(two_leg_elements(q))
    for U in product_catalog(x.params):
        got = inverse(x, U)
        expect = symbolic_inverse(x, U)
        assert np.max(np.abs(got - expect)) <= 1e-10 * _scale(x), U.label


@pytest.mark.parametrize("q", QS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_support_residual_matches_the_symbolic_reexpansion(q, data):
    x = data.draw(two_leg_elements(q))
    catalog = product_catalog(x.params)
    for blocks in (catalog, catalog[3:], catalog[:2]):
        got = support_residual(x, blocks)
        assert abs(got - symbolic_support_residual(x, blocks)) <= 1e-10 * _scale(x)


@pytest.mark.parametrize("q", QS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_single_factor_blocks_match_the_symbolic_pairing(q, data):
    x = data.draw(one_leg_elements(q))
    coreps = tuple(standard_catalog(x.params).values())
    blocks = [inverse(x, u) for u in coreps]
    for u, got in zip(coreps, blocks):
        assert np.max(np.abs(got - symbolic_inverse(x, u))) <= 1e-10 * _scale(x), u.label
    for subset in (coreps, coreps[:1], coreps[1:]):
        got = support_residual(x, subset)
        assert abs(got - symbolic_support_residual_single(x, subset)) <= 1e-10 * _scale(x)


@pytest.mark.parametrize("q", (0.5, 1.0))
def test_support_residual_counts_catalog_terms_that_x_lacks(q):
    # (cc*)^k ⊗ (cc*)^j pairs only with the trivial block, so every term
    # lands on 1 ⊗ 1, which x itself does not contain; for q >= 0.5 the
    # sum there outweighs each missed term of x (at q = 0.2 it does not)
    params = AlgebraParams(q=q, tol=TOL)
    terms = {(Monomial(PLAIN, 0, k, k), Monomial(PLAIN, 0, j, j)): 0.1
             for k in range(4) for j in range(4) if k or j}
    x = MultiElement(params, 2, terms)
    catalog = product_catalog(params)
    got = support_residual(x, catalog)
    assert got > 0.1
    assert abs(got - symbolic_support_residual(x, catalog)) <= 1e-12


@pytest.mark.parametrize("q", QS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pd_pairing_matches_the_convolution(q, seed):
    rng = np.random.default_rng(seed)
    params = AlgebraParams(q=q, tol=TOL)
    U = product_catalog(params, ("fund*fund",))[0]
    x = forward(random_psd(rng, 4), U)
    for b in (random_witness(rng, params), MultiElement.unit(params, 2)):
        for y in (x, MultiElement(params, 2, {**x.terms, **random_witness(rng, params).terms})):
            got = pd_witness_value(y, b)
            expect = convolve_check(y, b)
            assert abs(got - expect) <= 1e-10 * (1.0 + abs(expect))


# a catalog names each block once: 4 + 12 + 24 + 24 catalogs of the four product
# pairs and 2 + 2 of the two single-factor coreps
ENGINE_CATALOGS = 64 + 4


def _cache_sizes(params):
    owner = corep.engine(params)
    tables = owner.tables
    return {
        "mono_mul": (algebra._mono_mul.cache_info().currsize, algebra.MONO_MUL_CACHE_SIZE),
        "coproduct": (len(hopf._COPRODUCT_CACHE), hopf.COPRODUCT_CACHE_SIZE),
        "engines": (corep.engine.cache_info().currsize, corep.ENGINES_SIZE),
        "engine catalog maps": (len(owner.maps), ENGINE_CATALOGS),
        "gram index": (len(tables._gram_index), haar_module.GRAM_SIZE),
        "gram matrices": (len(tables._grams), haar_module.GRAM_SIZE),
        "mono_mul programs": (algebra._mono_mul_program.cache_info().currsize, algebra.MONO_MUL_CACHE_SIZE),
        "catalog plans": (len(fourier._CATALOG_PLANS), fourier.CATALOG_PLANS_SIZE),
        "θ images": (hopf._theta_image.cache_info().currsize, algebra.MONO_MUL_CACHE_SIZE),
    }


# every module-level cache-size constant of qent; a new memo bound is added here and to _cache_sizes
CACHE_SIZE_CONSTANTS = {
    "algebra.MONO_MUL_CACHE_SIZE", "corep.ENGINES_SIZE", "haar.GRAM_SIZE",
    "hopf.COPRODUCT_CACHE_SIZE", "fourier.CATALOG_PLANS_SIZE",
}


def test_every_cache_size_constant_is_listed_and_bounded_by_the_cache_sizes(monkeypatch):
    found = set()
    for path in sorted(Path(algebra.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            found.update(f"{path.stem}.{target.id}" for target in targets
                         if isinstance(target, ast.Name) and target.id.endswith("_SIZE"))
    assert found == CACHE_SIZE_CONSTANTS
    # each constant, set to a value of its own, is the bound of an entry of _cache_sizes
    marks = {name: 10 ** 9 + i for i, name in enumerate(sorted(found))}
    for name, mark in marks.items():
        module, constant = name.split(".")
        monkeypatch.setattr(sys.modules[f"qent.{module}"], constant, mark)
    bounds = {bound for _, bound in _cache_sizes(AlgebraParams(q=0.5)).values()}
    assert [name for name, mark in marks.items() if mark not in bounds] == []


@pytest.fixture
def compiled_blocks(monkeypatch):
    """The labels of the blocks of every catalog fill made while the test runs, one tuple per fill."""
    built = []
    original = fourier._Fill.__init__

    def recording(self, coreps):
        original(self, coreps)
        built.append(tuple(U.label for U in coreps))

    monkeypatch.setattr(fourier._Fill, "__init__", recording)
    return built


def test_q_keyed_caches_stay_bounded_over_a_q_sweep(compiled_blocks):
    rng = np.random.default_rng(11)
    probe = [random_element(rng, AlgebraParams(q=0.5), max_degree=3, n_terms=6) for _ in range(2)]
    misses_before = algebra._mono_mul.cache_info().misses
    engines_before = corep.engine.cache_info().misses
    coproduct_keys = set()
    for q in np.linspace(0.2, 1.0, 200):
        params = AlgebraParams(q=float(q))
        catalog = product_catalog(params)
        x = forward(DensityOp((2, 2), random_psd(rng, 4)), catalog[3])
        report = ppt_check(x, catalog)
        if report.witness is not None:
            pd_witness_value(x, report.witness)
        for y in probe:
            coproduct(Element(params, y.terms))
        is_positive_definite_single(random_pd_element(rng, params),
                                    standard_catalog(params).values())
        for name, (size, bound) in _cache_sizes(params).items():
            assert size <= bound, (name, q)
        coproduct_keys.update(hopf._COPRODUCT_CACHE)
    # the sweep outgrew every q-keyed bound, so the bounds were exercised, not just respected
    assert algebra._mono_mul.cache_info().misses - misses_before > algebra.MONO_MUL_CACHE_SIZE
    assert len(coproduct_keys) > hopf.COPRODUCT_CACHE_SIZE
    assert corep.engine.cache_info().misses - engines_before > corep.ENGINES_SIZE


def test_one_q_working_set_fits_the_bounds(compiled_blocks):
    from qent.verify import run_suite

    params = AlgebraParams(q=0.3)
    algebra._mono_mul.cache_clear()
    hopf._COPRODUCT_CACHE.clear()
    assert all(c.passed for c in run_suite("all", params))
    # nothing was evicted while one q was in use
    info = algebra._mono_mul.cache_info()
    assert info.misses == info.currsize < algebra.MONO_MUL_CACHE_SIZE
    sizes = _cache_sizes(params)
    size, bound = sizes["coproduct"]
    assert size < bound
    assert compiled_blocks
    for name in ("gram index", "gram matrices", "engine catalog maps"):
        size, bound = sizes[name]
        assert 0 < size < bound, name


def test_compiled_maps_belong_to_their_block():
    params = AlgebraParams(q=0.5)
    U = product_catalog(params)[3]
    assert fourier.block_map(U) is fourier.block_map(U)
    # the engine builds one fund*fund per params, so every catalog shares its map
    assert fourier.block_map(product_catalog(params, ("fund*fund",))[0]) is fourier.block_map(U)
    fund = fundamental_corep(params)
    apart = corep.product_corep(fund, fund)
    assert fourier.block_map(apart) is not fourier.block_map(U)
    # coreps are equal only to themselves, so the one built apart is not the engine's
    assert apart != U and U == product_catalog(params)[3]


def test_verify_solves_the_fundamental_intertwiner_once(monkeypatch):
    solved = []
    original = corep.compute_F

    def counting(entries, params):
        solved.append(params)
        return original(entries, params)

    monkeypatch.setattr(corep, "compute_F", counting)
    corep.engine.cache_clear()
    params = AlgebraParams(q=0.3)
    for seed in (1, 2):
        assert all(c.passed for c in run_suite("all", params, seed))
    assert len(solved) <= 1
    # one shared instance per params, and so one compiled single-factor block
    assert fundamental_corep(params) is fundamental_corep(AlgebraParams(q=0.3))
    assert standard_catalog(params)["triv"] is corep.trivial_corep(params)


def test_a_full_memo_evicts_its_least_recently_used_entry():
    memo = LRU(3)
    for key in range(3):
        memo.put(key, key * key)
    assert memo.get(0) == 0  # 0 is now the most recently used
    memo.put(3, 9)
    assert list(memo.items()) == [(2, 4), (0, 0), (3, 9)]
    memo.put(2, -4)  # storing again marks 2 as used
    memo.put(4, 16)
    assert list(memo.items()) == [(3, 9), (2, -4), (4, 16)]
    assert memo.get(1) is None and memo.get(1, "missing") == "missing"
    assert list(memo) == [3, 2, 4]


def test_a_catalog_that_names_a_block_twice_is_refused():
    params = AlgebraParams(q=0.5)
    with pytest.raises(ValueError, match="fund\\*fund twice"):
        product_catalog(params, corep.DEFAULT_PAIRS + ("fund*fund",))
    catalog = product_catalog(params)
    fund = fundamental_corep(params)
    x = forward(fourier.werner_state(0.2), catalog[3])
    # once more, the same corep or one built apart: either would count its block twice
    for again in (catalog[3], corep.product_corep(fund, fund)):
        doubled = catalog + [again]
        for check in (is_positive_definite, ppt_check, support_residual):
            with pytest.raises(ValueError, match="fund\\*fund twice"):
                check(x, doubled)
    singles = list(standard_catalog(params).values())
    with pytest.raises(ValueError, match="fund twice"):
        is_positive_definite(Element.unit(params), singles + singles[1:])


def test_a_fresh_q_ppt_request_builds_and_fills_each_block_once(monkeypatch, capsys):
    built, filled = [], []
    original_product, original_fill = corep.product_corep, fourier._Fill.__init__

    def counting_product(u, v):
        built.append(f"{u.label}*{v.label}")
        return original_product(u, v)

    def counting_fill(self, coreps):
        filled.extend(U.label for U in coreps)
        original_fill(self, coreps)

    monkeypatch.setattr(corep, "product_corep", counting_product)
    monkeypatch.setattr(fourier._Fill, "__init__", counting_fill)
    requests = 24
    for i in range(requests):
        path = DATA / ("werner_0.2.json", "werner_0.6.json")[i % 2]
        # a q no other test uses, so every request starts without an engine
        q = 0.2113 + 0.0317 * i
        assert cli_main(["ppt", "--input", str(path), "--q", repr(q), "--format", "json"]) == i % 2
    capsys.readouterr()
    # the catalog's fund*fund is the one `forward` ran on, and one fill compiles all four
    # blocks: 4 builds and 4 blocks filled per request
    assert sorted(built) == sorted(filled) == sorted(corep.DEFAULT_PAIRS * requests)


def test_cycling_catalogs_compiles_each_map_once(monkeypatch):
    compiled = []
    original = fourier.CatalogMap.__init__

    def counting(self, catalog):
        compiled.append(tuple(U.label for U in catalog))
        original(self, catalog)

    monkeypatch.setattr(fourier.CatalogMap, "__init__", counting)
    params = AlgebraParams(q=0.5123)
    catalog = product_catalog(params)
    x = forward(fourier.werner_state(0.2), catalog[3])
    for _ in range(10):
        for part in (catalog, catalog[3:], catalog[:2]):
            support_residual(x, part)
    assert compiled == [tuple(corep.DEFAULT_PAIRS), ("fund*fund",), ("triv*triv", "triv*fund")]
    # a catalog of a corep the engine did not build is compiled on every call and not kept
    fund = fundamental_corep(params)
    apart = [corep.product_corep(fund, fund)]
    for _ in range(2):
        support_residual(x, apart)
    assert compiled[3:] == [("fund*fund",)] * 2
    assert corep.engine(params).maps[("fund*fund",)].coreps == (catalog[3],)


def _written_out_forward(mat, U):
    """Σ mat[row, col] U_(col),(row), summed entry by entry."""
    terms: dict = {}
    for row in range(U.dim):
        for col in range(U.dim):
            coeff = mat[row, col]
            if coeff:
                for key, c in U.entries[col][row].terms.items():
                    terms[key] = terms.get(key, 0j) + c * coeff
    return terms


@pytest.mark.parametrize("q", QS)
def test_forward_is_the_written_out_sum_bit_for_bit(q):
    params = AlgebraParams(q=q)
    rng = np.random.default_rng(17)
    for _ in range(20):
        for U in product_catalog(params):
            mat = rng.normal(size=(U.dim, U.dim)) + 1j * rng.normal(size=(U.dim, U.dim))
            mat[rng.random(size=mat.shape) < 0.3] = 0.0
            got = forward(mat, U)
            expect = MultiElement(params, 2, _written_out_forward(mat, U))
            assert list(got.terms.items()) == list(expect.terms.items())
        for u in standard_catalog(params).values():
            mat = rng.normal(size=(u.dim, u.dim)) + 1j * rng.normal(size=(u.dim, u.dim))
            got = forward(mat, u)
            assert list(got.terms.items()) == list(Element(params, _written_out_forward(mat, u)).terms.items())


@pytest.mark.parametrize("q", QS)
def test_forward_and_reconstruct_serve_single_factor_coreps(q):
    params = AlgebraParams(q=q)
    rng = np.random.default_rng(19)
    for u in standard_catalog(params).values():
        block = fourier.block_map(u)
        for _ in range(10):
            mat = rng.normal(size=(u.dim, u.dim)) + 1j * rng.normal(size=(u.dim, u.dim))
            x = forward(mat, u)
            # the single-factor transform as it was written before the transform paths merged
            expect = Element(params, dict(zip(block.support, block.expansion @ mat.reshape(-1))))
            assert type(x) is Element and list(x.terms.items()) == list(expect.terms.items())
            assert np.max(np.abs(fourier.reconstruct(x, u) - mat)) <= 1e-12 * (1.0 + np.abs(mat).max())


@pytest.mark.parametrize("q", QS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_inverse_is_its_block_of_the_catalog_map(q, data):
    two, one = data.draw(two_leg_elements(q)), data.draw(one_leg_elements(q))
    params = two.params
    # cc* lies outside every shipped block's support, and the trivial block pairs with it
    cc = Monomial(PLAIN, 0, 1, 1)
    cases = [(two + MultiElement(params, 2, {(cc, cc): 0.7}),
              product_catalog(params) if pairs is None else product_catalog(params, pairs)) for pairs in CATALOGS]
    singles = standard_catalog(params)
    cases += [(one + Element(params, {cc: 0.7}), [singles[label] for label in labels])
              for labels in SINGLE_CATALOGS]
    for x, catalog in cases:
        compiled = fourier.catalog_map(catalog)
        flat, _ = compiled.apply(x)
        for i, U in enumerate(catalog):
            assert not set(x.terms) <= set(fourier.block_map(U).support)
            got = inverse(x, U)
            assert np.max(np.abs(got - compiled.block(flat, i))) <= 1e-12 * _scale(x), U.label


@pytest.mark.parametrize("q", QS)
def test_the_witness_from_a_given_block_is_the_same(q):
    params = AlgebraParams(q=q)
    rng = np.random.default_rng(23)
    catalog = product_catalog(params)
    found = 0
    for _ in range(10):
        x = hopf.partial_theta(forward(random_psd(rng, 4), catalog[3]))
        for U in catalog:
            plain = find_negative_witness(x, U)
            given_block = find_negative_witness(x, U, block=inverse(x, U))
            if plain is None:
                assert given_block is None
            else:
                found += 1
                assert list(plain.terms.items()) == list(given_block.terms.items())
    assert found


def test_ppt_check_on_an_npt_state_computes_each_block_once(monkeypatch, compiled_blocks):
    applied, inverted, transposed = [], [], []
    original_transform, original_inverse = fourier.CatalogMap.transform, fourier.inverse
    original_theta = hopf.partial_theta

    def counting_transform(self, v, outside=()):
        applied.append(self)
        return original_transform(self, v, outside)

    def counting_inverse(x, U):
        inverted.append(U.label)
        return original_inverse(x, U)

    def counting_theta(x, leg=1):
        transposed.append(leg)
        return original_theta(x, leg=leg)

    monkeypatch.setattr(fourier.CatalogMap, "transform", counting_transform)
    monkeypatch.setattr(entangle, "inverse", counting_inverse)
    monkeypatch.setattr(fourier, "inverse", counting_inverse)
    monkeypatch.setattr(hopf, "partial_theta", counting_theta)
    monkeypatch.setattr(fourier, "partial_theta", counting_theta)
    params = AlgebraParams(q=0.5)
    catalog = product_catalog(params)
    x = forward(fourier.singlet_state(), catalog[3])
    fourier.catalog_map(catalog)  # compiles the catalog's own blocks
    compiled_blocks.clear()
    for leg in (0, 1):
        applied.clear()
        transposed.clear()
        report = ppt_check(x, catalog, leg=leg)
        assert report.verdict == entangle.NOT_POSITIVE_DEFINITE and report.witness is not None
        # one θx, and one application of the catalog's map to its
        # coefficients, gives every block; the witness reuses the failing
        # block and the map's compiled data instead of transforming again or
        # compiling a block map
        assert len(applied) == 1 and applied[0] is fourier.catalog_map(catalog)
        assert inverted == [] and transposed == [leg] and compiled_blocks == []
    applied.clear()
    report = is_positive_definite(forward(fourier.singlet_state(), catalog[3]), catalog)
    assert report.verdict == entangle.POSITIVE_DEFINITE and len(applied) == 1
    assert inverted == []


@pytest.mark.parametrize("q", QS)
def test_the_catalog_witness_is_that_of_the_failing_block(q):
    params = AlgebraParams(q=q)
    rng = np.random.default_rng(59)
    found = 0
    # in both orders, so the failing fund*fund block is neither always first nor always last
    for catalog in (product_catalog(params), product_catalog(params)[::-1]):
        compiled = fourier.catalog_map(catalog)
        U = next(V for V in catalog if V.label == "fund*fund")
        for _ in range(10):
            x = hopf.partial_theta(forward(random_psd(rng, 4), U))
            report = is_positive_definite(x, catalog)
            if report.witness is not None:
                found += 1
                failing = min(range(len(catalog)), key=lambda i: report.per_block[catalog[i].label])
                flat, _ = compiled.apply(x)
                expect = find_negative_witness(x, catalog[failing], block=compiled.block(flat, failing))
                assert list(report.witness.terms.items()) == list(expect.terms.items())
    assert found


def _report_bits(report):
    """Every field of a report, floats as their exact hex, witness terms in order."""
    witness = None if report.witness is None else [
        (key, coeff.real.hex(), coeff.imag.hex()) for key, coeff in report.witness.terms.items()]
    return (report.verdict, [(label, value.hex()) for label, value in report.per_block.items()],
            float(report.support_residual).hex(), witness)


@st.composite
def theta_test_elements(draw, q):
    """`pd_test_elements`, maybe kept to the catalog's support, plus terms whose θ image is at or below tol.

    θ scales a term by -q on a leg whose monomial is c*, so a coefficient
    of modulus t·tol/q with t <= 1 lies above tol for t > q, while its
    image lies at or below tol (at t = 1, up to rounding).
    """
    x = draw(pd_test_elements(q))
    params = x.params
    support = fourier.catalog_map(product_catalog(params)).index
    terms = dict(x.terms)
    if draw(st.booleans()):
        terms = {key: coeff for key, coeff in terms.items() if key in support}
    cstar = Monomial(PLAIN, 0, 0, 1)
    small = [key for key in support if cstar in key]
    for key in draw(st.lists(st.sampled_from(small), max_size=3)):
        t = draw(st.sampled_from((1.0,)) | st.floats(0.5, 1.0))
        phase = draw(st.floats(0.0, 2.0 * np.pi))
        terms[key] = t * params.tol / q * complex(np.cos(phase), np.sin(phase))
    return MultiElement(params, 2, terms)


@pytest.mark.parametrize("q", QS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ppt_check_is_the_check_of_the_partial_transpose(q, data):
    x = data.draw(theta_test_elements(q))
    # and the empty catalog, which spans nothing
    for pairs in CATALOGS + ((),):
        catalog = product_catalog(x.params) if pairs is None else product_catalog(x.params, pairs)
        for leg in (0, 1):
            expect = is_positive_definite(hopf.partial_theta(x, leg=leg), catalog)
            assert _report_bits(ppt_check(x, catalog, leg=leg)) == _report_bits(expect), (pairs, leg)


def test_ppt_check_raises_what_the_partial_transpose_check_raises():
    params = AlgebraParams(q=0.5)
    catalog = product_catalog(params)
    x = forward(fourier.singlet_state(), catalog[3])
    a, c = Monomial(PLAIN, 1, 0, 0), Monomial(PLAIN, 0, 1, 0)
    # a one-leg MultiElement, once a case here, can no longer be built
    with pytest.raises(ValueError, match="a MultiElement has at least two legs, got 1"):
        MultiElement(params, 1, {(a,): 1.0})
    cases = [
        (x, catalog, 2),
        (Element(params, {a: 1.0}), catalog, 1),
        (x, product_catalog(AlgebraParams(q=0.4)), 1),
        # θ on leg 1 scales the coefficient of a ⊗ c by -1/q, past the largest float
        (MultiElement(params, 2, {(a, c): 1e308}), catalog, 1),
    ]
    for y, cat, leg in cases:
        with pytest.raises(ValueError) as expect:
            is_positive_definite(hopf.partial_theta(y, leg=leg), cat)
        with pytest.raises(ValueError) as got:
            ppt_check(y, cat, leg=leg)
        assert str(got.value) == str(expect.value)


def _per_block_report(x, catalog):
    """The positivity test block by block: `inverse`, then each lifted block re-expanded over its U."""
    blocks = [inverse(x, U) for U in catalog]
    minima = {U.label: float(np.linalg.eigvalsh((b + b.conj().T) / 2.0).min())
              for U, b in zip(catalog, blocks)}
    hermitian = all(np.max(np.abs(b - b.conj().T)) <= x.params.tol for b in blocks)
    total: dict = {}
    for U, block in zip(catalog, blocks):
        compiled = fourier.block_map(U)
        parts = compiled.expansion @ fourier.lift_block(block, U).reshape(-1)
        for key, coeff in zip(compiled.support, parts.tolist()):
            total[key] = total.get(key, 0j) + coeff
    gaps = [abs(coeff - total.pop(key, 0j)) for key, coeff in x.terms.items()]
    residual = max(gaps + [abs(coeff) for coeff in total.values()], default=0.0)
    if residual > x.params.tol:
        verdict = entangle.UNDECIDED_SUPPORT
    elif hermitian and min(minima.values(), default=0.0) >= -entangle.EIG_TOL:
        verdict = entangle.POSITIVE_DEFINITE
    else:
        verdict = entangle.NOT_POSITIVE_DEFINITE
    return verdict, minima, residual


CATALOGS = (None, ("fund*fund",), ("fund*triv", "triv*triv"))


@st.composite
def pd_test_elements(draw, q):
    """The transform of a PSD, hermitian or general 4x4 matrix, maybe θ on a leg, plus up to three terms of any degree <= 2."""
    params = AlgebraParams(q=q)
    U = product_catalog(params, ("fund*fund",))[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("psd", "hermitian", "general")))
    if kind == "psd":
        mat = random_psd(rng, 4)
    else:
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        if kind == "hermitian":
            mat = mat + mat.conj().T
    x = forward(mat, U)
    leg = draw(st.sampled_from((None, 0, 1)))
    if leg is not None:
        x = hopf.partial_theta(x, leg=leg)
    terms = dict(x.terms)
    for left, right, coeff in draw(st.lists(st.tuples(monomials(), monomials(), _coeffs), max_size=3)):
        terms[(left, right)] = terms.get((left, right), 0j) + coeff
    return MultiElement(params, 2, terms)


@pytest.mark.parametrize("q", QS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_catalog_map_matches_the_per_block_path(q, data):
    x = data.draw(pd_test_elements(q))
    for pairs in CATALOGS:
        catalog = product_catalog(x.params) if pairs is None else product_catalog(x.params, pairs)
        report = is_positive_definite(x, catalog)
        verdict, minima, residual = _per_block_report(x, catalog)
        assert report.verdict == verdict, pairs
        assert list(report.per_block) == list(minima)
        for label, value in minima.items():
            assert abs(report.per_block[label] - value) <= 1e-12 * (1.0 + abs(value)), label
        # both residuals round at the scale of x's coefficients, which reach
        # 1/q times the drawn ones under θ: at q = 0.2 the per-block path is
        # off by 1.6e-12 on a residual that is zero in exact arithmetic
        assert abs(report.support_residual - residual) <= 1e-12 * (_scale(x) + residual)
        assert (report.witness is not None) == (
            verdict == entangle.NOT_POSITIVE_DEFINITE and min(minima.values()) < -entangle.EIG_TOL)


@st.composite
def pd_test_single_elements(draw, q):
    """The transform of a PSD, hermitian or general 2x2 matrix plus a multiple of 1, maybe with up to three terms of degree <= 2."""
    params = AlgebraParams(q=q)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("psd", "hermitian", "general")))
    if kind == "psd":
        mat = random_psd(rng, 2)
    else:
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if kind == "hermitian":
            mat = mat + mat.conj().T
    terms = dict(forward(mat, fundamental_corep(params)).terms)
    extra = [(Monomial(), draw(_coeffs))] + draw(st.lists(st.tuples(monomials(), _coeffs), max_size=3))
    for mono, coeff in extra[:draw(st.integers(0, len(extra)))]:
        terms[mono] = terms.get(mono, 0j) + coeff
    return Element(params, terms)


SINGLE_CATALOGS = (("triv", "fund"), ("fund", "triv"), ("fund",), ("triv",))


@pytest.mark.parametrize("q", QS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_single_factor_catalog_map_matches_the_per_block_path(q, data):
    x = data.draw(pd_test_single_elements(q))
    singles = standard_catalog(x.params)
    for labels in SINGLE_CATALOGS:
        catalog = [singles[label] for label in labels]
        report = is_positive_definite(x, catalog)
        verdict, minima, residual = _per_block_report(x, catalog)
        assert report.verdict == verdict, labels
        assert list(report.per_block) == list(minima) and report.witness is None
        for label, value in minima.items():
            assert abs(report.per_block[label] - value) <= 1e-12 * (1.0 + abs(value)), label
        assert abs(report.support_residual - residual) <= 1e-12 * (_scale(x) + residual)
        assert is_positive_definite_single(x, catalog) == report


@pytest.mark.parametrize("q", QS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_batched_reports_equal_the_one_by_one_reports(q, data):
    # PSD, hermitian and general transforms, maybe θ'd, with extra keys on and off the support;
    # the empty stack too
    xs = data.draw(st.lists(pd_test_elements(q), max_size=5))
    for pairs in CATALOGS:
        catalog = product_catalog(xs[0].params if xs else AlgebraParams(q=q), *([pairs] if pairs else []))
        expect = [_report_bits(is_positive_definite(x, catalog)) for x in xs]
        assert [_report_bits(r) for r in is_positive_definite_many(xs, catalog)] == expect, pairs
        for leg in (0, 1):
            expect = [_report_bits(ppt_check(x, catalog, leg=leg)) for x in xs]
            assert [_report_bits(r) for r in ppt_many(iter(xs), catalog, leg=leg)] == expect, (pairs, leg)
    singles = data.draw(st.lists(pd_test_single_elements(q), max_size=5))
    catalog = tuple(standard_catalog(AlgebraParams(q=q)).values())
    expect = [_report_bits(is_positive_definite(x, catalog)) for x in singles]
    assert [_report_bits(r) for r in is_positive_definite_many(singles, catalog)] == expect


def test_a_stack_is_refused_as_its_first_refused_element_is_refused():
    params = AlgebraParams(q=0.5)
    catalog = product_catalog(params)
    x = forward(fourier.singlet_state(), catalog[3])
    other = forward(fourier.singlet_state(), product_catalog(AlgebraParams(q=0.4))[3])
    one_leg = Element(params, {Monomial(PLAIN, 1, 0, 0): 1.0})
    for stack, first in (([x, other], other), ([other, x], other), ([x, one_leg, other], one_leg)):
        for leg in (0, 1):
            with pytest.raises(ValueError) as expect:
                ppt_check(first, catalog, leg=leg)
            with pytest.raises(ValueError) as got:
                ppt_many(stack, catalog, leg=leg)
            assert str(got.value) == str(expect.value)
        with pytest.raises(ValueError) as expect:
            is_positive_definite(first, catalog)
        with pytest.raises(ValueError) as got:
            is_positive_definite_many(stack, catalog)
        assert str(got.value) == str(expect.value)
    with pytest.raises(ValueError, match="leg must be 0 or 1"):
        ppt_many([x, x], catalog, leg=2)


def test_a_stack_takes_one_map_product_and_one_eigen_solve_per_block_size(monkeypatch):
    transforms, solves = [], []
    original_transform, original_eigvalsh = fourier.CatalogMap.transform, np.linalg.eigvalsh

    def counting_transform(self, V, outside):
        transforms.append(len(V))
        return original_transform(self, V, outside)

    def counting_eigvalsh(a, *args, **kwargs):
        solves.append(np.shape(a))
        return original_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(fourier.CatalogMap, "transform", counting_transform)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    params = AlgebraParams(q=0.5)
    catalog = product_catalog(params)
    rng = np.random.default_rng(3)
    xs = [forward(random_psd(rng, 4), catalog[3]) for _ in range(20)]
    for check in (is_positive_definite_many, ppt_many):
        transforms.clear()
        solves.clear()
        check(xs, catalog)
        # triv*triv is 1×1 and needs no solve; the two 2×2 blocks and the 4×4 one of every x are stacked
        assert transforms == [20] and solves == [(20, 2, 2, 2), (20, 1, 4, 4)], check.__name__


@pytest.mark.parametrize("q", (0.5, 1.0))
def test_separable_build_refuses_the_first_bad_factor_or_weight_in_term_order(q):
    params = AlgebraParams(q=q)
    singles = tuple(standard_catalog(params).values())
    rng = np.random.default_rng(5)
    good = [random_pd_element(rng, params) for _ in range(6)]
    bad = Element.unit(params) * -1.0
    report = is_positive_definite(bad, singles)
    for k in range(6):
        factors = list(good)
        factors[k] = bad
        terms = [(0.5, factors[2 * t], factors[2 * t + 1]) for t in range(3)]
        # a negative weight after the bad factor's term is not reached
        terms.append((-1.0, good[0], good[1]))
        with pytest.raises(ValueError) as got:
            separable_build(terms, singles)
        assert str(got.value) == (f"term {k // 2}: {('left', 'right')[k % 2]} factor is not positive definite "
                                  f"({report.verdict}, blocks {report.per_block})")
        # one before it is
        terms = [(0.5, good[0], good[1]), (-0.25, good[2], good[3])] + terms[:3]
        with pytest.raises(ValueError, match=r"^term 1: negative weight -0.25$"):
            separable_build(terms, singles)


@pytest.mark.parametrize("q", QS)
def test_a_non_hermitian_one_by_one_block_is_not_positive_definite(q):
    params = AlgebraParams(q=q)
    catalog = product_catalog(params)
    x = MultiElement(params, 2, {(Monomial(), Monomial()): 1.0 + 0.5j})
    report = is_positive_definite(x, catalog)
    assert report.verdict == _per_block_report(x, catalog)[0] == entangle.NOT_POSITIVE_DEFINITE
    assert report.per_block["triv*triv"] == 1.0 and report.witness is None


def test_catalog_map_columns_of_keys_outside_the_support_match_the_per_block_path():
    params = AlgebraParams(q=0.6)
    catalog = product_catalog(params)
    compiled = fourier.CatalogMap(catalog)
    outside = [(Monomial(PLAIN, 0, m, n), Monomial(PLAIN, 0, n, m)) for m in range(4) for n in range(4)]
    outside = [t for t in outside if t not in compiled.index]
    assert outside
    for t in outside:
        x = MultiElement(params, 2, {t: 0.5})
        flat, residual = compiled.apply(x)
        expect = np.concatenate([inverse(x, U).reshape(-1) for U in catalog])
        assert np.max(np.abs(flat - expect)) <= 1e-12
        assert abs(residual - support_residual(x, catalog)) <= 1e-12


def _written_out_witness(x, U, block):
    """The witness from the row of F⁻¹ with the largest column norm, chosen on every call, in its canonical phase."""
    herm = (block + block.conj().T) / 2.0
    eigvals, vecs = np.linalg.eigh(fourier.lift_block(herm, U))
    v = vecs[:, int(np.argmin(eigvals))]
    # the canonical phase: the first component of largest modulus (up to ties within 1e-9) made positive
    size = np.abs(v)
    k = next(i for i in range(U.dim) if size[i] >= (1.0 - 1e-9) * size.max())
    v = v * (v[k].conjugate() / abs(v[k]))
    Finv = np.linalg.inv(U.F)
    row = int(np.argmax(np.sum(np.abs(Finv) ** 2, axis=0)))
    terms: dict = {}
    for col in range(U.dim):
        beta = v[col].conjugate()
        if abs(beta) > 0:
            for tup, coeff in U.entries[row][col].adjoint().terms.items():
                terms[tup] = terms.get(tup, 0j) + coeff * beta
    return MultiElement(x.params, 2, terms)


@pytest.mark.parametrize("q", QS)
def test_the_compiled_witness_row_gives_the_written_out_witness(q):
    params = AlgebraParams(q=q)
    rng = np.random.default_rng(43)
    catalog = product_catalog(params)
    found = 0
    for _ in range(10):
        x = hopf.partial_theta(forward(random_psd(rng, 4) - 0.3 * np.eye(4), catalog[3]))
        for U in catalog:
            block = inverse(x, U)
            witness = find_negative_witness(x, U, block=block)
            if witness is not None:
                found += 1
                expect = _written_out_witness(x, U, block)
                assert list(witness.terms.items()) == list(expect.terms.items())
    assert found


def test_verify_compiles_few_block_maps(compiled_blocks):
    assert all(c.passed for c in run_suite("all", AlgebraParams(q=0.3)))
    # one fill for each catalog verify uses, whose blocks it fills at once; a block map asked
    # for before its catalog is the fill of its one-block catalog, which `inverse` then reads
    assert len(set(compiled_blocks)) == len(compiled_blocks) <= 5


@pytest.mark.parametrize("q", QS)
def test_tensor_pd_product_minima_are_the_product_corep_values(q):
    params = AlgebraParams(q=q)
    singles = tuple(standard_catalog(params).values())
    rng = np.random.default_rng(47)
    for _ in range(5):
        a, b = random_pd_element(rng, params), random_pd_element(rng, params)
        product, certificate = entangle.tensor_pd(a, b, singles)
        expect = {}
        for u in singles:
            for v in singles:
                U = corep.product_corep(u, v)
                block = inverse(product, U)
                expect[U.label] = float(np.linalg.eigvalsh((block + block.conj().T) / 2.0).min())
        assert list(certificate["product"]) == list(expect)
        for label, value in expect.items():
            assert abs(certificate["product"][label] - value) <= 1e-12, label


def test_trusted_constructions_equal_the_validating_constructor(monkeypatch):
    params = AlgebraParams(q=0.4, tol=1e-6)
    rng = np.random.default_rng(53)
    catalog = product_catalog(params)
    mats = [random_psd(rng, 4) for _ in range(5)]
    # entries near tol, so both constructors prune some coefficients
    mats += [m * np.where(rng.random(size=(4, 4)) < 0.5, 1e-6, 1.0) for m in mats]
    pds = [random_pd_element(rng, params) for _ in range(4)]

    def outputs():
        out = []
        for mat in mats:
            for U in catalog:
                x = forward(mat[:U.dim, :U.dim], U)
                out += [x, hopf.partial_theta(x, leg=0), hopf.partial_theta(x, leg=1)]
        for a in pds:
            for b in pds:
                out += [hopf.tensor(a, b), hopf.tensor(a, out[0])]
        # sums, products and adjoints of the elements above
        twos = [y for y in out if y.legs == 2][::7]
        for y, z in zip(twos, twos[1:]):
            out += [y + z, y - z, y * z, y * 1e-6, 2.0 * y, y.adjoint()]
        return [(y.legs, list(y.terms.items())) for y in out]

    trusted = outputs()
    monkeypatch.setattr(MultiElement, "_trusted",
                        classmethod(lambda cls, p, legs, terms: cls(p, legs, terms)))
    assert outputs() == trusted
    assert any(len(terms) < 16 for legs, terms in trusted if legs == 2)


def test_a_catalog_of_both_kinds_is_refused():
    params = AlgebraParams(q=0.5)
    catalog = product_catalog(params) + [fundamental_corep(params)]
    x = forward(fourier.singlet_state(), catalog[3])
    for check in (is_positive_definite, support_residual, ppt_check):
        with pytest.raises(ValueError, match="product corep, got the single-factor corep fund"):
            check(x, catalog)


def test_inverse_refuses_a_single_factor_corep():
    params = AlgebraParams(q=0.5)
    x = forward(fourier.singlet_state(), product_catalog(params)[3])
    # the kind is the corep's, so a mismatch names the element
    with pytest.raises(ValueError, match="single-factor corep, got a 2-leg element"):
        inverse(x, fundamental_corep(params))
    with pytest.raises(ValueError, match="two-leg element or a product corep, got a one-leg Element"):
        inverse(forward(np.eye(2), fundamental_corep(params)), product_catalog(params)[3])


def test_single_factor_checks_refuse_product_coreps_and_two_leg_elements():
    params = AlgebraParams(q=0.5)
    catalog = product_catalog(params)
    a = forward(np.eye(2), fundamental_corep(params))
    x = forward(fourier.singlet_state(), catalog[3])
    with pytest.raises(ValueError, match="product corep, got a one-leg Element"):
        inverse(a, catalog[3])
    with pytest.raises(ValueError, match="single-factor corep, got a 2-leg element"):
        inverse(x, fundamental_corep(params))
    for check in (is_positive_definite_single, is_positive_definite, support_residual):
        with pytest.raises(ValueError, match="product corep, got a one-leg Element"):
            check(a, catalog)
        with pytest.raises(ValueError, match="single-factor corep, got a 2-leg element"):
            check(x, tuple(standard_catalog(params).values()))
    with pytest.raises(ValueError, match="a MultiElement has at least two legs, got 1"):
        MultiElement(params, 1, {(Monomial(),): 1.0})


def test_find_negative_witness_refuses_a_single_factor_corep():
    params = AlgebraParams(q=0.5)
    x = hopf.partial_theta(forward(fourier.singlet_state(), product_catalog(params)[3]))
    for block in (None, -np.eye(2)):
        with pytest.raises(ValueError, match="product corep"):
            find_negative_witness(x, fundamental_corep(params), block=block)


def test_trusted_constructions_reject_non_finite_coefficients():
    params = AlgebraParams(q=0.5)
    big = Element(params, {Monomial(PLAIN, 1, 0, 0): 1e200})
    with pytest.raises(ValueError, match="not finite"):
        hopf.tensor(big, big)


def _term_by_term_gram(tables, m, monos):
    # a witness repeats its monomials, so each distinct pair is computed once
    distinct = dict.fromkeys(monos)
    values = {(p, p2): tables.convolution(m, p, p2) for p in distinct for p2 in distinct}
    return np.array([[values[p, p2] for p2 in monos] for p in monos])


@pytest.mark.parametrize("q", QS)
def test_gram_slices_equal_the_term_by_term_gram(q):
    params = AlgebraParams(q=q, tol=TOL)
    tables = haar_module.PairingTables(params)
    rng = np.random.default_rng(29)
    U = product_catalog(params, ("fund*fund",))[0]
    for _ in range(20):
        b = random_witness(rng, params)
        x = MultiElement(params, 2, {**forward(random_psd(rng, 4), U).terms,
                                     **random_witness(rng, params).terms})
        for monos in ([p for p, _ in b.terms], [s for _, s in b.terms]):
            for m in {m for key in x.terms for m in key}:
                got = tables.gram(m, monos)
                assert np.array_equal(got, _term_by_term_gram(tables, m, monos))


def test_gram_index_and_matrices_stay_bounded(monkeypatch):
    monkeypatch.setattr(haar_module, "GRAM_SIZE", 8)
    params = AlgebraParams(q=0.4)
    tables = haar_module.PairingTables(params)
    legs = [Monomial(PLAIN, 0, m, n) for m in range(3) for n in range(3)]
    pool = legs + [Monomial(sector, k, 0, 0) for k in (1, 2) for sector in (PLAIN, STAR)]
    rng = np.random.default_rng(31)
    indexed, kept, full = set(), set(), set()
    # many monomials at two m, then few monomials at every m in turn
    calls = [(legs[i % 2], pool) for i in range(20)] + [(legs[i % len(legs)], pool[:4]) for i in range(20)]
    for m, choices in calls:
        monos = [choices[int(i)] for i in rng.integers(len(choices), size=3)]
        assert np.array_equal(tables.gram(m, monos), _term_by_term_gram(tables, m, monos))
        assert len(tables._gram_index) <= 8 and len(tables._grams) <= 8
        indexed.update(tables._gram_index)
        kept.update(tables._grams)
        full.update(name for name, store in (("index", tables._gram_index), ("matrices", tables._grams))
                    if len(store) == 8)
    # the run outgrew the bound, and filled the index and the matrices each up to it
    assert len(indexed) > 8 and len(kept) > 8 and full == {"index", "matrices"}


def test_a_full_gram_store_starts_afresh(monkeypatch):
    monkeypatch.setattr(haar_module, "GRAM_SIZE", 3)
    tables = haar_module.PairingTables(AlgebraParams(q=0.4))
    m, other = Monomial(PLAIN, 0, 1, 1), Monomial(PLAIN, 0, 1, 0)
    first = [Monomial(PLAIN, 0, 0, 0), Monomial(PLAIN, 0, 1, 1), Monomial(STAR, 1, 0, 0)]
    late = Monomial(PLAIN, 0, 2, 2)
    tables.gram(m, first)
    # a fourth monomial would take the index past the bound, so the store keeps this call's entries alone
    tables.gram(other, first[1:] + [late])
    assert list(tables._gram_index) == first[1:] + [late] and list(tables._grams) == [other]
    # m's matrix is filled afresh over the new index
    assert np.array_equal(tables.gram(m, [late, first[2]]),
                          _term_by_term_gram(tables, m, [late, first[2]]))
    tables.gram(first[0], [late])
    assert list(tables._grams) == [other, m, first[0]]
    # a fourth matrix would take the matrices past the bound: the store starts afresh again
    assert np.array_equal(tables.gram(late, [first[2], late]),
                          _term_by_term_gram(tables, late, [first[2], late]))
    assert list(tables._gram_index) == [first[2], late] and list(tables._grams) == [late]
