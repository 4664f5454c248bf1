"""Shape plans and numeric fills against the symbolic constructions they replace.

A compiled map is a q-independent plan filled with the numbers of one q.
These tests hold the fills to the symbolic products bit for bit: a map
compiled through plans left warm by another q equals one compiled cold, the
compiled adjoints are the symbolic adjoints, `tensor` is the written-out fold
over its factors, an engine's plan-built product entries are `tensor`'s, a
product corep's F is `np.kron`, `_mono_mul` is the written-out rewriting
loop, `compute_F`'s system is the written-out row loop, and the leg-wise
adjoint, κ, κ², ε, Δ on a leg and h are the written-out loops of each kind.  Floats are
compared as their exact bits, so signed zeros count.
"""

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from qent.algebra import (
    GEN_A,
    GEN_ASTAR,
    GEN_C,
    GEN_CSTAR,
    PLAIN,
    STAR,
    UNIT,
    AlgebraParams,
    Element,
    Monomial,
    _mono,
    _mono_adjoint,
)
from qent.cli import main
from qent.corep import fundamental_corep, product_catalog, standard_catalog
from qent.haar import PairingTables, haar, haar_monomial, leg_support
from qent.hopf import (
    MultiElement,
    _coinverse_monomial,
    _coproduct_monomial,
    apply_coproduct_leg,
    coinverse,
    coinverse_squared,
    coproduct,
    counit,
    product_coinverse,
    product_counit,
    tensor,
)
from qent.verify import random_element, random_multi_element

algebra, corep, fourier = (sys.modules[f"qent.{name}"] for name in ("algebra", "corep", "fourier"))

# 0.37 is a q where compute_F leaves 1e-16 off the diagonal of F, which the closed form does not
QS = (0.2, 0.37, 0.64, 1.0)
# at tol 0.3 and q = 0.2 the product of c and c (coefficient q) is pruned from fund*fund
TOLS = (1e-9, 0.3)
CATALOGS = (None, ("fund*fund",), ("fund*triv", "triv*triv"))
DATA = Path(__file__).parent / "data"
# the memo a cold compile starts without; `_catalog` builds fresh coreps, which hold no fill
MEMOS = ("_CATALOG_PLANS",)


def _bits(value):
    """A value with every float replaced by its exact hex, arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(_bits(k), _bits(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)) and not isinstance(value, Monomial):
        return [_bits(v) for v in value]
    return value


def _singles(q, tol):
    """The shipped single-factor coreps at q, built apart from the engine and pruned at tol."""
    params = AlgebraParams(q=q, tol=tol)
    return {u.label: dataclasses.replace(u, params=params, entries=tuple(
                tuple(Element(params, e.terms) for e in row) for row in u.entries))
            for u in standard_catalog(AlgebraParams(q=q)).values()}


def _catalog(params, pairs):
    singles = _singles(params.q, params.tol)
    return [corep.product_corep(*(singles[label] for label in pair.split("*")))
            for pair in pairs or corep.DEFAULT_PAIRS]


def _map_bits(compiled):
    return _bits([
        compiled.index, compiled.offsets, compiled.matrix, compiled.reexpansion, compiled.transpose,
        compiled.stacks, [fourier.block_map(U).witness for U in compiled.coreps],
    ])


def _clear_memos():
    for name in MEMOS:
        getattr(fourier, name).clear()
    corep.engine.cache_clear()


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("pairs", CATALOGS)
def test_warm_plans_compile_a_fresh_q_as_a_cold_compile(pairs, tol):
    pruned = 0
    for q in QS:
        params = AlgebraParams(q=q, tol=tol)
        _clear_memos()
        cold = _map_bits(fourier.CatalogMap(_catalog(params, pairs)))
        _clear_memos()
        # a compile at another q leaves the plans warm; the fill at q is fresh
        warm_up = fourier.CatalogMap(_catalog(AlgebraParams(q=0.5, tol=tol), pairs))
        warm = fourier.CatalogMap(_catalog(params, pairs))
        assert _map_bits(warm) == cold, q
        same_shape = all(fourier.block_map(a).layout == fourier.block_map(b).layout
                         for a, b in zip(warm_up.coreps, warm.coreps))
        assert (warm.plan is warm_up.plan) == same_shape
        pruned += not same_shape
    # tol 0.3 prunes a key of fund*fund at q = 0.2, which then gets its own plan
    assert pruned == (tol == 0.3 and pairs != ("fund*triv", "triv*triv"))


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("q", QS)
def test_compiled_blocks_hold_the_symbolic_adjoints(q, tol):
    params = AlgebraParams(q=q, tol=tol)
    coreps = _catalog(params, None) + list(_singles(q, tol).values())
    # the adjoint of a·c is scaled by q, which takes this coefficient to or below tol
    ac = Monomial(PLAIN, 1, 1, 0)
    odd = Element(params, {UNIT: 1.0, ac: 0.99 * tol / q})
    coreps.append(corep.Corep("odd", 1, ((odd,),), np.eye(1), params))
    for U in coreps:
        compiled = fourier.block_map(U)
        symbolic = tuple(tuple(e.adjoint().terms.items()) for row in U.entries for e in row)
        assert _bits(compiled.adjoints) == _bits(symbolic), U.label
        sqrtF, inv_sqrtF = fourier._sqrt_pair(U.F)
        assert _bits(compiled.sqrtF) == _bits(sqrtF)
        # every F here is diagonal, and its roots are the written-out ones, entry by entry
        root = np.sqrt(np.diagonal(U.F))
        assert _bits((sqrtF, inv_sqrtF)) == _bits((np.diag(root), np.diag(1.0 / root))), U.label
        assert _bits(compiled.witness[0]) == _bits(sqrtF.astype(complex))
    assert fourier.block_map(coreps[-1]).adjoints == (((UNIT, 1.0),),)
    # the adjoint of a*·c is scaled by 1/q, past the largest float here, which the constructor refuses
    huge = Element(params, {Monomial(STAR, 1, 1, 0): 1.5e308})
    if q < 1.0:
        with pytest.raises(ValueError, match="not finite"):
            fourier.BlockMap(corep.Corep("huge", 1, ((huge,),), np.eye(1), params))


def test_a_second_corep_of_a_pair_reuses_the_first_fill():
    params = AlgebraParams(q=0.4321)
    first, second = (product_catalog(params, ("fund*fund",))[0] for _ in range(2))
    # the engine builds each pair once per params, and the corep keeps its fill
    assert first is second is product_catalog(params)[3]
    assert fourier.block_map(first) is fourier.block_map(second)
    # a corep built apart from the engine is filled apart, with the same bits
    fund = fundamental_corep(params)
    apart = corep.product_corep(fund, fund)
    assert fourier.block_map(apart) is not fourier.block_map(first)
    assert _map_bits(fourier.CatalogMap([apart])) == _map_bits(fourier.catalog_map([first]))


def _written_out_tensor(*factors):
    """tensor() as a fold over the factors, each coefficient summed onto 0j in a dict."""
    terms = [((), 1.0 + 0.0j)]
    legs = 0
    for f in factors:
        if isinstance(f, Element):
            items = [((mono,), coeff) for mono, coeff in f.terms.items()]
            legs += 1
        else:
            items = list(f.terms.items())
            legs += f.legs
        terms = [(tup + t2, c * c2) for tup, c in terms for t2, c2 in items]
    out: dict = {}
    for key, coeff in terms:
        out[key] = out.get(key, 0j) + coeff
    return MultiElement(factors[0].params, legs, out)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("q", QS)
def test_tensor_is_the_written_out_fold_bit_for_bit(q, tol):
    singles = _singles(q, tol)
    fund = singles["fund"].entries
    elements = [e for u in singles.values() for row in u.entries for e in row]
    sums = [fund[0][0] + fund[1][1] * (0.5 - 2j), fund[0][1] - fund[1][0]]
    for a, b in itertools.product(elements + sums, repeat=2):
        assert _bits(tensor(a, b).terms) == _bits(_written_out_tensor(a, b).terms), (a, b)
    two = tensor(sums[0], sums[1])
    for factors in ((two, sums[0]), (sums[1], two), (sums[0], two, fund[0][1])):
        got = tensor(*factors)
        assert got.legs == _written_out_tensor(*factors).legs
        assert _bits(got.terms) == _bits(_written_out_tensor(*factors).terms)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("q", QS)
def test_plan_built_product_entries_are_the_tensor_products_bit_for_bit(q, tol):
    params = AlgebraParams(q=q, tol=tol)
    singles = standard_catalog(params)
    pruned = []
    for U in product_catalog(params):
        u, v = (singles[label] for label in U.label.split("*"))
        assert U.factors[0] is u and U.factors[1] is v
        n, m = U.dims
        for i, k, j, l in itertools.product(range(n), range(m), range(n), range(m)):
            entry, left, right = U.entries[i * m + k][j * m + l], u.entries[i][j], v.entries[k][l]
            assert _bits(entry.terms) == _bits(tensor(left, right).terms), (U.label, i, k, j, l)
            pruned += [U.label] * (len(left.terms) * len(right.terms) - len(entry.terms))
    # at tol 0.3 and q = 0.2 the product of c and c (coefficient q) is pruned, as tensor prunes it
    assert pruned == (["fund*fund"] if (q, tol) == (0.2, 0.3) else [])


@pytest.mark.parametrize("q", QS)
def test_product_F_is_the_kronecker_product_bit_for_bit(q):
    for u, v in itertools.product(standard_catalog(AlgebraParams(q=q)).values(), repeat=2):
        assert _bits(corep.product_corep(u, v).F) == _bits(np.kron(u.F, v.F)), (u.label, v.label)


def _written_out_one_leg(x, image, conjugate):
    """A map of one-leg monomials, image(m) = (scale, monomial), over x's terms onto 0j."""
    out: dict = {}
    for mono, coeff in x.terms.items():
        scale, mono2 = image(mono)
        out[mono2] = out.get(mono2, 0j) + (coeff.conjugate() if conjugate else coeff) * scale
    return Element._trusted(x.params, 1, out)


def _written_out_two_leg(x, image, conjugate):
    """The same map on every leg, with the legs' scales multiplied from 1.0."""
    out: dict = {}
    for tup, coeff in x.terms.items():
        scale = 1.0
        monos = []
        for mono in tup:
            s, mono2 = image(mono)
            scale *= s
            monos.append(mono2)
        key = tuple(monos)
        out[key] = out.get(key, 0j) + (coeff.conjugate() if conjugate else coeff) * scale
    return MultiElement._trusted(x.params, x.legs, out)


def _written_out_coproduct(x):
    out: dict = {}
    for mono, coeff in x.terms.items():
        for tup, c in _coproduct_monomial(x.params, mono).terms.items():
            out[tup] = out.get(tup, 0j) + coeff * c
    return MultiElement(x.params, 2, out)


def _written_out_coproduct_leg(x, leg):
    out: dict = {}
    for tup, coeff in x.terms.items():
        for (g1, g2), c in _coproduct_monomial(x.params, tup[leg]).terms.items():
            key = tup[:leg] + (g1, g2) + tup[leg + 1:]
            out[key] = out.get(key, 0j) + coeff * c
    return MultiElement(x.params, x.legs + 1, out)


def _written_out_scalars(x):
    """(ε(x), h(x)) by the one-leg sums and the two-leg loops."""
    if isinstance(x, Element):
        eps = 0j
        for mono, coeff in x.terms.items():
            if mono.m == 0 and mono.n == 0:
                eps += coeff
        return eps, sum((coeff * haar_monomial(mono, x.params) for mono, coeff in x.terms.items()), 0j)
    eps = h = 0j
    for tup, coeff in x.terms.items():
        if all(mono.m == 0 and mono.n == 0 for mono in tup):
            eps += coeff
        value = coeff
        for mono in tup:
            value *= haar_monomial(mono, x.params)
            if not value:
                break
        h += value
    return eps, h


@pytest.mark.parametrize("q", (0.3, 1.0))
def test_leg_wise_maps_are_the_written_out_loops_of_each_kind_bit_for_bit(q):
    params = AlgebraParams(q=q)
    rng = np.random.default_rng(7)
    maps = (
        (lambda x: x.adjoint(), lambda mono: _mono_adjoint(mono, q), True),
        (coinverse, lambda mono: _coinverse_monomial(mono, q), False),
        (coinverse_squared, lambda mono: (q ** (2 * (mono.n - mono.m)), mono), False),
    )
    for _ in range(40):
        one = random_element(rng, params, max_degree=3, n_terms=6)
        two = random_multi_element(rng, params, max_degree=2, n_terms=6)
        three = tensor(two, one)
        for merged, image, conjugate in maps:
            assert _bits(merged(one).terms) == _bits(_written_out_one_leg(one, image, conjugate).terms)
            for x in (two, three):
                assert _bits(merged(x).terms) == _bits(_written_out_two_leg(x, image, conjugate).terms)
        assert _bits(product_coinverse(two).terms) == _bits(coinverse(two).terms)
        assert _bits(coproduct(one).terms) == _bits(_written_out_coproduct(one).terms)
        assert _bits(apply_coproduct_leg(one, 0).terms) == _bits(_written_out_coproduct(one).terms)
        for leg in range(3):
            assert _bits(apply_coproduct_leg(three, leg).terms) == \
                _bits(_written_out_coproduct_leg(three, leg).terms)
        for x in (one, two, three):
            assert _bits((counit(x), haar(x))) == _bits(_written_out_scalars(x))
        assert _bits(product_counit(two)) == _bits(counit(two))


def _written_out_times_gen(mono, gen, q):
    """Right product of a basis monomial by one generator, as a dict."""
    k, m, n = mono.k, mono.m, mono.n
    if gen == GEN_C:
        return {_mono(mono.sector, k, m + 1, n): 1.0}
    if gen == GEN_CSTAR:
        return {_mono(mono.sector, k, m, n + 1): 1.0}
    if gen == GEN_A:
        phase = q ** (-(m + n))
        if mono.sector == PLAIN:
            return {_mono(PLAIN, k + 1, m, n): phase}
        return {_mono(STAR, k - 1, m, n): phase, _mono(STAR, k - 1, m + 1, n + 1): -phase / q}
    phase = q ** (m + n)
    if mono.sector == STAR or k == 0:
        return {_mono(STAR, k + 1, m, n): phase}
    return {_mono(PLAIN, k - 1, m, n): phase, _mono(PLAIN, k - 1, m + 1, n + 1): -phase * q}


def _written_out_mono_mul(x, y, q):
    acc = {x: 1.0 + 0.0j}
    for gen, count in ((GEN_A if y.sector == PLAIN else GEN_ASTAR, y.k), (GEN_C, y.m), (GEN_CSTAR, y.n)):
        for _ in range(count):
            nxt: dict = {}
            for mono, coeff in acc.items():
                for mono2, scale in _written_out_times_gen(mono, gen, q).items():
                    nxt[mono2] = nxt.get(mono2, 0j) + coeff * scale
            acc = nxt
    return tuple(acc.items())


def _monomials(max_degree):
    out = []
    for k, m, n in itertools.product(range(max_degree + 1), repeat=3):
        if k + m + n <= max_degree:
            out += [Monomial(PLAIN, k, m, n)] + ([Monomial(STAR, k, m, n)] if k else [])
    return out


@pytest.mark.parametrize("q", QS + (0.05,))
def test_mono_mul_is_the_written_out_rewriting(q):
    monos = _monomials(3)
    for x, y in itertools.product(monos, repeat=2):
        got = algebra._mono_mul.__wrapped__(x, y, q)
        assert _bits(got) == _bits(_written_out_mono_mul(x, y, q)), (x, y)


def test_leg_support_is_the_rule_of_the_rewriting_program():
    # the charge rule against what it replaced: whether the normal form of
    # p·m, as the q-free program writes it, has a monomial with a Haar value
    monos = _monomials(3)
    for p, m in itertools.product(monos, repeat=2):
        found = any(w.k == 0 and w.m == w.n for w in algebra._mono_mul_program(p, m)[1])
        assert leg_support(p, m) == found, (p, m)


def _written_out_system(entries):
    """compute_F's rows, built one by one."""
    dim = len(entries)
    k2 = [[coinverse_squared(e) for e in row] for row in entries]
    monomials = set()
    for grid in (entries, k2):
        for row in grid:
            for e in row:
                monomials.update(e.terms)
    rows = []
    for i in range(dim):
        for j in range(dim):
            for mono in sorted(monomials, key=lambda m: (m.sector, m.k, m.m, m.n)):
                row = np.zeros(dim * dim, dtype=complex)
                for r in range(dim):
                    row[r * dim + j] += k2[i][r].coeff(mono)
                    row[i * dim + r] -= entries[r][j].coeff(mono)
                if np.any(np.abs(row) > 0):
                    rows.append(row)
    return np.array(rows, dtype=complex).reshape(-1, dim * dim)


@pytest.mark.parametrize("q", QS + (0.05,))
def test_the_intertwiner_system_is_the_written_out_one(q):
    params = AlgebraParams(q=q)
    u = fundamental_corep(params)
    scaled = tuple(tuple(e * (1.0 - 0.5j) for e in row) for row in u.entries)
    for entries in (u.entries, scaled, standard_catalog(params)["triv"].entries):
        assert _bits(corep._intertwiner_system(entries)) == _bits(_written_out_system(entries))


def test_a_fresh_q_ppt_request_builds_no_adjoint_and_solves_no_F(monkeypatch, capsys):
    adjoints, solved, eigen, legs, trusted = [], [], [], [], []
    original_adjoint, original_solve, original_eigh = MultiElement.adjoint, corep.compute_F, np.linalg.eigh
    original_leg, original_trusted = PairingTables.leg, algebra._ElementCore._trusted.__func__

    def counting_leg(self, p, m):
        legs.append((p, m))
        return original_leg(self, p, m)

    def counting_trusted(cls, params, n_legs, terms):
        trusted.append(cls)
        return original_trusted(cls, params, n_legs, terms)

    def counting_adjoint(self):
        adjoints.append(self)
        return original_adjoint(self)

    def counting_solve(entries, params):
        solved.append(params)
        return original_solve(entries, params)

    def counting_eigh(a, *args, **kwargs):
        eigen.append(sys._getframe(1).f_code.co_name)
        return original_eigh(a, *args, **kwargs)

    monkeypatch.setattr(MultiElement, "adjoint", counting_adjoint)
    monkeypatch.setattr(corep, "compute_F", counting_solve)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(PairingTables, "leg", counting_leg)
    monkeypatch.setattr(algebra._ElementCore, "_trusted", classmethod(counting_trusted))
    corep.engine.cache_clear()
    for q, path, code in ((0.3579, "werner_0.6.json", 1), (0.7531, "werner_0.2.json", 0), (0.37, "werner_0.6.json", 1)):
        for seen in (adjoints, solved, eigen, legs, trusted):
            seen.clear()
        lookups = algebra._mono_mul.cache_info()
        assert main(["ppt", "--input", str(DATA / path), "--q", str(q), "--format", "json"]) == code
        # F is the closed form, and its roots are taken entry-wise: the one eigen-solve
        # is that of the NPT witness
        assert adjoints == [] and solved == []
        assert eigen == ["_witness"] * (code == 1)
        # the catalog's 5 one-leg pairings, each one product of monomials, are all the
        # symbolic work; the only elements built are x, θx and the witness, and no
        # product corep's entries
        after = algebra._mono_mul.cache_info()
        assert len(legs) == len(set(legs)) == 5
        assert after.hits + after.misses - lookups.hits - lookups.misses == 5
        assert trusted.count(MultiElement) == len(trusted) == 2 + (code == 1)
    capsys.readouterr()
