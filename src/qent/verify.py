"""Property suites behind the `verify` command: one Check per verified law.

Each suite evaluates a family of identities at the configured parameters
and reports the worst residual per law.  The suites are deterministic for a
fixed seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraParams, Element, Monomial, PLAIN, STAR, _mono_mul, generators
from .corep import (
    _sum,
    engine,
    fundamental_corep,
    intertwiner_residual,
    orthogonality_check,
    product_catalog,
    standard_catalog,
    trivial_corep,
    unitarity_residual,
)
from .entangle import (
    EIG_TOL,
    NOT_POSITIVE_DEFINITE,
    POSITIVE_DEFINITE,
    SEPARABLE,
    is_positive_definite_many,
    pd_witness_value,
    ppt_many,
    ppt_matrix,
    separable_build,
    tensor_pd,
    decide_separability_2x2,
)
from .fourier import (
    DensityOp,
    forward,
    inverse,
    normalization_check,
    reconstruct,
    singlet_state,
    werner_state,
)
from .haar import haar, invariance_residual
from .hopf import (
    MultiElement,
    _coinverse_monomial,
    apply_coproduct_leg,
    coinverse,
    coproduct,
    counit,
    partial_theta,
    product_coinverse,
    product_coproduct,
    product_counit,
    tensor,
    theta,
)

DEFAULT_SEED = 20230817
SUITE_NAMES = ("hopf", "haar", "corep", "fourier", "entangle")


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: residual {self.residual:.3e} (bound {self.bound:.1e})"


# -- random corpora -----------------------------------------------------------

def monomials_up_to(max_degree: int):
    """All basis monomials of degree at most max_degree."""
    out = []
    for sector in (PLAIN, STAR):
        k_lo = 0 if sector == PLAIN else 1
        for k in range(k_lo, max_degree + 1):
            for m in range(max_degree - k + 1):
                for n in range(max_degree - k - m + 1):
                    out.append(Monomial(sector, k, m, n))
    return out


def random_element(rng, params: AlgebraParams, max_degree: int = 3, n_terms: int = 4) -> Element:
    pool = monomials_up_to(max_degree)
    idx = rng.choice(len(pool), size=min(n_terms, len(pool)), replace=False)
    terms = {}
    for i in idx:
        terms[pool[int(i)]] = complex(rng.normal(), rng.normal())
    return Element(params, terms)


def random_multi_element(rng, params: AlgebraParams, max_degree: int = 2, n_terms: int = 4) -> MultiElement:
    pool = monomials_up_to(max_degree)
    terms = {}
    for _ in range(n_terms):
        left = pool[int(rng.integers(len(pool)))]
        right = pool[int(rng.integers(len(pool)))]
        terms[(left, right)] = complex(rng.normal(), rng.normal())
    return MultiElement(params, 2, terms)


def random_witness(rng, params: AlgebraParams, extra_terms: int = 4) -> MultiElement:
    """Gaussian witness over degree <= 2 legs, dense on the degree-1 pairs.

    Degree-1 legs are the only ones that pair against the fundamental
    block's matrix coefficients under the Haar state, so a witness that is
    dense there probes the positive-definiteness pairing non-trivially.
    """
    degree_one = [m for m in monomials_up_to(1) if m.degree == 1]
    terms = {}
    for left in degree_one:
        for right in degree_one:
            terms[(left, right)] = complex(rng.normal(), rng.normal())
    pool = monomials_up_to(2)
    for _ in range(extra_terms):
        left = pool[int(rng.integers(len(pool)))]
        right = pool[int(rng.integers(len(pool)))]
        key = (left, right)
        terms[key] = terms.get(key, 0j) + complex(rng.normal(), rng.normal())
    return MultiElement(params, 2, terms)


def random_hermitian(rng, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


def random_psd(rng, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return raw @ raw.conj().T


def random_state(rng, dims=(2, 2)) -> DensityOp:
    mat = random_psd(rng, dims[0] * dims[1])
    return DensityOp(dims, mat / np.trace(mat).real)


def random_pd_element(rng, params: AlgebraParams) -> Element:
    """A random positive definite single-factor element over {triv, fund}."""
    fund = fundamental_corep(params)
    weight = float(rng.uniform(0.0, 1.0))
    return Element.unit(params) * weight + forward(random_psd(rng, 2), fund)


# -- suites ---------------------------------------------------------------------

def hopf_suite(params: AlgebraParams, seed: int = DEFAULT_SEED, n_random: int = 50) -> list:
    rng = np.random.default_rng(seed)
    a, astar, c, cstar = generators(params)
    fund = fundamental_corep(params)
    fund_entries = [fund.entries[i][j] for i in range(2) for j in range(2)]
    corpus = list(fund_entries)
    corpus += [random_element(rng, params, max_degree=3) for _ in range(n_random)]

    coassoc = 0.0
    counit_law = 0.0
    antipode = 0.0
    for x in corpus:
        dx = coproduct(x)
        coassoc = max(coassoc, apply_coproduct_leg(dx, 0).distance(apply_coproduct_leg(dx, 1)))
        left = _contract_counit(dx, 0)
        right = _contract_counit(dx, 1)
        counit_law = max(counit_law, left.distance(x), right.distance(x))
        target = Element.unit(params) * counit(x)
        antipode = max(
            antipode,
            _fold_legs(dx, apply_kappa_first=True).distance(target),
            _fold_legs(dx, apply_kappa_first=False).distance(target),
        )

    antipode_matrix = 0.0
    for i in range(2):
        for j in range(2):
            target = Element.unit(params) * (1.0 if i == j else 0.0)
            lhs = _sum(coinverse(fund.entries[i][r]) * fund.entries[r][j] for r in range(2))
            rhs = _sum(fund.entries[i][r] * coinverse(fund.entries[r][j]) for r in range(2))
            antipode_matrix = max(antipode_matrix, lhs.distance(target), rhs.distance(target))

    anti_comult = 0.0
    for g in (a, astar, c, cstar):
        lhs = coproduct(coinverse(g))
        flipped = MultiElement(params, 2, {(m1, m0): coeff for (m0, m1), coeff in coproduct(g).terms.items()})
        rhs = product_coinverse(flipped)
        anti_comult = max(anti_comult, lhs.distance(rhs))

    theta_ident = 0.0
    for g in (a, astar, c, cstar):
        theta_ident = max(theta_ident, theta(theta(g)).distance(g))
    for _ in range(20):
        x = random_element(rng, params, max_degree=2)
        y = random_element(rng, params, max_degree=2)
        theta_ident = max(theta_ident, theta(x * y).distance(theta(x) * theta(y)))

    comult_rule = _product_comultiplication_residual(params)

    return [
        Check("coassociativity", coassoc, 1e-9),
        Check("counit law", counit_law, 1e-9),
        Check("antipode law (general)", antipode, 1e-9),
        Check("antipode law (matrix coefficients)", antipode_matrix, 1e-9),
        Check("anti-comultiplicativity of the coinverse", anti_comult, 1e-9),
        Check("transposition-map identities", theta_ident, 1e-9),
        Check("product comultiplication rule", comult_rule, 1e-9),
    ]


def haar_suite(params: AlgebraParams, seed: int = DEFAULT_SEED, max_degree: int = 6) -> list:
    rng = np.random.default_rng(seed)
    invariance = max(
        invariance_residual(Element.monomial(params, mono))
        for mono in monomials_up_to(max_degree)
    )

    basis = monomials_up_to(2)
    gram = np.empty((len(basis), len(basis)), dtype=complex)
    for i, mi in enumerate(basis):
        left = Element.monomial(params, mi).adjoint()
        for j, mj in enumerate(basis):
            gram[i, j] = haar(left * Element.monomial(params, mj))
    gram_min = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2.0).min())

    hermit = 0.0
    for _ in range(20):
        x = random_element(rng, params, max_degree=3)
        hermit = max(hermit, abs(haar(x.adjoint()) - haar(x).conjugate()))

    fund = fundamental_corep(params)
    u12 = fund.entries[0][1]
    ortho = abs(haar(u12 * u12.adjoint()) - fund.F[1, 1] / np.trace(fund.F))

    return [
        Check(f"invariance (monomials of degree <= {max_degree})", invariance, 1e-9),
        Check("gram matrix positivity (degree <= 2)", max(0.0, -gram_min), 1e-10),
        Check("hermiticity of the state", hermit, 1e-9),
        Check("orthogonality consistency h(u12 u12*) = F22/trF", float(ortho), 1e-9),
    ]


def corep_suite(params: AlgebraParams, seed: int = DEFAULT_SEED) -> list:
    triv = trivial_corep(params)
    fund = fundamental_corep(params)
    q = params.q

    unitarity = max(unitarity_residual(triv), unitarity_residual(fund))
    solved = engine(params).solved_F()  # the intertwiner solve, the oracle of fund's closed-form F
    f_value = float(np.max(np.abs(solved - fund.F)))
    f_norm = abs(np.trace(solved) - np.trace(np.linalg.inv(solved)))
    qdim = abs(np.trace(solved) - (q + 1.0 / q))

    products = product_catalog(params)
    unitarity = max(unitarity, max(unitarity_residual(U) for U in products))
    intertwine = max(intertwiner_residual(U) for U in [triv, fund, *products])

    kappa_res = 0.0
    eps_res = 0.0
    for U in products:
        n, m = U.dims
        for i, k, j, l in itertools.product(range(n), range(m), range(n), range(m)):
            entry = U.entries[i * m + k][j * m + l]
            kappa_res = max(
                kappa_res,
                product_coinverse(entry).distance(U.entries[j * m + l][i * m + k].adjoint()),
            )
            expect = 1.0 if (i == j and k == l) else 0.0
            eps_res = max(eps_res, abs(product_counit(entry) - expect))

    ortho = 0.0
    for u, w in itertools.product((triv, fund), repeat=2):
        ortho = max(ortho, orthogonality_check(u, w))
    for U, W in itertools.product(products, repeat=2):
        ortho = max(ortho, orthogonality_check(U, W))

    comult_rule = _product_comultiplication_residual(params)

    return [
        Check("unitarity", unitarity, 1e-9),
        Check("F = diag(1/q, q)", f_value, 1e-9),
        Check("tr F = tr F^-1", float(f_norm), 1e-9),
        Check("quantum dimension q + 1/q", float(qdim), 1e-9),
        Check("double-contragredient intertwining", intertwine, 1e-9),
        Check("coinverse of product entries", kappa_res, 1e-9),
        Check("counit of product entries", eps_res, 1e-9),
        Check("orthogonality relations (all tuples)", ortho, 1e-9),
        Check("product comultiplication rule", comult_rule, 1e-9),
    ]


def fourier_suite(params: AlgebraParams, seed: int = DEFAULT_SEED, n_random: int = 100) -> list:
    rng = np.random.default_rng(seed)
    U = product_catalog(params, ("fund*fund",))[0]
    U_triv = product_catalog(params, ("triv*triv",))[0]

    roundtrip = 0.0
    norm_res = 0.0
    for _ in range(n_random):
        rho = random_hermitian(rng, 4)
        x = forward(rho, U)
        roundtrip = max(roundtrip, float(np.max(np.abs(reconstruct(x, U) - rho))))
        norm_res = max(norm_res, abs(normalization_check(x) - np.trace(rho)))

    linearity = 0.0
    for _ in range(10):
        rho, sigma = random_hermitian(rng, 4), random_hermitian(rng, 4)
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        lhs = forward(alpha * rho + beta * sigma, U)
        rhs = forward(rho, U) * alpha + forward(sigma, U) * beta
        linearity = max(linearity, lhs.distance(rhs))

    block_orth = 0.0
    for _ in range(5):
        x = forward(random_hermitian(rng, 4), U)
        block_orth = max(block_orth, float(np.max(np.abs(inverse(x, U_triv)))))

    pt_res = 0.0
    for _ in range(50):
        rho = random_hermitian(rng, 4)
        pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        pt_res = max(pt_res, partial_theta(forward(rho, U)).distance(forward(pt, U)))

    return [
        Check(f"round trip over {n_random} random hermitians", roundtrip, 1e-8),
        Check("normalization equals the trace", float(norm_res), 1e-10),
        Check("linearity", linearity, 1e-9),
        Check("block orthogonality against the trivial block", block_orth, 1e-9),
        Check("partial transposition correspondence", pt_res, 1e-10),
    ]


def entangle_suite(params: AlgebraParams, seed: int = DEFAULT_SEED, n_random: int = 100) -> list:
    rng = np.random.default_rng(seed)
    catalog = product_catalog(params)
    U = next(c for c in catalog if c.label == "fund*fund")
    singles = tuple(standard_catalog(params).values())

    # every loop draws its numbers first and then checks its stack in one call, which draws none
    equivalence_misses = 0.0
    witness_res = 0.0
    rhos = np.array([random_psd(rng, 4) if idx % 2 == 0 else random_hermitian(rng, 4) for idx in range(n_random)])
    lowest = np.linalg.eigvalsh((rhos + rhos.conj().transpose(0, 2, 1)) / 2.0)[:, 0]
    xs = [forward(rho, U) for rho in rhos]
    for x, psd, report in zip(xs, (lowest >= -EIG_TOL).tolist(), is_positive_definite_many(xs, catalog)):
        if psd != (report.verdict == POSITIVE_DEFINITE):
            equivalence_misses += 1.0
        if report.verdict == NOT_POSITIVE_DEFINITE:
            value = pd_witness_value(x, report.witness)
            witness_res = max(witness_res, value.real + EIG_TOL, abs(value.imag) - 1e-9)

    pairing_res = 0.0
    pairing_seen_nonzero = False
    for _ in range(5):
        x = forward(random_psd(rng, 4), U)
        for _ in range(10):
            b = random_witness(rng, params)
            value = pd_witness_value(x, b)
            if abs(value) > 1e-6:
                pairing_seen_nonzero = True
            pairing_res = max(pairing_res, -value.real - EIG_TOL, abs(value.imag) - 1e-9)
    if not pairing_seen_nonzero:
        pairing_res = max(pairing_res, 1.0)  # the check must not be vacuous

    pt_agreement_misses = 0.0
    corpus = [singlet_state(), werner_state(0.2), werner_state(1.0 / 3.0), werner_state(0.6)]
    corpus += [random_state(rng) for _ in range(50)]
    for rho, report in zip(corpus, ppt_many([forward(rho, U) for rho in corpus], catalog)):
        if ppt_matrix(rho).psd != (report.verdict == POSITIVE_DEFINITE):
            pt_agreement_misses += 1.0

    # a refusal of a factor (at q below about 5e-4) fails its loop's check; every draw comes before it
    mixture_failures = 0.0
    transfer = 0.0
    mixtures = []
    for _ in range(n_random):
        n_terms = int(rng.integers(1, 4))
        terms = [
            (float(rng.uniform(0.1, 1.0)), random_pd_element(rng, params), random_pd_element(rng, params))
            for _ in range(n_terms)
        ]
        try:
            mixtures.append(separable_build(terms, singles))
        except ValueError:
            mixture_failures += 1.0
    mixture_failures += sum(report.verdict != POSITIVE_DEFINITE for report in ppt_many(mixtures, catalog))
    for _ in range(10):
        terms = [
            (float(rng.uniform(0.1, 1.0)), random_pd_element(rng, params), random_pd_element(rng, params))
            for _ in range(2)
        ]
        try:
            mat = reconstruct(separable_build(terms, singles), U)
            decided = decide_separability_2x2(DensityOp((2, 2), mat / np.trace(mat).real))
        except ValueError:
            decided = None
        if decided != SEPARABLE:
            transfer += 1.0

    product_block_res = 0.0
    for _ in range(20):
        a = random_pd_element(rng, params)
        b = random_pd_element(rng, params)
        try:
            gap = max(0.0, -min(tensor_pd(a, b, singles)[1]["product"].values()) - EIG_TOL)
        except ValueError:
            gap = 1.0
        product_block_res = max(product_block_res, gap)

    theta_sides = 0.0
    xs = [forward(rho, U) for rho in [singlet_state(), werner_state(0.2), werner_state(0.6)]
          + [random_state(rng) for _ in range(10)]]
    for second, first in zip(ppt_many(xs, catalog, leg=1), ppt_many(xs, catalog, leg=0)):
        if first.verdict != second.verdict:
            theta_sides += 1.0

    return [
        Check(f"transform positivity equivalence ({n_random} matrices)", equivalence_misses, 0.0),
        Check("negative witnesses certify failures", witness_res, 0.0),
        Check("random witnesses respect positive definiteness", pairing_res, 0.0),
        Check("matrix/algebra partial-transpose agreement", pt_agreement_misses, 0.0),
        Check(f"separable mixtures pass the PPT check ({n_random} mixtures)", mixture_failures, 0.0),
        Check("reconstructed mixtures decide separable", transfer, 0.0),
        Check("product blocks of PD factors stay PSD", product_block_res, 0.0),
        Check("transposing the first leg agrees with the second", theta_sides, 0.0),
    ]


_SUITES = {
    "hopf": hopf_suite,
    "haar": haar_suite,
    "corep": corep_suite,
    "fourier": fourier_suite,
    "entangle": entangle_suite,
}


def run_suite(name: str, params: AlgebraParams, seed: int = DEFAULT_SEED) -> list:
    """Run one named suite, or all of them; returns the list of Checks."""
    if name == "all":
        checks = []
        for suite in SUITE_NAMES:
            checks.extend(_SUITES[suite](params, seed))
        return checks
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {', '.join(SUITE_NAMES)} or 'all')")
    return _SUITES[name](params, seed)


# -- helpers --------------------------------------------------------------------

def _contract_counit(x: MultiElement, leg: int) -> Element:
    out = {}
    for tup, coeff in x.terms.items():
        if tup[leg].m == 0 and tup[leg].n == 0:
            other = tup[1 - leg]
            out[other] = out.get(other, 0j) + coeff
    return Element(x.params, out)


def _fold_legs(dx: MultiElement, apply_kappa_first: bool) -> Element:
    """Multiply the two legs into one Element, with κ on the chosen leg.

    It is the sum of (κ(m0)·m1)·c, or (m0·κ(m1))·c, over Δx's terms c·m0 ⊗ m1,
    in one dict: every coefficient takes the arithmetic of the one-term
    Elements, their product, its multiple and the running sum, and is
    pruned at tol wherever one of those Elements would prune it.
    """
    q, tol = dx.params.q, dx.params.tol
    total: dict = {}
    for (m0, m1), coeff in dx.terms.items():
        # κ on the one-term Element 1·m, (1+0j)·scale added onto 0j
        if apply_kappa_first:
            scale, m0 = _coinverse_monomial(m0, q)
        else:
            scale, m1 = _coinverse_monomial(m1, q)
        image = 0j + (1 + 0j) * scale
        if abs(image) <= tol:
            continue
        for mono, product in _mono_mul(m0, m1, q):
            # the product of the two one-term Elements, then its multiple by coeff
            term = 0j + image * (1 + 0j) * product
            if abs(term) <= tol:
                continue
            term = term * coeff
            if abs(term) <= tol:
                continue
            term = total.get(mono, 0j) + term
            if abs(term) <= tol:
                total.pop(mono, None)
            else:
                total[mono] = term
    return Element._trusted(dx.params, 1, total)


def _product_comultiplication_residual(params: AlgebraParams) -> float:
    """Δ U_(ik),(jl) = Σ_rs U_(ik),(rs) ⊗ U_(rs),(jl) entry-wise on fund⊗fund."""
    U = product_catalog(params, ("fund*fund",))[0]
    d = U.dim
    residual = 0.0
    for row in range(d):
        for col in range(d):
            lhs = product_coproduct(U.entries[row][col])
            terms = {}
            for mid in range(d):
                for tup, coeff in tensor(U.entries[row][mid], U.entries[mid][col]).terms.items():
                    terms[tup] = terms.get(tup, 0j) + coeff
            rhs = MultiElement(params, 4, terms)
            residual = max(residual, lhs.distance(rhs))
    return residual
