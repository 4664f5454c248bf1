"""Positive definiteness, separability, and the quantum PPT criterion.

A two-leg element x is positive definite when (b*hκ ⊗ hb)Δx >= 0 for every
two-leg b, where hb(y) = h(by) and b*hκ(y) = h(κ(y)b*).  Over a catalog of
irreducible blocks this is equivalent to every inverse-transform block of x
being positive semidefinite, which is what the report-producing checks
compute.  Separable elements are convex combinations of tensor products of
single-factor positive definite elements; applying the transposition map to
one leg of a separable element preserves positive definiteness, giving a
transform-side partial-transposition test that mirrors the matrix-side PPT
criterion.

Every step of the test is linear in x's coefficients, so the test works
on a stack of elements at once: `is_positive_definite_many` gathers every
x's coefficients as one row of a matrix, takes every block and support
residual from one product with the catalog's compiled map
(`fourier.catalog_map`) and one re-expansion product, and tests the blocks
of each size, of every x, in one stacked eigen-solve.  A witness is built
only for a failing row of a product catalog, from its failing block, with
its eigenvector in a canonical phase.  It serves a two-leg x over product
coreps and a one-leg x over single-factor coreps alike.  `ppt_many` forms
each θx, the transposition map on one leg, with `partial_theta` and sends
the stack through the same test.  The one-element calls,
`is_positive_definite` and `ppt_check`, are the stacks of one, so a
report does not depend on the stack it came in: each row is its own
matrix-vector product and its own eigen-solves.  `separable_build` tests
all its factors in one stack and `tensor_pd` both of its factors; the
per-block `inverse` that `find_negative_witness` calls without a block
reads the same map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _checked_kind
from .corep import Corep, pairing_tables, standard_catalog
from .fourier import DensityOp, block_map, catalog_map, inverse
from .hopf import MultiElement, _require_theta_leg, tensor

POSITIVE_DEFINITE = "POSITIVE_DEFINITE"
NOT_POSITIVE_DEFINITE = "NOT_POSITIVE_DEFINITE"
UNDECIDED_SUPPORT = "UNDECIDED_SUPPORT"

SEPARABLE = "SEPARABLE"
ENTANGLED = "ENTANGLED"

# eigenvalues in (-EIG_TOL, 0) count as zero; eigen-solvers jitter at this scale
EIG_TOL = 1e-9
# eigenvector components whose moduli agree to this relative tolerance tie for the witness's phase
WITNESS_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class PDReport:
    """Outcome of a positive-definiteness check over a block catalog."""

    verdict: str
    per_block: dict
    support_residual: float
    witness: MultiElement | None = None


@dataclass(frozen=True)
class PPTMatrixReport:
    """Partial-transpose spectrum of a density operator."""

    psd: bool
    eigenvalues: tuple


def pd_witness_value(x: MultiElement, b: MultiElement) -> complex:
    """(b*hκ ⊗ hb)Δx: the positive-definiteness pairing of x against a witness b.

    The four-leg coproduct of x is contracted with y ↦ h(κ(y)·b*) on the
    first leg pair and y ↦ h(b·y) on the second.  For positive definite x
    the value is real and non-negative for every b.

    Both functionals are products over legs, so with b = Σ_j β_j p_j ⊗ s_j
    the value is Σ x_(ma,mb) Σ_jk β_j conj(β_k) G(ma; p_j, p_k) G(mb; s_j, s_k)
    with the Gram matrices of the memoised one-leg factor G from
    `PairingTables.gram`.
    """
    _checked_kind(2, x, b)
    if x.params != b.params:
        raise ValueError("operands carry different algebra parameters")
    gram = pairing_tables(x.params).gram
    lefts = [p for p, _ in b.terms]
    rights = [s for _, s in b.terms]
    beta = np.fromiter(b.terms.values(), complex, len(b.terms))
    weights = np.outer(beta, beta.conj())
    left_grams = {ma: gram(ma, lefts) for ma in {ma for ma, _ in x.terms}}
    right_grams = {mb: gram(mb, rights) for mb in {mb for _, mb in x.terms}}
    total = 0j
    for (ma, mb), coeff in x.terms.items():
        total += coeff * (weights * left_grams[ma] * right_grams[mb]).sum()
    return complex(total)


def is_positive_definite(x, catalog) -> PDReport:
    """Block-wise positive-definiteness test over a catalog of coreps.

    x is a two-leg element over product coreps, or a one-leg Element over
    single-factor coreps.  Every block of the inverse transform must be
    positive semidefinite and the catalog must span x (support residual
    within tolerance); otherwise the verdict is NOT_POSITIVE_DEFINITE or
    UNDECIDED_SUPPORT respectively.  A failing block of a product catalog
    yields a concrete witness b with a negative pairing.

    It is `is_positive_definite_many` of the stack of one x.
    """
    return is_positive_definite_many((x,), catalog)[0]


def is_positive_definite_many(xs, catalog) -> list:
    """`is_positive_definite` of each x in xs, as a list of reports equal to the one-by-one reports bit for bit.

    The stack takes one product with the catalog's compiled map, one
    re-expansion product for the residuals and one eigen-solve per block
    size over every x and block.  An x that the single call refuses is
    refused, the first such x first.
    """
    compiled = catalog_map(tuple(catalog))
    xs = list(xs)
    return _block_reports(compiled, xs, *compiled.transform(*compiled.gather(xs)))


def _block_reports(compiled, xs, flat, residuals) -> list:
    """The reports of `is_positive_definite_many` from the rows of the catalog map's `flat`, one per x."""
    adjoint = flat.take(compiled.transpose, axis=1).conj()
    herm = flat + adjoint
    herm /= 2.0
    # a non-hermitian block pairs to non-real values against suitable witnesses
    asymmetry = np.maximum.reduce(np.abs(flat - adjoint), axis=1, initial=0.0).tolist()
    # per block size, (catalog positions, each x's lowest eigenvalue of each block); a 1×1 block is its own
    stacks = [(positions, (herm.take(take, axis=1).real if take.ndim == 1
                           else np.linalg.eigvalsh(herm.take(take, axis=1))[..., 0]).tolist())
              for positions, take in compiled.stacks]
    labels = compiled.labels
    reports = []
    for row, (x, residual, asym) in enumerate(zip(xs, residuals, asymmetry)):
        params = x.params
        lowest = [0.0] * len(labels)
        for positions, values in stacks:
            for i, value in zip(positions, values[row]):
                lowest[i] = value
        failing = None
        failing_min = 0.0
        for i, min_eig in enumerate(lowest):
            if min_eig < -EIG_TOL and min_eig < failing_min:
                failing = i
                failing_min = min_eig
        per_block = dict(zip(labels, lowest))
        if residual > params.tol:
            reports.append(PDReport(UNDECIDED_SUPPORT, per_block, residual))
        elif failing is None and not asym > params.tol:
            reports.append(PDReport(POSITIVE_DEFINITE, per_block, residual))
        else:
            witness = None
            if failing is not None and compiled.legs == 2:
                witness = _witness(params, compiled.block(herm[row], failing),
                                   *block_map(compiled.coreps[failing]).witness)
            reports.append(PDReport(NOT_POSITIVE_DEFINITE, per_block, residual, witness))
    return reports


def find_negative_witness(x: MultiElement, U: Corep, *, block=None) -> MultiElement | None:
    """A witness b with pd_witness_value(x, b) < 0, or None when the block is PSD.

    The block's most negative eigenvector is pulled back through the
    deformed orthogonality relations: with b a combination of adjoints of
    one row of matrix coefficients (compiled once per block, see
    `BlockMap.witness`, which every catalog map keeps for its blocks), the pairing
    collapses to a positive multiple of ⟨v|A|v⟩ for the block coefficient
    matrix A, so the negative eigenvector certifies failure.  `block`, when given, is the inverse
    transform x̂(U), so a caller that already has it does not compute it
    again; a block of any shape other than (U.dim, U.dim) is refused.
    """
    # the witness is built with the trusted constructor from U's adjoints, keyed as x is
    _checked_kind(2, x, U, names=Corep.pairing_kinds)
    if block is None:
        block = inverse(x, U)
    elif np.shape(block) != (U.dim, U.dim):
        raise ValueError(f"block has shape {np.shape(block)}, {U.label} needs ({U.dim}, {U.dim})")
    herm = (block + block.conj().T) / 2.0
    if float(np.linalg.eigvalsh(herm).min()) >= -EIG_TOL:
        return None
    compiled = block_map(U)
    return _witness(x.params, herm, *compiled.witness)


def _witness(params, herm, sqrtF, trF, witness_adjoints) -> MultiElement:
    """The witness of `find_negative_witness` from a non-PSD hermitian block and U's compiled data.

    sqrtF is √F as a complex matrix, which gives the bits the matrix
    product would give after casting a real √F itself.  The keys of a
    product corep's adjoints are two-leg tuples, as the trusted
    constructor needs.
    """
    eigvals, vecs = np.linalg.eigh(trF * (sqrtF @ herm @ sqrtF))
    v = vecs[:, int(np.argmin(eigvals))]
    # eigh fixes v only up to a phase: rotate the first component of largest modulus to the
    # positive reals, counting moduli within WITNESS_TIE_RTOL of the largest as ties, so that
    # a block that moves in its last bits gives the same witness up to rounding
    size = np.abs(v).tolist()
    top = (1.0 - WITNESS_TIE_RTOL) * max(size)
    pivot = v[next(i for i, s in enumerate(size) if s >= top)]
    v = v * (pivot.conjugate() / abs(pivot))
    terms: dict = {}
    # Python's complex product has the bits of numpy's scalar one, at a fraction of its cost
    for beta, adjoint in zip(v.conj().tolist(), witness_adjoints):
        if abs(beta) > 0:
            for tup, coeff in adjoint:
                terms[tup] = terms.get(tup, 0j) + coeff * beta
    return MultiElement._trusted(params, 2, terms)


def is_positive_definite_single(x, coreps) -> PDReport:
    """`is_positive_definite` for a one-leg x over single-factor coreps."""
    return is_positive_definite(x, coreps)


def separable_build(terms, coreps=None) -> MultiElement:
    """Σ p_λ a_λ ⊗ b_λ from non-negative weights and positive definite factors.

    Raises ValueError on a negative weight or a factor that fails the
    single-factor positive-definiteness test over the given corep catalog
    (default: trivial and fundamental), the first of them in (term,
    left/right) order.  The factors before the first negative weight are
    tested in one `is_positive_definite_many` call, which refuses a factor
    of another kind or parameters before any verdict is read.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("separable_build needs at least one term")
    params = terms[0][1].params
    if coreps is None:
        coreps = tuple(standard_catalog(params).values())
    signed = next((idx for idx, (weight, _, _) in enumerate(terms) if weight < 0), len(terms))
    factors = [factor for _, left, right in terms[:signed] for factor in (left, right)]
    reports = is_positive_definite_many(factors, coreps) if factors else []
    for k, report in enumerate(reports):
        if report.verdict != POSITIVE_DEFINITE:
            raise ValueError(
                f"term {k // 2}: {('left', 'right')[k % 2]} factor is not positive definite "
                f"({report.verdict}, blocks {report.per_block})"
            )
    if signed < len(terms):
        raise ValueError(f"term {signed}: negative weight {terms[signed][0]}")
    out = MultiElement.zero(params, 2)
    for weight, left, right in terms:
        out = out + tensor(left, right) * float(weight)
    return out


def ppt_check(x: MultiElement, catalog, *, leg: int = 1) -> PDReport:
    """Positive-definiteness of the element with the transposition map on one leg.

    Separable elements always pass; a failure certifies entanglement of any
    operator whose transform is x.  It is `ppt_many` of the stack of one x.
    """
    return ppt_many((x,), catalog, leg=leg)[0]


def ppt_many(xs, catalog, *, leg: int = 1) -> list:
    """`ppt_check` of each x in xs, as a list of reports equal to the one-by-one reports bit for bit.

    Each report is that of is_positive_definite(partial_theta(x, leg=leg),
    catalog), bit for bit: `CatalogMap.gather` forms each θx with
    `partial_theta` as it fills its row, and the stack goes through
    `is_positive_definite_many`'s block test.  θ's argument checks run on
    every x first, so they are raised before the catalog's.
    """
    xs = list(xs)
    for x in xs:
        _require_theta_leg(x, leg)
    compiled = catalog_map(tuple(catalog))
    return _block_reports(compiled, xs, *compiled.transform(*compiled.gather(xs, leg)))


def partial_transpose(matrix, dims, leg: int = 1) -> np.ndarray:
    """Transpose one tensor factor (leg 0 or 1) of a bipartite matrix in the product basis."""
    if leg not in (0, 1):
        raise ValueError("leg must be 0 or 1")
    n, m = dims
    arr = np.asarray(matrix, dtype=complex).reshape(n, m, n, m)
    arr = arr.transpose(0, 3, 2, 1) if leg == 1 else arr.transpose(2, 1, 0, 3)
    return arr.reshape(n * m, n * m)


def ppt_matrix(rho: DensityOp) -> PPTMatrixReport:
    """Spectrum test of the partial transpose on the second factor."""
    if not rho.is_hermitian(1e-9):
        raise ValueError("ppt_matrix requires a hermitian input")
    pt = partial_transpose(rho.matrix, rho.dims)
    eigvals = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)
    return PPTMatrixReport(bool(eigvals.min() >= -EIG_TOL), tuple(float(v) for v in eigvals))


def tensor_pd(a, b, coreps=None):
    """a ⊗ b for positive definite single-factor elements, with a PSD certificate.

    The certificate records the single-factor block minima together with the
    product-block minima.  With F = F_u ⊗ F_v, the block of a ⊗ b over
    u ⊗ v is the Kronecker product of the blocks of a over u and of b over
    v, so positivity of the factors forces positivity of the product, and
    the product minima are taken from those Kronecker products of the
    blocks the single-factor catalog map gives to both factors in one stack.
    """
    if coreps is None:
        coreps = standard_catalog(a.params).values()
    compiled = catalog_map(tuple(coreps))
    flat, residuals = compiled.transform(*compiled.gather((a, b)))
    reports = _block_reports(compiled, (a, b), flat, residuals)
    for name, report in zip(("left", "right"), reports):
        if report.verdict != POSITIVE_DEFINITE:
            raise ValueError(f"{name} factor is not positive definite ({report.verdict})")
    product_minima = {}
    for i, u in enumerate(compiled.coreps):
        for j, v in enumerate(compiled.coreps):
            block = np.kron(compiled.block(flat[0], i), compiled.block(flat[1], j))
            min_eig = float(np.linalg.eigvalsh((block + block.conj().T) / 2.0).min())
            product_minima[f"{u.label}*{v.label}"] = min_eig
    certificate = {
        "left": reports[0].per_block,
        "right": reports[1].per_block,
        "product": product_minima,
    }
    return tensor(a, b), certificate


def decide_separability_2x2(rho: DensityOp) -> str:
    """SEPARABLE or ENTANGLED for a 2⊗2 state; the PPT test is decisive here.

    Larger carrier spaces are refused: there the partial transpose is only a
    necessary condition and a one-sided answer would be misleading.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"decide_separability_2x2 handles dims (2, 2) only, got {rho.dims}")
    if not rho.is_state(1e-8):
        raise ValueError("input is not a state (hermitian, unit trace, PSD)")
    return SEPARABLE if ppt_matrix(rho).psd else ENTANGLED
