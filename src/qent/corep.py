"""Unitary corepresentations of the quantum SU(2) group and its direct square.

A corepresentation is a square matrix u of algebra Elements satisfying the
comultiplication rule Δu_ij = Σ_r u_ir ⊗ u_rj together with the two
unitarity families Σ_r u_ri* u_rj = δ_ij = Σ_r u_ir u_jr*.  Each irreducible
corepresentation carries a positive intertwiner F, the unique positive
invertible solution of

    (id ⊗ κ²) u = F u F⁻¹     with    tr F = tr F⁻¹ > 0.

The shipped catalog holds the trivial (spin-0) and the fundamental
(spin-1/2) corepresentations, with fund's F in closed form, diag(1/q, q)
(Woronowicz, Publ. RIMS 23, 1987).  A product corepresentation of the
direct square keeps its factors u, v and F = F_u ⊗ F_v; its entries
u_ij ⊗ v_kl are built by `tensor` when first read, and compiling reads the
factors instead.  `compute_F` solves for F symbolically, as the oracle of
the closed form.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .algebra import MONO_A, MONO_ASTAR, MONO_C, MONO_CSTAR, UNIT, AlgebraParams, Element
from .haar import PairingTables, haar
from .hopf import coinverse_squared, tensor

_NULLSPACE_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class Corep:
    """A unitary corepresentation with its positive intertwiner; equal only to itself.

    A single-factor corep (`factors` empty) has one-leg Element entries.  A
    product corep u ⊗ v of the direct square has `factors` (u, v),
    composite indices (ik),(jl) and the two-leg entries u_ij ⊗ v_kl.
    """

    label: str
    dim: int
    entries: tuple
    F: np.ndarray = field(repr=False)
    params: AlgebraParams
    factors: tuple = ()
    # how a kind check names the elements and coreps that pair with a corep of each kind
    pairing_kinds = {1: "a one-leg Element or a single-factor corep", 2: "a two-leg element or a product corep"}

    @property
    def legs(self) -> int:
        """The legs of its entries: 1 for a single-factor corep, 2 for a product one."""
        return 2 if self.factors else 1

    @property
    def kind(self) -> str:
        """The kind as messages name it: "the product corep <label>" or "the single-factor corep <label>"."""
        return f"the {'product' if self.factors else 'single-factor'} corep {self.label}"

    @property
    def dims(self) -> tuple:
        """The dimensions of its factors, or (dim,) for a single-factor corep."""
        return tuple(u.dim for u in self.factors) or (self.dim,)


# AlgebraParams whose engines are kept at once; a q-sweep builds one per q
ENGINES_SIZE = 4
SINGLE_LABELS = ("triv", "fund")
# the smallest q of an engine: below it the oracle's F (`compute_F`) fails, or the eigen-decomposition
# of a product of two of them is not positive (at scattered q up to about 1.3e-8)
Q_MIN = 1e-7


class Engine:
    """The shipped coreps of one AlgebraParams, their pairing tables and catalog maps.

    `corep(label)` builds "triv", "fund" or a pair such as "fund*triv" (by
    `product_corep`) on first use and keeps it in `coreps`; the first catalog
    fill that holds a corep keeps its block on it (`fourier.block_map`).
    `maps` holds each catalog's `fourier.CatalogMap` by labels; no label
    repeats, so at most 64 + 4 catalogs.  A q below `Q_MIN` is refused.
    """

    __slots__ = ("params", "tables", "maps", "coreps", "_solved_F")

    def __init__(self, params: AlgebraParams):
        if params.q < Q_MIN:
            raise ValueError(f"q = {params.q!r} is below the supported range [{Q_MIN}, 1]")
        self.params, self.tables = params, PairingTables(params)
        self.maps, self.coreps, self._solved_F = {}, {}, None

    def corep(self, label: str):
        U = self.coreps.get(label)
        if U is None:
            params = self.params
            if label == "triv":
                U = Corep("triv", 1, ((Element.unit(params),),), _freeze(np.array([[1.0]])), params)
            elif label == "fund":
                q, rq = params.q, math.sqrt(params.q)
                entries = ((Element(params, {MONO_A: 1.0}), Element(params, {MONO_C: rq})),
                           (Element(params, {MONO_CSTAR: -1.0 / rq}), Element(params, {MONO_ASTAR: 1.0})))
                U = Corep("fund", 2, entries, _freeze(np.array([[1.0 / q, 0.0], [0.0, q]])), params)
                if not all(e.terms for row in entries for e in row):
                    raise ValueError(f"tol = {params.tol!r} prunes a coefficient of the fundamental corep")
            else:
                U = product_corep(*(self.corep(part) for part in label.split("*")))
            self.coreps[label] = U
        return U

    def solved_F(self) -> np.ndarray:
        """`compute_F` of fund's entries, solved once: the oracle of fund's closed-form F."""
        if self._solved_F is None:
            self._solved_F = _freeze(compute_F(self.corep("fund").entries, self.params))
        return self._solved_F


@lru_cache(maxsize=ENGINES_SIZE)
def engine(params: AlgebraParams) -> Engine:
    """The engine of one AlgebraParams, shared by every caller and kept in an LRU keyed by value."""
    return Engine(params)


def trivial_corep(params: AlgebraParams) -> Corep:
    """The one-dimensional trivial corepresentation, one shared instance per params."""
    return engine(params).corep("triv")


def fundamental_corep(params: AlgebraParams) -> Corep:
    """The fundamental corepresentation [[a, √q c], [-c*/√q, a*]]; one shared instance per params."""
    return engine(params).corep("fund")


def pairing_tables(params: AlgebraParams) -> PairingTables:
    """The single-leg Haar pairings of one algebra, kept by its engine and shared by every caller."""
    return engine(params).tables


def compute_F(entries, params: AlgebraParams) -> np.ndarray:
    """Solve (id ⊗ κ²)u · F = F · u for the unique positive normalized F.

    The equation is linear in the entries of F; its solution space must be
    one-dimensional (Schur), otherwise the input is reducible or corrupted
    and a ValueError is raised.  The normalization tr F = tr F⁻¹ with
    positive trace fixes the scale.
    """
    dim = len(entries)
    rows = _intertwiner_system(entries)

    if not len(rows):
        if dim == 1:
            return np.array([[1.0]])
        raise ValueError("degenerate intertwiner system")

    _, sigma, vh = np.linalg.svd(rows)
    scale = sigma[0] if sigma.size else 1.0
    null_count = int(np.count_nonzero(sigma <= _NULLSPACE_RTOL * scale)) + (dim * dim - len(sigma))
    if null_count != 1:
        raise ValueError(
            f"intertwiner solution space has dimension {null_count}; "
            "input is not an irreducible unitary corepresentation"
        )
    F0 = vh[-1].reshape(dim, dim)

    # rotate the free phase away, then enforce hermiticity and positivity
    pivot = F0.flat[int(np.abs(F0).argmax())]
    F0 = F0 * (pivot.conjugate() / abs(pivot))
    if np.abs(F0 - F0.conj().T).max() > 1e-8 * np.abs(F0).max():
        raise ValueError("intertwiner is not hermitian up to a phase")
    F0 = (F0 + F0.conj().T).real / 2.0
    eigvals = np.linalg.eigvalsh(F0)
    if (eigvals < 0).all():
        F0, eigvals = -F0, -eigvals[::-1]
    if eigvals.min() <= 0:
        raise ValueError("no positive intertwiner exists for this input")

    scale = math.sqrt(np.linalg.inv(F0).trace().real / F0.trace().real)
    return scale * F0


def _intertwiner_system(entries) -> np.ndarray:
    """The non-zero rows of `compute_F`'s linear system, one per (i, j, monomial t).

    Row (i, j, t) holds κ²(u_ir)_t at r·dim + j and -(u_rj)_t at i·dim + r
    for every r, over the monomials of u and κ²(u) in sorted order.
    """
    dim = len(entries)
    k2 = [[coinverse_squared(e) for e in row] for row in entries]
    monomials = sorted({mono for grid in (entries, k2) for row in grid for e in row for mono in e.terms},
                       key=lambda m: (m.sector, m.k, m.m, m.n))
    rows = []
    for i, j, mono in itertools.product(range(dim), range(dim), monomials):
        row = np.zeros(dim * dim, dtype=complex)
        for r in range(dim):
            row[r * dim + j] += k2[i][r].coeff(mono)
            row[i * dim + r] -= entries[r][j].coeff(mono)
        if row.any():
            rows.append(row)
    return np.array(rows, dtype=complex).reshape(-1, dim * dim)


def product_corep(u: Corep, v: Corep) -> Corep:
    """u ⊗ v: entries U_(ik),(jl) = u_ij ⊗ v_kl, built by `tensor` when first read, and F = F_u ⊗ F_v."""
    if u.params is not v.params and u.params != v.params:
        raise ValueError("factors carry different algebra parameters")
    n, m = u.dim, v.dim
    # np.kron(u.F, v.F) as one broadcast product, without np.kron's set-up (about 20 µs a call)
    F = (u.F[:, None, :, None] * v.F[None, :, None, :]).reshape(n * m, n * m)
    return Corep(f"{u.label}*{v.label}", n * m, ProductEntries(u, v), _freeze(F), u.params, (u, v))


class ProductEntries(Sequence):
    """The rows (ik) of entries u_ij ⊗ v_kl of u ⊗ v, built by `tensor` when first read."""

    def __init__(self, u, v):
        self._factors = (u, v)

    @cached_property
    def _rows(self) -> tuple:
        (u, v), n, m = self._factors, self._factors[0].dim, self._factors[1].dim
        return tuple(tuple(tensor(u.entries[i][j], v.entries[k][l]) for j in range(n) for l in range(m))
                     for i in range(n) for k in range(m))

    def __getitem__(self, i):
        return self._rows[i]

    def __len__(self):
        return len(self._rows)


def unitarity_residual(u) -> float:
    """Deviation from both unitarity families, over all index pairs."""
    dim = u.dim
    entry = u.entries[0][0]
    one = entry._trusted(u.params, u.legs, {entry.key((UNIT,) * u.legs): 1.0})
    residual = 0.0
    for i in range(dim):
        for j in range(dim):
            target = one if i == j else one * 0.0
            col = _sum(u.entries[r][i].adjoint() * u.entries[r][j] for r in range(dim))
            row = _sum(u.entries[i][r] * u.entries[j][r].adjoint() for r in range(dim))
            residual = max(residual, col.distance(target), row.distance(target))
    return residual


def intertwiner_residual(u) -> float:
    """Deviation of κ²(u)·F from F·u, entry-wise over the monomial support."""
    dim = u.dim
    F = u.F
    residual = 0.0
    for i in range(dim):
        for j in range(dim):
            lhs = _sum(coinverse_squared(u.entries[i][r]) * complex(F[r, j]) for r in range(dim))
            rhs = _sum(u.entries[r][j] * complex(F[i, r]) for r in range(dim))
            residual = max(residual, lhs.distance(rhs))
    return residual


def orthogonality_check(u, w) -> float:
    """Largest deviation from the deformed orthogonality relations.

    For matrix coefficients of irreducible unitary corepresentations,

        h(u_ij* w_i'j') = δ_uw (F⁻¹)_i'i δ_jj' / tr F,
        h(u_ij w_i'j'*) = δ_uw δ_ii' F_j'j / tr F.

    Cross terms between inequivalent corepresentations vanish.
    """
    same = u.label == w.label
    trF = float(np.trace(u.F).real)
    Finv = np.linalg.inv(u.F)
    w_adjoints = [[e.adjoint() for e in row] for row in w.entries]
    residual = 0.0
    for i in range(u.dim):
        for j in range(u.dim):
            uij = u.entries[i][j]
            uij_star = uij.adjoint()
            for i2 in range(w.dim):
                for j2 in range(w.dim):
                    first = haar(uij_star * w.entries[i2][j2])
                    second = haar(uij * w_adjoints[i2][j2])
                    expect1 = Finv[i2, i] * (j == j2) / trF if same else 0.0
                    expect2 = u.F[j2, j] * (i == i2) / trF if same else 0.0
                    residual = max(residual, abs(first - expect1), abs(second - expect2))
    return residual


def standard_catalog(params: AlgebraParams) -> dict:
    """The shipped single-factor coreps, keyed by label; the params' engine's instances."""
    owner = engine(params)
    return {label: owner.corep(label) for label in SINGLE_LABELS}


DEFAULT_PAIRS = ("triv*triv", "triv*fund", "fund*triv", "fund*fund")


def product_catalog(params: AlgebraParams, pairs=DEFAULT_PAIRS) -> list:
    """The params' engine's product coreps for the "left*right" pair labels, each named once."""
    owner = engine(params)
    catalog = []
    for pair in pairs:
        left, star, right = pair.partition("*")
        if not star or left not in SINGLE_LABELS or right not in SINGLE_LABELS:
            raise ValueError(f"unknown corepresentation pair {pair!r} (labels: fund, triv)")
        catalog.append(owner.corep(pair))
    _require_distinct(U.label for U in catalog)
    return catalog


def _require_distinct(labels):
    """Refuse a catalog that names a block twice, whose report would count that block twice."""
    labels = list(labels)
    if len(set(labels)) < len(labels):
        label = next(label for label in labels if labels.count(label) > 1)
        raise ValueError(f"the catalog names the block {label} twice")


def _sum(elements):
    it = iter(elements)
    total = next(it)
    for e in it:
        total = total + e
    return total


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    out.setflags(write=False)
    return out
