"""Unitary corepresentations of the quantum SU(2) group and its direct square.

A corepresentation is a square matrix u of algebra Elements satisfying the
comultiplication rule Δu_ij = Σ_r u_ir ⊗ u_rj together with the two
unitarity families Σ_r u_ri* u_rj = δ_ij = Σ_r u_ir u_jr*.  Each irreducible
corepresentation carries a positive intertwiner F, the unique positive
invertible solution of

    (id ⊗ κ²) u = F u F⁻¹     with    tr F = tr F⁻¹ > 0.

The shipped catalog holds the trivial (spin-0) and the fundamental
(spin-1/2) corepresentations; product corepresentations of the direct
square are built as entry-wise tensor products with F given by the
Kronecker product of the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import AlgebraParams, Element
from .haar import PairingTables, haar
from .hopf import MultiElement, coinverse_squared, tensor

_NULLSPACE_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class Corep:
    """A unitary corepresentation with its positive intertwiner; equal only to itself."""

    label: str
    dim: int
    entries: tuple
    F: np.ndarray = field(repr=False)
    params: AlgebraParams

    def entry(self, i: int, j: int) -> Element:
        return self.entries[i][j]


@dataclass(frozen=True, eq=False)
class ProductCorep:
    """Corepresentation u ⊗ v of the direct square, with composite indices (ik),(jl); equal only to itself."""

    label: str
    left: Corep
    right: Corep
    dim: int
    entries: tuple
    F: np.ndarray = field(repr=False)
    params: AlgebraParams

    @property
    def dims(self) -> tuple:
        return (self.left.dim, self.right.dim)

    def entry(self, row: int, col: int) -> MultiElement:
        return self.entries[row][col]


# AlgebraParams whose engines are kept at once; a q-sweep builds one per q
ENGINES_SIZE = 4
SINGLE_LABELS = ("triv", "fund")


class Engine:
    """The shipped coreps of one AlgebraParams, their pairing tables and catalog maps.

    `corep(label)` builds "triv", "fund" (so `compute_F` runs once) or a
    pair such as "fund*triv" (with `product_corep`) on first use and keeps
    it in `coreps`, and each corep keeps its compiled data (`fourier.block_map`).
    `maps` holds the `fourier.CatalogMap` of each catalog of these coreps
    by labels; no label repeats, so there are at most 64 + 4 catalogs.
    """

    __slots__ = ("params", "tables", "maps", "coreps")

    def __init__(self, params: AlgebraParams):
        self.params, self.tables = params, PairingTables(params)
        self.maps, self.coreps = {}, {}

    def corep(self, label: str):
        U = self.coreps.get(label)
        if U is None:
            params = self.params
            if label == "triv":
                U = Corep("triv", 1, ((Element.unit(params),),), _freeze(np.array([[1.0]])), params)
            elif label == "fund":
                a, astar, c, cstar = (Element.generator(params, g) for g in ("a", "a*", "c", "c*"))
                rq = math.sqrt(params.q)
                entries = ((a, rq * c), ((-1.0 / rq) * cstar, astar))
                U = Corep("fund", 2, entries, _freeze(compute_F(entries, params)), params)
            else:
                left, right = label.split("*")
                U = product_corep(self.corep(left), self.corep(right))
            self.coreps[label] = U
        return U


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
    for every r, over the monomials of u and κ²(u) in sorted order; it
    is assembled by `_intertwiner_layout`'s index arrays.
    """
    dim = len(entries)
    k2 = [[coinverse_squared(e) for e in row] for row in entries]
    monomials = sorted({mono for grid in (entries, k2) for row in grid for e in row for mono in e.terms},
                       key=lambda m: (m.sector, m.k, m.m, m.n))
    count = len(monomials)
    position = {mono: t for t, mono in enumerate(monomials)}
    # coefficient of monomial t in u_rj and in κ²(u_rj), each at flat index (t·dim + r)·dim + j
    coeffs = ([0j] * (count * dim * dim), [0j] * (count * dim * dim))
    for values, grid in zip(coeffs, (entries, k2)):
        for r, row in enumerate(grid):
            for j, e in enumerate(row):
                for mono, c in e.terms.items():
                    values[(position[mono] * dim + r) * dim + j] = c
    plus_at, plus_from, minus_at, minus_from = _intertwiner_layout(dim, count)
    system = np.zeros(dim * dim * count * dim * dim, dtype=complex)
    system[plus_at] += np.array(coeffs[1])[plus_from]
    system[minus_at] -= np.array(coeffs[0])[minus_from]
    system = system.reshape(-1, dim * dim)
    return system[(np.abs(system) > 0).any(axis=1)]


# (dim, monomial count) shapes of `compute_F`'s system whose index arrays are kept
INTERTWINER_LAYOUTS_SIZE = 8


@lru_cache(maxsize=INTERTWINER_LAYOUTS_SIZE)
def _intertwiner_layout(dim: int, count: int):
    """Where `_intertwiner_system` puts each coefficient, as flat index arrays.

    The system has shape (dim, dim, count, dim · dim) before its zero rows
    are dropped.  Returns (plus_at, plus_from, minus_at, minus_from) into
    the flattened system and coefficient lists.  No position is hit twice
    by one of the two sums, so adding onto zeros and then subtracting
    gives the bits of a loop that adds and subtracts in either order.
    """
    plus_at, plus_from, minus_at, minus_from = [], [], [], []
    for i in range(dim):
        for j in range(dim):
            for t in range(count):
                row = ((i * dim + j) * count + t) * dim * dim
                for r in range(dim):
                    plus_at.append(row + r * dim + j)
                    plus_from.append((t * dim + i) * dim + r)
                    minus_at.append(row + i * dim + r)
                    minus_from.append((t * dim + r) * dim + j)
    return tuple(np.array(a, dtype=np.intp) for a in (plus_at, plus_from, minus_at, minus_from))


def product_corep(u: Corep, v: Corep) -> ProductCorep:
    """Entry-wise tensor product with U_(ik),(jl) = u_ij ⊗ v_kl and F = F_u ⊗ F_v."""
    if u.params != v.params:
        raise ValueError("factors carry different algebra parameters")
    n, m = u.dim, v.dim
    entries = tuple(
        tuple(tensor(u.entries[i][j], v.entries[k][l]) for j in range(n) for l in range(m))
        for i in range(n)
        for k in range(m)
    )
    # np.kron(u.F, v.F) as one broadcast product, without np.kron's set-up (about 20 µs a call)
    F = (u.F[:, None, :, None] * v.F[None, :, None, :]).reshape(n * m, n * m)
    return ProductCorep(f"{u.label}*{v.label}", u, v, n * m, entries, _freeze(F), u.params)


def unitarity_residual(u) -> float:
    """Deviation from both unitarity families, over all index pairs."""
    dim = u.dim
    residual = 0.0
    for i in range(dim):
        for j in range(dim):
            target = _delta_unit(u, i == j)
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
    residual = 0.0
    for i in range(u.dim):
        for j in range(u.dim):
            uij = u.entries[i][j]
            uij_star = uij.adjoint()
            for i2 in range(w.dim):
                for j2 in range(w.dim):
                    wij = w.entries[i2][j2]
                    first = haar(uij_star * wij)
                    second = haar(uij * wij.adjoint())
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
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"the catalog names the block {label} twice")


def _sum(elements):
    it = iter(elements)
    total = next(it)
    for e in it:
        total = total + e
    return total


def _delta_unit(u, diagonal: bool):
    unit = MultiElement.unit if isinstance(u.entries[0][0], MultiElement) else Element.unit
    args = (u.params, 2) if isinstance(u.entries[0][0], MultiElement) else (u.params,)
    one = unit(*args)
    return one if diagonal else one * 0.0


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    out.setflags(write=False)
    return out
