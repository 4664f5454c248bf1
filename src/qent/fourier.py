"""Fourier transform between operators on carrier spaces and algebra elements.

An operator ρ on the carrier space of a product corepresentation U is sent to

    ρ̂ = Σ ρ_(ik),(jl) U_(jl),(ik)  =  (tr ⊗ id) ρU,

an element of the two-leg algebra.  The inverse transform of any element x
against an irreducible block U is

    x̂(U) = F^(-1/2) · H^T · F^(1/2),   H_(rs),(mn) = h(U_(rs),(mn)* · x),

and the original operator is recovered as (tr F) √F x̂(U) √F.  The same maps
with a single-factor corepresentation act between matrices and one-leg
Elements: `forward`, `inverse` and `reconstruct` read the kind from the
corep (`Corep.legs`) and refuse any other pairing (`algebra._checked_kind`).

Both directions are linear.  A catalog of blocks of one kind is compiled
into one `CatalogMap`: one matrix from x's coefficients over the catalog's
support to every block x̂(U), built from single-leg Haar values, and one
that re-expands the lifted blocks for the support residual.  The map
takes a stack of elements: `gather` lays out their coefficients as the
rows of one matrix, and `transform` applies both matrices to every row in
one stacked product, one matrix-vector product per row, so that a row has
the bits it has alone.  `inverse` is the block of a one-block catalog's
map, and each corep keeps the `BlockMap` of the first fill that held it,
whose expansion is `forward`.  θx goes through the same map, formed by
`partial_theta` as its row is gathered.

Compiling is a plan and a fill.  Term keys do not depend on q, so all that
is index-like is one q-free `_CatalogPlan` per catalog shape.  A fresh q
supplies the factors' coefficients, F, a few distinct powers of q and the
plan's one-leg Haar values (5 on the shipped catalog, from
`PairingTables.leg`); one `_Fill` turns them into every block's numbers in
a fixed number of whole-catalog numpy operations, with the bits of the
symbolic constructions they replace.  The engine of a q (`corep.engine`)
keeps each catalog's map, so a `qent ppt` request fills its catalog once
and builds no product entries.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .algebra import LRU, Element, _checked_kind, _ElementCore, _adjoint_image, _adjoint_power
from .corep import Corep, _require_distinct, engine, pairing_tables
from .haar import leg_support
from .hopf import MultiElement, partial_theta, product_counit


class DensityOp:
    """A complex square matrix on a bipartite carrier space with declared factor dims.

    The composite row index is (ik) with i over the left factor and k over
    the right, i.e. row = i * dims[1] + k.
    """

    __slots__ = ("dims", "matrix")

    def __init__(self, dims, matrix):
        n, m = int(dims[0]), int(dims[1])
        if n < 1 or m < 1:
            raise ValueError("factor dimensions must be positive")
        arr = np.array(matrix, dtype=complex)
        if arr.shape != (n * m, n * m):
            raise ValueError(f"matrix shape {arr.shape} does not match dims {n}x{m}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        self.dims = (n, m)
        self.matrix = arr

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        return self.hermiticity_residual() <= tol

    def min_eigenvalue(self) -> float:
        herm = (self.matrix + self.matrix.conj().T) / 2.0
        return float(np.linalg.eigvalsh(herm).min())

    def is_psd(self, tol: float = 1e-9) -> bool:
        return self.is_hermitian(tol) and self.min_eigenvalue() >= -tol

    def is_state(self, tol: float = 1e-9) -> bool:
        return self.is_psd(tol) and abs(self.trace() - 1.0) <= tol

    def __repr__(self):
        return f"DensityOp(dims={self.dims}, trace={self.trace():.6g})"


# -- transform -------------------------------------------------------------------

def forward(rho, U: Corep):
    """ρ̂ = Σ ρ_(ik),(jl) U_(jl),(ik) over a product corep, Σ ρ_ij u_ji over a single-factor one; linear in ρ.

    The result is a two-leg MultiElement or a one-leg Element, of the class of U's entries.
    """
    # the keys of U's entries are keys of its kind, as the trusted constructor needs
    legs = _checked_kind(None, U, names=Corep.pairing_kinds)
    mat = rho.matrix if isinstance(rho, DensityOp) else np.asarray(rho, dtype=complex)
    d = U.dim
    if mat.shape != (d, d):
        raise ValueError(f"operator shape {mat.shape} does not match corep dimension {d}")
    if not isinstance(rho, DensityOp) and not np.all(np.isfinite(mat)):
        raise ValueError("operator entries must be finite")
    compiled = block_map(U)
    terms = dict(zip(compiled.support, compiled.expansion @ mat.reshape(-1)))
    return (Element if legs == 1 else MultiElement)._trusted(U.params, legs, terms)


def inverse(x, U: Corep) -> np.ndarray:
    """The inverse transform x̂(U) of x against the irreducible block U, of U's kind.

    It is the block of U's one-block catalog map, which the engine keeps
    for its own coreps, so the per-block API and the positivity test read
    the same compiled map.
    """
    compiled = catalog_map((U,))
    return compiled.block(compiled.flat(*compiled.gather((x,)))[0], 0)


def reconstruct(x, U: Corep) -> np.ndarray:
    """(tr F) √F x̂(U) √F: recovers ρ when x is the transform of ρ over U."""
    return lift_block(inverse(x, U), U)


def normalization_check(x: MultiElement) -> complex:
    """ε(x); equals tr ρ whenever x is the transform of ρ."""
    return product_counit(x)


def support_residual(x, catalog) -> float:
    """Distance between x and its re-expansion from the catalog's blocks.

    Zero means every matrix-coefficient component of x lives in one of the
    catalog's corepresentation blocks; a positive value reports the largest
    missed coefficient.  It is the catalog map's, for either kind of x;
    unlike `forward`, the re-expanded parts are not pruned at tol, so
    coefficients at or below tol count towards the gap.
    """
    return catalog_map(tuple(catalog)).apply(x)[1]


def lift_block(block: np.ndarray, U) -> np.ndarray:
    """(tr F) √F · block · √F, for a product or a single-factor corep U."""
    compiled = block_map(U)
    return compiled.trF * (compiled.sqrtF @ block @ compiled.sqrtF)


# -- compiled block maps -----------------------------------------------------------

class BlockMap:
    """The compiled data of one corep block U, read from the catalog fill (`_Fill`) that first held it.

    `BlockMap(U)` fills U as a one-block catalog.  `adjoints[r * d + c]`
    holds the terms of U_rc*; `witness` is (√F as a complex matrix, tr F,
    the adjoints of the row of F⁻¹'s column of largest norm); `expansion`
    @ vec(mat) is Σ mat[row, col] U_(col),(row) over `support`, in the order
    that sum meets its keys; `layout` tells two fills' shapes apart.
    """

    def __init__(self, U):
        self._read(_Fill((U,)), 0)

    def _read(self, fill, i):
        """Block i of a fill; expansion, adjoints and witness are read when first asked for."""
        plan, offset, d = fill.plan, fill.plan.offsets[i], fill.plan.dims[i]
        self._fill, self._i = fill, i
        self.support, self.layout = plan.supports[i], (plan.supports[i], plan.spans[i])
        self.trF, self.sqrtF = float(fill.trF[i]), fill.root[offset:offset + d * d].reshape(d, d)

    @cached_property
    def expansion(self) -> np.ndarray:
        first, at = self._fill.plan.expansions[self._i]
        expansion = np.zeros((len(self.support), len(self.sqrtF) ** 2), dtype=complex)
        expansion.put(at, self._fill.coeffs[first:first + len(at)])
        return _frozen(expansion)

    @cached_property
    def adjoints(self) -> tuple:
        keys, betas = self._fill.plan.slot_keys, self._fill.betas.tolist()
        return tuple(tuple(zip(keys[a:b], betas[a:b])) for a, b in self._fill.plan.spans[self._i])

    @cached_property
    def witness(self) -> tuple:
        d, offset = len(self.sqrtF), self._fill.plan.offsets[self._i]
        F = self._fill.F[offset:offset + d * d].reshape(d, d)
        f = F.diagonal()
        # the witness row is the column of F⁻¹ with the largest norm; F⁻¹ of a diagonal F is diag(1/f)
        diagonal = np.count_nonzero(F) == np.count_nonzero(f)
        row = int(((1.0 / f) ** 2 if diagonal else (np.abs(np.linalg.inv(F)) ** 2).sum(axis=0)).argmax())
        # the complex √F gives the bits a matrix product gives after casting a real √F
        return _frozen(self.sqrtF.astype(complex)), self.trF, self.adjoints[row * d:(row + 1) * d]


def block_map(U) -> BlockMap:
    """The compiled data and maps of a corep U, filled on its first use and kept on U itself."""
    block = U.__dict__.get("_block_map")
    if block is None:
        block = BlockMap(U)
        object.__setattr__(U, "_block_map", block)
    return block


# -- compiled catalog maps ----------------------------------------------------------

class CatalogMap:
    """The inverse transforms over a catalog of coreps of one kind, and their re-expansion.

    Block i is flat[offsets[i]:offsets[i] + d²], the rows of x̂(U_i) in
    turn.  `index` numbers the catalog's support, the term keys of its
    blocks' entries.  For x with coefficients v over the support, flat =
    `matrix` @ v, plus the same formula's columns, built per call, for x's
    keys off the support; `reexpansion` @ flat holds, over the support, the
    coefficients of Σ_U forward((tr F)·√F·x̂(U)·√F, U).  A stack of
    elements has one such flat per row.  Each slot j is one
    term β_j·(p_j ⊗ s_j) of one adjoint U_rc*, so every column is

        TA · (G_L ⊙ G_R),   G_L[j, t] = h(p_j·m_t),   G_R[j, t] = h(s_j·n_t),

    where TA puts β_j in its block entry and folds in the block's
    F^(-1/2)·Hᵀ·F^(1/2); a single-factor catalog has G_L only.  `transpose`
    maps flat to its transposed entries, and `stacks` holds per block size
    (catalog positions, indices into flat of shape (blocks, d, d), or
    (blocks,) for 1×1 blocks).
    """

    __slots__ = ("coreps", "labels", "legs", "params", "plan", "offsets", "index", "matrix", "reexpansion",
                 "transpose", "stacks", "_slot_matrix", "_tables")

    def __init__(self, catalog):
        self.coreps = tuple(catalog)
        # None for an empty catalog, which serves either kind of element
        self.legs = _checked_kind(None, *self.coreps, names=Corep.pairing_kinds)
        self.labels = tuple(U.label for U in self.coreps)
        _require_distinct(self.labels)
        # a one-block catalog reads the fill its corep's block map was made from, when that fill is of it alone
        block = self.coreps[0].__dict__.get("_block_map") if len(self.coreps) == 1 else None
        fill = block._fill if block is not None and len(block._fill.plan.dims) == 1 else _Fill(self.coreps)
        self.params = (fill.params,) if self.coreps else ()
        self.plan = plan = fill.plan
        self.offsets, self.index, self.stacks, self.transpose = (
            plan.offsets, plan.index, plan.stacks, plan.transpose)
        size, slots, keys = plan.size, len(plan.slot_keys), len(plan.index)
        # TA[(i,k), j] = F^(-1/2)[i,c]·√F[r,k]·β_j for slot j in entry (r, c) of its block
        at, inv_root, root, slot = plan.slot_square
        self._slot_matrix = np.zeros((size, slots), dtype=complex)
        self._slot_matrix.put(at, (fill.inv_root[inv_root] * fill.root[root]) * fill.betas[slot])
        self._tables = pairing_tables(self.params[0]) if self.params else None
        values = np.array([self._tables.leg(p, m) for p, m in plan.pairs], dtype=complex)
        # G_L ⊙ G_R, (1+0j)·h(p_j·m_t)·h(s_j·n_t), is non-zero only where every leg's pairing may be
        product = np.zeros((slots, keys), dtype=complex)
        product.put(plan.pair_at, np.multiply.reduce(values[plan.pair_which], axis=0))
        self.matrix = self._slot_matrix @ product
        # E·lift: term j of entry (r, c) adds c_j·tr F·√F[c,a]·√F[b,r] at (its key, (a, b)) of its block
        at, term, block, left, right = plan.lift_terms
        self.reexpansion = np.zeros((keys, size), dtype=complex)
        np.add.at(self.reexpansion.reshape(-1), at,
                  fill.coeffs[term] * (fill.trF[block] * (fill.root[left] * fill.root[right])))
        for i, U in enumerate(self.coreps):
            if "_block_map" not in U.__dict__:
                view = BlockMap.__new__(BlockMap)
                view._read(fill, i)
                object.__setattr__(U, "_block_map", view)

    def gather(self, xs, leg=None):
        """(V, outside): row i of V holds xs[i]'s coefficients over the support; outside maps i to its other (key, coeff) terms.

        With a leg, row i holds those of partial_theta(xs[i], leg), each
        formed as its row is filled.  Each x is refused as a
        single-element call refuses it, the first refused x of the stack
        first.  Only a row with terms off the support has an entry in
        outside.
        """
        index = self.index
        V = np.zeros((len(xs), len(index)), dtype=complex)
        outside: dict = {}
        for row, x in enumerate(xs):
            if leg is not None:
                x = partial_theta(x, leg)
            _checked_kind(self.legs, x, names=Corep.pairing_kinds)
            # params lists the catalog's distinct parameters, so x matches all of them or none
            if self.params and self.params != (x.params,):
                raise ValueError("element and corepresentation parameters differ")
            v = V[row]
            for key, coeff in x.terms.items():
                s = index.get(key)
                if s is None:
                    outside.setdefault(row, []).append((key, coeff))
                else:
                    v[s] = coeff
        return V, outside

    def apply(self, x):
        """(flat, residual) for one x; the residual is that of `support_residual`."""
        flat, residuals = self.transform(*self.gather((x,)))
        return flat[0], residuals[0]

    def transform(self, V: np.ndarray, outside):
        """(flat, residuals) from `gather`'s V and outside: row i of flat holds every block of xs[i] end to end."""
        flat = self.flat(V, outside)
        residuals = np.maximum.reduce(np.abs(V - (self.reexpansion @ flat[..., None])[..., 0]), axis=1,
                                      initial=0.0).tolist()
        for row, missed in outside.items():
            # a term off the support is missed whole
            residuals[row] = max(residuals[row], float(np.max(np.abs([c for _, c in missed]))))
        return flat, residuals

    def flat(self, V: np.ndarray, outside) -> np.ndarray:
        """Every block x̂(U) end to end, one row per x, from `gather`'s V and outside.

        Each row is one matrix-vector product with `matrix`, the one a
        single x takes, so a row's bits do not depend on the stack.  The
        columns of keys off the support are built per call, for the rows
        that have such keys only.
        """
        flat = (self.matrix @ V[..., None])[..., 0]
        for row, missed in outside.items():
            keys = [_ElementCore.leg_monomials(t) for t, _ in missed]
            product = np.ones((len(self.plan.slot_keys), len(keys)), dtype=complex)
            for side, (monos, rows) in enumerate(self.plan.slot_legs):
                key_monos, cols = _distinct([key[side] for key in keys])
                # h(p·m) is 0j, as `leg` gives it, where the charges of p and m do not cancel
                table = np.array([[self._tables.leg(p, m) if leg_support(p, m) else 0j for m in key_monos]
                                  for p in monos], dtype=complex).reshape(len(monos), len(key_monos))
                product *= table[np.ix_(rows, cols)]
            flat[row] += (self._slot_matrix @ product) @ np.array([c for _, c in missed])
        return flat

    def block(self, flat: np.ndarray, i: int) -> np.ndarray:
        """x̂(U_i) from flat."""
        d = self.coreps[i].dim
        return flat[self.offsets[i]:self.offsets[i] + d * d].reshape(d, d)


def catalog_map(catalog) -> CatalogMap:
    """The compiled maps of a catalog of coreps of one kind.

    A catalog of an engine's coreps (`corep.engine`), such as any part of
    `product_catalog` or `standard_catalog`, is compiled once and kept by
    that engine.  Any other, such as one holding a `dataclasses.replace`
    variant or a direct `product_corep` result, compiles on every call.
    """
    catalog = tuple(catalog)
    try:
        owner = engine(catalog[0].params)
        key = tuple([U.label for U in catalog])
    except (IndexError, AttributeError):
        return CatalogMap(catalog)  # empty, or refused for an item that is not a corep
    found = owner.maps.get(key)
    # coreps are equal only to themselves, so this asks whether they are the map's own
    if found is None or found.coreps != catalog:
        found = CatalogMap(catalog)
        if all(owner.coreps.get(U.label) is U for U in catalog):
            owner.maps[key] = found
    return found


# -- the catalog plan and its fill ----------------------------------------------------

# catalog plans kept at once, keyed by their sources' term-key layouts and what tol prunes
CATALOG_PLANS_SIZE = 8
_CATALOG_PLANS = LRU(CATALOG_PLANS_SIZE)


class _Fill:
    """One q's numbers of a catalog, every block at once, placed by its plan; it holds no corep.

    Product coreps' coefficients come from their factors.  numpy's complex
    product rounds as Python's wherever a factor is real, so for real
    coefficients, as every shipped corep has, each number has the bits of
    the construction it replaces.  What tol prunes leaves its own plan.
    """

    __slots__ = ("params", "plan", "coeffs", "betas", "F", "root", "inv_root", "trF")

    def __init__(self, coreps):
        self.params = params = coreps[0].params if coreps else None
        if any(U.params is not params and U.params != params for U in coreps):
            raise ValueError("the catalog's corepresentations carry different algebra parameters")
        sources = {u: s for s, u in enumerate(dict.fromkeys(u for U in coreps for u in U.factors or (U,)))}
        entries = [[e.terms for row in u.entries for e in row] for u in sources]
        shape = (tuple(tuple(map(tuple, terms)) for terms in entries),
                 tuple(tuple(map(sources.get, U.factors or (U,))) for U in coreps))
        plan = _plan(shape)
        coeffs = np.array([c for terms in entries for term in terms for c in term.values()], dtype=complex)
        q, tol = (params.q, params.tol) if params else (1.0, 1.0)
        # scale = 1·q^e₀·q^e₁.. over the legs, per distinct exponents, each power by Python's **
        scales = np.array([math.prod(q ** e for e in exponents) for exponents in plan.exponents])
        with np.errstate(over="ignore", invalid="ignore"):  # a modulus that is not finite is refused below
            # ((1+0j)·a)·b onto 0j is 0j + a·b to the bit
            c = coeffs[plan.left] if plan.right is None else 0j + coeffs[plan.left] * coeffs[plan.right]
            betas = 0j + np.conj(c) * scales[plan.scales]
        size, beta_size = np.abs(c), np.abs(betas)  # the modulus of a Python complex, bit for bit
        kept = (tol < size) & (size < math.inf)
        slots = kept & (tol < beta_size) & (beta_size < math.inf)
        if np.count_nonzero(slots) < len(slots):
            for keys, values, bad in ((plan.keys, c, ~(size < math.inf)),
                                      (plan.adjoint_keys, betas, kept & ~(beta_size < math.inf))):
                _ElementCore._trusted(params, plan.legs, dict(zip(itertools.compress(keys, bad), values[bad])))
            plan = _plan(shape, kept, slots[kept])
            c, betas = c[kept], betas[slots]
        self.plan, self.coeffs, self.betas = plan, c, betas
        # the blocks' F end to end as flat, and placed in one block-diagonal matrix for `_sqrt_pair`
        self.F = np.concatenate([U.F for U in coreps] or [np.zeros(0)], axis=None)
        whole = np.zeros((sum(plan.dims),) * 2, dtype=self.F.dtype)
        whole.put(plan.whole_at, self.F)
        self.root, self.inv_root = (_frozen(root.reshape(-1)[plan.whole_at]) for root in _sqrt_pair(whole))
        # tr F added entry by entry, as np.trace adds a small diagonal: one row per block, padded with 0
        self.trF = np.add.reduce(np.append(whole.diagonal().real, 0.0)[plan.traces], axis=1)


def _plan(shape, *masks) -> "_CatalogPlan":
    """The plan of a catalog shape less what the masks prune, from the bounded memo."""
    key = (shape,) + tuple(mask.tobytes() for mask in masks)
    return _CATALOG_PLANS.get(key) or _CATALOG_PLANS.put(key, _CatalogPlan(shape, *masks))


class _CatalogPlan:
    """The q-independent shape of a catalog's fill and map: every index their numbers are placed by.

    `shape` is (the sources' term-key layouts, each block's sources); two
    sources give a block their tensor products, in `tensor`'s term order.
    `kept` drops the terms pruned at tol, `slots` the adjoint terms so
    pruned.  `pair_at` lists where every leg's h(p·m) may be non-zero.
    """

    __slots__ = ("legs", "left", "right", "keys", "adjoint_keys", "exponents", "scales", "dims", "offsets",
                 "size", "index", "supports", "spans", "expansions", "slot_keys", "slot_legs", "slot_square",
                 "pairs", "pair_at", "pair_which", "whole_at", "traces", "lift_terms",
                 "stacks", "transpose")

    def __init__(self, shape, kept=None, slots=None):
        layouts, sources = shape
        # where the coefficients of each source's entries start, the sources' coefficients end to end
        starts = list(itertools.accumulate((len(keys) for layout in layouts for keys in layout), initial=0))
        firsts = list(itertools.accumulate(map(len, layouts), initial=0))
        terms, self.dims = [], []  # terms as (block, entry, leg monomials, positions of the coefficients)
        for b, used in enumerate(sources):
            sizes = [math.isqrt(len(layouts[u])) for u in used]
            self.dims.append(math.prod(sizes))
            cells = list(itertools.product(*map(range, sizes)))
            for rc, (row, col) in enumerate(itertools.product(cells, cells)):
                parts = [[(starts[firsts[u] + i * n + j] + t, _ElementCore.leg_monomials(key))
                          for t, key in enumerate(layouts[u][i * n + j])]
                         for u, n, i, j in zip(used, sizes, row, col)]
                terms += [(b, rc, sum((monos for _, monos in combo), ()), [at for at, _ in combo])
                          for combo in itertools.product(*parts)]
        terms = terms if kept is None else list(itertools.compress(terms, kept))
        slot = [True] * len(terms) if slots is None else list(slots)
        self.left = np.array([t[3][0] for t in terms], dtype=np.intp)
        # the second factor's positions, in a catalog of products (a catalog is of one kind)
        self.right = np.array([t[3][1] for t in terms], dtype=np.intp) if sources and len(sources[0]) == 2 else None
        monos = [t[2] for t in terms]
        self.legs = legs = len(monos[0]) if monos else 0
        self.keys = tuple(map(_ElementCore.key, monos))
        self.adjoint_keys = tuple(_ElementCore.key(tuple(map(_adjoint_image, m))) for m in monos)
        self.exponents, self.scales = _distinct([tuple(map(_adjoint_power, m)) for m in monos])
        self.slot_keys = list(itertools.compress(self.adjoint_keys, slot))
        slot_at = list(itertools.accumulate(slot, initial=0))  # the slot of each term, if it has one
        offsets = list(itertools.accumulate((d * d for d in self.dims), initial=0))
        self.offsets, self.size = tuple(offsets[:-1]), offsets[-1]
        self.index, self.supports, self.spans, self.expansions = {}, [], [], []
        squares, lifts, first = [], [], 0
        for b, (offset, d) in enumerate(zip(offsets, self.dims)):
            own = [j for j, t in enumerate(terms) if t[0] == b]
            entries = [[j for j in own if terms[j][1] == rc] for rc in range(d * d)]
            # the support in the order in which Σ mat[row, col] U_(col),(row) meets its keys
            support = tuple(dict.fromkeys(self.keys[j] for row in range(d) for col in range(d)
                                          for j in entries[col * d + row]))
            for key in support:
                self.index.setdefault(key, len(self.index))
            ends = list(itertools.accumulate((sum(slot[j] for j in entry) for entry in entries),
                                             initial=slot_at[first]))
            local = {key: s for s, key in enumerate(support)}
            self.supports.append(support)
            self.spans.append(tuple(zip(ends, ends[1:])))
            self.expansions.append((first, np.array([local[self.keys[j]] * d * d + terms[j][1] % d * d
                                                     + terms[j][1] // d for j in own], dtype=np.intp)))
            for j in own:
                r, c = divmod(terms[j][1], d)
                if slot[j]:
                    squares += [((offset + i * d + k) * len(self.slot_keys) + slot_at[j], offset + i * d + c,
                                 offset + r * d + k, slot_at[j]) for i, k in itertools.product(range(d), repeat=2)]
                lifts += [(self.index[self.keys[j]] * self.size + offset + x * d + y, j, b,
                           offset + c * d + x, offset + y * d + r) for x, y in itertools.product(range(d), repeat=2)]
            first += len(own)
        self.slot_square = np.array(squares, dtype=np.intp).reshape(-1, 4).T
        self.lift_terms = np.array(lifts, dtype=np.intp).reshape(-1, 5).T
        slot_monos = [_ElementCore.leg_monomials(key) for key in self.slot_keys]
        self.slot_legs = tuple(_distinct([monos[side] for monos in slot_monos]) for side in range(legs))
        pairs: dict = {}
        pair_at, pair_which = [], []
        for s, slot_key in enumerate(slot_monos):
            for t, key in enumerate(map(_ElementCore.leg_monomials, self.index)):
                if all(map(leg_support, slot_key, key)):
                    pair_at.append(s * len(self.index) + t)
                    pair_which.append([pairs.setdefault(pair, len(pairs)) for pair in zip(slot_key, key)])
        self.pairs, self.pair_at = tuple(pairs), np.array(pair_at, dtype=np.intp)
        self.pair_which = np.array(pair_which, dtype=np.intp).reshape(len(pair_at), legs).T
        # F's blocks on the diagonal of one n × n matrix, and each block's diagonal as a row padded with n
        n, width = sum(self.dims), max(self.dims, default=0)
        corners = list(itertools.accumulate([0] + self.dims))
        self.whole_at = np.array([(s + i) * n + s + k for s, d in zip(corners, self.dims)
                                  for i, k in itertools.product(range(d), repeat=2)], dtype=np.intp)
        self.traces = np.array([[s + i if i < d else n for i in range(width)] for s, d in zip(corners, self.dims)],
                               dtype=np.intp).reshape(len(self.dims), width)
        by_size: dict = {}
        for b, d in enumerate(self.dims):
            by_size.setdefault(d, []).append(b)
        stacks = []
        for d, positions in by_size.items():
            take = np.array([offsets[b] + np.arange(d * d).reshape(d, d) for b in positions])
            stacks.append((tuple(positions), take.reshape(-1) if d == 1 else take))
        self.stacks = tuple(stacks)
        self.transpose = np.array([o + c * d + r for o, d in zip(offsets, self.dims)
                                   for r in range(d) for c in range(d)], dtype=np.intp)


# -- reference states ------------------------------------------------------------

def singlet_state() -> DensityOp:
    """The projector onto (|01⟩ - |10⟩)/√2 on a 2⊗2 carrier space."""
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return DensityOp((2, 2), np.outer(psi, psi.conj()))


def maximally_mixed(dims=(2, 2)) -> DensityOp:
    n, m = dims
    return DensityOp(dims, np.eye(n * m) / (n * m))


def werner_state(p: float) -> DensityOp:
    """(1-p)·I/4 + p·|Ψ⁻⟩⟨Ψ⁻|; its partial transpose loses positivity at p = 1/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    return DensityOp((2, 2), (1.0 - p) * np.eye(4) / 4.0 + p * singlet_state().matrix)


def product_basis_projector(i: int, k: int, dims=(2, 2)) -> DensityOp:
    """|ik⟩⟨ik| in the computational product basis."""
    n, m = dims
    if not (0 <= i < n and 0 <= k < m):
        raise ValueError("basis indices out of range")
    mat = np.zeros((n * m, n * m))
    mat[i * m + k, i * m + k] = 1.0
    return DensityOp(dims, mat)


# -- internals --------------------------------------------------------------------

def _distinct(items):
    """(the distinct items in order of first appearance, the position of each item among them)."""
    seen: dict = {}
    positions = [seen.setdefault(item, len(seen)) for item in items]
    return tuple(seen), np.array(positions, dtype=np.intp)


def _sqrt_pair(F: np.ndarray):
    """(√F, F^(-1/2)) for a positive matrix; a diagonal one is taken root by root, exactly."""
    if np.count_nonzero(F) == np.count_nonzero(F.diagonal()):
        root, inv_root = np.sqrt(F), np.sqrt(F)
        inv_root.flat[::len(F) + 1] = 1.0 / root.diagonal()
        return root, inv_root
    eigvals, vecs = np.linalg.eigh(F)
    if eigvals.min() <= 0:
        raise ValueError("intertwiner matrix is not positive definite")
    root = np.sqrt(eigvals)
    return (vecs * root) @ vecs.conj().T, (vecs / root) @ vecs.conj().T


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr
