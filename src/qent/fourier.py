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

Both directions are linear.  Each block, product or single-factor, is
compiled once into a `BlockMap` kept on its corep; the forward direction is
one matrix over the block's support.  A whole catalog of blocks of one kind
is compiled on first use into one `CatalogMap`: a single matrix from x's
coefficients over the catalog's support to every block x̂(U) at once, built
leg by leg from single-leg Haar tables, and the matrix that re-expands the
lifted blocks, so the support residual is one more product.  `inverse` is
the block of a one-block catalog's map.  A partial transpose θx is formed
term by term with `partial_theta`'s arithmetic, reading θ of the
support's leg monomials from the map's memo, and goes through the same
map.  The positivity test in `qent.entangle` runs on it.

Compiling splits into a plan and a fill.  Over the shipped blocks the term
keys of every entry, adjoint and support key are the same at every q, so
everything index-like is a q-free plan kept per shape in a bounded memo:
`_BlockPlan` per block, `_CatalogPlan` per catalog (a q where pruning
drops a key gets its own).  The fill computes one q's numbers with numpy
in the arithmetic and order of the symbolic products it replaces, so the
results are the same bits.  Every shipped block's F
is diagonal (`corep`'s closed form), so the fill takes √F, F^(-1/2) and
the witness row from its diagonal, with no inverse or eigen-solve; only
a hand-built corep with a non-diagonal F needs them.  The engine of a q
(`corep.engine`) builds each shipped corep once and keeps the map of each
catalog of them, so a `qent ppt` request fills each block once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .algebra import LRU, _checked_kind, _ElementCore, _adjoint_image, _adjoint_power
from .corep import Corep, _require_distinct, _terms, engine, pairing_tables
from .haar import leg_support
from .hopf import MultiElement, _theta_monomial, _theta_on_leg, product_counit


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
    return type(U.entries[0][0])._trusted(U.params, legs, _expand(mat, U))


def inverse(x, U: Corep) -> np.ndarray:
    """The inverse transform x̂(U) of x against the irreducible block U, of U's kind.

    It is the block of U's one-block catalog map, which the engine keeps
    for its own coreps, so the per-block API and the positivity test read
    the same compiled map.
    """
    compiled = catalog_map((U,))
    return compiled.block(compiled.flat(*compiled.gather(x)), 0)


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
    """The compiled data of one corep block U: its shape's plan filled with U's numbers.

    U is a product corep (terms keyed by two-leg tuples of monomials) or a
    single-factor corep (terms keyed by monomials).

    - `adjoints[r * d + c]` holds the terms of U_rc*, and `witness` is what
      `find_negative_witness` combines: (√F as a complex matrix, tr F, the
      adjoints of the row given by the column of F⁻¹ with the largest norm);
    - `support` lists the term keys of U's entries in the order in which
      Σ mat[row, col] U_(col),(row) first meets them, row by row, and
      `expansion` is the matrix E with E[s, row * d + col] the coefficient
      of support[s] in U_(col),(row), so that sum is E @ vec(mat);
    - `transfer` @ vec H is vec x̂ = vec F^(-1/2)·Hᵀ·F^(1/2), and `lifted` =
      E·lift, with lift @ vec x̂ the vec of (tr F)·√F·x̂·√F; `layout` is (entry
      key layout, the adjoint keys where a term was pruned, else None).
    """

    __slots__ = ("plan", "layout", "support", "expansion", "adjoints", "witness",
                 "sqrtF", "trF", "transfer", "lifted")

    def __init__(self, U):
        d = U.dim
        layout, values = _terms(U)
        plan = _BLOCK_PLANS.get(layout) or _BLOCK_PLANS.put(layout, _BlockPlan(layout))
        self.plan, self.support = plan, plan.support
        q, tol = U.params.q, U.params.tol
        # as the adjoint computes them: scale = 1.0·q^e₀·q^e₁.., then β = 0j + conj(c)·scale
        scales = [math.prod(q ** power for power in powers) for powers in plan.powers]
        betas = [0j + c.conjugate() * scales[at] for c, at in zip(values, plan.power_at)]
        try:
            kept = all(tol < abs(beta) < math.inf for beta in betas)
        except OverflowError:  # a finite β whose modulus overflows
            kept = False
        if kept:
            pairs = tuple(zip(plan.adjoint_keys, betas))
            self.adjoints = tuple(pairs[start:end] for start, end in plan.spans)
            self.layout = (layout, None)
        else:
            # the adjoint's constructor drops a β at or below tol, and refuses one
            # whose modulus is not finite
            self.adjoints = tuple(tuple(e.adjoint().terms.items()) for row in U.entries for e in row)
            self.layout = (layout, tuple(tuple(key for key, _ in terms) for terms in self.adjoints))
        F, f = U.F, U.F.diagonal()
        # the witness row is the column of F⁻¹ with the largest norm; F⁻¹ of a diagonal F is diag(1/f)
        diagonal = np.count_nonzero(F) == np.count_nonzero(f)
        row = int(((1.0 / f) ** 2 if diagonal else (np.abs(np.linalg.inv(F)) ** 2).sum(axis=0)).argmax())
        sqrtF, inv_sqrtF = _sqrt_pair(F)
        self.sqrtF = sqrtF
        self.trF = float(F.trace().real)
        # the complex √F gives the bits a matrix product gives after casting a real √F
        self.witness = (sqrtF.astype(complex), self.trF, self.adjoints[row * d:(row + 1) * d])
        self.expansion = np.zeros((len(plan.support), d * d), dtype=complex)
        self.expansion[plan.expansion_at] = values
        # transfer[(i,k),(r,c)] = F^(-1/2)[i,c]·√F[r,k] and lift[(i,k),(a,b)] = tr F·√F[i,a]·√F[b,k]
        self.transfer = np.multiply.outer(inv_sqrtF, sqrtF).transpose(0, 3, 2, 1).reshape(d * d, d * d)
        lift = self.trF * np.multiply.outer(sqrtF, sqrtF).transpose(0, 3, 1, 2).reshape(d * d, d * d)
        self.lifted = self.expansion @ lift
        for arr in (sqrtF, self.witness[0], self.expansion, self.transfer, self.lifted):
            arr.setflags(write=False)


def block_map(U) -> BlockMap:
    """The compiled data and maps of a corep U, built on its first use and kept on U itself."""
    block = U.__dict__.get("_block_map")
    if block is None:
        block = BlockMap(U)
        object.__setattr__(U, "_block_map", block)
    return block


# -- compiled catalog maps ----------------------------------------------------------

class CatalogMap:
    """The inverse transforms over a catalog of coreps of one kind, and their re-expansion.

    The blocks lie end to end in one vector: block i is
    flat[offsets[i]:offsets[i] + d²], the rows of x̂(U_i) in turn.  `index`
    numbers the catalog's support, the term keys of the blocks' entries in
    catalog order.  For x with coefficients v over the support,
    flat = `matrix` @ v, plus the columns of the same formula, built per
    call, for x's keys outside the support.  `reexpansion` @ flat holds,
    over the support, the coefficients of Σ_U forward((tr F)·√F·x̂(U)·√F, U).

    Each slot j is one term β_j·(p_j ⊗ s_j) of one adjoint U_rc*, so
    h(U_rc*·(m ⊗ n)) = Σ_j β_j·h(p_j·m)·h(s_j·n) and every column is

        TA · (G_L ⊙ G_R),   G_L[j, t] = h(p_j·m_t),   G_R[j, t] = h(s_j·n_t),

    where TA puts β_j in its block entry and folds in the block's
    F^(-1/2)·Hᵀ·F^(1/2).  G_L and G_R are gathered from one-leg tables of
    `PairingTables.leg` over the distinct slot and key monomials of each
    leg only.  A catalog of single-factor coreps (`legs` 1) has one leg
    and one table, G_L; its keys are read as 1-tuples.  `transpose`
    sends each position of flat to that of its transposed entry in the
    same block.  `stacks` groups the blocks by
    size: (catalog positions, index array into flat) per size, of shape
    (blocks, d, d), or (blocks,) for 1×1 blocks.  `witnesses[i]` is the
    `BlockMap.witness` of block i; only a product catalog has a witness.

    Everything index-like above (offsets, index, slots, which table entries
    can be non-zero, transpose, stacks and re-expansion positions) is the
    catalog's `_CatalogPlan`, shared by every q whose blocks have the same
    term keys; the constructor only fills in the numbers of its q.
    """

    __slots__ = ("coreps", "legs", "params", "plan", "offsets", "index", "matrix", "reexpansion",
                 "transpose", "stacks", "witnesses", "_slot_matrix", "_tables", "_thetas")

    def __init__(self, catalog):
        self.coreps = tuple(catalog)
        # None for an empty catalog, which serves either kind of element
        self.legs = _checked_kind(None, *self.coreps, names=Corep.pairing_kinds)
        _require_distinct(U.label for U in self.coreps)
        self.params = tuple(dict.fromkeys(U.params for U in self.coreps))
        blocks = [block_map(U) for U in self.coreps]
        key = tuple((U.label, block.layout) for U, block in zip(self.coreps, blocks))
        self.plan = plan = _CATALOG_PLANS.get(key) or _CATALOG_PLANS.put(key, _CatalogPlan(self.coreps, blocks))
        self.offsets, self.index, self.stacks, self.transpose = (
            plan.offsets, plan.index, plan.stacks, plan.transpose)
        self.witnesses = tuple(block.witness for block in blocks)
        size = plan.size
        transfer = np.zeros((size, size), dtype=complex)
        for offset, block in zip(plan.offsets, blocks):
            end = offset + len(block.adjoints)
            transfer[offset:end, offset:end] = block.transfer
        placed = np.zeros((size, plan.slot_at.size), dtype=complex)
        placed.put(plan.slot_at, [beta for block in blocks for terms in block.adjoints for _, beta in terms])
        self._slot_matrix = transfer @ placed
        self._tables = pairing_tables(self.params[0]) if self.params else None
        values = np.array([self._tables.leg(p, m) for p, m in plan.pairs], dtype=complex)
        gathered = []
        for at, which in plan.tables:
            table = np.zeros((plan.slot_at.size, len(plan.index)), dtype=complex)
            table.put(at, values[which])
            gathered.append(table)
        self.matrix = self._pairing(gathered, len(plan.index))
        self.reexpansion = np.zeros((len(plan.index), size), dtype=complex)
        if blocks:
            # each entry gets one block's part, added to zero as the blockwise += adds it
            parts = np.concatenate([block.lifted.reshape(-1) for block in blocks])
            self.reexpansion.reshape(-1)[plan.lift_at] += parts
        self._thetas: dict = {}  # per leg, θ of each leg monomial of the support as (scale, image)

    def gather(self, x):
        """(v, outside): x's coefficients over the support, and its other (key, coeff) terms."""
        _checked_kind(self.legs, x, names=Corep.pairing_kinds)
        # params lists the catalog's distinct parameters, so x matches all of them or none
        if self.params and self.params != (x.params,):
            raise ValueError("element and corepresentation parameters differ")
        index = self.index
        v = np.zeros(len(index), dtype=complex)
        outside = []
        for key, coeff in x.terms.items():
            s = index.get(key)
            if s is None:
                outside.append((key, coeff))
            else:
                v[s] = coeff
        return v, outside

    def apply(self, x):
        """(flat, residual) for x; the residual is that of `support_residual`."""
        return self.transform(*self.gather(x))

    def apply_theta(self, x: MultiElement, leg: int):
        """`apply` of partial_theta(x, leg=leg), with θ of the support's leg monomials read from a memo.

        θx's terms come from `partial_theta`'s own loop, so its report is
        bit for bit that of θx; keys and images off the support go through
        the outside-key columns of `flat`.  The memo holds θ on the leg
        monomials of a product catalog's support at its q (5 per leg on the
        shipped catalog), so only an x that `gather` takes reads it.
        """
        images = {}
        if self.legs == 2 and self.params == (x.params,):
            if leg not in self._thetas:
                monos = {key[leg] for key in self.index}
                self._thetas[leg] = {mono: _theta_monomial(mono, x.params.q) for mono in monos}
            images = self._thetas[leg]
        return self.apply(_theta_on_leg(x, leg, images))

    def transform(self, v: np.ndarray, outside=()):
        """(flat, residual) from x's coefficients v over the support and its other terms."""
        flat = self.flat(v, outside)
        missed = float(np.max(np.abs([c for _, c in outside]))) if outside else 0.0
        gaps = np.abs(v - self.reexpansion @ flat)
        return flat, max(float(gaps.max(initial=0.0)), missed)

    def flat(self, v: np.ndarray, outside=()) -> np.ndarray:
        """Every block x̂(U) end to end, from x's coefficients v over the support and its other terms."""
        flat = self.matrix @ v
        if outside:
            keys = [_ElementCore.leg_monomials(t) for t, _ in outside]
            gathered = []
            for side, (monos, rows) in enumerate(self.plan.slot_legs):
                key_monos, cols = _distinct([key[side] for key in keys])
                # h(p·m) is 0j, as `leg` gives it, where the charges of p and m do not cancel
                table = np.array([[self._tables.leg(p, m) if leg_support(p, m) else 0j for m in key_monos]
                                  for p in monos], dtype=complex).reshape(len(monos), len(key_monos))
                gathered.append(table[np.ix_(rows, cols)])
            flat = flat + self._pairing(gathered, len(keys)) @ np.array([c for _, c in outside])
        return flat

    def block(self, flat: np.ndarray, i: int) -> np.ndarray:
        """x̂(U_i) from flat."""
        d = self.coreps[i].dim
        return flat[self.offsets[i]:self.offsets[i] + d * d].reshape(d, d)

    def _pairing(self, gathered, columns) -> np.ndarray:
        """TA · (G_L ⊙ G_R) from each leg's one-leg table gathered over the slots and `columns` keys."""
        product = np.ones((self.plan.slot_at.size, columns), dtype=complex)
        for table in gathered:
            product *= table
        return self._slot_matrix @ product


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


# -- shape plans and numeric fills -----------------------------------------------------

# block plans kept at once, keyed by their entries' term keys
BLOCK_PLANS_SIZE = 32
_BLOCK_PLANS = LRU(BLOCK_PLANS_SIZE)
# catalog plans kept at once, keyed by labels, entry key layouts and pruned adjoint keys
CATALOG_PLANS_SIZE = 8
_CATALOG_PLANS = LRU(CATALOG_PLANS_SIZE)


class _BlockPlan:
    """The q-independent shape of a block whose entries have the given term keys.

    Term j of the entries, in row-major entry order, has its coefficient at
    E[expansion_at[0][j], expansion_at[1][j]], its adjoint key at
    `adjoint_keys[j]`, and its adjoint scaled by q^e for each leg's power e
    in powers[power_at[j]]; `spans` splits the terms by entry.
    """

    __slots__ = ("support", "expansion_at", "adjoint_keys", "powers", "power_at", "spans")

    def __init__(self, layout):
        d = math.isqrt(len(layout))
        index: dict = {}
        for row in range(d):
            for col in range(d):
                for key in layout[col * d + row]:
                    index.setdefault(key, len(index))
        self.support = tuple(index)
        terms = [(rc, key) for rc, keys in enumerate(layout) for key in keys]
        self.expansion_at = (np.array([index[key] for _, key in terms], dtype=np.intp),
                             np.array([(rc % d) * d + rc // d for rc, _ in terms], dtype=np.intp))
        monos = [_ElementCore.leg_monomials(key) for _, key in terms]
        images = [tuple(map(_adjoint_image, leg_monos)) for leg_monos in monos]
        self.adjoint_keys = tuple(_ElementCore.key(image) for image in images)
        self.powers, power_at = _distinct([tuple(map(_adjoint_power, leg_monos)) for leg_monos in monos])
        self.power_at = tuple(power_at.tolist())
        ends = tuple(itertools.accumulate(len(keys) for keys in layout))
        self.spans = tuple(zip((0,) + ends, ends))


class _CatalogPlan:
    """The q-independent shape of a `CatalogMap` (see there for the names).

    Slot j's β sits at flat position `slot_at[j]` of the (flat × slots)
    matrix that TA multiplies, and `slot_legs[side]` holds the distinct
    slot monomials of that leg with each slot's position among them.  The
    one-leg tables gathered over slots × support keys are zero apart from
    `tables[side]` = (flat positions, which), where the value is
    h(p·m) of `pairs[which]`: only pairs whose product has a monomial with
    a Haar value are listed (`haar.leg_support`).  `lift_at` places each
    block's lifted expansion, flattened in catalog order, in the
    re-expansion matrix.  A one-leg catalog has one side.
    """

    __slots__ = ("offsets", "size", "index", "slot_at", "slot_legs", "pairs", "tables",
                 "lift_at", "stacks", "transpose")

    def __init__(self, coreps, blocks):
        offsets, lift_at, slot_entries, slot_keys = [], [], [], []
        index: dict = {}
        offset = 0
        for U, block in zip(coreps, blocks):
            offsets.append(offset)
            rows = [index.setdefault(key, len(index)) for key in block.plan.support]
            lift_at.append((rows, offset, len(block.adjoints)))
            for rc, terms in enumerate(block.adjoints):
                for key, _ in terms:
                    slot_entries.append(offset + rc)
                    slot_keys.append(key)
            offset += U.dim * U.dim
        self.offsets, self.size, self.index = tuple(offsets), offset, index
        legs = coreps[0].legs if coreps else 0
        slot_keys, keys = (list(map(_ElementCore.leg_monomials, k)) for k in (slot_keys, index))
        self.lift_at = np.array([row * offset + start + k for rows, start, width in lift_at
                                 for row in rows for k in range(width)], dtype=np.intp)
        slots = len(slot_entries)
        self.slot_at = np.array(slot_entries, dtype=np.intp) * slots + np.arange(slots)
        self.slot_legs = tuple(_distinct([key[side] for key in slot_keys]) for side in range(legs))
        pairs: dict = {}
        tables = []
        for side, (monos, rows) in enumerate(self.slot_legs):
            key_monos, cols = _distinct([key[side] for key in keys])
            # (slot monomial, key monomial) positions whose one-leg value may be non-zero
            nonzero = {(i, k): pairs.setdefault((p, m), len(pairs))
                       for i, p in enumerate(monos) for k, m in enumerate(key_monos) if leg_support(p, m)}
            at, which = [], []
            for j, i in enumerate(rows.tolist()):
                for t, k in enumerate(cols.tolist()):
                    if (i, k) in nonzero:
                        at.append(j * len(index) + t)
                        which.append(nonzero[i, k])
            tables.append((np.array(at, dtype=np.intp), np.array(which, dtype=np.intp)))
        self.pairs = tuple(pairs)
        self.tables = tuple(tables)
        by_size: dict = {}
        for i, U in enumerate(coreps):
            by_size.setdefault(U.dim, []).append(i)
        stacks = []
        for d, positions in by_size.items():
            take = np.array([offsets[i] + np.arange(d * d).reshape(d, d) for i in positions])
            stacks.append((tuple(positions), take.reshape(-1) if d == 1 else take))
        self.stacks = tuple(stacks)
        self.transpose = np.array(
            [offset + c * U.dim + r for offset, U in zip(offsets, coreps)
             for r in range(U.dim) for c in range(U.dim)], dtype=np.intp)


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

def _expand(mat: np.ndarray, U) -> dict:
    """The terms of Σ mat[row, col] U_(col),(row), as E @ vec(mat) over U's support."""
    compiled = block_map(U)
    return dict(zip(compiled.support, compiled.expansion @ mat.reshape(-1)))


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
