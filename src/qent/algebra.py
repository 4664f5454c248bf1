"""Polynomial *-algebra of the quantum SU(2) group in normal-ordered form.

Two generators a, c subject to the relations

    ac = q ca,   ac* = q c*a,   cc* = c*c,
    a*a + (1/q) c*c  =  aa* + q cc*  =  I,

with a fixed deformation parameter 0 < q <= 1 (q = 1 is the commutative,
classical case).  Every element is stored as a finite complex linear
combination of normal-ordered basis monomials

    a^k c^m c*^n        (k, m, n >= 0)   or
    a*^k c^m c*^n       (k >= 1, m, n >= 0),

and all products are reduced back to this basis.  The rewrite system that
performs the reduction is confluent and terminating, so the normal form is
independent of the order in which rules are applied.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

PLAIN = "plain"  # monomial carries a^k
STAR = "star"    # monomial carries a*^k

GEN_A = "a"
GEN_ASTAR = "a*"
GEN_C = "c"
GEN_CSTAR = "c*"
GENERATOR_NAMES = (GEN_A, GEN_ASTAR, GEN_C, GEN_CSTAR)


@dataclass(frozen=True)
class AlgebraParams:
    """Deformation parameter and the absolute tolerance used for comparisons."""

    q: float = 0.5
    tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must lie in (0, 1], got {self.q!r}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")


class _MonomialFields(NamedTuple):
    sector: str = PLAIN
    k: int = 0
    m: int = 0
    n: int = 0


class Monomial(_MonomialFields):
    """A normal-ordered basis word a^k c^m c*^n (PLAIN) or a*^k c^m c*^n (STAR).

    A validated tuple value, so hashing and comparing monomials, and the
    tuple keys of multi-leg terms built from them, run in C.
    """

    __slots__ = ()

    def __new__(cls, sector: str = PLAIN, k: int = 0, m: int = 0, n: int = 0):
        if sector not in (PLAIN, STAR):
            raise ValueError(f"unknown sector {sector!r}")
        if min(k, m, n) < 0:
            raise ValueError("monomial exponents must be non-negative")
        if k == 0 and sector != PLAIN:
            raise ValueError("k = 0 monomials must use the PLAIN sector")
        return tuple.__new__(cls, (sector, k, m, n))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make and _replace skip __new__; route them through it
        return cls(*iterable)

    @property
    def degree(self) -> int:
        return self.k + self.m + self.n

    @property
    def is_unit(self) -> bool:
        return self.degree == 0

    def __str__(self):
        if self.is_unit:
            return "1"
        parts = []
        if self.k:
            sym = "a" if self.sector == PLAIN else "a*"
            parts.append(sym if self.k == 1 else f"{sym}^{self.k}")
        if self.m:
            parts.append("c" if self.m == 1 else f"c^{self.m}")
        if self.n:
            parts.append("c*" if self.n == 1 else f"c*^{self.n}")
        return " ".join(parts)


UNIT = Monomial()
MONO_A = Monomial(PLAIN, 1, 0, 0)
MONO_ASTAR = Monomial(STAR, 1, 0, 0)
MONO_C = Monomial(PLAIN, 0, 1, 0)
MONO_CSTAR = Monomial(PLAIN, 0, 0, 1)

_GENERATOR_MONOMIALS = {
    GEN_A: MONO_A,
    GEN_ASTAR: MONO_ASTAR,
    GEN_C: MONO_C,
    GEN_CSTAR: MONO_CSTAR,
}

_SORT_KEY = {PLAIN: 0, STAR: 1}


def _mono(sector: str, k: int, m: int, n: int) -> Monomial:
    return Monomial(PLAIN if k == 0 else sector, k, m, n)


def _mono_sort_key(mono: Monomial):
    return (_SORT_KEY[mono.sector], mono.k, mono.m, mono.n)


def _times_gen_rules(mono: Monomial, gen: str):
    """Right-multiply a basis monomial by a or a*, without q.

    Returns ((monomial, (power, kind)), ...): the scale of each monomial is
    phase = q**power, and -phase / q for kind "/" or -phase * q for kind "*".
    """
    k, m, n = mono.k, mono.m, mono.n
    if gen == GEN_A:
        # commute a to the left of the c-block, then absorb: a*a = 1 - (1/q) cc*
        power = -(m + n)
        if mono.sector == PLAIN:
            return ((_mono(PLAIN, k + 1, m, n), (power, None)),)
        return ((_mono(STAR, k - 1, m, n), (power, None)),
                (_mono(STAR, k - 1, m + 1, n + 1), (power, "/")))
    if gen == GEN_ASTAR:
        # commute a* to the left of the c-block, then absorb: aa* = 1 - q cc*
        power = m + n
        if mono.sector == STAR or k == 0:
            return ((_mono(STAR, k + 1, m, n), (power, None)),)
        return ((_mono(PLAIN, k - 1, m, n), (power, None)),
                (_mono(PLAIN, k - 1, m + 1, n + 1), (power, "*")))
    raise ValueError(f"unknown generator {gen!r}")


# One q's working set is about 650 products (`qent verify --suite all`); the
# bound keeps a process that sweeps q from growing without limit.
MONO_MUL_CACHE_SIZE = 4096


class LRU(OrderedDict):
    """A memo of at most `maxsize` entries that evicts the least recently used one at a time."""

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize

    def get(self, key, default=None):
        value = OrderedDict.get(self, key, default)
        if value is not default:
            self.move_to_end(key)
        return value

    def put(self, key, value):
        self[key] = value
        self.move_to_end(key)
        if len(self) > self.maxsize:
            self.popitem(last=False)
        return value


@lru_cache(maxsize=MONO_MUL_CACHE_SIZE)
def _mono_mul_program(x: Monomial, y: Monomial):
    """The rewriting of x·y, which does not depend on q: (steps, monomials).

    x is multiplied by the a or a* factors of y one at a time; each step
    lists (source, target, power, kind) for every term it writes, in the
    order in which the rewriting meets them (see `_times_gen_rules`), and
    the last step's targets are `monomials`.  The c and c* factors of y
    append to each monomial with scale 1, one monomial onto one, so they
    are one step however many there are.
    """
    monos = (x,)
    steps = []
    gen = GEN_A if y.sector == PLAIN else GEN_ASTAR
    for _ in range(y.k):
        index: dict = {}
        ops = tuple((src, index.setdefault(mono2, len(index)), power, kind)
                    for src, mono in enumerate(monos)
                    for mono2, (power, kind) in _times_gen_rules(mono, gen))
        steps.append((len(index), ops))
        monos = tuple(index)
    if y.m or y.n:
        steps.append((len(monos), tuple((src, src, 0, None) for src in range(len(monos)))))
        monos = tuple(_mono(mono.sector, mono.k, mono.m + y.m, mono.n + y.n) for mono in monos)
    return tuple(steps), monos


@lru_cache(maxsize=MONO_MUL_CACHE_SIZE)
def _mono_mul(x: Monomial, y: Monomial, q: float):
    """Normal-ordered product of two basis monomials, as ((monomial, coeff), ...).

    The program of `_mono_mul_program` is run with numbers: every term adds
    coeff·scale onto 0j in its target, so a fresh q costs arithmetic only.
    """
    steps, monos = _mono_mul_program(x, y)
    coeffs = [1.0 + 0.0j]
    for width, ops in steps:
        nxt = [0j] * width
        for src, dst, power, kind in ops:
            scale = q ** power
            if kind == "/":
                scale = -scale / q
            elif kind == "*":
                scale = -scale * q
            nxt[dst] += coeffs[src] * scale
        coeffs = nxt
    return tuple(zip(monos, coeffs))


def _mono_adjoint(mono: Monomial, q: float):
    """Adjoint of a basis monomial as (real scale, monomial)."""
    return q ** _adjoint_power(mono), _adjoint_image(mono)


def _adjoint_power(mono: Monomial) -> int:
    """The power of q that scales the adjoint of a basis monomial."""
    power = (mono.m + mono.n) * mono.k
    return power if mono.sector == PLAIN else -power


def _adjoint_image(mono: Monomial) -> Monomial:
    """The basis monomial of the adjoint of a basis monomial."""
    return _mono(STAR if mono.sector == PLAIN else PLAIN, mono.k, mono.n, mono.m)


class _ElementCore:
    """What one-leg Elements and multi-leg MultiElements share: terms, keys, pruning, linear
    arithmetic and the leg-wise maps.

    `terms` maps each key to its coefficient.  The leg count is the kind: an
    Element has one leg and Monomial keys, a MultiElement two or more and
    plain tuples of `legs` Monomials as keys.  `leg_monomials` reads a key as
    its tuple of leg monomials, `key` builds one from such a tuple, and the
    constructor refuses any other key.  Coefficients with modulus at most
    ``params.tol`` are pruned on construction; a coefficient whose modulus
    is not finite (a non-finite one, or a finite one such as
    1.5e308 + 1.5e308j whose modulus overflows) raises ValueError.
    Operations that build their keys from keys already checked use the
    trusted constructor, which skips the key check.
    """

    __slots__ = ("params", "legs", "terms")

    def __init__(self, params: AlgebraParams, terms: Mapping | None = None, legs: int = 1):
        if terms:
            # a Monomial is a 4-tuple itself, so a key's type is tested exactly, not by isinstance
            key_type = Monomial if legs == 1 else tuple
            kinds = (Monomial,) * legs
            for key in terms:
                if type(key) is not key_type or not (
                        key_type is Monomial or len(key) == legs and all(map(isinstance, key, kinds))):
                    what = "a monomial" if key_type is Monomial else f"a tuple of {legs} monomials"
                    raise ValueError(f"term {key!r} is not {what}")
        self._fill(params, terms, legs)

    def _fill(self, params: AlgebraParams, terms: Mapping | None, legs: int):
        pruned = {}
        if terms:
            tol = params.tol
            for key, coeff in terms.items():
                z = complex(coeff)
                try:
                    size = abs(z)
                except OverflowError:  # a finite z whose modulus overflows
                    size = math.inf
                if tol < size < math.inf:
                    pruned[key] = z
                elif not size <= tol:
                    # str() of a tuple key is its repr, and a Monomial reads as its word
                    raise ValueError(f"the modulus of the coefficient of {key} is not finite: {z!r}")
        self.params = params
        self.legs = legs
        self.terms = pruned

    @classmethod
    def _trusted(cls, params: AlgebraParams, legs: int, terms: Mapping):
        """An element of the class over keys the caller built: Monomials, or tuples of `legs` of them.

        The keys are not checked again; coefficients are pruned at tol and
        rejected when their modulus is not finite, as by the constructor.
        """
        out = cls.__new__(cls)
        out._fill(params, terms, legs)
        return out

    # -- keys as tuples of leg monomials -----------------------------------

    @staticmethod
    def leg_monomials(key) -> tuple:
        """A term key as its tuple of leg monomials: a Monomial reads as the 1-tuple of itself."""
        return (key,) if type(key) is Monomial else key

    @staticmethod
    def key(monos: tuple):
        """The term key of a tuple of leg monomials: the monomial itself for one leg, the tuple for more."""
        return monos[0] if len(monos) == 1 else monos

    @property
    def kind(self) -> str:
        """The kind as messages name it: "a one-leg Element", or "a <legs>-leg element"."""
        return "a one-leg Element" if self.legs == 1 else f"a {self.legs}-leg element"

    def _legwise(self, image, conjugate: bool):
        """The element with every leg monomial m replaced by image(m) = (real scale, monomial).

        A term's scale is the product of its legs' scales, taken from 1.0,
        so one leg keeps its scale's bits.  Its coefficient, conjugated when
        `conjugate`, times the scale is added onto 0j at the image key.
        """
        out: dict = {}
        leg_monomials, key_of = self.leg_monomials, self.key
        for key, coeff in self.terms.items():
            scale = 1.0
            monos = []
            for mono in leg_monomials(key):
                s, mono2 = image(mono)
                scale *= s
                monos.append(mono2)
            key2 = key_of(tuple(monos))
            out[key2] = out.get(key2, 0j) + (coeff.conjugate() if conjugate else coeff) * scale
        return self._trusted(self.params, self.legs, out)

    def adjoint(self):
        """The *-involution, leg by leg: antilinear and antimultiplicative."""
        q = self.params.q
        return self._legwise(lambda mono: _mono_adjoint(mono, q), True)

    # -- inspection --------------------------------------------------------

    def coeff(self, key) -> complex:
        return self.terms.get(key, 0j)

    def items(self):
        return self.terms.items()

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.params != other.params:
            raise ValueError("operands carry different algebra parameters")
        if self.legs != other.legs:
            raise ValueError(f"leg mismatch: {self.legs} vs {other.legs}")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = self._trusted(self.params, self.legs, {self.key((UNIT,) * self.legs): other})
        elif not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0j) + coeff
        return self._trusted(self.params, self.legs, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __rsub__(self, other):
        return (-1) * self + other

    def __neg__(self):
        return (-1) * self

    def _scaled(self, factor):
        return self._trusted(self.params, self.legs, {key: coeff * factor for key, coeff in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._scaled(other)
        return NotImplemented

    # -- comparison --------------------------------------------------------

    def distance(self, other) -> float:
        """Largest coefficient deviation over the union of supports."""
        self._check(other)
        keys = set(self.terms) | set(other.terms)
        return max((abs(self.coeff(k) - other.coeff(k)) for k in keys), default=0.0)

    def equal(self, other) -> bool:
        """Coefficient-wise agreement within the shared tolerance."""
        return self.distance(other) <= self.params.tol

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.params == other.params and self.legs == other.legs and self.equal(other)

    __hash__ = None

    def __str__(self):
        """The terms in basis order, each as its coefficient times its legs' words joined by ⊗."""
        parts = []
        for key in sorted(self.terms, key=_term_sort_key):
            coeff, label = _format_coeff(self.terms[key]), " ⊗ ".join(map(str, self.leg_monomials(key)))
            parts.append(coeff if label == "1" else f"{coeff}·{label}")
        return " + ".join(parts) or "0"


class Element(_ElementCore):
    """Finite complex linear combination of normal-ordered monomials, keyed by Monomial.

    Instances are immutable by convention: every operation returns a new
    Element, so values can be shared freely between threads.  The key
    check, pruning, linear arithmetic and adjoint are `_ElementCore`'s; the
    symbolic product is this kind's own, since one product over leg tuples
    runs one-leg products 1.3-2.0x slower.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    def __init__(self, params: AlgebraParams, terms: Mapping | None = None):
        super().__init__(params, terms)  # an Element has one leg, the core's default

    @classmethod
    def zero(cls, params: AlgebraParams) -> "Element":
        return cls(params)

    @classmethod
    def unit(cls, params: AlgebraParams) -> "Element":
        return cls(params, {UNIT: 1.0})

    @classmethod
    def generator(cls, params: AlgebraParams, name: str) -> "Element":
        try:
            mono = _GENERATOR_MONOMIALS[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None
        return cls(params, {mono: 1.0})

    @classmethod
    def monomial(cls, params: AlgebraParams, mono: Monomial, coeff: complex = 1.0) -> "Element":
        return cls(params, {mono: complex(coeff)})

    def degree(self) -> int:
        return max((mono.degree for mono in self.terms), default=0)

    # -- symbolic product ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._scaled(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        q = self.params.q
        out: dict = {}
        for mx, cx in self.terms.items():
            for my, cy in other.terms.items():
                cxy = cx * cy
                for mono, scale in _mono_mul(mx, my, q):
                    out[mono] = out.get(mono, 0j) + cxy * scale
        return Element._trusted(self.params, 1, out)

    def __repr__(self):
        return f"Element({self})"


def _checked_kind(legs, *items, names=None):
    """The items' kind, which is their leg count, after refusing any item of another kind by its `kind`.

    An item is an element, or a corep of the kind of element it pairs with
    (`Corep.legs`).  `legs` is the kind expected, or None to take the first
    item's.  `names` maps kinds to how the message names what was expected;
    by default an Element or a MultiElement.
    """
    for item in items:
        found = getattr(item, "legs", None)
        if legs is None:
            legs = found
        if found is None or found != legs:
            names = names or {legs: "an Element" if legs == 1 else f"a MultiElement with {legs} legs"}
            want = names.get(legs) or " or ".join(names.values())
            got = getattr(item, "kind", f"a {type(item).__name__}")
            raise ValueError(f"expected {want}, got {got}")
    return legs


def _format_coeff(z: complex) -> str:
    if abs(z.imag) < 1e-12:
        r = z.real
        return f"{int(r)}" if r == int(r) else f"{r:.6g}"
    return f"({z.real:.6g}{z.imag:+.6g}j)"


def _term_sort_key(key):
    return tuple(map(_mono_sort_key, _ElementCore.leg_monomials(key)))


# -- word rewriting ----------------------------------------------------------

def _rules(q: float) -> dict:
    qi = 1.0 / q
    return {
        (GEN_C, GEN_A): ((qi, (GEN_A, GEN_C)),),
        (GEN_CSTAR, GEN_A): ((qi, (GEN_A, GEN_CSTAR)),),
        (GEN_C, GEN_ASTAR): ((q, (GEN_ASTAR, GEN_C)),),
        (GEN_CSTAR, GEN_ASTAR): ((q, (GEN_ASTAR, GEN_CSTAR)),),
        (GEN_A, GEN_ASTAR): ((1.0, ()), (-q, (GEN_C, GEN_CSTAR))),
        (GEN_ASTAR, GEN_A): ((1.0, ()), (-qi, (GEN_C, GEN_CSTAR))),
        (GEN_CSTAR, GEN_C): ((1.0, (GEN_C, GEN_CSTAR)),),
    }


def _reducible_positions(word, rules):
    return [i for i in range(len(word) - 1) if (word[i], word[i + 1]) in rules]


def _word_to_monomial(word) -> Monomial:
    # an irreducible word is s...s c...c c*...c* with s = a or a*
    k = m = n = 0
    sector = PLAIN
    stage = 0
    for sym in word:
        if sym in (GEN_A, GEN_ASTAR):
            if stage > 0:
                raise AssertionError(f"word {word!r} is not normal-ordered")
            if k and (sector == STAR) != (sym == GEN_ASTAR):
                raise AssertionError(f"word {word!r} mixes a and a*")
            sector = STAR if sym == GEN_ASTAR else PLAIN
            k += 1
        elif sym == GEN_C:
            if stage > 1:
                raise AssertionError(f"word {word!r} is not normal-ordered")
            stage = 1
            m += 1
        else:
            stage = 2
            n += 1
    return _mono(sector, k, m, n)


def normal_form(word: Iterable[str], params: AlgebraParams, *, rng=None) -> Element:
    """Reduce a product of generator symbols to its normal-ordered Element.

    ``word`` is a sequence over {"a", "a*", "c", "c*"}; the empty word gives
    the unit.  Reduction applies the rewrite rules at the leftmost reducible
    position; pass a numpy ``rng`` to pick positions at random instead (the
    result is the same either way, which is what the confluence tests check).
    """
    word = tuple(word)
    for sym in word:
        if sym not in GENERATOR_NAMES:
            raise ValueError(f"unknown generator symbol {sym!r}")
    rules = _rules(params.q)
    states = {word: 1.0 + 0.0j}
    out: dict = {}
    while states:
        nxt: dict = {}
        for w, coeff in states.items():
            positions = _reducible_positions(w, rules)
            if not positions:
                mono = _word_to_monomial(w)
                out[mono] = out.get(mono, 0j) + coeff
                continue
            i = positions[0] if rng is None else positions[int(rng.integers(len(positions)))]
            for scale, repl in rules[(w[i], w[i + 1])]:
                w2 = w[:i] + repl + w[i + 2:]
                nxt[w2] = nxt.get(w2, 0j) + coeff * scale
        states = nxt
    return Element(params, out)


# -- module-level operation aliases ------------------------------------------

def mul(x: Element, y: Element) -> Element:
    """Normal-ordered product of two Elements (bilinear in both arguments)."""
    return x * y


def adjoint(x: Element) -> Element:
    """The *-involution: antilinear and antimultiplicative."""
    return x.adjoint()


def equal(x: Element, y: Element) -> bool:
    """Coefficient-wise agreement within the shared tolerance."""
    return x.equal(y)


def generators(params: AlgebraParams):
    """The four generators (a, a*, c, c*) as Elements."""
    return tuple(Element.generator(params, name) for name in GENERATOR_NAMES)
