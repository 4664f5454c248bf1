"""JSON serialization for elements, density operators, and check reports.

All complex numbers are written as two-entry [re, im] arrays; nothing is
string-encoded.  Element payloads carry q and tol in their header so a file
fully determines the algebra it lives in.  Integer fields (dims, legs and
the exponents k, m, n) must be JSON integers: a float, a string or a
boolean there raises ValueError instead of being truncated.  Real fields (q,
tol and the parts of every complex pair) must be JSON numbers: a string or
a boolean there raises ValueError instead of being converted.
"""

from __future__ import annotations

import cmath
import json

from .algebra import AlgebraParams, Element, Monomial, PLAIN, STAR
from .entangle import PDReport
from .fourier import DensityOp
from .hopf import MultiElement


def complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _from_pair(pair) -> complex:
    re, im = pair
    z = complex(_real(re, "a complex part"), _real(im, "a complex part"))
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite number {pair!r}")
    return z


def _integer(value, name: str) -> int:
    """A JSON integer field; floats, strings and booleans are refused, not truncated."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """A JSON number field as a float; strings and booleans are refused, not converted."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the largest float
        raise ValueError(f"{name} is not a finite number: {value!r}") from None


def _mono_record(mono: Monomial) -> dict:
    return {"sector": mono.sector, "k": mono.k, "m": mono.m, "n": mono.n}


def _mono_from_record(rec) -> Monomial:
    sector = rec["sector"]
    if sector not in (PLAIN, STAR):
        raise ValueError(f"unknown sector {sector!r}")
    return Monomial(sector, *(_integer(rec[field], field) for field in ("k", "m", "n")))


def element_to_dict(x: Element) -> dict:
    terms = []
    for mono in sorted(x.terms, key=lambda m: (m.sector, m.k, m.m, m.n)):
        rec = _mono_record(mono)
        rec["coeff"] = complex_pair(x.terms[mono])
        terms.append(rec)
    return {"q": x.params.q, "tol": x.params.tol, "terms": terms}


def element_from_dict(data) -> Element:
    params = AlgebraParams(q=_real(data["q"], "q"), tol=_real(data["tol"], "tol"))
    terms = {}
    for rec in data["terms"]:
        mono = _mono_from_record(rec)
        terms[mono] = terms.get(mono, 0j) + _from_pair(rec["coeff"])
    return Element(params, terms)


def multielement_to_dict(x: MultiElement) -> dict:
    terms = []
    for tup in sorted(x.terms, key=lambda t: tuple((m.sector, m.k, m.m, m.n) for m in t)):
        terms.append({
            "monomials": [_mono_record(m) for m in tup],
            "coeff": complex_pair(x.terms[tup]),
        })
    return {"legs": x.legs, "q": x.params.q, "tol": x.params.tol, "terms": terms}


def multielement_from_dict(data) -> MultiElement:
    params = AlgebraParams(q=_real(data["q"], "q"), tol=_real(data["tol"], "tol"))
    legs = _integer(data["legs"], "legs")
    terms = {}
    for rec in data["terms"]:
        tup = tuple(_mono_from_record(r) for r in rec["monomials"])
        terms[tup] = terms.get(tup, 0j) + _from_pair(rec["coeff"])
    return MultiElement(params, legs, terms)


def densityop_to_dict(rho: DensityOp) -> dict:
    entries = [complex_pair(z) for z in rho.matrix.reshape(-1)]
    return {"dims": list(rho.dims), "entries": entries}


def densityop_from_dict(data) -> DensityOp:
    n, m = (_integer(d, "dims") for d in data["dims"])
    flat = [_from_pair(pair) for pair in data["entries"]]
    if len(flat) != (n * m) ** 2:
        raise ValueError(f"expected {(n * m) ** 2} matrix entries, got {len(flat)}")
    import numpy as np

    return DensityOp((n, m), np.array(flat, dtype=complex).reshape(n * m, n * m))


def pdreport_to_dict(report: PDReport) -> dict:
    return {
        "verdict": report.verdict,
        "per_block": [
            {"label": label, "min_eigenvalue": value}
            for label, value in report.per_block.items()
        ],
        "support_residual": report.support_residual,
        "witness": multielement_to_dict(report.witness) if report.witness is not None else None,
    }


def parse_payload(data):
    """Dispatch a decoded JSON payload to the matching value type."""
    if "dims" in data:
        return densityop_from_dict(data)
    if "legs" in data:
        return multielement_from_dict(data)
    if "terms" in data:
        return element_from_dict(data)
    raise ValueError("unrecognized payload (expected a density-operator or element file)")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_JSON_SCALARS = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
                 bool: {True: "true", False: "false"}.get, type(None): lambda _: "null"}


def _json_text(value, pad="\n") -> str:
    """`json.dumps(value, indent=2)` byte for byte, for data with str keys, without json's Python encoder."""
    kind = type(value)
    if kind in (dict, list, tuple) and value:
        inner = pad + "  "
        items = ([_JSON_SCALARS[str](k) + ": " + _json_text(v, inner) for k, v in value.items()] if kind is dict
                 else [_json_text(v, inner) for v in value])
        return "[{"[kind is dict] + inner + ("," + inner).join(items) + pad + "]}"[kind is dict]
    if kind is float and value - value == 0.0:  # finite; json spells out nan and the infinities
        return float.__repr__(value)
    return _JSON_SCALARS[kind](value) if kind in _JSON_SCALARS else json.dumps(value)


def dump_json(obj, path) -> None:
    """Write obj, data with str keys, as the CLI prints it: `_json_text(obj)` and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(obj) + "\n")
