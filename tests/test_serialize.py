"""File-format round trips."""

import numpy as np
import pytest

from qent.algebra import Element, Monomial, PLAIN, STAR
from qent.corep import product_catalog
from qent.entangle import is_positive_definite
from qent.fourier import forward, singlet_state
from qent.hopf import MultiElement, partial_theta
from qent.serialize import (
    densityop_from_dict,
    densityop_to_dict,
    element_from_dict,
    element_to_dict,
    multielement_from_dict,
    multielement_to_dict,
    parse_payload,
    pdreport_to_dict,
)

from conftest import gens


def test_element_roundtrip(params):
    a, astar, c, cstar = gens(params)
    x = (1 + 2j) * (a * c) - 0.75 * cstar + astar * astar
    data = element_to_dict(x)
    assert data["q"] == 0.5 and data["tol"] == 1e-9
    for term in data["terms"]:
        assert set(term) == {"sector", "k", "m", "n", "coeff"}
        assert isinstance(term["coeff"], list) and len(term["coeff"]) == 2
    back = element_from_dict(data)
    assert back.equal(x)


def test_multielement_roundtrip(params):
    x = MultiElement(params, 2, {
        (Monomial(PLAIN, 1, 0, 0), Monomial(STAR, 2, 1, 0)): 0.5 - 0.25j,
        (Monomial(), Monomial(PLAIN, 0, 1, 1)): 3.0,
    })
    data = multielement_to_dict(x)
    assert data["legs"] == 2
    back = multielement_from_dict(data)
    assert back.equal(x)


def test_densityop_roundtrip():
    rho = singlet_state()
    data = densityop_to_dict(rho)
    assert data["dims"] == [2, 2]
    assert len(data["entries"]) == 16
    back = densityop_from_dict(data)
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15


def test_densityop_rejects_wrong_length():
    with pytest.raises(ValueError):
        densityop_from_dict({"dims": [2, 2], "entries": [[1.0, 0.0]] * 15})


def test_parse_payload_dispatch(params):
    a = Element.generator(params, "a")
    assert isinstance(parse_payload(element_to_dict(a)), Element)
    x = MultiElement.unit(params, 2)
    assert isinstance(parse_payload(multielement_to_dict(x)), MultiElement)
    assert parse_payload(densityop_to_dict(singlet_state())).dims == (2, 2)
    with pytest.raises(ValueError):
        parse_payload({"something": 1})


def test_pdreport_serialization(params):
    catalog = product_catalog(params)
    U = next(c for c in catalog if c.label == "fund*fund")
    report = is_positive_definite(partial_theta(forward(singlet_state(), U)), catalog)
    data = pdreport_to_dict(report)
    assert data["verdict"] == "NOT_POSITIVE_DEFINITE"
    labels = {rec["label"] for rec in data["per_block"]}
    assert labels == {"triv*triv", "triv*fund", "fund*triv", "fund*fund"}
    assert data["witness"] is not None
    witness = multielement_from_dict(data["witness"])
    assert witness.legs == 2


@pytest.mark.parametrize("entries", [
    # each two-character string used to be read as [re, im]
    ["10", "00", "00", "00"] * 4,
    [[True, False]] + [[0.0, 0.0]] * 15,
    [["0.5", 0.0]] + [[0.0, 0.0]] * 15,
    [[2 ** 1100, 0.0]] + [[0.0, 0.0]] * 15,
])
def test_densityop_entries_must_be_json_numbers(entries):
    with pytest.raises(ValueError, match="must be a number|is not a finite number"):
        densityop_from_dict({"dims": [2, 2], "entries": entries})


@pytest.mark.parametrize("field, value", [
    ("q", "0.5"), ("q", True), ("tol", True), ("tol", "1e-9"), ("coeff", "10"), ("coeff", [True, False]),
    ("coeff", [0.5, "0"]), ("q", 2 ** 1100),
])
def test_element_numbers_must_be_json_numbers(params, field, value):
    for data in (element_to_dict(Element.generator(params, "c")), multielement_to_dict(MultiElement.unit(params, 2))):
        (data["terms"][0] if field == "coeff" else data)[field] = value
        with pytest.raises(ValueError, match="must be a number|is not a finite number"):
            parse_payload(data)


def test_json_numbers_of_either_type_still_load(params):
    data = element_to_dict(Element.generator(params, "c"))
    data["q"], data["terms"][0]["coeff"] = 1, [1, 0]
    x = parse_payload(data)
    assert x.params.q == 1.0 and x.terms == {Monomial(PLAIN, 0, 1, 0): 1 + 0j}
    rho = densityop_from_dict({"dims": [2, 2], "entries": [[1, 0]] + [[0, 0]] * 15})
    assert rho.matrix[0, 0] == 1.0
