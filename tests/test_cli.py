"""End-to-end command-line tests over real files."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qent.algebra import AlgebraParams, Element
from qent.cli import main
from qent.corep import Q_MIN, product_catalog
from qent.fourier import DensityOp, reconstruct, singlet_state, werner_state
from qent.hopf import MultiElement, partial_theta, tensor
from qent.serialize import (
    densityop_to_dict,
    dump_json,
    element_to_dict,
    multielement_from_dict,
    multielement_to_dict,
)


def write_singlet(tmp_path, name="singlet.json"):
    path = tmp_path / name
    dump_json(densityop_to_dict(singlet_state()), path)
    return path


def test_transform_singlet(tmp_path, capsys):
    rho_path = write_singlet(tmp_path)
    out_path = tmp_path / "element.json"
    code = main(["transform", "--input", str(rho_path), "--output", str(out_path), "--q", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "counit check: 1" in out
    data = json.loads(out_path.read_text())
    assert data["legs"] == 2
    assert len(data["terms"]) == 4
    for term in data["terms"]:
        assert abs(term["coeff"][0] - 0.5) < 1e-12
        assert abs(term["coeff"][1]) < 1e-12


def test_transform_maximally_mixed(tmp_path):
    path = tmp_path / "mixed.json"
    dump_json(densityop_to_dict(werner_state(0.0)), path)
    out_path = tmp_path / "el.json"
    assert main(["transform", "--input", str(path), "--output", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert len(data["terms"]) == 4
    assert all(abs(t["coeff"][0] - 0.25) < 1e-12 for t in data["terms"])


def test_transform_zero_matrix(tmp_path):
    path = tmp_path / "zero.json"
    dump_json({"dims": [2, 2], "entries": [[0.0, 0.0]] * 16}, path)
    out_path = tmp_path / "el.json"
    assert main(["transform", "--input", str(path), "--output", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["terms"] == []


def test_transform_malformed_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["transform", "--input", str(bad)]) == 2
    worse = tmp_path / "worse.json"
    dump_json({"dims": [2, 2], "entries": [[1.0, 0.0]] * 3}, worse)
    assert main(["transform", "--input", str(worse)]) == 2


def test_roundtrip_through_files(tmp_path):
    rho_path = write_singlet(tmp_path)
    out_path = tmp_path / "element.json"
    assert main(["transform", "--input", str(rho_path), "--output", str(out_path)]) == 0
    element = multielement_from_dict(json.loads(out_path.read_text()))
    U = product_catalog(element.params, ("fund*fund",))[0]
    recovered = reconstruct(element, U)
    assert np.max(np.abs(recovered - singlet_state().matrix)) < 1e-8


def test_check_pd_exit_codes(tmp_path):
    params = AlgebraParams(q=0.5)
    U = product_catalog(params, ("fund*fund",))[0]
    rho_path = write_singlet(tmp_path)
    el_path = tmp_path / "el.json"
    assert main(["transform", "--input", str(rho_path), "--output", str(el_path)]) == 0
    assert main(["check-pd", "--input", str(el_path)]) == 0

    element = multielement_from_dict(json.loads(el_path.read_text()))
    npt_path = tmp_path / "npt.json"
    dump_json(multielement_to_dict(partial_theta(element)), npt_path)
    assert main(["check-pd", "--input", str(npt_path)]) == 1

    # outside the catalog span: undecided
    c = Element.generator(params, "c")
    outside = tensor(c * c.adjoint(), Element.unit(params))
    out_path = tmp_path / "outside.json"
    dump_json(multielement_to_dict(outside), out_path)
    assert main(["check-pd", "--input", str(out_path)]) == 3

    assert main(["check-pd", "--input", str(rho_path)]) == 2  # not an element file


def test_check_pd_unit_with_trivial_catalog(tmp_path):
    params = AlgebraParams(q=0.5)
    path = tmp_path / "unit.json"
    dump_json(multielement_to_dict(MultiElement.unit(params, 2)), path)
    assert main(["check-pd", "--input", str(path), "--catalog", "triv*triv"]) == 0


def test_ppt_on_matrix_inputs(tmp_path, capsys):
    singlet_path = write_singlet(tmp_path)
    code = main(["ppt", "--input", str(singlet_path), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix_ppt"] is False
    assert payload["agreement"] is True

    werner_path = tmp_path / "werner.json"
    dump_json(densityop_to_dict(werner_state(0.2)), werner_path)
    assert main(["ppt", "--input", str(werner_path)]) == 0

    prod_path = tmp_path / "prod.json"
    mat = np.zeros((4, 4))
    mat[1, 1] = 1.0
    dump_json(densityop_to_dict(DensityOp((2, 2), mat)), prod_path)
    assert main(["ppt", "--input", str(prod_path)]) == 0


def test_ppt_unsupported_dims(tmp_path):
    path = tmp_path / "big.json"
    dump_json({"dims": [3, 3], "entries": [[0.0, 0.0]] * 81}, path)
    assert main(["ppt", "--input", str(path)]) == 2


def test_ppt_on_element_input(tmp_path):
    params = AlgebraParams(q=0.5)
    path = tmp_path / "unit.json"
    dump_json(multielement_to_dict(MultiElement.unit(params, 2)), path)
    assert main(["ppt", "--input", str(path)]) == 0


def test_ppt_agreement_is_false_when_the_algebra_side_is_undecided(capsys):
    # triv*triv alone does not span werner_0.6's transform: an undecided algebra side agrees with nothing
    code = main(["ppt", "--input", str(GOLDEN / "werner_0.6.json"), "--catalog", "triv*triv", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3 and payload["algebra_report"]["verdict"] == "UNDECIDED_SUPPORT"
    assert payload["matrix_ppt"] is False and payload["agreement"] is False


def _exits_2_with(argv, capsys, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_ppt_and_check_pd_refuse_a_three_leg_element_file(tmp_path, capsys):
    path = tmp_path / "three.json"
    dump_json(multielement_to_dict(MultiElement.unit(AlgebraParams(q=0.5), 3)), path)
    for command in ("ppt", "check-pd"):
        _exits_2_with([command, "--input", str(path)], capsys, f"{command} does not take a 3-leg element")


def test_transform_refuses_a_pair_of_other_dims(tmp_path, capsys):
    path = tmp_path / "two_by_one.json"
    dump_json(densityop_to_dict(DensityOp((2, 1), np.eye(2) / 2.0)), path)
    _exits_2_with(["transform", "--input", str(path), "--pair", "fund*fund"], capsys,
                  "corep pair fund*fund has dims (2, 2), input has (2, 1)")


def test_ppt_refuses_a_non_hermitian_density_operator(capsys):
    _exits_2_with(["ppt", "--input", str(GOLDEN / "nonhermitian.json")], capsys,
                  "ppt_matrix requires a hermitian input")


def test_check_pd_output_file_holds_the_bytes_it_prints(tmp_path, capsys):
    element_path = tmp_path / "element.json"
    assert main(["transform", "--input", str(write_singlet(tmp_path)), "--output", str(element_path)]) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    assert main(["check-pd", "--input", str(element_path), "--output", str(report_path), "--format", "json"]) == 0
    printed = capsys.readouterr().out
    assert report_path.read_text(encoding="utf-8") == printed


def test_haar_command(tmp_path, capsys):
    params = AlgebraParams(q=0.5)
    c = Element.generator(params, "c")
    path = tmp_path / "cc.json"
    dump_json(element_to_dict(c * c.adjoint()), path)
    assert main(["haar", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    value = json.loads(out)
    assert abs(value[0] - 0.4) < 1e-9 and abs(value[1]) < 1e-12

    unit_path = tmp_path / "one.json"
    dump_json(element_to_dict(Element.unit(params)), unit_path)
    assert main(["haar", "--input", str(unit_path)]) == 0
    assert json.loads(capsys.readouterr().out)[0] == 1.0

    two_leg = tmp_path / "two.json"
    a = Element.generator(params, "a")
    dump_json(multielement_to_dict(tensor(a, a.adjoint())), two_leg)
    assert main(["haar", "--input", str(two_leg)]) == 0
    assert abs(json.loads(capsys.readouterr().out)[0]) < 1e-12


def test_verify_command(capsys):
    assert main(["verify", "--suite", "hopf", "--q", "0.7"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "coassociativity" in out


def test_verify_corep_at_q1(capsys):
    assert main(["verify", "--suite", "corep", "--q", "1.0"]) == 0


def test_verify_reports_a_failed_suite_at_a_small_q(capsys):
    # at q = 1e-4 the single-factor test refuses factors that separable_build and tensor_pd take,
    # and each refusal is a failed check of the suite, not a traceback
    assert main(["verify", "--suite", "entangle", "--q", "1e-4"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("FAILED: ")


def test_verify_refuses_a_negative_seed_as_malformed_input(capsys):
    # numpy's generator refuses a negative seed with a traceback, which used to exit 1, the failed-suite code
    assert main(["verify", "--suite", "hopf", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --seed must be a non-negative integer, got -1\n"
    assert main(["verify", "--suite", "hopf", "--seed", "0"]) == 0


def test_demo_singlet(capsys):
    assert main(["demo-singlet", "--q", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "0.5·a ⊗ a*" in out
    assert "counit of the transform: 1" in out
    assert "0.5 != 1" in out  # the quarter-coefficient variant fails normalization
    assert "ENTANGLED" in out


GOLDEN = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


@pytest.mark.parametrize("q", ["0.1", "0.5", "1.0"])
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_demo_singlet_matches_the_recorded_output(capsys, q, fmt, suffix):
    assert main(["demo-singlet", "--q", q, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"demo_singlet_q{q}.{suffix}").read_bytes()


def test_demo_singlet_q1_notes_classical(capsys):
    assert main(["demo-singlet", "--q", "1.0"]) == 0
    assert "commutative" in capsys.readouterr().out


def test_demo_reconstruction_residual_at_q09(capsys):
    from qent.cli import singlet_demo_report

    report = singlet_demo_report(AlgebraParams(q=0.9))
    assert report["reconstruction_residual"] < 1e-8


def test_env_var_default_q(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QENT_DEFAULT_Q", "0.7")
    assert main(["demo-singlet", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 0.7
    monkeypatch.setenv("QENT_DEFAULT_Q", "zebra")
    assert main(["demo-singlet"]) == 2


def test_invalid_q_exits_2():
    assert main(["demo-singlet", "--q", "1.5"]) == 2


def test_ppt_over_q_from_the_smallest_float_to_1_exits_cleanly(capsys):
    """Below `corep.Q_MIN` the request is refused with exit 2; above it the verdict is given.

    Warnings are errors here, so an overflow or a singular solve would show.
    """
    werner = str(GOLDEN / "werner_0.6.json")
    grid = [5e-324, 1e-300, 1e-200, 1e-100, 1e-20, 1e-12, 1e-10, 1.3e-8, 0.999 * Q_MIN]
    grid += [float(q) for q in np.geomspace(Q_MIN, 1.0, 21)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in grid:
            code = main(["ppt", "--input", werner, "--q", repr(q), "--format", "json"])
            err = capsys.readouterr().err
            if q < Q_MIN:
                assert code == 2 and err.startswith("error: q = ") and "below" in err, q
            else:
                # entangled: NOT_POSITIVE_DEFINITE, or UNDECIDED_SUPPORT where tol prunes the support
                assert code in (1, 3) and err == "", q
    # the same as a console run with every warning an error
    for q, code in (("1e-100", 2), ("1e-12", 2), ("1e-7", 3), ("0.37", 1)):
        run = subprocess.run([sys.executable, "-W", "error", "-m", "qent.cli", "ppt", "--input", werner, "--q", q],
                             capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert run.returncode == code and "Traceback" not in run.stderr, (q, run.stderr)


def test_json_output_is_the_indented_json_module_text():
    from qent.cli import _json_text

    payloads = [
        {}, [], (), "", 0, -0.0, 1e300, 5e-324, float("nan"), float("inf"), -float("inf"), True, False, None,
        {"a": [], "b": {}, "c": [[]], "é\"\n": "ü\t\\", "n": [1, -2, 2 ** 70, 0.1, -0.0, np.float64(0.1)]},
        [{"x": (1.5, None)}, [True, [False, {"y": float("nan")}]], "z"],
        {"per_block": [{"label": "fund*fund", "min_eigenvalue": -0.2}], "witness": None},
    ]
    for payload in payloads:
        assert _json_text(payload) == json.dumps(payload, indent=2), payload


def test_element_files_fix_their_own_q(tmp_path, capsys):
    rho_path = write_singlet(tmp_path)
    el_path = tmp_path / "el.json"
    assert main(["transform", "--input", str(rho_path), "--output", str(el_path), "--q", "0.5"]) == 0
    capsys.readouterr()
    # without --q the file's q governs, whatever the environment default is
    assert main(["check-pd", "--input", str(el_path)]) == 0
    # a conflicting explicit --q is refused: the coefficients live at q = 0.5
    assert main(["check-pd", "--input", str(el_path), "--q", "0.7"]) == 2
    assert main(["haar", "--input", str(el_path), "--q", "0.7"]) == 2
    assert main(["ppt", "--input", str(el_path), "--q", "0.7"]) == 2
    # matching --q is fine
    assert main(["haar", "--input", str(el_path), "--q", "0.5"]) == 0


def test_transform_unknown_pair_exits_2(tmp_path, capsys):
    rho_path = write_singlet(tmp_path)
    for pair in ("bogus", "fund", "fund*spin1"):
        assert main(["transform", "--input", str(rho_path), "--pair", pair]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_non_finite_inputs_exit_2(tmp_path):
    nan_path = tmp_path / "nan.json"
    entries = [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]
    entries[6] = [float("nan"), 0.0]
    dump_json({"dims": [2, 2], "entries": entries}, nan_path)
    assert main(["transform", "--input", str(nan_path)]) == 2
    assert main(["ppt", "--input", str(nan_path)]) == 2

    rho_path = write_singlet(tmp_path)
    el_path = tmp_path / "el.json"
    assert main(["transform", "--input", str(rho_path), "--output", str(el_path)]) == 0
    assert main(["transform", "--input", str(rho_path), "--tol", "inf"]) == 2
    assert main(["check-pd", "--input", str(el_path), "--tol", "inf"]) == 2
    assert main(["haar", "--input", str(el_path), "--tol", "nan"]) == 2
    data = json.loads(el_path.read_text())
    data["terms"][0]["coeff"] = [float("inf"), 0.0]
    dump_json(data, el_path)
    assert main(["check-pd", "--input", str(el_path)]) == 2


def test_a_coefficient_whose_modulus_overflows_exits_2(tmp_path, capsys):
    # the file's one coefficient is finite, but abs() of it raises OverflowError
    path = Path(__file__).parent / "data" / "overflow_element.json"
    for command in ("check-pd", "ppt", "haar"):
        assert main([command, "--input", str(path)]) == 2, command
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err
    # |00><11| has coefficient 1/q in the transform, which takes this entry past the largest modulus
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 3] = complex(8e307, 8e307)
    rho[3, 0] = rho[0, 3].conjugate()
    rho_path = tmp_path / "rho.json"
    dump_json({"dims": [2, 2], "entries": [[z.real, z.imag] for z in rho.reshape(-1)]}, rho_path)
    for command in ("transform", "ppt"):
        assert main([command, "--input", str(rho_path)]) == 2, command
        assert "Traceback" not in capsys.readouterr().err


def _singlet_entries():
    return densityop_to_dict(singlet_state())["entries"]


@pytest.mark.parametrize("dims", [[2.7, 2], [2, 2.0], ["2", 2], [True, 2]])
def test_non_integer_dims_exit_2(tmp_path, capsys, dims):
    # int() used to truncate these, so [2.7, 2] ran as 2x2 and exited 0
    path = tmp_path / "rho.json"
    dump_json({"dims": dims, "entries": _singlet_entries()}, path)
    for command in ("ppt", "transform"):
        assert main([command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "must be an integer" in err and "Traceback" not in err


def _element_file(tmp_path, edit):
    params = AlgebraParams(q=0.5)
    U = product_catalog(params, ("fund*fund",))[0]
    from qent.fourier import forward

    data = multielement_to_dict(forward(singlet_state(), U))
    edit(data)
    path = tmp_path / "el.json"
    dump_json(data, path)
    return path


@pytest.mark.parametrize("field, value", [
    ("k", 1.9), ("k", "0"), ("k", True), ("m", 0.0), ("n", False), ("legs", 2.0), ("legs", "2"),
])
def test_non_integer_element_fields_exit_2(tmp_path, capsys, field, value):
    def edit(data):
        if field == "legs":
            data["legs"] = value
        else:
            data["terms"][0]["monomials"][0][field] = value

    path = _element_file(tmp_path, edit)
    for command in ("check-pd", "ppt", "haar"):
        assert main([command, "--input", str(path)]) == 2, command
        err = capsys.readouterr().err
        assert "must be an integer" in err and "Traceback" not in err
    if field != "legs":
        one_leg = element_to_dict(Element.generator(AlgebraParams(q=0.5), "c"))
        one_leg["terms"][0][field] = value
        dump_json(one_leg, path)
        assert main(["haar", "--input", str(path)]) == 2
        assert "must be an integer" in capsys.readouterr().err


def test_integer_element_fields_still_load(tmp_path, capsys):
    path = _element_file(tmp_path, lambda data: None)
    assert main(["check-pd", "--input", str(path)]) == 0
    assert main(["haar", "--input", str(path)]) == 0


def test_the_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    from qent.cli import build_parser

    monkeypatch.delenv("QENT_DEFAULT_Q", raising=False)
    assert build_parser() is build_parser()
    rho_path = write_singlet(tmp_path)
    runs = (["ppt", "--input", str(rho_path), "--q", "0.3", "--format", "json"],
            ["demo-singlet", "--format", "json"],
            ["ppt", "--input", str(rho_path), "--q", "0.9", "--format", "json"],
            ["demo-singlet", "--q", "0.7", "--format", "json"])

    def outputs(order):
        found = {}
        for i in order:
            assert main(runs[i]) in (0, 1)
            found[i] = json.loads(capsys.readouterr().out)
        return found

    forward_order, backward_order = outputs(range(4)), outputs(reversed(range(4)))
    assert forward_order == backward_order
    # no --q, no --input and no --format leaks from one call into the next
    assert forward_order[1]["q"] == 0.5 and forward_order[3]["q"] == 0.7
    at_03, at_09 = forward_order[0]["algebra_report"], forward_order[2]["algebra_report"]
    assert at_03["verdict"] == at_09["verdict"] == "NOT_POSITIVE_DEFINITE"
    assert at_03["per_block"] != at_09["per_block"]
    assert main(["verify", "--suite", "corep", "--q", "0.4"]) == 0
    assert "q=0.4" in capsys.readouterr().out


def test_a_catalog_that_names_a_pair_twice_exits_2(tmp_path, capsys):
    # before the refusal, I/4 over a catalog with fund*fund twice was UNDECIDED_SUPPORT (exit 3)
    data = Path(__file__).parent / "data"
    rho_path = tmp_path / "mixed.json"
    dump_json(densityop_to_dict(DensityOp((2, 2), np.eye(4) / 4.0)), rho_path)
    el_path = tmp_path / "el.json"
    dump_json(multielement_to_dict(product_catalog(AlgebraParams(), ("fund*fund",))[0].entries[0][0]),
              el_path)
    for catalog in ("triv*triv,triv*fund,fund*triv,fund*fund,fund*fund", "fund*fund,fund*fund"):
        for argv in (["ppt", "--input", str(rho_path)], ["ppt", "--input", str(data / "werner_0.2.json")],
                     ["check-pd", "--input", str(el_path)]):
            assert main(argv + ["--catalog", catalog]) == 2, argv
            err = capsys.readouterr().err
            assert "fund*fund twice" in err and "Traceback" not in err


def _malformed_payloads():
    """(name, payload) pairs that every command must refuse with exit 2."""
    params = AlgebraParams(q=0.5)
    rho = densityop_to_dict(singlet_state())
    two_leg = multielement_to_dict(MultiElement.unit(params, 2))
    one_leg = element_to_dict(Element.generator(params, "c"))

    def edited(base, edit):
        data = json.loads(json.dumps(base))
        edit(data)
        return data

    return [
        ("top-level list", [rho]),
        ("top-level number", 4),
        ("top-level string", "terms"),
        ("dims a string", edited(rho, lambda d: d.update(dims="22"))),
        ("negative dims", edited(rho, lambda d: d.update(dims=[-2, -2]))),
        ("three dims", edited(rho, lambda d: d.update(dims=[2, 2, 1]))),
        ("entries a dict", edited(rho, lambda d: d.update(entries={"a": [1.0, 0.0]}))),
        ("three-item entries", edited(rho, lambda d: d.update(entries=[[0.25, 0.0, 0.0]] * 16))),
        ("string entries", edited(rho, lambda d: d.update(entries=["10", "00", "00", "00"] * 4))),
        ("boolean entry", edited(rho, lambda d: d["entries"].__setitem__(0, [True, False]))),
        ("string q", edited(two_leg, lambda d: d.update(q="0.5"))),
        ("boolean tol", edited(two_leg, lambda d: d.update(tol=True))),
        ("string coeff", edited(two_leg, lambda d: d["terms"][0].update(coeff="10"))),
        ("boolean coeff", edited(one_leg, lambda d: d["terms"][0].update(coeff=[True, False]))),
        ("string q, one leg", edited(one_leg, lambda d: d.update(q="0.5"))),
        ("sector a list", edited(one_leg, lambda d: d["terms"][0].update(sector=["plain"]))),
        ("two-leg sector a list", edited(two_leg, lambda d: d["terms"][0]["monomials"][0].update(sector=["plain"]))),
        ("fewer monomials than legs", edited(two_leg, lambda d: d["terms"][0]["monomials"].pop())),
        ("one-leg MultiElement", edited(two_leg, lambda d: (d.update(legs=1), d["terms"][0]["monomials"].pop()))),
        ("zero legs", edited(two_leg, lambda d: d.update(legs=0, terms=[]))),
    ]


@pytest.mark.parametrize("command", ["transform", "check-pd", "ppt", "haar"])
def test_every_command_gives_malformed_payloads_exit_2(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    for name, payload in _malformed_payloads():
        dump_json(payload, path)
        assert main([command, "--input", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, name


@pytest.mark.parametrize("command", ["transform", "check-pd", "ppt", "haar"])
def test_unreadable_files_exit_2(tmp_path, capsys, command):
    paths = {"missing": tmp_path / "missing.json", "a directory": tmp_path, "not json": tmp_path / "bad.json",
             "not utf-8": tmp_path / "latin.json", "nested too deep": tmp_path / "deep.json"}
    paths["not json"].write_text("{not json")
    paths["not utf-8"].write_bytes(b'{"q": "\xe9"}')
    paths["nested too deep"].write_text("[" * 100_000 + "]" * 100_000)
    for name, path in paths.items():
        assert main([command, "--input", str(path)]) == 2, name
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: "), name


@pytest.mark.parametrize("command", ["check-pd", "haar"])
def test_element_commands_refuse_a_density_operator_file(command):
    # in a child with a time limit, so that a kind test which never returns fails instead of stalling the suite
    run = subprocess.run([sys.executable, "-m", "qent.cli", command, "--input", str(GOLDEN / "werner_0.6.json")],
                         capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 2 and run.stderr == f"error: {command} does not take a density operator\n"


def test_the_shipped_files_of_one_leg_and_of_string_numbers(capsys):
    # the CI lines on these files: a one-leg Element file is an element haar takes
    assert main(["haar", "--input", str(GOLDEN / "one_leg_element.json")]) == 0
    assert json.loads(capsys.readouterr().out)[0] == pytest.approx(0.4)
    # and numbers written as strings are refused, where they used to be read as numbers
    for command in ("ppt", "haar"):
        assert main([command, "--input", str(GOLDEN / "string_numbers.json")]) == 2
        assert "must be a number" in capsys.readouterr().err


def _check_pd_child(path):
    """`qent check-pd --format json` on a file, in a child with a time limit, so that a run which never ends fails."""
    return subprocess.run([sys.executable, "-m", "qent.cli", "check-pd", "--input", str(path), "--format", "json"],
                          capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})


def test_an_exponent_costs_no_time_in_proportion_to_its_size(tmp_path):
    # the CI line on this file: the Werner(0.6) transform with its first key's first leg c*^(10⁹)
    data = json.loads((GOLDEN / "huge_exponent.json").read_text())
    assert data["terms"][0]["monomials"][0] == {"sector": "plain", "k": 0, "m": 0, "n": 10**9}
    huge = _check_pd_child(GOLDEN / "huge_exponent.json")
    data["terms"][0]["monomials"][0]["n"] = 2
    (tmp_path / "small.json").write_text(json.dumps(data))
    small = _check_pd_child(tmp_path / "small.json")
    assert huge.returncode == small.returncode == 3 and huge.stdout == small.stdout
    # a key whose Haar pairing with a unit slot monomial is not zero, so its product is written out
    data["terms"].append({"monomials": [{"sector": "plain", "k": 0, "m": 10**6, "n": 10**6},
                                        {"sector": "plain", "k": 0, "m": 0, "n": 0}], "coeff": [0.1, 0.0]})
    (tmp_path / "power.json").write_text(json.dumps(data))
    assert _check_pd_child(tmp_path / "power.json").returncode == 3
