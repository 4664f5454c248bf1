"""Command-line front end.

Commands:

    qent transform     density-operator file -> element file (+ counit check)
    qent check-pd      element file -> positive-definiteness report
    qent ppt           density-operator or element file -> PPT reports
    qent haar          element file -> Haar value
    qent verify        run a property suite at the configured q
    qent demo-singlet  end-to-end walk-through on the singlet state

Exit codes: 0 success / positive verdict, 1 negative verdict or failed
suite, 2 malformed input or unsupported dimensions, 3 undecided support.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from .algebra import AlgebraParams
from .corep import DEFAULT_PAIRS, engine, product_catalog
from .entangle import (
    ENTANGLED,
    NOT_POSITIVE_DEFINITE,
    POSITIVE_DEFINITE,
    SEPARABLE,
    UNDECIDED_SUPPORT,
    is_positive_definite,
    ppt_check,
    ppt_matrix,
)
from .fourier import (
    DensityOp,
    catalog_map,
    forward,
    normalization_check,
    reconstruct,
    singlet_state,
)
from .haar import haar
from .hopf import MultiElement, product_counit
from .serialize import (
    _json_text,
    complex_pair,
    dump_json,
    load_json,
    multielement_to_dict,
    parse_payload,
    pdreport_to_dict,
)
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BAD_INPUT = 2
EXIT_UNDECIDED = 3

_VERDICT_EXIT = {
    POSITIVE_DEFINITE: EXIT_OK,
    NOT_POSITIVE_DEFINITE: EXIT_NEGATIVE,
    UNDECIDED_SUPPORT: EXIT_UNDECIDED,
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def _default_q() -> float:
    env = os.environ.get("QENT_DEFAULT_Q")
    if env is None:
        return 0.5
    try:
        return float(env)
    except ValueError:
        raise CliError(f"QENT_DEFAULT_Q is not a number: {env!r}")


def _params(args) -> AlgebraParams:
    q = args.q if args.q is not None else _default_q()
    try:
        return engine(AlgebraParams(q=q, tol=args.tol)).params  # the engine refuses q < corep.Q_MIN
    except ValueError as exc:
        raise CliError(str(exc))


def _catalog(args, params):
    pairs = tuple(p.strip() for p in args.catalog.split(",")) if args.catalog else DEFAULT_PAIRS
    try:
        return product_catalog(params, pairs)
    except ValueError as exc:
        raise CliError(str(exc))


def _read(args, accepts):
    """The input file's value, if its kind is in `accepts`: DensityOp, or an element's leg count.

    `accepts` None takes an element of any leg count.  Any failure to read
    or parse the file, and a refused kind, is malformed input.  An element
    keeps its file's q (a differing --q is refused) and is re-keyed at --tol.
    """
    try:
        value = parse_payload(load_json(args.input))
    except (OSError, RecursionError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {args.input}: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed input file: {exc}")
    if isinstance(value, DensityOp):
        if accepts is None or DensityOp not in accepts:
            raise CliError(f"{args.command} does not take a density operator")
        return value
    if accepts is not None and value.legs not in accepts:
        raise CliError(f"{args.command} does not take {value.kind}")
    stored = value.params
    if args.q is not None and args.q != stored.q:
        raise CliError(
            f"--q {args.q} conflicts with the element file's q = {stored.q}; "
            "element coefficients are only meaningful in their own algebra"
        )
    try:
        params = AlgebraParams(q=stored.q, tol=args.tol)
    except ValueError as exc:
        raise CliError(str(exc))
    return value._trusted(params, value.legs, value.terms)


def _pair(params, dims, label=None):
    """The product corep named `label`, by default the pair of shipped coreps of the factor dims `dims`."""
    names = {1: "triv", 2: "fund"}
    if not label:
        if not all(d in names for d in dims):
            raise CliError(f"unsupported dims {dims}: the catalog covers factors of dimension 1 and 2")
        label = "*".join(names[d] for d in dims)
    try:
        U = product_catalog(params, (label,))[0]
    except ValueError as exc:
        raise CliError(str(exc))
    if U.dims != dims:
        raise CliError(f"corep pair {label} has dims {U.dims}, input has {dims}")
    return U


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        print(_json_text(payload))
    else:
        for line in text_lines:
            print(line)


# -- commands --------------------------------------------------------------------

def cmd_transform(args) -> int:
    params = _params(args)
    rho = _read(args, (DensityOp,))
    U = _pair(params, rho.dims, args.pair)
    element = _forward(rho, U)
    eps = normalization_check(element)
    trace = rho.trace()
    if args.output:
        dump_json(multielement_to_dict(element), args.output)
    payload = {
        "pair": U.label,
        "terms": len(element.terms),
        "counit": complex_pair(eps),
        "trace": complex_pair(trace),
        "output": args.output,
    }
    _emit(args, payload, [
        f"transformed over {U.label}: {len(element.terms)} terms",
        f"counit check: {eps:.12g} (trace {trace:.12g})",
        *( [f"wrote {args.output}"] if args.output else [str(element)] ),
    ])
    return EXIT_OK


def _forward(rho, U) -> MultiElement:
    """forward(rho, U); a transform coefficient whose modulus overflows is malformed input."""
    try:
        return forward(rho, U)
    except ValueError as exc:
        raise CliError(f"cannot transform the operator: {exc}")


def cmd_check_pd(args) -> int:
    element = _read(args, (2,))
    report = is_positive_definite(element, _catalog(args, element.params))
    payload = pdreport_to_dict(report)
    if args.output:
        dump_json(payload, args.output)
    blocks = ", ".join(f"{label}: {value:.3e}" for label, value in report.per_block.items())
    _emit(args, payload, [
        f"verdict: {report.verdict}",
        f"block minima: {blocks}",
        f"support residual: {report.support_residual:.3e}",
    ])
    return _VERDICT_EXIT[report.verdict]


def cmd_ppt(args) -> int:
    value = _read(args, (DensityOp, 2))
    if isinstance(value, DensityOp):
        params = _params(args)
        catalog = _catalog(args, params)
        catalog_map(catalog)  # one fill compiles every block, the one `forward` reads among them
        U = _pair(params, value.dims)
        try:
            matrix_report = ppt_matrix(value)
        except ValueError as exc:
            raise CliError(str(exc))
        algebra_report = ppt_check(_forward(value, U), catalog)
        # an undecided algebra side agrees with no matrix verdict
        agreement = (algebra_report.verdict != UNDECIDED_SUPPORT
                     and matrix_report.psd == (algebra_report.verdict == POSITIVE_DEFINITE))
        payload = {
            "matrix_ppt": matrix_report.psd,
            "pt_eigenvalues": list(matrix_report.eigenvalues),
            "algebra_report": pdreport_to_dict(algebra_report),
            "agreement": agreement,
        }
        _emit(args, payload, [
            f"matrix side: partial transpose {'PSD' if matrix_report.psd else 'not PSD'} "
            f"(eigenvalues {', '.join(f'{v:.6g}' for v in matrix_report.eigenvalues)})",
            f"algebra side: {algebra_report.verdict}",
            f"agreement: {agreement}",
        ])
        if algebra_report.verdict == UNDECIDED_SUPPORT:
            return EXIT_UNDECIDED
        return EXIT_OK if matrix_report.psd else EXIT_NEGATIVE

    report = ppt_check(value, _catalog(args, value.params))
    payload = {"algebra_report": pdreport_to_dict(report)}
    _emit(args, payload, [f"algebra side: {report.verdict}"])
    return _VERDICT_EXIT[report.verdict]


def cmd_haar(args) -> int:
    result = haar(_read(args, None))
    _emit(args, {"haar": complex_pair(result)}, [f"[{result.real:.12g}, {result.imag:.12g}]"])
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _params(args)
    if args.seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
    started = time.perf_counter()
    checks = run_suite(args.suite, params, seed=args.seed)
    elapsed = time.perf_counter() - started
    payload = {
        "suite": args.suite,
        "q": params.q,
        "elapsed_seconds": elapsed,
        "checks": [
            {"name": c.name, "residual": c.residual, "bound": c.bound, "passed": c.passed}
            for c in checks
        ],
    }
    failed = [c for c in checks if not c.passed]
    lines = [c.line() for c in checks]
    lines.append(
        f"{'OK' if not failed else 'FAILED'}: {len(checks) - len(failed)}/{len(checks)} checks "
        f"passed in {elapsed:.1f}s at q={params.q}"
    )
    _emit(args, payload, lines)
    return EXIT_OK if not failed else EXIT_NEGATIVE


def cmd_demo_singlet(args) -> int:
    params = _params(args)
    report = singlet_demo_report(params)
    _emit(args, report, [
        f"singlet walk-through at q = {params.q}",
        "state: projector onto (|01> - |10>)/sqrt(2) on a 2x2 carrier space",
        f"transform over fund*fund: {report['element']}",
        f"  counit of the transform: {report['counit']:.12g} (trace of the state: 1)",
        "  a quarter-coefficient variant of the same element fails the counit "
        f"check: {report['quarter_counit']:.12g} != 1, so the half coefficients are the "
        "normalized ones",
        f"reconstruction residual: {report['reconstruction_residual']:.3e}",
        "matrix PPT: partial transpose eigenvalues "
        + ", ".join(f"{v:.6g}" for v in report["pt_eigenvalues"])
        + f" -> {'PSD' if report['matrix_ppt'] else 'not PSD'}",
        f"algebra PPT: {report['algebra_verdict']}",
        f"verdict: the singlet is {report['separability']}",
        *(["note: at q = 1 the algebra is commutative and this is the classical group case"]
          if params.q == 1.0 else []),
    ])
    return EXIT_OK


def singlet_demo_report(params: AlgebraParams) -> dict:
    """All numbers behind the demo, as plain data (used by the CLI and tests)."""
    rho = singlet_state()
    U = product_catalog(params, ("fund*fund",))[0]
    catalog = product_catalog(params)
    element = forward(rho, U)
    eps = product_counit(element)
    quarter = element * 0.5  # the 1/4-coefficient variant of the same four terms
    recon = reconstruct(element, U)
    residual = float(np.max(np.abs(recon - rho.matrix)))
    matrix_report = ppt_matrix(rho)
    algebra_report = ppt_check(element, catalog)
    return {
        "q": params.q,
        "element": str(element),
        "element_terms": multielement_to_dict(element),
        "counit": eps.real,
        "quarter_counit": product_counit(quarter).real,
        "reconstruction_residual": residual,
        "pt_eigenvalues": list(matrix_report.eigenvalues),
        "matrix_ppt": matrix_report.psd,
        "algebra_verdict": algebra_report.verdict,
        "separability": ENTANGLED if not matrix_report.psd else SEPARABLE,
    }


# -- parser ------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qent` argument parser, built once per process.

    Building it costs about as much as a small `qent ppt` request, and
    `parse_args` keeps no state between calls, so `main` reuses it.
    """
    parser = argparse.ArgumentParser(
        prog="qent",
        description="Symbolic quantum-SU(2) engine: transforms, positivity and PPT checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=float, default=None,
                        help="deformation parameter in (0, 1] (default: QENT_DEFAULT_Q or 0.5)")
    common.add_argument("--tol", type=float, default=1e-9, help="comparison tolerance")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="stdout format")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", parents=[common],
                       help="Fourier-transform a density-operator file")
    p.add_argument("--input", required=True, help="density-operator JSON file")
    p.add_argument("--output", help="where to write the element JSON")
    p.add_argument("--pair", help="corep pair label such as fund*fund (default: by dims)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("check-pd", parents=[common],
                       help="positive-definiteness report for an element file")
    p.add_argument("--input", required=True, help="two-leg element JSON file")
    p.add_argument("--output", help="where to write the report JSON")
    p.add_argument("--catalog", help="comma-separated corep pairs (default: all four)")
    p.set_defaults(func=cmd_check_pd)

    p = sub.add_parser("ppt", parents=[common],
                       help="partial-transposition test, matrix and algebra side")
    p.add_argument("--input", required=True, help="density-operator or element JSON file")
    p.add_argument("--catalog", help="comma-separated corep pairs (default: all four)")
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("haar", parents=[common], help="Haar value of an element file")
    p.add_argument("--input", required=True, help="element JSON file")
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("verify", parents=[common], help="run a property suite")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo-singlet", parents=[common],
                       help="transform, check and reconstruct the singlet state")
    p.set_defaults(func=cmd_demo_singlet)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
