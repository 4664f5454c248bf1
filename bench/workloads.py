"""The benchmark's workloads: input generation, the timed request, and the oracle.

Every workload drives qent only through its public API, looked up on the
`qent` modules at call time so the traced run sees the calls. Inputs come
from `numpy.random.default_rng((seed, i))`, so request i of a seed is the
same state on every run and every commit. The oracle runs outside the timed
region and never trusts qent for the expected verdict: that comes from
numpy's eigenvalues of the partial transpose.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import qent
import qent.cli
import qent.serialize
import qent.verify

# a partial-transpose eigenvalue at or above -PSD_TOL counts as non-negative
PSD_TOL = 1e-9
STREAM_Q = 0.5
VERIFY_Q = 0.3
SWEEP_Q_RANGE = (0.2, 1.0)
CLI_EXIT_OK = 0        # documented `qent ppt` exit codes for a density operator
CLI_EXIT_NEGATIVE = 1

KINDS = ("hilbert-schmidt", "werner", "singlet", "product")
_KIND_WEIGHTS = (0.80, 0.10, 0.05, 0.05)


# -- inputs ------------------------------------------------------------------------

def make_state(seed: int, i: int):
    """(kind, 4x4 density matrix, rng) for request i; the rng continues the stream."""
    rng = np.random.default_rng((seed, i))
    kind = KINDS[int(rng.choice(len(KINDS), p=_KIND_WEIGHTS))]
    if kind == "hilbert-schmidt":
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
    elif kind in ("werner", "singlet"):
        p = float(rng.uniform(0.0, 1.0)) if kind == "werner" else 1.0
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        rho = (1.0 - p) * np.eye(4) / 4.0 + p * np.outer(psi, psi)
    else:
        rho = np.zeros((4, 4))
        j = int(rng.integers(4))
        rho[j, j] = 1.0
    return kind, np.asarray(rho, dtype=complex), rng


def expected_ppt(rho) -> bool:
    """True when the partial transpose on the second factor is PSD (Peres)."""
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return bool(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0).min() >= -PSD_TOL)


def _witness_is_negative(x, witness) -> bool:
    """The witness certifies failure of the transposed element x."""
    transposed = qent.partial_theta(x)
    return witness is not None and qent.pd_witness_value(transposed, witness).real < 0.0


class Tally:
    """Oracle outcome and input properties over every request of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.npt = 0
        self.terms = []
        self.qs = set()
        self.kinds = {}

    def add(self, ok: bool):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def properties(self) -> dict:
        states = sum(self.kinds.values())
        return {
            "npt_share": self.npt / states if states else None,
            "forward_terms_mean": float(np.mean(self.terms)) if self.terms else None,
            "forward_terms_max": max(self.terms) if self.terms else None,
            "distinct_q": len(self.qs),
            "kinds": self.kinds,
        }


# -- workloads ---------------------------------------------------------------------

class VerifyAll:
    """`qent verify --suite all` at q = 0.3: one run_suite("all") per request."""

    name = "verify-all"
    rss_after = 1  # requests before peak RSS is read

    def setup(self, seed, workdir):
        self.seed = seed
        self.params = qent.AlgebraParams(q=VERIFY_Q)

    def prepare(self, i):
        pass

    def request(self, i):
        return qent.verify.run_suite("all", self.params, self.seed + i)

    def check(self, i, outcome, tally):
        tally.qs.add(VERIFY_Q)
        if isinstance(outcome, Exception):
            tally.add(False)
            return
        for check in outcome:
            tally.add(check.passed)


class PPTStream:
    """Warm path: forward, is_positive_definite, ppt_check, ppt_matrix at q = 0.5."""

    name = "ppt-stream"
    rss_after = 500

    def setup(self, seed, workdir):
        self.seed = seed
        self.params = qent.AlgebraParams(q=STREAM_Q)
        self.catalog = qent.product_catalog(self.params)
        self.fund_fund = next(U for U in self.catalog if U.label == "fund*fund")
        self.pending = None

    def prepare(self, i):
        self.pending = qent.DensityOp((2, 2), make_state(self.seed, i)[1])

    def request(self, i):
        rho = self.pending
        x = qent.forward(rho, self.fund_fund)
        pd = qent.is_positive_definite(x, self.catalog)
        ppt = qent.ppt_check(x, self.catalog)
        matrix = qent.ppt_matrix(rho)
        return pd.verdict, ppt.verdict, ppt.witness, matrix.psd

    def check(self, i, outcome, tally):
        kind, rho, _ = make_state(self.seed, i)
        tally.qs.add(STREAM_Q)
        tally.kinds[kind] = tally.kinds.get(kind, 0) + 1
        psd = expected_ppt(rho)
        tally.npt += not psd
        x = qent.forward(qent.DensityOp((2, 2), rho), self.fund_fund)
        tally.terms.append(len(x.terms))
        if isinstance(outcome, Exception):
            tally.add(False)
            return
        pd_verdict, ppt_verdict, witness, matrix_psd = outcome
        ok = (pd_verdict == qent.POSITIVE_DEFINITE
              and (ppt_verdict == qent.POSITIVE_DEFINITE) == psd
              and matrix_psd == psd)
        if ok and not psd:
            ok = _witness_is_negative(x, witness)
        tally.add(ok)


class QSweep:
    """One in-process `qent ppt --input FILE --q Q --format json` per request, fresh q each."""

    name = "q-sweep"
    rss_after = 500

    def setup(self, seed, workdir):
        self.seed = seed
        self.path = os.path.join(workdir, "state.json")
        self.argv = None

    def _input(self, i):
        kind, rho, rng = make_state(self.seed, i)
        q = float(rng.uniform(*SWEEP_Q_RANGE))
        return kind, rho, q

    def prepare(self, i):
        _, rho, q = self._input(i)
        entries = [[z.real, z.imag] for z in rho.reshape(-1)]
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"dims": [2, 2], "entries": entries}, fh)
        self.argv = ["ppt", "--input", self.path, "--q", repr(q), "--format", "json"]

    def request(self, i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qent.cli.main(self.argv)
        return code, out.getvalue()

    def check(self, i, outcome, tally):
        kind, rho, q = self._input(i)
        tally.qs.add(q)
        tally.kinds[kind] = tally.kinds.get(kind, 0) + 1
        psd = expected_ppt(rho)
        tally.npt += not psd
        params = qent.AlgebraParams(q=q)
        U = qent.product_catalog(params, ("fund*fund",))[0]
        x = qent.forward(qent.DensityOp((2, 2), rho), U)
        tally.terms.append(len(x.terms))
        if isinstance(outcome, Exception):
            tally.add(False)
            return
        code, stdout = outcome
        try:
            report = json.loads(stdout)
        except ValueError:
            tally.add(False)
            return
        algebra = report.get("algebra_report") or {}
        ok = (code == (CLI_EXIT_OK if psd else CLI_EXIT_NEGATIVE)
              and report.get("matrix_ppt") == psd
              and (algebra.get("verdict") == qent.POSITIVE_DEFINITE) == psd
              and report.get("agreement") is True)
        if ok and not psd:
            data = algebra.get("witness")
            witness = qent.serialize.multielement_from_dict(data) if data else None
            ok = _witness_is_negative(x, witness)
        tally.add(ok)


WORKLOADS = {w.name: w for w in (VerifyAll, PPTStream, QSweep)}
