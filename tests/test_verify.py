"""The verify suite pinned to a recorded run.

`data/verify_q0.3.json` is `qent verify --suite all --q 0.3 --format json`
without `elapsed_seconds`, recorded before the block test took stacks of
states.  The suites draw their random numbers in a fixed order and count
their misses exactly, so names, bounds and verdicts must match exactly;
residuals are floating-point maxima and may move in their last bits on
another numpy build.
"""

import json
from pathlib import Path

from qent.algebra import AlgebraParams
from qent.verify import run_suite

RECORDED = Path(__file__).parent / "data" / "verify_q0.3.json"


def test_run_suite_all_matches_the_recorded_run():
    recorded = json.loads(RECORDED.read_text())
    assert (recorded["suite"], recorded["q"]) == ("all", 0.3)
    checks = run_suite("all", AlgebraParams(q=0.3))
    assert [(c.name, c.bound, c.passed) for c in checks] == [
        (c["name"], c["bound"], c["passed"]) for c in recorded["checks"]]
    for check, expect in zip(checks, recorded["checks"]):
        assert abs(check.residual - expect["residual"]) <= 1e-12, check.name
