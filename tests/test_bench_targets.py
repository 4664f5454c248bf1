"""Every layer the benchmark traces still exists under its traced name, and a traced run reads it.

`bench/spans.py` skips a target that no longer resolves, and its metrics
then read null.  This test fails instead when a traced function or method
is renamed, deleted or moved off the module or class it is traced on; a
method inherited from a base class still resolves.  It also fails when a
short traced run of a workload reports a null per-layer metric, in this
process and in a fresh one, which starts without any memo that earlier
tests filled, as the benchmark's own runs do.  `spans` and `workloads` are
loaded from their files, and the fresh run is made, without writing a
bytecode cache next to them.
"""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qent import corep

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


SPANS = _load("spans")
TARGETS = SPANS.TARGETS
WORKLOADS = _load("workloads").WORKLOADS


def test_the_targets_are_found():
    assert ("hopf", "MultiElement.adjoint") in {(layer, path) for layer, path, _ in TARGETS}


@pytest.mark.parametrize("layer, path", [(layer, path) for layer, path, _ in TARGETS],
                         ids=lambda value: value)
def test_every_traced_target_resolves_on_its_layer(layer, path):
    obj = importlib.import_module(f"qent.{layer}")
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_traced_run_reports_no_null_metric(name, tmp_path):
    # a traced run starts in a fresh process, whose engines compile their catalogs afresh
    corep.engine.cache_clear()
    workload = WORKLOADS[name]()
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        workload.setup(7, str(tmp_path))
        for i in (1, 2):
            workload.prepare(i)
            tracer.request_id = i
            workload.request(i)
    finally:
        tracer.restore()
    # the caller fills the overhead ratio from the untraced half of the run
    nulls = [metric for metric, value in tracer.metrics().items() if value is None]
    assert nulls == ["trace.overhead_ratio"]


def _not_a_number(constant):
    raise ValueError(f"{constant} is not a JSON number")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_fresh_process_traced_run_prints_a_well_formed_result(name):
    run = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
                          "--seconds", "0.2", "--trace", "1"], capture_output=True, text=True, timeout=120,
                         cwd=BENCH.parent, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert run.returncode == 0, run.stderr
    info, result = (json.loads(line, parse_constant=_not_a_number) for line in run.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # a number, never a bool or a null
    bad = {metric: entry["value"] for metric, entry in result["metrics"].items()
           if type(entry["value"]) not in (int, float) or not math.isfinite(entry["value"])}
    assert bad == {}
    assert [prediction for prediction in info["info"]["predictions"].values() if not prediction["held"]] == []
