"""Every layer the benchmark traces still exists under its traced name, and a traced run reads it.

`bench/spans.py` skips a target that no longer resolves, and its metrics
then read null.  This test fails instead when a traced function or method
is renamed, deleted or moved off the module or class it is traced on; a
method inherited from a base class still resolves.  It also fails when a
short traced run of a workload reports a null per-layer metric.  `spans`
and `workloads` are loaded from their files without writing a bytecode
cache next to them.
"""

import importlib
import importlib.util
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
