"""Every layer the benchmark traces still exists under its traced name.

`bench/spans.py` skips a target that no longer resolves, and its metrics
then read null.  This test fails instead when a traced function or method
is renamed, deleted or moved off the module or class it is traced on; a
method inherited from a base class still resolves.  `spans` is loaded from
its file without writing a bytecode cache next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


TARGETS = _load_spans().TARGETS


def test_the_targets_are_found():
    assert ("hopf", "MultiElement.adjoint") in {(layer, path) for layer, path, _ in TARGETS}


@pytest.mark.parametrize("layer, path", [(layer, path) for layer, path, _ in TARGETS],
                         ids=lambda value: value)
def test_every_traced_target_resolves_on_its_layer(layer, path):
    obj = importlib.import_module(f"qent.{layer}")
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
