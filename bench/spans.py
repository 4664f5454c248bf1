"""Per-layer tracing for the benchmark, done entirely from outside qent.

`Tracer.install()` rebinds every listed qent function to a timing wrapper
wherever a `qent.*` module holds it: module globals (so `from .x import f`
callers are covered) and module-level dicts (such as the verify suite
table). Methods are patched on their class. `restore()` puts every original
back. A listed name that no longer exists is skipped and its metrics read
null, so refactors that delete or merge functions do not break the run.

Spans are kept in memory as (name, start, end, parent index, request id).
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time


def _term_pairs(args, result) -> int:
    x, y = args[0], args[1]
    if type(y) is type(x):
        return len(x.terms) * len(y.terms)
    return 0  # scalar multiplication


def _terms_out(args, result) -> int:
    return len(result.terms)


_TERM_PAIRS = ("term_pairs", _term_pairs)
_TERMS_OUT = ("terms_out", _terms_out)

# (layer module, attribute path, extra counter and how to count it from (args, result))
TARGETS = (
    ("algebra", "Element.__mul__", _TERM_PAIRS),
    ("hopf", "MultiElement.__mul__", _TERM_PAIRS),
    ("hopf", "MultiElement.adjoint", None),
    ("hopf", "partial_theta", None),
    ("hopf", "product_coproduct", _TERMS_OUT),
    ("haar", "haar", None),
    ("corep", "product_catalog", None),
    ("corep", "compute_F", None),
    ("fourier", "forward", _TERMS_OUT),
    ("fourier", "inverse", None),
    ("fourier", "reconstruct", None),
    ("fourier", "support_residual", None),
    ("entangle", "is_positive_definite", None),
    ("entangle", "ppt_check", None),
    ("entangle", "find_negative_witness", None),
    ("entangle", "pd_witness_value", None),
    ("entangle", "ppt_matrix", None),
    ("entangle", "separable_build", None),
    ("entangle", "is_positive_definite_single", None),
    ("verify", "hopf_suite", None),
    ("verify", "haar_suite", None),
    ("verify", "corep_suite", None),
    ("verify", "fourier_suite", None),
    ("verify", "entangle_suite", None),
    ("serialize", "load_json", None),
    ("serialize", "parse_payload", None),
    ("serialize", "pdreport_to_dict", None),
    ("cli", "main", None),
)

INVERSE_BLOCKS = ("triv-triv", "triv-fund", "fund-triv", "fund-fund")


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer, path, extra in TARGETS:
        name = f"{layer}.{path}"
        if layer == "verify":
            units[f"{name}.total_s"] = "s"
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if extra is not None:
            units[f"{name}.{extra[0]}"] = "count"
    for block in INVERSE_BLOCKS:
        units[f"fourier.inverse.{block}.self_s"] = "s"
    units["algebra.mono_mul.hit_ratio"] = "ratio"
    units["algebra.mono_mul.entries"] = "count"
    units["hopf.coproduct_cache.entries"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _resolve(root, path):
    obj = root
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _qent_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qent" or name.startswith("qent."))]


class Tracer:
    def __init__(self):
        self.spans = []           # (name, start, end, parent index, request id)
        self.counters = {}        # "layer.path.extra" -> total
        self.request_id = 0       # 0 is set-up; requests count from 1
        self.present = set()      # "layer.path" of every target that was found
        self._stack = []
        self._undo = []           # callables that put an original back
        self._mono_mul_before = None

    # -- install / restore ------------------------------------------------------

    def install(self):
        modules = _qent_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for layer, path, extra in TARGETS:
            home = by_name.get(f"qent.{layer}")
            try:
                original = _resolve(home, path)
            except AttributeError:
                continue  # gone after a refactor: its metrics read null
            name = f"{layer}.{path}"
            self.present.add(name)
            wrapper = self._wrap(name, original, extra)
            if "." in path:
                owner_path, attr = path.rsplit(".", 1)
                self._patch_class(_resolve(home, owner_path), attr, original, wrapper)
            else:
                self._patch_everywhere(modules, original, wrapper)
        self._mono_mul_before = self._mono_mul_info()

    def restore(self):
        while self._undo:
            self._undo.pop()()

    def _patch_class(self, cls, attr, original, wrapper):
        owned = attr in cls.__dict__
        setattr(cls, attr, wrapper)
        if owned:
            self._undo.append(lambda: setattr(cls, attr, original))
        else:
            self._undo.append(lambda: delattr(cls, attr))

    def _patch_everywhere(self, modules, original, wrapper):
        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(functools.partial(setattr, mod, key, original))
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._undo.append(functools.partial(value.__setitem__, k, original))

    def _wrap(self, name, fn, extra):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        block_of = _inverse_block if name == "fourier.inverse" else None
        counter_name = f"{name}.{extra[0]}" if extra else None
        count = extra[1] if extra else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = f"{name}.{block_of(args)}" if block_of else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, self.request_id)
            if count is not None:
                counters[counter_name] = counters.get(counter_name, 0) + count(args, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------------

    @staticmethod
    def _mono_mul_info():
        algebra = sys.modules.get("qent.algebra")
        cached = getattr(algebra, "_mono_mul", None)
        info = getattr(cached, "cache_info", None)
        return info() if info is not None else None

    def metrics(self) -> dict:
        """Per-layer values; call after restore(). overhead_ratio is filled by the caller."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s, total_s = {}, {}, {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            total_s[name] = total_s.get(name, 0.0) + (end - start)
        for block in INVERSE_BLOCKS:
            key = f"fourier.inverse.{block}"
            for table in (calls, self_s):
                table["fourier.inverse"] = table.get("fourier.inverse", 0) + table.get(key, 0)

        out = {}
        for metric in metric_units():
            parts = metric.split(".")
            base, leaf = ".".join(parts[:-1]), parts[-1]
            target = base
            if base.startswith("fourier.inverse."):
                target = "fourier.inverse"
            if target not in self.present:
                out[metric] = None
            elif leaf == "calls":
                out[metric] = calls.get(base, 0)
            elif leaf == "self_s":
                out[metric] = self_s.get(base, 0.0)
            elif leaf == "total_s":
                out[metric] = total_s.get(base, 0.0)
            else:
                out[metric] = self.counters.get(metric, 0)
        out.update(self._cache_metrics())
        return out

    def _cache_metrics(self) -> dict:
        out = {"algebra.mono_mul.hit_ratio": None, "algebra.mono_mul.entries": None,
               "hopf.coproduct_cache.entries": None, "trace.overhead_ratio": None}
        after = self._mono_mul_info()
        if after is not None and self._mono_mul_before is not None:
            hits = after.hits - self._mono_mul_before.hits
            lookups = hits + after.misses - self._mono_mul_before.misses
            out["algebra.mono_mul.hit_ratio"] = hits / lookups if lookups else None
            out["algebra.mono_mul.entries"] = after.currsize
        cache = getattr(sys.modules.get("qent.hopf"), "_COPRODUCT_CACHE", None)
        if cache is not None:
            out["hopf.coproduct_cache.entries"] = len(cache)
        return out


def _inverse_block(args) -> str:
    label = getattr(args[1], "label", None) if len(args) > 1 else None
    return str(label).replace("*", "-")
