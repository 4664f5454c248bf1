"""qent benchmark: one workload per process, timed with tracing off, every answer checked.

    python3 bench/run.py --workload {verify-all,ppt-stream,q-sweep} --seed N --seconds S --trace {0,1}

Run from the repository root; qent is imported from ./src. The last line of
stdout is the result object (correct, attempted, failed, metrics); the line
before it is an info object with input properties, environment and, for a
traced run, the exact-count predictions. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones of bench/spans.py.
See bench/README.md for why each workload exists.
"""

import time

T0 = time.perf_counter()  # set-up time is measured from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_qent():
    """Import qent from this checkout's src/, never from an installed copy."""
    package = SRC / "qent"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: qent sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import qent

    if Path(qent.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported qent from {qent.__file__}, expected {package}")
    return qent


# -- measurement ---------------------------------------------------------------------

def _loop(workload, first, seconds, min_requests, latencies, outcomes, tracer=None):
    """Closed loop, one client: next request only after the previous one ends.

    Returns the index of the next request and ru_maxrss (KiB) read right after
    request number `min_requests` of this loop.
    """
    clock = time.perf_counter
    i, rss_kib = first, None
    start = clock()
    while clock() - start < seconds or i - first < min_requests:
        workload.prepare(i)
        if tracer is not None:
            tracer.request_id = i
        t = clock()
        try:
            outcome = workload.request(i)
        except Exception as exc:  # a raising request is a failed request
            traceback.print_exc()
            outcome = exc
        latencies.append(clock() - t)
        outcomes.append((i, outcome))
        i += 1
        if i - first == min_requests:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return i, rss_kib


def _check_all(workload, outcomes, tally):
    for i, outcome in outcomes:
        try:
            workload.check(i, outcome, tally)
        except Exception:  # an answer the oracle cannot read is a wrong answer
            traceback.print_exc()
            tally.add(False)


def _setup_samples(workload_name, seed):
    """Set-up time of fresh processes: import, catalog build, inputs, up to the first request."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _latency_metrics(latencies):
    ordered = sorted(latencies)
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[8] if len(ordered) > 1 else ordered[0]
    return {
        "requests_per_s": len(ordered) / sum(ordered),
        "latency_p90_ms": 1000.0 * p90,
    }


def _predictions(workload_name, per_layer, traced_requests):
    """Exact call counts the layer table predicts for the stream workloads."""
    if workload_name == "ppt-stream":
        catalogs = 1  # built once, in set-up
    elif workload_name == "q-sweep":
        catalogs = 2 * traced_requests  # `qent ppt` builds the catalog and, apart, its fund*fund block
    else:
        return {}
    expected = {
        "entangle.pd_witness_value.calls": 0,
        "hopf.product_coproduct.calls": 0,
        "corep.product_catalog.calls": catalogs,
    }
    return {name: {"expected": value, "observed": per_layer.get(name),
                   "held": per_layer.get(name) == value}
            for name, value in expected.items()}


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload_name, seed, seconds, trace):
    """Run one workload; returns (info, result) as plain dicts."""
    qent = import_qent()
    import numpy as np

    from spans import Tracer, metric_units
    from workloads import Tally, WORKLOADS

    setup_samples = [] if trace else _setup_samples(workload_name, seed)
    workload = WORKLOADS[workload_name]()
    tally = Tally()
    latencies, outcomes = [], []
    predictions = {}
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            if trace:
                tracer = Tracer()
                try:
                    tracer.install()
                    workload.setup(seed, workdir)
                    nxt, _ = _loop(workload, 1, seconds / 2.0, 1, latencies, outcomes, tracer)
                finally:
                    tracer.restore()
                traced = len(latencies)
                _loop(workload, nxt, seconds / 2.0, 1, latencies, outcomes)
                metrics = tracer.metrics()
                metrics["trace.overhead_ratio"] = (
                    statistics.fmean(latencies[:traced]) / statistics.fmean(latencies[traced:]))
                units = metric_units()
                predictions = _predictions(workload_name, metrics, traced)
            else:
                workload.setup(seed, workdir)
                _, rss_kib = _loop(workload, 1, seconds, workload.rss_after, latencies, outcomes)
                metrics = {"setup_s": statistics.median(setup_samples), **_latency_metrics(latencies),
                           "peak_rss_mb": rss_kib / 1024.0}
                units = END_TO_END_UNITS
            _check_all(workload, outcomes, tally)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it

    info = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "requests": len(latencies),
        "failed_ratio": tally.failed / tally.attempted if tally.attempted else None,
        "inputs": tally.properties(),
        "setup_samples_s": setup_samples,
        "predictions": predictions,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "qent": qent.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(),
        },
    }
    result = {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return info, result


def setup_only(workload_name, seed):
    import_qent()
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        WORKLOADS[workload_name]().setup(seed, workdir)
        elapsed = time.perf_counter() - T0
    return {"setup_s": elapsed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify-all", "ppt-stream", "q-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed)))
        return 0
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
