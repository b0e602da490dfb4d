"""cimfem benchmark: closed-loop workloads through the public entry points.

Run from the repository root, for example:

    python3 perfbench/run.py --workload time-1d --seed 1 --seconds 20 --trace 0

One client in one process sends one request at a time (closed loop) on one
BLAS thread.  Every output is checked.
Standard output carries one line per request (its time and checked error),
the run record, a summary, and as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
same record, with every request, is written to ``.bench_out/``; a traced run
also writes its spans there.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: the requests solve small systems, and on a 2-vCPU shared VM
# a second thread made them 10-15% slower and noisier.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The tail is the highest percentile with at least ten samples beyond it, so a
# run always completes at least eleven requests.
TAIL_BEYOND = 10
MIN_REQUESTS = TAIL_BEYOND + 1
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "request_p50_s": "s",
    "request_tail_s": "s",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_PROBE = """\
import sys
sys.path[:0] = {paths!r}
import numpy, scipy.linalg, scipy.sparse, cimfem
import workloads
workloads.prepare({workload!r}, {seed!r})
"""


@dataclass
class Result:
    """One request: its time, and what its check found."""

    label: str
    seconds: float
    traced: bool = False
    scale: float = 1.0  # reference seconds per measured second, from calibration
    checked: dict[str, float] = field(default_factory=dict)
    failure: str | None = None


def cap_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def add_source_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time for a fresh interpreter to import everything and build inputs.

    Returns the median in reference seconds and the raw median.
    """
    import calibration

    code = SETUP_PROBE.format(paths=[str(SRC), str(HERE)], workload=workload, seed=seed)
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = calibration.measure()
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code])
        # a blocking wait: waiting with a timeout polls, in steps of up to 50 ms
        guard = threading.Timer(120, child.kill)
        guard.start()
        status = child.wait()
        times.append(time.perf_counter() - start)
        guard.cancel()
        if status != 0:
            raise subprocess.CalledProcessError(status, child.args)
        scaled.append(times[-1] * calibration.scale(before, calibration.measure()))
    return statistics.median(scaled), statistics.median(times)


def run_one(wl, req, span=None) -> Result:
    """Send one request and check its output; failures are recorded, not raised."""
    from workloads import CheckError

    span = span or (lambda name: nullcontext())
    start = time.perf_counter()
    try:
        output = wl.call(req, span)
    except Exception as exc:  # a failed request is counted, and the run goes on
        return Result(req.label, time.perf_counter() - start, failure=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    try:
        return Result(req.label, elapsed, checked=wl.check(req, output))
    except CheckError as exc:
        return Result(req.label, elapsed, failure=f"check failed: {exc}")


def timed_loop(wl, seconds: float, tracer=None, min_requests: int = MIN_REQUESTS):
    """Closed loop for ``seconds``; with a tracer, each request runs untraced and traced.

    The loop ends with a whole pass over the workload's combinations, so that
    each is sent equally often: where the costs of the combinations differ,
    as on ``mlf-ref``, a part pass moved the tail by several percent.  Untraced, the calibration kernel runs before the first request and after
    each one, and sets each result's ``scale``.  Traced, the pair alternates
    which run goes first, and times stay raw.  Returns the results and the
    requests that were sent.
    """
    import calibration

    stream = wl.requests()
    results: list[Result] = []
    sent = []
    kernel_s = [calibration.measure()] if tracer is None else []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(sent) < min_requests
           or len(sent) % len(wl.combos)):
        req = next(stream)
        sent.append(req)
        if tracer is None:
            result = run_one(wl, req)
            kernel_s.append(calibration.measure())
            result.scale = calibration.scale(kernel_s[-2], kernel_s[-1])
            results.append(result)
            continue
        pair = []
        for traced in (False, True) if len(sent) % 2 else (True, False):
            if traced:
                with tracer.traced_request(len(sent) - 1):
                    result = run_one(wl, req, tracer.span)
                result.traced = True
            else:
                result = run_one(wl, req)
            pair.append(result)
        results.extend(pair)
    return results, sent


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(results: list[Result], setup_s: float, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics, in reference seconds unless ``scaled`` is false.

    Throughput is completed requests over the time spent in requests, so the
    calibration kernel between them does not count.
    """
    def seconds(r: Result) -> float:
        return r.seconds * r.scale if scaled else r.seconds

    times = [seconds(r) for r in results if r.failure is None] or [float("nan")]
    return {
        "request_p50_s": statistics.median(times),
        "request_tail_s": tail(times)[0],
        "requests_per_s": sum(r.failure is None for r in results) / sum(map(seconds, results)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, results: list[Result], sent) -> dict[str, float | None]:
    """Per-request medians of the layer metrics; None where not measured."""
    import tracing

    per_request = tracer.analyse()
    for r, values in per_request.items():
        needed = sent[r].node_systems_needed
        values["bench.node_systems_ratio"] = values["cim.node_systems"] / needed if needed else 1.0
    untraced = [r.seconds for r in results if not r.traced and r.failure is None]
    traced = [r.seconds for r in results if r.traced and r.failure is None]
    out: dict[str, float | None] = {}
    for name in tracing.PER_LAYER:
        if name == "trace.overhead_frac":
            ok = traced and untraced
            out[name] = statistics.median(traced) / statistics.median(untraced) - 1.0 if ok else None
            continue
        samples = [v[name] for v in per_request.values()]
        out[name] = statistics.median(samples) if samples and not tracer.not_measured(name) else None
    return out


def split_check(workload: str, m: dict[str, float | None]) -> str:
    """Does the trace show the split the workload was chosen for?"""
    import tracing

    # layer self times overlap the named metrics, so they do not compete here
    timed = {
        k: m[k] for k, (kind, _) in tracing.SPAN_METRICS.items()
        if kind in ("time", "self") and m[k] is not None
    }
    if not timed:
        return "not measured"
    largest = max(timed, key=timed.get)
    if workload in ("time-1d", "accel-1d"):
        ok, claim = largest == "linalg.tridiag_s", "linalg.tridiag_s is the largest share"
    elif workload == "space-2d":
        parts = ("fem.assemble_s", "fem.load_s", "fem.norm_s", "linalg.sparse_s")
        share = sum(m[p] or 0.0 for p in parts) / m["trace.request_s"]
        ok, claim = share > 0.5, f"fem.* + linalg.sparse_s cover {share:.0%} of a request"
    else:
        ok, claim = largest == "mlf.contour_s", "mlf.contour_s is the largest share"
    verdict = "confirmed" if ok else "MISMATCH"
    return f"{verdict}: {claim} (largest timed metric: {largest})"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over src/cimfem, identifying the code when git is not available."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cimfem").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args, tracer=None) -> dict:
    import numpy
    import scipy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    if tracer is not None:
        record["missing_targets"] = tracer.missing
    return record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    if not (SRC / "cimfem" / "__init__.py").is_file():
        print(f"error: no cimfem sources under {SRC}", file=sys.stderr)
        return 2
    add_source_path()
    # numpy reads the BLAS thread variables on first import, so the modules
    # that import it are imported only now
    import calibration
    import tracing
    import workloads

    calibration.kernel()  # warm-up, before its first timing
    if args.workload not in workloads.WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    wl = workloads.prepare(args.workload, args.seed)
    wl.compute_references()
    run_one(wl, next(wl.requests()))  # warm-up: lazy imports and first-call costs
    tracer = tracing.Tracer() if args.trace else None
    results, sent = timed_loop(wl, args.seconds, tracer)

    failed = [r for r in results if r.failure is not None]
    record = run_record(args, tracer)
    for i, r in enumerate(results):
        status = "FAILED " + r.failure if r.failure else "ok"
        checked = " ".join(f"{k}={v:.4e}" for k, v in r.checked.items())
        kind = " traced" if r.traced else ""
        scaled = "" if r.traced else f" ({r.seconds * r.scale:.6f} reference s)"
        print(f"request {i:4d}{kind} {r.label:36s} {r.seconds:.6f} s{scaled}  {status}  {checked}")
    print("run record: " + json.dumps(record))
    print(f"{args.workload}: {len(results)} requests, {len(failed)} failed, "
          f"failed_frac {len(failed) / len(results):.4f}")

    if tracer is None:
        values = end_to_end(results, setup_s)
        raw = end_to_end(results, raw_setup_s, scaled=False)
        record["raw_metrics"] = raw
        units = END_TO_END_UNITS
        times = [r.seconds for r in results if r.failure is None]
        _, pct = tail(times) if times else (None, float("nan"))
        notes = {
            name: f"raw {raw[name]:.6g}" for name in ("request_p50_s", "request_tail_s",
                                                       "requests_per_s", "setup_s")
        }
        notes["request_tail_s"] += f"; p{pct:.1f} of {len(times)} samples, {TAIL_BEYOND} beyond"
        speed = statistics.median(r.scale for r in results)
        print(f"machine speed: {speed:.4f} reference s per measured s (median over requests)")
    else:
        values = per_layer(tracer, results, sent)
        units = {name: tracing.metric_unit(name) for name in values}
        notes = {name: "not measured: " + (tracer.not_measured(name) or "no traced request")
                 for name, v in values.items() if v is None}
        print("split check: " + split_check(args.workload, values))
    for name, value in values.items():
        shown = "not measured" if value is None else f"{value:.6g}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {shown:>14s} {units[name]}{note}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "record": record,
        "metrics": values,
        "requests": [r.__dict__ for r in results],
    }, indent=1))
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.csv.gz")

    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        if value is None:
            metrics[name]["not_measured"] = notes[name]
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
