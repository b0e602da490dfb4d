"""Tests of the benchmark itself: checks, tracing, request streams, entry point.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.add_source_path()

import calibration  # noqa: E402
import cimfem.cim  # noqa: E402
import cimfem.mlf  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _time_1d_csv(example="ex3_1d_case2", beta=0.5, errors=None) -> str:
    errors = errors or workloads.TIME_1D_SEED_ERRORS[(example, beta)]
    rows = [
        f"{example},{beta},{N},{workloads.TIME_1D_M},,0.8,{err:.4E},,,12.3456"
        for N, err in zip(workloads.TIME_1D_N, errors)
    ]
    return "\n".join([workloads.CSV_HEADER, *rows]) + "\n"


def _space_2d_csv(order="1.9600") -> str:
    return (
        f"{workloads.CSV_HEADER}\n"
        "ex4_2d_case1,0.5,60,8,,0.6,3.4238E-03,,,800.0000\n"
        f"ex4_2d_case1,0.5,60,16,,0.6,8.8004E-04,{order},,0.0005\n"
    )


def _accel_csv(dev="1.0373E-02", iar="1.0373E-02") -> str:
    return (
        f"{workloads.CSV_HEADER}\n"
        f"ex3_1d_case1,0.5,100,{workloads.ACCEL_M},10,0.6,{dev},,{iar},10.0000\n"
        f"ex3_1d_case1,0.5,100,{workloads.ACCEL_M},,0.6,,,,80.0000\n"
    )


def _request(wl, example, beta):
    return next(r for r in wl.combos if r.example == example and r.beta == beta)


def _run_with_output(wl, req, output):
    wl.call = lambda req, span: output
    return run.run_one(wl, req)


def test_benchmark_json_names_the_code_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert list(layer) == list(tracing.PER_LAYER)
    assert all(tracing.metric_unit(name) == unit for name, unit in layer.items())


def test_request_stream_is_seeded_and_balanced():
    def first(seed, n):
        stream = workloads.prepare("time-1d", seed).requests()
        return [next(stream) for _ in range(n)]

    assert first(3, 18) == first(3, 18)
    assert first(3, 18) != first(4, 18)
    assert len(set(first(3, 9))) == 9  # each pass covers every combination once


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text.replace("example,beta", "example,Beta"),
        lambda text: text.replace("1.6051E-13", "4.0000E-08"),
        lambda text: text.replace("7.6882E-08", "nan"),
        lambda text: text.replace(",40,", ",41,"),
        lambda text: text.rsplit("\n", 2)[0] + "\n",
    ],
    ids=["header", "error-too-large", "error-nan", "wrong-N", "missing-row"],
)
def test_time_1d_corrupted_output_counts_as_failed(corrupt):
    wl = workloads.prepare("time-1d", 1)
    req = _request(wl, "ex3_1d_case2", 0.5)
    assert _run_with_output(wl, req, (0, _time_1d_csv())).failure is None
    result = _run_with_output(wl, req, (0, corrupt(_time_1d_csv())))
    assert result.failure and result.failure.startswith("check failed")


def test_time_1d_more_accurate_than_published_passes():
    wl = workloads.prepare("time-1d", 1)
    req = _request(wl, "ex3_1d_case1", 0.25)
    assert workloads.time_1d_bound("ex3_1d_case1", 0.25, 40) == pytest.approx(3 * 9.85e-5)
    assert _run_with_output(wl, req, (0, _time_1d_csv("ex3_1d_case1", 0.25, (0.0, 0.0, 0.0)))).failure is None


def test_nonzero_status_and_raising_call_count_as_failed():
    wl = workloads.prepare("time-1d", 1)
    req = _request(wl, "ex3_1d_case2", 0.5)
    assert "exit status 1" in _run_with_output(wl, req, (1, _time_1d_csv())).failure

    def boom(req, span):
        raise RuntimeError("solver blew up")

    wl.call = boom
    assert "RuntimeError" in run.run_one(wl, req).failure


@pytest.mark.parametrize("order, ok", [("1.9600", True), ("1.7000", False), ("", False)])
def test_space_2d_order_bound(order, ok):
    wl = workloads.prepare("space-2d", 1)
    req = _request(wl, "ex4_2d_case1", 0.5)
    assert (_run_with_output(wl, req, (0, _space_2d_csv(order))).failure is None) is ok


@pytest.mark.parametrize(
    "dev, iar, ok",
    [
        ("1.0373E-02", "1.0373E-02", True),
        ("8.0000E-14", "8.0000E-14", True),  # a better method never fails
        ("3.5000E-02", "1.0373E-02", False),
        ("1.0373E-02", "inf", False),
    ],
)
def test_accel_1d_deviation_bound(dev, iar, ok):
    wl = workloads.prepare("accel-1d", 1)
    req = _request(wl, "ex3_1d_case1", 0.5)
    assert (_run_with_output(wl, req, (0, _accel_csv(dev, iar))).failure is None) is ok


def test_mlf_corrupted_reference_counts_as_failed():
    wl = workloads.prepare("mlf-ref", 1)
    req = wl.combos[5]
    wl.references = workloads.mlf_references([(req.beta, req.t)], wl.x)
    exact = wl.references[(req.beta, req.t)].copy()
    assert _run_with_output(wl, req, exact).failure is None
    wl.references[(req.beta, req.t)] = exact * (1.0 + 1e-5)
    assert "relative gap" in _run_with_output(wl, req, exact).failure


def test_reference_rule_converged_and_near_mode_value():
    lam = np.array([math.pi**2, (5 * math.pi) ** 2, (40 * math.pi) ** 2])
    for beta, t in ((0.25, 0.1), (0.75, 1.0)):
        v = workloads.inverse_laplace_modes(lam, beta, t)
        assert np.max(np.abs(v - workloads.inverse_laplace_modes(lam, beta, t, n=32))) < 1e-10
        program = [cimfem.mlf.mode_value(workloads.MLF_K, beta, float(x), t) for x in lam]
        assert np.max(np.abs(v - program)) < 1e-8


def test_missing_target_is_not_measured():
    renamed = ("linalg.thomas_solve", "linalg.solve_banded")
    targets = [t for t in tracing.SPAN_TARGETS if t[2] not in renamed]
    targets.append(("cimfem.cim", "renamed_thomas_solve", "linalg.thomas_solve"))
    targets.append(("cimfem.no_such_module", "solve", "linalg.solve_banded"))
    tracer = tracing.Tracer(span_targets=targets)
    assert set(tracer.missing) == {"cimfem.cim.renamed_thomas_solve", "cimfem.no_such_module.solve"}
    original = cimfem.cim.sparse_solve
    wl = workloads.prepare("time-1d", 1)
    results, sent = run.timed_loop(wl, 0.0, tracer, min_requests=1)
    assert cimfem.cim.sparse_solve is original  # wrappers are removed after each request
    assert all(r.failure is None for r in results)
    values = run.per_layer(tracer, results, sent)
    assert values["linalg.tridiag_s"] is None
    assert values["linalg.banded_fallbacks"] is None
    assert "renamed_thomas_solve" in tracer.not_measured("linalg.tridiag_s")
    assert values["cim.node_systems"] == 740
    assert values["linalg.self_s"] == 0.0  # the solver's time is now cim's own


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_smoke_one_pass_per_workload(name):
    wl = workloads.prepare(name, 7)
    wl.compute_references()
    results, sent = run.timed_loop(wl, 0.0, min_requests=1)
    assert sorted(sent, key=wl.combos.index) == wl.combos  # one whole pass
    assert all(r.failure is None and r.scale > 0.0 for r in results)
    metrics = run.end_to_end(results, setup_s=0.5)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())

    tracer = tracing.Tracer()
    results, sent = run.timed_loop(wl, 0.0, tracer, min_requests=1)
    assert not tracer.missing
    values = run.per_layer(tracer, results, sent)
    assert all(v is not None for v in values.values())
    assert values["trace.unattributed_frac"] < 0.1
    assert run.split_check(name, values).startswith("confirmed")


def test_times_are_scaled_to_reference_speed():
    # the same request on a machine running at half speed: both times double
    fast = run.Result("r", 0.4, scale=calibration.scale(0.02, 0.02))
    slow = run.Result("r", 0.8, scale=calibration.scale(0.03, 0.05))
    assert fast.seconds * fast.scale == pytest.approx(slow.seconds * slow.scale)
    assert fast.seconds * fast.scale == pytest.approx(0.4 * calibration.REFERENCE_S / 0.02)
    metrics = run.end_to_end([fast, slow], setup_s=0.5)
    raw = run.end_to_end([fast, slow], setup_s=0.5, scaled=False)
    assert metrics["request_p50_s"] == pytest.approx(fast.seconds * fast.scale)
    assert metrics["requests_per_s"] == pytest.approx(1.0 / (fast.seconds * fast.scale))
    assert raw["request_p50_s"] == pytest.approx(0.6)
    assert raw["requests_per_s"] == pytest.approx(2 / 1.2)


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(25)])
    assert value == 14.0 and pct == 60.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "time-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
