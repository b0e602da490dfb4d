"""Benchmark-harness tests: problem construction, error metrics, sweep
driver determinism, and CSV output format.
"""

import csv
import io
import math

import numpy as np
import pytest

from cimfem.bench import (
    EXAMPLE_IDS,
    BenchError,
    ContourDefaults,
    ErrorReport,
    ExperimentSpec,
    accel_compare,
    build_problem,
    error_tau,
    run,
    spatial_sweep,
    window_times,
    _fmt,
)
import cimfem.cim
import cimfem.fem
from cimfem.cim import ScalarDomain
from cimfem.cli import main
from cimfem.fem import Mesh1D, Mesh2D


class TestBuildProblem:
    def test_all_ids_build(self):
        for ex in EXAMPLE_IDS:
            bp = build_problem(ex, 0.5, 8)
            if ex == "ex1_scalar":
                assert isinstance(bp.problem.domain, ScalarDomain)
            elif ex.startswith("ex4"):
                assert isinstance(bp.problem.domain, Mesh2D)
            else:
                assert isinstance(bp.problem.domain, Mesh1D)

    def test_unknown_id_rejected(self):
        with pytest.raises(BenchError):
            build_problem("nope", 0.5, 8)

    def test_exact_solutions_present_where_derived(self):
        assert build_problem("ex1_scalar", 0.5, 8).exact is not None
        assert build_problem("ex2_vanishing", 0.5, 8).exact is not None
        assert build_problem("ex3_1d_case1", 0.5, 8).exact is None

    def test_exact_solution_values(self):
        bp = build_problem("ex1_scalar", 0.5, 8)
        c = 3.0 * math.sqrt(math.pi) / 2.0
        assert bp.exact(0.4) == pytest.approx(1.0 + c * 0.4)
        bp2 = build_problem("ex2_vanishing", 0.25, 8)
        assert bp2.exact(np.array([0.5]), 0.9)[0] == pytest.approx(0.9 ** 1.5 * 0.25)


class TestSpecValidation:
    def test_numeric_reference_needs_larger_n_ref(self):
        with pytest.raises(BenchError):
            ExperimentSpec(mode="sweep-time", example_id="ex1_scalar", n_list=(300,), n_ref=200)

    def test_exact_reference_restricted(self):
        with pytest.raises(BenchError):
            ExperimentSpec(mode="sweep-time", example_id="ex3_1d_case1", reference="exact")

    def test_unknown_example(self):
        with pytest.raises(BenchError):
            ExperimentSpec(mode="solve", example_id="bogus")


class TestErrorMetrics:
    def test_error_tau_exact_scalar_decays(self):
        bp = build_problem("ex1_scalar", 0.5, 8)
        times = window_times(ContourDefaults(), (0.6,))
        errs = [error_tau(bp, None, times, bp.run(N).solve(times)) for N in (10, 20, 40)]
        assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-12

    def test_error_tau_numeric_close_to_exact(self):
        bp = build_problem("ex1_scalar", 0.5, 8)
        times = window_times(ContourDefaults(), (0.6,))
        sols = bp.run(20).solve(times)
        e_ex = error_tau(bp, None, times, sols)
        e_num = error_tau(bp, None, times, sols, bp.run(200).solve(times))
        assert e_num == pytest.approx(e_ex, rel=1e-3)

    def test_spatial_sweep_orders_ex2(self):
        rows = spatial_sweep("ex2_vanishing", 0.5, 60, (4, 8, 16, 32), 0.86, "exact")
        assert rows[0][2] is None
        for _, err, order, _ in rows[1:]:
            assert 1.8 < order < 2.2
            assert err > 0.0

    def test_spatial_sweep_numeric_reference_close_to_exact(self):
        a = spatial_sweep("ex2_vanishing", 0.5, 60, (8, 16), 0.86, "exact")
        b = spatial_sweep("ex2_vanishing", 0.5, 60, (8, 16), 0.86, "numeric")
        # halved-mesh surrogate stays within a factor ~2 of the true error
        for (_, ea, _, _), (_, eb, _, _) in zip(a, b):
            assert 0.3 < eb / ea < 3.0

    def test_iar_with_exact(self):
        bp = build_problem("ex2_vanishing", 0.5, 16)
        _, val, _, _ = accel_compare(bp, 100, 12, 0.6)
        assert 0.0 < val < 1.0

    def test_accel_deviation_decreases(self):
        bp = build_problem("ex1_scalar", 0.5, 8)
        d_small, _, _, _ = accel_compare(bp, 100, 6, 0.6)
        d_large, _, _, _ = accel_compare(bp, 100, 20, 0.6)
        assert d_large < d_small


class TestReportAndRun:
    def test_fmt_styles(self):
        assert _fmt(9.85e-5, "sci") == "9.8500E-05"
        assert _fmt(1.9976, "fix") == "1.9976"
        assert _fmt(None, "sci") == ""

    def test_empty_report_header_only(self):
        spec = ExperimentSpec(
            mode="sweep-time", example_id="ex1_scalar", betas=(), n_list=(), m_list=(4,)
        )
        report = run(spec)
        lines = report.to_csv().strip().splitlines()
        assert lines == ["example,beta,N,M,n,t,error,order,iar,wall_ms"]

    def test_sweep_time_rows(self):
        spec = ExperimentSpec(
            mode="sweep-time",
            example_id="ex1_scalar",
            betas=(0.5,),
            n_list=(10, 20),
            m_list=(4,),
            reference="exact",
        )
        report = run(spec)
        assert len(report.rows) == 2
        assert report.failures == []
        errs = [float(r["error"]) for r in report.rows]
        assert errs[1] < errs[0]

    def test_deterministic_and_thread_invariant(self, tmp_path):
        def csv_without_walltime(threads):
            spec = ExperimentSpec(
                mode="sweep-time",
                example_id="ex1_scalar",
                betas=(0.25, 0.5),
                n_list=(10, 20),
                m_list=(4,),
                reference="exact",
                threads=threads,
            )
            out = run(spec).to_csv()
            rows = list(csv.reader(io.StringIO(out)))
            return [r[:-1] for r in rows]

        assert csv_without_walltime(1) == csv_without_walltime(1)
        assert csv_without_walltime(1) == csv_without_walltime(2)

    def test_csv_written(self, tmp_path):
        path = tmp_path / "out.csv"
        spec = ExperimentSpec(
            mode="sweep-space",
            example_id="ex2_vanishing",
            betas=(0.5,),
            n_list=(40,),
            m_list=(4, 8),
            reference="exact",
            eval_times=(0.86,),
            output_path=str(path),
        )
        report = run(spec)
        assert path.exists()
        text = path.read_text()
        assert text.startswith("example,beta,N,M,n,t,error,order,iar,wall_ms")
        assert len(text.strip().splitlines()) == 1 + len(report.rows)

    def test_failures_recorded_not_raised(self):
        # n_ref equal to an N would be rejected by the spec; per-row failures
        # are exercised through a time outside any representable window
        spec = ExperimentSpec(
            mode="sweep-time",
            example_id="ex1_scalar",
            betas=(0.5,),
            n_list=(10,),
            m_list=(4,),
            reference="exact",
            eval_times=(1e9,),
        )
        report = run(spec)
        assert report.failures
        assert report.rows == [] or all(r["error"] == "" for r in report.rows)


class TestSharedWork:
    """Each request solves and assembles only what its rows need."""

    @staticmethod
    def count_node_solves(monkeypatch):
        calls = []
        node_solve = cimfem.cim._node_solve

        def counted(*args):
            calls.append(args[2])
            return node_solve(*args)

        monkeypatch.setattr(cimfem.cim, "_node_solve", counted)
        return calls

    def test_sweep_time_solves_reference_once(self, monkeypatch, capsys):
        calls = self.count_node_solves(monkeypatch)
        argv = ["sweep-time", "--example", "ex3_1d_case1", "--N", "20,40,80", "--M", "32", "--times", "0.8"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4
        assert len(calls) == 20 + 40 + 80 + 200

    def test_accel_compare_reuses_warmup_solves(self, monkeypatch, capsys):
        calls = self.count_node_solves(monkeypatch)
        argv = ["accel-compare", "--example", "ex3_1d_case1", "--N", "100", "--M", "32",
                "--n-interp", "10", "--times", "0.6"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3
        assert len(calls) <= 4 * (100 + 11)

    def test_spatial_sweep_assembles_each_mesh_once(self, monkeypatch):
        meshes = []
        assemble_1d = cimfem.fem._assemble_1d

        def counted(mesh):
            meshes.append(mesh.M)
            return assemble_1d(mesh)

        monkeypatch.setattr(cimfem.fem, "_assemble_1d", counted)
        spatial_sweep("ex3_1d_case1", 0.5, 20, (8, 16), 0.6, "numeric")
        assert sorted(meshes) == [8, 16, 32]


def test_window_times_contains_quoted_and_sorted():
    ts = window_times(ContourDefaults(), (0.6, 0.37))
    assert 0.6 in ts and 0.37 in ts
    assert list(ts) == sorted(ts)
    assert ts[0] == pytest.approx(0.1) and ts[-1] == pytest.approx(1.0)
