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
    N_REF,
    BenchError,
    BuiltProblem,
    ErrorReport,
    ExperimentSpec,
    accel_compare,
    build_problem,
    error_tau,
    run,
    solve,
    spatial_sweep,
    window_times,
    _fmt,
)
import cimfem.bench
import cimfem.cim
import cimfem.contour
from cimfem.contour import ContourConfig
import cimfem.fem
import cimfem.linalg
from cimfem.cim import Problem, ScalarDomain
from cimfem.cli import main
from cimfem.fem import InitialData1D, Mesh1D, Mesh2D
from cimfem.symbols import FractionalSymbol


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
            ExperimentSpec(mode="sweep-time", example_id="ex1_scalar", n_list=(N_REF,))

    def test_exact_reference_restricted(self):
        with pytest.raises(BenchError):
            ExperimentSpec(mode="sweep-time", example_id="ex3_1d_case1", reference="exact")

    def test_unknown_example(self):
        with pytest.raises(BenchError):
            ExperimentSpec(mode="solve", example_id="bogus")

    def test_unknown_mode(self):
        with pytest.raises(BenchError, match="unknown mode 'sweep-tme'"):
            ExperimentSpec(mode="sweep-tme", example_id="ex1_scalar")

    def test_sweep_space_needs_a_mesh(self):
        with pytest.raises(BenchError, match="sweep-space needs a mesh example"):
            ExperimentSpec(mode="sweep-space", example_id="ex1_scalar")

    @pytest.mark.parametrize("name", ["betas", "n_list", "m_list", "n_interp", "eval_times"])
    @pytest.mark.parametrize("mode", ["solve", "sweep-time", "sweep-space", "accel-compare"])
    def test_empty_list_rejected(self, mode, name):
        with pytest.raises(BenchError, match=f"{name} must not be empty"):
            ExperimentSpec(mode=mode, example_id="ex3_1d_case1", **{name: ()})


class TestErrorMetrics:
    def test_error_tau_exact_scalar_decays(self):
        bp = build_problem("ex1_scalar", 0.5, 8)
        times = window_times(ContourConfig(), (0.6,))
        errs = [error_tau(bp, times, solve(bp.problem, N, times)) for N in (10, 20, 40)]
        assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-12

    def test_error_tau_numeric_close_to_exact(self):
        bp = build_problem("ex1_scalar", 0.5, 8)
        times = window_times(ContourConfig(), (0.6,))
        sols = solve(bp.problem, 20, times)
        e_ex = error_tau(bp, times, sols)
        e_num = error_tau(bp, times, sols, solve(bp.problem, 200, times))
        assert e_num == pytest.approx(e_ex, rel=1e-3)

    @pytest.mark.parametrize("example, M", [("ex1_scalar", 8), ("ex3_1d_case1", 16), ("ex4_2d_case1", 6)])
    def test_error_tau_is_the_largest_distance(self, example, M):
        # one batched norm per call, the same as the largest per-time mass norm
        bp = build_problem(example, 0.5, M)
        times = window_times(ContourConfig(), (0.6,))
        sols, ref = solve(bp.problem, 20, times), solve(bp.problem, 60, times)
        p = bp.problem
        each = [abs(s - r) if p.scalar else cimfem.fem.mass_norm(p.domain, s - r) for s, r in zip(sols, ref)]
        assert error_tau(bp, times, sols, ref) == max(each)

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
        _, [(_, _, val, _)] = accel_compare(bp, 100, (12,), 0.6)
        assert 0.0 < val < 1.0

    def test_accel_deviation_decreases(self):
        bp = build_problem("ex1_scalar", 0.5, 8)
        _, [(_, d_small, _, _), (_, d_large, _, _)] = accel_compare(bp, 100, (6, 20), 0.6)
        assert d_large < d_small

    @pytest.mark.parametrize(
        "domain, u0", [(ScalarDomain(1.0), 0.0), (Mesh1D(16), InitialData1D.zero())]
    )
    def test_accel_compare_rejects_vanishing_reference(self, domain, u0):
        # zero data and no source: the plain solution is identically zero, so
        # a relative deviation from it is undefined
        p = Problem(sym=FractionalSymbol(1.0, 0.5), domain=domain, u0=u0)
        with pytest.raises(BenchError, match="vanishes"):
            accel_compare(BuiltProblem(p, None), 20, (4,), 0.6)


class TestReportAndRun:
    def test_fmt_styles(self):
        assert _fmt(9.85e-5, "sci") == "9.8500E-05"
        assert _fmt(1.9976, "fix") == "1.9976"
        assert _fmt(None, "sci") == ""

    def test_empty_report_header_only(self):
        # an empty parameter list is a spec error, so a report without rows is built directly
        lines = ErrorReport(rows=[]).to_csv().strip().splitlines()
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

    def test_deterministic(self):
        def csv_without_walltime():
            spec = ExperimentSpec(
                mode="sweep-time",
                example_id="ex1_scalar",
                betas=(0.25, 0.5),
                n_list=(10, 20),
                m_list=(4,),
                reference="exact",
            )
            out = run(spec).to_csv()
            rows = list(csv.reader(io.StringIO(out)))
            return [r[:-1] for r in rows]

        assert csv_without_walltime() == csv_without_walltime()

    def test_csv_written(self, tmp_path, capsys):
        # the library writes no file: the CLI writes the CSV it prints to --out
        path = tmp_path / "out.csv"
        argv = ["sweep-space", "--example", "ex2_vanishing", "--N", "40", "--M", "4,8",
                "--reference", "exact", "--times", "0.86", "--out", str(path)]
        assert main(argv) == 0
        text = path.read_text()
        assert text == capsys.readouterr().out
        assert text.startswith("example,beta,N,M,n,t,error,order,iar,wall_ms")
        assert len(text.strip().splitlines()) == 1 + 2

    def test_failures_recorded_not_raised(self):
        # N_REF equal to an N would be rejected by the spec; per-row failures
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

    def test_programming_errors_propagate(self, monkeypatch):
        # only the library's own errors are a job's failure; a TypeError is a fault
        def broken(p, quad):
            raise TypeError("broken node solve")

        monkeypatch.setattr(cimfem.bench, "solve_nodes", broken)
        with pytest.raises(TypeError, match="broken node solve"):
            run(ExperimentSpec(mode="solve", example_id="ex1_scalar", n_list=(10,)))


def _rows_without_wall_time(**fields):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in run(ExperimentSpec(**fields)).rows]


@pytest.mark.parametrize(
    "mode, axis, column, values, fixed",
    [
        ("sweep-time", "m_list", "M", (8, 16), dict(n_list=(10, 20))),
        ("sweep-space", "n_list", "N", (20, 40), dict(m_list=(4, 8))),
        ("sweep-space", "eval_times", "t", (0.3, 0.6), dict(n_list=(20,), m_list=(4, 8))),
        ("accel-compare", "m_list", "M", (8, 16), dict(n_list=(20,), n_interp=(4, 6))),
        ("accel-compare", "n_list", "N", (20, 40), dict(m_list=(8,), n_interp=(4, 6))),
        ("accel-compare", "eval_times", "t", (0.3, 0.6), dict(n_list=(20,), m_list=(8,), n_interp=(4, 6))),
    ],
)
def test_every_value_of_a_job_axis_gets_its_rows(mode, axis, column, values, fixed):
    # a list of k values gives the k blocks that the k single-valued runs give, in order
    base = dict(mode=mode, example_id="ex3_1d_case1", **fixed)
    together = _rows_without_wall_time(**base, **{axis: values})
    blocks = [_rows_without_wall_time(**base, **{axis: (v,)}) for v in values]
    assert together == [row for block in blocks for row in block]
    assert [block[0][column] for block in blocks] == [str(v) for v in values]


@pytest.mark.parametrize(
    "mode, fixed, n_rows",
    [("solve", {}, 1), ("sweep-time", dict(reference="exact"), 1), ("accel-compare", dict(n_interp=(4,)), 2)],
)
def test_a_scalar_example_gets_one_job_for_every_m(mode, fixed, n_rows):
    # M does not enter a scalar problem: a list of M gives the rows of one M, with M left empty
    base = dict(mode=mode, example_id="ex1_scalar", n_list=(20,), **fixed)
    assert ExperimentSpec(**base, m_list=(4, 8)).m_list == (4,)
    rows = _rows_without_wall_time(**base, m_list=(4, 8))
    assert rows == _rows_without_wall_time(**base, m_list=(8,))
    assert len(rows) == n_rows and all(r["M"] == "" for r in rows)


def test_sweep_time_folds_every_time_into_one_error():
    rows = _rows_without_wall_time(mode="sweep-time", example_id="ex3_1d_case1", n_list=(10, 20),
                                   m_list=(8,), eval_times=(0.3, 0.8))
    assert [(r["N"], r["t"]) for r in rows] == [("10", "0.8"), ("20", "0.8")]


class TestSharedWork:
    """Each request solves and assembles only what its rows need."""

    @staticmethod
    def count_node_solves(monkeypatch):
        """Contour points whose shifted systems ``cim._solve_at`` solves, one entry per call."""
        rows = []
        solve_at = cimfem.cim._solve_at

        def counted(p, z):
            rows.append(len(z))
            return solve_at(p, z)

        monkeypatch.setattr(cimfem.cim, "_solve_at", counted)
        return rows

    def test_sweep_time_solves_reference_once(self, monkeypatch, capsys):
        rows = self.count_node_solves(monkeypatch)
        argv = ["sweep-time", "--example", "ex3_1d_case1", "--N", "20,40,80", "--M", "32", "--times", "0.8"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4
        assert sum(rows) == 20 + 40 + 80 + 200

    def test_accel_compare_reuses_warmup_solves(self, monkeypatch, capsys):
        # one warm-up and three timed plain solves serve every n of the job
        rows = self.count_node_solves(monkeypatch)
        argv = ["accel-compare", "--example", "ex3_1d_case1", "--N", "100", "--M", "32",
                "--n-interp", "6,10", "--times", "0.6"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5
        assert 0 < sum(rows) <= 4 * (100 + 7 + 11)

    def test_sweep_time_optimizes_and_integrates_once_per_process(self, monkeypatch, capsys):
        # contour parameters depend on N and the window, load vectors on the
        # mesh and the datum: another beta rebuilds neither
        optimized, loaded = [], []
        optimize, load = cimfem.contour.optimize_rho, cimfem.cim.load_vector
        monkeypatch.setattr(cimfem.contour, "optimize_rho", lambda cfg, N: optimized.append(N) or optimize(cfg, N))
        monkeypatch.setattr(cimfem.cim, "load_vector", lambda mesh, g: loaded.append(mesh) or load(mesh, g))
        cimfem.contour.standard_parameters.cache_clear()
        cimfem.cim._load.cache_clear()
        argv = ["sweep-time", "--example", "ex3_1d_case1", "--beta", "0.25,0.5,0.75", "--N", "20,40",
                "--M", "16", "--times", "0.8"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 7
        assert sorted(optimized) == [20, 40, 200]
        assert loaded == [Mesh1D(16)]

    def test_sweeps_assemble_only_for_the_fallback(self, monkeypatch):
        # the modal solves apply M and S from their stencils, so sparse
        # matrices are assembled only when a row falls back to splu: once
        # per _solve_at call, here forced by the iteration cap
        meshes = []
        assemble = cimfem.cim.assemble

        def counted(mesh):
            meshes.append(mesh)
            return assemble(mesh)

        monkeypatch.setattr(cimfem.cim, "assemble", counted)
        rows = self.count_node_solves(monkeypatch)
        spatial_sweep("ex3_1d_case1", 0.5, 20, (8, 16), 0.6, "numeric")
        spatial_sweep("ex4_2d_case3", 0.5, 20, (4, 8), 0.6, "numeric")
        assert meshes == [] and len(rows) == 6
        rows.clear()
        monkeypatch.setattr(cimfem.linalg, "COCG_MAX_ITER", 2)
        spatial_sweep("ex4_2d_case3", 0.5, 20, (4, 8), 0.6, "numeric")
        assert len(rows) == 3
        assert meshes == [Mesh2D(4), Mesh2D(8), Mesh2D(16)]


def test_window_times_contains_quoted_and_sorted():
    ts = window_times(ContourConfig(), (0.6, 0.37))
    assert 0.6 in ts and 0.37 in ts
    assert list(ts) == sorted(ts)
    assert ts[0] == pytest.approx(0.1) and ts[-1] == pytest.approx(1.0)
