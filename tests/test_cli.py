"""Command-line interface tests."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cimfem.bench import ExperimentSpec, accel_compare, build_problem, solve
import cimfem.cli
from cimfem.cli import main
from cimfem.contour import ContourConfig
from cimfem.fem import mass_norm


def test_sweep_time_exact_reference(capsys):
    rc = main(
        [
            "sweep-time",
            "--example",
            "ex1_scalar",
            "--beta",
            "0.5",
            "--N",
            "10,20",
            "--M",
            "4",
            "--reference",
            "exact",
            "--times",
            "0.6",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "example,beta,N,M,n,t,error,order,iar,wall_ms"
    assert len(lines) == 3
    assert "ex1_scalar" in lines[1]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "example = ex1_scalar\n"
        "beta = 0.25\n"
        "N = 10\n"
        "M = 4\n"
        "reference = exact\n"
        "# comment line\n"
        "times = 0.6\n"
    )
    out_csv = tmp_path / "result.csv"
    rc = main(
        ["sweep-time", "--config", str(cfg), "--N", "20", "--out", str(out_csv)]
    )
    assert rc == 0
    text = out_csv.read_text()
    rows = text.strip().splitlines()
    assert len(rows) == 2
    # flag overrides the config file's N
    assert rows[1].split(",")[2] == "20"
    assert rows[1].split(",")[1] == "0.25"


def _error_exit(capsys, argv) -> str:
    """stderr of ``main(argv)``, which must exit 2 like argparse, printing no rows or traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cimfem: error: ")
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("target", ["missing_dir/x.csv", "a_directory"])
def test_bad_out_path_exits_2_before_any_job(tmp_path, monkeypatch, capsys, target):
    (tmp_path / "a_directory").mkdir()
    jobs = []
    monkeypatch.setattr("cimfem.cli.run", jobs.append)
    err = _error_exit(capsys, ["solve", "--example", "ex1_scalar", "--out", str(tmp_path / target)])
    assert "cannot write" in err and len(err.splitlines()) == 1
    assert jobs == []


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert "unknown config key 'bogus'" in _error_exit(capsys, ["sweep-time", "--config", str(cfg)])


@pytest.mark.parametrize("name", ["nope.cfg", "a_directory"])
def test_unreadable_config_file_fails(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    err = _error_exit(capsys, ["sweep-time", "--config", str(tmp_path / name)])
    assert "cannot read config file" in err


def test_spec_error_exits_2(capsys):
    err = _error_exit(capsys, ["sweep-space", "--example", "ex1_scalar"])
    assert "sweep-space needs a mesh example" in err


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("sweep-time", ["--alpha", "2.0"], "alpha must lie in (0, pi/2)"),
        ("sweep-time", ["--alpha", "1.5", "--delta-prime", "0.1"], "need alpha + delta_prime < pi/2"),
        ("sweep-time", ["--t0", "nan"], "need finite t0 > 0"),
        ("sweep-space", ["--Lambda", "0.5"], "lambda_ratio >= 1"),
        ("solve", ["--times", "nan"], "evaluation times must be finite and > 0"),
        ("sweep-time", ["--times", "0.6,0"], "evaluation times must be finite and > 0"),
        ("solve", ["--K", "nan"], "K must be finite and nonnegative"),
        ("solve", ["--K", "inf"], "K must be finite and nonnegative"),
        ("sweep-time", ["--K", "-1"], "K must be finite and nonnegative"),
        ("sweep-time", ["--beta", "0.5,1.5"], "beta must lie in (0, 1)"),
        ("solve", ["--beta", "nan"], "beta must lie in (0, 1)"),
        ("solve", ["--N", "0"], "n_list must hold counts >= 1"),
        ("sweep-space", ["--M", "1,8"], "need M >= 2"),
        ("accel-compare", ["--n-interp", "0"], "n_interp must hold counts >= 1"),
        ("accel-compare", ["--N", "1", "--n-interp", "2"],
         "accel-compare interpolates between contour nodes; need N >= 2, got (1,)"),
    ],
    ids=[
        "alpha", "alpha-plus-delta-prime", "t0-nan", "Lambda", "times-nan", "times-zero",
        "K-nan", "K-inf", "K-negative", "beta-above-1", "beta-nan", "N-zero", "M-one", "n-interp-zero",
        "accel-N-one",
    ],
)
def test_bad_contour_or_time_exits_2_before_any_row(capsys, command, flags, message):
    argv = [command, "--example", "ex3_1d_case1", "--N", "10", "--M", "8", *flags]
    err = _error_exit(capsys, argv)
    assert err.count("cimfem: error:") == 1 and len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["accel-compare", "--example", "ex3_1d_case1", "--N", ""], "n_list"),
        (["sweep-space", "--example", "ex3_1d_case1", "--times", ""], "eval_times"),
    ],
)
def test_empty_list_exits_2(capsys, argv, name):
    assert f"{name} must not be empty" in _error_exit(capsys, argv)


def test_bad_example_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["sweep-time", "--example", "not_a_thing"])


def test_ml_eval_args(capsys):
    rc = main(["ml-eval", "0.5", "1.0", "1.0", "0.0", "0.0"])
    assert rc == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(1.0, rel=1e-14)


def test_ml_eval_with_time(capsys):
    rc = main(["ml-eval", "0.5", "1.0", "1.0", "-0.5", "-0.5", "0.5"])
    assert rc == 0
    val = float(capsys.readouterr().out.strip())
    assert 0.0 < val < 1.0


@pytest.mark.parametrize("query", ["0.5 1 1 -30 -60", "0.9 0.5 1 -2 -400", "0.5 1 1 -0.3 -0.7"])
def test_ml_eval_time_changes_no_value(capsys, query):
    # E takes no time: a query prints the same line without t and with any valid t,
    # also where the series fails and the contour route answers
    outputs = []
    for extra in ([], ["1"], ["7"]):
        assert main(["ml-eval", *query.split(), *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert math.isfinite(float(outputs[0]))


def test_ml_eval_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0.5 1.0 2.0 0.0 0.0\n"))
    rc = main(["ml-eval"])
    assert rc == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(1.0 / math.gamma(2.0), rel=1e-14)


@pytest.mark.parametrize("z2", ["-1e5", "-1.0E+5", "-.1e6", "-1e+05"])
def test_ml_eval_negative_exponent_notation(capsys, z2):
    # a negative number in exponent notation is a query value, not an option
    assert main(["ml-eval", "0.5", "1", "1", "-30", "-100000", "1"]) == 0
    plain = capsys.readouterr().out
    assert main(["ml-eval", "0.5", "1", "1", "-3e1", z2, "1"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("z2", ["-inf", "-Infinity", "-INF", "-nan", "-NaN"])
def test_ml_eval_negative_inf_and_nan_reach_the_library(capsys, z2):
    # not an unknown option: the query reaches MLQuery and is rejected there
    assert main(["ml-eval", "0.5", "1", "1", "-30", z2, "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need finite alpha_p, beta_p, gamma, z1, z2" in captured.err


def test_ml_eval_help_still_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ml-eval", "-h"])
    assert exc.value.code == 0
    assert "alpha beta gamma z1 z2 [t]" in capsys.readouterr().out


def test_ml_eval_malformed(capsys):
    rc = main(["ml-eval", "1", "2"])
    assert rc == 2


@pytest.mark.parametrize(
    "query, message",
    [
        (["0.5", "1", "1", "x", "-1"], "could not convert"),
        (["0", "1", "1", "-1", "-1"], "need alpha_p, beta_p, gamma > 0"),
        (["0.5", "1", "1", "-400", "400"], "overflow double precision"),  # z2 > 0: no contour route
        (["0.5", "1", "1", "-1", "-1", "-2"], "need finite t > 0"),
        (["0.5", "1", "1", "-1", "-1", "0"], "need finite t > 0"),
        (["0.5", "1", "1", "-30", "-30", "nan"], "need finite t > 0"),
        (["0.5", "1", "1", "-30", "-30", "inf"], "need finite t > 0"),
        (["0.5", "1", "1", "-1", "nan", "1"], "need finite alpha_p, beta_p, gamma, z1, z2"),
        (["0.5", "1", "inf", "-1", "-1"], "need finite alpha_p, beta_p, gamma, z1, z2"),
        (["nan", "1", "1", "-1", "-1"], "need finite alpha_p, beta_p, gamma, z1, z2"),
    ],
    ids=["not-a-number", "zero-order", "series-overflow", "negative-time", "zero-time", "nan-time",
         "inf-time", "nan-argument", "inf-gamma", "nan-order"],
)
def test_ml_eval_bad_query_exits_2(capsys, query, message):
    assert message in _error_exit(capsys, ["ml-eval", *query])


def _outcome(capsys, argv):
    """(exit status, stdout without wall_ms, stderr) of ``main(argv)``, an argparse exit included."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    return status, [line.rsplit(",", 1)[0] for line in out.splitlines()], err


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("example = ex3_1d_case1\nbeta = 0.25\nN = 10,20\nM = 8\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("Lam = 5\n")
    calls = [
        ["sweep-time", "--config", str(cfg)],
        ["sweep-time"],  # the defaults again, none of the config file's values
        ["sweep-time", "--bogus"],
        ["sweep-time", "--config", str(bad)],
        ["ml-eval", "0.5", "1", "1", "-1", "-1", "1"],
    ]
    cimfem.cli._parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in calls]
    assert cimfem.cli._parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cimfem.cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    assert [status for status, _, _ in reused] == [0, 0, 2, 2, 0]
    assert reused[0][1][1].startswith("ex3_1d_case1,0.25,10,8,")
    [plain_row] = reused[1][1][1:]
    assert plain_row.startswith("ex1_scalar,0.5,100,,,0.6,")
    assert "unrecognized arguments: --bogus" in reused[2][2]


def test_accel_compare_mode(capsys):
    rc = main(
        [
            "accel-compare",
            "--example",
            "ex1_scalar",
            "--beta",
            "0.5",
            "--N",
            "40",
            "--M",
            "4",
            "--n-interp",
            "10",
            "--times",
            "0.6",
            "--reference",
            "exact",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) >= 2
    # iar column populated for acceleration rows
    assert lines[1].split(",")[8] != ""


# every config key with a non-default value, as its flag and as its file line
CONFIG_KEYS = [
    ("example", "ex3_1d_case1"),
    ("beta", "0.25,0.75"),
    ("K", "2.5"),
    ("Lambda", "5"),
    ("t0", "0.2"),
    ("alpha", "0.6"),
    ("delta-prime", "0.12"),
    ("N", "10,20"),
    ("M", "8,16"),
    ("n-interp", "6,12"),
    ("times", "0.3,0.9"),
    ("reference", "exact"),
    ("out", "rows.csv"),
]


def _spec_of(monkeypatch, argv):
    """The ExperimentSpec and the ``--out`` path that ``main(argv)`` hands to the sweep."""
    seen = []
    monkeypatch.setattr("cimfem.cli._cmd_sweep", lambda spec, out_path: seen.append((spec, out_path)) or 0)
    assert main(argv) == 0
    return seen[0]


@pytest.mark.parametrize("key, value", CONFIG_KEYS, ids=[k for k, _ in CONFIG_KEYS])
def test_config_key_matches_flag(tmp_path, monkeypatch, key, value):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {value}\n")
    from_flag = _spec_of(monkeypatch, ["sweep-time", f"--{key}", value])
    from_file = _spec_of(monkeypatch, ["sweep-time", "--config", str(cfg)])
    assert from_file == from_flag
    assert from_file != _spec_of(monkeypatch, ["sweep-time"])


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# The paper's tables as the retired driver scripts built them with their defaults.
SHIPPED_CONFIGS = {
    "temporal_tables.cfg": ExperimentSpec(
        "sweep-time", "ex3_1d_case1", betas=(0.25, 0.5, 0.75), n_list=(20, 40, 60, 80, 100),
        m_list=(128,), eval_times=(0.8,), reference="numeric"),
    "spatial_tables.cfg": ExperimentSpec(
        "sweep-space", "ex3_1d_case1", betas=(0.25, 0.5, 0.75), n_list=(60,),
        m_list=(32, 64, 128, 256), eval_times=(0.6,), reference="numeric"),
    "acceleration_report.cfg": ExperimentSpec(
        "accel-compare", "ex3_1d_case1", betas=(0.5,), n_list=(100,), m_list=(1024,),
        n_interp=(4, 6, 8, 10, 12, 14, 16, 18, 20), eval_times=(0.6,)),
    "scalar_decay.cfg": ExperimentSpec(
        "solve", "ex1_scalar", betas=(0.25, 0.5, 0.75), n_list=tuple(range(10, 121, 10)),
        eval_times=(0.6,), contour=ContourConfig(lambda_ratio=10.0)),
    "ex4_spatial_tables.cfg": ExperimentSpec(
        "sweep-space", "ex4_2d_case3", betas=(0.25, 0.5, 0.75), n_list=(60,),
        m_list=(16, 32, 64), eval_times=(0.6,), reference="numeric"),
    "ex4_temporal_tables.cfg": ExperimentSpec(
        "sweep-time", "ex4_2d_case1", betas=(0.5,), n_list=(20, 40, 60, 80),
        m_list=(32,), eval_times=(0.6,), reference="numeric"),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_config_builds_the_table_spec(monkeypatch, name):
    spec = SHIPPED_CONFIGS[name]
    assert _spec_of(monkeypatch, [spec.mode, "--config", str(SCRIPTS / name)]) == (spec, None)


def test_accel_compare_rows_for_each_n_interp(capsys):
    argv = ["accel-compare", "--example", "ex3_1d_case1", "--M", "64", "--N", "60",
            "--n-interp", "6,10", "--times", "0.6"]
    assert main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["n"] for r in rows] == ["6", "", "10", ""]
    _, accel_rows = accel_compare(build_problem("ex3_1d_case1", 0.5, 64), 60, (6, 10), 0.6)
    for accel, plain, (_, dev, iar, _) in zip(rows[::2], rows[1::2], accel_rows):
        assert (accel["error"], accel["iar"]) == (f"{dev:.4E}", f"{iar:.4E}")
        assert (plain["error"], plain["iar"]) == ("", "")
        assert all(r["N"] == "60" and r["M"] == "64" and r["t"] == "0.6" for r in (accel, plain))
    # the plain solve is timed once for the job
    assert rows[1]["wall_ms"] == rows[3]["wall_ms"]


@pytest.mark.parametrize("line", ["Lam = 5", "delta_prime = 0.1"])
def test_config_key_must_spell_a_flag_in_full(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert "unknown config key" in _error_exit(capsys, ["sweep-time", "--config", str(cfg)])


def _solve_rows(capsys, argv):
    assert main(["solve", *argv]) == 0
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def test_solve_mode_scalar_rows_are_exact_errors(capsys):
    rows = _solve_rows(capsys, ["--example", "ex1_scalar", "--N", "20,40", "--times", "0.3,0.9"])
    bp = build_problem("ex1_scalar", 0.5, 32)
    expected = []
    for N in (20, 40):
        u = solve(bp.problem, N, (0.3, 0.9))
        expected += [(str(N), str(t), f"{abs(v - bp.exact(t)):.4E}") for v, t in zip(u, (0.3, 0.9))]
    assert [(r["N"], r["t"], r["error"]) for r in rows] == expected
    assert [r["M"] for r in rows] == ["", "", "", ""]
    assert [r["wall_ms"] != "" for r in rows] == [True, False, True, False]


def test_solve_mode_1d_rows_are_mass_norms(capsys):
    rows = _solve_rows(
        capsys, ["--example", "ex3_1d_case1", "--N", "40", "--M", "16", "--times", "0.3,0.6"]
    )
    bp = build_problem("ex3_1d_case1", 0.5, 16)
    u = solve(bp.problem, 40, (0.3, 0.6))
    assert [r["error"] for r in rows] == [f"{mass_norm(bp.problem.domain, v):.4E}" for v in u]
    assert [r["M"] for r in rows] == ["16", "16"]
    assert [r["wall_ms"] != "" for r in rows] == [True, False]


@pytest.mark.parametrize("mode", ["solve", "accel-compare", "sweep-space"])
def test_modes_without_n_ref_run_beyond_it(capsys, mode):
    # N = 300 exceeds N_REF, which only sweep-time solves
    argv = [mode, "--example", "ex3_1d_case1", "--N", "300", "--M", "8", "--times", "0.6"]
    assert main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows and all(r["N"] == "300" for r in rows)


def test_solves_keep_scipy_fft_out_of_the_process():
    # dst1 uses numpy.fft, and the 2-D transform is a plain numpy matmul; a fresh
    # interpreter that runs a 1-D and a 2-D solve must not import scipy.fft
    script = (
        "import contextlib, io, sys\n"
        "import cimfem.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for ex in ('ex3_1d_case1', 'ex4_2d_case1'):\n"
        "        assert cimfem.cli.main(['solve', '--example', ex, '--N', '20', '--M', '8']) == 0\n"
        "print('scipy.fft' in sys.modules)\n"
    )
    src = str(Path(cimfem.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
