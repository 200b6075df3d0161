import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import drsplit
from drsplit import experiments, pddr
from drsplit.cli import main
from drsplit.ppa_core import IterationDiverged
from drsplit.report import read_scan_csv, read_trace_csv


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLad:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, stdout, stderr = run(
            ["lad", "--m", "20", "--n", "10", "--max-iter", "40",
             "--out", str(out)], capsys)
        assert code == 0
        assert "finished after 40 iterations" in stdout
        trace = read_trace_csv(out)
        assert len(trace.rows) == 40
        assert [r.k for r in trace.rows] == list(range(40))

    def test_config_echo_is_json(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        _, _, stderr = run(
            ["lad", "--m", "20", "--n", "10", "--max-iter", "5",
             "--out", str(out)], capsys)
        line = next(l for l in stderr.splitlines()
                    if l.startswith("resolved config: "))
        cfg = json.loads(line.removeprefix("resolved config: "))
        assert cfg["m"] == 20
        assert cfg["policy"] == "ts-adaptive"
        assert cfg["max_iter"] == 5
        assert cfg["tol"] == 0.0

    def test_plot_written(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        svg = tmp_path / "trace.svg"
        code, _, _ = run(
            ["lad", "--m", "20", "--n", "10", "--max-iter", "10",
             "--out", str(out), "--plot", str(svg)], capsys)
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_constant_policy_flag(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, _, _ = run(
            ["lad", "--m", "20", "--n", "10", "--max-iter", "10",
             "--policy", "constant", "--t0", "1.1", "--s0", "0.9",
             "--out", str(out)], capsys)
        assert code == 0
        trace = read_trace_csv(out)
        assert all(r.t == 1.1 and r.s == 0.9 for r in trace.rows)


class TestTv:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "tv.csv"
        code, stdout, _ = run(
            ["tv", "--n", "50", "--max-iter", "30", "--out", str(out)],
            capsys)
        assert code == 0
        assert len(read_trace_csv(out).rows) == 30


class TestSpectrum:
    def test_scan_csv_and_plot(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        svg = tmp_path / "spec.svg"
        code, stdout, _ = run(
            ["spectrum", "--half-dim", "4", "--grid", "3",
             "--grid-min", "0.1", "--grid-max", "10",
             "--out", str(out), "--plot", str(svg)], capsys)
        assert code == 0
        scan = read_scan_csv(out)
        assert len(scan.rows) == 9
        assert "best radius" in stdout
        assert "<ellipse" in svg.read_text()

    def test_infinite_grid_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(
            ["spectrum", "--half-dim", "3", "--grid", "3", "--grid-max", "inf",
             "--out", str(tmp_path / "scan.csv")], capsys)
        assert code == 2
        assert "invalid configuration" in stderr

    def test_unverifiable_iteration_matrix_exit_1(self, tmp_path, capsys):
        # At steps near 1e200 the closed form overflows, so the identity
        # check cannot vouch for the matrix: a numerical abort, not a traceback.
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, stderr = run(
                ["spectrum", "--half-dim", "3", "--grid", "3", "--grid-max", "1e200",
                 "--out", str(tmp_path / "scan.csv")], capsys)
        assert code == 1
        assert "numerical abort: iteration-matrix identity violated" in stderr

    def test_ill_conditioned_valid_scan_exit_0(self, tmp_path, capsys):
        # At this seed the closed form is far less accurate than the two-step
        # matrix (a gap of 3.9e-9 between them), yet the residual of the
        # closed-form equation is at roundoff: the scan is valid.
        out = tmp_path / "scan.csv"
        code, stdout, stderr = run(
            ["spectrum", "--seed", "2186666259", "--out", str(out)], capsys)
        assert code == 0, stderr
        assert len(read_scan_csv(out).rows) == 400
        assert "best radius" in stdout

    def test_eigen_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        code, _, stderr = run(
            ["spectrum", "--half-dim", "3", "--grid", "2",
             "--out", str(tmp_path / "scan.csv")], capsys)
        assert code == 1
        assert "numerical abort: Eigenvalues did not converge" in stderr


class TestCompare:
    def test_one_csv_per_policy(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code, stdout, _ = run(
            ["compare", "--problem", "lad", "--m", "20", "--n", "10",
             "--max-iter", "15", "--out-dir", str(out_dir)], capsys)
        assert code == 0
        names = sorted(p.name for p in out_dir.glob("*.csv"))
        assert names == ["constant.csv", "t-adaptive.csv", "ts-adaptive.csv"]
        assert stdout.count("final objective") == 3

    def test_grid_adds_runs(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code, _, _ = run(
            ["compare", "--problem", "lad", "--m", "20", "--n", "10",
             "--max-iter", "5", "--policies", "constant",
             "--grid", "2", "--grid-min", "0.5", "--grid-max", "2.0",
             "--out-dir", str(out_dir)], capsys)
        assert code == 0
        assert len(list(out_dir.glob("*.csv"))) == 1 + 4

    def test_plot_with_labels(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        svg = tmp_path / "cmp.svg"
        code, _, _ = run(
            ["compare", "--problem", "tv", "--n", "40", "--max-iter", "10",
             "--out-dir", str(out_dir), "--plot", str(svg)], capsys)
        assert code == 0
        text = svg.read_text()
        assert ">ts-adaptive</text>" in text

    def test_unusable_out_dir_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_comparison called before the out dir was made")

        monkeypatch.setattr(experiments, "run_comparison", never)
        taken = tmp_path / "runs"
        taken.write_text("")
        code, _, stderr = run(
            ["compare", "--problem", "lad", "--m", "20", "--n", "10",
             "--max-iter", "5", "--out-dir", str(taken)], capsys)
        assert code == 1
        assert "i/o failure" in stderr

    def test_single_policy_flag_is_not_accepted(self, tmp_path, capsys):
        # compare runs --policies; a --policy it would ignore is an argparse
        # usage error, not a silent no-op.
        with pytest.raises(SystemExit) as info:
            main(["compare", "--m", "20", "--n", "10", "--policy", "constant",
                  "--out-dir", str(tmp_path / "x")])
        assert info.value.code == 2
        assert "unrecognized arguments: --policy" in capsys.readouterr().err

    def test_negative_grid_is_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code, _, stderr = run(
            ["compare", "--problem", "lad", "--m", "20", "--n", "10",
             "--max-iter", "5", "--grid", "-2", "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert "invalid configuration: grid size must be nonnegative" in stderr
        assert not out_dir.exists()

    def test_unknown_policy_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(
            ["compare", "--problem", "lad", "--m", "20", "--n", "10",
             "--max-iter", "5", "--policies", "constant,bogus",
             "--out-dir", str(tmp_path / "x")], capsys)
        assert code == 2
        assert "invalid configuration" in stderr
        assert "usage:" in stderr

    def test_repeated_policy_is_usage_error(self, tmp_path, capsys):
        # A second run of one name would overwrite the first one's CSV.
        out_dir = tmp_path / "runs"
        code, _, stderr = run(
            ["compare", "--problem", "lad", "--m", "20", "--n", "10",
             "--max-iter", "5", "--policies", "ts-adaptive,constant,ts-adaptive",
             "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert "invalid configuration: repeated policies: ts-adaptive" in stderr
        assert not out_dir.exists()

    def test_repeated_grid_name_is_usage_error(self, tmp_path, capsys):
        # Grid stepsizes that agree to four digits format to one run name;
        # the check covers the grid runs too, before any solve.
        out_dir = tmp_path / "runs"
        code, stdout, stderr = run(
            ["compare", "--problem", "lad", "--m", "20", "--n", "10",
             "--max-iter", "5", "--grid", "3", "--grid-min", "1",
             "--grid-max", "1.0001", "--policies", "constant",
             "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert ("invalid configuration: repeated policies: "
                "constant_t1.000e+00_s1.000e+00") in stderr
        assert "final objective" not in stdout
        assert not out_dir.exists()


class TestConfigEcho:
    SOLVER_KEYS = {"cap", "command", "max_iter", "n", "out", "plot", "policy",
                   "reg_weight", "s0", "safeguard_hi", "safeguard_lo", "seed", "t0", "tol"}

    @pytest.mark.parametrize("argv, keys", [
        (["lad", "--m", "20", "--n", "10", "--max-iter", "2", "--out", "{tmp}/t.csv"],
         SOLVER_KEYS | {"m"}),
        (["tv", "--n", "20", "--max-iter", "2", "--out", "{tmp}/t.csv"],
         SOLVER_KEYS | {"noise"}),
        (["spectrum", "--half-dim", "2", "--grid", "2", "--out", "{tmp}/scan.csv"],
         {"command", "grid", "grid_max", "grid_min", "half_dim", "out", "plot", "seed"}),
        (["compare", "--m", "20", "--n", "10", "--max-iter", "2", "--out-dir", "{tmp}/runs"],
         SOLVER_KEYS - {"out", "policy"} | {"grid", "grid_max", "grid_min", "m", "noise",
                                            "out_dir", "policies", "problem"}),
    ], ids=["lad", "tv", "spectrum", "compare"])
    def test_echo_has_exactly_these_keys(self, tmp_path, capsys, argv, keys):
        code, _, stderr = run([a.format(tmp=tmp_path) for a in argv], capsys)
        assert code == 0
        line = next(l for l in stderr.splitlines()
                    if l.startswith("resolved config: "))
        assert set(json.loads(line.removeprefix("resolved config: "))) == keys

    @pytest.mark.parametrize("argv", [
        ["lad", "--m", "20", "--n", "10", "--policy", "constant", "--out", "{tmp}/t.csv"],
        ["compare", "--m", "20", "--n", "10", "--policies", "constant",
         "--out-dir", "{tmp}/runs"],
    ], ids=["lad", "compare"])
    def test_constant_policy_still_checks_safeguards(self, tmp_path, capsys, argv):
        # Safeguards a constant policy never reads are still usage errors.
        code, _, stderr = run([a.format(tmp=tmp_path) for a in argv]
                              + ["--max-iter", "2", "--safeguard-hi", "inf"], capsys)
        assert code == 2
        assert "invalid configuration" in stderr


class TestExitCodes:
    def test_bad_dimensions_exit_2(self, tmp_path, capsys):
        code, _, stderr = run(
            ["lad", "--m", "10", "--n", "10", "--out",
             str(tmp_path / "t.csv")], capsys)
        assert code == 2
        assert "invalid configuration" in stderr

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        code, _, stderr = run(
            ["lad", "--m", "20", "--n", "10", "--max-iter", "5",
             "--out", str(tmp_path / "missing" / "t.csv")], capsys)
        assert code == 1
        assert "i/o failure" in stderr

    def test_numerical_abort_exit_1(self, tmp_path, capsys, monkeypatch):
        def boom(*a, **kw):
            raise IterationDiverged(7)

        monkeypatch.setattr(pddr, "solve", boom)
        code, _, stderr = run(
            ["lad", "--m", "20", "--n", "10", "--max-iter", "5",
             "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 1
        assert "numerical abort" in stderr
        assert "step 7" in stderr

    def test_failed_factorization_exit_1(self, tmp_path, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        out = tmp_path / "t.csv"
        code, _, stderr = run(
            ["lad", "--m", "20", "--n", "10", "--max-iter", "5",
             "--out", str(out)], capsys)
        assert code == 1
        assert stderr.splitlines()[1:] == [
            "numerical abort: Matrix is not positive definite"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--half-dim", "1", "--grid", "2", "--grid-min", "1e-300",
         "--grid-max", "1e300"],
        ["tv", "--noise", "1e300", "--max-iter", "5"],
    ], ids=["spectrum", "tv"])
    def test_overflow_aborts_on_one_line(self, tmp_path, capsys, argv):
        # No np.errstate here: the suite turns warnings into errors, so a
        # numpy overflow warning escaping the command would fail the test.
        code, _, stderr = run(argv + ["--out", str(tmp_path / "t.csv")], capsys)
        assert code == 1
        lines = stderr.splitlines()
        assert lines[0].startswith("resolved config: ")
        assert len(lines) == 2 and lines[1].startswith("numerical abort: ")

    def test_missing_subcommand_is_argparse_exit(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["f_prox", "gstar_prox"])
    def test_diverging_prox_exit_1(self, tmp_path, capsys, monkeypatch, side, bad):
        # A real solve whose primal or dual prox goes non-finite at sweep 3
        # is a numerical abort naming that sweep, not a usage error.
        real = experiments.gen_lad

        def gen_bombed(*args, **kwargs):
            inst, prob = real(*args, **kwargs)
            good = getattr(prob, side)
            calls = [0]

            def bomb(v, step):
                out = good(v, step)
                calls[0] += 1
                if calls[0] > 3:
                    out = out.copy()
                    out[0] = bad
                return out

            return inst, replace(prob, **{side: bomb})

        monkeypatch.setattr(experiments, "gen_lad", gen_bombed)
        out = tmp_path / "t.csv"
        with np.errstate(invalid="ignore"):
            code, _, stderr = run(
                ["lad", "--m", "20", "--n", "10", "--max-iter", "20",
                 "--out", str(out)], capsys)
        assert code == 1
        assert "numerical abort: non-finite iterate at step 3" in stderr
        assert "invalid configuration" not in stderr
        assert not out.exists()


class TestNonFiniteSettings:
    @pytest.mark.parametrize("flags", [
        ["--cap", "nan"],
        ["--cap", "inf"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--policy", "constant", "--t0", "nan"],
        ["--policy", "constant", "--s0", "inf"],
        ["--t0", "nan"],
        ["--s0=-inf"],
        ["--safeguard-hi", "inf"],
        ["--safeguard-lo", "nan"],
        ["--lambda", "nan"],
    ], ids=lambda flags: " ".join(flags))
    def test_usage_error_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "t.csv"
        code, _, stderr = run(
            ["lad", "--m", "20", "--n", "10", "--max-iter", "5",
             "--out", str(out), *flags], capsys)
        assert code == 2
        assert "invalid configuration" in stderr
        assert "numerical abort" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--lambda", "inf"],
        ["--lambda", "nan"],
        ["--noise", "nan"],
        ["--noise", "inf"],
    ], ids=lambda flags: " ".join(flags))
    def test_tv_usage_error_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "t.csv"
        code, _, stderr = run(
            ["tv", "--n", "20", "--max-iter", "5", "--out", str(out), *flags], capsys)
        assert code == 2
        assert "invalid configuration" in stderr
        assert "numerical abort" not in stderr
        assert not out.exists()


class TestImportPath:
    @pytest.mark.parametrize("argv", [
        ["lad", "--max-iter", "5", "--out", "{tmp}/t.csv"],
        ["spectrum", "--half-dim", "3", "--grid", "3", "--out", "{tmp}/t.csv",
         "--plot", "{tmp}/t.svg"],
    ], ids=["lad", "spectrum"])
    def test_command_loads_no_scipy(self, tmp_path, argv):
        # scipy is loaded only for the TV factor: a fresh interpreter that
        # imports the package and the CLI and runs a short LAD solve or a
        # small spectral scan with its plot leaves no scipy module behind.
        out = tmp_path / "t.csv"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code = (
            "import sys\n"
            "import drsplit, drsplit.cli\n"
            f"assert drsplit.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = str(Path(drsplit.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert out.exists()
