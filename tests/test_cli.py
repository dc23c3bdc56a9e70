import json
import math
import os
import subprocess
import sys

import pytest

from ramp import cli
from ramp.solver import TRACE_COLUMNS, DivergenceError
from ramp.state_evolution import ROW_COLUMNS, SeConfig


def run_cli(*argv):
    return cli.main(list(argv))


def read_trace(path):
    """Split a trace file into (comment dict, header, data rows)."""
    comments = {}
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[2:].partition("=")
                comments[key] = value
            elif header is None:
                header = line
            else:
                rows.append(line.split(","))
    return comments, header, rows


class TestSolve:
    def solve_args(self, out, **overrides):
        options = dict(n=80, p=125, s=16, alpha=1.4, seed=3, loss="ls")
        options.update(overrides)
        argv = ["solve", "--out", str(out)]
        for key, value in options.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        return argv

    def test_writes_trace_and_estimate(self, tmp_path):
        assert run_cli(*self.solve_args(tmp_path)) == 0
        comments, header, rows = read_trace(tmp_path / "solve_trace.csv")
        assert header == "t,b,theta,tau_sq,mse"
        assert comments["seed"] == "3"
        assert comments["alpha"] == "1.4"
        assert [r[0] for r in rows[:2]] == ["0", "1"]
        assert all(math.isfinite(float(v)) for v in rows[-1][1:])

        est_comments, _, _ = read_trace(tmp_path / "solve_estimate.txt")
        assert est_comments["seed"] == "3"
        with open(tmp_path / "solve_estimate.txt") as fh:
            coords = [l for l in fh if not l.startswith("#")]
        assert len(coords) == 125
        float(coords[0])

    def test_huge_tol_single_step(self, tmp_path):
        assert run_cli(*self.solve_args(tmp_path, tol=100.0)) == 0
        _, _, rows = read_trace(tmp_path / "solve_trace.csv")
        assert [r[0] for r in rows] == ["0", "1"]

    def test_verbose_iterations_count_the_trace_rows(self, tmp_path, capsys):
        # -v prints RampResult.iterations, which counts the bootstrap pass:
        # one per data row of the trace
        assert run_cli(*self.solve_args(tmp_path), "-v") == 0
        _, _, rows = read_trace(tmp_path / "solve_trace.csv")
        assert capsys.readouterr().err.split()[:2] == ["iterations", str(len(rows))]

    def test_iteration_cap_exit_code(self, tmp_path):
        assert run_cli(*self.solve_args(tmp_path, max_iter=1,
                                        tol=1e-12)) == 2
        assert (tmp_path / "solve_trace.csv").exists()

    def test_sparsity_gate_blocks_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "sub"
        assert run_cli(*self.solve_args(out, n=50, s=60, p=100)) == 1
        assert "sparsity" in capsys.readouterr().err
        assert not out.exists()

    def test_sparsity_above_p_rejected(self, tmp_path):
        assert run_cli(*self.solve_args(tmp_path, n=300, s=130, p=125)) == 1

    def test_divergence_exit_code(self, tmp_path, monkeypatch):
        def blow_up(inst, loss, config):
            raise DivergenceError(4)
        monkeypatch.setattr(cli, "run_ramp", blow_up)
        assert run_cli(*self.solve_args(tmp_path)) == 3
        assert list(tmp_path.iterdir()) == []

    def test_calibration_failure_exit_code(self, tmp_path, capsys):
        # the solver's huber calibration is exact and has no bracket, but
        # state evolution's Newton keeps the limits [1e-12, 1e12]: noise of
        # scale 1e14 puts the population root past b = 1e12
        assert run_cli("se", "--losses", "huber", "--noise", "normal",
                       "--noise-param", "1e28", "--out", str(tmp_path)) == 1
        assert "not bracketed" in capsys.readouterr().err

    def test_reruns_are_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*self.solve_args(a, n=60, p=90, s=9)) == 0
        assert run_cli(*self.solve_args(b, n=60, p=90, s=9)) == 0
        for name in ("solve_trace.csv", "solve_estimate.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=60\np=90\ns=9\nalpha=2.0\nseed=5\n# comment\n")
        out = tmp_path / "out"
        assert run_cli("solve", "--config", str(cfg), "--alpha", "1.3",
                       "--out", str(out)) == 0
        comments, _, _ = read_trace(out / "solve_trace.csv")
        assert comments["alpha"] == "1.3"
        assert comments["n"] == "60"

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("banana=1\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--config", str(cfg))
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,line", [
        ("solve", "noise=foo"), ("solve", "design=foo"), ("se", "noise=foo"),
        ("se", "noise=mixnormal"), ("bench", "study=foo")])
    def test_bad_config_choice_is_usage_error(self, tmp_path, capsys,
                                              command, line):
        # config values are checked against the same choices as the flags
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", str(cfg), "--out", str(tmp_path))
        assert exc.value.code == 2
        assert "bad value for config key" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_missing_config_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--config", str(tmp_path / "absent.cfg"))
        assert exc.value.code == 2

    def test_negative_max_iter_rejected(self, tmp_path, capsys):
        out = tmp_path / "sub"
        assert run_cli(*self.solve_args(out, max_iter=-1)) == 1
        assert "max_iter must be at least 1, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "sub"
        assert run_cli(*self.solve_args(out, seed=-1)) == 1
        assert ("base_seed must be a nonnegative integer, got -1"
                in capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize("command,flag,message", [
    ("solve", "--alpha", "alpha must be positive and finite, got inf"),
    ("solve", "--tol", "tol must be finite, got inf"),
    ("se", "--alpha", "alpha must be nonnegative and finite, got inf"),
    ("se", "--tol", "tol must be finite, got inf"),
], ids=["solve-alpha", "solve-tol", "se-alpha", "se-tol"])
def test_infinite_alpha_or_tol_rejected_before_any_output(tmp_path, capsys, command,
                                                          flag, message):
    # an infinite alpha thresholds every coordinate to zero and an infinite
    # tol stops at once, so neither runs to a result
    out = tmp_path / "sub"
    assert run_cli(command, flag, "inf", "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("solve", "--loss", "huber", "--gamma", "inf"),
    ("se", "--losses", "huber", "--gamma", "inf"),
], ids=["solve", "se"])
def test_infinite_huber_knee_rejected_before_any_output(tmp_path, capsys, argv):
    # Huber with an infinite knee is least squares under a huber_inf label
    out = tmp_path / "sub"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert "huber loss needs a finite gamma > 0" in capsys.readouterr().err
    assert not out.exists()


class TestSe:
    def test_fixed_point_summary(self, tmp_path):
        assert run_cli("se", "--losses", "ls,huber", "--alpha", "2",
                       "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "se_summary.json").read_text())
        ls = summary["results"]["least_squares"]
        assert abs(ls["tau_star_sq"] - 0.36576643791) < 1e-9
        assert ls["converged"] is True
        assert ls["info_bound_pass"] is True
        assert abs(summary["info_lower_bound"] - 0.05) < 1e-12
        assert summary["config"]["alpha"] == 2.0

        _, header, rows = read_trace(tmp_path / "se_trace_least_squares.csv")
        assert header == "t,sigma_sq,tau_sq,b,theta"
        assert len(rows) >= 2
        assert (tmp_path / "se_trace_huber_1.csv").exists()

    def test_no_penalty_amse_is_the_scale(self, tmp_path):
        assert run_cli("se", "--omega", "1", "--alpha", "0", "--losses", "lad",
                       "--delta", "3", "--noise", "laplace",
                       "--noise-param", "1", "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "se_summary.json").read_text())
        cell = summary["results"]["absolute"]
        # at alpha = 0 the fixed point has delta sigma*^2 = tau*^2
        assert abs(cell["amse"] - cell["tau_star_sq"]) <= SeConfig().tol * cell["tau_star_sq"]
        assert abs(cell["tau_star_sq"] - 3.10362499337) < 1e-9

    def test_no_penalty_information_bound(self, tmp_path):
        # the unpenalized fit has eps = p/n = 1/delta, so the floor on tau*^2
        # is eps/(1 - eps)/I = sigma_w^2/(delta - 1) = 0.1
        assert run_cli("se", "--omega", "1", "--alpha", "0", "--delta", "3",
                       "--losses", "ls", "--noise", "normal",
                       "--noise-param", "0.2", "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "se_summary.json").read_text())
        assert abs(summary["info_lower_bound"] - 0.1) < 1e-12
        cell = summary["results"]["least_squares"]
        # least squares: tau*^2 = sigma_w^2 delta/(delta - 1)
        assert abs(cell["tau_star_sq"] - 0.3) < 1e-5
        assert cell["info_bound_pass"] is True

    def test_zero_alpha_needs_full_support(self, tmp_path, capsys):
        out = tmp_path / "sub"
        assert run_cli("se", "--alpha", "0", "--losses", "ls",
                       "--out", str(out)) == 1
        assert "needs omega = 1" in capsys.readouterr().err
        assert not out.exists()

    def test_failure_after_a_finished_loss_leaves_no_output(self, tmp_path,
                                                             capsys):
        # least squares reaches its fixed point, then Huber's calibration
        # fails: the finished loss's trace is not written either
        out = tmp_path / "sub"
        assert run_cli("se", "--losses", "ls,huber", "--noise-param", "1e28",
                       "--out", str(out)) == 1
        assert "not bracketed" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("se", "--mode", "no_penalty", "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_empty_loss_list_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("se", "--losses", "", "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_divergent_pair_exit_code(self, tmp_path):
        code = run_cli("se", "--losses", "ls", "--noise", "cauchy",
                       "--noise-param", "1", "--out", str(tmp_path))
        assert code == 3
        summary = json.loads((tmp_path / "se_summary.json").read_text())
        cell = summary["results"]["least_squares"]
        assert cell["diverged"] is True
        assert cell["amse"] is None
        assert cell["info_bound_pass"] is None

    def test_negative_init_tau_sq_rejected(self, tmp_path, capsys):
        out = tmp_path / "sub"
        assert run_cli("se", "--losses", "ls", "--init-tau-sq", "-1",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "init_tau_sq must be finite and positive, got -1.0" in err
        assert not out.exists()

    def test_zero_init_tau_sq_rejected(self, tmp_path, capsys):
        out = tmp_path / "sub"
        assert run_cli("se", "--losses", "ls,lad", "--init-tau-sq", "0",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "init_tau_sq must be finite and positive, got 0.0" in err
        assert not out.exists()

    def test_help_states_the_init_tau_sq_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("se", "--help")
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "starting tau^2, finite and positive (default: the zero-estimate start" in help_text

    def test_nonpositive_tol_rejected(self, tmp_path, capsys):
        assert run_cli("se", "--losses", "ls", "--tol", "0",
                       "--out", str(tmp_path)) == 1
        assert "tol must be positive, got 0.0" in capsys.readouterr().err

    def test_engine_flag_is_usage_error(self, tmp_path):
        # state evolution has one deterministic path; there is no engine
        with pytest.raises(SystemExit) as exc:
            run_cli("se", "--engine", "mc", "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_engine_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "se.cfg"
        cfg.write_text("engine=mc\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("se", "--config", str(cfg), "--out", str(tmp_path))
        assert exc.value.code == 2
        assert "unknown config key 'engine'" in capsys.readouterr().err

    def test_summary_has_no_seed(self, tmp_path):
        assert run_cli("se", "--losses", "ls", "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "se_summary.json").read_text())
        assert sorted(summary) == ["config", "info_lower_bound", "results"]
        comments, _, _ = read_trace(tmp_path / "se_trace_least_squares.csv")
        assert not {"engine", "mc_samples", "seed"} & set(comments)

    def test_unknown_loss_fails(self, tmp_path, capsys):
        assert run_cli("se", "--losses", "tukey", "--out", str(tmp_path)) == 1
        assert "unknown loss" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        # the child process imports the same ramp as the tests, installed
        # or not
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ramp.cli", "se", "--losses", "ls", "-v",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert proc.stderr.splitlines()[0] == "least_squares: tau*^2 0.36576643791"

    def test_smallest_init_tau_sq_runs_without_warnings(self, tmp_path):
        # the first window lies past 1.3e154 residual sds, where phi is 0
        # and its exponent overflows; the run neither fails nor warns
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ramp.cli", "se", "--init-tau-sq", "1e-320",
             "--noise", "laplace", "--noise-param", "1", "--losses", "lad",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert "Warning" not in proc.stderr

    def test_reruns_are_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("se", "--losses", "ls", "--out", str(out)) == 0
        assert ((a / "se_summary.json").read_bytes()
                == (b / "se_summary.json").read_bytes())
        assert ((a / "se_trace_least_squares.csv").read_bytes()
                == (b / "se_trace_least_squares.csv").read_bytes())


@pytest.mark.parametrize("argv", [
    ("se", "--losses", "ls", "--noise", "student_t", "--noise-param", "inf"),
    ("se", "--losses", "lad", "--noise", "laplace", "--noise-param", "nan"),
    ("solve", "--noise", "normal", "--noise-param", "inf"),
    ("solve", "--noise", "cauchy", "--noise-param", "inf"),
], ids=["se_t_inf", "se_laplace_nan", "solve_normal_inf", "solve_cauchy_inf"])
def test_nonfinite_noise_parameter_rejected_before_output(tmp_path, capsys, argv):
    # t(inf) would otherwise reach SE with an infinite variance and read as
    # diverged, and normal(inf) would fail the solver at iteration 0
    out = tmp_path / "sub"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_trace_headers_are_the_row_constants(tmp_path):
    # the header is the constant declared next to the rows, so a column
    # added to the rows and named there reaches the file
    assert run_cli("solve", "--n", "80", "--p", "125", "--s", "16",
                   "--out", str(tmp_path / "solve")) == 0
    assert run_cli("se", "--losses", "ls,lad", "--out", str(tmp_path / "se")) == 0
    for path, columns in ((tmp_path / "solve" / "solve_trace.csv", TRACE_COLUMNS),
                          (tmp_path / "se" / "se_trace_least_squares.csv", ROW_COLUMNS),
                          (tmp_path / "se" / "se_trace_absolute.csv", ROW_COLUMNS)):
        _, header, rows = read_trace(path)
        assert header == ",".join(columns)
        assert rows and all(len(row) == len(columns) for row in rows)


class TestBench:
    def test_dense_study(self, tmp_path):
        assert run_cli("bench", "--study", "dense",
                       "--out", str(tmp_path)) == 0
        lines = (tmp_path / "dense_efficiency.csv").read_text().splitlines()
        assert len(lines) == 25
        meta = json.loads((tmp_path / "dense_efficiency_meta.json").read_text())
        assert meta["study"] == "dense_efficiency"
        assert meta["alpha"] == 0.0 and "mode" not in meta
        assert "versions" in meta

    def test_unknown_study_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--study", "mystery", "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_missing_study_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_seed_zero_is_kept(self, tmp_path):
        assert run_cli("bench", "--study", "design", "--seed", "0",
                       "--replications", "1", "--out", str(tmp_path)) == 0
        meta = json.loads((tmp_path / "design_robustness_meta.json").read_text())
        assert meta["base_seed"] == 0
        assert meta["replications"] == 1

    def test_default_seeds_come_from_the_study_specs(self, tmp_path):
        assert run_cli("bench", "--study", "design", "--replications", "1",
                       "--out", str(tmp_path)) == 0
        meta = json.loads((tmp_path / "design_robustness_meta.json").read_text())
        assert meta["base_seed"] == 31000 and meta["replications"] == 1
        assert run_cli("bench", "--study", "convergence", "--replications",
                       "1", "--out", str(tmp_path)) == 0
        meta = json.loads((tmp_path / "convergence_study_meta.json").read_text())
        assert meta["seeds"] == [20000]

    def test_negative_seed_rejected(self, tmp_path, capsys):
        for study in ("design", "convergence"):
            assert run_cli("bench", "--study", study, "--seed", "-1",
                           "--replications", "1", "--out", str(tmp_path)) == 1
            assert ("base_seed must be a nonnegative integer, got -1"
                    in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("study", ["dense", "sparse", "noise"])
    def test_sampling_flags_rejected_without_samples(self, tmp_path, capsys,
                                                     study):
        for flags in (("--seed", "5"), ("--replications", "7"),
                      ("--seed", "5", "--replications", "7")):
            with pytest.raises(SystemExit) as exc:
                run_cli("bench", "--study", study, *flags,
                        "--out", str(tmp_path))
            assert exc.value.code == 2
            assert "draws no samples" in capsys.readouterr().err
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("seed=5\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--study", study, "--config", str(cfg),
                    "--out", str(tmp_path))
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == [cfg]

    def test_zero_replications_rejected(self, tmp_path, capsys):
        for study in ("design", "convergence"):
            assert run_cli("bench", "--study", study, "--replications", "0",
                           "--out", str(tmp_path)) == 1
            assert "at least one replication" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RAMP_OUTPUT_DIR", str(tmp_path))
        assert run_cli("bench", "--study", "dense") == 0
        assert (tmp_path / "dense_efficiency.csv").exists()
