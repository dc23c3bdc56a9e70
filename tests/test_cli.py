import json
import math
import os
import subprocess
import sys

import pytest

from ramp import cli
from ramp.solver import DivergenceError


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


class TestProx:
    @pytest.mark.parametrize("argv,expected", [
        (("--loss", "lad", "--z", "0.5", "--b", "1"), (0.0, 0.5, 1.0)),
        (("--loss", "ls", "--z", "2", "--b", "1"), (1.0, 1.0, 0.5)),
        (("--loss", "huber", "--gamma", "1", "--z", "3", "--b", "1"),
         (2.0, 1.0, 0.0)),
    ])
    def test_known_triples(self, capsys, argv, expected):
        assert run_cli("prox", *argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out] == ["prox", "score", "deriv"]
        values = tuple(float(line.split()[1]) for line in out)
        assert values == expected

    def test_unknown_loss_fails(self, capsys):
        assert run_cli("prox", "--loss", "tukey", "--z", "1", "--b", "1") == 1
        assert "unknown loss" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("prox", "--loss", "ls", "--z", "1")
        assert exc.value.code == 2

    def test_module_entry_point(self):
        # the child process imports the same ramp as the tests, installed
        # or not
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ramp.cli", "prox", "--loss", "ls",
             "--z", "2", "--b", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "prox 1"


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

    def test_missing_config_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--config", str(tmp_path / "absent.cfg"))
        assert exc.value.code == 2


class TestSe:
    def test_fixed_point_summary(self, tmp_path):
        assert run_cli("se", "--losses", "ls,huber", "--alpha", "2",
                       "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "se_summary.json").read_text())
        ls = summary["results"]["least_squares"]
        assert abs(ls["tau_star_sq"] - 0.365766482169) < 1e-9
        assert ls["converged"] is True
        assert ls["info_bound_pass"] is True
        assert abs(summary["info_lower_bound"] - 0.05) < 1e-12
        assert summary["config"]["alpha"] == 2.0

        _, header, rows = read_trace(tmp_path / "se_trace_least_squares.csv")
        assert header == "t,sigma_sq,tau_sq,b,theta"
        assert len(rows) >= 2
        assert (tmp_path / "se_trace_huber_1.csv").exists()

    def test_no_penalty_amse_is_the_scale(self, tmp_path):
        assert run_cli("se", "--mode", "no_penalty", "--losses", "lad",
                       "--delta", "3", "--noise", "laplace",
                       "--noise-param", "1", "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "se_summary.json").read_text())
        cell = summary["results"]["absolute"]
        assert cell["amse"] == cell["tau_star_sq"]
        assert abs(cell["tau_star_sq"] - 3.103624351393) < 1e-6

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

    def test_reruns_are_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("se", "--losses", "ls", "--out", str(out)) == 0
        assert ((a / "se_summary.json").read_bytes()
                == (b / "se_summary.json").read_bytes())
        assert ((a / "se_trace_least_squares.csv").read_bytes()
                == (b / "se_trace_least_squares.csv").read_bytes())


class TestBench:
    def test_dense_study(self, tmp_path):
        assert run_cli("bench", "--study", "dense",
                       "--out", str(tmp_path)) == 0
        lines = (tmp_path / "dense_efficiency.csv").read_text().splitlines()
        assert len(lines) == 25
        meta = json.loads((tmp_path / "dense_efficiency_meta.json").read_text())
        assert meta["study"] == "dense_efficiency"
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
