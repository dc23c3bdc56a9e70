import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from ramp import experiments
from ramp.experiments import (
    DEFAULT_SPARSE_ALPHAS,
    ExperimentSpec,
    Report,
    convergence_study_spec,
    generate_instance,
    noise_label,
    run_convergence_study,
    run_dense_efficiency,
    run_design_study,
    run_noise_study,
    run_sparse_efficiency,
    write_report,
)
from ramp.losses import absolute, huber, least_squares, loss_label, quantile
from ramp.state_evolution import Cauchy, DistributionModel, Laplace, Normal, NormalMixture, \
    StudentT, pm_one_prior, tune_alpha


def small_spec(**overrides):
    kw = dict(n=80, p=125, s=16, noise=Normal(0.2), replications=2)
    kw.update(overrides)
    return ExperimentSpec(**kw)


class TestGenerateInstance:
    def test_benchmark_geometry(self):
        spec = convergence_study_spec(replications=1)
        inst = generate_instance(spec, spec.seeds[0])
        assert (inst.n, inst.p, inst.s) == (320, 500, 64)
        assert np.count_nonzero(inst.x_true) == 64
        assert set(np.unique(inst.x_true[inst.x_true != 0])) == {-1.0, 1.0}

    def test_same_seed_same_bits(self):
        spec = small_spec()
        a = generate_instance(spec, 7)
        b = generate_instance(spec, 7)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x_true, b.x_true)

    def test_different_seeds_differ(self):
        spec = small_spec()
        a = generate_instance(spec, 7)
        b = generate_instance(spec, 8)
        assert not np.array_equal(a.y, b.y)

    def test_gaussian_column_scale(self):
        spec = small_spec(n=400, p=300)
        inst = generate_instance(spec, 0)
        # entries are N(0, 1/n): the pooled second moment self-averages
        pooled = float(np.mean(spec.n * inst.A ** 2))
        assert abs(pooled - 1.0) < 0.02

    def test_rademacher_entries_and_norms(self):
        spec = small_spec(design="rademacher")
        inst = generate_instance(spec, 3)
        scaled = np.sqrt(spec.n) * inst.A
        assert set(np.unique(scaled)) == {-1.0, 1.0}
        np.testing.assert_allclose(np.sum(inst.A ** 2, axis=0),
                                   np.ones(spec.p), rtol=1e-12)

    def test_oversparse_raises(self):
        # the spec rejects the sparsity before any design is drawn
        for n, p, s in ((200, 125, 126), (80, 125, 0), (80, 125, 80),
                        (80, 125, 81), (80, 125, -1)):
            with pytest.raises(ValueError, match="sparsity"):
                small_spec(n=n, p=p, s=s)


class TestExperimentSpec:
    def test_rejects_unknown_design(self):
        with pytest.raises(ValueError):
            small_spec(design="fourier")

    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            small_spec(replications=0)

    def test_default_seeds_cover_replications(self):
        spec = small_spec(replications=5)
        assert len(spec.seeds) == 5
        assert len(set(spec.seeds)) == 5

    def test_empty_alpha_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            small_spec(alphas=())

    def test_alphas_coerced_to_floats(self):
        spec = small_spec(alphas=np.array([1.0, 1.5]))
        assert spec.alphas == (1.0, 1.5)
        assert all(type(a) is float for a in spec.alphas)


class TestLabels:
    def test_loss_labels(self):
        assert loss_label(least_squares()) == "least_squares"
        assert loss_label(huber(1.0)) == "huber_1"
        assert loss_label(absolute()) == "absolute"
        assert loss_label(quantile(0.7)) == "quantile_0.7"

    def test_noise_labels(self):
        assert noise_label(Normal(0.2)) == "normal_0.2"
        assert noise_label(Laplace(1.0)) == "laplace_1"
        assert noise_label(StudentT(4)) == "student_t_4"
        assert noise_label(StudentT(4, scale=2)) == "student_t_4_2"
        assert noise_label(Cauchy(1.0)) == "cauchy_1"
        mix = NormalMixture(((0.5, 0.3), (0.5, 1.0)))
        assert noise_label(mix) == "mixnormal_0.5xN(0,0.3)+0.5xN(0,1)"


class TestWriteReport:
    def demo_report(self):
        return Report(
            name="demo",
            columns=("noise", "delta", "amse"),
            rows=(("normal_0.2", 10.0, 0.2222), ("laplace_1", 3.0, math.nan)),
            metadata={"study": "demo", "seeds": [1, 2, 3]})

    def test_round_trip(self, tmp_path):
        csv_path, meta_path = write_report(self.demo_report(), str(tmp_path))
        with open(csv_path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["noise", "delta", "amse"]
        assert len(parsed) == 3
        assert float(parsed[1][2]) == 0.2222
        assert math.isnan(float(parsed[2][2]))
        meta = json.loads(open(meta_path).read())
        assert meta["study"] == "demo"
        assert meta["seeds"] == [1, 2, 3]
        assert set(meta["versions"]) == {"python", "numpy", "scipy", "ramp"}

    def test_identical_bytes_on_rewrite(self, tmp_path):
        report = self.demo_report()
        paths = write_report(report, str(tmp_path))
        first = [open(p, "rb").read() for p in paths]
        paths = write_report(report, str(tmp_path))
        second = [open(p, "rb").read() for p in paths]
        assert first == second

    def test_no_partial_files_left(self, tmp_path):
        write_report(self.demo_report(), str(tmp_path))
        assert [f for f in os.listdir(tmp_path) if f.endswith(".part")] == []

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RAMP_OUTPUT_DIR", str(tmp_path))
        csv_path, meta_path = write_report(self.demo_report())
        assert os.path.dirname(csv_path) == str(tmp_path)
        assert os.path.exists(meta_path)

    def test_explicit_directory_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RAMP_OUTPUT_DIR", "/nonexistent/elsewhere")
        csv_path, _ = write_report(self.demo_report(), str(tmp_path))
        assert os.path.dirname(csv_path) == str(tmp_path)


class TestConvergenceStudy:
    def test_small_run_records_successes_and_failures(self, monkeypatch):
        spec = ExperimentSpec(
            n=320, p=500, s=64, noise=Normal(0.2),
            losses=(least_squares(), absolute()),
            alphas=(1.2, 1.4, 1.6, 1.8), replications=3)
        report = run_convergence_study(spec)
        assert report.columns[0] == "loss"
        by_loss = {row[0]: row for row in report.rows}

        ls = by_loss["least_squares"]
        assert ls[9] == 0 and ls[8] == 3  # failed, converged
        assert 0.0 < ls[6] < 0.5  # amse_mean
        assert ls[7] > 0.0  # amse_se
        np.testing.assert_allclose(ls[3], 0.25, atol=1e-6)  # b_mean

        # no absolute-loss run fails, but none converges before max_iter
        # stops it (201 passes) at alpha* = 1.6
        lad = by_loss["absolute"]
        assert lad[1] == 1.6
        assert lad[9] == 0 and lad[8] == 0 and lad[4] == 201
        assert 0.0 < lad[6] < 0.5
        assert report.metadata["replications"] == 3
        assert len(report.metadata["seeds"]) == 3
        # the runs use SolverConfig's defaults, and the metadata says so
        assert report.metadata["solver"] == {"tol": 1e-6, "max_iter": 200}

        # a draw whose response is exactly zero: every residual of the
        # first pass is zero, more than s of them, so the absolute loss
        # fails calibration there while least squares fits x = 0
        def zero_response(spec, seed):
            inst = generate_instance(spec, seed)
            if seed != spec.seeds[0]:
                return inst
            return dataclasses.replace(inst, y=np.zeros(spec.n))

        monkeypatch.setattr(experiments, "generate_instance", zero_response)
        by_loss = {row[0]: row for row in run_convergence_study(spec).rows}
        assert by_loss["least_squares"][8:11] == (3, 0, 3)
        lad = by_loss["absolute"]
        assert lad[8:11] == (0, 1, 3)
        assert 0.0 < lad[6] < 0.5
        # a loss whose every run fails reports nan means
        spec_one = dataclasses.replace(spec, replications=1)
        lad = {row[0]: row for row in run_convergence_study(spec_one).rows}["absolute"]
        assert lad[8:11] == (0, 1, 1)
        assert all(math.isnan(v) for v in lad[3:8])

    def test_loss_with_no_converged_alpha_reads_nan(self):
        # least squares under Cauchy noise diverges at every alpha: its row
        # reads nan and runs no solver, and the other loss's row is the one
        # it has on its own
        spec = small_spec(noise=Cauchy(1.0), losses=(least_squares(), absolute()),
                          alphas=(1.4, 2.0))
        ls, lad = run_convergence_study(spec).rows
        alone = run_convergence_study(dataclasses.replace(spec, losses=(absolute(),)))
        assert alone.rows == (lad,)
        assert lad[0] == "absolute" and math.isfinite(lad[6])
        assert ls[0] == "least_squares"
        assert all(math.isnan(v) for v in ls[1:8])
        assert ls[8:11] == (0, 0, 2)

    def test_se_amse_is_the_tuned_prediction(self):
        # the AMSE of tune_alpha's fixed point, bit for bit; nan where no
        # alpha converges
        spec = small_spec(losses=(least_squares(), absolute()), alphas=(1.4, 2.0),
                          replications=1)
        report = run_convergence_study(spec)
        col = report.columns.index("se_amse")
        dist = DistributionModel(pm_one_prior(spec.s / spec.p), spec.noise)
        for loss, row in zip(spec.losses, report.rows):
            tuned = tune_alpha(dist, loss, spec.n / spec.p, alpha_grid=spec.alphas)
            assert row[col] == tuned.result.amse and math.isfinite(row[col])
        ls, _ = run_convergence_study(dataclasses.replace(spec, noise=Cauchy(1.0))).rows
        assert math.isnan(ls[col])

    def test_alpha_at_grid_edge(self):
        # set where alpha* is the smallest or largest grid point, and where
        # no alpha converges reads False
        cases = (((1.2, 1.4, 1.6, 1.8), Normal(0.2), False),
                 ((2.0, 2.5), Normal(0.2), True),
                 ((0.6, 0.8), Normal(0.2), True),
                 ((1.4, 2.0), Cauchy(1.0), False))
        for alphas, noise, edge in cases:
            spec = small_spec(noise=noise, losses=(least_squares(),), alphas=alphas,
                              replications=1)
            report = run_convergence_study(spec)
            (row,) = report.rows
            assert row[report.columns.index("alpha_at_grid_edge")] is edge


class TestDenseEfficiency:
    def test_full_grid(self):
        report = run_dense_efficiency()
        assert len(report.rows) == 24
        idx = {c: i for i, c in enumerate(report.columns)}
        sigma_sq = {"normal_0.2": 0.2, "laplace_1": 2.0}
        for row in report.rows:
            noise, delta, loss = row[idx["noise"]], row[idx["delta"]], row[idx["loss"]]
            amse, rel = row[idx["amse"]], row[idx["relative_efficiency"]]
            assert row[idx["amse_se"]] == 0.0
            assert row[idx["converged"]] is True
            if loss == "least_squares":
                # unpenalized least squares has a closed-form error
                np.testing.assert_allclose(
                    amse, sigma_sq[noise] * delta / (delta - 1.0), rtol=1e-5)
                assert rel == 1.0
        ls = {(r[0], r[1]): r[idx["amse"]] for r in report.rows
              if r[idx["loss"]] == "least_squares"}
        for row in report.rows:
            expect = ls[(row[0], row[1])] / row[idx["amse"]]
            np.testing.assert_allclose(row[idx["relative_efficiency"]], expect,
                                       rtol=1e-12)


class TestSparseEfficiency:
    def test_single_cell(self):
        report = run_sparse_efficiency(
            omegas=(0.128,), noises=(Normal(0.2),),
            losses=(least_squares(), absolute()),
            alpha_grid=(1.4, 1.7, 2.0))
        assert len(report.rows) == 2
        idx = {c: i for i, c in enumerate(report.columns)}
        for row in report.rows:
            assert row[idx["alpha_star"]] in (1.4, 1.7, 2.0)
            assert row[idx["lambda_star"]] > 0.0
            assert 0.0 < row[idx["amse"]] < 1.0
            assert row[idx["amse_se"]] == 0.0
        ls = next(r for r in report.rows if r[idx["loss"]] == "least_squares")
        assert ls[idx["relative_efficiency"]] == 1.0
        assert report.metadata["laplace_convention"].startswith("scale 1")

    def test_empty_alpha_grid_rejected(self):
        # an empty grid is an input error, not a row of nan cells
        with pytest.raises(ValueError, match="empty"):
            run_sparse_efficiency(omegas=(0.128,), noises=(Normal(0.2),),
                                  losses=(absolute(),), alpha_grid=())

    def test_default_alpha_grid_clears_the_old_edge(self):
        assert DEFAULT_SPARSE_ALPHAS[0] == 0.5
        assert DEFAULT_SPARSE_ALPHAS[-1] == 5.0


class TestNoiseStudy:
    def test_tail_orderings_and_divergence(self):
        report = run_noise_study(
            losses=(least_squares(), absolute()),
            noises=(Normal(0.2), StudentT(4), Cauchy(1.0)),
            alpha_grid=(1.2, 1.6, 2.0, 2.4))
        idx = {c: i for i, c in enumerate(report.columns)}
        cell = {(r[idx["noise"]], r[idx["loss"]]): r for r in report.rows}

        diverged = cell[("cauchy_1", "least_squares")]
        assert diverged[idx["diverged"]] is True
        assert math.isnan(diverged[idx["amse"]])
        assert cell[("cauchy_1", "absolute")][idx["diverged"]] is False

        # light tails favor the quadratic fit, heavy tails the robust one
        assert (cell[("normal_0.2", "least_squares")][idx["amse"]]
                < cell[("normal_0.2", "absolute")][idx["amse"]])
        assert (cell[("student_t_4", "absolute")][idx["amse"]]
                < cell[("student_t_4", "least_squares")][idx["amse"]])


class TestSeTable:
    """The dense, sparse and noise studies share one tuned-cell table."""

    @staticmethod
    def studies():
        grid = (1.4, 2.0)
        noises = (Normal(0.2), Laplace(1.0))
        losses = (least_squares(), absolute())
        return {
            "dense": lambda: run_dense_efficiency(
                deltas=(3.0,), noises=noises, losses=losses),
            "sparse": lambda: run_sparse_efficiency(
                omegas=(0.1,), noises=noises, losses=losses, alpha_grid=grid),
            "noise": lambda: run_noise_study(
                losses=losses, noises=noises, alpha_grid=grid),
        }

    def test_loss_set_without_least_squares(self):
        # no reference row in a block: the efficiency is missing, not a crash
        for report in (
                run_dense_efficiency(deltas=(3.0,), losses=(absolute(),)),
                run_sparse_efficiency(omegas=(0.1,), losses=(absolute(),),
                                      alpha_grid=(1.4, 2.0))):
            idx = {c: i for i, c in enumerate(report.columns)}
            assert len(report.rows) == 2
            for row in report.rows:
                assert math.isnan(row[idx["relative_efficiency"]])
                assert 0.0 < row[idx["amse"]] < math.inf
                assert row[idx["converged"]] is True

    def test_unconverged_cell_reads_nan_in_every_study(self, monkeypatch):
        before = {name: run() for name, run in self.studies().items()}
        tune_alpha = experiments.tune_alpha

        def refuse_absolute(dist, loss, delta, alpha_grid=None):
            if loss == absolute():
                raise RuntimeError("no alpha in the grid converged")
            return tune_alpha(dist, loss, delta, alpha_grid=alpha_grid)

        monkeypatch.setattr(experiments, "tune_alpha", refuse_absolute)
        for name, run in self.studies().items():
            report = run()
            idx = {c: i for i, c in enumerate(report.columns)}
            assert len(report.rows) == len(before[name].rows) == 4
            for old, new in zip(before[name].rows, report.rows):
                if new[idx["loss"]] == "least_squares":
                    assert new == old
                    continue
                assert math.isnan(new[idx["amse"]])
                if "converged" in idx:
                    assert new[idx["converged"]] is False
                    assert math.isnan(new[idx["relative_efficiency"]])
                else:
                    assert new[idx["diverged"]] is True
                if "alpha_star" in idx:
                    assert math.isnan(new[idx["alpha_star"]])
                    assert math.isnan(new[idx["lambda_star"]])


class TestDesignStudy:
    def test_designs_share_penalty_labels(self):
        report = run_design_study(
            small_spec(alphas=(1.4, 2.0), replications=3, base_seed=500))
        assert len(report.rows) == 4
        idx = {c: i for i, c in enumerate(report.columns)}
        by_design = {}
        for row in report.rows:
            by_design.setdefault(row[idx["design"]], []).append(row)
        assert set(by_design) == {"gaussian", "rademacher"}
        for g_row, r_row in zip(by_design["gaussian"], by_design["rademacher"]):
            assert g_row[idx["alpha"]] == r_row[idx["alpha"]]
            assert g_row[idx["lambda_star"]] == r_row[idx["lambda_star"]]
        for row in report.rows:
            assert row[idx["successes"]] == 3
            assert math.isfinite(row[idx["amse_mean"]])
            assert row[idx["amse_mean"]] > 0.0
        assert report.metadata["solver"] == {"tol": 1e-6, "max_iter": 200}

    def test_one_loss_only(self):
        with pytest.raises(ValueError, match="one loss, got 2"):
            run_design_study(small_spec(losses=(least_squares(), huber(1.0))))

    def test_gaussian_row_is_the_convergence_cell(self):
        # both AMP studies read one replicated cell: at one alpha and on the
        # same seeds, the design study's gaussian row is the convergence
        # study's row
        alpha = 1.7
        spec = small_spec(alphas=(alpha,), base_seed=500)
        design = run_design_study(spec)
        conv = run_convergence_study(spec)
        (d_row,) = [r for r in design.rows if r[0] == "gaussian"]
        (c_row,) = conv.rows
        assert c_row[conv.columns.index("alpha_star")] == alpha
        for col in ("amse_mean", "amse_se", "failed"):
            assert (d_row[design.columns.index(col)]
                    == c_row[conv.columns.index(col)])
        assert math.isfinite(d_row[design.columns.index("amse_se")])
