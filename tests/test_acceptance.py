"""Acceptance gate: one test per benchmark criterion, each printing a
PASS/FAIL line with the measured values. Reference numbers live in the
dictionaries below; tolerances are part of the criterion statements.
"""

import dataclasses
import math

import numpy as np

from prior_sampling import amse_monte_carlo
from ramp.experiments import (
    ExperimentSpec,
    convergence_study_spec,
    design_study_spec,
    generate_instance,
    run_convergence_study,
    run_dense_efficiency,
    run_design_study,
    run_noise_study,
    run_sparse_efficiency,
)
from ramp.losses import (
    absolute,
    effective_score,
    effective_score_deriv,
    huber,
    least_squares,
    prox,
    quantile,
)
from ramp.oracle import check_oracle_distance
from ramp.solver import (
    SolverConfig,
    initial_state,
    lambda_of_theta,
    ramp_step,
    run_ramp,
)
from ramp.state_evolution import (
    Cauchy,
    DistributionModel,
    Laplace,
    Normal,
    StudentT,
    amse_closed_form,
    efficiency_limits,
    gamma_cap,
    info_lower_bound,
    pm_one_prior,
    se_fixed_point,
)

DELTA = 0.64
OMEGA = 0.128

# reference values for the benchmark configuration, with their tolerances
REFERENCE_FIXED_POINTS = {
    "least_squares": (0.349, 0.02),
    "huber": (0.369, 0.02),
    "absolute": (2.264, 0.12),
    "quantile_0.7": (2.933, 0.15),
    "quantile_0.3": (3.378, 0.17),
}

REFERENCE_CONVERGENCE = {
    "least_squares": (0.0810, 8),
    "huber_1": (0.0915, 12),
    "absolute": (0.0943, 8),
    "quantile_0.7": (0.1177, 11),
}

DENSE_DELTAS = (10.0, 8.0, 3.0, 1.6, 1.4, 1.2)
REFERENCE_DENSE = {
    ("normal_0.2", "least_squares"): (0.204, 0.234, 0.308, 0.489, 0.643, 1.102),
    ("normal_0.2", "absolute"): (0.395, 0.439, 0.568, 0.946, 0.962, 1.192),
    ("laplace_1", "least_squares"): (2.362, 2.376, 3.119, 5.544, 7.276, 12.475),
    ("laplace_1", "absolute"): (1.415, 1.792, 1.578, 7.014, 11.351, 17.929),
}

SPARSE_OMEGAS = (0.05, 0.1, 0.2, 0.5, 0.55, 0.6)
REFERENCE_SPARSE = {
    ("normal_0.2", "least_squares"): (0.042, 0.0839, 0.139, 0.394, 0.458, 0.468),
    ("normal_0.2", "absolute"): (0.0458, 0.113, 0.183, 0.385, 0.432, 0.477),
    ("laplace_1", "least_squares"): (0.0437, 0.0914, 0.192, 0.522, 0.531, 0.584),
    ("laplace_1", "absolute"): (0.0322, 0.0745, 0.177, 0.207, 0.245, 0.289),
}


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} | {detail}")
    return ok


def benchmark_dist(noise=None):
    return DistributionModel(pm_one_prior(OMEGA), noise or Normal(0.2))


def test_criterion_01_fixed_point_targets():
    losses = {
        "least_squares": least_squares(),
        "huber": huber(1.0),
        "absolute": absolute(),
        "quantile_0.7": quantile(0.7),
        "quantile_0.3": quantile(0.3),
    }
    dist = benchmark_dist()
    bad = []
    values = {}
    for name, loss in losses.items():
        res = se_fixed_point(dist, loss, DELTA, alpha=2.0, init_tau_sq=0.1)
        values[name] = res.tau_star_sq
        target, tol = REFERENCE_FIXED_POINTS[name]
        if not (res.converged and abs(res.tau_star_sq - target) <= tol):
            bad.append(f"{name}={res.tau_star_sq:.4f} (want {target}+-{tol})")
    detail = ", ".join(f"{k}={v:.4f}" for k, v in values.items())
    ok = report(1, "fixed point targets", not bad, detail)
    assert ok, f"fixed points out of range: {bad}"


def test_criterion_02_tuned_convergence_benchmark():
    study = run_convergence_study(convergence_study_spec(replications=100))
    rows = {r[0]: r for r in study.rows}
    bad = []
    parts = []
    for label, (ref_amse, ref_iters) in REFERENCE_CONVERGENCE.items():
        row = rows[label]
        amse, iters, failed = row[6], row[4], row[9]
        parts.append(f"{label}: amse={amse:.4f} iters={iters:.1f} "
                     f"failed={failed}")
        if not (math.isfinite(amse)
                and abs(amse - ref_amse) <= 0.15 * ref_amse):
            bad.append(f"{label} amse {amse} vs {ref_amse}+-15%")
        if not (math.isfinite(iters) and abs(iters - ref_iters) <= 5):
            bad.append(f"{label} iterations {iters} vs {ref_iters}+-5")
    ls_b = rows["least_squares"][3]
    if ls_b != 0.25:
        bad.append(f"least_squares b {ls_b!r} != 0.25 exactly")
    ok = report(2, "tuned convergence benchmark", not bad,
                "; ".join(parts) + f"; ls_b={ls_b}")
    assert ok, f"benchmark mismatches: {bad}"


def test_criterion_03_dense_efficiency_cells():
    study = run_dense_efficiency()
    idx = {c: i for i, c in enumerate(study.columns)}
    cell = {(r[idx["noise"]], r[idx["loss"]], r[idx["delta"]]):
            r[idx["amse"]] for r in study.rows}
    bad = []
    for (noise, loss), targets in REFERENCE_DENSE.items():
        for delta, target in zip(DENSE_DELTAS, targets):
            got = cell[(noise, loss, delta)]
            if abs(got - target) > 0.20 * target:
                bad.append(f"{noise}/{loss}/d={delta}: {got:.4f} "
                           f"vs {target}+-20%")
    order_bad = []
    for delta in (10.0, 8.0, 3.0):
        if not cell[("normal_0.2", "least_squares", delta)] \
                < cell[("normal_0.2", "absolute", delta)]:
            order_bad.append(f"normal d={delta}")
        if not cell[("laplace_1", "absolute", delta)] \
                < cell[("laplace_1", "least_squares", delta)]:
            order_bad.append(f"laplace d={delta}")
    n_ok = 24 - len(bad)
    ok = report(3, "dense efficiency cells", not (bad or order_bad),
                f"{n_ok}/24 cells within 20%; ordering violations: "
                f"{order_bad or 'none'}")
    assert ok, f"cells out of band: {bad}; orderings: {order_bad}"


def test_criterion_04_sparse_efficiency_cells():
    study = run_sparse_efficiency()
    idx = {c: i for i, c in enumerate(study.columns)}
    cell = {(r[idx["noise"]], r[idx["loss"]], r[idx["omega"]]):
            r[idx["amse"]] for r in study.rows}
    bad = []
    for (noise, loss), targets in REFERENCE_SPARSE.items():
        for omega, target in zip(SPARSE_OMEGAS, targets):
            got = cell[(noise, loss, omega)]
            if not (math.isfinite(got)
                    and abs(got - target) <= 0.20 * target):
                bad.append(f"{noise}/{loss}/w={omega}: {got:.4f} "
                           f"vs {target}+-20%")
    order_bad = []
    for omega in SPARSE_OMEGAS:
        if not cell[("laplace_1", "absolute", omega)] \
                < cell[("laplace_1", "least_squares", omega)]:
            order_bad.append(f"laplace w={omega}")
    for omega in (0.05, 0.1, 0.2):
        if not cell[("normal_0.2", "least_squares", omega)] \
                < cell[("normal_0.2", "absolute", omega)]:
            order_bad.append(f"normal w={omega}")
    n_ok = 24 - len(bad)
    ok = report(4, "sparse efficiency cells", not (bad or order_bad),
                f"{n_ok}/24 cells within 20%; ordering violations: "
                f"{order_bad or 'none'}")
    assert ok, f"cells out of band: {bad}; orderings: {order_bad}"


def test_criterion_05_solver_matches_penalized_oracle():
    worst = 0.0
    for loss in (least_squares(), huber(1.0)):
        for seed in range(10):
            spec = ExperimentSpec(n=100, p=150, s=15, noise=Normal(0.2),
                                  losses=(loss,), replications=1,
                                  base_seed=seed)
            inst = generate_instance(spec, seed)
            res = run_ramp(inst, loss, SolverConfig(alpha=2.0))
            st = res.state
            lam = lambda_of_theta(st.theta, st.b, inst.delta, inst.omega)
            dist = check_oracle_distance(inst, loss, lam, res)
            worst = max(worst, dist)
    ok = report(5, "solver matches penalized oracle", worst < 1e-3,
                f"worst mean-square gap {worst:.3e} over 20 runs "
                f"(threshold 1e-3)")
    assert ok


def test_criterion_06_onsager_fraction_exact():
    checked = 0
    for loss in (least_squares(), huber(1.0)):
        for seed in (0, 1):
            spec = ExperimentSpec(n=80, p=125, s=16, noise=Normal(0.2),
                                  losses=(loss,), replications=1,
                                  base_seed=seed)
            inst = generate_instance(spec, seed)
            config = SolverConfig(alpha=1.5)
            st = initial_state(inst, loss, config)
            for _ in range(40):
                assert st.onsager_frac == np.count_nonzero(st.x) / inst.p
                checked += 1
                st = ramp_step(inst, loss, config, st)
    ok = report(6, "onsager fraction exact", True,
                f"{checked} iterations checked at zero tolerance")
    assert ok


def test_criterion_07_prox_contracts():
    rng = np.random.default_rng(7)
    m = 10_000
    losses = {
        "least_squares": least_squares(),
        "huber": huber(1.0),
        "absolute": absolute(),
        "quantile_0.7": quantile(0.7),
    }
    bad = []
    for name, spec in losses.items():
        z = rng.normal(0.0, 3.0, m)
        z2 = z + rng.normal(0.0, 1.0, m)
        b = rng.uniform(0.05, 5.0, m)
        p1, p2 = prox(spec, z, b), prox(spec, z2, b)
        score = effective_score(spec, z, b)
        deriv = effective_score_deriv(spec, z, b)

        gap = (p1 - p2) ** 2 - (p1 - p2) * (z - z2)
        if np.max(gap) > 1e-12:
            bad.append(f"{name} firm nonexpansiveness {np.max(gap):.2e}")
        if np.max(np.abs(score - (z - p1))) > 1e-12:
            bad.append(f"{name} score identity")

        resid = _subgradient_violation(name, spec, p1, score, b)
        if resid > 1e-10:
            bad.append(f"{name} subgradient characterization {resid:.2e}")

        h = 1e-6
        fd = (effective_score(spec, z + h, b)
              - effective_score(spec, z - h, b)) / (2 * h)
        mask = _away_from_kinks(name, spec, z, b, margin=1e-4)
        err = np.max(np.abs(deriv - fd)[mask])
        if err > 1e-4:
            bad.append(f"{name} derivative vs finite difference {err:.2e}")
    ok = report(7, "prox contracts", not bad,
                f"{m} randomized cases per family, 4 families")
    assert ok, f"contract violations: {bad}"


def _subgradient_violation(name, spec, p, score, b):
    """max violation of score/b being a loss subgradient at the prox point."""
    if name == "least_squares":
        return float(np.max(np.abs(score - b * p)))
    if name == "huber":
        return float(np.max(np.abs(score - b * np.clip(p, -1.0, 1.0))))
    if name == "absolute":
        on = p != 0
        v_on = np.max(np.abs(score[on] - b[on] * np.sign(p[on]))) if on.any() else 0.0
        v_off = np.max(np.abs(score[~on]) - b[~on]) if (~on).any() else 0.0
        return float(max(v_on, v_off, 0.0))
    t = spec.tau_q
    pos, neg, zero = p > 0, p < 0, p == 0
    parts = [0.0]
    if pos.any():
        parts.append(float(np.max(np.abs(score[pos] - b[pos] * t))))
    if neg.any():
        parts.append(float(np.max(np.abs(score[neg] - b[neg] * (t - 1.0)))))
    if zero.any():
        over = np.maximum(score[zero] - b[zero] * t,
                          b[zero] * (t - 1.0) - score[zero])
        parts.append(float(np.max(over)))
    return max(parts)


def _away_from_kinks(name, spec, z, b, margin):
    if name == "least_squares":
        return np.ones_like(z, dtype=bool)
    if name == "huber":
        return np.abs(np.abs(z) - (1.0 + b) * spec.gamma) > margin
    if name == "absolute":
        return np.abs(np.abs(z) - b) > margin
    t = spec.tau_q
    return (np.abs(z - b * t) > margin) & (np.abs(z - b * (t - 1.0)) > margin)


def test_criterion_08_noise_information_floor():
    floor = info_lower_bound(DELTA, OMEGA, 1.0 / 0.2)
    assert abs(floor - 0.05) < 1e-15
    dist = benchmark_dist()
    values = []
    for loss in (least_squares(), huber(1.0), absolute(), quantile(0.7)):
        for alpha in (1.5, 2.0, 2.5):
            res = se_fixed_point(dist, loss, DELTA, alpha=alpha)
            assert res.converged and not res.diverged
            values.append(res.tau_star_sq)
            assert res.tau_star_sq >= floor, \
                f"tau*^2 {res.tau_star_sq} below floor {floor}"
    ok = report(8, "noise information floor", True,
                f"floor 0.05, min fixed point {min(values):.4f}")
    assert ok


def test_criterion_09_closed_form_vs_monte_carlo():
    prior = pm_one_prior(OMEGA)
    worst = 0.0
    for i, tau in enumerate((0.3, 0.6, 1.0, 1.5, 2.0)):
        for j, alpha in enumerate((1.0, 1.5, 2.0, 2.5, 3.0)):
            closed = amse_closed_form(prior, tau, alpha)
            mc = amse_monte_carlo(prior, tau, alpha * tau,
                                  samples=400_000, seed=10 * i + j)
            worst = max(worst, abs(closed - mc.value) / mc.stderr)
    ok = report(9, "closed form vs monte carlo", worst <= 3.0,
                f"worst |difference|/se {worst:.2f} on the 5x5 grid")
    assert ok


def test_criterion_10_heavy_noise_ratio_trend():
    alpha = 2.0
    limit = efficiency_limits(DELTA, alpha).lad_heavy_ratio
    ratios = {}
    for sw in (1.0, 10.0, 100.0):
        noise = Laplace(math.sqrt(sw / 2.0))
        res = se_fixed_point(benchmark_dist(noise), absolute(), DELTA,
                             alpha=alpha)
        ratios[sw] = res.sigma_star_sq / sw
    gaps = [abs(ratios[sw] - limit) for sw in (1.0, 10.0, 100.0)]
    monotone = gaps[0] > gaps[1] > gaps[2]
    within = abs(ratios[100.0] - limit) <= 0.10 * limit
    inequality = all(
        1.0 / (1.0 - gamma_cap(a) / DELTA) >= gamma_cap(a) / DELTA
        for a in (1.0, 1.5, 2.0, 2.5, 3.0) if gamma_cap(a) < DELTA)
    detail = (f"ratios {ratios[1.0]:.4f}/{ratios[10.0]:.4f}/"
              f"{ratios[100.0]:.4f} vs limit {limit:.4f}; "
              f"monotone={monotone} within10%={within} "
              f"inequality={inequality}")
    ok = report(10, "heavy noise ratio trend", monotone and within
                and inequality, detail)
    assert ok, detail


def test_criterion_11_design_robustness():
    bad = []
    for loss in (least_squares(), huber(1.0)):
        study = run_design_study(
            dataclasses.replace(design_study_spec(), losses=(loss,)))
        idx = {c: i for i, c in enumerate(study.columns)}
        rows = {(r[idx["design"]], r[idx["alpha"]]): r for r in study.rows}
        alphas = sorted({r[idx["alpha"]] for r in study.rows})
        for alpha in alphas:
            g = rows[("gaussian", alpha)]
            r = rows[("rademacher", alpha)]
            gap = abs(g[idx["amse_mean"]] - r[idx["amse_mean"]])
            band = 3.0 * math.hypot(g[idx["amse_se"]], r[idx["amse_se"]])
            if not gap <= band:
                bad.append(f"{loss.family} alpha={alpha}: gap {gap:.4g} "
                           f"> 3se {band:.4g}")
    ok = report(11, "design robustness", not bad,
                f"12 grid points (2 losses x 6 alphas), 30 replications "
                f"each; violations: {bad or 'none'}")
    assert ok, f"design curves split: {bad}"


def test_criterion_12_noise_orderings_and_divergence():
    study = run_noise_study(losses=(least_squares(), absolute()),
                            noises=(Normal(0.2), StudentT(4), Cauchy(1.0)))
    idx = {c: i for i, c in enumerate(study.columns)}
    cell = {(r[idx["noise"]], r[idx["loss"]]): r for r in study.rows}

    heavy_ok = (cell[("student_t_4", "absolute")][idx["amse"]]
                < cell[("student_t_4", "least_squares")][idx["amse"]])
    light_ok = (cell[("normal_0.2", "least_squares")][idx["amse"]]
                < cell[("normal_0.2", "absolute")][idx["amse"]])
    div_row = cell[("cauchy_1", "least_squares")]
    div_ok = div_row[idx["diverged"]] is True \
        and math.isnan(div_row[idx["amse"]])
    robust_ok = cell[("cauchy_1", "absolute")][idx["diverged"]] is False
    ok = report(12, "noise orderings and divergence",
                heavy_ok and light_ok and div_ok and robust_ok,
                f"t4 lad<ls={heavy_ok}, normal ls<lad={light_ok}, "
                f"cauchy+ls diverged flag={div_ok}, cauchy+lad "
                f"converges={robust_ok}")
    assert ok
