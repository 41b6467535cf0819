"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line with the measured value
next to its stated tolerance, then asserts. Criteria 4 and 5 share the
session-scoped desk-instance fit from conftest.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from extvae import emulation as emu
from extvae import fieldsim as fs
from extvae import metrics as mx
from extvae import model as mdl
from extvae import preprocess as pp
from extvae import training as tr
from extvae.autodiff import fd_check
from extvae.distributions import (
    GevParams,
    expps_sample_field,
    gev_cdf,
    gev_fit,
    tail_equivalence_check,
)
from extvae.seeds import substream
from expps_oracle import expps_sample
from references import gev_sample


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# criterion 1: gradient exactness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_exactness():
    t0 = time.perf_counter()
    hyper = mdl.HyperParams(latent_dim=4, n_theta_basis=4, conv_channels=8,
                            enc_widths=(16,), alpha0=30.0, rho0=0.5,
                            penalty_abs=False, mc_draws=1, seed=0)
    cfg = mdl.ModelConfig(n_sites=25, hyper=hyper)
    params = mdl.init_params(cfg, 0)
    rng = substream(0, "gradcheck-data")
    x = np.exp(rng.standard_normal((6, 25)))
    c = rng.random(6)
    eps = mdl.draw_eps(cfg, 6, 0)
    rep = fd_check(lambda p: mdl.penalized_elbo(cfg, p, x, c, eps), params,
                   step=1e-5)
    elapsed = time.perf_counter() - t0
    ok = rep.max_rel_err <= 1e-4 and elapsed < 30.0
    report("criterion 1 (gradient exactness)", ok,
           f"max rel err {rep.max_rel_err:.2e} <= 1e-4 over {params.size} "
           f"params, {rep.n_skipped} kink-filtered, {elapsed:.1f}s < 30s")
    assert rep.max_rel_err <= 1e-4
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 2: tilted-stable sampler oracle
# ---------------------------------------------------------------------------

def test_criterion_2_expps_sampler_oracle():
    # Laplace transforms audit the production sampler; the acceptance rate
    # audits the rejection oracle it is tested against
    t0 = time.perf_counter()
    all_ok = True
    details = []
    for theta in (0.0, 1.0, 2.0):
        seed = 20 + int(theta * 10)
        _, stats = expps_sample(theta, 10**5, seed=seed, return_stats=True)
        rate = stats["accepted"] / stats["proposals"]
        rate_target = math.exp(-math.sqrt(theta))
        rate_se = math.sqrt(rate_target * (1 - rate_target)
                            / stats["proposals"]) if theta > 0 else 0.0
        rate_ok = abs(rate - rate_target) <= 3 * rate_se if theta > 0 else rate == 1.0
        all_ok &= rate_ok
        details.append(f"oracle acc(theta={theta:g}) dev "
                       f"{abs(rate - rate_target):.2e}<= {3 * rate_se:.2e}")
        draws = expps_sample_field(np.full(10**5, theta), seed=seed)
        for s in (0.5, 1.0):
            vals = np.exp(-s * draws)
            target = math.exp(theta**0.5 - (theta + s) ** 0.5)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            lt_ok = abs(vals.mean() - target) <= 3 * se
            all_ok &= lt_ok
            details.append(f"LT(theta={theta:g},s={s:g}) dev "
                           f"{abs(vals.mean() - target):.1e}<={3 * se:.1e}")
    elapsed = time.perf_counter() - t0
    all_ok &= elapsed < 10.0
    report("criterion 2 (expPS sampler oracle)", all_ok,
           "; ".join(details) + f"; {elapsed:.1f}s < 10s")
    assert all_ok


# ---------------------------------------------------------------------------
# criterion 3: tail equivalence at a finite level
# ---------------------------------------------------------------------------

def test_criterion_3_tail_equivalence():
    t0 = time.perf_counter()
    sites = np.array([[0.45, 0.45], [0.55, 0.45], [0.45, 0.55], [0.55, 0.55]])
    knots = np.array([[0.25, 0.25], [0.75, 0.75]])
    w = fs.wendland_basis(sites, knots, radius=2.0)
    theta = np.array([0.1, 0.3])
    z = np.column_stack([
        expps_sample_field(np.full(10**6, th), substream(0, "z", k))
        for k, th in enumerate(theta)])
    y = z @ w.T
    res = tail_equivalence_check(y, tau=1.0, alpha0=2.0, seed=0, level=0.999)
    elapsed = time.perf_counter() - t0
    marg_ok = abs(res.marginal_ratio - 2.0) <= 0.20 * 2.0
    joint_ok = abs(res.joint_ratio - 4.0) <= 0.35 * 4.0
    ok = marg_ok and joint_ok and elapsed < 60.0
    report("criterion 3 (tail equivalence)", ok,
           f"marginal {res.marginal_ratio:.3f} in 2+/-20%, joint "
           f"{res.joint_ratio:.3f} in 4+/-35%, hits {res.n_marginal_hits}/"
           f"{res.n_joint_hits}, {elapsed:.1f}s < 60s")
    assert marg_ok and joint_ok and elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 4: simulation-study reproduction on the desk instance
# ---------------------------------------------------------------------------

def test_criterion_4_training_budget(desk_models):
    total = desk_models["seconds"] + desk_models["seconds_fixed"]
    ok = total <= 600.0
    report("criterion 4 (training budget)", ok,
           f"learnable {desk_models['seconds']:.0f}s + fixed "
           f"{desk_models['seconds_fixed']:.0f}s = {total:.0f}s <= 600s")
    assert ok


@pytest.fixture(scope="session")
def desk_emulated_path(desk_instance, desk_models):
    ens = emu.emulate(desk_models["model"], desk_instance["x"],
                      desk_instance["c"], n_samples=1,
                      seed=desk_instance["seed"] + 1)
    return ens.samples[:, :, 0]


def test_criterion_4a_chi_fidelity(desk_instance, desk_emulated_path):
    inst = desk_instance
    u = np.array([0.90, 0.95, 0.99])
    psi = inst["grid"].cell
    pairs = mx.select_pairs(inst["grid"].sites, psi, psi / 2.0, seed=1)
    truth = mx.chi_curve(inst["x"], pairs, u, seed=1)
    emul = mx.chi_curve(desk_emulated_path, pairs, u, seed=1)
    inside = (emul.estimate >= truth.lo95) & (emul.estimate <= truth.hi95)
    ok = bool(np.all(inside))
    report("criterion 4a (chi fidelity)", ok,
           f"emulated {np.round(emul.estimate, 3)} inside truth band "
           f"[{np.round(truth.lo95, 3)}, {np.round(truth.hi95, 3)}] at "
           f"u={u.tolist()}")
    assert ok


def test_criterion_4b_are_fidelity(desk_instance, desk_emulated_path):
    inst = desk_instance
    u = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 0.95])
    sites = inst["grid"].sites
    ref = int(np.argmin(np.sum((sites - sites.mean(axis=0)) ** 2, axis=1)))
    psi = inst["grid"].cell
    truth = mx.are_curve(inst["x"], psi, ref, u, seed=1)
    emul = mx.are_curve(desk_emulated_path, psi, ref, u, seed=1)
    inside = (emul.estimate >= truth.lo95) & (emul.estimate <= truth.hi95)
    ok = bool(np.all(inside))
    report("criterion 4b (ARE fidelity)", ok,
           f"emulated {np.round(emul.estimate, 2)} inside truth band "
           f"[{np.round(truth.lo95, 2)}, {np.round(truth.hi95, 2)}]")
    assert ok


def test_criterion_4c_condition_ablation(desk_instance, desk_models,
                                         desk_holdout):
    inst = desk_instance
    model = desk_models["model"]
    obs = inst["x"][:, desk_holdout]
    ens_f = emu.emulate(model, inst["x"], inst["c"], n_samples=400,
                        seed=inst["seed"] + 3, sites=desk_holdout)
    c_wn = emu.ablate_condition(inst["c"], "white-noise", inst["seed"] + 4)
    ens_w = emu.emulate(model, inst["x"], c_wn, n_samples=400,
                        seed=inst["seed"] + 3, sites=desk_holdout)
    med_f = float(np.median(mx.twcrps_field(ens_f.samples, obs).scores))
    med_w = float(np.median(mx.twcrps_field(ens_w.samples, obs).scores))
    ok = med_f < med_w
    report("criterion 4c (condition ablation)", ok,
           f"median twCRPS factual {med_f:.3e} < white-noise {med_w:.3e}")
    assert ok


def test_criterion_4d_learnable_weights(desk_instance, desk_models,
                                        desk_holdout):
    inst = desk_instance
    obs = inst["x"][:, desk_holdout]
    ens_l = emu.emulate(desk_models["model"], inst["x"], inst["c"],
                        n_samples=400, seed=inst["seed"] + 3,
                        sites=desk_holdout)
    ens_f = emu.emulate(desk_models["model_fixed"], inst["x"], inst["c"],
                        n_samples=400, seed=inst["seed"] + 3,
                        sites=desk_holdout)
    med_l = float(np.median(mx.twcrps_field(ens_l.samples, obs).scores))
    med_f = float(np.median(mx.twcrps_field(ens_f.samples, obs).scores))
    ok = med_l <= med_f
    report("criterion 4d (learnable weights)", ok,
           f"median twCRPS learnable {med_l:.3e} <= fixed {med_f:.3e}")
    assert ok


def test_criterion_4e_theta_recovery(desk_instance, desk_models):
    # The generating field gamma * exp(-(d / tau)^b) peaks at the moving
    # kernel center, so a faithful fit puts its argmax there and its argmin
    # where the true field's minimum is.
    inst = desk_instance
    t_star = int(np.argmax(inst["c"]))
    ens = emu.emulate(desk_models["model"], inst["x"], inst["c"],
                      n_samples=50, seed=inst["seed"] + 2)
    theta_hat = ens.theta[t_star].mean(axis=1)
    knots = inst["knots"]
    spacing = inst["spacing"]
    center = fs.kernel_center(inst["c"][t_star])
    true_min = knots[int(np.argmin(inst["theta_true"][t_star]))]
    d_max = float(np.linalg.norm(knots[int(np.argmax(theta_hat))] - center))
    d_min = float(np.linalg.norm(knots[int(np.argmin(theta_hat))] - true_min))
    ok = d_max <= 2.0 * spacing and d_min <= 2.0 * spacing
    detail = (f"argmax(theta_hat) {d_max / spacing:.2f} knot spacings from "
              f"the kernel center, argmin(theta_hat) {d_min / spacing:.2f} "
              f"from the true field's argmin (each required <= 2)")
    report("criterion 4e (theta recovery)", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 5: counterfactual sensitivity
# ---------------------------------------------------------------------------

def test_criterion_5_counterfactual_sensitivity(desk_instance, desk_models):
    inst = desk_instance
    model = desk_models["model"]
    c = inst["c"]
    t_cf = int(np.argmax(np.abs(c - (1.0 - c))))
    two = np.array([84, 312])
    f1 = emu.emulate(model, inst["x"], c, n_samples=300, seed=900, sites=two)
    f2 = emu.emulate(model, inst["x"], c, n_samples=300, seed=901, sites=two)
    cf = emu.counterfactual(model, inst["x"], c, emu.flip_condition(c),
                            n_samples=300, seed=900, sites=two)
    e_fc = emu.energy_distance(cf.samples[t_cf].T, f1.samples[t_cf].T)
    e_ff = emu.energy_distance(f2.samples[t_cf].T, f1.samples[t_cf].T)
    ok = e_fc > 5.0 * e_ff
    report("criterion 5 (counterfactual sensitivity)", ok,
           f"energy factual-vs-counterfactual {e_fc:.4f} > 5x seed-to-seed "
           f"{e_ff:.4f} (ratio {e_fc / max(e_ff, 1e-300):.0f})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: preprocessing calibration
# ---------------------------------------------------------------------------

def test_criterion_6_preprocessing_calibration():
    rng = substream(11, "c6")
    n_sites = 100
    passed = 0
    for j in range(n_sites):
        mu = rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.5, 2.0)
        xi = rng.uniform(0.05, 0.4) * rng.choice([-1.0, 1.0])
        maxima = gev_sample(GevParams(mu, sigma, xi), 127, substream(11, "mx", j))
        fit = gev_fit(maxima)
        gof = pp.chi2_gof(maxima,
                          lambda e, f=fit: gev_cdf(e, f, warn_on_clamp=False),
                          n_bins=10, n_params=3)
        if gof.p_value > 0.05:
            passed += 1
    gof_ok = passed >= 90

    import datetime as dt

    n_days = 4 * 365
    design = pp.build_design(n_days, dt.date(2014, 5, 1))
    t_idx = design.time_index
    detrend_ok = True
    stats = []
    for j in range(20):
        r = substream(12, "dt", j)
        seasonal = 3.0 * np.sin(2 * np.pi * design.day / 365.0
                                + r.uniform(0, 2 * np.pi))
        sd = np.exp(r.uniform(-0.3, 0.3) + r.uniform(-1, 1) * 1e-4 * t_idx)
        series = 5.0 + seasonal + 0.001 * t_idx + sd * r.standard_normal(n_days)
        _, fitted, resid = pp.fit_seasonal(series[None, :], design)
        vm = pp.fit_variance(resid.ravel(), t_idx)
        z = pp.detrend(series, fitted, vm.eps_hat)
        stats.append((abs(float(z.mean())), float(z.std())))
        detrend_ok &= abs(z.mean()) < 0.05 and 0.9 < z.std() < 1.1
    worst_mean = max(s[0] for s in stats)
    sd_lo = min(s[1] for s in stats)
    sd_hi = max(s[1] for s in stats)
    ok = gof_ok and detrend_ok
    report("criterion 6 (preprocessing calibration)", ok,
           f"GOF p>0.05 at {passed}/100 sites (need >=90); detrended series: "
           f"max |mean| {worst_mean:.3f} < 0.05, sd in "
           f"[{sd_lo:.3f}, {sd_hi:.3f}] within [0.9, 1.1]")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_7_determinism_and_persistence(tmp_path):
    from extvae import cli

    a, b = tmp_path / "a", tmp_path / "b"
    code_a = cli.main(["simulate", "--desk", "--seed", "7", "--out", str(a)])
    code_b = cli.main(["simulate", "--desk", "--seed", "7", "--out", str(b)])
    bytes_ok = code_a == code_b == 0 and all(
        (a / n).read_bytes() == (b / n).read_bytes()
        for n in ("fields.csv", "conditions.csv", "theta_truth.csv",
                  "latent_truth.csv", "manifest.json"))

    grid = fs.regular_grid(5, 5, 20.0)
    knots = fs.knot_lattice(2, 20.0)
    w = fs.wendland_basis(grid.sites, knots, 25.0)
    c = fs.smooth_condition(fs.synthetic_condition(30, 5))
    x = fs.simulate_dataset(fs.simulate_theta(c, knots), w, 30.0, 5)
    hyper = mdl.HyperParams(latent_dim=4, n_theta_basis=4, conv_channels=8,
                            enc_widths=(16,), rho0=0.1, penalty_abs=True,
                            seed=5)
    cfg = tr.TrainConfig(hyper=replace(hyper, epochs=25))
    m1, r1 = tr.train(x, c, cfg, knots=knots, sites=grid.sites,
                      wendland_radius=25.0)
    m2, r2 = tr.train(x, c, cfg, knots=knots, sites=grid.sites,
                      wendland_radius=25.0)
    history_ok = r1.loss_history == r2.loss_history

    e1 = emu.emulate(m1, x, c, n_samples=6, seed=9)
    e2 = emu.emulate(m2, x, c, n_samples=6, seed=9)
    ensemble_ok = np.array_equal(e1.samples, e2.samples)

    # checkpoint at epoch 24, resume the final epoch, compare the final loss
    ckpt = tmp_path / "ckpt.json"
    cfg24 = tr.TrainConfig(hyper=replace(hyper, epochs=24), checkpoint_every=24,
                           checkpoint_path=str(ckpt))
    tr.train(x, c, cfg24, knots=knots, sites=grid.sites, wendland_radius=25.0)
    _, r_resumed = tr.train(x, c, cfg, resume_from=str(ckpt))
    final_a = r_resumed.loss_history[-1]
    final_b = r1.loss_history[-1]
    round_trip_ok = abs(final_a - final_b) <= 1e-12 * abs(final_b)

    ok = bytes_ok and history_ok and ensemble_ok and round_trip_ok
    report("criterion 7 (determinism and persistence)", ok,
           f"byte-identical datasets: {bytes_ok}; identical loss histories: "
           f"{history_ok}; identical ensembles: {ensemble_ok}; checkpoint "
           f"round trip final-loss rel err "
           f"{abs(final_a - final_b) / abs(final_b):.2e} <= 1e-12")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: metric unit oracles
# ---------------------------------------------------------------------------

def test_criterion_8_metric_unit_oracles():
    are = mx.are_curve(np.ones((1, 4)), psi=1.0, ref_index=0,
                       u=np.array([0.5]), n_boot=0, seed=0)
    are_ok = are.estimate[0] == pytest.approx(math.sqrt(4 / math.pi), rel=1e-12)

    tw1 = mx.twcrps_field(np.full((1, 1, 4), 5.0), np.array([[7.0]]),
                          threshold=5.0).scores[0, 0]
    tw2 = mx.twcrps_field(np.array([[[1.0, 3.0]]]), np.array([[3.0]]),
                          threshold=-np.inf).scores[0, 0]
    tw_ok = tw1 == pytest.approx(2.0, rel=1e-12) and tw2 == pytest.approx(
        0.5, rel=1e-12)

    rng = substream(3)
    fields = rng.random((10**4, 2))
    coords = np.array([[0.0, 0.0], [1.0, 0.0]])
    chi = mx.chi_curve(fields, mx.select_pairs(coords, 1.0, 0.5), np.array([0.9]),
                       n_boot=0, seed=0)
    den = math.floor(0.1 * 10**4)
    se = math.sqrt(0.1 * 0.9 / den)
    chi_ok = abs(chi.estimate[0] - 0.1) <= 3 * se

    ok = are_ok and tw_ok and chi_ok
    report("criterion 8 (metric unit oracles)", ok,
           f"ARE sqrt(4/pi): {are.estimate[0]:.5f}; twCRPS {tw1:.3f}/{tw2:.3f} "
           f"vs 2/0.5; chi(0.9) {chi.estimate[0]:.4f} within 3SE of 0.1")
    assert ok
