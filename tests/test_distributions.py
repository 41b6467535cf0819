import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.stats import invweibull, kstest, kstwobign, laplace, levy

from extvae import model as mdl
from extvae.distributions import (
    XI_MIN,
    FrechetParams,
    GevFitError,
    GevParams,
    LogLaplaceParams,
    expps_sample_field,
    frechet_quantile,
    gev_cdf,
    gev_fit,
    gev_quantile,
    loglaplace_quantile,
    loglaplace_sample,
    tail_equivalence_check,
)
from extvae.distributions import _gev_negloglik
from extvae.seeds import as_generator, substream
from expps_oracle import expps_sample, positive_stable_half_sample
from references import gev_sample, loglaplace_cdf

KS_CRIT_1PCT = kstwobign.isf(0.01)  # asymptotic 1% critical constant


class TestLogLaplace:
    def test_quantile_branches_meet_at_one(self):
        p = LogLaplaceParams(30.0)
        assert loglaplace_quantile(0.5, p) == 1.0

    def test_quantile_hand_value(self):
        # P(eps <= 1.1) = 1 - 1.1^-30 / 2 = 0.97134 at a0 = 30
        q = 1 - 0.5 * 1.1**-30
        assert q == pytest.approx(0.97134, abs=1e-5)
        assert loglaplace_quantile(q, LogLaplaceParams(30.0)) == pytest.approx(
            1.1, rel=1e-12)
        assert loglaplace_cdf(30.0)(1.1) == pytest.approx(q, rel=1e-12)

    def test_quantile_inverts_scipy_cdf(self):
        a0 = 2.5
        x = np.array([0.01, 0.3, 1.0, 1.7, 5.0, 20.0])
        np.testing.assert_allclose(
            loglaplace_quantile(loglaplace_cdf(a0)(x), LogLaplaceParams(a0)), x,
            rtol=1e-12)

    def test_quantile_monotone(self):
        p = LogLaplaceParams(2.5)
        q = np.linspace(0.001, 0.999, 400)
        assert np.all(np.diff(loglaplace_quantile(q, p)) > 0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1.0, 2.0])
    def test_quantile_domain_errors(self, bad):
        with pytest.raises(ValueError):
            loglaplace_quantile(bad, LogLaplaceParams(2.0))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LogLaplaceParams(0.0)
        with pytest.raises(ValueError):
            LogLaplaceParams(-3.0)

    def test_sample_ks_against_cdf(self):
        p = LogLaplaceParams(2.0)
        draws = loglaplace_sample(p, 10**5, seed=42)
        stat = kstest(draws, loglaplace_cdf(p.alpha0)).statistic
        assert stat < KS_CRIT_1PCT / math.sqrt(draws.size)

    def test_tail_probability_hand_value(self):
        # P(eps > 2) = x^-a0 / 2 = 0.125 at a0 = 2
        draws = loglaplace_sample(LogLaplaceParams(2.0), 10**5, seed=7)
        phat = np.mean(draws > 2.0)
        se = math.sqrt(0.125 * 0.875 / draws.size)
        assert abs(phat - 0.125) < 3 * se

    def test_median_is_one(self):
        draws = loglaplace_sample(LogLaplaceParams(5.0), 10**5, seed=3)
        assert np.median(draws) == pytest.approx(1.0, abs=0.02)

    def test_log_draws_are_laplace(self):
        a0 = 3.0
        draws = loglaplace_sample(LogLaplaceParams(a0), 10**5, seed=11)
        stat = kstest(np.log(draws), laplace(scale=1 / a0).cdf).statistic
        assert stat < KS_CRIT_1PCT / math.sqrt(draws.size)

    def test_loglik_symmetric_in_log_space(self):
        # the model's per-site log-likelihood at y = 1: one observation a row
        x = np.array([[0.2], [0.7], [1.3], [6.0]])
        lhs = mdl.loglik(x, np.ones_like(x), 4.0)
        rhs = mdl.loglik(1.0 / x, np.ones_like(x), 4.0) - 2.0 * np.log(x[:, 0])
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_seed_reproducibility(self):
        a = loglaplace_sample(LogLaplaceParams(2.0), 1000, seed=5)
        b = loglaplace_sample(LogLaplaceParams(2.0), 1000, seed=5)
        assert np.array_equal(a, b)


def one_knot(*args):
    """Arguments broadcast together, each entry a model with one knot."""
    return [a[..., None] for a in np.broadcast_arrays(*map(np.asarray, args))]


def prior_logdensity(z, theta) -> np.ndarray:
    """The model's prior log-density of one knot, entry by entry."""
    return mdl.log_prior(*one_knot(z, theta))


@pytest.mark.parametrize("quantile, params", [
    (loglaplace_quantile, LogLaplaceParams(2.0)),
    (frechet_quantile, FrechetParams(tau=1.0, alpha0=2.0)),
    (gev_quantile, GevParams(mu=0.0, sigma=1.0, xi=0.1)),
], ids=["loglaplace", "frechet", "gev"])
@pytest.mark.parametrize("bad", [np.nan, [0.5, np.nan], [[0.25], [np.nan]], 0.0, 1.0],
                         ids=["nan", "nan-in-vector", "nan-in-matrix", "zero", "one"])
def test_nan_level_rejected_as_zero_and_one_are(quantile, params, bad):
    with pytest.raises(ValueError, match=r"quantile level must lie in \(0, 1\)"):
        quantile(bad, params)


class TestExpPS:
    def test_logdensity_hand_values(self):
        assert prior_logdensity(1.0, 0.0) == pytest.approx(-1.5155, abs=2e-4)
        # theta = 2 equals the theta = 0 value times exp(sqrt(2) - 2)
        expected = prior_logdensity(1.0, 0.0) + (math.sqrt(2.0) - 2.0)
        assert prior_logdensity(1.0, 2.0) == pytest.approx(expected, rel=1e-12)
        assert math.exp(prior_logdensity(1.0, 2.0)) == pytest.approx(0.12230, abs=2e-5)

    def test_theta_zero_is_untilted_stable(self):
        z = np.array([0.05, 0.3, 1.0, 4.0, 50.0])
        np.testing.assert_allclose(
            prior_logdensity(z, 0.0), levy(scale=0.5).logpdf(z), rtol=1e-10)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 2.0])
    def test_density_integrates_to_one(self, theta):
        val, _ = quad(lambda z: math.exp(prior_logdensity(z, theta)),
                      0, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    # the rejection oracle: acceptance rate exp(-sqrt(theta)), exact proposals

    def test_untilted_proposals_all_accepted(self):
        _, stats = expps_sample(0.0, 5000, seed=1, return_stats=True)
        assert stats["proposals"] == stats["accepted"] == 5000

    def test_acceptance_rate(self):
        theta = 2.0
        _, stats = expps_sample(theta, 30000, seed=9, return_stats=True)
        rate = stats["accepted"] / stats["proposals"]
        target = math.exp(-math.sqrt(theta))
        se = math.sqrt(target * (1 - target) / stats["proposals"])
        assert abs(rate - target) < 3 * se

    def test_positive_stable_sampler_matches_density(self):
        draws = positive_stable_half_sample(10**5, substream(23))
        stat = kstest(draws, levy(scale=0.5).cdf).statistic
        assert stat < KS_CRIT_1PCT / math.sqrt(draws.size)

    def test_oracle_theta_validation(self):
        for theta in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="theta"):
                expps_sample(theta, 10, seed=0)

    # the production sampler: exact inverse-Gaussian draws

    @pytest.mark.parametrize("theta", [0.0, 1e-30, 1e-8, 1.0, 2.0, 50.0])
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_laplace_transform(self, theta, s):
        draws = expps_sample_field(np.full(10**5, theta), seed=17)
        vals = np.exp(-s * draws)
        target = math.exp(theta**0.5 - (theta + s) ** 0.5)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) < 3 * se

    def test_untilted_draws_are_levy(self):
        draws = expps_sample_field(np.zeros(10**5), seed=29)
        stat = kstest(draws, levy(scale=0.5).cdf).statistic
        assert stat < KS_CRIT_1PCT / math.sqrt(draws.size)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.0])
    def test_matches_rejection_oracle(self, theta):
        exact = expps_sample_field(np.full(20000, theta), seed=31)
        oracle = expps_sample(theta, 20000, seed=37)
        assert kstest(exact, oracle).pvalue > 0.01

    @pytest.mark.parametrize("theta", [5e-324, 1e-300, 1e4, 1e300,
                                       np.finfo(np.float64).max])
    def test_extreme_theta_finite_and_positive(self, theta):
        with np.errstate(all="raise"):
            draws = expps_sample_field(np.full(10**4, theta), seed=41)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0)

    def test_zero_normal_stays_finite(self):
        class ZeroNormals(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                return np.zeros(size)

        with np.errstate(all="raise"):
            draws = expps_sample_field(np.array([0.0, 5e-324, 1.0]),
                                       ZeroNormals(np.random.Philox(1)))
        assert np.all(np.isfinite(draws)) and np.all(draws > 0)
        assert draws[2] == 0.5          # both roots meet at mu when N = 0

    def test_field_sampler_matches_scalar_law(self):
        # each entry follows its own theta: the entrywise Laplace transform of
        # a mixed field matches the law of its theta
        theta = np.array([[0.0, 1.0], [2.0, 0.3]])
        draws = expps_sample_field(np.broadcast_to(theta, (40000, 2, 2)), seed=3)
        assert draws.shape == (40000, 2, 2)
        assert np.all(draws > 0)
        vals = np.exp(-draws)
        target = np.exp(np.sqrt(theta) - np.sqrt(theta + 1.0))
        se = vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0])
        assert np.all(np.abs(vals.mean(axis=0) - target) < 3 * se)

    def test_rejects_bad_theta(self):
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                expps_sample_field(np.array([1.0, bad]), seed=0)

    def test_seed_reproducibility(self):
        theta = np.full((3, 4), 1.0)
        a = expps_sample_field(theta, seed=8)
        b = expps_sample_field(theta, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, expps_sample_field(theta, seed=9))


class TestFrechet:
    def test_quantile_at_scale(self):
        p = FrechetParams(tau=3.0, alpha0=2.0)
        assert frechet_quantile(math.exp(-1.0), p) == pytest.approx(3.0, rel=1e-12)

    def test_tail_constant(self):
        p = FrechetParams(tau=1.5, alpha0=2.0)
        tail = 1e-4
        x = frechet_quantile(1.0 - tail, p)
        assert tail * x**p.alpha0 == pytest.approx(p.tau**p.alpha0, rel=0.01)

    def test_sample_median(self):
        p = FrechetParams(tau=2.0, alpha0=3.0)
        target = p.tau * math.log(2.0) ** (-1.0 / p.alpha0)
        draws = frechet_quantile(as_generator(2).random(10**5), p)
        assert np.median(draws) == pytest.approx(target, rel=0.02)

    def test_quantile_inverts_cdf(self):
        p = FrechetParams(tau=0.7, alpha0=1.3)
        q = np.array([0.05, 0.5, 0.99])
        cdf = invweibull(c=p.alpha0, scale=p.tau).cdf
        np.testing.assert_allclose(cdf(frechet_quantile(q, p)), q, rtol=1e-12)


def posterior_logdensity(z, m, sigma) -> np.ndarray:
    """The model's posterior log-density of one knot, entry by entry."""
    return mdl.log_q(*one_knot(z, m, sigma))


class TestLognormal:
    def test_hand_value(self):
        # z=1, m=0, sigma=1: density is 1/sqrt(2 pi)
        assert posterior_logdensity(1.0, 0.0, 1.0) == pytest.approx(
            -0.918939, abs=1e-6)

    def test_integrates_to_one(self):
        m, s = 0.3, 0.7
        val, _ = quad(lambda z: math.exp(posterior_logdensity(z, m, s)), 0, np.inf,
                      limit=200)
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_mode(self):
        m, s = 0.4, 0.8
        mode = math.exp(m - s**2)
        grid = mode * np.linspace(0.5, 1.5, 201)
        vals = posterior_logdensity(grid, m, s)
        assert abs(grid[np.argmax(vals)] - mode) < 0.01 * mode


def gev_negloglik_scalar(params, x):
    """The GEV negative log-likelihood alone, as the fit minimized it when
    L-BFGS-B took finite-difference gradients."""
    mu, log_sigma, xi = params
    t = 1.0 + xi * (x - mu) / math.exp(log_sigma)
    if np.any(t <= 0):
        return 1e10
    log_t = np.log(t)
    return float(x.size * log_sigma + (1.0 + 1.0 / xi) * np.sum(log_t)
                 + np.sum(np.exp(-log_t / xi)))


def gev_fit_finite_differences(x):
    """Reference: gev_fit's two-sided search with finite-difference gradients;
    returns the better optimum's negative log-likelihood."""
    sigma0 = max(math.sqrt(6.0) * float(np.std(x)) / math.pi, 1e-8)
    mu0 = float(np.mean(x)) - 0.5772156649015329 * sigma0
    return min(
        minimize(gev_negloglik_scalar, x0=np.array([mu0, math.log(sigma0), xi0]),
                 args=(x,), method="L-BFGS-B",
                 bounds=[(None, None), (None, None), (lo, hi)]).fun
        for xi0, lo, hi in ((0.1, XI_MIN, 5.0), (-0.1, -5.0, -XI_MIN)))


class TestGev:
    def test_cdf_at_location(self):
        p = GevParams(mu=2.0, sigma=1.0, xi=0.2)
        assert gev_cdf(2.0, p) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_quantile_round_trip(self):
        p = GevParams(mu=-1.0, sigma=2.0, xi=-0.3)
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(gev_quantile(gev_cdf(x, p), p), x,
                                   rtol=1e-9, atol=1e-12)

    def test_fit_recovers_truth(self):
        truth = GevParams(0.0, 1.0, 0.3)
        data = gev_sample(truth, 10**4, seed=5)
        fit = gev_fit(data)
        assert abs(fit.mu - truth.mu) < 0.1
        assert abs(fit.sigma - truth.sigma) < 0.1
        assert abs(fit.xi - truth.xi) < 0.1

    def test_fit_negative_shape(self):
        truth = GevParams(1.0, 0.5, -0.2)
        fit = gev_fit(gev_sample(truth, 10**4, seed=6))
        assert abs(fit.xi - truth.xi) < 0.1

    @pytest.mark.parametrize("truth, params", [
        (GevParams(0.0, 1.0, 0.3), [0.1, math.log(0.9), 0.25]),
        (GevParams(1.0, 0.5, -0.2), [0.9, math.log(0.6), -0.15]),
    ])
    def test_negloglik_gradient_matches_central_differences(self, truth, params):
        x = gev_sample(truth, 500, seed=7)
        params = np.array(params)
        nll, grad = _gev_negloglik(params, x)
        assert nll == pytest.approx(gev_negloglik_scalar(params, x), rel=1e-12)
        h = 1e-6
        fd = [(_gev_negloglik(params + h * e, x)[0]
               - _gev_negloglik(params - h * e, x)[0]) / (2.0 * h) for e in np.eye(3)]
        np.testing.assert_allclose(grad, fd, rtol=1e-6)

    def test_negloglik_barrier_outside_support(self):
        x = np.array([0.0, 1.0, 5.0])
        nll, grad = _gev_negloglik(np.array([0.0, 0.0, -0.5]), x)   # bound at 2
        assert nll == 1e10
        np.testing.assert_array_equal(grad, np.zeros(3))

    @pytest.mark.parametrize("truth, seed", [(GevParams(0.0, 1.0, 0.3), 5),
                                             (GevParams(1.0, 0.5, -0.2), 6)])
    def test_fit_no_worse_than_finite_difference_fit(self, truth, seed):
        x = gev_sample(truth, 10**4, seed=seed)
        fit = gev_fit(x)
        nll = gev_negloglik_scalar(
            np.array([fit.mu, math.log(fit.sigma), fit.xi]), x)
        assert nll <= gev_fit_finite_differences(x) + 1e-8

    def test_fit_needs_enough_data(self):
        with pytest.raises(ValueError):
            gev_fit(np.ones(10))

    def test_fit_error_carries_best_point(self):
        best = GevParams(0.0, 1.0, 0.2)
        err = GevFitError("did not converge", best=best)
        assert err.best is best

    def test_zero_shape_rejected(self):
        with pytest.raises(ValueError):
            GevParams(0.0, 1.0, 0.0)

    def test_cdf_clamps_outside_support(self):
        p = GevParams(mu=0.0, sigma=1.0, xi=0.5)  # lower endpoint at -2
        with pytest.warns(RuntimeWarning):
            vals = gev_cdf(np.array([-5.0, 0.0]), p)
        assert vals[0] == 0.0
        p_neg = GevParams(mu=0.0, sigma=1.0, xi=-0.5)  # upper endpoint at 2
        with pytest.warns(RuntimeWarning):
            vals = gev_cdf(np.array([5.0]), p_neg)
        assert vals[0] == 1.0

    @given(st.floats(-1.5, 1.5), st.floats(0.1, 3.0),
           st.sampled_from([-0.4, -0.15, 0.15, 0.4]),
           st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_quantile_cdf_identity_property(self, mu, sigma, xi, q):
        p = GevParams(mu, sigma, xi)
        assert gev_cdf(gev_quantile(q, p), p) == pytest.approx(q, abs=1e-9)


class TestTailEquivalence:
    def test_ratio_converges_in_small_instance(self):
        rng = substream(99, "y")
        y = np.exp(0.3 * rng.standard_normal((200000, 2)))
        res = tail_equivalence_check(y, tau=1.0, alpha0=2.0, seed=1, level=0.995)
        assert res.expected_marginal == pytest.approx(2.0)
        assert res.expected_joint == pytest.approx(4.0)
        assert abs(res.marginal_ratio - 2.0) < 0.5

    def test_joint_hits_count_every_site_pair(self):
        # the pooled joint count equals a loop over every pair i < j
        rng = substream(98, "y")
        y = np.exp(rng.standard_normal((20000, 1)) + 0.3 * rng.standard_normal((20000, 5)))
        res = tail_equivalence_check(y, tau=1.0, alpha0=2.0, seed=3, level=0.95)
        u = np.clip(substream(3, "noise-u").random(y.shape), 1e-15, 1.0 - 1e-15)
        x_f = frechet_quantile(u, FrechetParams(1.0, 2.0)) * y
        x_l = loglaplace_quantile(u, LogLaplaceParams(2.0)) * y
        level = np.quantile(np.concatenate([x_f.ravel(), x_l.ravel()]), 0.95)
        masks = (x_f > level, x_l > level)
        assert res.n_marginal_hits == tuple(int(np.sum(ex)) for ex in masks)
        loops = tuple(sum(int(np.sum(ex[:, i] & ex[:, j]))
                          for i in range(5) for j in range(i + 1, 5)) for ex in masks)
        assert res.n_joint_hits == loops
        assert min(loops) > 1000

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            tail_equivalence_check(np.ones(5), 1.0, 2.0, seed=0)
