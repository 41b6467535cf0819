import math

import numpy as np
import pytest
from scipy.integrate import quad

from extvae import autodiff as ad
from extvae import model as mdl
from extvae.autodiff import ArrayView, NonFiniteError, fd_check, value_and_gradient
from extvae.fieldsim import wendland_basis
from extvae.seeds import substream
from references import expps_half_logpdf, loglaplace_logpdf, lognormal_logpdf

LN2 = math.log(2.0)


@pytest.fixture()
def tiny_cfg():
    hyper = mdl.HyperParams(latent_dim=4, n_theta_basis=4, conv_channels=8,
                            enc_widths=(16,), alpha0=30.0, rho0=0.5,
                            penalty_abs=False, seed=0)
    return mdl.ModelConfig(n_sites=25, hyper=hyper)


@pytest.fixture()
def tiny_instance(tiny_cfg):
    params = mdl.init_params(tiny_cfg, 0)
    rng = substream(0, "gradcheck-data")
    x = np.exp(rng.standard_normal((6, 25)))
    c = rng.random(6)
    eps = mdl.draw_eps(tiny_cfg, 6, 0)
    return tiny_cfg, params, x, c, eps


class TestHyperParams:
    def test_basis_count_bounded_by_latent(self):
        with pytest.raises(ValueError):
            mdl.HyperParams(latent_dim=4, n_theta_basis=5)

    def test_pool_divides(self):
        with pytest.raises(ValueError):
            mdl.HyperParams(latent_dim=3, n_theta_basis=2, pool_len=4)

    def test_enc_widths_normalised(self):
        h = mdl.HyperParams(enc_widths=[np.int64(8), 4])
        assert h.enc_widths == (8, 4) and type(h.enc_widths[0]) is int


_REJECT = object()


class TestCheckValue:
    @pytest.mark.parametrize("kind", [int, float])
    @pytest.mark.parametrize("value, bounds, as_int, as_real", [
        (True, {}, _REJECT, _REJECT),
        (math.nan, {}, _REJECT, _REJECT),
        (math.inf, {}, _REJECT, _REJECT),
        ("1", {}, _REJECT, _REJECT),
        (2.5, {}, _REJECT, 2.5),
        (np.int64(3), {}, 3, 3),
        (np.float64(0.5), {}, _REJECT, 0.5),
        (1, {"ge": 1}, 1, 1),                    # lower bound, inclusive
        (0, {"ge": 1}, _REJECT, _REJECT),
        (0, {"gt": 0}, _REJECT, _REJECT),        # lower bound, exclusive
        (3, {"lt": 3}, _REJECT, _REJECT),        # upper bound, exclusive
        (2, {"lt": 3}, 2, 2),
    ], ids=["True", "nan", "inf", "str", "2.5", "np.int64", "np.float64", "ge-bound",
            "below-ge", "gt-bound", "lt-bound", "below-lt"])
    def test_kind_and_range(self, kind, value, bounds, as_int, as_real):
        want = as_int if kind is int else as_real
        if want is _REJECT:
            with pytest.raises(mdl.ConfigError, match="^v must be"):
                mdl.check_value("v", value, kind, **bounds)
        else:
            got = mdl.check_value("v", value, kind, **bounds)
            assert got == want and type(got) is type(want)


class TestEncode:
    def test_zero_params_give_softplus_zero(self, tiny_cfg):
        parts = {name: np.zeros(shape)
                 for name, shape in mdl.param_template(tiny_cfg).items()}
        pv = ad.ParamVector.build(parts)
        mu, sigma = mdl.encode(tiny_cfg, ArrayView(pv), np.ones((1, 25)))
        np.testing.assert_allclose(mu, LN2, rtol=1e-12)
        np.testing.assert_allclose(sigma, LN2, rtol=1e-12)

    def test_output_shapes(self, tiny_instance):
        cfg, params, x, _, _ = tiny_instance
        mu, sigma = mdl.encode(cfg, ArrayView(params), x)
        assert mu.shape == (6, 4) and sigma.shape == (6, 4)
        assert np.all(mu > 0) and np.all(sigma > 0)

    def test_input_disconnected_when_first_layer_zero(self, tiny_cfg):
        params = mdl.init_params(tiny_cfg, 0)
        params.view("enc_w0")[:] = 0.0
        p = ArrayView(params)
        a, _ = mdl.encode(tiny_cfg, p, np.ones((1, 25)))
        b, _ = mdl.encode(tiny_cfg, p, 2.0 * np.ones((1, 25)))
        np.testing.assert_array_equal(a, b)


def draw(mu, sigma, g, eps):
    """mdl.latent on one time step, with condition 1 so the shift is g."""
    row = lambda v: np.asarray(v, dtype=np.float64).reshape(1, -1)
    return mdl.latent({"cond_map": np.asarray(g, dtype=np.float64)}, row(mu),
                      row(sigma), np.ones(1), row(eps))


class TestReparam:
    def test_degenerate_draw(self):
        _, _, z = draw([2.0, 3.0], np.zeros(2), np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(z[0], [2.0, 3.0], rtol=1e-15)

    def test_hand_value(self):
        _, _, z = draw([2.0], [1.0], [0.5], [1.0])
        assert z[0, 0] == pytest.approx(math.exp(math.log(2.0) + 1.5), rel=1e-12)
        assert z[0, 0] == pytest.approx(8.9635, abs=2e-4)

    def test_zero_eps_gives_scaled_mean(self):
        mu = np.array([1.5, 0.5])
        g = np.array([0.2, -0.1])
        _, _, z = draw(mu, np.ones(2), g, np.zeros(2))
        np.testing.assert_allclose(z[0], mu * np.exp(g), rtol=1e-12)

    def test_log_identity_exact(self):
        rng = substream(3)
        mu = np.abs(rng.standard_normal(5)) + 0.1
        sig = np.abs(rng.standard_normal(5)) + 0.1
        g = rng.standard_normal(5)
        eps = rng.standard_normal(5)
        m, log_z, _ = draw(mu, sig, g, eps)
        np.testing.assert_array_equal(m[0], np.log(mu) + g)
        np.testing.assert_array_equal(log_z[0], np.log(mu) + g + sig * eps)

    def test_overflow_names_op(self):
        with pytest.raises(NonFiniteError, match="exp"):
            draw([1.0, 1.0], [0.0, 1000.0], np.zeros(2), [0.0, 1.0])


class TestFuse:
    def test_interleaving_order(self):
        out = mdl.fuse(np.array([[1.0, 2.0]]), np.array([0.7]))
        np.testing.assert_array_equal(out, [[1.0, 0.7, 2.0, 0.7]])

    def test_zero_condition_keeps_latents(self):
        z = np.array([[3.0, 4.0, 5.0]])
        out = mdl.fuse(z, np.zeros(1))
        np.testing.assert_array_equal(out[:, 0::2], z)
        assert np.all(out[:, 1::2] == 0.0)

    def test_length(self):
        assert mdl.fuse(np.arange(1.0, 6.0).reshape(1, 5), np.array([0.3])).size == 10

    def test_unfuse_identity(self):
        rng = substream(4)
        z = np.abs(rng.standard_normal((7, 3)))
        c = rng.random(7)
        fused = mdl.fuse(z, c)
        np.testing.assert_array_equal(fused[:, 0::2], z)
        np.testing.assert_array_equal(fused[:, 1::2], np.repeat(c[:, None], 3, axis=1))


def constant_xi(cfg, xi_b):
    """Parameters whose CNN outputs softplus(xi_b) at every window."""
    params = mdl.init_params(cfg, 0)
    for name in ("conv_k", "conv_b", "xi_w"):
        params.view(name)[:] = 0.0
    params.view("xi_b")[:] = xi_b
    return ArrayView(params)


def one_window(cfg, p, z, cond):
    """decode_theta on the single window made of rows 0, 1, 2."""
    return mdl.decode_theta(cfg, p, z, cond, [0], [1], [2])


class TestXiDecoder:
    def test_zero_kernels_give_softplus_bias(self, tiny_cfg):
        p = constant_xi(tiny_cfg, 0.3)
        xi, _ = one_window(tiny_cfg, p, np.ones((3, 4)), np.full(3, 0.5))
        np.testing.assert_allclose(xi, math.log1p(math.exp(0.3)), rtol=1e-12)

    def test_output_length_and_sign(self, tiny_instance):
        cfg, params, *_ = tiny_instance
        rng = substream(5)
        xi, theta = one_window(cfg, ArrayView(params),
                               np.abs(rng.standard_normal((3, 4))), rng.random(3))
        assert xi.shape == (1, 4) and theta.shape == (1, 4)
        assert np.all(xi >= 0) and np.all(theta >= 0)

    def test_window_order_sensitivity(self, tiny_instance):
        cfg, params, *_ = tiny_instance
        p = ArrayView(params)
        rng = substream(6)
        z = np.abs(rng.standard_normal((3, 4)))
        cond = rng.random(3)
        xi_abc, _ = mdl.decode_theta(cfg, p, z, cond, [0], [1], [2])
        xi_cba, _ = mdl.decode_theta(cfg, p, z, cond, [2], [1], [0])
        assert not np.allclose(xi_abc, xi_cba)


class TestThetaAndY:
    @staticmethod
    def _cfg(phi):
        k, m = phi.shape
        hyper = mdl.HyperParams(latent_dim=k, n_theta_basis=m, conv_channels=2,
                                enc_widths=(4,))
        return mdl.ModelConfig(n_sites=3, hyper=hyper, phi=phi)

    def test_unit_coefficient_selects_column(self):
        phi = np.abs(substream(7).standard_normal((5, 3)))
        cfg = self._cfg(phi)
        # softplus(-800) is exactly 0
        p = constant_xi(cfg, [-800.0, ad.softplus_inverse(1.0), -800.0])
        xi, theta = one_window(cfg, p, np.ones((3, 5)), np.zeros(3))
        np.testing.assert_array_equal(xi[0, [0, 2]], 0.0)
        np.testing.assert_allclose(theta[0], phi[:, 1], rtol=1e-12)

    def test_single_basis_all_ones(self):
        cfg = self._cfg(np.ones((4, 1)))
        xi, theta = one_window(cfg, constant_xi(cfg, ad.softplus_inverse(2.0)),
                               np.ones((3, 4)), np.zeros(3))
        assert xi[0, 0] == pytest.approx(2.0, rel=1e-14)
        np.testing.assert_array_equal(theta, np.full((1, 4), xi[0, 0]))

    def test_matches_matmul(self, tiny_instance):
        cfg, params, *_ = tiny_instance
        rng = substream(8)
        n = 10
        z = np.abs(rng.standard_normal((n, 4)))
        idx = np.arange(n)
        xi, theta = mdl.decode_theta(cfg, ArrayView(params), z, rng.random(n),
                                     np.maximum(idx - 1, 0), idx,
                                     np.minimum(idx + 1, n - 1))
        np.testing.assert_allclose(theta, xi @ cfg.phi.T, rtol=1e-14)

    def test_theta_in_cone_of_phi(self, tiny_instance):
        cfg, params, x, c, eps = tiny_instance
        z = np.abs(substream(9).standard_normal((20, 4)))
        idx = np.arange(1, 19)
        _, theta = mdl.decode_theta(cfg, ArrayView(params), z, np.zeros(20),
                                    idx - 1, idx, idx + 1)
        coef, *_ = np.linalg.lstsq(cfg.phi, theta.T, rcond=None)
        np.testing.assert_allclose(cfg.phi @ coef, theta.T, atol=1e-8)

    def test_decode_y_linearity(self):
        rng = substream(10)
        w = np.abs(rng.standard_normal((7, 3)))
        z = np.abs(rng.standard_normal((1, 3))) + 0.1
        y1 = ad.matmul(z, ad.transpose(w))
        y2 = ad.matmul(2.0 * z, ad.transpose(w))
        np.testing.assert_allclose(y2, 2.0 * y1, rtol=1e-12)
        np.testing.assert_allclose(y1[0], w @ z[0], rtol=1e-12)
        # taped: d sum(z W^T) / dW = 1 z
        g = ad.gradient(lambda v: ad.vsum(ad.matmul(z, ad.transpose(v["w"]))),
                        ad.ParamVector.build({"w": w}))
        np.testing.assert_array_equal(g.reshape(7, 3), np.ones((7, 1)) * z)

    def test_near_identity_weights(self):
        w = np.eye(3) * 50.0 + 1e-12
        hyper = mdl.HyperParams(latent_dim=3, n_theta_basis=1, conv_channels=2,
                                enc_widths=(4,))
        cfg = mdl.ModelConfig(n_sites=3, hyper=hyper)
        params = mdl.init_params(cfg, 0)
        params.view("w_raw")[:] = ad.softplus_inverse(w + 1e-9)
        z = np.array([[1.0, 2.0, 3.0]])
        y = ad.matmul(z, ad.transpose(mdl.weight_matrix(cfg, ArrayView(params))))
        np.testing.assert_allclose(y[0], 50.0 * z[0], rtol=1e-6)


class TestBuildPhi:
    def test_more_basis_functions_than_knots_rejected(self):
        with pytest.raises(ValueError, match="n_basis"):
            mdl.build_phi(None, 4, 5)

    def test_line_layout_centers_are_distinct_knots(self):
        # 5 of 7 knots on a line: each column peaks (value 1) at its own knot
        phi = mdl.build_phi(None, 7, 5)
        assert phi.shape == (7, 5)
        peaks = np.argmax(phi, axis=0)
        np.testing.assert_array_equal(phi[peaks, np.arange(5)], 1.0)
        assert np.all(np.diff(peaks) > 0)
        # the rounded indices never collide while n_basis <= latent_dim
        for k in range(1, 80):
            for n in range(1, k + 1):
                idx = np.round(np.linspace(0, k - 1, n)).astype(int)
                assert np.all(np.diff(idx) > 0), (k, n)


class TestObjectiveTerms:
    def test_loglik_hand_values(self):
        assert mdl.loglik(np.array([1.0]), np.array([1.0]), 30.0) == pytest.approx(
            math.log(30.0) - LN2, rel=1e-12)
        assert mdl.loglik(np.array([math.e]), np.array([1.0]), 30.0) == pytest.approx(
            math.log(30.0) - LN2 - 1.0 - 30.0, rel=1e-12)

    def test_loglik_ratio_symmetry(self):
        x = np.array([2.0, 0.5, 1.7])
        y = np.array([0.3, 1.1, 5.0])
        a0 = 4.0
        lhs = mdl.loglik(x, y, a0) + np.sum(np.log(x))
        rhs = mdl.loglik(y, x, a0) + np.sum(np.log(y))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_loglik_large_alpha0_limit(self):
        x = np.array([0.7, 2.2])
        a0 = 1e6
        val = mdl.loglik(x, x, a0)
        expect = np.sum(math.log(a0) - LN2 - np.log(x))
        assert val == pytest.approx(expect, rel=1e-12)

    def test_loglik_domain(self):
        with pytest.raises(ValueError):
            mdl.loglik(np.array([-1.0]), np.array([1.0]), 2.0)

    @pytest.mark.parametrize("a0", [2.0, 30.0])
    def test_loglik_matches_laplace(self, a0):
        rng = substream(12)
        x = np.exp(rng.standard_normal((3, 5)))
        y = np.exp(rng.standard_normal((3, 5)))
        np.testing.assert_allclose(mdl.loglik(x, y, a0),
                                   np.sum(loglaplace_logpdf(x, y, a0), axis=-1),
                                   rtol=1e-12)

    def test_log_prior_hand_value(self):
        val = mdl.log_prior(np.array([1.0]), np.array([0.0]))
        assert val == pytest.approx(-1.5155, abs=2e-4)

    def test_log_prior_additivity(self):
        z = np.array([0.4, 1.3, 2.2])
        th = np.array([0.1, 0.9, 0.0])
        total = mdl.log_prior(z, th)
        parts = sum(float(mdl.log_prior(z[i:i + 1], th[i:i + 1]))
                    for i in range(3))
        assert total == pytest.approx(parts, rel=1e-12)

    def test_log_prior_matches_distribution(self):
        z = np.array([0.2, 1.0, 3.0])
        th = np.array([0.5, 1.5, 0.0])
        np.testing.assert_allclose(mdl.log_prior(z, th),
                                   np.sum(expps_half_logpdf(z, th)),
                                   rtol=1e-12)

    def test_log_q_hand_value(self):
        val = mdl.log_q(np.array([1.0]), np.array([0.0]), np.array([1.0]))
        assert val == pytest.approx(-0.918939, abs=1e-6)

    def test_log_q_matches_lognormal(self):
        rng = substream(11)
        z = np.abs(rng.standard_normal(4)) + 0.1
        m = rng.standard_normal(4)
        s = np.abs(rng.standard_normal(4)) + 0.2
        np.testing.assert_allclose(mdl.log_q(z, m, s),
                                   np.sum(lognormal_logpdf(z, m, s)), rtol=1e-12)

    def test_log_q_maximized_at_mode(self):
        m, s = 0.3, 0.7
        mode = math.exp(m - s**2)
        grid = mode * np.linspace(0.7, 1.3, 101)
        vals = [float(mdl.log_q(np.array([g]), np.array([m]), np.array([s])))
                for g in grid]
        assert abs(grid[int(np.argmax(vals))] - mode) < 0.01 * mode

    def test_log_q_density_integrates_to_one(self):
        m, s = 0.3, 0.7
        val, _ = quad(lambda z: math.exp(float(
            mdl.log_q(np.array([z]), np.array([m]), np.array([s])))),
            0, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_log_q_accepts_latent_sample(self):
        m, log_z, z = draw([1.2], [0.4], [0.1], [0.7])
        direct = mdl.log_q(z, m, np.array([[0.4]]))
        given = mdl.log_q(z, m, np.array([[0.4]]), log_z=log_z)
        assert float(given[0]) == pytest.approx(float(direct[0]), rel=1e-12)


def one_step_penalty(xi_t, xi_prev, c_t, c_prev, rho0, absolute=False):
    return mdl.penalty(np.array([xi_t]), np.array([xi_prev]), np.array([c_t]),
                       np.array([c_prev]), rho0, absolute=absolute)


class TestPenalty:
    def test_no_change_no_penalty(self):
        xi = [1.0, 2.0]
        assert float(one_step_penalty(xi, xi, 0.4, 0.1, rho0=2.0)) == 0.0

    def test_hand_value(self):
        val = one_step_penalty([2.0], [1.0], 0.6, 0.1, rho0=1.0)
        assert float(val) == pytest.approx(2.0, rel=1e-12)

    def test_guarded_denominator(self):
        val = one_step_penalty([2.0], [1.0], 0.5, 0.5, rho0=1.0)
        assert float(val) == pytest.approx(1.0 / 1e-3, rel=1e-12)

    def test_absolute_variant(self):
        val = one_step_penalty([0.0], [1.0], 0.6, 0.1, rho0=1.0, absolute=True)
        assert float(val) == pytest.approx(2.0, rel=1e-12)
        signed = one_step_penalty([0.0], [1.0], 0.6, 0.1, rho0=1.0)
        assert float(signed) == pytest.approx(-2.0, rel=1e-12)

    def test_rows_sum(self):
        rng = substream(14)
        xi = np.abs(rng.standard_normal((4, 3)))
        c = rng.random(4)
        for absolute in (False, True):
            batched = mdl.penalty(xi[1:], xi[:-1], c[1:], c[:-1], 0.3, absolute)
            rows = sum(float(one_step_penalty(xi[t], xi[t - 1], c[t], c[t - 1],
                                              0.3, absolute)) for t in range(1, 4))
            assert float(batched) == pytest.approx(rows, rel=1e-12)


class TestPenalizedElbo:
    def test_deterministic_draws_collapse_monte_carlo(self, tiny_cfg):
        params = mdl.init_params(tiny_cfg, 0)
        rng = substream(12)
        x = np.exp(rng.standard_normal((5, 25)))
        c = rng.random(5)
        p = ArrayView(params)
        eps0 = np.zeros((1, 5, 4))
        eps3 = np.zeros((3, 5, 4))
        cfg0 = mdl.ModelConfig(n_sites=25, hyper=mdl.HyperParams(
            latent_dim=4, n_theta_basis=4, conv_channels=8, enc_widths=(16,),
            alpha0=30.0, rho0=0.0, mc_draws=3, seed=0))
        a = mdl.penalized_elbo(cfg0, p, x, c, eps0)
        b = mdl.penalized_elbo(cfg0, p, x, c, eps3)
        assert float(a) == pytest.approx(float(b), rel=1e-12)

        # and the value is exactly the three-term sum at the deterministic z
        mu, sigma = mdl.encode(cfg0, p, x)
        z = mu * np.exp(c.reshape(-1, 1) * p["cond_map"])
        fused = mdl.fuse(z, c)
        idx = np.arange(5)
        stacked = np.stack([fused[np.clip(idx - 1, 0, 4)], fused,
                            fused[np.clip(idx + 1, 0, 4)]], axis=1)
        xi = mdl._xi_from_stacked(cfg0, p, stacked)
        theta = xi @ cfg0.phi.T
        y = z @ np.asarray(mdl.weight_matrix(cfg0, p)).T
        m = np.log(mu) + c.reshape(-1, 1) * p["cond_map"]
        direct = float(np.sum(mdl.loglik(x, y, 30.0))
                       + np.sum(mdl.log_prior(z, theta))
                       - np.sum(mdl.log_q(z, m, sigma)))
        assert float(a) == pytest.approx(direct, rel=1e-12)

    def test_penalty_additivity(self, tiny_cfg):
        params = mdl.init_params(tiny_cfg, 0)
        rng = substream(13)
        x = np.exp(rng.standard_normal((5, 25)))
        c = rng.random(5)
        eps = mdl.draw_eps(tiny_cfg, 5, 0)
        p = ArrayView(params)
        hyper0 = mdl.HyperParams(latent_dim=4, n_theta_basis=4, conv_channels=8,
                                 enc_widths=(16,), alpha0=30.0, rho0=0.0, seed=0)
        cfg_zero = mdl.ModelConfig(n_sites=25, hyper=hyper0, phi=tiny_cfg.phi)
        with_pen = mdl.penalized_elbo(tiny_cfg, p, x, c, eps)
        without = mdl.penalized_elbo(cfg_zero, p, x, c, eps)

        # reconstruct the xi path and sum the penalties directly
        mu, sigma = mdl.encode(tiny_cfg, p, x)
        z = np.exp(np.log(mu) + c.reshape(-1, 1) * p["cond_map"] + sigma * eps[0])
        fused = mdl.fuse(z, c)
        idx = np.arange(5)
        stacked = np.stack([fused[np.clip(idx - 1, 0, 4)], fused,
                            fused[np.clip(idx + 1, 0, 4)]], axis=1)
        xi = mdl._xi_from_stacked(tiny_cfg, p, stacked)
        rho = sum(float(one_step_penalty(xi[t], xi[t - 1], c[t], c[t - 1],
                                         tiny_cfg.hyper.rho0)) for t in range(1, 5))
        assert float(without) - float(with_pen) == pytest.approx(rho, rel=1e-9)

    def test_batch_permutation_invariance(self, tiny_instance):
        cfg, params, x, c, eps = tiny_instance
        p = ArrayView(params)
        a = mdl.penalized_elbo(cfg, p, x, c, eps, batch=np.array([1, 3, 4]))
        b = mdl.penalized_elbo(cfg, p, x, c, eps, batch=np.array([4, 1, 3]))
        assert float(a) == float(b)

    def test_minibatch_sum_equals_full(self, tiny_instance):
        cfg, params, x, c, eps = tiny_instance
        p = ArrayView(params)
        full = float(mdl.penalized_elbo(cfg, p, x, c, eps))
        parts = sum(float(mdl.penalized_elbo(cfg, p, x, c, eps, batch=b))
                    for b in (np.arange(0, 2), np.arange(2, 5), np.arange(5, 6)))
        assert full == pytest.approx(parts, rel=1e-12)

    def test_gradient_matches_finite_differences(self, tiny_instance):
        cfg, params, x, c, eps = tiny_instance
        report = fd_check(lambda p: mdl.penalized_elbo(cfg, p, x, c, eps), params,
                          step=1e-5)
        assert report.max_rel_err <= 1e-4

    def test_positivity_chain(self, tiny_instance):
        cfg, params, x, c, eps = tiny_instance
        p = ArrayView(params)
        mu, sigma = mdl.encode(cfg, p, x)
        z = np.exp(np.log(mu) + c.reshape(-1, 1) * p["cond_map"] + sigma * eps[0])
        fused = mdl.fuse(z, c)
        idx = np.arange(x.shape[0])
        stacked = np.stack([fused[np.clip(idx - 1, 0, 5)], fused,
                            fused[np.clip(idx + 1, 0, 5)]], axis=1)
        xi = mdl._xi_from_stacked(cfg, p, stacked)
        theta = xi @ cfg.phi.T
        w = mdl.weight_matrix(cfg, p)
        y = z @ np.asarray(w).T
        for arr in (mu, sigma, z, y, np.asarray(w)):
            assert np.all(arr > 0)
        for arr in (xi, theta):
            assert np.all(arr >= 0)


def reference_kink_values(cfg, pv, x, c, eps, batch=None):
    """The reconstruction log-ratios inside the likelihood's absolute values,
    recomputed in numpy beside the objective: the kink filter fd_check used
    before it read its kinks from the tape."""
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n_t = x.shape[0]
    if batch is None:
        batch = np.arange(n_t)
    batch = np.sort(np.asarray(batch, dtype=np.intp))
    p = ad.ArrayView(pv)
    mu, sigma = mdl.encode(cfg, p, x)
    m = np.log(mu) + c.reshape(-1, 1) * p["cond_map"]
    w = mdl.weight_matrix(cfg, p)
    out = []
    for l in range(eps.shape[0]):
        z = np.exp(m + sigma * eps[l])
        y = z[batch] @ np.asarray(w).T
        out.append(np.log(x[batch]) - np.log(y))
    return np.concatenate([o.ravel() for o in out])


def test_tape_kink_filter_covers_reference_filter(tiny_cfg):
    params = mdl.init_params(tiny_cfg, 0)
    params.view("enc_w0")[:] = 0.0          # the latents no longer see the fields
    rng = substream(15)
    x = np.exp(rng.standard_normal((6, 25)))
    c = rng.random(6)
    eps = mdl.draw_eps(tiny_cfg, 6, 0)
    # observe the reconstruction itself at two sites: those ratios sit on the kink
    p = ArrayView(params)
    mu, sigma = mdl.encode(tiny_cfg, p, x)
    _, _, z = mdl.latent(p, mu, sigma, c, eps[0])
    x[:, :2] = (z @ np.asarray(mdl.weight_matrix(tiny_cfg, p)).T)[:, :2]
    assert np.sum(reference_kink_values(tiny_cfg, params, x, c, eps) == 0.0) == 12

    base = params.data
    old = np.zeros(params.size, dtype=bool)
    for i in range(params.size):
        h = 1e-5 * max(1.0, abs(base[i]))
        k = []
        for sign in (1.0, -1.0):
            probe = base.copy()
            probe[i] += sign * h
            k.append(reference_kink_values(tiny_cfg, params.replace(probe), x, c, eps))
        moved = k[0] != k[1]
        old[i] = np.any(moved & ((np.sign(k[0]) != np.sign(k[1]))
                                 | (np.abs(k[0]) < ad.KINK_TOL)
                                 | (np.abs(k[1]) < ad.KINK_TOL)))
    report = fd_check(lambda q: mdl.penalized_elbo(tiny_cfg, q, x, c, eps), params,
                      step=1e-5)
    assert 0 < old.sum() < params.size
    assert np.all(report.skipped[old])
    assert report.max_rel_err <= 1e-4


def test_desk_penalty_abs_gradient_matches_central_differences(desk_instance):
    """The configuration every preset trains: desk size with the absolute
    temporal penalty.  Seeded coordinates of every parameter block (the conv
    blocks reach the loss through the max-pool vjp) are compared with central
    differences of the plain-numpy objective.  A coordinate whose left and
    right one-sided slopes disagree straddles a kink of an absolute value and
    is skipped; only function values decide that, so a wrong analytic
    gradient cannot make a coordinate skip."""
    inst = desk_instance
    hyper = mdl.HyperParams(latent_dim=16, n_theta_basis=9, rho0=0.1,
                            penalty_abs=True, seed=inst["seed"])
    cfg = mdl.ModelConfig(n_sites=inst["grid"].n_sites, hyper=hyper,
                          knots=inst["knots"], sites=inst["grid"].sites,
                          wendland_radius=6.0)
    params = mdl.init_params(cfg, inst["seed"])
    x, c = inst["x"], inst["c"]
    eps = mdl.draw_eps(cfg, x.shape[0], inst["seed"])

    def loss(p):
        return -mdl.penalized_elbo(cfg, p, x, c, eps) / float(x.shape[0])

    _, grad = value_and_gradient(loss, params)
    base = params.data
    f0 = float(loss(ArrayView(params)))
    floor = 1e-6 * max(1.0, float(np.max(np.abs(grad))))
    rng = substream(inst["seed"], "desk-gradcheck")
    for name, (offset, shape) in params.layout.items():
        size = math.prod(shape)
        compared = 0
        for i in offset + rng.permutation(size)[:12]:
            h = 1e-5 * max(1.0, abs(base[i]))
            f = []
            for sign in (-1.0, 1.0):
                probe = base.copy()
                probe[i] += sign * h
                f.append(float(loss(ArrayView(params.replace(probe)))))
            central = (f[1] - f[0]) / (2.0 * h)
            den = max(abs(grad[i]), abs(central), floor)
            if abs((f[1] - f0) / h - (f0 - f[0]) / h) / den > 1e-4:
                continue                                   # kink: skip
            assert abs(grad[i] - central) / den <= 1e-4, (params.locate(int(i)),
                                                          grad[i], central)
            compared += 1
            if compared == min(3, size):
                break
        assert compared == min(3, size), f"{name}: too many kinks to compare"


class TestParamCount:
    def test_count_independent_of_time(self, tiny_cfg):
        shapes = mdl.param_template(tiny_cfg).values()
        assert sum(math.prod(s) for s in shapes) == mdl.init_params(tiny_cfg, 0).size

    def test_count_formula(self):
        hyper = mdl.HyperParams(latent_dim=4, n_theta_basis=2, conv_channels=3,
                                enc_widths=(8,), kernel_len=3)
        cfg = mdl.ModelConfig(n_sites=10, hyper=hyper)
        expected = (10 * 8 + 8) + (8 * 8 + 8)   # encoder: widths [10, 8, 8]
        expected += 4                            # condition map
        expected += 3 * 3 * 3 + 3                # conv kernel and bias
        expected += (3 * 4) * 2 + 2              # dense head on pooled features
        expected += 10 * 4                       # raw weight matrix
        assert mdl.init_params(cfg, 0).size == expected

    def test_fixed_w_excluded(self):
        hyper = mdl.HyperParams(latent_dim=4, n_theta_basis=2, conv_channels=3,
                                enc_widths=(8,), fix_w=True)
        cfg = mdl.ModelConfig(n_sites=10, hyper=hyper,
                              fixed_w=np.ones((10, 4)))
        assert "w_raw" not in mdl.param_template(cfg)

    def test_fixed_w_derived_from_geometry(self):
        hyper = mdl.HyperParams(latent_dim=4, n_theta_basis=2, conv_channels=3,
                                enc_widths=(8,), fix_w=True)
        sites = np.column_stack([np.arange(10.0) % 5, np.arange(10.0) // 5])
        knots = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 1.0], [4.0, 1.0]])
        cfg = mdl.ModelConfig(n_sites=10, hyper=hyper, knots=knots, sites=sites,
                              wendland_radius=5.0)
        assert np.array_equal(cfg.fixed_w, wendland_basis(sites, knots, 5.0))
        with pytest.raises(ValueError, match="Wendland radius"):
            mdl.ModelConfig(n_sites=10, hyper=hyper, knots=knots, sites=sites)
