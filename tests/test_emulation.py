import math

import numpy as np
import pytest
from scipy.stats import kstest, kstwobign, uniform

from extvae import emulation as emu
from extvae import fieldsim as fs
from extvae import model as mdl
from extvae.autodiff import ArrayView
from extvae.seeds import CounterStream, substream


@pytest.fixture(scope="module")
def small_model():
    """An initialized (untrained) model over a 5x5 grid; emulation mechanics
    do not require a trained fit."""
    grid = fs.regular_grid(5, 5, 20.0)
    knots = fs.knot_lattice(2, 20.0)
    hyper = mdl.HyperParams(latent_dim=4, n_theta_basis=4, conv_channels=8,
                            enc_widths=(16,), alpha0=30.0, seed=0)
    cfg = mdl.ModelConfig(n_sites=25, hyper=hyper, knots=knots,
                          sites=grid.sites, wendland_radius=25.0)
    params = mdl.init_params(cfg, 3)
    model = mdl.ModelParameters(cfg, params)
    rng = substream(1, "data")
    x = np.exp(rng.standard_normal((12, 25)))
    c = fs.smooth_condition(rng.standard_normal(12), window=5)
    return model, x, c


class TestEmulate:
    def test_shapes_and_positivity(self, small_model):
        model, x, c = small_model
        ens = emu.emulate(model, x, c, n_samples=7, seed=5)
        assert ens.samples.shape == (12, 25, 7)
        assert ens.theta.shape == (12, 4, 7)
        assert np.all(ens.samples > 0)
        assert np.all(ens.theta >= 0)
        assert ens.scenario == "factual"

    def test_same_seed_same_bits(self, small_model):
        model, x, c = small_model
        a = emu.emulate(model, x, c, n_samples=4, seed=9)
        b = emu.emulate(model, x, c, n_samples=4, seed=9)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.theta, b.theta)

    def test_different_seed_differs(self, small_model):
        model, x, c = small_model
        a = emu.emulate(model, x, c, n_samples=4, seed=9)
        b = emu.emulate(model, x, c, n_samples=4, seed=10)
        assert not np.array_equal(a.samples, b.samples)

    def test_degenerate_pipeline_reduces_to_mean_path(self, small_model):
        model, x, c = small_model
        from dataclasses import replace
        big_alpha = replace(model.config.hyper, alpha0=1e4)
        cfg2 = mdl.ModelConfig(n_sites=25, hyper=big_alpha,
                               knots=model.config.knots, phi=model.config.phi)
        m2 = mdl.ModelParameters(cfg2, model.params)
        ens = emu.emulate(m2, x, c, n_samples=3, seed=2,
                          draw_latent_noise=False)
        from extvae.autodiff import ArrayView
        p = ArrayView(model.params)
        mu, _ = mdl.encode(cfg2, p, x)
        z = mu * np.exp(c.reshape(-1, 1) * p["cond_map"])
        y = z @ np.asarray(mdl.weight_matrix(cfg2, p)).T
        for s in range(3):
            rel = np.abs(ens.samples[:, :, s] / y - 1.0)
            assert rel.max() < 0.01

    def test_theta_is_the_objective_decode(self, small_model, monkeypatch):
        """Without latent noise every sample's theta is, bit for bit, the
        theta the training objective decodes at eps = 0."""
        model, x, c = small_model
        decoded = []

        def recording(*args):
            out = decode_theta(*args)
            decoded.append(out[1])
            return out

        decode_theta = mdl.decode_theta
        monkeypatch.setattr(mdl, "decode_theta", recording)
        eps0 = np.zeros((1, x.shape[0], model.config.hyper.latent_dim))
        mdl.penalized_elbo(model.config, ArrayView(model.params), x, c, eps0)
        objective_theta = decoded.pop()
        ens = emu.emulate(model, x, c, n_samples=3, seed=2, draw_latent_noise=False)
        for s in range(3):
            assert np.array_equal(ens.theta[:, :, s], objective_theta)

    def test_site_subset(self, small_model):
        """Every draw is read at its (sample, site, time) address, so any
        subset of sites, in any order, is the full-grid columns bit for bit."""
        model, x, c = small_model
        picks = [[0, 7, 19], [19, 0, 7]] + [[j] for j in range(model.config.n_sites)]
        for mode in emu.MODES:
            for latent_noise, data_noise in [(True, True), (False, True),
                                             (True, False), (False, False)]:
                kw = dict(n_samples=4, seed=17, mode=mode,
                          draw_latent_noise=latent_noise, draw_data_noise=data_noise)
                full = emu.emulate(model, x, c, **kw)
                for pick in picks:
                    sub = emu.emulate(model, x, c, sites=np.array(pick), **kw)
                    assert sub.site_indices.tolist() == pick
                    assert sub.samples.tobytes() == np.ascontiguousarray(
                        full.samples[:, pick, :]).tobytes(), (kw, pick)
                    assert sub.theta.tobytes() == full.theta.tobytes()

    def test_prior_mode_runs(self, small_model):
        model, x, c = small_model
        ens = emu.emulate(model, x, c, n_samples=3, seed=6, mode="prior")
        assert np.all(ens.samples > 0)
        recon = emu.emulate(model, x, c, n_samples=3, seed=6)
        assert not np.array_equal(ens.samples, recon.samples)
        # per-sample prior streams: a sample does not depend on its block
        more = emu.emulate(model, x, c, n_samples=5, seed=6, mode="prior")
        np.testing.assert_array_equal(more.samples[:, :, :3], ens.samples)
        with pytest.raises(ValueError, match="mode"):
            emu.emulate(model, x, c, n_samples=1, mode="pri")

    def test_frozen_data_noise(self, small_model):
        model, x, c = small_model
        a = emu.emulate(model, x, c, n_samples=2, seed=8, draw_data_noise=False)
        b = emu.emulate(model, x, c, n_samples=2, seed=8, draw_data_noise=False,
                        draw_latent_noise=False)
        # with both noises off every sample is identical
        assert np.array_equal(b.samples[:, :, 0], b.samples[:, :, 1])
        assert not np.array_equal(a.samples[:, :, 0], a.samples[:, :, 1])

    def test_ensemble_marginal_converges(self):
        # empirical CDF of a large ensemble at one cell matches a one-million
        # sample reference ensemble at the 1% KS level
        grid = fs.regular_grid(3, 3, 20.0)
        hyper = mdl.HyperParams(latent_dim=4, n_theta_basis=4, conv_channels=4,
                                enc_widths=(8,), alpha0=30.0, seed=0)
        cfg = mdl.ModelConfig(n_sites=9, hyper=hyper,
                              knots=fs.knot_lattice(2, 20.0),
                              sites=grid.sites, wendland_radius=25.0)
        model = mdl.ModelParameters(cfg, mdl.init_params(cfg, 4))
        rng = substream(2, "data")
        x = np.exp(rng.standard_normal((4, 9)))
        c = np.array([0.1, 0.5, 0.8, 0.3])
        t, j = 2, 5
        big = emu.emulate(model, x, c, n_samples=20000, seed=13,
                          sites=np.array([j]))
        ref = emu.emulate(model, x, c, n_samples=10**6, seed=14,
                          sites=np.array([j]))
        a = big.samples[t, 0, :]
        b = np.sort(ref.samples[t, 0, :])
        ecdf = lambda q: np.searchsorted(b, q, side="right") / b.size
        stat = kstest(a, ecdf).statistic
        assert stat < kstwobign.isf(0.01) / math.sqrt(a.size)


class TestSiteAddressing:
    """A smaller chunk reproduces one chunk bit for bit, nearby noise runs read
    in one span are the same words, and bad site lists are rejected before any
    compute."""

    @pytest.mark.parametrize("mode", emu.MODES)
    def test_one_sample_chunks_equal_one_chunk(self, small_model, monkeypatch, mode):
        model, x, c = small_model
        whole = emu.emulate(model, x, c, n_samples=5, seed=3, mode=mode)
        calls = []
        chunk_pass = emu._chunk_pass

        def counting(*args):
            paths, thetas = chunk_pass(*args)
            calls.append(paths.shape[0])
            return paths, thetas

        monkeypatch.setattr(emu, "_chunk_pass", counting)
        monkeypatch.setattr(emu, "CHUNK_BYTES", 1)
        split = emu.emulate(model, x, c, n_samples=5, seed=3, mode=mode)
        assert calls == [1] * 5
        assert split.samples.tobytes() == whole.samples.tobytes()
        assert split.theta.tobytes() == whole.theta.tobytes()

    @pytest.mark.parametrize("mode", emu.MODES)
    def test_short_series_at_desk_width(self, mode):
        # 132 steps (11 years of months) at the desk preset's 40 conv channels
        # and K = 16: a one-member run is the first member of a two-member one,
        # though the two chunks hold 132 and 264 windows
        cfg = mdl.ModelConfig(n_sites=9, hyper=mdl.HyperParams(seed=0))
        model = mdl.ModelParameters(cfg, mdl.init_params(cfg, 3))
        rng = substream(2, "short")
        x = np.exp(rng.standard_normal((132, 9)))
        c = fs.smooth_condition(rng.standard_normal(132), window=5)
        one = emu.emulate(model, x, c, n_samples=1, seed=4, mode=mode)
        two = emu.emulate(model, x, c, n_samples=2, seed=4, mode=mode)
        assert one.samples.tobytes() == two.samples[:, :, :1].tobytes()
        assert one.theta.tobytes() == two.theta[:, :, :1].tobytes()

    def test_runs_read_one_read_per_run(self, monkeypatch):
        stream = CounterStream(4, "runs")
        # a run touching the one before, one 2 words after it (near), far runs,
        # then a run that starts before the previous one (sites out of order)
        starts = np.array([3, 8, 11, 2000, 5007, 100])
        lens = np.array([5, 1, 4, 7, 2, 3])
        want = np.concatenate([stream.words(int(s), int(n))
                               for s, n in zip(starts, lens)])
        reads, words = [], stream.words
        monkeypatch.setattr(stream, "words",
                            lambda s, n: reads.append((s, n)) or words(s, n))
        got = emu._run_words(stream, starts, lens)
        assert got.tobytes() == want.tobytes()
        assert reads == [(3, 6), (11, 4), (2000, 7), (5007, 2), (100, 3)]

    @pytest.mark.parametrize("sites", [[-1, 3, 3], [25], [3, 3], [1.5], [],
                                       [[0, 1], [2, 3]], [[0, 1], [2]],
                                       [True, False]])
    def test_bad_sites_rejected_before_compute(self, small_model, monkeypatch,
                                               sites):
        model, x, c = small_model

        def no_encode(*args):
            raise AssertionError("encode ran before the sites were checked")

        monkeypatch.setattr(mdl, "encode", no_encode)
        with pytest.raises(ValueError, match="sites"):
            emu.emulate(model, x, c, n_samples=2, sites=sites)
        with pytest.raises(ValueError, match="sites"):
            emu.counterfactual(model, x, c, 1.0 - c, n_samples=2, sites=sites)


class TestCounterfactual:
    def test_noop_intervention_is_bit_identical(self, small_model):
        model, x, c = small_model
        fact = emu.emulate(model, x, c, n_samples=5, seed=21)
        cf = emu.counterfactual(model, x, c, c.copy(), n_samples=5, seed=21)
        assert np.array_equal(fact.samples, cf.samples)
        assert cf.scenario == "counterfactual"

    def test_flip_changes_output(self, small_model):
        model, x, c = small_model
        params = model.params.copy()
        params.view("cond_map")[:] = 0.3   # give the condition a real pathway
        m2 = mdl.ModelParameters(model.config, params)
        fact = emu.emulate(m2, x, c, n_samples=5, seed=21)
        cf = emu.counterfactual(m2, x, c, emu.flip_condition(c), n_samples=5,
                                seed=21)
        assert not np.array_equal(fact.samples, cf.samples)

    def test_length_mismatch(self, small_model):
        model, x, c = small_model
        with pytest.raises(ValueError):
            emu.counterfactual(model, x, c, c[:-1], n_samples=2, seed=0)

    def test_flip_is_involution(self):
        c = np.linspace(0, 1, 11)
        np.testing.assert_allclose(emu.flip_condition(emu.flip_condition(c)), c)


class TestAblation:
    def test_white_noise_range(self):
        c = np.concatenate([[0.2], np.linspace(0.3, 0.9, 50)])
        out = emu.ablate_condition(c, "white-noise", seed=3)
        assert out.shape == c.shape
        assert out.min() >= 0.2 and out.max() <= 0.9

    def test_fixed_mode_constant(self):
        c = np.full(30, 0.5)
        out = emu.ablate_condition(c, "fixed", seed=1)
        np.testing.assert_array_equal(out, c)

    def test_fixed_mode_mean(self):
        c = np.array([0.0, 1.0, 0.5, 0.5])
        np.testing.assert_allclose(emu.ablate_condition(c, "fixed", 0), 0.5)

    def test_white_noise_is_uniform(self):
        c = np.linspace(0.1, 0.7, 10**4)
        out = emu.ablate_condition(c, "white-noise", seed=5)
        stat = kstest(out, uniform(loc=0.1, scale=0.6).cdf).statistic
        assert stat < kstwobign.isf(0.01) / math.sqrt(out.size)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            emu.ablate_condition(np.zeros(3), "nonsense", seed=0)


class TestEnergyDistance:
    def test_identical_samples_zero(self):
        rng = substream(30)
        a = rng.standard_normal((50, 2))
        assert emu.energy_distance(a, a.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_separated_samples_positive(self):
        rng = substream(31)
        a = rng.standard_normal((100, 2))
        b = rng.standard_normal((100, 2)) + 5.0
        assert emu.energy_distance(a, b) > 1.0
