import datetime as dt
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from extvae import cli, workers
from extvae import preprocess as pp
from extvae.distributions import GevFitError, GevParams, gev_cdf
from extvae.seeds import substream
from references import gev_sample


# Reference implementations: the tiled-design seasonal OLS, the per-element
# variance objective and the per-day month loop that the pooled and vectorized
# forms in extvae.preprocess replace.

def seasonal_tiled(responses, design):
    responses = np.atleast_2d(np.asarray(responses, dtype=np.float64))
    m = design.matrix
    stacked = np.tile(m, (responses.shape[0], 1))
    beta = np.linalg.lstsq(stacked, responses.ravel(), rcond=None)[0]
    return beta, m @ beta


def variance_nll_raveled(b, r, ts):
    log_eps = b[0] + b[1] * ts
    w = r**2 * np.exp(-2.0 * log_eps)
    d = 1.0 - w
    return float(np.sum(log_eps + 0.5 * w)), np.array([np.sum(d), np.sum(d * ts)])


def monthly_maxima_loop(values, dates):
    keys, maxima, current = [], [], None
    for v, d in zip(values, dates):
        key = (d.year, d.month)
        if key != current:
            keys.append(key)
            maxima.append(v)
            current = key
        elif v > maxima[-1]:
            maxima[-1] = v
    return keys, np.asarray(maxima, dtype=np.float64)


class TestCyclicSplines:
    def test_periodicity_one_year(self):
        days = np.linspace(1.0, 365.0, 730)
        a = pp.cyclic_spline_basis(days)
        b = pp.cyclic_spline_basis(days + 365.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_partition_of_unity(self):
        days = np.arange(1, 366, dtype=float)
        b = pp.cyclic_spline_basis(days)
        np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-12)

    def test_smooth_across_year_boundary(self):
        # value and first two finite-difference derivatives match at the wrap
        h = 1e-4
        for k in range(12):
            def f(d):
                return pp.cyclic_spline_basis(np.array([d]))[0, k]
            left = [f(365.0 + 1.0 - 2 * h), f(366.0 - h), f(366.0),
                    f(366.0 + h), f(366.0 + 2 * h)]
            right = [f(1.0 - 2 * h), f(1.0 - h), f(1.0), f(1.0 + h), f(1.0 + 2 * h)]
            for a, b in zip(left, right):
                assert a == pytest.approx(b, abs=1e-10)

    def test_nonnegative_and_local(self):
        days = np.arange(1, 366, dtype=float)
        b = pp.cyclic_spline_basis(days)
        assert np.all(b >= 0)
        assert np.all(np.sum(b > 1e-12, axis=1) <= 4)   # cubic: 4 active splines


class TestBuildDesign:
    def test_shape_and_full_rank(self):
        design = pp.build_design(3 * 365, dt.date(2014, 5, 1))
        # partition of unity: with every spline the matrix would have rank 13
        # in 14 columns, so the last spline is left out
        m = design.matrix
        assert m.shape == (1095, 13)
        assert np.linalg.matrix_rank(m) == 13
        splines = pp.cyclic_spline_basis(design.day)
        np.testing.assert_array_equal(m[:, 2:], splines[:, :-1])
        assert m.flags.f_contiguous

    def test_requires_a_year(self):
        with pytest.raises(ValueError):
            pp.build_design(200, dt.date(2020, 1, 1))

    def test_leap_day_folding(self):
        dates = [dt.date(2020, 2, 28), dt.date(2020, 2, 29), dt.date(2020, 3, 1),
                 dt.date(2020, 12, 31)]
        doy = pp.day_of_year(dates)
        np.testing.assert_array_equal(doy, [59, 59, 60, 365])


class TestNeighborhoods:
    def test_isolated_site_contains_itself(self):
        coords = np.array([[0.0, 0.0], [10.0, 10.0]])   # ~1500 km apart
        nbs = pp.neighborhoods(coords, radius_km=60.0)
        np.testing.assert_array_equal(nbs[0], [0])
        np.testing.assert_array_equal(nbs[1], [1])

    def test_symmetry(self):
        rng = substream(1)
        coords = np.column_stack([145 + rng.random(15), -30 + rng.random(15)])
        nbs = pp.neighborhoods(coords, radius_km=60.0)
        for j, nb in enumerate(nbs):
            for i in nb:
                assert j in nbs[i]

    def test_radius_cutoff(self):
        # ~0.53 degrees of latitude is ~59 km; 0.55 is ~61 km
        base = np.array([[150.0, -30.0]])
        near = np.array([[150.0, -30.0 + 59.0 / 111.19]])
        far = np.array([[150.0, -30.0 + 61.0 / 111.19]])
        assert pp.haversine_km(base, near)[0, 0] == pytest.approx(59.0, abs=0.1)
        nbs = pp.neighborhoods(np.vstack([base, near, far]), radius_km=60.0)
        assert set(nbs[0]) == {0, 1}

    @pytest.mark.parametrize("rows", [1, 7, 256])
    def test_row_blocks_match_full_matrix(self, monkeypatch, rows):
        rng = substream(14)
        coords = np.column_stack([150 + 2 * rng.random(300), -30 + 2 * rng.random(300)])
        d = pp.haversine_km(coords, coords)
        np.fill_diagonal(d, 0.0)
        full = [np.where(row < 60.0)[0] for row in d]
        monkeypatch.setattr(pp, "NEIGHBOR_ROWS", rows)
        blocked = pp.neighborhoods(coords, radius_km=60.0)
        assert len(blocked) == len(full)
        assert max(len(nb) for nb in full) > 5
        for a, b in zip(blocked, full):
            np.testing.assert_array_equal(a, b)

    def test_haversine_known_value(self):
        # one degree of longitude at the equator
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 0.0]])
        expect = 6371.0 * math.pi / 180.0
        assert pp.haversine_km(a, b)[0, 0] == pytest.approx(expect, rel=1e-9)


class TestSeasonalFit:
    @pytest.fixture()
    def design(self):
        return pp.build_design(2 * 365, dt.date(2015, 1, 1))

    def test_constant_response(self, design):
        y = np.full((1, 730), 4.2)
        beta, fitted, resid = pp.fit_seasonal(y, design)
        np.testing.assert_allclose(fitted, 4.2, atol=1e-9)
        np.testing.assert_allclose(resid, 0.0, atol=1e-9)

    def test_exact_recovery(self, design):
        rng = substream(2)
        m = design.matrix
        beta_true = rng.standard_normal(m.shape[1])
        y = (m @ beta_true)[None, :]
        beta, fitted, _ = pp.fit_seasonal(y, design)
        np.testing.assert_allclose(beta, beta_true, atol=1e-8)

    def test_duplicate_neighbor_leaves_fit_unchanged(self, design):
        rng = substream(3)
        y = rng.standard_normal(730)
        _, fitted1, _ = pp.fit_seasonal(y[None, :], design)
        _, fitted2, _ = pp.fit_seasonal(np.vstack([y, y]), design)
        np.testing.assert_allclose(fitted1, fitted2, atol=1e-10)


    @pytest.mark.parametrize("rows", [[0], [0, 1], list(range(8)) + [3]])
    def test_neighbor_mean_matches_tiled_design(self, design, rows):
        rng = substream(15)
        m = design.matrix
        series = (m @ rng.standard_normal(m.shape[1]))[None, :] \
            + rng.standard_normal((8, 730))
        y = series[rows]
        beta, fitted, resid = pp.fit_seasonal(y, design)
        beta_ref, fitted_ref = seasonal_tiled(y, design)
        np.testing.assert_allclose(beta, beta_ref, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(fitted, fitted_ref, rtol=1e-10, atol=1e-10)
        np.testing.assert_array_equal(resid, y - fitted)


class TestVarianceModel:
    def test_pooled_objective_matches_raveled(self):
        rng = substream(16)
        n, n_days = 5, 1000
        r = rng.standard_normal((n, n_days)) * np.exp(rng.standard_normal(n_days))
        ts = np.arange(1.0, n_days + 1) / n_days
        ss = np.einsum("ij,ij->j", r, r)
        for b in rng.uniform(-1.0, 1.0, (10, 2)):
            nll, grad = pp._variance_nll(b, ss, n, ts)
            nll_ref, grad_ref = variance_nll_raveled(b, r.ravel(), np.tile(ts, n))
            assert nll == pytest.approx(nll_ref, rel=1e-12)
            np.testing.assert_allclose(grad, grad_ref, rtol=1e-12)

    def test_series_share_the_time_index(self):
        rng = substream(17)
        r = rng.standard_normal((3, 500))
        t = np.arange(1.0, 501.0)
        assert pp.fit_variance(r, t).eps_hat.shape == (500,)
        assert pp.fit_variance(r[0], t).beta1 == pp.fit_variance(r[:1], t).beta1
        with pytest.raises(ValueError, match="align"):
            pp.fit_variance(r, np.tile(t, 3))

    def test_homoskedastic_recovery(self):
        rng = substream(4)
        sd = 1.7
        r = sd * rng.standard_normal(4000)
        t = np.arange(1.0, 4001.0)
        vm = pp.fit_variance(r, t)
        assert vm.beta1 == pytest.approx(math.log(sd), abs=0.05)
        assert vm.beta2 * 4000 == pytest.approx(0.0, abs=0.1)

    def test_scale_equivariance(self):
        rng = substream(5)
        r = rng.standard_normal(2000)
        t = np.arange(1.0, 2001.0)
        a = pp.fit_variance(r, t)
        b = pp.fit_variance(2.0 * r, t)
        assert b.beta1 - a.beta1 == pytest.approx(math.log(2.0), abs=1e-4)
        assert b.beta2 == pytest.approx(a.beta2, abs=1e-7)

    def test_trend_recovery(self):
        rng = substream(6)
        t = np.arange(1.0, 3001.0)
        b1, b2 = -0.3, 2.5e-4
        r = np.exp(b1 + b2 * t) * rng.standard_normal(3000)
        vm = pp.fit_variance(r, t)
        assert vm.beta1 == pytest.approx(b1, abs=0.05)
        assert vm.beta2 == pytest.approx(b2, rel=0.15)
        assert np.all(vm.eps_hat > 0)


class TestDetrend:
    def test_exact_fit_gives_zero(self):
        x = np.arange(10.0)
        out = pp.detrend(x, x, np.ones(10))
        np.testing.assert_array_equal(out, np.zeros(10))

    def test_round_trip(self):
        rng = substream(7)
        x = rng.standard_normal(50)
        fitted = rng.standard_normal(50)
        eps = np.abs(rng.standard_normal(50)) + 0.1
        z = pp.detrend(x, fitted, eps)
        np.testing.assert_allclose(z * eps + fitted, x, rtol=1e-12, atol=1e-12)

    def test_pipeline_standardizes(self):
        # seasonal + trend + heteroskedastic noise comes out ~ N(0, 1)
        rng = substream(8)
        n = 4 * 365
        design = pp.build_design(n, dt.date(2014, 5, 1))
        t = design.time_index
        seasonal = 3.0 * np.sin(2 * math.pi * design.day / 365.0)
        trend = 0.001 * t
        sd = np.exp(0.2 - 1e-4 * t)
        x = 5.0 + seasonal + trend + sd * rng.standard_normal(n)
        _, fitted, resid = pp.fit_seasonal(x[None, :], design)
        vm = pp.fit_variance(resid.ravel(), t)
        z = pp.detrend(x, fitted, vm.eps_hat)
        assert abs(z.mean()) < 0.05
        assert 0.9 < z.std() < 1.1


class TestMonthlyMaxima:
    def test_constant_series(self):
        months, maxima = pp.monthly_maxima(np.full(60, 2.0),
                                           pp.daily_calendar(dt.date(2020, 1, 1), 60))
        assert months == [(2020, 1), (2020, 2)]
        np.testing.assert_array_equal(maxima, [2.0, 2.0])

    def test_single_spike(self):
        v = np.zeros(31)
        v[10] = 9.0
        _, maxima = pp.monthly_maxima(v, pp.daily_calendar(dt.date(2020, 1, 1), 31))
        assert maxima[0] == 9.0

    def test_decade_window_month_count(self):
        # May 2014 through November 2024 daily calendar: 127 months
        start = dt.date(2014, 5, 1)
        end = dt.date(2024, 11, 30)
        n = (end - start).days + 1
        months, maxima = pp.monthly_maxima(np.zeros(n), pp.daily_calendar(start, n))
        assert len(months) == 127
        assert maxima.size == 127

    def test_values_must_match_calendar(self):
        with pytest.raises(ValueError, match="align"):
            pp.monthly_maxima(np.zeros(30), pp.daily_calendar(dt.date(2020, 1, 1), 31))


    @pytest.mark.parametrize("start, n", [
        (dt.date(2014, 1, 1), 4018),         # the decade calendar
        (dt.date(2020, 1, 17), 70),          # mid-month start, leap February
        (dt.date(2019, 2, 10), 400),         # non-leap February onward
        (dt.date(2023, 6, 30), 1),           # one day
    ])
    def test_matches_day_loop(self, start, n):
        rng = substream(18)
        dates = pp.daterange(start, n)
        calendar = pp.daily_calendar(start, n)
        for values in (rng.standard_normal(n),
                       rng.integers(-2, 3, n).astype(np.float64)):   # ties
            keys, maxima = pp.monthly_maxima(values, calendar)
            keys_ref, maxima_ref = monthly_maxima_loop(values, dates)
            assert keys == keys_ref
            assert all(type(y) is int and type(m) is int for y, m in keys)
            np.testing.assert_array_equal(maxima.view(np.int64),
                                          maxima_ref.view(np.int64))


class TestChi2Gof:
    def test_perfect_fit_statistic_zero(self):
        observed = np.array([10.0, 20.0, 30.0, 25.0, 15.0])

        class FakeCdf:
            def __call__(self, e):
                cum = np.concatenate([[0.0], np.cumsum(observed)]) / observed.sum()
                return np.interp(e, np.linspace(0.0, 1.0, 6), cum)

        rng = substream(9)
        # synthetic sample whose histogram matches `observed` exactly
        edges = np.linspace(0.0, 1.0, 6)
        vals = np.concatenate([
            rng.uniform(edges[i] + 1e-6, edges[i + 1] - 1e-6, int(observed[i]))
            for i in range(5)])
        vals[0], vals[-1] = 0.0, 1.0 - 1e-9
        res = pp.chi2_gof(np.sort(vals), FakeCdf(), n_bins=5, n_params=0)
        assert res.statistic == pytest.approx(0.0, abs=1e-6)
        assert res.p_value == pytest.approx(1.0, abs=1e-6)

    def test_pvalue_from_survival_function(self):
        rng = substream(10)
        truth = GevParams(0.0, 1.0, 0.25)
        m = gev_sample(truth, 127, seed=12)
        res = pp.chi2_gof(m, lambda e: gev_cdf(e, truth, warn_on_clamp=False),
                          n_bins=10, n_params=3)
        assert res.p_value == pytest.approx(
            float(chi2_dist.sf(res.statistic, res.df)), rel=1e-12)
        assert res.statistic >= 0.0
        assert np.sum(res.observed) == 127
        assert np.all(res.expected > 0)

    def test_doubled_variant(self):
        truth = GevParams(0.0, 1.0, 0.25)
        m = gev_sample(truth, 200, seed=13)
        cdf = lambda e: gev_cdf(e, truth, warn_on_clamp=False)
        a = pp.chi2_gof(m, cdf, n_bins=8, n_params=3, doubled=False)
        b = pp.chi2_gof(m, cdf, n_bins=8, n_params=3, doubled=True)
        assert b.statistic == pytest.approx(2.0 * a.statistic, rel=1e-12)

    def test_degrees_of_freedom_specialization(self):
        # the GEV case: bins - 4; merging reduces df accordingly
        truth = GevParams(0.0, 1.0, 0.25)
        m = gev_sample(truth, 500, seed=14)
        res = pp.chi2_gof(m, lambda e: gev_cdf(e, truth, warn_on_clamp=False),
                          n_bins=10, n_params=3)
        assert res.df == len(res.expected) - 1 - 3

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError):
            pp.chi2_gof(np.arange(50.0), lambda e: e / 50.0, n_bins=4, n_params=3)


class TestMarginalTransform:
    def test_location_maps_to_one_positive_shape(self):
        g = GevParams(mu=0.0, sigma=1.0, xi=0.5)
        assert pp.marginal_transform(np.array([0.0]), g)[0] == pytest.approx(1.0)

    def test_hand_value(self):
        g = GevParams(mu=0.0, sigma=1.0, xi=0.5)
        assert pp.marginal_transform(np.array([2.0]), g)[0] == pytest.approx(4.0)

    def test_location_maps_to_one_negative_shape(self):
        g = GevParams(mu=0.0, sigma=1.0, xi=-0.5)
        assert pp.marginal_transform(np.array([0.0]), g)[0] == pytest.approx(1.0)

    def test_wrong_side_of_bound_errors(self):
        g = GevParams(mu=0.0, sigma=1.0, xi=0.5)       # bound at -2
        with pytest.raises(ValueError, match="positions \\[1\\]"):
            pp.marginal_transform(np.array([0.0, -3.0]), g)

    def test_strictly_monotone(self):
        rng = substream(11)
        for xi in (0.4, -0.4):
            g = GevParams(mu=1.0, sigma=2.0, xi=xi)
            bound = pp.gev_bound(g)
            if xi > 0:
                m = bound + np.sort(np.abs(rng.standard_normal(50))) + 1e-6
            else:
                m = bound - np.sort(np.abs(rng.standard_normal(50)))[::-1] - 1e-6
            x = pp.marginal_transform(m, g)
            assert np.all(np.diff(x) > 0)

    def test_composition_is_unit_frechet(self):
        g = GevParams(mu=0.3, sigma=1.4, xi=0.25)
        m = np.array([0.0, 1.0, 3.0, 8.0])
        x = pp.marginal_transform(m, g)
        np.testing.assert_allclose(gev_cdf(m, g), np.exp(-1.0 / x), rtol=1e-10)

    def test_rank_preservation(self):
        rng = substream(12)
        g = GevParams(mu=0.0, sigma=1.0, xi=0.3)
        m = gev_sample(g, 100, seed=15)
        x = pp.marginal_transform(m, g)
        np.testing.assert_array_equal(np.argsort(m), np.argsort(x))


class TestPipeline:
    def test_two_site_pipeline_runs(self):
        rng = substream(13)
        n = 3 * 365
        design_dates = pp.daterange(dt.date(2014, 5, 1), n)
        doy = pp.day_of_year(design_dates)
        t = np.arange(1.0, n + 1)
        base = 2.0 * np.sin(2 * math.pi * doy / 365.0) + 0.0005 * t
        daily = np.column_stack([
            base + 0.8 * rng.standard_normal(n) + 5.0,
            base + 0.8 * rng.standard_normal(n) + 5.2,
        ])
        coords = np.array([[150.0, -30.0], [150.1, -30.0]])   # ~10 km apart
        results = pp.run_pipeline(daily, pp.daily_calendar(dt.date(2014, 5, 1), n),
                                  coords)
        assert len(results) == 2
        for r in results:
            assert np.all(r.transformed > 0)
            assert r.maxima.size == len(r.months)
            assert 0.0 <= r.gof.p_value <= 1.0


# ---------------------------------------------------------------------------
# site blocks on forked workers
# ---------------------------------------------------------------------------

SITE_START = dt.date(2015, 1, 1)
SITE_DAYS = 3 * 365


def site_inputs(n_sites, constant=()):
    """Daily series at sites 1 degree apart (each its own neighborhood); the
    sites in ``constant`` hold one value, whose GEV fit warns."""
    doy = pp.day_of_year(pp.daterange(SITE_START, SITE_DAYS))
    rng = substream(31)
    daily = (5.0 + 2.0 * np.sin(2 * math.pi * doy / 365.0)[:, None]
             + rng.gumbel(0.0, 1.0, (SITE_DAYS, n_sites)))
    daily[:, list(constant)] = 5.0
    coords = np.column_stack([150.0 + np.arange(n_sites), np.full(n_sites, -30.0)])
    return daily, pp.daily_calendar(SITE_START, SITE_DAYS), coords


def result_bits(results):
    return [(r.months, r.gof.df, np.array([r.gev.mu, r.gev.sigma, r.gev.xi,
                                            r.gof.statistic, r.gof.p_value]).tobytes(),
             r.maxima.tobytes(), r.transformed.tobytes(), r.gof.observed.tobytes(),
             r.gof.expected.tobytes()) for r in results]


@pytest.fixture
def cpus(monkeypatch, forks):
    """A setter of the usable CPU count, with blocks of one site at the least;
    it returns the pids of the workers forked so far, none of which may
    outlive the test."""
    monkeypatch.setattr(pp, "BLOCK_SITES", 1)

    def set_cpus(n):
        monkeypatch.setattr(workers, "usable_cpus", lambda: n)
        return forks

    return set_cpus


def failing_sites(monkeypatch, sites):
    """Make the GEV fit of each site in ``sites`` fail, naming the site."""
    real = pp.preprocess_site

    def fails(site_index, *args):
        if site_index in sites:
            raise GevFitError(f"site {site_index}: GEV fit did not converge")
        return real(site_index, *args)

    monkeypatch.setattr(pp, "preprocess_site", fails)


class TestSiteBlocks:
    @pytest.mark.parametrize("n_cpus,n_sites,n_workers",
                             [(1, 5, 0), (2, 5, 1), (3, 5, 2), (4, 5, 3), (8, 5, 4)],
                             ids=["1cpu", "2cpus", "3cpus", "4cpus", "cpus-over-sites"])
    def test_blocks_are_the_one_cpu_loop(self, cpus, n_cpus, n_sites, n_workers):
        daily, calendar, coords = site_inputs(n_sites)
        cpus(1)
        ref = pp.run_pipeline(daily, calendar, coords)
        forks = cpus(n_cpus)
        got = pp.run_pipeline(daily, calendar, coords)
        assert len(forks) == n_workers
        assert result_bits(got) == result_bits(ref)

    def test_few_sites_stay_one_block(self, monkeypatch, forks):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
        daily, calendar, coords = site_inputs(2 * pp.BLOCK_SITES - 1)
        pp.run_pipeline(daily, calendar, coords)
        assert forks == []

    @pytest.mark.parametrize("bad", [[4], [3, 5]], ids=["one", "two-blocks"])
    def test_failing_worker_block_raises_the_serial_error(self, cpus, monkeypatch, bad):
        failing_sites(monkeypatch, bad)
        inputs = site_inputs(6)
        cpus(1)
        with pytest.raises(GevFitError, match=f"^site {bad[0]}: ") as serial:
            pp.run_pipeline(*inputs)
        forks = cpus(3)                       # blocks 0-1, 2-3 and 4-5
        with pytest.raises(GevFitError) as split:
            pp.run_pipeline(*inputs)
        assert len(forks) == 2
        assert str(split.value) == str(serial.value)

    def test_warning_worker_block_warns_as_the_serial_loop(self, cpus):
        inputs = site_inputs(6, constant=[4])        # warns in the GEV fit

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results = pp.run_pipeline(*inputs)
            return result_bits(results), [(w.category, str(w.message), w.filename,
                                           w.lineno) for w in caught]

        cpus(1)
        serial = run()
        forks = cpus(3)
        assert serial[1] and run() == serial
        assert len(forks) == 2

    def test_parent_failure_kills_and_reaps_workers(self, cpus, monkeypatch):
        parent = os.getpid()

        def parent_fails(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)                    # a worker still busy is killed

        monkeypatch.setattr(pp, "preprocess_site", parent_fails)
        forks = cpus(3)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            pp.run_pipeline(*site_inputs(6))
        assert len(forks) == 2 and time.perf_counter() - t0 < 30

    def test_killed_worker_is_one_line_exit_2(self, cpus, monkeypatch, tmp_path, capsys):
        daily, _, coords = site_inputs(4)
        cli.write_matrix_csv(str(tmp_path / "daily.csv"), daily, "site_")
        cli.write_coords_csv(str(tmp_path / "sites.csv"), coords, "site_id")
        real, parent = pp.preprocess_site, os.getpid()

        def worker_dies(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(pp, "preprocess_site", worker_dies)
        forks = cpus(2)
        code = cli.main(["preprocess", "--daily", str(tmp_path / "daily.csv"),
                         "--sites", str(tmp_path / "sites.csv"),
                         "--start-date", SITE_START.isoformat(),
                         "--out", str(tmp_path / "prep")])
        err = capsys.readouterr().err
        assert code == 2 and len(forks) == 1
        assert err == "error: a site-block worker died (signal 9)\n"


# in a fresh interpreter: the scipy modules that importing extvae.preprocess
# loads, and those of the fits that the parent holds each time run_pipeline
# starts a site-block worker (two CPUs, blocks of one site)
_AT_EACH_FORK = """
import datetime as dt, json, sys
import numpy as np
from extvae import preprocess as pp, workers
at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
held, start = [], workers.Workers.start

def recording_start(self, *args):
    held.append([m for m in ("scipy.optimize", "scipy.stats") if m in sys.modules])
    return start(self, *args)

workers.Workers.start = recording_start
workers.usable_cpus = lambda: 2
pp.BLOCK_SITES = 1
daily, coords = np.load(sys.argv[1]), np.load(sys.argv[2])
pp.run_pipeline(daily, pp.daily_calendar(dt.date.fromisoformat(sys.argv[3]),
                                         daily.shape[0]), coords)
print(json.dumps([at_import, held]))
"""


def test_workers_inherit_the_fits_scipy(tmp_path):
    """Importing preprocess loads no scipy; run_pipeline loads the fits'
    modules in the parent before it forks, so no worker imports them again."""
    daily, _, coords = site_inputs(2)
    np.save(tmp_path / "daily.npy", daily)
    np.save(tmp_path / "coords.npy", coords)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pp.__file__)))
    done = subprocess.run([sys.executable, "-c", _AT_EACH_FORK, str(tmp_path / "daily.npy"),
                           str(tmp_path / "coords.npy"), SITE_START.isoformat()],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True, timeout=300)
    at_import, held = json.loads(done.stdout.splitlines()[-1])
    assert at_import == []
    assert held == [["scipy.optimize", "scipy.stats"]]
