import datetime as dt
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from extvae import cli, workers
from extvae import preprocess as pp
from extvae.distributions import XI_MIN, GevFitError, GevParams, gev_cdf, gev_fit
from extvae.seeds import substream
from references import (chi2_sf, gev_fit_lbfgsb, gev_nll, gev_sample,
                        variance_fit_lbfgsb, variance_nll)


# Reference implementations: the date-object calendar, the tiled-design
# seasonal OLS, the per-element variance objective and the per-day month loop
# that the datetime64, pooled and vectorized forms in extvae.preprocess replace.

def date_list(start, n_days):
    return [start + dt.timedelta(days=i) for i in range(n_days)]


def day_of_year_dates(dates):
    out = []
    for d in dates:
        doy = d.timetuple().tm_yday
        if d.year % 4 == 0 and (d.year % 100 != 0 or d.year % 400 == 0) and doy > 59:
            doy -= 1
        out.append(doy)
    return np.array(out, dtype=np.float64)


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

    def test_calendar_matches_date_objects(self):
        # every day of 2000-2030, leap years and the 2000 leap century included:
        # the same day-of-year bits, months and month starts as date objects
        start = dt.date(2000, 1, 1)
        n = (dt.date(2031, 1, 1) - start).days
        dates = date_list(start, n)
        days = pp.calendar_days(start, n)
        assert days.dtype == np.dtype("datetime64[D]") and days.size == n
        ref = day_of_year_dates(dates)
        assert pp.day_of_year(days).view(np.int64).tolist() == ref.view(np.int64).tolist()
        calendar = pp.daily_calendar(start, n)
        keys = [(d.year, d.month) for d in dates]
        firsts = [i for i in range(n) if i == 0 or keys[i] != keys[i - 1]]
        assert calendar.months == [keys[i] for i in firsts]
        assert calendar.month_starts.tolist() == firsts
        design = pp.build_design(n, start)
        assert design.day.view(np.int64).tolist() == ref.view(np.int64).tolist()
        np.testing.assert_array_equal(design.matrix[:, 2:].view(np.int64),
                                      pp.cyclic_spline_basis(ref)[:, :-1].view(np.int64))

    @pytest.mark.parametrize("start, n", [(dt.date(9999, 6, 1), 215),
                                          (dt.date(9999, 12, 31), 2)])
    def test_calendar_past_year_9999_overflows(self, start, n):
        with pytest.raises(OverflowError):
            pp.daily_calendar(start, n)
        assert pp.daily_calendar(start, n - 1).n_days == n - 1


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
        beta, fitted = pp.fit_seasonal(np.full(730, 4.2), design)
        np.testing.assert_allclose(fitted, 4.2, atol=1e-9)

    def test_exact_recovery(self, design):
        rng = substream(2)
        m = design.matrix
        beta_true = rng.standard_normal(m.shape[1])
        beta, fitted = pp.fit_seasonal(m @ beta_true, design)
        np.testing.assert_allclose(beta, beta_true, atol=1e-8)

    def test_sites_are_one_solve_of_their_own_fits(self, design):
        # one column per site: each column is that site's own fit
        rng = substream(3)
        y = rng.standard_normal((730, 4)) + design.matrix @ rng.standard_normal((13, 4))
        beta, fitted = pp.fit_seasonal(y, design)
        assert beta.shape == (13, 4) and fitted.shape == (730, 4)
        for j in range(4):
            beta_j, fitted_j = pp.fit_seasonal(y[:, j], design)
            np.testing.assert_allclose(beta[:, j], beta_j, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(fitted[:, j], fitted_j, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows", [[0], [0, 1], list(range(8)) + [3]])
    def test_neighbor_mean_matches_tiled_design(self, design, rows):
        rng = substream(15)
        m = design.matrix
        series = (m @ rng.standard_normal(m.shape[1]))[None, :] \
            + rng.standard_normal((8, 730))
        y = series[rows]
        beta, fitted = pp.fit_seasonal(y.mean(axis=0), design)
        beta_ref, fitted_ref = seasonal_tiled(y, design)
        np.testing.assert_allclose(beta, beta_ref, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(fitted, fitted_ref, rtol=1e-10, atol=1e-10)


class TestVarianceModel:
    def test_pooled_objective_matches_raveled(self):
        rng = substream(16)
        n, n_days = 5, 1000
        r = rng.standard_normal((n, n_days)) * np.exp(rng.standard_normal(n_days))
        ts = np.arange(1.0, n_days + 1) / n_days
        ss = np.einsum("ij,ij->j", r, r)
        for b in rng.uniform(-1.0, 1.0, (10, 2)):
            nll, grad, _ = pp._variance_nll(b, ss, n, ts, derivatives=True)
            nll_ref, grad_ref = variance_nll_raveled(b, r.ravel(), np.tile(ts, n))
            assert nll == pytest.approx(nll_ref, rel=1e-12)
            np.testing.assert_allclose(grad, grad_ref, rtol=1e-12)

    def test_hessian_matches_central_differences(self):
        rng = substream(19)
        ss = rng.exponential(1.0, (800, 3)) * 4.0
        ts = (np.arange(1.0, 801.0) / 800.0)[:, None]
        b = rng.uniform(-0.5, 0.5, (2, 3))
        nll, grad, hess = pp._variance_nll(b, ss, 4, ts, derivatives=True)
        assert nll.shape == (3,) and grad.shape == (2, 3) and hess.shape == (2, 2, 3)
        h = 1e-6
        for i, e in enumerate(np.eye(2)):
            fd = (pp._variance_nll(b + h * e[:, None], ss, 4, ts, derivatives=True)[1]
                  - pp._variance_nll(b - h * e[:, None], ss, 4, ts, derivatives=True)[1]) \
                / (2.0 * h)
            np.testing.assert_allclose(hess[:, i], fd, rtol=1e-6)

    def test_sites_share_the_time_index(self):
        rng = substream(17)
        r = rng.standard_normal((3, 500, 4))
        ss = np.einsum("ijk,ijk->jk", r, r)
        t = np.arange(1.0, 501.0)
        vm = pp.fit_variance(ss, 3, t)
        assert vm.eps_hat.shape == (500, 4) and vm.beta1.shape == (4,)
        for j in range(4):
            one = pp.fit_variance(ss[:, j], 3, t)
            assert one.eps_hat.shape == (500,)
            assert one.beta1 == pytest.approx(vm.beta1[j], rel=1e-9, abs=1e-12)
            assert one.beta2 == pytest.approx(vm.beta2[j], rel=1e-9, abs=1e-15)
        with pytest.raises(ValueError, match="align"):
            pp.fit_variance(ss, 3, np.tile(t, 3))

    def test_a_site_of_zero_residuals_is_named(self):
        ss = np.ones((500, 3))
        ss[:, 1] = 0.0
        with pytest.raises(RuntimeError, match="^site 1: every residual is zero"):
            pp.fit_variance(ss, 2, np.arange(1.0, 501.0))

    def test_homoskedastic_recovery(self):
        rng = substream(4)
        sd = 1.7
        r = sd * rng.standard_normal(4000)
        t = np.arange(1.0, 4001.0)
        vm = pp.fit_variance(r * r, 1, t)
        assert vm.beta1 == pytest.approx(math.log(sd), abs=0.05)
        assert vm.beta2 * 4000 == pytest.approx(0.0, abs=0.1)

    def test_scale_equivariance(self):
        rng = substream(5)
        r = rng.standard_normal(2000)
        t = np.arange(1.0, 2001.0)
        a = pp.fit_variance(r * r, 1, t)
        b = pp.fit_variance(4.0 * r * r, 1, t)
        assert b.beta1 - a.beta1 == pytest.approx(math.log(2.0), abs=1e-4)
        assert b.beta2 == pytest.approx(a.beta2, abs=1e-7)

    def test_trend_recovery(self):
        rng = substream(6)
        t = np.arange(1.0, 3001.0)
        b1, b2 = -0.3, 2.5e-4
        r = np.exp(b1 + b2 * t) * rng.standard_normal(3000)
        vm = pp.fit_variance(r * r, 1, t)
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
        _, fitted = pp.fit_seasonal(x, design)
        vm = pp.fit_variance((x - fitted) ** 2, 1, t)
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
        dates = date_list(start, n)
        calendar = pp.daily_calendar(start, n)
        for values in (rng.standard_normal(n),
                       rng.integers(-2, 3, n).astype(np.float64)):   # ties
            keys, maxima = pp.monthly_maxima(values, calendar)
            keys_ref, maxima_ref = monthly_maxima_loop(values, dates)
            assert keys == keys_ref
            assert all(type(y) is int and type(m) is int for y, m in keys)
            np.testing.assert_array_equal(maxima.view(np.int64),
                                          maxima_ref.view(np.int64))


class _PlantedSum:
    """numpy, but np.sum returns ``value``: the statistic is chi2_gof's one
    np.sum, so a test can plant there a value no histogram gives exactly."""

    def __init__(self, value):
        self.value = value

    def __getattr__(self, name):
        return getattr(np, name)

    def sum(self, *args, **kwargs):
        return self.value


# chi2_sf against Cephes' chdtrc: the largest relative difference seen over
# df 1-200 was 2.2e-13, in the tail near 1e-235
CHI2_SF_REL = 1e-12


class TestChi2Sf:
    def test_matches_chdtrc_for_df_1_to_200(self):
        for df in range(1, 201):
            xs = np.concatenate([np.geomspace(1e-6, 2000.0, 120), [df - 0.5, df, 2.0 * df]])
            for x in xs[xs > 0]:
                ref = chi2_sf(float(x), df)
                if ref > 1e-280:
                    assert pp.chi2_sf(float(x), df) == pytest.approx(ref, rel=CHI2_SF_REL), \
                        (df, x)

    def test_large_df_neither_overflows_nor_leaves_0_1(self):
        # lgamma's rounding grows with its argument: 3.8e-12 relative was the
        # largest difference seen at df 10^4
        for df in (10**4, 10**4 + 1):
            for x in (1.0, 0.9 * df, df, 1.1 * df, 10.0 * df):
                p = pp.chi2_sf(x, df)
                assert 0.0 <= p <= 1.0
                assert p == pytest.approx(chi2_sf(x, df), rel=1e-10, abs=1e-300)


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
        # the truth's own sample first, then samples of other laws, so that
        # the statistics spread over the tail
        truth = GevParams(0.0, 1.0, 0.25)
        cdf = lambda e: gev_cdf(e, truth, warn_on_clamp=False)
        cases = [(truth, 127, 12, 10)] + [
            (GevParams(0.0, 1.0, 0.1 * (seed % 5 - 2.5)), 60 + seed, seed, 6 + seed % 7)
            for seed in range(20, 60)]
        for law, n, seed, n_bins in cases:
            m = gev_sample(law, n, seed=seed)
            for doubled in (False, True):
                res = pp.chi2_gof(m, cdf, n_bins=n_bins, n_params=3, doubled=doubled)
                assert res.p_value == pytest.approx(chi2_sf(res.statistic, res.df),
                                                    rel=CHI2_SF_REL)
                assert res.statistic >= 0.0
                assert np.sum(res.observed) == n
                assert np.all(res.expected > 0)

    # rounding can take sum O log(O/E) just below 0, where chdtrc alone gives
    # NaN and chi2.sf gives 1; a statistic of inf or NaN maps as chi2.sf maps it
    @pytest.mark.parametrize("statistic", [0.0, -0.0, -1e-17, math.inf, math.nan])
    def test_pvalue_at_the_edges_is_chi2_sf(self, monkeypatch, statistic):
        truth = GevParams(0.0, 1.0, 0.25)
        m = gev_sample(truth, 127, seed=12)
        monkeypatch.setattr(pp, "np", _PlantedSum(statistic))
        res = pp.chi2_gof(m, lambda e: gev_cdf(e, truth, warn_on_clamp=False))
        bits = lambda x: np.float64(x).view(np.int64)
        assert bits(res.statistic) == bits(statistic)            # recorded unclamped
        assert bits(res.p_value) == bits(chi2_dist.sf(statistic, res.df))
        if not statistic > 0 and not math.isnan(statistic):
            assert res.p_value == 1.0

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
        doy = pp.day_of_year(pp.calendar_days(dt.date(2014, 5, 1), n))
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
# every site in one process: batched fits, named failures, no fork, no scipy
# ---------------------------------------------------------------------------

SITE_START = dt.date(2015, 1, 1)
SITE_DAYS = 3 * 365


def site_inputs(n_sites, constant=()):
    """Daily series at sites 1 degree apart (each its own neighborhood); the
    sites in ``constant`` hold one value."""
    doy = pp.day_of_year(pp.calendar_days(SITE_START, SITE_DAYS))
    rng = substream(31)
    daily = (5.0 + 2.0 * np.sin(2 * math.pi * doy / 365.0)[:, None]
             + rng.gumbel(0.0, 1.0, (SITE_DAYS, n_sites)))
    daily[:, list(constant)] = 5.0
    coords = np.column_stack([150.0 + np.arange(n_sites), np.full(n_sites, -30.0)])
    return daily, pp.daily_calendar(SITE_START, SITE_DAYS), coords


FWI_START = dt.date(2014, 1, 1)
FWI_DAYS = (dt.date(2025, 1, 1) - FWI_START).days       # 132 months


def fwi_like_inputs(seed, n_sites):
    """FWI-like daily series: a seasonal cycle of random phase, a linear trend
    and Gumbel noise, at lon/lat sites 0.25 degrees (about 25 km) apart."""
    rng = substream(seed, "fwi-like")
    side = math.ceil(math.sqrt(n_sites))
    k = np.arange(n_sites)
    coords = np.column_stack([145.0 + 0.25 * (k % side), -36.0 + 0.25 * (k // side)])
    day = np.arange(FWI_DAYS, dtype=np.float64)
    season = np.sin(2.0 * math.pi * day[:, None] / 365.25 + rng.uniform(0.0, 0.5, n_sites))
    daily = (20.0 + rng.uniform(-3.0, 3.0, n_sites) + 8.0 * season + 0.0005 * day[:, None]
             + rng.gumbel(0.0, 2.5, (FWI_DAYS, n_sites)))
    return daily, pp.daily_calendar(FWI_START, FWI_DAYS), coords


def result_bits(results):
    return [(r.months, r.gof.df, np.array([r.gev.mu, r.gev.sigma, r.gev.xi,
                                            r.gof.statistic, r.gof.p_value]).tobytes(),
             r.maxima.tobytes(), r.transformed.tobytes(), r.gof.observed.tobytes(),
             r.gof.expected.tobytes()) for r in results]


def failing_sites(monkeypatch, sites):
    """Make the GEV fit of each site in ``sites`` fail, naming the site."""
    real = pp.preprocess_site

    def fails(site_index, *args):
        if site_index in sites:
            raise GevFitError(f"site {site_index}: GEV fit did not converge")
        return real(site_index, *args)

    monkeypatch.setattr(pp, "preprocess_site", fails)


def unfittable_inputs():
    """30 years at three isolated sites; sites 1 and 2 are constant but for
    one low month and one high day, so their standardized monthly maxima lie
    outside the support of both GEV starts."""
    start = dt.date(2014, 1, 1)
    n = (dt.date(2044, 1, 1) - start).days
    rng = substream(32)
    daily = 5.0 + rng.gumbel(0.0, 1.0, (n, 3))
    daily[:, 1:] = 5.0 + 0.001 * np.sin(0.7 * np.arange(n))[:, None]
    daily[5479:5510, 1:] -= 100.0
    daily[8000, 1:] += 100.0
    coords = np.column_stack([150.0 + np.arange(3), np.full(3, -30.0)])
    return daily, pp.daily_calendar(start, n), coords


def preprocess_cli(tmp_path, daily, coords, start, env=None, name="prep"):
    """A fresh ``python -m extvae.cli preprocess`` of the inputs: the process."""
    cli.write_matrix_csv(str(tmp_path / "daily.csv"), daily, "site_")
    cli.write_coords_csv(str(tmp_path / "sites.csv"), coords, "site_id")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pp.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "extvae.cli", "preprocess", "--daily", str(tmp_path / "daily.csv"),
         "--sites", str(tmp_path / "sites.csv"), "--start-date", start.isoformat(),
         "--out", str(tmp_path / name)],
        env=dict(os.environ, PYTHONPATH=src, **(env or {})), capture_output=True,
        text=True, timeout=300)


class TestBatchedSites:
    def test_outputs_do_not_depend_on_the_cpu_count(self, monkeypatch, forks):
        daily, calendar, coords = site_inputs(5)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        one = pp.run_pipeline(daily, calendar, coords)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
        four = pp.run_pipeline(daily, calendar, coords)
        assert forks == []
        assert result_bits(four) == result_bits(one)

    @pytest.mark.parametrize("bad", [[4], [3, 5]], ids=["one", "two"])
    def test_failing_site_raises_the_same_error_on_any_cpu_count(self, monkeypatch, forks,
                                                                 bad):
        failing_sites(monkeypatch, bad)
        inputs = site_inputs(6)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        with pytest.raises(GevFitError, match=f"^site {bad[0]}: ") as one:
            pp.run_pipeline(*inputs)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
        with pytest.raises(GevFitError) as three:
            pp.run_pipeline(*inputs)
        assert forks == []
        assert str(three.value) == str(one.value)

    def test_constant_site_is_named_without_warnings(self, monkeypatch, forks):
        """A constant site's residuals are the seasonal fit's rounding (about
        3e-15 of its fitted RMS, against 0.22 at the other sites); it raises
        one RuntimeError naming it, the same on any CPU count, and no warning."""
        inputs = site_inputs(6, constant=[4])

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(RuntimeError) as err:
                    pp.run_pipeline(*inputs)
            return type(err.value), str(err.value), [
                (w.category, str(w.message), w.filename, w.lineno) for w in caught]

        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        kind, message, caught = run()
        assert kind is RuntimeError and caught == []
        assert message == ("site 4: the residuals from the seasonal fit are rounding "
                           "error: the series is constant")
        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
        assert run() == (kind, message, caught)
        assert forks == []

    def test_constant_site_cli_is_one_line_exit_1(self, tmp_path):
        daily, _, coords = site_inputs(6, constant=[4])
        done = preprocess_cli(tmp_path, daily, coords, SITE_START)
        assert done.returncode == 1
        assert done.stderr == ("numerical error: site 4: the residuals from the seasonal "
                               "fit are rounding error: the series is constant\n")

    def test_unfittable_site_is_named_in_site_order(self):
        with pytest.raises(GevFitError, match="^site 1: GEV fit did not converge to an "
                                              "admissible optimum: both starts lie "
                                              "outside the support$"):
            pp.run_pipeline(*unfittable_inputs())

    def test_unfittable_site_cli_is_one_line_exit_1(self, tmp_path):
        daily, calendar, coords = unfittable_inputs()
        done = preprocess_cli(tmp_path, daily, coords, calendar.start)
        assert done.returncode == 1
        assert done.stderr == ("numerical error: site 1: GEV fit did not converge to an "
                               "admissible optimum: both starts lie outside the support\n")

    def test_output_tables_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # at 40 sites, a BLAS product of the design's Q with the site means
        # gives other bits on two threads than on one, so this catches one
        daily, calendar, coords = fwi_like_inputs(41, 40)
        runs = [preprocess_cli(tmp_path, daily, coords, calendar.start,
                               env={"OPENBLAS_NUM_THREADS": t}, name=f"threads{t}")
                for t in ("1", "2")]
        assert [(r.returncode, r.stderr) for r in runs] == [(0, ""), (0, "")]
        for name in ("monthly_maxima.csv", "fields.csv", "gev_params.csv", "gof.csv",
                     "months.csv"):
            assert (tmp_path / "threads1" / name).read_bytes() == \
                (tmp_path / "threads2" / name).read_bytes(), name


class TestFitQuality:
    """Every site's batched GEV and variance fits reach at most the negative
    log-likelihood (NLL) that L-BFGS-B reached, plus 1e-9 relative."""

    @staticmethod
    def fits(daily, calendar, coords):
        """Each site's variance inputs and monthly maxima, as run_pipeline
        makes them, and its fitted variance model."""
        design = pp.build_design(calendar.n_days, calendar.start)
        nbs = pp.neighborhoods(coords)
        _, fitted = pp.fit_seasonal(
            np.column_stack([daily[:, nb].mean(axis=1) for nb in nbs]), design)
        sum_sq = np.column_stack([((daily[:, nb] - fitted[:, [j]]) ** 2).sum(axis=1)
                                  for j, nb in enumerate(nbs)])
        counts = [len(nb) for nb in nbs]
        vm = pp.fit_variance(sum_sq, counts, design.time_index)
        _, maxima = pp.monthly_maxima(pp.detrend(daily, fitted, vm.eps_hat), calendar)
        return design.time_index, sum_sq, counts, vm, maxima

    def check(self, daily, calendar, coords):
        t, sum_sq, counts, vm, maxima = self.fits(daily, calendar, coords)
        for j, n in enumerate(counts):
            got = variance_nll(vm.beta1[j], vm.beta2[j], sum_sq[:, j], n, t)
            ref = variance_fit_lbfgsb(sum_sq[:, j], n, t)
            assert got <= ref + 1e-9 * abs(ref), (j, got, ref)
        for j, g in enumerate(gev_fit(maxima)):
            got, ref = gev_nll(g, maxima[:, j]), gev_fit_lbfgsb(maxima[:, j])
            assert got <= ref + 1e-9 * abs(ref), (j, got, ref)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_fwi_like_sites(self, seed):
        self.check(*fwi_like_inputs(seed, 100))

    def test_test_inputs(self):
        self.check(*site_inputs(6, constant=[4]))
        daily, calendar, coords = unfittable_inputs()
        self.check(daily[:, :1], calendar, coords[:1])

    # near-Gumbel samples whose better optimum lies on the bound xi = XI_MIN
    # (seed 8) and on xi = -XI_MIN (seed 69)
    @pytest.mark.parametrize("seed, xi", [(8, XI_MIN), (69, -XI_MIN)])
    def test_optimum_on_the_xi_bound(self, seed, xi):
        x = gev_sample(GevParams(0.0, 1.0, 1e-4), 2000, seed)
        fit = gev_fit(x)
        assert fit.xi == xi
        ref = gev_fit_lbfgsb(x)
        assert gev_nll(fit, x) <= ref + 1e-9 * abs(ref)

    def test_start_outside_the_support(self):
        # one high outlier puts the data above the xi = -0.1 start's upper
        # endpoint; the fit comes from the other start
        x = gev_sample(GevParams(0.0, 1.0, 0.2), 200, 9)
        x[0] = 60.0
        sigma0 = math.sqrt(6.0) * np.std(x) / math.pi
        assert x[0] > np.mean(x) - 0.5772156649015329 * sigma0 + sigma0 / 0.1
        fit = gev_fit(x)
        assert fit.xi > 0
        ref = gev_fit_lbfgsb(x)
        assert gev_nll(fit, x) <= ref + 1e-9 * abs(ref)

    def test_first_unfittable_column_is_named(self):
        rng = substream(33)
        bad = 0.01 * rng.standard_normal(132)
        bad[:2] = -110.0, 100.0
        good = gev_sample(GevParams(0.0, 1.0, 0.1), 132, 10)
        with pytest.raises(GevFitError, match="^site 1: .*both starts lie outside") as err:
            gev_fit(np.column_stack([good, bad, good, bad]))
        assert err.value.best.xi == 0.1
        with pytest.raises(GevFitError, match="^GEV fit did not converge"):
            gev_fit(bad)


# in a fresh interpreter: the scipy modules loaded by importing
# extvae.preprocess and then by a run_pipeline
_SCIPY_LOADED = """
import datetime as dt, json, sys
import numpy as np
from extvae import preprocess as pp
at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
daily, coords = np.load(sys.argv[1]), np.load(sys.argv[2])
pp.run_pipeline(daily, pp.daily_calendar(dt.date.fromisoformat(sys.argv[3]),
                                         daily.shape[0]), coords)
print(json.dumps([at_import, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_preprocess_loads_no_scipy(tmp_path):
    """Neither importing preprocess nor running it loads any scipy module: the
    fits are numpy Newton and the GOF p-value is chi2_sf."""
    daily, _, coords = site_inputs(2)
    np.save(tmp_path / "daily.npy", daily)
    np.save(tmp_path / "coords.npy", coords)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pp.__file__)))
    done = subprocess.run([sys.executable, "-c", _SCIPY_LOADED, str(tmp_path / "daily.npy"),
                           str(tmp_path / "coords.npy"), SITE_START.isoformat()],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True, timeout=300)
    assert json.loads(done.stdout.splitlines()[-1]) == [[], []]
