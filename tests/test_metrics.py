import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import rankdata

from extvae import metrics as mx
from extvae.distributions import GevParams
from extvae.seeds import substream
from references import gev_sample


def two_site_coords():
    return np.array([[0.0, 0.0], [1.0, 0.0]])


def two_site_pairs():
    return mx.select_pairs(two_site_coords(), 1.0, 0.5)


class TestChiCurve:
    def test_comonotone_pair_is_one(self):
        rng = substream(1)
        series = rng.standard_normal(500)
        fields = np.column_stack([series, series])
        chi = mx.chi_curve(fields, two_site_pairs(), np.array([0.5, 0.9, 0.95]),
                           n_boot=10, seed=0)
        np.testing.assert_allclose(chi.estimate, 1.0)

    def test_u_zero_is_one(self):
        rng = substream(2)
        fields = rng.standard_normal((300, 2))
        chi = mx.chi_curve(fields, two_site_pairs(), np.array([0.0]), n_boot=5, seed=0)
        assert chi.estimate[0] == 1.0

    def test_independent_pairs_slope(self):
        rng = substream(3)
        fields = rng.random((10**4, 2))
        chi = mx.chi_curve(fields, two_site_pairs(), np.array([0.9]), n_boot=0, seed=0)
        den = math.floor(0.1 * 10**4)
        se = math.sqrt(0.1 * 0.9 / den)
        assert abs(chi.estimate[0] - 0.1) < 3 * se

    def test_rank_invariance_under_exp(self):
        rng = substream(4)
        fields = rng.standard_normal((400, 4))
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        u = np.array([0.8, 0.9])
        pairs = mx.select_pairs(coords, 1.0, 0.5, seed=5)
        a = mx.chi_curve(fields, pairs, u, n_boot=0, seed=5)
        b = mx.chi_curve(np.exp(fields), pairs, u, n_boot=0, seed=5)
        np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_band_contains_point(self):
        rng = substream(5)
        fields = rng.standard_normal((200, 2)) + 0.8 * rng.standard_normal((200, 1))
        chi = mx.chi_curve(fields, two_site_pairs(), np.array([0.5, 0.8, 0.9]),
                           n_boot=50, seed=2)
        ok = chi.defined
        assert np.all(chi.lo95[ok] <= chi.estimate[ok])
        assert np.all(chi.estimate[ok] <= chi.hi95[ok])

    def test_band_width_shrinks_with_replicates(self):
        rng = substream(6)
        common = rng.standard_normal((600, 1))
        fields = 0.7 * common + 0.3 * rng.standard_normal((600, 2))
        u = np.array([0.8])
        small = mx.chi_curve(fields[:50], two_site_pairs(), u, n_boot=100, seed=3)
        big = mx.chi_curve(fields[:500], two_site_pairs(), u, n_boot=100, seed=3)
        assert (big.hi95 - big.lo95)[0] < (small.hi95 - small.lo95)[0]

    def test_empty_distance_bin_errors(self):
        with pytest.raises(ValueError, match="no site pairs"):
            mx.select_pairs(two_site_coords(), 10.0, 0.1)

    def test_infeasible_u_flagged(self):
        # U = ranks/n can equal 1, so exceedance fails only at u >= 1
        rng = substream(8)
        fields = rng.random((20, 2))
        chi = mx.chi_curve(fields, two_site_pairs(), np.array([0.5, 1.0]),
                           n_boot=0, seed=0)
        assert chi.defined[0]
        assert not chi.defined[1]
        assert np.isnan(chi.estimate[1])

    def test_pair_subsampling_cap(self):
        rng = substream(9)
        coords = np.column_stack([np.arange(30.0), np.zeros(30)])
        fields = rng.random((40, 30))
        pairs = mx.select_pairs(coords, 1.0, 0.01, max_pairs=10, seed=1)
        chi = mx.chi_curve(fields, pairs, np.array([0.5]), n_boot=0, seed=1)
        assert chi.n_pairs == 10


class TestAreCurve:
    def test_all_cells_exceed_hand_value(self):
        # one replicate, four cells, everything above u: sqrt(4/pi)
        fields = np.ones((1, 4))
        are = mx.are_curve(fields, psi=1.0, ref_index=0, u=np.array([0.5]),
                           n_boot=0, seed=0)
        assert are.estimate[0] == pytest.approx(math.sqrt(4.0 / math.pi), rel=1e-12)

    def test_only_reference_exceeds(self):
        fields = np.array([[5.0, 1.0, 1.0, 1.0],
                           [1.0, 5.0, 5.0, 5.0]])
        are = mx.are_curve(fields, psi=1.0, ref_index=0, u=np.array([0.6]),
                           n_boot=0, seed=0)
        assert are.estimate[0] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    def test_u_zero_full_disk(self):
        rng = substream(10)
        n_g = 9
        fields = rng.random((7, n_g))
        are = mx.are_curve(fields, psi=2.0, ref_index=4, u=np.array([0.0]),
                           n_boot=0, seed=0)
        assert are.estimate[0] == pytest.approx(2.0 * math.sqrt(n_g / math.pi),
                                                rel=1e-12)

    def test_reference_never_exceeds_flagged(self):
        fields = np.array([[0.0, 5.0], [0.0, 6.0], [0.0, 7.0]])
        are = mx.are_curve(fields, psi=1.0, ref_index=0,
                           u=np.array([0.5, 1.0]), n_boot=0, seed=0)
        assert not are.defined[1]

    def test_rank_invariance(self):
        rng = substream(11)
        fields = rng.standard_normal((100, 9))
        u = np.array([0.3, 0.7])
        a = mx.are_curve(fields, 1.0, 4, u, n_boot=0, seed=0)
        b = mx.are_curve(np.exp(fields), 1.0, 4, u, n_boot=0, seed=0)
        np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_monotone_decreasing_for_smooth_fields(self):
        rng = substream(12)
        common = rng.standard_normal((500, 1))
        fields = common + 0.1 * rng.standard_normal((500, 16))
        are = mx.are_curve(fields, 1.0, 5, np.array([0.2, 0.5, 0.8, 0.95]),
                           n_boot=0, seed=0)
        assert np.all(np.diff(are.estimate) < 0)


# ---------------------------------------------------------------------------
# the rank-based kernels the order-statistic thresholds replaced, as oracles
# ---------------------------------------------------------------------------

def _rank_scores(fields):
    return rankdata(fields, axis=0, method="max") / fields.shape[0]


def _rank_chi_estimate(u_scores, pairs_local, u_grid):
    out = np.full(u_grid.size, np.nan)
    exceed = u_scores[:, :, None] > u_grid[None, None, :]
    for k in range(u_grid.size):
        ex = exceed[:, :, k]
        den = ex[:, pairs_local[:, 0]].sum(axis=0).astype(float)
        num = (ex[:, pairs_local[:, 0]] & ex[:, pairs_local[:, 1]]).sum(axis=0)
        ok = den > 0
        if np.any(ok):
            out[k] = float(np.mean(num[ok] / den[ok]))
    return out


def _rank_are_estimate(u_scores, ref, psi, u_grid):
    out = np.full(u_grid.size, np.nan)
    for k, u in enumerate(u_grid):
        ref_ex = u_scores[:, ref] > u
        den = float(np.sum(ref_ex))
        if den == 0:
            continue
        num = float(np.sum((u_scores > u) & ref_ex[:, None]))
        out[k] = math.sqrt(psi**2 * num / (math.pi * den))
    return out


def _rank_curve(fields, estimate, seed, n_boot):
    """Point estimate and widened percentile band, re-ranking per resample."""
    point = estimate(_rank_scores(fields))
    boots = np.full((n_boot, point.size), np.nan)
    n_r = fields.shape[0]
    for b in range(n_boot):
        idx = substream(seed, "boot", b).integers(0, n_r, size=n_r)
        boots[b] = estimate(_rank_scores(fields[idx]))
    return (point, *mx._percentile_band(boots, point))


def _oracle_fields(tied):
    rng = substream(21, "oracle")
    common = rng.standard_normal((60, 1))
    fields = common + 0.8 * rng.standard_normal((60, 9))
    return np.round(fields * 2.0) / 2.0 if tied else fields


def _oracle_u(n):
    # exact r/n levels, levels below 1/n and at or above 1
    return np.array([0.0, 0.5 / n, 1.0 / n, 0.5, 0.7, 0.9, 0.95, 1.0 - 1.0 / n,
                     1.0, 1.5])


class TestOrderStatisticThresholds:
    @pytest.mark.parametrize("n_r", [2, 3, 10, 60])
    @pytest.mark.parametrize("tied", [False, True])
    def test_masks_equal_rank_exceedances(self, n_r, tied):
        fields = _oracle_fields(tied)[:n_r]
        u = _oracle_u(n_r)
        thr = mx._uniform_scores(fields, u)
        scores = _rank_scores(fields)
        for k in range(u.size):
            np.testing.assert_array_equal(fields >= thr[k], scores > u[k])

    def test_nan_column_never_exceeds(self):
        fields = _oracle_fields(False)[:10]
        fields[3, 2] = np.nan
        u = _oracle_u(10)
        thr = mx._uniform_scores(fields, u)
        with np.errstate(invalid="ignore"):
            scores = _rank_scores(fields)
        for k in range(u.size):
            np.testing.assert_array_equal(fields >= thr[k], scores > u[k])

    @pytest.mark.parametrize("tied", [False, True])
    def test_chi_curve_bits_equal_rank_reference(self, tied):
        fields = _oracle_fields(tied)
        coords = np.column_stack([np.arange(9.0) % 3, np.arange(9.0) // 3])
        u = _oracle_u(fields.shape[0])
        pairs = mx.select_pairs(coords, 1.0, 0.5, mx.MAX_PAIRS_PER_BIN, 4)
        chi = mx.chi_curve(fields, pairs, u, n_boot=20, seed=4)
        sel = np.unique(pairs)
        pairs_local = np.searchsorted(sel, pairs)
        ref = _rank_curve(fields[:, sel],
                          lambda s: _rank_chi_estimate(s, pairs_local, u), 4, 20)
        for got, want in zip((chi.estimate, chi.lo95, chi.hi95), ref):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tied", [False, True])
    def test_are_curve_bits_equal_rank_reference(self, tied):
        fields = _oracle_fields(tied)
        u = _oracle_u(fields.shape[0])
        are = mx.are_curve(fields, 1.5, 4, u, n_boot=20, seed=6)
        ref = _rank_curve(fields, lambda s: _rank_are_estimate(s, 4, 1.5, u), 6, 20)
        for got, want in zip((are.estimate, are.lo95, are.hi95), ref):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 7, 256])
def test_distance_row_blocks_match_the_full_matrix(monkeypatch, rows):
    """Pairs and grid spacing scanned in row blocks equal those read from the
    whole site-distance matrix, across block boundaries."""
    from extvae.fieldsim import pairwise_distances

    monkeypatch.setattr(mx, "DISTANCE_ROWS", rows)
    rng = substream(21)
    coords = np.column_stack([np.arange(60.0) % 8, np.arange(60.0) // 8])
    coords[:5] += rng.uniform(-0.01, 0.01, (5, 2))
    d = pairwise_distances(coords, coords)
    assert mx.grid_spacing(coords) == float(np.min(d[d > 0]))
    for distance, tol in ((1.0, 0.5), (math.sqrt(2.0), 0.1), (3.0, 0.0)):
        upper = np.arange(60)[:, None] < np.arange(60)[None, :]
        ii, jj = np.where((np.abs(d - distance) <= tol) & upper)
        want = np.column_stack([ii, jj])
        got = mx.select_pairs(coords, distance, tol, max_pairs=10**6)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def twcrps_cell_oracle(ensemble, obs, threshold=None):
    """One cell's twCRPS by the per-cell loop: the sorted distinct
    breakpoints above the threshold, F_hat by ``searchsorted`` on each."""
    ens = np.sort(np.asarray(ensemble, dtype=np.float64).ravel())
    obs = float(obs)
    if threshold is None:
        threshold = float(ens[max(1, math.ceil(0.9 * ens.size)) - 1])
    pts = np.unique(np.concatenate([ens, [obs]]))
    lo = max(threshold, pts[0])
    pts = np.concatenate([[lo], pts[pts > lo]])
    if pts.size < 2:
        return 0.0
    f_vals = np.searchsorted(ens, pts[:-1], side="right") / ens.size
    ind = (pts[:-1] >= obs).astype(np.float64)
    return float(np.sum((f_vals - ind) ** 2 * np.diff(pts)))


def twcrps_cell(ensemble, obs, threshold=None):
    """``twcrps_field`` on a single (time, site) cell."""
    ens = np.asarray(ensemble, dtype=np.float64).reshape(1, 1, -1)
    res = mx.twcrps_field(ens, np.array([[obs]], dtype=np.float64), threshold)
    return float(res.scores[0, 0])


class TestTwcrps:
    def test_point_mass_at_observation(self):
        assert twcrps_cell(np.full(10, 3.0), 3.0) == 0.0

    def test_hand_value_above_threshold(self):
        # ensemble at 5, obs 7, threshold 5: integrand 1 on [5, 7)
        assert twcrps_cell(np.full(4, 5.0), 7.0, threshold=5.0) == pytest.approx(2.0)

    def test_unweighted_two_member_case(self):
        assert twcrps_cell(np.array([1.0, 3.0]), 3.0,
                           threshold=-np.inf) == pytest.approx(0.5)

    def test_nearest_rank_threshold(self):
        def u90(ens):
            res = mx.twcrps_field(ens.reshape(1, 1, -1), np.zeros((1, 1)))
            return res.thresholds[0, 0]

        assert u90(np.arange(1.0, 11.0)) == 9.0
        assert u90(np.array([1.0, 3.0])) == 3.0

    def test_nonnegative_and_zero_iff_point_mass(self):
        rng = substream(13)
        for _ in range(20):
            ens = rng.random(8) * 4
            obs = rng.random() * 4
            assert twcrps_cell(ens, obs, threshold=-np.inf) >= 0.0
        assert twcrps_cell(np.full(5, 2.0), 2.0, threshold=-np.inf) == 0.0

    def test_matches_brute_force_grid(self):
        rng = substream(14)
        ens = np.sort(rng.random(16) * 5)
        obs = 3.3
        thr = 2.0
        exact = twcrps_cell(ens, obs, threshold=thr)
        zs = np.linspace(thr, 10.0, 400001)
        f = np.searchsorted(ens, zs, side="right") / ens.size
        ind = (zs >= obs).astype(float)
        brute = np.trapezoid((f - ind) ** 2, zs)
        assert exact == pytest.approx(brute, abs=1e-3)

    def test_singleton_ensemble_is_point_mass(self):
        assert twcrps_cell(np.array([2.0]), 5.0, threshold=-np.inf) == pytest.approx(3.0)

    def test_field_wrapper_shapes(self):
        rng = substream(15)
        samples = rng.random((3, 4, 50)) + 0.5
        obs = rng.random((3, 4)) + 0.5
        res = mx.twcrps_field(samples, obs)
        assert res.scores.shape == (3, 4)
        assert res.thresholds.shape == (3, 4)
        assert np.all(res.scores >= 0)

    @pytest.mark.parametrize("threshold", [None, -np.inf, 0.5, 1e9])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 60])
    @pytest.mark.parametrize("tied", [True, False])
    def test_field_matches_per_cell_oracle(self, n, threshold, tied):
        # ties (values on a coarse lattice), observations equal to a member,
        # below every member and above every member, one-member ensembles,
        # and thresholds below, inside and above every breakpoint
        rng = substream(16, n)
        samples = rng.random((20, 6, n))
        obs = rng.random((20, 6))
        if tied:
            samples, obs = np.round(samples * 4) / 4, np.round(obs * 4) / 4
        obs[0] = samples[0, :, 0]
        obs[1] = samples[1].min(axis=1) - 1.0
        obs[2] = samples[2].max(axis=1) + 1.0
        samples[3] = samples[3, :, :1]
        res = mx.twcrps_field(samples, obs, threshold)
        want = np.array([[twcrps_cell_oracle(samples[t, j], obs[t, j], threshold)
                          for j in range(6)] for t in range(20)])
        if n == 1:
            assert np.array_equal(res.scores, want)
        else:
            np.testing.assert_allclose(res.scores, want, rtol=1e-15, atol=0.0)
        if threshold is None:
            k = math.ceil(0.9 * n) - 1
            assert np.array_equal(res.thresholds, np.sort(samples, axis=2)[..., k])
        else:
            assert np.all(res.thresholds == threshold)
        if threshold == 1e9:
            assert np.all(res.scores == 0.0)

    def test_row_blocks_do_not_change_a_bit(self, monkeypatch):
        rng = substream(18)
        samples = rng.random((37, 5, 9))
        obs = rng.random((37, 5))
        whole = mx.twcrps_field(samples, obs)
        monkeypatch.setattr(mx, "TWCRPS_VALUES", 1)
        blocked = mx.twcrps_field(samples, obs)
        assert np.array_equal(whole.scores, blocked.scores)
        assert np.array_equal(whole.thresholds, blocked.thresholds)

    def test_scratch_memory_within_the_ensemble_size(self):
        rng = substream(19)
        samples = rng.random((528, 3, 2000))
        obs = rng.random((528, 3))
        tracemalloc.start()
        try:
            mx.twcrps_field(samples, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= samples.nbytes

    def test_bad_layout_rejected(self):
        with pytest.raises(ValueError):
            mx.twcrps_field(np.ones((2, 3, 0)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            mx.twcrps_field(np.ones((2, 3, 4)), np.ones((3, 2)))


class TestQQ:
    def test_identical_inputs_on_diagonal(self):
        rng = substream(16)
        x = rng.standard_normal(500)
        q = np.linspace(0.05, 0.95, 19)
        qo, qe = mx.qq_data(x, x, q)
        np.testing.assert_allclose(qo, qe, rtol=1e-12)

    def test_doubling_scales_quantiles(self):
        rng = substream(17)
        x = np.abs(rng.standard_normal(1000)) + 0.1
        q = np.linspace(0.1, 0.9, 9)
        qo, qe = mx.qq_data(x, 2.0 * x, q)
        np.testing.assert_allclose(qe, 2.0 * qo, rtol=1e-12)

    def test_gev_sample_against_itself(self):
        p = GevParams(0.0, 1.0, 0.2)
        obs = gev_sample(p, 10**5, seed=3)
        ens = gev_sample(p, 10**5, seed=4)
        q = np.linspace(0.05, 0.95, 19)
        qo, qe = mx.qq_data(obs, ens, q)
        assert np.max(np.abs(qo - qe)) < 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mx.qq_data(np.array([]), np.array([1.0]), np.array([0.5]))
