import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, kstwobign, laplace

from extvae import fieldsim as fs
from extvae import metrics as mx


class TestGrids:
    def test_regular_grid_shape(self):
        g = fs.regular_grid(3, 4, extent=6.0)
        assert g.n_sites == 12
        assert g.cell == pytest.approx(2.0)
        assert g.sites[0] == pytest.approx([0.0, 0.0])
        assert g.sites[-1] == pytest.approx([6.0, 6.0])

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError):
            fs.SpatialGrid(sites=np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_rows_cols_consistency(self):
        with pytest.raises(ValueError):
            fs.SpatialGrid(sites=np.zeros((3, 2)) + np.arange(3)[:, None],
                           rows=2, cols=2)

    def test_knot_lattice(self):
        k = fs.knot_lattice(4, 20.0)
        assert k.shape == (16, 2)
        assert k.min() == 0.0 and k.max() == 20.0


class TestWendland:
    def test_kernel_at_origin(self):
        w = fs.wendland_basis(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]), 1.0)
        assert w[0, 0] == 1.0

    def test_compact_support(self):
        sites = np.array([[0.0, 0.0], [0.5, 0.0]])
        knots = np.array([[0.0, 0.0], [3.0, 0.0]])
        w = fs.wendland_basis(sites, knots, 1.0)
        assert w[0, 1] == 0.0  # distance 3 >= radius

    def test_half_radius_value(self):
        sites = np.array([[0.5, 0.0], [0.0, 0.0]])
        knots = np.array([[0.0, 0.0]])
        w = fs.wendland_basis(sites, knots, 1.0)
        assert w[0, 0] == pytest.approx(0.1875, rel=1e-12)

    def test_isolated_site_rejected(self):
        sites = np.array([[0.0, 0.0], [10.0, 10.0]])
        knots = np.array([[0.0, 0.0]])
        with pytest.raises(ValueError, match="no knot within radius"):
            fs.wendland_basis(sites, knots, 1.0)

    def test_rows_nonnegative_with_positive_entry(self):
        g = fs.regular_grid(10, 10, 20.0)
        k = fs.knot_lattice(4, 20.0)
        w = fs.wendland_basis(g.sites, k, 6.0)
        assert np.all(w >= 0)
        assert np.all(np.any(w > 0, axis=1))


def wendland_where(sites, knots, radius):
    """The weights as np.where over every entry, the power taken everywhere."""
    d = fs.pairwise_distances(sites, knots) / radius
    return np.where(d < 1.0, (1.0 - d) ** 4 * (4.0 * d + 1.0), 0.0)


class TestWendlandBits:
    @pytest.mark.parametrize("side, knot_side, radius", [(50, 8, 3.0), (20, 4, 6.0)],
                             ids=["grid50", "desk"])
    def test_preset_geometry_bits(self, side, knot_side, radius):
        g = fs.regular_grid(side, side, 20.0)
        k = fs.knot_lattice(knot_side, 20.0)
        w = fs.wendland_basis(g.sites, k, radius)
        assert w.tobytes() == wendland_where(g.sites, k, radius).tobytes()

    def test_bits_at_zero_just_under_one_and_one(self):
        under = np.nextafter(1.0, 0.0)
        sites = np.array([[0.0, 0.0], [under, 0.0], [1.0, 0.0]])
        knots = np.array([[0.0, 0.0], [1.0, 0.0]])
        d = fs.pairwise_distances(sites, knots)
        assert d[0, 0] == 0.0 and d[1, 0] == under and d[2, 0] == 1.0
        w = fs.wendland_basis(sites, knots, 1.0)
        assert w.tobytes() == wendland_where(sites, knots, 1.0).tobytes()
        assert w[0, 0] == 1.0 and 0.0 < w[1, 0] < 1e-60 and w[2, 0] == 0.0


class TestSimulateTheta:
    def test_center_value(self):
        # condition 0.5 puts the kernel center at (10, 10)
        theta = fs.simulate_theta(np.array([0.5]), np.array([[10.0, 10.0]]))
        assert theta[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_bandwidth_distance(self):
        knots = np.array([[10.0 + 15.0, 10.0]])  # distance 15 = tau from center
        theta = fs.simulate_theta(np.array([0.5]), knots)
        assert theta[0, 0] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    def test_max_condition_centers_first_anchor(self):
        knots = np.array([[0.0, 20.0], [20.0, 0.0]])
        theta = fs.simulate_theta(np.array([1.0]), knots)
        assert theta[0, 0] == pytest.approx(2.0)      # at the (0,20) anchor
        assert theta[0, 1] < theta[0, 0]

    def test_values_in_range(self):
        c = np.linspace(0, 1, 11)
        theta = fs.simulate_theta(c, fs.knot_lattice(4, 20.0))
        assert np.all(theta > 0) and np.all(theta <= 2.0)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_condition_reflection_symmetry(self, c):
        knots = fs.knot_lattice(3, 20.0)
        a = fs.simulate_theta(np.array([c]), knots)
        b = fs.simulate_theta(np.array([1.0 - c]), knots,
                              anchors=((20.0, 0.0), (0.0, 20.0)))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_condition_domain(self):
        with pytest.raises(ValueError):
            fs.simulate_theta(np.array([1.5]), fs.knot_lattice(2, 20.0))


@pytest.fixture(scope="module")
def small_sim():
    grid = fs.regular_grid(6, 6, 20.0)
    knots = fs.knot_lattice(3, 20.0)
    w = fs.wendland_basis(grid.sites, knots, 9.0)
    c = np.linspace(0.0, 1.0, 40)
    theta = fs.simulate_theta(c, knots)
    x, z = fs.simulate_dataset(theta, w, 30.0, seed=5, return_latent=True)
    return grid, knots, w, theta, x, z


class TestSimulateDataset:
    def test_all_positive(self, small_sim):
        *_, x, z = small_sim
        assert np.all(x > 0) and np.all(z > 0)

    def test_noise_ratio_is_loglaplace(self, small_sim):
        _, _, w, _, x, z = small_sim
        crit = kstwobign.isf(0.01)
        ratios = np.log(x / (z @ w.T)).ravel()
        stat = kstest(ratios, laplace(scale=1 / 30.0).cdf).statistic
        assert stat < crit / math.sqrt(ratios.size)

    def test_large_alpha0_limit(self):
        grid = fs.regular_grid(4, 4, 20.0)
        knots = fs.knot_lattice(2, 20.0)
        w = fs.wendland_basis(grid.sites, knots, 25.0)
        theta = fs.simulate_theta(np.array([0.3, 0.8]), knots)
        x, z = fs.simulate_dataset(theta, w, 1e4, seed=2, return_latent=True)
        rel = np.abs(x / (z @ w.T) - 1.0)
        assert rel.max() < 0.01

    def test_bit_reproducible(self, small_sim):
        _, _, w, theta, x, _ = small_sim
        again = fs.simulate_dataset(theta, w, 30.0, seed=5)
        assert np.array_equal(x, again)

    def test_spatial_chi_decay(self):
        # adjacent cells are more tail-dependent than distant ones
        grid = fs.regular_grid(20, 20, 20.0)
        knots = fs.knot_lattice(4, 20.0)
        w = fs.wendland_basis(grid.sites, knots, 6.0)
        c = fs.smooth_condition(fs.synthetic_condition(300, 0))
        theta = fs.simulate_theta(c, knots)
        x = fs.simulate_dataset(theta, w, 30.0, seed=9)
        psi = grid.cell
        u = np.array([0.95])
        near = mx.chi_curve(x, mx.select_pairs(grid.sites, psi, psi / 2, seed=3), u,
                            n_boot=0, seed=3)
        far = mx.chi_curve(x, mx.select_pairs(grid.sites, 7.0, psi / 2, seed=3), u,
                           n_boot=0, seed=3)
        assert near.estimate[0] > far.estimate[0]


class TestSmoothCondition:
    def test_centered_average_hand_value(self):
        raw = np.arange(1.0, 11.0)
        # before normalization the value at index 2 is mean(1..5) = 3
        half = 2
        sm = np.array([raw[max(0, t - half):t + half + 1].mean()
                       for t in range(10)])
        assert sm[2] == pytest.approx(3.0)
        out = fs.smooth_condition(raw, window=5)
        np.testing.assert_allclose(out, (sm - sm.min()) / (sm.max() - sm.min()))

    def test_monotone_series_hits_endpoints(self):
        out = fs.smooth_condition(np.linspace(3.0, 9.0, 30), window=5)
        assert out[0] == 0.0 and out[-1] == 1.0
        assert np.all((out >= 0) & (out <= 1))

    def test_constant_series_errors(self):
        with pytest.raises(ValueError, match="constant"):
            fs.smooth_condition(np.full(20, 2.5), window=5)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            fs.smooth_condition(np.arange(3.0), window=5)

    def test_synthetic_condition_smoothable(self):
        raw = fs.synthetic_condition(200, 0)
        c = fs.smooth_condition(raw)
        assert c.min() == 0.0 and c.max() == 1.0
        assert np.array_equal(raw, fs.synthetic_condition(200, 0))
