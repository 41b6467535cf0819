import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest, kstwobign, norm

from extvae.distributions import LogLaplaceParams, loglaplace_quantile
from extvae.seeds import CounterStream, open_unit, substream
from references import loglaplace_cdf


def ks_bound(n: int) -> float:
    return kstwobign.isf(0.01) / math.sqrt(n)


class TestCounterStream:
    def test_counter_zero_is_the_substream(self):
        words = CounterStream(11, "label", 3).words(0, 37)
        ref = substream(11, "label", 3).bit_generator.random_raw(37)
        assert words.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("start,n", [(0, 1), (1, 3), (2, 9), (3, 4), (4, 4),
                                         (17, 30), (50, 1)])
    def test_any_range_is_a_slice_of_the_stream(self, start, n):
        stream = CounterStream(5, "x")
        whole = stream.words(0, 64)
        assert stream.words(start, n).tobytes() == whole[start:start + n].tobytes()

    def test_far_addresses_carry_into_the_high_counter_words(self):
        stream = CounterStream(5, "x")
        far = 4 * (1 << 64) - 2            # straddles a 64-bit counter carry
        a = stream.words(far, 6)
        assert a[2:].tobytes() == stream.words(far + 2, 4).tobytes()
        assert a[:2].tobytes() == stream.words(far, 2).tobytes()

    def test_generator_regions(self):
        stream = CounterStream(8, "prior")
        first = stream.generator(1).bit_generator.random_raw(8)
        assert first.tobytes() == stream.words(4 << 64, 8).tobytes()
        # a region's draws do not depend on what was read before
        a = stream.generator(3).standard_normal(50)
        stream.generator(2).standard_normal(1000)
        assert stream.generator(3).standard_normal(50).tobytes() == a.tobytes()

    def test_generator_region_normals_are_standard_and_independent(self):
        # the sampler every normal draw goes through: each region's draws are
        # standard normal, and neighbouring regions are uncorrelated
        stream = CounterStream(9, "emulate-eps")
        a, b = (stream.generator(s).standard_normal(10**5) for s in (0, 1))
        for z in (a, b):
            assert kstest(z, norm.cdf).statistic < ks_bound(z.size)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / math.sqrt(a.size)

    def test_labels_and_seeds_give_distinct_keys(self):
        a = CounterStream(1, "emulate-noise").words(0, 8)
        assert a.tobytes() != CounterStream(1, "emulate-eps").words(0, 8).tobytes()
        assert a.tobytes() != CounterStream(2, "emulate-noise").words(0, 8).tobytes()


class TestOpenUnit:
    def test_extreme_words_stay_inside_the_unit_interval(self):
        u = open_unit(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert u[0] == 2.0**-53 and u[1] == 1.0 - 2.0**-53
        assert np.all((u > 0) & (u < 1))
        for a0 in (0.5, 2.0, 30.0):
            noise = loglaplace_quantile(u, LogLaplaceParams(a0))
            assert np.all(np.isfinite(noise) & (noise > 0))
        assert np.all(np.isfinite(ndtri(u)))

    @pytest.mark.parametrize("end", ["low", "high"])
    def test_words_near_the_ends_are_half_ulp_centres(self, end):
        # the 2e5 words nearest 0 (or 2^64 - 1): top 52 bits m give exactly
        # (m + 1/2) 2^-52, whatever the low 12 bits hold
        m = np.arange(200_000, dtype=np.uint64)
        if end == "high":
            m = np.uint64(2**52 - 1) - m
        low = np.uint64(0xABC) if end == "low" else np.uint64(0xFFF)
        u = open_unit((m << np.uint64(12)) | low)
        assert u.min() >= 2.0**-53 and u.max() <= 1.0 - 2.0**-53
        assert np.array_equal(u, (m.astype(np.float64) + 0.5) * 2.0**-52)

    def test_counter_noise_is_log_laplace(self):
        p = LogLaplaceParams(2.0)
        noise = loglaplace_quantile(open_unit(CounterStream(3, "ks").words(0, 10**5)), p)
        stat = kstest(noise, loglaplace_cdf(p.alpha0)).statistic
        assert stat < ks_bound(noise.size)

    def test_ndtri_normals_are_standard(self):
        z = ndtri(open_unit(CounterStream(4, "ks").words(7, 10**5)))
        assert kstest(z, norm.cdf).statistic < ks_bound(z.size)
