"""Independent references for the model's three laws, from scipy.stats; the
GEV return level and the seeded GEV draws the fit tests use as data; from
scipy, the chi-square survival function and the L-BFGS-B fits that the
preprocessing fits replace; and the energy distance between two samples.

- the expPS(1/2, theta) prior is the inverse Gaussian with mean 1/(2 sqrt theta)
  and shape 1/2, scipy's ``invgauss(mu=1/sqrt(theta), scale=1/2)``, and at
  theta = 0 the Levy law ``levy(scale=1/2)``;
- the log-normal posterior exp(N(m, sigma^2)) is ``lognorm(s=sigma, scale=e^m)``;
- log-Laplace noise x/y has log(x/y) ~ ``laplace(scale=1/alpha0)``.
"""

import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import chdtrc
from scipy.stats import invgauss, laplace, levy, lognorm

from extvae.distributions import XI_MAX, XI_MIN, GevParams, _gev_negloglik, _levels
from extvae.seeds import as_generator


def expps_half_logpdf(z, theta) -> np.ndarray:
    """Elementwise expPS(1/2, theta) log-density of z > 0."""
    z, theta = np.broadcast_arrays(np.asarray(z, dtype=np.float64),
                                   np.asarray(theta, dtype=np.float64))
    tilted = theta > 0
    mu = 1.0 / np.sqrt(np.where(tilted, theta, 1.0))
    return np.where(tilted, invgauss(mu=mu, scale=0.5).logpdf(z),
                    levy(scale=0.5).logpdf(z))


def lognormal_logpdf(z, m, sigma) -> np.ndarray:
    """Elementwise log-density of exp(N(m, sigma^2)) at z > 0."""
    return lognorm(s=sigma, scale=np.exp(m)).logpdf(z)


def loglaplace_logpdf(x, y, alpha0: float) -> np.ndarray:
    """Elementwise log-density of an observation x given its mean-free
    reconstruction y under log-Laplace(1/alpha0) multiplicative noise."""
    x = np.asarray(x, dtype=np.float64)
    return laplace(scale=1.0 / alpha0).logpdf(np.log(x / y)) - np.log(x)


def loglaplace_cdf(alpha0: float):
    """The log-Laplace(1/alpha0) CDF, for kstest."""
    return lambda x: laplace(scale=1.0 / alpha0).cdf(np.log(x))


def gev_quantile(q, p: GevParams) -> np.ndarray:
    """The level-q return level of the marginal p."""
    q = _levels(q)
    return p.mu + p.sigma * ((-np.log(q)) ** (-p.xi) - 1.0) / p.xi


def gev_sample(p: GevParams, n: int, seed) -> np.ndarray:
    """n GEV draws: the quantile of n uniforms from ``as_generator(seed)``."""
    return gev_quantile(as_generator(seed).random(n), p)


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X ~ chi-square(df), from scipy's Cephes."""
    return float(chdtrc(df, x))


def gev_nll(p: GevParams, x) -> float:
    """The GEV negative log-likelihood of the sample x at p."""
    return float(_gev_negloglik(np.array([p.mu, math.log(p.sigma), p.xi]),
                                np.asarray(x, dtype=np.float64))[0])


def gev_fit_lbfgsb(x) -> float:
    """The GEV fit as L-BFGS-B made it, with the analytic gradient, from the
    same two starts and bounds as gev_fit: the better optimum's negative
    log-likelihood."""
    x = np.asarray(x, dtype=np.float64)
    sigma0 = max(math.sqrt(6.0) * float(np.std(x)) / math.pi, 1e-8)
    mu0 = float(np.mean(x)) - 0.5772156649015329 * sigma0

    def nll(p):
        f, g = _gev_negloglik(p, x)
        return float(f), np.asarray(g)

    return min(minimize(nll, x0=np.array([mu0, math.log(sigma0), xi0]), jac=True,
                        method="L-BFGS-B", bounds=[(None, None), (None, None), (lo, hi)]).fun
               for xi0, lo, hi in ((0.1, XI_MIN, XI_MAX), (-0.1, -XI_MAX, -XI_MIN)))


def variance_nll(beta1: float, beta2: float, sum_sq, n: int, t) -> float:
    """The variance model's negative log-likelihood, without its constant, at
    log eps_t = beta1 + beta2 t for n series with per-day sums of squares."""
    log_eps = beta1 + beta2 * np.asarray(t, dtype=np.float64)
    return float(np.sum(n * log_eps + 0.5 * sum_sq * np.exp(-2.0 * log_eps)))


def variance_fit_lbfgsb(sum_sq, n: int, t) -> float:
    """The variance model's fit as L-BFGS-B made it, from (log sd, 0) with t
    scaled to at most 1: its negative log-likelihood."""
    t = np.asarray(t, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(t))))
    ts = t / scale

    def nll(b):
        log_eps = b[0] + b[1] * ts
        w = sum_sq * np.exp(-2.0 * log_eps)
        d = n - w
        return float(np.sum(n * log_eps + 0.5 * w)), np.array([np.sum(d), np.sum(d * ts)])

    sd0 = math.sqrt(float(np.sum(sum_sq)) / (n * t.size))
    res = minimize(nll, x0=np.array([math.log(sd0), 0.0]), jac=True, method="L-BFGS-B")
    return variance_nll(res.x[0], res.x[1] / scale, sum_sq, n, t)


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Energy distance between two multivariate samples (rows are draws)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))

    def _mean_cross(u, v):
        d = np.sqrt(np.sum((u[:, None, :] - v[None, :, :]) ** 2, axis=2))
        return float(np.mean(d))

    return 2.0 * _mean_cross(a, b) - _mean_cross(a, a) - _mean_cross(b, b)
