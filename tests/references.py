"""Independent references for the model's three laws, from scipy.stats, and
the seeded GEV draws the fit tests use as data.

- the expPS(1/2, theta) prior is the inverse Gaussian with mean 1/(2 sqrt theta)
  and shape 1/2, scipy's ``invgauss(mu=1/sqrt(theta), scale=1/2)``, and at
  theta = 0 the Levy law ``levy(scale=1/2)``;
- the log-normal posterior exp(N(m, sigma^2)) is ``lognorm(s=sigma, scale=e^m)``;
- log-Laplace noise x/y has log(x/y) ~ ``laplace(scale=1/alpha0)``.
"""

import numpy as np
from scipy.stats import invgauss, laplace, levy, lognorm

from extvae.distributions import GevParams, gev_quantile
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


def gev_sample(p: GevParams, n: int, seed) -> np.ndarray:
    """n GEV draws: the quantile of n uniforms from ``as_generator(seed)``."""
    return gev_quantile(as_generator(seed).random(n), p)
