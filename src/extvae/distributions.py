"""Distributions used by the extremes model.

Samplers and quantiles for the log-Laplace multiplicative noise and the
Frechet noise it replaces, the exact sampler of exponentially-tilted
positive-stable latent factors (stability index STABILITY_INDEX = 1/2, drawn
as inverse Gaussians), and the GEV marginal model.  The model's own
log-densities are written once, on the tape, in :mod:`extvae.model`.

All samplers are deterministic given a seed; see :mod:`extvae.seeds`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .seeds import as_generator, substream

# |xi| below this is rejected: the Pareto-scale transform divides by xi,
# so the Gumbel boundary is excluded from fitting.
XI_MIN = 1e-3
# fewest maxima gev_fit accepts
GEV_MIN_OBS = 30
# the latent factors' stability index: the one index whose tilted law has a
# closed-form density and an exact sampler, so it is fixed, not a setting
STABILITY_INDEX = 0.5


class GevFitError(RuntimeError):
    """GEV maximum-likelihood search failed; carries the best point found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _validate_positive(name: str, value: float) -> None:
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _levels(q) -> np.ndarray:
    """q as float64 levels, every one in (0, 1): NaN is refused as 0 and 1 are."""
    q = np.asarray(q, dtype=np.float64)
    if not (np.all(q > 0) and np.all(q < 1)):
        raise ValueError("quantile level must lie in (0, 1)")
    return q


@dataclass(frozen=True)
class LogLaplaceParams:
    """Multiplicative noise with tail index alpha0 (log-Laplace(0, 1/alpha0))."""

    alpha0: float

    def __post_init__(self):
        _validate_positive("alpha0", self.alpha0)


@dataclass(frozen=True)
class FrechetParams:
    tau: float
    alpha0: float

    def __post_init__(self):
        _validate_positive("tau", self.tau)
        _validate_positive("alpha0", self.alpha0)


@dataclass(frozen=True)
class GevParams:
    """GEV location/scale/shape with the Gumbel (xi = 0) branch excluded."""

    mu: float
    sigma: float
    xi: float

    def __post_init__(self):
        _validate_positive("sigma", self.sigma)
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not np.isfinite(self.xi) or self.xi == 0.0:
            raise ValueError(f"xi must be nonzero and finite, got {self.xi!r}")


# ---------------------------------------------------------------------------
# log-Laplace noise
# ---------------------------------------------------------------------------

def loglaplace_sample(p: LogLaplaceParams, n: int, seed) -> np.ndarray:
    """exp(U) with U ~ Laplace(0, 1/alpha0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    u = rng.laplace(loc=0.0, scale=1.0 / p.alpha0, size=n)
    return np.exp(u)


def loglaplace_quantile(q, p: LogLaplaceParams) -> np.ndarray:
    q = _levels(q)
    # (2q)^(1/a0) below the median, (2(1-q))^(-1/a0) above.  The lower power
    # is taken everywhere and the upper one only above the median: the same
    # bits as np.where over both powers, which takes the upper one everywhere
    # too (32 ms against 37 ms on 1.32M draws, one core)
    flat = q.reshape(-1)
    out = (2.0 * flat) ** (1.0 / p.alpha0)
    hi = np.flatnonzero(flat > 0.5)
    out[hi] = (2.0 * (1.0 - flat[hi])) ** (-1.0 / p.alpha0)
    return out.reshape(q.shape)


# ---------------------------------------------------------------------------
# exponentially tilted positive-stable(1/2)
# ---------------------------------------------------------------------------

def expps_sample_field(theta: np.ndarray, seed) -> np.ndarray:
    """One expPS(1/2, theta[i]) draw per entry of an arbitrary-shape theta array.

    expPS(1/2, theta) is the inverse Gaussian law with mean mu = 1/(2 sqrt(theta))
    and shape 1/2, drawn exactly by Michael, Schucany & Haas (1976): one
    standard normal N and then one uniform U per entry.  With s = sqrt(theta),
    the smaller root x = 1 / (2s + N^2 + |N| sqrt(N^2 + 4s)) is kept when
    U (1 + 2 s x) <= 1, else the larger root mu (mu / x).  Both roots are
    written without cancellation or overflow for every finite theta, and
    theta = 0 gives the Levy draw 1/(2 N^2) with no branch.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(theta < 0) or not np.all(np.isfinite(theta)):
        raise ValueError("theta must be >= 0 and finite")
    rng = as_generator(seed)
    s = np.sqrt(theta.ravel())
    n = rng.standard_normal(s.size)
    u = rng.random(s.size)
    # N^2 floored at the smallest normal: keeps 1/(2 N^2) finite at theta = 0
    # on the measure-zero event N = 0
    n2 = np.maximum(n * n, np.finfo(np.float64).tiny)
    x = 1.0 / (2.0 * s + n2 + np.sqrt(n2) * np.sqrt(n2 + 4.0 * s))
    big = u * (1.0 + 2.0 * s * x) > 1.0        # never where theta = 0
    mu = 0.5 / s[big]
    x[big] = mu * (mu / x[big])
    return x.reshape(theta.shape)


# ---------------------------------------------------------------------------
# Frechet noise (kept for the tail-equivalence check)
# ---------------------------------------------------------------------------

def frechet_quantile(q, p: FrechetParams) -> np.ndarray:
    q = _levels(q)
    return p.tau * (-np.log(q)) ** (-1.0 / p.alpha0)


# ---------------------------------------------------------------------------
# GEV marginal model
# ---------------------------------------------------------------------------

def gev_cdf(x, p: GevParams, warn_on_clamp: bool = True) -> np.ndarray:
    """GEV CDF; arguments outside the fitted support clamp to 0 or 1."""
    x = np.asarray(x, dtype=np.float64)
    t = 1.0 + p.xi * (x - p.mu) / p.sigma
    inside = t > 0
    out = np.empty_like(t)
    with np.errstate(over="ignore"):
        out[inside] = np.exp(-(t[inside] ** (-1.0 / p.xi)))
    # outside the support: below the lower endpoint for xi>0, above the upper
    # endpoint for xi<0
    out[~inside] = 0.0 if p.xi > 0 else 1.0
    if warn_on_clamp and np.any(~inside):
        warnings.warn("gev_cdf evaluated outside the fitted support; clamped",
                      RuntimeWarning, stacklevel=2)
    return out


def gev_quantile(q, p: GevParams) -> np.ndarray:
    """The level-q return level of the marginal p."""
    q = _levels(q)
    return p.mu + p.sigma * ((-np.log(q)) ** (-p.xi) - 1.0) / p.xi


def _gev_negloglik(params: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """GEV negative log-likelihood and its gradient in (mu, log sigma, xi);
    outside the support, a 1e10 barrier with a zero gradient."""
    mu, log_sigma, xi = params
    sigma = math.exp(log_sigma)
    z = (x - mu) / sigma
    t = 1.0 + xi * z
    if np.any(t <= 0):
        return 1e10, np.zeros(3)
    log_t = np.log(t)
    u = np.exp(-log_t / xi)                       # t^(-1/xi)
    nll = float(x.size * log_sigma + (1.0 + 1.0 / xi) * np.sum(log_t) + np.sum(u))
    a = (1.0 + (1.0 - u) / xi) / t                # d nll / d t, per observation
    grad = np.array([
        -xi / sigma * np.sum(a),
        x.size - xi * np.sum(a * z),
        np.sum(a * z) + np.sum((u - 1.0) * log_t) / xi**2,
    ])
    return nll, grad


def gev_fit(data) -> GevParams:
    """Maximum-likelihood GEV fit by quasi-Newton search.

    Started from Gumbel moment estimates, run once on each side of the excluded
    band |xi| < XI_MIN, keeping the better optimum.  Raises GevFitError (with
    the best point found) when no converged solution satisfies the support
    constraint on every observation.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 1 or x.size < GEV_MIN_OBS:
        raise ValueError(f"gev_fit needs a 1-D sample of at least {GEV_MIN_OBS} points")
    if not np.all(np.isfinite(x)):
        raise ValueError("gev_fit requires finite data")
    from scipy.optimize import minimize

    sigma0 = math.sqrt(6.0) * float(np.std(x)) / math.pi
    sigma0 = max(sigma0, 1e-8)
    mu0 = float(np.mean(x)) - 0.5772156649015329 * sigma0

    best = None
    best_val = np.inf
    for xi0, lo, hi in ((0.1, XI_MIN, 5.0), (-0.1, -5.0, -XI_MIN)):
        res = minimize(
            _gev_negloglik,
            x0=np.array([mu0, math.log(sigma0), xi0]),
            args=(x,),
            jac=True,
            method="L-BFGS-B",
            bounds=[(None, None), (None, None), (lo, hi)],
        )
        if res.fun < best_val:
            best_val = res.fun
            best = res
    fitted = GevParams(mu=float(best.x[0]), sigma=float(math.exp(best.x[1])),
                       xi=float(best.x[2]))
    support = 1.0 + fitted.xi * (x - fitted.mu) / fitted.sigma
    if not best.success or best_val >= 1e10 or np.any(support <= 0):
        raise GevFitError(
            f"GEV fit did not converge to an admissible optimum: {best.message}",
            best=fitted,
        )
    return fitted


# ---------------------------------------------------------------------------
# Monte-Carlo tail-equivalence check (Frechet noise vs log-Laplace noise)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailCheckResult:
    marginal_ratio: float
    joint_ratio: float
    expected_marginal: float
    expected_joint: float
    n_marginal_hits: tuple[int, int]
    n_joint_hits: tuple[int, int]


def _joint_pairs(exceeds: np.ndarray) -> int:
    """Site pairs (i < j) exceeding together, summed over rows: a row where k
    sites exceed holds k(k-1)/2 of them."""
    k = np.count_nonzero(exceeds, axis=1)
    return int(np.sum(k * (k - 1) // 2))


def tail_equivalence_check(
    y: np.ndarray,
    tau: float,
    alpha0: float,
    seed,
    level: float = 0.999,
) -> TailCheckResult:
    """Ratio of marginal and joint survival between the two noise models.

    Multiplies a shared de-noised field ``y`` (replicates x sites) once by
    Frechet(tau, alpha0) noise and once by log-Laplace(1/alpha0) noise, i.i.d.
    across entries, and compares exceedances of the pooled ``level`` quantile.
    The limiting ratios are 2*tau^alpha0 marginally and its square jointly.

    Both noise samples are driven by common uniforms (comonotone coupling),
    which leaves each exceedance probability estimate unbiased while shrinking
    the variance of their ratio.  The joint exceedance counts are pooled over
    every site pair; joint events are rare at high levels, and every pair's
    ratio has the same limit.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError("y must be (replicates, sites)")
    n, n_sites = y.shape
    u = substream(seed, "noise-u").random((n, n_sites))
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    x_f = frechet_quantile(u, FrechetParams(tau, alpha0)) * y
    x_l = loglaplace_quantile(u, LogLaplaceParams(alpha0)) * y

    x_level = float(np.quantile(np.concatenate([x_f.ravel(), x_l.ravel()]), level))
    ex_f = x_f > x_level
    ex_l = x_l > x_level
    hits_f = int(np.sum(ex_f))
    hits_l = int(np.sum(ex_l))
    if hits_l == 0:
        raise ValueError("no log-Laplace exceedances at the requested level")
    marginal_ratio = hits_f / hits_l

    joint_f, joint_l = _joint_pairs(ex_f), _joint_pairs(ex_l)
    if joint_l == 0:
        raise ValueError("no joint log-Laplace exceedances at the requested level")
    expected = 2.0 * tau**alpha0
    return TailCheckResult(
        marginal_ratio=float(marginal_ratio),
        joint_ratio=float(joint_f / joint_l),
        expected_marginal=expected,
        expected_joint=expected**2,
        n_marginal_hits=(hits_f, hits_l),
        n_joint_hits=(joint_f, joint_l),
    )
