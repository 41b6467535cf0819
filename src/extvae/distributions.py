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
# gev_fit's bounds on |xi| are [XI_MIN, XI_MAX] on each side of zero
XI_MAX = 5.0
# fewest maxima gev_fit accepts
GEV_MIN_OBS = 30
# the GEV negative log-likelihood outside the support
GEV_BARRIER = 1e10
# gev_fit's Newton steps per start; newton_columns' halvings of one step
GEV_NEWTON_STEPS = 100
NEWTON_BACKTRACKS = 40
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


def _gev_negloglik(params: np.ndarray, x: np.ndarray, hessian: bool = False):
    """GEV negative log-likelihood and its gradient in (mu, log sigma, xi), and
    with ``hessian`` its Hessian; outside the support, a GEV_BARRIER value with
    a zero gradient and Hessian.

    ``params`` is (3,) for one sample x of shape (n,), or (3, k) for the k
    columns of an (n, k) x: every sum runs over the first axis of x.
    """
    mu, log_sigma, xi = params
    sigma = np.exp(log_sigma)
    z = (x - mu) / sigma
    t = 1.0 + xi * z
    outside = np.any(t <= 0, axis=0)
    t = np.where(t > 0, t, 1.0)
    log_t = np.log(t)
    u = np.exp(-log_t / xi)                       # t^(-1/xi)
    n = x.shape[0]
    nll = n * log_sigma + (1.0 + 1.0 / xi) * np.sum(log_t, axis=0) + np.sum(u, axis=0)
    a = (1.0 + (1.0 - u) / xi) / t                # d nll / d t, per observation
    a0, a1 = np.sum(a, axis=0), np.sum(a * z, axis=0)
    grad = np.array([-xi / sigma * a0, n - xi * a1,
                     a1 + np.sum((u - 1.0) * log_t, axis=0) / xi**2])
    nll = np.where(outside, GEV_BARRIER, nll)
    grad = np.where(outside, 0.0, grad)
    if not hessian:
        return nll, grad
    # per observation: xi d2nll/dt2, xi d2nll/dt dxi and d2nll/dxi2 at fixed t
    w = (1.0 + 1.0 / xi) * (u - xi) / t**2
    q = ((u - 1.0) / xi - u * log_t / xi**2) / t
    xx = (u * log_t / xi - 2.0 * (u - 1.0)) * log_t / xi**3
    s0, s1, s2 = np.sum(w, axis=0), np.sum(w * z, axis=0), np.sum(w * z * z, axis=0)
    q0, q1 = np.sum(q, axis=0), np.sum(q * z, axis=0)
    h_mm = xi * s0 / sigma**2
    h_ms = xi * (s1 + a0) / sigma
    h_mx = -(s1 + q0 + a0) / sigma
    h_ss = xi * (s2 + a1)
    h_sx = -(s2 + q1 + a1)
    h_xx = s2 / xi + 2.0 * q1 / xi + np.sum(xx, axis=0)
    hess = np.array([[h_mm, h_ms, h_mx], [h_ms, h_ss, h_sx], [h_mx, h_sx, h_xx]])
    return nll, grad, np.where(outside, 0.0, hess)


def _gev_newton_step(grad: np.ndarray, hess: np.ndarray, xi: np.ndarray,
                     lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The minimizer of each column's quadratic model over lo <= xi <= hi,
    as a step, and the model's decrease along it.

    The Hessian's eigenvalues are taken in absolute value and floored, so the
    model is convex.  Where its free minimum has xi outside the bounds, xi
    goes to the nearer bound and (mu, log sigma) minimize the model there:
    the constrained minimum of a convex quadratic in one bounded variable.
    """
    vals, vecs = np.linalg.eigh(np.moveaxis(hess, -1, 0))
    vals = np.abs(vals)
    vals = np.maximum(vals, 1e-10 * vals[:, -1:] + 1e-300)
    h = np.einsum("kij,kj,klj->ilk", vecs, vals, vecs)
    step = -np.einsum("kij,kj,klj,lk->ik", vecs, 1.0 / vals, vecs, grad)
    dxi = np.clip(xi + step[2], lo, hi) - xi
    r0 = grad[0] + h[0, 2] * dxi
    r1 = grad[1] + h[1, 2] * dxi
    det = h[0, 0] * h[1, 1] - h[0, 1] ** 2
    face = np.array([(h[0, 1] * r1 - h[1, 1] * r0) / det,
                     (h[0, 1] * r0 - h[0, 0] * r1) / det, dxi])
    step = np.where(dxi != step[2], face, step)
    decrease = -(np.sum(grad * step, axis=0)
                 + 0.5 * np.einsum("ik,ijk,jk->k", step, h, step))
    return step, decrease


def newton_columns(objective, direction, theta: np.ndarray,
                   max_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backtracking Newton on every column of ``theta`` at once.

    ``objective(th, cols, derivatives)`` evaluates columns ``cols`` (an index
    array, or a full slice) at ``th``, one column each: nll, or with
    ``derivatives`` (nll, grad, hess).  ``direction(th, grad, hess, cols)``
    gives each column's step and the decrease its model promises along it.
    A column is done when that promise is at most 1e-12 (1 + |nll|).  Each
    step is halved, at most NEWTON_BACKTRACKS times, until nll falls by 1e-4
    of the slope along it.
    A column stops undone when its derivatives overflow, or when it cannot
    progress while its model promises more than 1e-8 (1 + |nll|).  Returns
    the points, their nll and which columns are done.
    """
    theta = np.array(theta, dtype=np.float64)

    def pick(cols):                       # a full slice copies no data
        return slice(None) if cols.size == theta.shape[1] else cols

    nll = objective(theta, slice(None), False)
    live = np.isfinite(nll)
    done = np.zeros(theta.shape[1], dtype=bool)
    for _ in range(max_steps):
        cols = np.flatnonzero(live & ~done)
        if cols.size == 0:
            break
        th = theta[:, cols]
        f, grad, hess = objective(th, pick(cols), True)
        finite = np.all(np.isfinite(hess), axis=(0, 1)) & np.all(np.isfinite(grad), axis=0)
        if not np.all(finite):
            live[cols[~finite]] = False
            cols, th = cols[finite], th[:, finite]
            f, grad, hess = f[finite], grad[:, finite], hess[..., finite]
        step, decrease = direction(th, grad, hess, pick(cols))
        small = decrease <= 1e-12 * (1.0 + np.abs(f))
        done[cols[small]] = True
        search = np.flatnonzero(~small)
        slope = np.sum(grad * step, axis=0)
        alpha = 1.0
        for _ in range(NEWTON_BACKTRACKS):
            if search.size == 0:
                break
            trial = th[:, search] + alpha * step[:, search]
            f_trial = objective(trial, pick(cols[search]), False)
            ok = f_trial <= f[search] + 1e-4 * alpha * slope[search]
            theta[:, cols[search[ok]]] = trial[:, ok]
            nll[cols[search[ok]]] = f_trial[ok]
            search = search[~ok]
            alpha *= 0.5
        # no sufficient decrease along a descent direction: rounding has the
        # last word, so the column is done if its model promised little
        stuck = decrease[search] <= 1e-8 * (1.0 + np.abs(f[search]))
        done[cols[search[stuck]]] = True
        live[cols[search[~stuck]]] = False
    return theta, nll, done


def gev_fit(data):
    """Maximum-likelihood GEV fit of a sample, or of each column of an
    (n, sites) matrix, by batched projected Newton.

    Every site starts from Gumbel moment estimates once on each side of the
    excluded band |xi| < XI_MIN, with xi from 0.1 in [XI_MIN, XI_MAX] and from
    -0.1 in [-XI_MAX, -XI_MIN]; the better optimum is kept, the xi > 0 one
    on a tie.  A sample gives one GevParams, a matrix a list of them.  Raises
    GevFitError (with the best point found) for the first site, in site
    order, whose better optimum did not converge or whose starts both lie
    outside the support; a matrix's error begins "site <j>: ".
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] < GEV_MIN_OBS:
        raise ValueError(f"gev_fit needs samples of at least {GEV_MIN_OBS} points")
    if not np.all(np.isfinite(x)):
        raise ValueError("gev_fit requires finite data")
    cols = x.reshape(x.shape[0], -1)
    k = cols.shape[1]
    sigma0 = np.maximum(math.sqrt(6.0) * np.std(cols, axis=0) / math.pi, 1e-8)
    mu0 = np.mean(cols, axis=0) - 0.5772156649015329 * sigma0
    # columns 0..k-1 start at xi = 0.1, columns k..2k-1 at xi = -0.1
    theta = np.array([np.tile(mu0, 2), np.tile(np.log(sigma0), 2),
                      np.repeat([0.1, -0.1], k)])
    lo, hi = np.repeat([XI_MIN, -XI_MAX], k), np.repeat([XI_MAX, -XI_MIN], k)
    both = np.tile(cols, 2)

    def objective(th, c, derivatives):
        out = _gev_negloglik(th, both[:, c], hessian=derivatives)
        return out if derivatives else out[0]

    with np.errstate(all="ignore"):
        theta, nll, done = newton_columns(
            objective,
            lambda th, grad, hess, c: _gev_newton_step(grad, hess, th[2], lo[c], hi[c]),
            theta, GEV_NEWTON_STEPS)
    best = np.where(nll[k:] < nll[:k], np.arange(k, 2 * k), np.arange(k))
    fits = []
    for j, c in enumerate(best):
        fitted = GevParams(mu=float(theta[0, c]), sigma=float(math.exp(theta[1, c])),
                           xi=float(theta[2, c]))
        if nll[c] >= GEV_BARRIER or not done[c]:
            why = ("both starts lie outside the support" if nll[c] >= GEV_BARRIER
                   else f"no convergence in {GEV_NEWTON_STEPS} Newton steps")
            site = f"site {j}: " if x.ndim == 2 else ""
            raise GevFitError(f"{site}GEV fit did not converge to an admissible "
                              f"optimum: {why}", best=fitted)
        fits.append(fitted)
    return fits if x.ndim == 2 else fits[0]


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
