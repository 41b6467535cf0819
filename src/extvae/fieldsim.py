"""Spatial layout, basis construction, and synthetic data generation.

Builds the site/knot geometry, the compactly supported Wendland weight matrix,
condition-indexed tilting fields, and full synthetic datasets drawn from the
latent-factor model (tilted-stable factors, linear basis mixing, multiplicative
log-Laplace noise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    LogLaplaceParams,
    expps_sample_field,
    loglaplace_sample,
)
from .seeds import substream


@dataclass(frozen=True)
class SpatialGrid:
    """Site coordinates, with regular-grid metadata when applicable."""

    sites: np.ndarray            # (n_sites, 2)
    rows: int | None = None
    cols: int | None = None
    cell: float | None = None    # side length of a grid unit

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=np.float64)
        if sites.ndim != 2 or sites.shape[1] != 2 or not np.all(np.isfinite(sites)):
            raise ValueError("sites must be a finite (n, 2) array")
        if len(np.unique(sites, axis=0)) != len(sites):
            raise ValueError("site coordinates must be unique")
        if self.rows is not None and self.cols is not None:
            if self.rows * self.cols != len(sites):
                raise ValueError("rows*cols must equal the number of sites")
        object.__setattr__(self, "sites", sites)

    @property
    def n_sites(self) -> int:
        return len(self.sites)


def regular_grid(rows: int, cols: int, extent: float = 20.0) -> SpatialGrid:
    """rows x cols grid of cell centers spanning [0, extent]^2."""
    xs = np.linspace(0.0, extent, cols)
    ys = np.linspace(0.0, extent, rows)
    gx, gy = np.meshgrid(xs, ys)
    sites = np.column_stack([gx.ravel(), gy.ravel()])
    cell = extent / (cols - 1) if cols > 1 else extent
    return SpatialGrid(sites=sites, rows=rows, cols=cols, cell=cell)


def knot_lattice(side: int, extent: float = 20.0) -> np.ndarray:
    """side x side knot coordinates spanning [0, extent]^2."""
    if side < 1:
        raise ValueError("side must be >= 1")
    xs = np.linspace(0.0, extent, side) if side > 1 else np.array([extent / 2.0])
    gx, gy = np.meshgrid(xs, xs)
    knots = np.column_stack([gx.ravel(), gy.ravel()])
    return knots


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and b, summed one coordinate
    at a time in one (n, m) scratch array (no (n, m, dim) temporary)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(sq)
    for k in range(a.shape[1]):
        np.subtract(a[:, k, None], b[None, :, k], out=diff)
        sq += np.multiply(diff, diff, out=diff)
    return np.sqrt(sq, out=sq)


def wendland_basis(sites: np.ndarray, knots: np.ndarray, radius: float) -> np.ndarray:
    """Wendland C2 weights (1 - d/r)^4_+ (4 d/r + 1), one column per knot.

    Raises when some site is farther than ``radius`` from every knot: such a
    row would be all zero and the mixed field could vanish there.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    knots = np.asarray(knots, dtype=np.float64)
    if len(np.unique(knots, axis=0)) != len(knots):
        raise ValueError("knots must be distinct")
    d = pairwise_distances(sites, knots) / radius
    # the power is taken only inside the radius, where the weight is positive
    inside = d < 1.0
    di = d[inside]
    w = np.zeros_like(d)
    w[inside] = (1.0 - di) ** 4 * (4.0 * di + 1.0)
    dead = ~np.any(inside, axis=1)
    if np.any(dead):
        raise ValueError(
            f"{int(np.sum(dead))} site(s) have no knot within radius {radius}; "
            "increase the radius or add knots"
        )
    return w


def simulate_theta(
    c: np.ndarray,
    knots: np.ndarray,
    gamma: float = 2.0,
    b: float = 2.0,
    tau: float = 15.0,
    anchors: tuple = ((0.0, 20.0), (20.0, 0.0)),
) -> np.ndarray:
    """Condition-indexed tilting field from a moving powered-exponential kernel.

    The kernel center interpolates between the two anchors with the condition:
    l_t = c_t * anchor1 + (1 - c_t) * anchor2, and
    theta_kt = gamma * exp(-(|knot_k - l_t| / tau)^b), so values lie in
    (0, gamma].
    """
    c = np.asarray(c, dtype=np.float64)
    if np.any(c < 0) or np.any(c > 1):
        raise ValueError("condition values must lie in [0, 1]")
    d = pairwise_distances(kernel_center(c[:, None], anchors), knots)   # (T, K)
    return gamma * np.exp(-((d / tau) ** b))


def kernel_center(c: float, anchors: tuple = ((0.0, 20.0), (20.0, 0.0))) -> np.ndarray:
    """Kernel center for condition c: where simulate_theta peaks at gamma."""
    a1 = np.asarray(anchors[0], dtype=np.float64)
    a2 = np.asarray(anchors[1], dtype=np.float64)
    return c * a1 + (1.0 - c) * a2


def simulate_dataset(
    theta: np.ndarray,
    w: np.ndarray,
    alpha0: float,
    seed,
    return_latent: bool = False,
):
    """Draw fields from the generative model.

    Per time step: latent factors Z_k ~ expPS(1/2, theta_kt) independently
    across knots, de-noised field Y = W Z, observed field X = eps * Y with
    i.i.d. log-Laplace(0, 1/alpha0) noise eps.  Per-time substreams make the
    result independent of scheduling.
    """
    theta = np.asarray(theta, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 0) or np.any(~np.any(w > 0, axis=1)):
        raise ValueError("weight matrix must be nonnegative with positive rows")
    n_t, n_knots = theta.shape
    if w.shape[1] != n_knots:
        raise ValueError("weight matrix and theta disagree on the knot count")

    z = np.empty((n_t, n_knots))
    for t in range(n_t):
        z[t] = expps_sample_field(theta[t], substream(seed, "latent", t))
    y = z @ w.T
    noise = np.empty_like(y)
    n_s = w.shape[0]
    for t in range(n_t):
        noise[t] = loglaplace_sample(
            LogLaplaceParams(alpha0), n_s, substream(seed, "noise", t)
        )
    x = noise * y
    if return_latent:
        return x, z
    return x


def smooth_condition(raw: np.ndarray, window: int = 5) -> np.ndarray:
    """Centered moving average, then min-max normalization to [0, 1].

    Edges average over the shrunken window that fits in the series.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size < window:
        raise ValueError(f"series must be 1-D with length >= {window}")
    if not np.all(np.isfinite(raw)):
        raise ValueError("series must be finite")
    half = window // 2
    n = raw.size
    smoothed = np.empty(n)
    for t in range(n):
        lo = max(0, t - half)
        hi = min(n, t + half + 1)
        smoothed[t] = raw[lo:hi].mean()
    lo, hi = smoothed.min(), smoothed.max()
    if hi == lo:
        raise ValueError("cannot normalize a constant series")
    return (smoothed - lo) / (hi - lo)


def synthetic_condition(n_t: int, seed) -> np.ndarray:
    """Raw oscillation-like index: slow and fast sinusoids plus mild noise.

    Passed through :func:`smooth_condition` it yields a [0, 1] series with
    well-separated high, neutral, and low regimes.
    """
    rng = substream(seed, "condition")
    t = np.arange(n_t, dtype=np.float64)
    series = (
        np.sin(2.0 * np.pi * t / 48.0)
        + 0.4 * np.sin(2.0 * np.pi * t / 11.0 + 0.8)
        + 0.25 * rng.standard_normal(n_t)
    )
    return series
