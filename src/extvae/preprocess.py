"""Daily-series preprocessing to the Pareto-type scale the model consumes.

Neighborhood-pooled seasonal regression (periodic cubic splines plus a linear
trend), a log-linear variance model fit by exact Gaussian likelihood,
standardization, monthly-maxima extraction, a multinomial likelihood-ratio
goodness-of-fit test against a fitted marginal, and the GEV-based monotone
transformation.
"""

from __future__ import annotations

import datetime as dt
import math
import pickle
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import GevParams, gev_cdf, gev_fit
from .workers import Workers, block_edges

EARTH_RADIUS_KM = 6371.0
N_SPLINES = 12
SPLINE_PERIOD = 365.0
DEFAULT_NEIGHBOR_KM = 60.0
GEV_PARAMS = 3                  # mu, sigma, xi: the GOF test's fitted count
# sites whose distances to every site are computed at a time: the haversine
# temporaries take about 48 bytes a pair, so 256 rows at 10^4 sites peak near
# 150 MB, where the whole matrix would take 4.8 GB
NEIGHBOR_ROWS = 256
# the fewest sites a worker takes: a site costs about 5 ms at 4,018 days, a
# fork about 7 ms; 2 blocks of 4 sites gained nothing on 1, 2 of 8 did
BLOCK_SITES = 8


# ---------------------------------------------------------------------------
# periodic spline design
# ---------------------------------------------------------------------------

def _cardinal_cubic(u: np.ndarray) -> np.ndarray:
    """The C2 cardinal cubic B-spline supported on [0, 4]."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    m = (u >= 0) & (u < 1)
    out[m] = u[m] ** 3 / 6.0
    m = (u >= 1) & (u < 2)
    out[m] = (-3.0 * u[m] ** 3 + 12.0 * u[m] ** 2 - 12.0 * u[m] + 4.0) / 6.0
    m = (u >= 2) & (u < 3)
    out[m] = (3.0 * u[m] ** 3 - 24.0 * u[m] ** 2 + 60.0 * u[m] - 44.0) / 6.0
    m = (u >= 3) & (u < 4)
    out[m] = (4.0 - u[m]) ** 3 / 6.0
    return out


def cyclic_spline_basis(day: np.ndarray) -> np.ndarray:
    """``N_SPLINES`` periodic cubic B-spline columns over the day of year.

    Evenly spaced knots; each column is a wrapped cardinal B-spline, so the
    value and the first two derivatives match across the year boundary and the
    columns sum to one (partition of unity).
    """
    day = np.asarray(day, dtype=np.float64)
    h = SPLINE_PERIOD / N_SPLINES
    pos = np.mod(day - 1.0, SPLINE_PERIOD)
    cols = []
    for k in range(N_SPLINES):
        v = np.mod(pos - k * h, SPLINE_PERIOD) / h
        cols.append(_cardinal_cubic(v))
    return np.column_stack(cols)


def day_of_year(dates) -> np.ndarray:
    """Day of year in 1..365; leap days fold onto day 59 so the cycle length
    is constant."""
    out = np.empty(len(dates), dtype=np.float64)
    for i, d in enumerate(dates):
        doy = d.timetuple().tm_yday
        if d.year % 4 == 0 and (d.year % 100 != 0 or d.year % 400 == 0) and doy > 59:
            doy -= 1
        out[i] = doy
    return out


def daterange(start: dt.date, n_days: int) -> list[dt.date]:
    return [start + dt.timedelta(days=i) for i in range(n_days)]


@dataclass(frozen=True)
class DailyCalendar:
    """Consecutive days from ``start`` and the calendar months they touch;
    every site of a run shares one."""

    start: dt.date
    n_days: int
    months: list[tuple[int, int]]   # (year, month) of each month, in order
    month_starts: np.ndarray        # index of each month's first day


def daily_calendar(start: dt.date, n_days: int) -> DailyCalendar:
    """Scans the days once; raises OverflowError past year 9999."""
    month = np.fromiter((d.year * 12 + d.month - 1 for d in daterange(start, n_days)),
                        dtype=np.int64, count=n_days)
    starts = np.flatnonzero(np.diff(month, prepend=month[:1] - 1))
    first = month[starts]
    return DailyCalendar(start=start, n_days=n_days,
                         months=list(zip((first // 12).tolist(),
                                         (first % 12 + 1).tolist())),
                         month_starts=starts)


@dataclass
class SeasonalDesign:
    """Intercept, linear time, and all periodic spline columns but the last.

    The spline columns sum to one, which is collinear with the intercept, so
    the last one is left out and the matrix has full column rank.
    """

    matrix: np.ndarray              # (N, 1 + N_SPLINES), column-major
    day: np.ndarray
    time_index: np.ndarray


def build_design(n_days: int, start: dt.date) -> SeasonalDesign:
    """Design matrix for the seasonal regression over a daily calendar.

    Column-major: ``fit_seasonal``'s ``matrix @ beta`` rounds differently on
    a row-major copy of the same values."""
    if n_days < 366:
        raise ValueError("need at least a full year of days")
    dates = daterange(start, n_days)
    day = day_of_year(dates)
    t = np.arange(1, n_days + 1, dtype=np.float64)
    b = cyclic_spline_basis(day)
    matrix = np.asfortranarray(np.column_stack([np.ones(n_days), t, b[:, :-1]]))
    return SeasonalDesign(matrix=matrix, day=day, time_index=t)


# ---------------------------------------------------------------------------
# neighborhoods and the per-site regressions
# ---------------------------------------------------------------------------

def haversine_km(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle distances between (lon, lat) arrays, in km."""
    a = np.radians(np.atleast_2d(np.asarray(a, dtype=np.float64)))
    b = np.radians(np.atleast_2d(np.asarray(b, dtype=np.float64)))
    dlon = a[:, None, 0] - b[None, :, 0]
    dlat = a[:, None, 1] - b[None, :, 1]
    h = (np.sin(dlat / 2.0) ** 2
         + np.cos(a[:, None, 1]) * np.cos(b[None, :, 1]) * np.sin(dlon / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def neighborhoods(coords_lonlat: np.ndarray,
                  radius_km: float = DEFAULT_NEIGHBOR_KM) -> list[np.ndarray]:
    """Per-site index sets {i : dist(s_i, s_j) < r}; always contain the site.

    Distances are taken ``NEIGHBOR_ROWS`` sites at a time, so the (n, n)
    matrix is never held at once."""
    coords = np.atleast_2d(np.asarray(coords_lonlat, dtype=np.float64))
    out = []
    for r0 in range(0, len(coords), NEIGHBOR_ROWS):
        d = haversine_km(coords[r0:r0 + NEIGHBOR_ROWS], coords)
        d[np.arange(len(d)), r0 + np.arange(len(d))] = 0.0
        out.extend(np.where(row < radius_km)[0] for row in d)
    return out


def fit_seasonal(responses: np.ndarray, design: SeasonalDesign):
    """OLS of the stacked neighborhood series on the (stacked) design.

    ``responses`` is (n_neighbors, N). The stacked normal equations are
    n_neighbors times those of the neighbor mean on one copy of the design, so
    the fit solves the latter. Returns (beta, fitted values over one calendar,
    per-series residuals).
    """
    responses = np.atleast_2d(np.asarray(responses, dtype=np.float64))
    m = design.matrix
    if m.shape[0] != responses.shape[1]:
        raise ValueError("design length does not match the series")
    beta, _, rank, _ = np.linalg.lstsq(m, responses.mean(axis=0), rcond=None)
    if rank < m.shape[1]:
        raise ValueError("design matrix is rank deficient")
    fitted = m @ beta
    residuals = responses - fitted
    return beta, fitted, residuals


@dataclass
class VarianceModel:
    """log eps = beta1 + beta2 * t, fitted standard deviations always > 0."""

    beta1: float
    beta2: float
    eps_hat: np.ndarray


def _variance_nll(b: np.ndarray, ss: np.ndarray, n: int,
                  ts: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative log-likelihood, without its constant, and gradient of
    log eps_t = b0 + b1 ts_t for n series with per-day sums of squares ss."""
    log_eps = b[0] + b[1] * ts
    w = ss * np.exp(-2.0 * log_eps)
    nll = float(np.sum(n * log_eps + 0.5 * w))
    d = n - w
    return nll, np.array([np.sum(d), np.sum(d * ts)])


def fit_variance(residuals: np.ndarray, time_index: np.ndarray) -> VarianceModel:
    """Exact independent-Gaussian MLE of the log-linear variance model,
    quasi-Newton from (log sd(residuals), 0).

    ``residuals`` is (n_series, N), or (N,) for one series, all sharing the
    (N,) ``time_index``. The likelihood sees the residuals only through the
    per-day sum of squares S_t, so nll = sum_t (n log eps_t + S_t / (2 eps_t^2)).
    """
    r = np.atleast_2d(np.asarray(residuals, dtype=np.float64))
    t = np.asarray(time_index, dtype=np.float64)
    if r.ndim != 2 or t.shape != r.shape[1:]:
        raise ValueError("residuals and time index must align")
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals must be finite")
    from scipy.optimize import minimize
    scale = max(1.0, float(np.max(np.abs(t))))
    sd0 = float(np.std(r))
    x0 = np.array([math.log(max(sd0, 1e-12)), 0.0])
    res = minimize(_variance_nll, x0=x0, jac=True, method="L-BFGS-B",
                   args=(np.einsum("ij,ij->j", r, r), r.shape[0], t / scale))
    if not res.success:
        raise RuntimeError(f"variance model did not converge: {res.message}")
    beta1 = float(res.x[0])
    beta2 = float(res.x[1] / scale)
    eps_hat = np.exp(beta1 + beta2 * t)
    return VarianceModel(beta1=beta1, beta2=beta2, eps_hat=eps_hat)


def detrend(x: np.ndarray, fitted: np.ndarray, eps_hat: np.ndarray) -> np.ndarray:
    """(x - fitted) / eps_hat, elementwise."""
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if np.any(eps_hat <= 0):
        raise ValueError("fitted standard deviations must be positive")
    return (np.asarray(x, dtype=np.float64) - np.asarray(fitted, dtype=np.float64)) / eps_hat


def monthly_maxima(values: np.ndarray,
                   calendar: DailyCalendar) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Maximum within each calendar month of the daily values. A tie between
    -0.0 and +0.0 may keep either zero."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) != calendar.n_days:
        raise ValueError("values and calendar days must align")
    return calendar.months, np.maximum.reduceat(values, calendar.month_starts)


# ---------------------------------------------------------------------------
# goodness of fit and the marginal transform
# ---------------------------------------------------------------------------

@dataclass
class GofResult:
    statistic: float
    df: int
    p_value: float
    observed: np.ndarray
    expected: np.ndarray


def chi2_gof(maxima: np.ndarray, cdf, n_bins: int = 10, n_params: int = 3,
             doubled: bool = False) -> GofResult:
    """Multinomial likelihood-ratio statistic sum O_i log(O_i / E_i).

    Bins are equal-width over the sample range; adjacent bins are merged until
    every expected count reaches one.  Degrees of freedom are
    (bins - 1 - n_params); the p-value comes from the chi-square survival
    function.  ``doubled`` applies the classical factor 2.
    """
    m = np.asarray(maxima, dtype=np.float64)
    if n_bins <= n_params + 1:
        raise ValueError("need more bins than fitted parameters plus one")
    edges = np.linspace(m.min(), m.max(), n_bins + 1)
    observed, _ = np.histogram(m, bins=edges)
    probs = np.diff(np.asarray(cdf(edges), dtype=np.float64))
    expected = m.size * probs

    observed = list(observed.astype(float))
    expected = list(expected)
    while len(expected) > n_params + 2 and min(expected) < 1.0:
        i = int(np.argmin(expected))
        j = i - 1 if i > 0 else i + 1
        lo, hi = min(i, j), max(i, j)
        observed[lo] += observed[hi]
        expected[lo] += expected[hi]
        del observed[hi], expected[hi]
    observed = np.asarray(observed)
    expected = np.asarray(expected)
    if np.any(expected <= 0):
        raise ValueError("expected count of zero; use fewer bins")

    nonzero = observed > 0
    statistic = float(np.sum(observed[nonzero] * np.log(observed[nonzero] / expected[nonzero])))
    if doubled:
        statistic *= 2.0
    df = len(expected) - 1 - n_params
    if df < 1:
        raise ValueError("not enough bins left for the test; use fewer parameters")
    from scipy.stats import chi2
    return GofResult(statistic=statistic, df=df,
                     p_value=float(chi2.sf(statistic, df)),
                     observed=observed, expected=expected)


def gev_bound(g: GevParams) -> float:
    """The finite endpoint mu - sigma/xi (lower for xi>0, upper for xi<0)."""
    return g.mu - g.sigma / g.xi


def marginal_transform(m: np.ndarray, g: GevParams) -> np.ndarray:
    """Monotone map of GEV monthly maxima to the Pareto-type scale.

    For xi > 0: x = ((m - bound) * xi / sigma)^(1/xi); for xi < 0:
    x = (sigma / ((bound - m) * |xi|))^(1/|xi|).  Composing with the GEV CDF
    of the same parameters gives exp(-1/x), so ranks are preserved exactly.
    """
    m = np.asarray(m, dtype=np.float64)
    bound = gev_bound(g)
    if g.xi > 0:
        bad = m <= bound
        if np.any(bad):
            raise ValueError(
                f"value(s) at positions {np.where(bad)[0].tolist()} lie at or "
                f"below the GEV bound {bound:.6g}")
        return ((m - bound) * g.xi / g.sigma) ** (1.0 / g.xi)
    bad = m >= bound
    if np.any(bad):
        raise ValueError(
            f"value(s) at positions {np.where(bad)[0].tolist()} lie at or "
            f"above the GEV bound {bound:.6g}")
    return (g.sigma / ((bound - m) * abs(g.xi))) ** (1.0 / abs(g.xi))


# ---------------------------------------------------------------------------
# whole pipeline (one call per dataset)
# ---------------------------------------------------------------------------

@dataclass
class SitePreprocessResult:
    months: list[tuple[int, int]]
    maxima: np.ndarray
    gev: GevParams
    gof: GofResult
    transformed: np.ndarray


def preprocess_site(
    site_index: int,
    daily: np.ndarray,
    calendar: DailyCalendar,
    design: SeasonalDesign,
    neighbor_sets: list[np.ndarray],
    n_bins: int = 10,
    doubled: bool = False,
) -> SitePreprocessResult:
    """Full pipeline for one site: pooled seasonal fit, variance model,
    standardization, monthly maxima, GEV fit + GOF, Pareto transform."""
    nb = neighbor_sets[site_index]
    _, fitted, residuals = fit_seasonal(daily[:, nb].T, design)
    # the variance model depends on (intercept, t) only, so the fitted
    # standard deviations are shared across the pooled neighbors
    var_model = fit_variance(residuals, design.time_index)
    detrended = detrend(daily[:, site_index], fitted, var_model.eps_hat)
    months, maxima = monthly_maxima(detrended, calendar)
    gev = gev_fit(maxima)
    gof = chi2_gof(maxima, lambda e: gev_cdf(e, gev, warn_on_clamp=False),
                   n_bins=n_bins, n_params=GEV_PARAMS, doubled=doubled)
    transformed = marginal_transform(maxima, gev)
    return SitePreprocessResult(months=months, maxima=maxima, gev=gev, gof=gof,
                                transformed=transformed)


def _pickled(work, *args) -> list[bytes]:
    """The result, pickled; raises if the work warned, for the parent to redo."""
    with warnings.catch_warnings(record=True) as caught:
        result = work(*args)
    if caught:
        raise RuntimeError("the block warned")
    return [pickle.dumps(result)]


def run_pipeline(daily: np.ndarray, calendar: DailyCalendar,
                 coords_lonlat: np.ndarray, radius_km: float = DEFAULT_NEIGHBOR_KM,
                 n_bins: int = 10, doubled: bool = False) -> list[SitePreprocessResult]:
    """Per-site pipelines over a (days, sites) matrix, in blocks of at least
    BLOCK_SITES sites on the usable CPUs.  A block that raises or warns in a
    worker is redone in the parent, so errors and warnings are the loop's."""
    daily = np.asarray(daily, dtype=np.float64)
    design = build_design(calendar.n_days, calendar.start)
    nbs = neighborhoods(coords_lonlat, radius_km)

    def block(lo: int, hi: int) -> list[SitePreprocessResult]:
        return [preprocess_site(j, daily, calendar, design, nbs, n_bins, doubled)
                for j in range(lo, hi)]

    # the fits' scipy modules load here, once, so that the forked workers
    # inherit them instead of each importing them again
    import scipy.optimize  # noqa: F401
    import scipy.stats  # noqa: F401

    edges = block_edges(daily.shape[1], daily.shape[1], BLOCK_SITES)
    with Workers("a site-block worker") as workers:
        pids = [workers.start(_pickled, block, lo, hi)
                for lo, hi in zip(edges[1:], edges[2:])]
        results = block(0, edges[1])
        for pid, lo, hi in zip(pids, edges[1:], edges[2:]):
            data = b"".join(workers.chunks(pid))
            results += pickle.loads(data) if workers.reap(pid) else block(lo, hi)
    return results
