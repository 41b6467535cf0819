"""Daily-series preprocessing to the Pareto-type scale the model consumes.

Neighborhood-pooled seasonal regression (periodic cubic splines plus a linear
trend), a log-linear variance model fit by exact Gaussian likelihood,
standardization, monthly-maxima extraction, a multinomial likelihood-ratio
goodness-of-fit test against a fitted marginal, and the GEV-based monotone
transformation.  The fits run over every site at once: one QR factorization
of the design, and batched Newton for the variance model and the GEV.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .distributions import GevParams, gev_cdf, gev_fit, newton_columns

EARTH_RADIUS_KM = 6371.0
N_SPLINES = 12
SPLINE_PERIOD = 365.0
DEFAULT_NEIGHBOR_KM = 60.0
GEV_PARAMS = 3                  # mu, sigma, xi: the GOF test's fitted count
# sites whose distances to every site are computed at a time: the haversine
# temporaries take about 48 bytes a pair, so 256 rows at 10^4 sites peak near
# 150 MB, where the whole matrix would take 4.8 GB
NEIGHBOR_ROWS = 256
# fit_variance's Newton steps
VARIANCE_NEWTON_STEPS = 50


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


def calendar_days(start: dt.date, n_days: int) -> np.ndarray:
    """The ``n_days`` consecutive days from ``start`` as datetime64[D];
    OverflowError past year 9999, as date arithmetic raises it."""
    if n_days > 0:
        start + dt.timedelta(days=n_days - 1)       # the OverflowError check
    return np.datetime64(start, "D") + np.arange(n_days)


def day_of_year(days) -> np.ndarray:
    """Day of year in 1..365 of each day (datetime64 or dates); leap days
    fold onto day 59 so the cycle length is constant."""
    days = np.asarray(days, dtype="datetime64[D]")
    year = days.astype("datetime64[Y]")
    doy = (days - year).astype(np.int64) + 1
    y = year.astype(np.int64) + 1970
    leap = (y % 4 == 0) & ((y % 100 != 0) | (y % 400 == 0))
    return (doy - (leap & (doy > 59))).astype(np.float64)


@dataclass(frozen=True)
class DailyCalendar:
    """Consecutive days from ``start`` and the calendar months they touch;
    every site of a run shares one."""

    start: dt.date
    n_days: int
    months: list[tuple[int, int]]   # (year, month) of each month, in order
    month_starts: np.ndarray        # index of each month's first day


def daily_calendar(start: dt.date, n_days: int) -> DailyCalendar:
    """Raises OverflowError past year 9999."""
    # months since year 0: year * 12 + month - 1
    month = (calendar_days(start, n_days).astype("datetime64[M]").astype(np.int64)
             + 1970 * 12)
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

    Column-major, the layout LAPACK factorizes."""
    if n_days < 366:
        raise ValueError("need at least a full year of days")
    day = day_of_year(calendar_days(start, n_days))
    t = np.arange(1, n_days + 1, dtype=np.float64)
    b = cyclic_spline_basis(day)
    matrix = np.asfortranarray(np.column_stack([np.ones(n_days), t, b[:, :-1]]))
    return SeasonalDesign(matrix=matrix, day=day, time_index=t)


# ---------------------------------------------------------------------------
# neighborhoods and the regressions
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


def fit_seasonal(means: np.ndarray, design: SeasonalDesign):
    """OLS of each site's neighbour-mean series on the design.

    Stacking a site's neighbour series on a tiled design gives n times the
    normal equations of their mean on one copy, so each site is fitted on
    its neighbour mean.  ``means`` is (N,), or (N, sites) with one column per
    site; one QR factorization of the design serves every column.  Returns
    (beta, fitted values), with a column per site.  The products are
    einsums, not BLAS calls, so their bits do not depend on the BLAS
    thread count.
    """
    means = np.asarray(means, dtype=np.float64)
    m = design.matrix
    if means.shape[0] != m.shape[0]:
        raise ValueError("design length does not match the series")
    q, r = np.linalg.qr(m)
    if np.linalg.matrix_rank(r) < m.shape[1]:
        raise ValueError("design matrix is rank deficient")
    coef = np.einsum("ti,t...->i...", q, means)
    return np.linalg.solve(r, coef), np.einsum("ti,i...->t...", q, coef)


@dataclass
class VarianceModel:
    """log eps = beta1 + beta2 * t, fitted standard deviations always > 0;
    one model per site, or floats for one."""

    beta1: np.ndarray
    beta2: np.ndarray
    eps_hat: np.ndarray


def _variance_nll(b: np.ndarray, ss: np.ndarray, n, ts: np.ndarray,
                  derivatives: bool = False):
    """Negative log-likelihood, without its constant, of log eps_t =
    b0 + b1 ts_t for n series with per-day sums of squares ss, and with
    ``derivatives`` also its gradient and Hessian.  ``b`` is (2,) with ss
    and ts (N,), or (2, k) with ss (N, k) and ts (N, 1): one model per column.

    sum_t n log eps_t is n (N b0 + b1 sum_t ts_t), and the weights
    w_t = S_t / eps_t^2 are exp(-2 b0) S_t exp(-2 b1 ts_t), so one
    exponential per day and site serves the value and every derivative.
    """
    w = ss * np.exp(-2.0 * b[1] * ts)
    scale = np.exp(-2.0 * b[0])
    s0 = scale * np.sum(w, axis=0)
    nll = n * (ts.shape[0] * b[0] + b[1] * np.sum(ts)) + 0.5 * s0
    if not derivatives:
        return nll
    w = w * ts
    s1 = scale * np.sum(w, axis=0)
    s2 = scale * np.sum(w * ts, axis=0)
    grad = np.array([n * ts.shape[0] - s0, n * np.sum(ts) - s1])
    return nll, grad, 2.0 * np.array([[s0, s1], [s1, s2]])


def _newton_2x2(b, grad, hess, cols):
    """The Newton step of each column and half its Newton decrement."""
    det = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
    step = np.array([hess[0, 1] * grad[1] - hess[1, 1] * grad[0],
                     hess[0, 1] * grad[0] - hess[0, 0] * grad[1]]) / det
    return step, -0.5 * np.sum(grad * step, axis=0)


def fit_variance(sum_sq: np.ndarray, n_series, time_index: np.ndarray) -> VarianceModel:
    """Exact independent-Gaussian MLE of the log-linear variance model, by
    Newton from (log rms residual, 0), every site at once.

    The likelihood sees a site's ``n_series`` residual series only through
    the per-day sum of squares S_t, so
    nll = sum_t (n log eps_t + S_t / (2 eps_t^2)), convex in (b1, b2).
    ``sum_sq`` is (N,) with a count, or (N, sites) with a count per site.
    Raises RuntimeError for the first site, in site order, without a
    positive S_t or whose fit does not converge.
    """
    ss = np.asarray(sum_sq, dtype=np.float64)
    t = np.asarray(time_index, dtype=np.float64)
    if t.ndim != 1 or ss.ndim not in (1, 2) or ss.shape[0] != t.size:
        raise ValueError("sums of squares and time index must align")
    if not np.all(np.isfinite(ss)) or np.any(ss < 0):
        raise ValueError("sums of squares must be finite and >= 0")
    cols = ss.reshape(t.size, -1)
    n = np.broadcast_to(np.asarray(n_series, dtype=np.float64), cols.shape[1:])
    site = "site {}: " if ss.ndim == 2 else ""
    empty = np.flatnonzero(~np.any(cols > 0, axis=0))
    if empty.size:
        raise RuntimeError(f"{site.format(empty[0])}every residual is zero: the "
                           "variance model has no optimum")
    scale = max(1.0, float(np.max(np.abs(t))))
    ts = (t / scale)[:, None]
    b0 = np.array([0.5 * np.log(np.mean(cols, axis=0) / n), np.zeros(cols.shape[1])])
    with np.errstate(all="ignore"):
        b, _, done = newton_columns(
            lambda b, c, derivatives: _variance_nll(b, cols[:, c], n[c], ts, derivatives),
            _newton_2x2, b0, VARIANCE_NEWTON_STEPS)
    if not np.all(done):
        raise RuntimeError(f"{site.format(np.flatnonzero(~done)[0])}variance model "
                           "did not converge")
    beta1, beta2 = b[0], b[1] / scale
    eps_hat = np.exp(beta1 + beta2 * t[:, None])
    return VarianceModel(beta1=beta1.reshape(ss.shape[1:])[()],
                         beta2=beta2.reshape(ss.shape[1:])[()],
                         eps_hat=eps_hat.reshape(ss.shape))


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
    every expected count reaches one; df = bins - 1 - n_params; the p-value
    is chi2_sf(statistic, df).  ``doubled`` applies the classical factor 2.
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
    return GofResult(statistic=statistic, df=df, p_value=chi2_sf(statistic, df),
                     observed=observed, expected=expected)


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X ~ chi-square(df) with df a positive integer.

    The regularized upper incomplete gamma Q(df/2, x/2) as its finite sum:
    with y = x/2, e^-y sum_e y^e / e! over e = i + df % 2 / 2, i < df // 2,
    plus erfc(sqrt y) for odd df.  Its terms are summed in log space, so
    no power or factorial overflows whatever df.  x <= 0, which rounding can
    give a likelihood-ratio statistic, maps to 1; inf to 0 and NaN to NaN.
    """
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    y = 0.5 * x
    log_y = math.log(y)
    logs = [e * log_y - math.lgamma(e + 1.0)
            for e in (i + 0.5 * (df % 2) for i in range(df // 2))]
    total = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    if logs:
        top = max(logs)
        total += math.exp(top - y) * math.fsum(math.exp(v - top) for v in logs)
    return min(total, 1.0)


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


def preprocess_site(site_index: int, maxima: np.ndarray, gev: GevParams,
                    months: list[tuple[int, int]], n_bins: int = 10,
                    doubled: bool = False) -> SitePreprocessResult:
    """One site's GOF test and Pareto transform after the batched fits."""
    gof = chi2_gof(maxima, lambda e: gev_cdf(e, gev, warn_on_clamp=False),
                   n_bins=n_bins, n_params=GEV_PARAMS, doubled=doubled)
    return SitePreprocessResult(months=months, maxima=maxima, gev=gev, gof=gof,
                                transformed=marginal_transform(maxima, gev))


def run_pipeline(daily: np.ndarray, calendar: DailyCalendar,
                 coords_lonlat: np.ndarray, radius_km: float = DEFAULT_NEIGHBOR_KM,
                 n_bins: int = 10, doubled: bool = False) -> list[SitePreprocessResult]:
    """Pooled seasonal fit, variance model, standardization, monthly maxima
    and GEV fit of every site of a (days, sites) matrix at once, then each
    site's GOF test and Pareto transform, in site order.  A site whose
    residual RMS is at most 1e-12 of its fitted series' RMS, or a failing
    fit, raises for its first site, in site order, and names it."""
    daily = np.asarray(daily, dtype=np.float64)
    design = build_design(calendar.n_days, calendar.start)
    nbs = neighborhoods(coords_lonlat, radius_km)
    _, fitted = fit_seasonal(np.column_stack([daily[:, nb].mean(axis=1) for nb in nbs]),
                             design)
    # the variance model depends on (intercept, t) only, so the fitted
    # standard deviations are shared across the pooled neighbours; S_t sums
    # the squares of the neighbours' own residuals from the site's fit
    sum_sq = np.column_stack([np.einsum("ij,ij->i", r, r) for r in
                              (daily[:, nb] - fitted[:, j, None] for j, nb in enumerate(nbs))])
    counts = [len(nb) for nb in nbs]
    # residuals at the rounding of the fit (a constant series) would be
    # scaled up to unit variance and fitted as if they were data
    flat = np.flatnonzero(np.sqrt(np.sum(sum_sq, axis=0) / counts)
                          <= 1e-12 * np.sqrt(np.sum(fitted**2, axis=0)))
    if flat.size:
        raise RuntimeError(f"site {flat[0]}: the residuals from the seasonal fit are "
                           "rounding error: the series is constant")
    var_model = fit_variance(sum_sq, counts, design.time_index)
    months, maxima = monthly_maxima(detrend(daily, fitted, var_model.eps_hat), calendar)
    return [preprocess_site(j, maxima[:, j], gev, months, n_bins, doubled)
            for j, gev in enumerate(gev_fit(maxima))]
