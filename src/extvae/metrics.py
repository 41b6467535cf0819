"""Extremal-dependence and forecast-quality diagnostics.

Threshold-indexed co-exceedance curves (chi) with bootstrap bands, averaged
radius of exceedances (ARE) on regular grids, tail-weighted CRPS with exact
piecewise integration, and Q-Q data.  Chi and ARE are rank-based, hence
invariant under strictly increasing marginal transformations: U = rank_max/n
per column and exceedance is strict, U > u, counted against order-statistic
thresholds from one sort per column and (bootstrap) resample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldsim import pairwise_distances
from .seeds import substream

N_BOOT_DEFAULT = 200
MAX_PAIRS_PER_BIN = 200


def _uniform_scores(fields: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per level u[k], thresholds with ``fields >= thr[k]`` exactly where
    U > u[k], for U = rank_max/n per column (ties share the max rank).

    With r the least integer such that r/n > u in float64, U > u iff
    x >= x_(r), the r-th order statistic, so one sort serves every level.
    NaN where nothing exceeds: u >= 1, or a column holding NaN (NaN ranks).
    """
    n = fields.shape[0]
    r = np.searchsorted(np.arange(1, n + 1) / n, u, side="right")
    s = np.sort(fields, axis=0)
    thr = s[np.minimum(r, n - 1)]
    thr[r == n] = np.nan
    thr[:, np.isnan(s[-1])] = np.nan
    return thr


@dataclass
class ChiCurve:
    u: np.ndarray
    estimate: np.ndarray          # NaN where undefined
    lo95: np.ndarray
    hi95: np.ndarray
    defined: np.ndarray
    n_pairs: int


@dataclass
class AreCurve:
    u: np.ndarray
    estimate: np.ndarray
    lo95: np.ndarray
    hi95: np.ndarray
    defined: np.ndarray


@dataclass
class TwcrpsField:
    scores: np.ndarray            # (n_t, n_sites)
    thresholds: np.ndarray        # the per-cell u90 actually used


# rows of the site-distance matrix computed at a time: 256 x 2500 float64 is
# 5 MB, where the whole 50x50 grid's matrix is 50 MB
DISTANCE_ROWS = 256


def _distance_rows(coords: np.ndarray):
    """(first row, distances from those sites to every site) blocks of the
    site-distance matrix, so the (n, n) matrix is never held at once."""
    for r0 in range(0, len(coords), DISTANCE_ROWS):
        yield r0, pairwise_distances(coords[r0:r0 + DISTANCE_ROWS], coords)


def grid_spacing(coords: np.ndarray) -> float:
    """Smallest nonzero distance between two sites."""
    psi = min(float(np.min(d, where=d > 0, initial=np.inf))
              for _, d in _distance_rows(coords))
    if psi == np.inf:
        raise ValueError("the sites have no nonzero separation")
    return psi


def select_pairs(coords: np.ndarray, distance: float, tol: float,
                 max_pairs: int = MAX_PAIRS_PER_BIN, seed=0) -> np.ndarray:
    """Ordered site pairs whose separation is within tol of the target,
    subsampled to at most ``max_pairs`` (seeded) for cost.

    A target distance of exactly zero selects the self-pairs (i, i), for
    which the co-exceedance probability is identically one.
    """
    n = len(coords)
    if distance == 0.0:
        pairs = np.column_stack([np.arange(n), np.arange(n)])
    else:
        ii, jj = [], []
        for r0, d in _distance_rows(coords):
            upper = np.arange(r0, r0 + len(d))[:, None] < np.arange(n)[None, :]
            i, j = np.nonzero((np.abs(d - distance) <= tol) & upper)
            ii.append(i + r0)
            jj.append(j)
        pairs = np.column_stack([np.concatenate(ii), np.concatenate(jj)])
    if pairs.shape[0] == 0:
        raise ValueError(f"no site pairs at distance {distance} +/- {tol}")
    if pairs.shape[0] > max_pairs:
        keep = substream(seed, "pairs").choice(pairs.shape[0], size=max_pairs,
                                               replace=False)
        pairs = pairs[np.sort(keep)]
    return pairs


def _bootstrap(estimate, fields: np.ndarray, n_boot: int, seed: int):
    """``estimate(fields)`` and its 95% percentile band over ``n_boot``
    resamples of the rows (replicates), widened to contain the estimate."""
    point = estimate(fields)
    boots = np.full((n_boot, point.size), np.nan)
    n_r = fields.shape[0]
    for b in range(n_boot):
        idx = substream(seed, "boot", b).integers(0, n_r, size=n_r)
        boots[b] = estimate(fields[idx])
    return (point, *_percentile_band(boots, point))


def _percentile_band(boots: np.ndarray, point: np.ndarray):
    """95% percentile interval, widened to contain the point estimate."""
    with np.errstate(all="ignore"):
        valid = np.any(~np.isnan(boots), axis=0)
        lo = np.full(point.shape, np.nan)
        hi = np.full(point.shape, np.nan)
        lo[valid] = np.nanpercentile(boots[:, valid], 2.5, axis=0)
        hi[valid] = np.nanpercentile(boots[:, valid], 97.5, axis=0)
    lo = np.fmin(lo, point)
    hi = np.fmax(hi, point)
    return lo, hi


def _chi_estimate(sub: np.ndarray, pairs_local: np.ndarray,
                  u_grid: np.ndarray) -> np.ndarray:
    """Mean over pairs of #(both exceed)/#(conditioning exceeds)."""
    out = np.full(u_grid.size, np.nan)
    thr = _uniform_scores(sub, u_grid)
    for k in range(u_grid.size):
        ex = sub >= thr[k]                                     # (n_r, n_sel)
        first = ex[:, pairs_local[:, 0]]
        den = first.sum(axis=0).astype(float)
        num = (first & ex[:, pairs_local[:, 1]]).sum(axis=0)
        ok = den > 0
        if np.any(ok):
            out[k] = float(np.mean(num[ok] / den[ok]))
    return out


def chi_curve(fields: np.ndarray, pairs: np.ndarray, u: np.ndarray,
              n_boot: int = N_BOOT_DEFAULT, seed: int = 0) -> ChiCurve:
    """Empirical co-exceedance probability over site pairs, e.g. the
    :func:`select_pairs` result for one spatial lag.

    ``fields`` is (replicates, sites); time plays the replicate role.  Each
    margin is rank-transformed, and the conditional exceedance ratio of every
    pair is averaged.  Bootstrap resamples replicates (200 by default) and
    re-ranks within each resample; the percentile band is widened, if needed,
    to contain the point estimate.
    """
    fields = np.asarray(fields, dtype=np.float64)
    if fields.ndim != 2 or fields.shape[0] < 2:
        raise ValueError("fields must be (replicates >= 2, sites)")
    u = np.asarray(u, dtype=np.float64)
    sel = np.unique(pairs)
    pairs_local = np.searchsorted(sel, pairs)
    sub = fields[:, sel]

    point, lo, hi = _bootstrap(lambda f: _chi_estimate(f, pairs_local, u),
                               sub, n_boot, seed)
    return ChiCurve(u=u, estimate=point, lo95=lo, hi95=hi,
                    defined=~np.isnan(point), n_pairs=pairs.shape[0])


def _are_estimate(fields: np.ndarray, ref: int, psi: float,
                  u_grid: np.ndarray) -> np.ndarray:
    out = np.full(u_grid.size, np.nan)
    thr = _uniform_scores(fields, u_grid)
    for k in range(u_grid.size):
        ref_ex = fields[:, ref] >= thr[k, ref]                 # (n_r,)
        den = float(np.count_nonzero(ref_ex))
        if den == 0:
            continue
        # only rows where the reference exceeds can contribute
        num = float(np.count_nonzero(fields[ref_ex] >= thr[k]))
        out[k] = math.sqrt(psi**2 * num / (math.pi * den))
    return out


def are_curve(
    fields: np.ndarray,
    psi: float,
    ref_index: int,
    u: np.ndarray,
    n_boot: int = N_BOOT_DEFAULT,
    seed: int = 0,
) -> AreCurve:
    """Averaged radius of exceedances around a reference cell.

    ARE(u) = sqrt(psi^2 * sum_r sum_i 1{U_ir > u, U_0r > u}
                  / (pi * sum_r 1{U_0r > u})), with U the per-cell empirical
    CDF values.  Points where the reference never exceeds are omitted and
    flagged.
    """
    fields = np.asarray(fields, dtype=np.float64)
    if fields.ndim != 2:
        raise ValueError("fields must be (replicates, cells)")
    u = np.asarray(u, dtype=np.float64)
    point, lo, hi = _bootstrap(lambda f: _are_estimate(f, ref_index, psi, u),
                               fields, n_boot, seed)
    return AreCurve(u=u, estimate=point, lo95=lo, hi95=hi,
                    defined=~np.isnan(point))


# ---------------------------------------------------------------------------
# tail-weighted CRPS
# ---------------------------------------------------------------------------

# breakpoints (members plus observation) scored at a time by twcrps_field:
# 2^18 float64 is 2 MB, and a block's few temporaries stay near 10 MB
TWCRPS_VALUES = 1 << 18


def twcrps_field(samples: np.ndarray, obs: np.ndarray,
                 threshold: float | None = None) -> TwcrpsField:
    """Integral of (F_hat(z) - 1{z >= obs})^2 above the threshold, for every
    (time, site) cell of an ensemble (time, site, sample).

    F_hat is each cell's right-continuous empirical CDF.  The integral is
    exact: the members and the observation, sorted together, are the
    breakpoints b_0 <= ... <= b_n, and on [b_i, b_{i+1}) F_hat is
    (i + 1 - 1{b_i >= obs}) / n.  ``threshold=None`` uses each cell's
    nearest-rank 90th percentile, its ceil(0.9 n)-th smallest member;
    ``-inf`` gives the unweighted score.  Time rows are scored in blocks of
    about ``TWCRPS_VALUES`` breakpoints, which bounds the scratch memory.
    """
    samples = np.asarray(samples, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    n_t, n_s, n = samples.shape
    if n < 1 or obs.shape != (n_t, n_s):
        raise ValueError("observation matrix must match a nonempty ensemble layout")
    scores = np.empty((n_t, n_s))
    thresholds = np.empty((n_t, n_s))
    count = np.arange(1, n + 1)
    rows = max(1, TWCRPS_VALUES // max(n_s * (n + 1), 1))
    for r0 in range(0, n_t, rows):
        s = np.sort(samples[r0:r0 + rows], axis=2)
        thr = thresholds[r0:r0 + rows]
        thr[...] = s[..., math.ceil(0.9 * n) - 1] if threshold is None else threshold
        y = obs[r0:r0 + rows, :, None]
        b = np.concatenate([s, y], axis=2)
        del s
        b.sort(axis=2)
        ind = b[..., :-1] >= y
        width = b[..., 1:] - np.maximum(b[..., :-1], thr[..., None])
        np.maximum(width, 0.0, out=width)
        del b
        f = (count - ind) / n
        f -= ind
        f *= f
        f *= width
        np.sum(f, axis=2, out=scores[r0:r0 + rows])
    return TwcrpsField(scores=scores, thresholds=thresholds)


def qq_data(obs: np.ndarray, ensemble: np.ndarray,
            q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Paired empirical quantiles of observations and emulations."""
    obs = np.asarray(obs, dtype=np.float64).ravel()
    ens = np.asarray(ensemble, dtype=np.float64).ravel()
    if obs.size == 0 or ens.size == 0:
        raise ValueError("both samples must be nonempty")
    q = np.asarray(q, dtype=np.float64)
    return np.quantile(obs, q), np.quantile(ens, q)
