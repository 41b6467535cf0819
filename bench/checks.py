"""Correctness checks, computed apart from the program where they can be.

Files are read with numpy's own parser rather than the CLI readers, and
every expected value comes from a formula or a property the method must
have, never from a stored copy of an earlier output.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_wide(path: str) -> np.ndarray:
    """Wide CSV (index column, then one column per site) without the index."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))[:, 1:]


def read_series(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


def read_coords(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:3]


def read_long_ensemble(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Long CSV (time_index, site_id, sample_index, value, scenario) of one
    scenario -> (time, site, sample) array and the site ids."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3), ndmin=2)
    t = rows[:, 0].astype(np.intp)
    sites, j = np.unique(rows[:, 1].astype(np.intp), return_inverse=True)
    s = rows[:, 2].astype(np.intp)
    out = np.full((t.max() + 1, sites.size, s.max() + 1), np.nan)
    out[t, j, s] = rows[:, 3]
    require(not np.any(np.isnan(out)), f"{path}: missing ensemble cells")
    return out, sites


def read_curve(path: str, u: float) -> float:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    hit = np.flatnonzero(rows[:, 0] == u)
    require(hit.size == 1, f"{path}: no row for u = {u}")
    return float(rows[hit[0], 1])


def read_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def loss_history(report_csv: str, decreasing: bool = True) -> None:
    hist = np.loadtxt(report_csv, delimiter=",", skiprows=1, ndmin=2)[:, 1]
    require(hist.size >= 1 and bool(np.all(np.isfinite(hist))),
            "loss history is empty or not finite")
    if not decreasing:
        return
    tenth = max(1, hist.size // 10)
    first, last = hist[:tenth].mean(), hist[-tenth:].mean()
    require(last < first, f"mean loss over the last tenth {last:.6g} is not "
                          f"below the first tenth {first:.6g}")


def gradient_agrees(loss, pv, value_and_gradient, plain_view, seed: int,
                    n_coords: int = 24, tol: float = 1e-4) -> str:
    """Central differences of the plain-numpy objective against the tape
    gradient on seeded coordinates, until ``n_coords`` have been compared.

    A coordinate whose left and right one-sided slopes disagree by more than
    ``tol`` straddles a kink of an absolute value and is skipped; a wrong
    analytic gradient cannot make a coordinate skip, since the test reads
    only function values.  At most three coordinates in four may be skipped.
    """
    _, grad = value_and_gradient(loss, pv)
    base = pv.data
    f0 = float(loss(plain_view(pv)))
    floor = 1e-6 * max(1.0, float(np.max(np.abs(grad))))
    order = np.random.default_rng([seed, 101]).permutation(base.size)[: 4 * n_coords]
    compared, worst = 0, 0.0
    for tried, i in enumerate(order, start=1):
        h = 1e-5 * max(1.0, abs(base[i]))
        f = []
        for sign in (-1.0, 1.0):
            p = base.copy()
            p[i] += sign * h
            f.append(float(loss(plain_view(pv.replace(p)))))
        central = (f[1] - f[0]) / (2.0 * h)
        den = max(abs(grad[i]), abs(central), floor)
        rel = abs(grad[i] - central) / den
        if rel <= tol:
            compared += 1
            worst = max(worst, rel)
            if compared == n_coords:
                return f"{compared}/{tried} coordinates compared, max rel err {worst:.1e}"
            continue
        kink = abs((f[1] - f0) / h - (f0 - f[0]) / h) / den > tol
        require(kink, f"gradient of {pv.locate(int(i))} is {grad[i]:.9g}, "
                      f"central difference {central:.9g} (rel {rel:.2e})")
    raise CheckFailed(f"only {compared} of {order.size} coordinates were smooth "
                      "enough to compare")


def checkpoint_roundtrip(path: str, load, save, scratch: str) -> None:
    """Parameters decoded straight from the JSON equal the loaded ones bit
    for bit, and survive a save/load cycle unchanged."""
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)["params"]
    raw = np.frombuffer(base64.b64decode(blob["data"]), dtype="<f8")
    model = load(path)
    require(model.params.data.tobytes() == raw.tobytes(),
            "loaded parameters differ from the checkpoint payload")
    save(scratch, model)
    again = load(scratch)
    require(again.params.data.tobytes() == raw.tobytes(),
            "parameters changed over a save/load cycle")


# ---------------------------------------------------------------------------
# generative model
# ---------------------------------------------------------------------------

def latent_laplace_transform(z: np.ndarray, theta: np.ndarray) -> str:
    """E exp(-sZ) = exp(sqrt(theta) - sqrt(theta + s)) for Z ~ expPS(1/2, theta);
    each s is held to five standard errors of the Monte-Carlo mean."""
    out = []
    for s in (0.25, 1.0, 4.0):
        d = np.exp(-s * z) - np.exp(np.sqrt(theta) - np.sqrt(theta + s))
        se = d.std() / math.sqrt(d.size)
        require(abs(d.mean()) <= 5.0 * se,
                f"Laplace transform at s={s}: mean gap {d.mean():.3e}, se {se:.1e}")
        out.append(f"s={s}: {d.mean() / se:+.2f} se")
    return ", ".join(out)


def wendland(sites: np.ndarray, knots: np.ndarray, radius: float) -> np.ndarray:
    d = np.sqrt(((sites[:, None, :] - knots[None, :, :]) ** 2).sum(axis=2)) / radius
    return np.where(d < 1.0, (1.0 - d) ** 4 * (4.0 * d + 1.0), 0.0)


def noise_scale(x: np.ndarray, z: np.ndarray, w: np.ndarray, alpha0: float) -> str:
    """|log eps| is exponential with mean 1/alpha0 under log-Laplace noise."""
    a = np.abs(np.log(x) - np.log(z @ w.T)).ravel()
    se = a.std() / math.sqrt(a.size)
    require(abs(a.mean() - 1.0 / alpha0) <= 5.0 * se,
            f"mean |log eps| {a.mean():.6f} vs 1/alpha0 {1.0 / alpha0:.6f} (se {se:.1e})")
    return f"mean |log eps| {a.mean():.5f}, 1/alpha0 {1.0 / alpha0:.5f}"


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def _uniform_scores(fields: np.ndarray) -> np.ndarray:
    """Per column: (number of values <= x) / n, the right-continuous ECDF."""
    out = np.empty_like(fields)
    for j in range(fields.shape[1]):
        col = np.sort(fields[:, j])
        out[:, j] = np.searchsorted(col, fields[:, j], side="right")
    return out / fields.shape[0]


def grid_spacing(coords: np.ndarray) -> float:
    d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    return float(d[d > 0].min())


def chi_at(fields, coords, pairs, u: float) -> float:
    """Mean over pairs of #(both exceed u) / #(first exceeds u) on ranks."""
    psi = grid_spacing(coords)
    d = np.sqrt(((coords[pairs[:, 0]] - coords[pairs[:, 1]]) ** 2).sum(axis=1))
    require(bool(np.all(np.abs(d - psi) <= psi / 2.0)) and bool(np.all(pairs[:, 0] < pairs[:, 1]))
            and len({tuple(p) for p in pairs.tolist()}) == len(pairs),
            "chi pairs are not distinct pairs at one grid spacing")
    ex = _uniform_scores(fields) > u
    den = ex[:, pairs[:, 0]].sum(axis=0)
    num = (ex[:, pairs[:, 0]] & ex[:, pairs[:, 1]]).sum(axis=0)
    ok = den > 0
    return float(np.mean(num[ok] / den[ok]))


def are_at(fields, coords, u: float) -> float:
    """sqrt(psi^2 * joint exceedances / (pi * reference exceedances)) around
    the cell nearest the centroid."""
    psi = grid_spacing(coords)
    ref = int(np.argmin(((coords - coords.mean(axis=0)) ** 2).sum(axis=1)))
    ex = _uniform_scores(fields) > u
    return math.sqrt(psi**2 * ex[ex[:, ref]].sum() / (math.pi * ex[:, ref].sum()))


def close(a: float, b: float, what: str, rel: float = 1e-9) -> None:
    require(abs(a - b) <= rel * max(abs(a), abs(b), 1e-300),
            f"{what}: program {a:.17g}, recomputed {b:.17g}")


def twcrps_kernel(ens: np.ndarray, y: float) -> float:
    """E|v(X) - v(y)| - E|v(X) - v(X')| / 2 with v(z) = max(z, r), r the
    ensemble's nearest-rank 90th percentile."""
    srt = np.sort(ens)
    r = srt[math.ceil(0.9 * srt.size) - 1]
    v = np.maximum(srt, r)
    return float(np.mean(np.abs(v - max(y, r)))
                 - 0.5 * np.mean(np.abs(v[:, None] - v[None, :])))


def read_twcrps(path: str) -> dict[tuple[int, int], float]:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, t, sid, val = line.rstrip("\n").split(",")
            out[(int(t), int(sid))] = float(val)
    return out
