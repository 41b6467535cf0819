"""The conditional extremes autoencoder.

Encoder MLP (softplus heads), linear condition map into the latent space,
log-scale reparameterization, latent/condition interleaving, a 1-D CNN that
decodes three consecutive fused time steps into nonnegative coefficients of a
fixed latent-space RBF expansion of the tilting field, a strictly positive
learnable site-by-knot weight matrix, and the penalized Monte-Carlo objective
built from the exact log-Laplace likelihood, tilted-stable prior, and
log-normal posterior terms.

The forward pass is written once, batched over time steps, against
:mod:`extvae.autodiff` ops, so the same code runs under the gradient tape
(training, the gradient audit) and in plain numpy (emulation):

- :func:`encode`: fields (T, S) -> posterior location and scale (T, K);
- :func:`latent`: m = log mu + c a and log z = m + sigma eps;
- :func:`decode_theta`: z -> fused three-step windows -> CNN coefficients xi
  -> tilting field theta = xi phi^T;
- :func:`penalized_elbo`: the training objective built from those three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParamVector
from .fieldsim import wendland_basis
from .seeds import substream

_HALF_LOG_PI = 0.5 * math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# floor applied to Wendland weights before inverse-softplus initialization;
# exact zeros have no finite preimage
_W_INIT_FLOOR = 1e-3

# smallest magnitude the penalty denominator is allowed to take
PENALTY_DENOM_FLOOR = 1e-3


class ConfigError(ValueError):
    """A configuration value of the wrong kind, out of range, or unknown."""


def check_value(name: str, value, kind, *, ge=None, gt=None, lt=None):
    """``value`` if it is of ``kind`` and within the bounds, else ConfigError.

    ``kind`` is ``int``, ``float`` (any real), ``bool``, a tuple of the allowed
    values, or ``[kind]`` for a list or tuple of such values (returned as a
    tuple).  bool is never a number, a real is finite, an int may be a numpy
    integer and a real any int or numpy float; numpy scalars come back as
    Python ones.
    """
    if isinstance(kind, list):
        if isinstance(value, (list, tuple)):
            return tuple(check_value(f"each {name} entry", v, kind[0], ge=ge, gt=gt,
                                     lt=lt) for v in value)
        ok, want = False, "a list"
    elif isinstance(kind, tuple):
        ok, want = value in kind, "one of " + ", ".join(map(str, kind))
    elif kind is bool:
        ok, want = isinstance(value, (bool, np.bool_)), "true or false"
    else:
        number = (int, np.integer) + ((float, np.floating) if kind is float else ())
        ok = (isinstance(value, number) and not isinstance(value, bool)
              and -math.inf < value < math.inf
              and (ge is None or value >= ge) and (gt is None or value > gt)
              and (lt is None or value < lt))
        bounds = [f"{op} {b}" for op, b in ((">=", ge), (">", gt), ("<", lt))
                  if b is not None]
        noun = "an integer" if kind is int else "a finite number"
        want = f"{noun} {' and '.join(bounds)}".rstrip()
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


# each HyperParams field: its kind and bounds; seeds are numpy's, >= 0
_HYPER_KINDS = {
    **dict.fromkeys(("latent_dim", "n_theta_basis", "mc_draws", "conv_channels",
                     "kernel_len", "pool_len"), (int, {"ge": 1})),
    "enc_widths": ([int], {"ge": 1}),
    **dict.fromkeys(("epochs", "seed"), (int, {"ge": 0})),
    **dict.fromkeys(("alpha0", "learning_rate"), (float, {"gt": 0})),
    "rho0": (float, {"ge": 0}),
    **dict.fromkeys(("penalty_abs", "fix_w"), (bool, {})),
}


@dataclass(frozen=True)
class HyperParams:
    """Model and training hyperparameters.

    The latent stability index is not among them: it is
    :data:`~extvae.distributions.STABILITY_INDEX`.  ``alpha0`` is a tuning
    constant selected by grid search, not a gradient-trained parameter.
    ``penalty_abs`` selects the absolute-value temporal penalty, which blocks
    the slow scale drift described in the README; ``False`` gives the signed
    form as printed.
    """

    latent_dim: int = 16              # K
    n_theta_basis: int = 9            # M
    alpha0: float = 30.0
    rho0: float = 0.1
    mc_draws: int = 1                 # L
    enc_widths: tuple = (64,)
    conv_channels: int = 40
    kernel_len: int = 3
    pool_len: int = 2
    learning_rate: float = 1e-3
    epochs: int = 1000
    seed: int = 0
    penalty_abs: bool = True
    fix_w: bool = False

    def __post_init__(self):
        for name, (kind, bounds) in _HYPER_KINDS.items():
            object.__setattr__(self, name, check_value(name, getattr(self, name), kind,
                                                       **bounds))
        if self.n_theta_basis > self.latent_dim:
            raise ConfigError("n_theta_basis must not exceed latent_dim")
        if (2 * self.latent_dim) % self.pool_len != 0:
            raise ConfigError("pool_len must divide 2*latent_dim")


def build_phi(knots: np.ndarray | None, latent_dim: int, n_basis: int) -> np.ndarray:
    """Fixed nonnegative RBF matrix mapping basis coefficients to knot space.

    Gaussian bumps centered on an evenly spaced subset of the knots, bandwidth
    equal to the knot spacing.  When no knot layout is supplied the knots are
    placed on a virtual unit lattice (square if latent_dim is a perfect square,
    a line otherwise).
    """
    k = latent_dim
    if n_basis > k:
        raise ValueError("n_basis must not exceed latent_dim")
    if knots is None:
        side = int(round(math.sqrt(k)))
        if side * side == k:
            xs = np.arange(side, dtype=np.float64)
            gx, gy = np.meshgrid(xs, xs)
            knots = np.column_stack([gx.ravel(), gy.ravel()])
        else:
            knots = np.column_stack([np.arange(k, dtype=np.float64), np.zeros(k)])
    knots = np.asarray(knots, dtype=np.float64)
    if knots.shape[0] != k:
        raise ValueError("knot count must equal latent_dim")

    d = np.sqrt(np.sum((knots[:, None, :] - knots[None, :, :]) ** 2, axis=2))
    if k > 1:
        np.fill_diagonal(d, np.inf)
        bandwidth = float(np.median(np.min(d, axis=1)))
    else:
        bandwidth = 1.0

    side_m = int(round(math.sqrt(n_basis)))
    if side_m * side_m == n_basis and knots.shape[1] == 2:
        lo = knots.min(axis=0)
        hi = knots.max(axis=0)
        xs = np.linspace(lo[0], hi[0], side_m) if side_m > 1 else [(lo[0] + hi[0]) / 2]
        ys = np.linspace(lo[1], hi[1], side_m) if side_m > 1 else [(lo[1] + hi[1]) / 2]
        gx, gy = np.meshgrid(xs, ys)
        centers = np.column_stack([gx.ravel(), gy.ravel()])
    else:
        # n_basis <= k spaces the indices at least one apart: no two collide
        idx = np.round(np.linspace(0, k - 1, n_basis)).astype(int)
        centers = knots[idx]

    dd = np.sum((knots[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return np.exp(-dd / (2.0 * bandwidth**2))


@dataclass
class ModelConfig:
    """Immutable structure: sizes, fixed RBF matrix, optional fixed weights."""

    n_sites: int
    hyper: HyperParams
    knots: np.ndarray | None = None
    sites: np.ndarray | None = None
    wendland_radius: float | None = None
    fixed_w: np.ndarray | None = None
    phi: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.phi is None:
            self.phi = build_phi(self.knots, self.hyper.latent_dim,
                                 self.hyper.n_theta_basis)
        self.phi = np.asarray(self.phi, dtype=np.float64)
        if np.any(self.phi < 0):
            raise ValueError("phi must be nonnegative")
        if self.hyper.fix_w:
            if self.fixed_w is None:
                self.fixed_w = default_wendland_w(self)
            if self.fixed_w is None:
                raise ValueError("fix_w needs sites, knots, and a Wendland radius, "
                                 "or an explicit fixed weight matrix")
            self.fixed_w = np.asarray(self.fixed_w, dtype=np.float64)
            if self.fixed_w.shape != (self.n_sites, self.hyper.latent_dim):
                raise ValueError("fixed weight matrix has the wrong shape")
            if np.any(self.fixed_w < 0) or np.any(~np.any(self.fixed_w > 0, axis=1)):
                raise ValueError("fixed weights must be nonnegative with positive rows")

    @property
    def pooled_len(self) -> int:
        return (2 * self.hyper.latent_dim) // self.hyper.pool_len


@dataclass
class ModelParameters:
    """A trained (or initialized) model: structure plus learnable values."""

    config: ModelConfig
    params: ParamVector


# ---------------------------------------------------------------------------
# parameter layout and initialization
# ---------------------------------------------------------------------------

def _encoder_dims(cfg: ModelConfig) -> list[int]:
    return [cfg.n_sites, *cfg.hyper.enc_widths, 2 * cfg.hyper.latent_dim]


def param_template(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every learnable component."""
    h = cfg.hyper
    dims = _encoder_dims(cfg)
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(len(dims) - 1):
        shapes[f"enc_w{i}"] = (dims[i], dims[i + 1])
        shapes[f"enc_b{i}"] = (dims[i + 1],)
    shapes["cond_map"] = (h.latent_dim,)
    shapes["conv_k"] = (h.conv_channels, 3, h.kernel_len)
    shapes["conv_b"] = (h.conv_channels,)
    shapes["xi_w"] = (h.conv_channels * cfg.pooled_len, h.n_theta_basis)
    shapes["xi_b"] = (h.n_theta_basis,)
    if not h.fix_w:
        shapes["w_raw"] = (cfg.n_sites, h.latent_dim)
    return shapes


def default_wendland_w(cfg: ModelConfig) -> np.ndarray | None:
    if cfg.sites is None or cfg.knots is None or cfg.wendland_radius is None:
        return None
    return wendland_basis(cfg.sites, cfg.knots, cfg.wendland_radius)


def init_params(cfg: ModelConfig, seed: int) -> ParamVector:
    """Symmetric uniform fan-in init; condition map starts at zero so the
    condition's influence grows from neutral; weights start at the Wendland
    layout when the geometry is known."""
    parts: dict[str, np.ndarray] = {}
    dims = _encoder_dims(cfg)
    for i in range(len(dims) - 1):
        rng = substream(seed, "init-enc", i)
        bound = 1.0 / math.sqrt(dims[i])
        parts[f"enc_w{i}"] = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
        parts[f"enc_b{i}"] = rng.uniform(-bound, bound, size=dims[i + 1])
    h = cfg.hyper
    parts["cond_map"] = np.zeros(h.latent_dim)
    rng = substream(seed, "init-conv")
    bound = 1.0 / math.sqrt(3 * h.kernel_len)
    parts["conv_k"] = rng.uniform(-bound, bound, size=(h.conv_channels, 3, h.kernel_len))
    parts["conv_b"] = rng.uniform(-bound, bound, size=h.conv_channels)
    rng = substream(seed, "init-dense")
    fan_in = h.conv_channels * cfg.pooled_len
    bound = 1.0 / math.sqrt(fan_in)
    parts["xi_w"] = rng.uniform(-bound, bound, size=(fan_in, h.n_theta_basis))
    parts["xi_b"] = rng.uniform(-bound, bound, size=h.n_theta_basis)
    if not h.fix_w:
        w0 = default_wendland_w(cfg)
        if w0 is None:
            w0 = np.full((cfg.n_sites, h.latent_dim), 0.1)
        parts["w_raw"] = ad.softplus_inverse(np.maximum(w0, _W_INIT_FLOOR))
    return ParamVector.build(parts)


def weight_matrix(cfg: ModelConfig, p):
    """Strictly positive site-by-knot weights (softplus of the raw matrix),
    or the fixed matrix when weights are not learned."""
    if cfg.hyper.fix_w:
        return cfg.fixed_w
    return ad.softplus(p["w_raw"])


# ---------------------------------------------------------------------------
# forward components
# ---------------------------------------------------------------------------

def encode(cfg: ModelConfig, p, x):
    """Fields (T, S) -> (mu, sigma), both strictly positive, shape (T, K)."""
    h = x
    n_layers = len(_encoder_dims(cfg)) - 1
    for i in range(n_layers):
        h = ad.softplus(ad.add(ad.matmul(h, p[f"enc_w{i}"]), p[f"enc_b{i}"]))
    k = cfg.hyper.latent_dim
    return h[:, :k], h[:, k:]


def condition_shift(p, c):
    """g(c) = c * a for a scalar condition: shape (T, K) for a (T,) series."""
    c = np.asarray(c, dtype=np.float64)
    return ad.mul(c.reshape(-1, 1), p["cond_map"])


def latent(p, mu, sigma, cond, eps):
    """Reparameterized latent draw: (m, log z, z) with m = log mu + c a and
    log z = m + sigma * eps; ``eps`` may carry leading sample axes."""
    m = ad.add(ad.log(mu), condition_shift(p, cond))
    log_z = ad.add(m, ad.mul(sigma, eps))
    return m, log_z, ad.exp(log_z)


def fuse(z, c):
    """Interleave latent coordinates with the condition, row by row:
    (z_1, c, z_2, c, ..., z_K, c) for (T, K) latents and a (T,) series."""
    t, k = ad.value_of(z).shape
    c_arr = np.broadcast_to(np.asarray(c, dtype=np.float64).reshape(t, 1), (t, k))
    return ad.reshape(ad.stack([z, c_arr], axis=2), (t, 2 * k))


def _xi_from_stacked(cfg: ModelConfig, p, stacked):
    """(..., T, 3, 2K) windows -> (..., T, M) nonnegative coefficients.

    The dense layer keeps the leading axes, so each T-row block is its own
    product and its bits do not depend on how many blocks ride along."""
    h = cfg.hyper
    lead = ad.value_of(stacked).shape[:-2]
    conv = ad.conv1d_same(ad.reshape(stacked, (-1, 3, 2 * h.latent_dim)),
                          p["conv_k"], p["conv_b"])
    pooled = ad.maxpool1d(conv, h.pool_len)
    flat = ad.reshape(pooled, (*lead, h.conv_channels * cfg.pooled_len))
    return ad.softplus(ad.add(ad.matmul(flat, p["xi_w"]), p["xi_b"]))


def decode_theta(cfg: ModelConfig, p, z, cond, prev, cur, nxt):
    """Latents (N, K) -> (xi, theta) at the windows whose previous, current
    and next rows of the fused latents are ``prev``, ``cur`` and ``nxt``:
    xi (..., M) from the CNN, theta = xi phi^T (..., K), with the indices'
    shape in front."""
    fused = fuse(z, cond)
    stacked = ad.stack([ad.take_rows(fused, prev), ad.take_rows(fused, cur),
                        ad.take_rows(fused, nxt)], axis=-2)
    xi = _xi_from_stacked(cfg, p, stacked)
    return xi, ad.matmul(xi, cfg.phi.T)


# ---------------------------------------------------------------------------
# objective terms
# ---------------------------------------------------------------------------

def loglik(x, y, alpha0: float):
    """Log-Laplace reconstruction log-likelihood.

    sum_j [ log(alpha0) - log 2 - log x_j - alpha0 * |log(x_j / y_j)| ],
    summed over the last axis (sites); scalar for 1-D input, (T,) otherwise.
    """
    xv = np.asarray(ad.value_of(x), dtype=np.float64)
    if np.any(xv <= 0):
        raise ValueError("observations must be strictly positive")
    const = (math.log(alpha0) - math.log(2.0))
    log_x = np.log(xv)
    log_y = ad.log(y)
    dev = ad.absolute(ad.sub(log_x, log_y))
    axis = -1
    n_sites = xv.shape[-1]
    return ad.sub(
        const * n_sites - np.sum(log_x, axis=axis),
        ad.mul(alpha0, ad.vsum(dev, axis=axis)),
    )


def log_prior(z, theta, log_z=None):
    """Tilted-stable prior log-density summed over knots, at the stability
    index 1/2 (:data:`~extvae.distributions.STABILITY_INDEX`)."""
    lz = ad.log(z) if log_z is None else log_z
    term = (
        -math.log(2.0)
        - _HALF_LOG_PI
        + ad.sqrt(theta)
        - 1.5 * lz
        - ad.mul(theta, z)
        - 0.25 / z
    )
    return ad.vsum(term, axis=-1)


def log_q(z, m, sigma, log_z=None):
    """Exact log-normal posterior log-density summed over knots.

    No '+ const' shortcuts, so the value (not just the gradient) is well
    defined.
    """
    if np.any(ad.value_of(sigma) <= 0):
        raise ValueError("sigma must be > 0")
    lz = ad.log(z) if log_z is None else log_z
    dev = ad.sub(lz, m)
    term = (
        -lz
        - ad.log(sigma)
        - _HALF_LOG_2PI
        - ad.div(ad.mul(dev, dev), ad.mul(2.0, ad.mul(sigma, sigma)))
    )
    return ad.vsum(term, axis=-1)


def _guarded_denominator(dc: np.ndarray) -> np.ndarray:
    mag = np.maximum(np.abs(dc), PENALTY_DENOM_FLOOR)
    return np.where(dc < 0, -mag, mag)


def penalty(xi_t, xi_prev, c_t, c_prev, rho0: float, absolute: bool = False):
    """Temporal continuity penalty summed over rows of consecutive
    coefficient vectors (n, M) and their conditions (n,).

    As printed the signed differences are divided by the (guarded) condition
    increment; the absolute-value variant penalizes |change| instead.
    """
    scale = rho0 / _guarded_denominator(np.asarray(c_t) - np.asarray(c_prev))
    diff = ad.sub(xi_t, xi_prev)
    if absolute:
        return ad.vsum(ad.mul(np.abs(scale).reshape(-1, 1), ad.absolute(diff)))
    return ad.vsum(ad.mul(scale.reshape(-1, 1), diff))


# ---------------------------------------------------------------------------
# the penalized objective
# ---------------------------------------------------------------------------

def _window_indices(times: np.ndarray, n_t: int) -> tuple[np.ndarray, np.ndarray]:
    prev = np.clip(times - 1, 0, n_t - 1)
    nxt = np.clip(times + 1, 0, n_t - 1)
    return prev, nxt


def penalized_elbo(cfg: ModelConfig, p, x: np.ndarray, c: np.ndarray,
                   eps: np.ndarray, batch: np.ndarray | None = None):
    """Monte-Carlo penalized objective summed over the batch time steps.

    For each draw l: z is sampled on the log scale, the three-step fused
    windows (boundary steps replicated) feed the CNN coefficients, and the
    per-time term is loglik + log_prior - log_q minus the temporal penalty
    against the preceding time step (skipped at t = 0).  Minibatches pull in
    the neighboring time steps they need, so the value matches the full-batch
    computation restricted to those rows.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n_t = x.shape[0]
    if batch is None:
        batch = np.arange(n_t)
    batch = np.sort(np.asarray(batch, dtype=np.intp))
    l_draws = eps.shape[0]

    needed = np.unique(np.clip(
        np.concatenate([batch - 2, batch - 1, batch, batch + 1]), 0, n_t - 1))
    pos = np.full(n_t, -1, dtype=np.intp)
    pos[needed] = np.arange(needed.size)

    xs = x[needed]
    cond = c[needed]

    mu, sigma = encode(cfg, p, xs)
    w = weight_matrix(cfg, p)

    # xi is needed at the batch times and at each predecessor for the penalty
    xi_times = np.unique(np.concatenate([batch, np.clip(batch - 1, 0, n_t - 1)]))
    prev_t, next_t = _window_indices(xi_times, n_t)
    xi_pos = np.full(n_t, -1, dtype=np.intp)
    xi_pos[xi_times] = np.arange(xi_times.size)
    pen_t = batch[batch >= 1]
    bpos = pos[batch]

    h = cfg.hyper
    total = None
    for l in range(l_draws):
        m, lz, z = latent(p, mu, sigma, cond, eps[l][needed])
        xi, theta = decode_theta(cfg, p, z, cond, pos[prev_t], pos[xi_times],
                                 pos[next_t])

        z_b = ad.take_rows(z, bpos)
        lz_b = ad.take_rows(lz, bpos)
        y_b = ad.matmul(z_b, ad.transpose(w))
        ll = loglik(x[batch], y_b, h.alpha0)
        lp = log_prior(z_b, ad.take_rows(theta, xi_pos[batch]), log_z=lz_b)
        lq = log_q(z_b, ad.take_rows(m, bpos), ad.take_rows(sigma, bpos), log_z=lz_b)
        term = ad.vsum(ad.sub(ad.add(ll, lp), lq))

        if pen_t.size and h.rho0 > 0:
            rho = penalty(ad.take_rows(xi, xi_pos[pen_t]),
                          ad.take_rows(xi, xi_pos[pen_t - 1]),
                          c[pen_t], c[pen_t - 1], h.rho0, absolute=h.penalty_abs)
            term = ad.sub(term, rho)
        total = term if total is None else ad.add(total, term)
    return ad.div(total, float(l_draws))


def draw_eps(cfg: ModelConfig, n_t: int, seed) -> np.ndarray:
    """(L, n_t, K) standard-normal draws from a derived substream."""
    rng = substream(seed, "elbo-eps")
    return rng.standard_normal((cfg.hyper.mc_draws, n_t, cfg.hyper.latent_dim))
