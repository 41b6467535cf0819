"""Ensemble generation from a trained model.

Reconstruction-style emulation (encode the observed field, then redraw both
the latent and the data-level noise), counterfactual runs that swap the
condition series everywhere it enters the decoder, condition ablations, and a
prior-only mode that redraws the latent factors from the tilted-stable prior
under the decoded tilting field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as mdl
from .autodiff import ArrayView
from .distributions import LogLaplaceParams, expps_sample_field, loglaplace_sample
from .model import ModelParameters
from .seeds import substream

DEFAULT_N_SAMPLES = 2000
MODES = ("reconstruction", "prior")


@dataclass
class EmulationEnsemble:
    """Generated fields (time x site x sample) with their tilting estimates."""

    samples: np.ndarray            # (n_t, n_selected_sites, n_samples)
    theta: np.ndarray              # (n_t, n_knots, n_samples)
    scenario: str
    seed: int
    site_indices: np.ndarray       # which columns of the data the sites are
    checkpoint_id: str | None = None

    @property
    def n_samples(self) -> int:
        return self.samples.shape[2]


def ablate_condition(c: np.ndarray, mode: str, seed) -> np.ndarray:
    """Replacement condition series: 'white-noise' draws i.i.d. uniforms on
    [min(c), max(c)]; 'fixed' returns the constant mean series."""
    c = np.asarray(c, dtype=np.float64)
    if mode == "white-noise":
        rng = substream(seed, "ablate")
        return rng.uniform(c.min(), c.max(), size=c.shape)
    if mode == "fixed":
        return np.full_like(c, c.mean())
    raise ValueError(f"unknown ablation mode {mode!r}")


def _chunk_pass(cfg, p, x, c_used, mu, sigma, w, sample_indices, seed,
                mode, draw_latent_noise, draw_data_noise):
    """Emulated paths for a block of sample indices, vectorized over samples.

    Per-sample substreams keep the output independent of the chunking.
    """
    n_t, n_s = x.shape
    k = cfg.hyper.latent_dim
    n_c = len(sample_indices)
    if draw_latent_noise:
        eps = np.stack([substream(seed, "latent", s).standard_normal((n_t, k))
                        for s in sample_indices])
    else:
        eps = np.zeros((n_c, n_t, k))
    cond = np.zeros(n_t) if cfg.sever_condition else c_used
    _, _, z = mdl.latent(p, mu, sigma, cond, eps)
    z = z.reshape(n_c * n_t, k)

    # three-step windows within each sample's time block
    prev, nxt = mdl._window_indices(np.arange(n_t), n_t)
    offs = (np.arange(n_c) * n_t)[:, None]
    _, theta = mdl.decode_theta(cfg, p, z, np.tile(cond, n_c),
                                (offs + prev).ravel(), np.arange(n_c * n_t),
                                (offs + nxt).ravel())
    theta = theta.reshape(n_c, n_t, k)

    if mode == "prior":
        z = np.stack([
            expps_sample_field(theta[i], substream(seed, "prior-z", s))
            for i, s in enumerate(sample_indices)]).reshape(n_c * n_t, k)

    y = (z @ np.asarray(w).T).reshape(n_c, n_t, n_s)
    if draw_data_noise:
        noise = np.stack([
            loglaplace_sample(LogLaplaceParams(cfg.hyper.alpha0), n_t * n_s,
                              substream(seed, "noise", s)).reshape(n_t, n_s)
            for s in sample_indices])
        y = noise * y
    return y, theta


def emulate(
    model: ModelParameters,
    data: np.ndarray,
    c: np.ndarray,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
    *,
    scenario: str = "factual",
    mode: str = "reconstruction",
    draw_latent_noise: bool = True,
    draw_data_noise: bool = True,
    sites: np.ndarray | None = None,
    checkpoint_id: str | None = None,
) -> EmulationEnsemble:
    """Generate an ensemble conditioned on the observed fields.

    Per time step and sample: encode the observed field, draw the latent
    factors on the log scale, decode, and redraw the multiplicative noise.
    Each sample also records the tilting field decoded from its own fused
    three-step window.  ``sites`` restricts which columns are stored (the
    tilting field is always complete).
    """
    x = np.asarray(data, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    cfg = model.config
    if x.ndim != 2 or x.shape[1] != cfg.n_sites:
        raise ValueError("data shape does not match the model")
    if c.shape != (x.shape[0],):
        raise ValueError("condition series length must match the data")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown emulation mode {mode!r}")
    site_idx = np.arange(cfg.n_sites) if sites is None else np.asarray(sites, dtype=np.intp)

    p = ArrayView(model.params)
    mu, sigma = mdl.encode(cfg, p, x)
    w = mdl.weight_matrix(cfg, p)

    n_t = x.shape[0]
    out = np.empty((n_t, site_idx.size, n_samples))
    theta = np.empty((n_t, cfg.hyper.latent_dim, n_samples))
    # chunk samples so the vectorized pass stays within ~200 MB of scratch,
    # counting every float64 one (sample, time) row of a chunk holds
    h = cfg.hyper
    k, ch, two_k = h.latent_dim, h.conv_channels, 2 * h.latent_dim
    row = (3 * k + two_k + 3 * two_k               # eps, log z, z; fused; its window rows
           + 2 * 3 * two_k                         # windows, padded
           + 3 * two_k * h.kernel_len              # conv windows as einsum copies them
           + 2 * ch * two_k + ch * two_k // h.pool_len  # conv output, biased, pooled
           + 3 * cfg.n_sites)                      # W z, noise, mixed fields
    budget = max(1, 200_000_000 // (8 * row * max(n_t, 1)))
    for start in range(0, n_samples, budget):
        block = range(start, min(start + budget, n_samples))
        paths, thetas = _chunk_pass(cfg, p, x, c, mu, sigma, w, list(block),
                                    seed, mode, draw_latent_noise,
                                    draw_data_noise)
        for i, s in enumerate(block):
            out[:, :, s] = paths[i][:, site_idx]
            theta[:, :, s] = thetas[i]
    return EmulationEnsemble(samples=out, theta=theta, scenario=scenario,
                             seed=int(seed), site_indices=site_idx,
                             checkpoint_id=checkpoint_id)


def counterfactual(
    model: ModelParameters,
    data: np.ndarray,
    c_factual: np.ndarray,
    c_cf: np.ndarray,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
    **kwargs,
) -> EmulationEnsemble:
    """Emulate under an intervened condition series.

    The encoder still sees the observed fields (mu and sigma are unchanged);
    the intervened series replaces the condition both in the latent shift and
    in the fusion slots.  With the same seed, identical factual and
    counterfactual series give bit-identical ensembles.
    """
    c_factual = np.asarray(c_factual, dtype=np.float64)
    c_cf = np.asarray(c_cf, dtype=np.float64)
    if c_cf.shape != c_factual.shape:
        raise ValueError("counterfactual series must match the factual length")
    kwargs.setdefault("scenario", "counterfactual")
    return emulate(model, data, c_cf, n_samples, seed, **kwargs)


def flip_condition(c: np.ndarray) -> np.ndarray:
    """The order-reversing involution on the normalized scale: c -> 1 - c."""
    c = np.asarray(c, dtype=np.float64)
    return 1.0 - c


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Energy distance between two multivariate samples (rows are draws)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))

    def _mean_cross(u, v):
        d = np.sqrt(np.sum((u[:, None, :] - v[None, :, :]) ** 2, axis=2))
        return float(np.mean(d))

    return 2.0 * _mean_cross(a, b) - _mean_cross(a, a) - _mean_cross(b, b)
