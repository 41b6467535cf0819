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
from .distributions import LogLaplaceParams, expps_sample_field, loglaplace_quantile
from .model import ModelParameters
from .seeds import CounterStream, open_unit, substream

DEFAULT_N_SAMPLES = 2000
MODES = ("reconstruction", "prior")
# scratch a vectorized chunk of samples may hold, in bytes: at desk size this
# keeps each of a chunk's arrays under glibc's 32 MiB mmap threshold (see
# cli._hold_heap), so they are not page-faulted in anew for every chunk
CHUNK_BYTES = 50_000_000


@dataclass
class EmulationEnsemble:
    """Generated fields (time x site x sample) with their tilting estimates."""

    samples: np.ndarray            # (n_t, n_selected_sites, n_samples)
    theta: np.ndarray              # (n_t, n_knots, n_samples)
    scenario: str
    site_indices: np.ndarray       # which columns of the data the sites are

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


def _run_words(stream: CounterStream, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The words of each run [starts[i], starts[i] + lens[i]), concatenated.

    Runs are disjoint.  A run that starts where the previous one ends is read
    in one span with it; every other run is read at its own counter.
    """
    cuts = np.flatnonzero(starts[1:] != starts[:-1] + lens[:-1]) + 1
    pieces = [stream.words(int(starts[g0]), int(lens[g0:g1].sum()))
              for g0, g1 in zip(np.r_[0, cuts], np.r_[cuts, starts.size])]
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _chunk_pass(cfg, p, mu, sigma, cond, w, site_idx, samples, streams, mode,
                draw_latent_noise, draw_data_noise):
    """Emulated paths at the kept sites, (samples, sites, time), and the
    tilting field, (samples, time, K), for a range of sample indices.

    Every draw is read at its own counter address, so a sample's values do not
    depend on the chunking or on which other sites are kept:
      - latent eps: a generator at sample s's own region of ``streams["eps"]``,
        one (n_t, K) standard normal draw;
      - data noise: word (s n_sites + j) n_t + t of ``streams["noise"]``, read
        once per run of consecutive kept sites, through the log-Laplace quantile;
      - prior-mode z: a generator at sample s's own region of ``streams["prior-z"]``.
    The mixing multiplies each sample by the whole of W, one product of a
    fixed shape, and keeps the kept sites' rows, so a site's bits depend
    neither on the other sites nor on the chunk.
    """
    n_t, k = mu.shape
    n_c = len(samples)
    eps = np.zeros((n_c, n_t, k))
    if draw_latent_noise:
        for i, s in enumerate(samples):
            streams["eps"].generator(s).standard_normal(out=eps[i])
    _, _, z = mdl.latent(p, mu, sigma, cond, eps)
    z = z.reshape(n_c * n_t, k)

    # three-step windows within each sample's time block, one block a sample
    prev, nxt = mdl._window_indices(np.arange(n_t), n_t)
    offs = (np.arange(n_c) * n_t)[:, None]
    _, theta = mdl.decode_theta(cfg, p, z, np.tile(cond, n_c), offs + prev,
                                offs + np.arange(n_t), offs + nxt)

    if mode == "prior":
        z = np.stack([expps_sample_field(theta[i], streams["prior-z"].generator(s))
                      for i, s in enumerate(samples)])
    # (samples, sites, time)
    y = np.matmul(w, z.reshape(n_c, n_t, k).transpose(0, 2, 1))[:, site_idx]
    if draw_data_noise:
        run0 = np.flatnonzero(np.diff(site_idx, prepend=-2) != 1)
        lens = np.diff(np.r_[run0, site_idx.size]) * n_t
        starts = ((np.arange(samples.start, samples.stop)[:, None] * cfg.n_sites
                   + site_idx[run0]) * n_t).ravel()
        u = open_unit(_run_words(streams["noise"], starts, np.tile(lens, n_c)))
        y *= loglaplace_quantile(u, LogLaplaceParams(cfg.hyper.alpha0)).reshape(y.shape)
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
) -> EmulationEnsemble:
    """Generate an ensemble conditioned on the observed fields.

    Per time step and sample: encode the observed field, draw the latent
    factors on the log scale, decode, and redraw the multiplicative noise.
    Each sample also records the tilting field decoded from its own fused
    three-step window.  ``sites`` (distinct indices, any order) selects which
    columns are drawn and stored; they equal the same columns of the full-grid
    ensemble bit for bit.  The tilting field is always complete.
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
    site_idx = np.arange(cfg.n_sites) if sites is None else check_sites(sites, cfg.n_sites)

    p = ArrayView(model.params)
    mu, sigma = mdl.encode(cfg, p, x)
    w = np.asarray(mdl.weight_matrix(cfg, p))
    streams = {label: CounterStream(seed, f"emulate-{label}")
               for label in ("eps", "noise", "prior-z")}

    n_t = x.shape[0]
    out = np.empty((n_t, site_idx.size, n_samples))
    theta = np.empty((n_t, cfg.hyper.latent_dim, n_samples))
    # chunk samples so the vectorized pass stays within CHUNK_BYTES of scratch,
    # counting every float64 one (sample, time) row of a chunk holds
    h = cfg.hyper
    k, ch, two_k = h.latent_dim, h.conv_channels, 2 * h.latent_dim
    row = (3 * k + two_k + 3 * two_k               # eps, log z, z; fused; its window rows
           + 2 * 3 * two_k                         # windows, padded
           + 3 * two_k * h.kernel_len              # conv's (in * width, length) window copy
           + 2 * ch * two_k + ch * two_k // h.pool_len  # conv output, biased, pooled
           + cfg.n_sites                           # mixed, every site
           + 4 * site_idx.size)                    # kept rows, words, noise, paths
    budget = max(1, CHUNK_BYTES // (8 * row * max(n_t, 1)))
    for start in range(0, n_samples, budget):
        block = range(start, min(start + budget, n_samples))
        paths, thetas = _chunk_pass(cfg, p, mu, sigma, c, w, site_idx, block,
                                    streams, mode, draw_latent_noise, draw_data_noise)
        out[:, :, block.start:block.stop] = paths.transpose(2, 1, 0)
        theta[:, :, block.start:block.stop] = thetas.transpose(1, 2, 0)
    return EmulationEnsemble(samples=out, theta=theta, scenario=scenario,
                             site_indices=site_idx)


def check_sites(sites, n_sites: int) -> np.ndarray:
    """``sites`` as a 1-D array of distinct integers in [0, n_sites)."""
    msg = f"sites must be a nonempty 1-D array of distinct integers in [0, {n_sites})"
    try:
        arr = np.asarray(sites)
    except ValueError:
        raise ValueError(msg) from None
    if (arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu"
            or np.any((arr < 0) | (arr >= n_sites)) or np.unique(arr).size != arr.size):
        raise ValueError(f"{msg}, got {np.array2string(arr, threshold=8)}")
    return arr.astype(np.intp)


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

