"""Rejection sampler for expPS(1/2, theta), kept as the oracle that the exact
inverse-Gaussian sampler ``extvae.distributions.expps_sample_field`` is tested
against.

Proposals come from the untilted stable(1/2) law and are accepted with
probability exp(-theta x), so the acceptance rate is exp(-sqrt(theta)): usable
for the moderate theta the tests draw at, hopeless for large theta.
"""

import numpy as np

from extvae.seeds import as_generator


def positive_stable_half_sample(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws with Laplace transform exp(-sqrt(s)).

    0.5 / Z^2 for standard normal Z; equivalently the one-sided stable law
    whose density is z^(-3/2) exp(-1/(4z)) / (2 sqrt(pi)).
    """
    z = rng.standard_normal(n)
    while np.any(z == 0.0):  # measure-zero guard; keeps 1/z^2 finite
        z[z == 0.0] = rng.standard_normal(int(np.sum(z == 0.0)))
    return 0.5 / z**2


def expps_sample(theta: float, n: int, seed, return_stats: bool = False):
    """n draws of expPS(1/2, theta) by rejection from stable(1/2) proposals;
    with ``return_stats`` also the proposal and acceptance counts."""
    if not np.isfinite(theta) or theta < 0:
        raise ValueError(f"theta must be >= 0 and finite, got {theta!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    out = np.empty(n, dtype=np.float64)
    filled = proposals = 0
    while filled < n:
        need = n - filled
        x = positive_stable_half_sample(need, rng)
        if theta == 0.0:
            keep = np.ones(need, dtype=bool)
        else:
            keep = rng.random(need) < np.exp(-theta * x)
        proposals += need
        k = int(np.sum(keep))
        out[filled : filled + k] = x[keep]
        filled += k
    if return_stats:
        return out, {"proposals": proposals, "accepted": n}
    return out
