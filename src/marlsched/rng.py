"""Seeded random streams and workload distributions via inverse-CDF sampling.

Every source of randomness in the simulator goes through a labelled
``RngStream`` derived from a single master seed, so independent concerns
(workload, cluster, exploration, ...) never share generator state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RngStream:
    """A labelled, independently seeded random stream.

    Same (master_seed, label) always reproduces the same sequence; distinct
    labels give statistically independent streams.
    """

    master_seed: int
    label: str
    _gen: np.random.Generator = field(repr=False, default=None)

    def __post_init__(self):
        if self._gen is None:
            digest = hashlib.sha256(self.label.encode("utf-8")).digest()
            words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
            seq = np.random.SeedSequence([int(self.master_seed) & 0xFFFFFFFFFFFFFFFF, *words])
            self._gen = np.random.Generator(np.random.PCG64(seq))

    def uniform(self) -> float:
        """Next uniform draw in [0, 1)."""
        return float(self._gen.random())

    def normal(self) -> float:
        """Next standard-normal draw."""
        return float(self._gen.standard_normal())

    def uniform_array(self, n: int) -> np.ndarray:
        """n uniform draws in [0, 1); same sequence as n single draws."""
        return self._gen.random(n)


def derive_stream(master_seed: int, label: str) -> RngStream:
    """Derive an independent stream for a purpose named by ``label``."""
    if not label:
        raise ValueError("stream label must be nonempty")
    return RngStream(master_seed, label)


# Inverse-CDF transforms, kept separate from the streams so the arithmetic is
# directly checkable at fixed u.

def pareto_from_uniform(u: float, alpha: float, t_min: float) -> float:
    return t_min * (1.0 - u) ** (-1.0 / alpha)


def exponential_from_uniform(u: float, rate: float) -> float:
    return float(-np.log1p(-u) / rate)


def lognormal_from_normal(z: float, mu: float, sigma: float) -> float:
    return float(np.exp(mu + sigma * z))


def sample_pareto(s: RngStream, alpha: float, t_min: float) -> float:
    """Pareto(alpha, t_min) draw; always >= t_min."""
    if alpha <= 0 or t_min <= 0:
        raise ValueError("alpha and t_min must be positive")
    return pareto_from_uniform(s.uniform(), alpha, t_min)


def sample_lognormal(s: RngStream, mu: float, sigma: float) -> float:
    """LogNormal(mu, sigma) draw; always > 0."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return lognormal_from_normal(s.normal(), mu, sigma)


def sample_exponential(s: RngStream, rate: float) -> float:
    """Exponential(rate) draw; always >= 0."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return exponential_from_uniform(s.uniform(), rate)


def categorical_cdf(weights) -> np.ndarray:
    """Cumulative bins of a categorical distribution; checks the weights."""
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {float(w.sum())!r}")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return np.cumsum(w)


def sample_categorical(s: RngStream, weights) -> int:
    """Index i such that the stream's uniform falls in the i-th cumulative bin."""
    cum = categorical_cdf(weights)
    u = s.uniform()
    return int(min(np.searchsorted(cum, u, side="right"), len(cum) - 1))
