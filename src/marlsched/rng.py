"""Seeded random streams and the Pareto inverse CDF of the workload model.

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
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        digest = hashlib.sha256(self.label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
        seq = np.random.SeedSequence([int(self.master_seed) & 0xFFFFFFFFFFFFFFFF, *words])
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def uniform(self) -> float:
        """Next uniform draw in [0, 1)."""
        return float(self._gen.random())

    def uniform_array(self, n: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """n uniform draws in [0, 1), or, given ``out`` instead, one written
        into each of its elements; same sequence as that many single draws."""
        return self._gen.random(n, out=out)

    def normal_array(self, n: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """n standard-normal draws, or, given ``out`` instead, one written into
        each of its elements; same sequence as that many single draws,
        including the ziggurat's rare draws that take more than one word of
        the generator."""
        return self._gen.standard_normal(n, out=out)


def derive_stream(master_seed: int, label: str) -> RngStream:
    """Derive an independent stream for a purpose named by ``label``."""
    if not label:
        raise ValueError("stream label must be nonempty")
    return RngStream(master_seed, label)


# Inverse-CDF transform, kept separate from the streams so the arithmetic is
# directly checkable at fixed u.

def pareto_from_uniform(u: float, alpha: float, t_min: float) -> float:
    return t_min * (1.0 - u) ** (-1.0 / alpha)

