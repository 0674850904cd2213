"""Labelled, independently seeded random streams.

Every source of randomness in the simulator draws from a numpy ``Generator``
derived from a single master seed and a label, so independent concerns
(workload, cluster, exploration, ...) never share generator state.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_stream(master_seed: int, label: str) -> np.random.Generator:
    """The stream for a purpose named by ``label``: the same (master_seed,
    label) always reproduces the same sequence, and distinct labels give
    statistically independent streams."""
    if not label:
        raise ValueError("stream label must be nonempty")
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    seq = np.random.SeedSequence([int(master_seed) & 0xFFFFFFFFFFFFFFFF, *words])
    return np.random.Generator(np.random.PCG64(seq))
