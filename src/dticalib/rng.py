"""Deterministic random-number streams.

Streams are keyed by integer tuples (seed, voxel, replicate, ...) through
SeedSequence feeding a counter-based Philox generator, so per-voxel work can
run in any order, or in any batch, without changing a single draw. Gaussian
noise is produced by an explicit Box-Muller transform on uniform draws; the
pairing is convenient for magnitude (two-channel) noise models.
"""

from __future__ import annotations

import numpy as np


def rng_from_key(*key: int) -> np.random.Generator:
    """Generator for an integer key tuple; same key, same stream, always."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def gaussian_pair(rng: np.random.Generator, shape) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard-normal arrays via one Box-Muller transform."""
    u1 = 1.0 - rng.random(shape)  # (0, 1]; keeps log finite
    u2 = rng.random(shape)
    radius = np.sqrt(-2.0 * np.log(u1))
    return radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)

