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


def box_muller(r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard-normal arrays from uniform [0, 1) draws r1, r2, elementwise."""
    radius = np.sqrt(-2.0 * np.log(1.0 - r1))  # 1 - r1 is in (0, 1]; keeps log finite
    return radius * np.cos(2.0 * np.pi * r2), radius * np.sin(2.0 * np.pi * r2)

