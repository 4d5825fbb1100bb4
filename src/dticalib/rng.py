"""Deterministic random-number streams.

Streams are keyed by integer tuples (seed, voxel, replicate, ...) through
SeedSequence feeding a counter-based Philox generator, so per-voxel work can
run in any order, or in any batch, without changing a single draw. Every
other draw comes from a run stream of one purpose, keyed apart from every
such tuple: once per run (MLP initialisation, training, the calibrate split)
or once per voxel (wild-bootstrap signs, dropout masks). Gaussian noise is
produced by an explicit Box-Muller transform on uniform draws; the pairing
is convenient for magnitude (two-channel) noise models.
"""

from __future__ import annotations

import numpy as np


def rng_from_key(*key: int, spawn_key: tuple = ()) -> np.random.Generator:
    """Generator for an integer key tuple and a SeedSequence spawn key; same
    keys, same stream, always."""
    seq = np.random.SeedSequence(list(key), spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seq))


# run-stream purposes; each a distinct number, so no two purposes share a stream
MLP_INIT, MLP_TRAIN, CALIBRATE_SPLIT, WILD_BOOTSTRAP, MC_DROPOUT = range(5)


def run_stream(seed: int, purpose: int, *voxel: int) -> np.random.Generator:
    """Generator for one purpose of a run, or given v, for voxel v of it: the
    SeedSequence child of (seed) or (seed, v) under spawn key (purpose,).

    SeedSequence pads a key to 4 words, so rng_from_key(s) draws what
    rng_from_key(s, 0) draws. A child's entropy is its key padded to 4 words,
    then the purpose: 5 words, which no (seed, voxel) key of a seed below
    2**96 reaches. Voxel 0 of a purpose draws that purpose's run stream.
    """
    # through rng_from_key, so wrappers installed on its bindings see every stream
    return rng_from_key(seed, *voxel, spawn_key=(purpose,))


def box_muller(r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard-normal arrays from uniform [0, 1) draws r1, r2, elementwise."""
    radius = np.sqrt(-2.0 * np.log(1.0 - r1))  # 1 - r1 is in (0, 1]; keeps log finite
    return radius * np.cos(2.0 * np.pi * r2), radius * np.sin(2.0 * np.pi * r2)
