"""Synthetic phantoms, Rician noise at controlled SNR, and the Monte-Carlo
gold-standard uncertainty oracle.

SNR is amplitude SNR in dB relative to the normalized baseline S0 = 1, so
the per-channel Gaussian noise level is sigma_n = 10**(-snr_db / 20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .tensor import (
    GradientScheme,
    elements_to_matrices,
    fa_md,
    matrices_to_elements,
    predict_signal_batch,
)
from .fitting import fit_cwlls_batch, log_signal_rows
from .bootstrap import replicate_statistics
from .rng import box_muller, rng_from_key

GENERATORS = ("fixed", "prolate", "oblate", "random_spd", "two_population")


@dataclass
class PhantomSpec:
    """Recipe for one synthetic dataset.

    generator:
        fixed          -- every voxel carries `elements` verbatim
        prolate        -- eigenvalues (a, b, b) solved for fa_target and md
        oblate         -- eigenvalues (a, a, b) solved for fa_target and md
        random_spd     -- eigenvalues uniform in eig_range
        two_population -- random_spd voxels; the second half has eigenvalues
                          scaled by `shift` (distribution-shift surrogate)
    orientation: "fixed" keeps the generator axes; "uniform" applies an
        independent uniform random rotation per voxel.
    snr_db: amplitude SNR; math.inf means noiseless.
    """

    n_voxels: int
    scheme: GradientScheme
    generator: str = "prolate"
    fa_target: float = 0.8
    md: float = 0.9e-3
    eig_range: tuple = (0.1e-3, 3.0e-3)
    shift: float = 1.8
    elements: Optional[np.ndarray] = None
    orientation: str = "uniform"
    snr_db: float = 30.0
    snr_range: Optional[tuple] = None  # per-voxel uniform SNR draw, overrides snr_db
    seed: int = 0
    # (3,) eigenvalues solved once for prolate/oblate, by __post_init__
    axisym_eigenvalues: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n_voxels < 1:
            raise ValueError(f"n_voxels must be >= 1, not {self.n_voxels}")
        if self.generator not in GENERATORS:
            raise ValueError(f"generator must be one of {GENERATORS}, not {self.generator!r}")
        if self.generator == "fixed" and self.elements is None:
            raise ValueError("generator 'fixed' requires elements")
        if not 0.0 <= self.fa_target < 1.0:
            raise ValueError(f"fa_target must be in [0, 1), not {self.fa_target}")
        if not 0 < self.md < math.inf:
            raise ValueError(f"md must be positive and finite, not {self.md}")
        low, high = self.eig_range
        if not 0 < high < math.inf:
            raise ValueError(f"eig_max must be positive and finite, not {high}")
        if not 0 < low <= high:
            raise ValueError(f"eig_min must be in (0, eig_max = {high}], not {low}")
        if not 0 < self.shift < math.inf:
            raise ValueError(f"shift must be positive and finite, not {self.shift}")
        if self.orientation not in ("fixed", "uniform"):
            raise ValueError(f"orientation must be fixed or uniform, not {self.orientation!r}")
        if not self.snr_db > -math.inf:  # NaN fails too
            raise ValueError(f"snr_db must be > -inf, not {self.snr_db}")
        snr = self.snr_range
        if snr is not None and not (len(snr) == 2 and -math.inf < snr[0] <= snr[1] < math.inf):
            raise ValueError(f"snr_range must be finite (low, high), low <= high, not {snr}")
        if self.generator in ("prolate", "oblate"):  # raises if fa_target is out of reach
            self.axisym_eigenvalues = _axisym_eigenvalues(
                self.fa_target, self.md, self.generator == "prolate"
            )


def fibonacci_directions(n: int) -> np.ndarray:
    """n roughly uniform unit vectors (Fibonacci spiral on the sphere)."""
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / n
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    theta = golden * i
    dirs = np.stack([radius * np.cos(theta), radius * np.sin(theta), z], axis=1)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def make_scheme(n_directions: int, bvalue: float = 1000.0, n_b0: int = 2) -> GradientScheme:
    """Standard test scheme: n_b0 b=0 entries plus a Fibonacci shell.

    With a single shell, one lone b=0 row is an exact interpolation point
    of the log-linear fit (leverage 1), which wild bootstrap rejects; two
    b=0 entries keep every leverage strictly below 1.
    """
    dirs = np.vstack([np.zeros((n_b0, 3)), fibonacci_directions(n_directions)])
    bvals = np.concatenate([np.zeros(n_b0), np.full(n_directions, float(bvalue))])
    return GradientScheme(dirs, bvals)


def _axisym_eigenvalues(fa_target: float, md: float, prolate: bool) -> np.ndarray:
    """Solve the one-parameter axisymmetric family for an FA target by bisection.

    Prolate: (a, b, b) with a >= b; oblate: (a, a, b) with a >= b. Both
    families sweep FA monotonically in the eigenvalue ratio, so bisection
    on the ratio pins fa_target; scaling then matches md exactly.
    """
    if fa_target == 0.0:
        return np.full(3, md)

    def fa_of_ratio(t: float) -> float:
        # t = minor/major in (0, 1]: FA of the diagonal tensor of those eigenvalues
        lam = [1.0, t, t] if prolate else [1.0, 1.0, t]
        return float(fa_md(np.array(lam + [0.0, 0.0, 0.0]))[0])

    # prolate FA -> 1 as t -> 0; oblate tops out at FA(t=0) = 1/sqrt(2)
    if not prolate and fa_target >= fa_of_ratio(1e-12):
        raise ValueError(f"fa_target {fa_target} not reachable by an oblate tensor")
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fa_of_ratio(mid) > fa_target:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    lam = np.array([1.0, t, t]) if prolate else np.array([1.0, 1.0, t])
    lam *= md / lam.mean()
    if np.any(lam <= 0):
        raise ValueError(f"fa_target {fa_target} with md {md} needs a non-positive eigenvalue")
    return lam


def quaternion_rotations(quats: np.ndarray) -> np.ndarray:
    """(n, 4) unit quaternions (w, x, y, z) -> (n, 3, 3) rotation matrices."""
    w, x, y, z = np.moveaxis(np.asarray(quats, dtype=np.float64), -1, 0)
    rows = (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def rician(signal, sigma_n, n1, n2) -> np.ndarray:
    """Magnitude of signal + sigma_n * (n1 + i n2) for standard-normal n1, n2, elementwise."""
    return np.sqrt((signal + sigma_n * n1) ** 2 + (sigma_n * n2) ** 2)


@dataclass(frozen=True)
class Phantom:
    """A synthetic dataset, one row per voxel."""

    signals: np.ndarray  # (n, m) noisy magnitudes, normalized to S0 = 1
    truth: np.ndarray  # (n, 6) ground-truth tensor elements
    population: np.ndarray  # (n,) 0 = base, 1 = shifted (two_population only)


def make_phantom(spec: PhantomSpec) -> Phantom:
    """Ground-truth tensors and noisy signals for one PhantomSpec.

    Deterministic in spec.seed. Voxel v draws from its own stream keyed
    (seed, v), in this order: eigenvalues (random_spd, two_population), the
    rotation quaternion (uniform orientation), the SNR (snr_range), then
    the Box-Muller uniforms (finite SNR). Only these draws run per voxel;
    tensors, signals and noise are computed on the voxel axis. So a voxel's
    row does not depend on the other voxels, except that two_population
    shifts the rows from n_voxels // 2 on.
    """
    n, m = spec.n_voxels, len(spec.scheme)
    random_eigenvalues = spec.generator in ("random_spd", "two_population")
    eigenvalues, quats = np.empty((n, 3)), np.empty((n, 4))
    noisy, sigma_n, uniforms = np.zeros(n, dtype=bool), np.empty(n), np.empty((2, n, m))
    for voxel in range(n):
        rng = rng_from_key(spec.seed, voxel)
        if random_eigenvalues:
            eigenvalues[voxel] = rng.uniform(*spec.eig_range, size=3)
        if spec.orientation == "uniform":
            quats[voxel] = _unit_quaternion(rng)
        snr = spec.snr_db if spec.snr_range is None else float(rng.uniform(*spec.snr_range))
        if snr != math.inf:
            noisy[voxel], sigma_n[voxel] = True, 10.0 ** (-snr / 20.0)
            uniforms[0, voxel], uniforms[1, voxel] = rng.random(m), rng.random(m)

    shifted = (np.arange(n) >= n // 2) & (spec.generator == "two_population")
    if spec.generator in ("prolate", "oblate"):
        eigenvalues[:] = spec.axisym_eigenvalues
    elif random_eigenvalues:
        scale = np.where(shifted, spec.shift, 1.0)
        eigenvalues = np.sort(eigenvalues, axis=1)[:, ::-1] * scale[:, None]
    truth = np.concatenate([eigenvalues, np.zeros((n, 3))], axis=1)
    if spec.generator == "fixed":
        truth[:] = np.reshape(spec.elements, 6)
    if spec.orientation == "uniform":
        rot = quaternion_rotations(quats)
        truth = matrices_to_elements(rot @ elements_to_matrices(truth) @ rot.swapaxes(1, 2))

    signals = predict_signal_batch(truth, spec.scheme)
    n1, n2 = box_muller(uniforms[0, noisy], uniforms[1, noisy])
    signals[noisy] = rician(signals[noisy], sigma_n[noisy, None], n1, n2)
    return Phantom(signals, truth, shifted.astype(np.int64))


def monte_carlo_oracle(
    truth: np.ndarray,
    scheme: GradientScheme,
    snr_db: float,
    n_realizations: int = 2000,
    seed: int = 0,
) -> np.ndarray:
    """Empirical uncertainty of one voxel from independent noise realizations.

    truth is a (6,) tensor element row, as in Phantom.truth. Realization k is
    voxel k of a fixed-generator phantom of it, noised from the stream keyed
    (seed, k). All are refitted in one batch, whose elements and
    eigenvectors give the (3,) row theta95, sigma_fa, sigma_md: the ground
    truth that bootstrap and dropout uncertainties are judged against.
    """
    if n_realizations < 100:
        raise ValueError("n_realizations must be >= 100")
    realizations = PhantomSpec(
        n_voxels=n_realizations, scheme=scheme, generator="fixed", elements=truth,
        orientation="fixed", snr_db=snr_db, seed=seed,
    )
    noisy = make_phantom(realizations).signals
    beta, _, (_, evecs) = fit_cwlls_batch(log_signal_rows(noisy, scheme), scheme)
    if not np.all(np.isfinite(beta)):
        bad = int(np.where(~np.isfinite(beta).all(axis=1))[0][0])
        raise RuntimeError(f"oracle fit diverged at realization {bad}")
    return replicate_statistics(beta[:, :6], evecs, n_realizations)[0]
