"""Synthetic phantoms, Rician noise at controlled SNR, and the Monte-Carlo
gold-standard uncertainty oracle.

SNR is amplitude SNR in dB relative to the normalized baseline S0 = 1, so
the per-channel Gaussian noise level is sigma_n = 10**(-snr_db / 20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import (
    DiffusionTensor,
    GradientScheme,
    elements_to_matrices,
    fa_md_from_eigenvalues,
    matrices_to_elements,
    predict_signal,
)
from .fitting import fit_cwlls_batch
from .bootstrap import TensorSampleSet, UncertaintyBundle, summarize_uncertainty
from .rng import gaussian_pair, rng_from_key

GENERATORS = ("fixed", "prolate", "oblate", "random_spd", "two_population")


@dataclass
class PhantomSpec:
    """Recipe for one synthetic dataset.

    generator:
        fixed          -- every voxel carries `elements` verbatim
        prolate        -- eigenvalues (a, b, b) solved for fa_target and md
        oblate         -- eigenvalues (a, a, b) solved for fa_target and md
        random_spd     -- eigenvalues uniform in eig_range, random rotation
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

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if not 0.0 <= self.fa_target < 1.0:
            raise ValueError("fa_target must be in [0, 1)")
        if self.md <= 0:
            raise ValueError("md must be positive")
        if self.orientation not in ("fixed", "uniform"):
            raise ValueError("orientation must be 'fixed' or 'uniform'")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")
        if self.snr_range is not None and len(self.snr_range) != 2:
            raise ValueError("snr_range must be (low, high)")


@dataclass
class VoxelRecord:
    """One voxel: measurements plus (for synthetic data) the ground truth."""

    signals: np.ndarray  # (m,)
    truth: Optional[DiffusionTensor] = None
    s0: float = 1.0
    population: int = 0  # 0 = base, 1 = shifted (two_population only)


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
        # t = minor/major in (0, 1]
        lam = np.array([1.0, t, t]) if prolate else np.array([1.0, 1.0, t])
        return float(fa_md_from_eigenvalues(lam)[0])

    # prolate FA -> 1 as t -> 0; oblate tops out at FA(t=0) = 1/sqrt(2)
    if not prolate and fa_target >= fa_of_ratio(1e-12):
        raise ValueError("fa_target not reachable by an oblate tensor")
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
        raise ValueError("fa_target/md combination needs a negative eigenvalue")
    return lam


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation from a normalized random quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def add_rician(signal, snr_db: float, rng: np.random.Generator, s0: float = 1.0):
    """Magnitude signal after adding complex Gaussian noise.

    Returns sqrt((S + n1)^2 + n2^2) with n1, n2 ~ Normal(0, sigma_n) and
    sigma_n = s0 * 10**(-snr_db / 20). snr_db = inf leaves S untouched.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if math.isinf(snr_db) and snr_db > 0:
        return signal.copy()
    sigma_n = s0 * 10.0 ** (-snr_db / 20.0)
    n1, n2 = gaussian_pair(rng, signal.shape)
    return np.sqrt((signal + sigma_n * n1) ** 2 + (sigma_n * n2) ** 2)


def _truth_elements(
    spec: PhantomSpec, voxel: int, rng: np.random.Generator, axisym: Optional[np.ndarray]
):
    """Ground-truth tensor elements and population label for one voxel.

    axisym holds the prolate/oblate eigenvalues, solved once per spec.
    """
    population = 0
    if spec.generator == "fixed":
        if spec.elements is None:
            raise ValueError("fixed generator requires elements")
        lam = None
        base = np.asarray(spec.elements, dtype=np.float64)
    elif spec.generator in ("prolate", "oblate"):
        lam = axisym
    else:  # random_spd / two_population
        lam = rng.uniform(spec.eig_range[0], spec.eig_range[1], size=3)
        lam = np.sort(lam)[::-1]
        if spec.generator == "two_population" and voxel >= spec.n_voxels // 2:
            lam = lam * spec.shift
            population = 1
    if lam is not None:
        base = matrices_to_elements(np.diag(lam)[None])[0]
    if spec.orientation == "uniform":
        rot = random_rotation(rng)
        mat = rot @ elements_to_matrices(base[None])[0] @ rot.T
        base = matrices_to_elements(mat[None])[0]
    return base, population


def make_phantom(spec: PhantomSpec) -> list[VoxelRecord]:
    """Generate ground-truth tensors and noisy signals for one PhantomSpec.

    Deterministic in spec.seed; voxel streams are keyed (seed, voxel), so
    records do not depend on generation order.
    """
    axisym = None
    if spec.generator in ("prolate", "oblate"):
        axisym = _axisym_eigenvalues(spec.fa_target, spec.md, spec.generator == "prolate")
    records = []
    for voxel in range(spec.n_voxels):
        rng = rng_from_key(spec.seed, voxel)
        elements, population = _truth_elements(spec, voxel, rng, axisym)
        truth = DiffusionTensor(elements, ln_s0=0.0)
        clean = predict_signal(truth, spec.scheme)
        if spec.snr_range is not None:
            snr = float(rng.uniform(spec.snr_range[0], spec.snr_range[1]))
        else:
            snr = spec.snr_db
        noisy = add_rician(clean, snr, rng)
        records.append(
            VoxelRecord(signals=noisy, truth=truth, s0=1.0, population=population)
        )
    return records


def monte_carlo_oracle(
    tensor: DiffusionTensor,
    scheme: GradientScheme,
    snr_db: float,
    n_realizations: int = 2000,
    estimator: str = "cwlls",
    seed: int = 0,
) -> UncertaintyBundle:
    """Empirical uncertainty from independent noise realizations.

    Each realization adds fresh Rician noise to the noiseless prediction and
    refits; the bundle of the resulting tensor set is the ground truth that
    bootstrap and dropout uncertainties are judged against.
    """
    if estimator != "cwlls":
        raise ValueError("only the cwlls estimator is supported")
    if n_realizations < 100:
        raise ValueError("n_realizations must be >= 100")
    clean = predict_signal(tensor, scheme)
    noisy = np.empty((n_realizations, len(clean)))
    for k in range(n_realizations):
        noisy[k] = add_rician(clean, snr_db, rng_from_key(seed, k))
    try:
        beta = fit_cwlls_batch(noisy, scheme)[0]
    except Exception as exc:  # pragma: no cover - degenerate schemes only
        raise RuntimeError(f"oracle fit failed: {exc}") from exc
    if not np.all(np.isfinite(beta)):
        bad = int(np.where(~np.isfinite(beta).all(axis=1))[0][0])
        raise RuntimeError(f"oracle fit diverged at realization {bad}")
    samples = TensorSampleSet(beta[:, :6], "monte_carlo_oracle")
    return summarize_uncertainty(samples)
