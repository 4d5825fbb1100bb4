"""Core diffusion tensor math: signal model, 3x3 symmetric eigensolver, scalar maps.

Conventions used throughout the package:

* tensor elements are ordered (Dxx, Dyy, Dzz, Dxy, Dxz, Dyz), units mm^2/s
* the fitted parameter vector is those 6 elements followed by ln(S0)
* eigenvalues are sorted descending; eigenvectors are returned as rows
* eigenvector signs are arbitrary; downstream code must not depend on them
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIRECTION_NORM_TOL = 1e-9


@dataclass
class GradientScheme:
    """Acquisition table: one (direction, b-value) pair per measurement.

    Directions are unit vectors; b=0 entries may carry the zero vector.
    """

    directions: np.ndarray  # (m, 3)
    bvalues: np.ndarray  # (m,), s/mm^2

    def __post_init__(self):
        self.directions = np.asarray(self.directions, dtype=np.float64)
        self.bvalues = np.asarray(self.bvalues, dtype=np.float64)
        if self.directions.ndim != 2 or self.directions.shape[1] != 3:
            raise ValueError("directions must be an (m, 3) array")
        if self.bvalues.shape != (self.directions.shape[0],):
            raise ValueError("bvalues length must match directions")
        if np.any(self.bvalues < 0):
            raise ValueError("bvalues must be nonnegative")
        norms = np.linalg.norm(self.directions, axis=1)
        weighted = self.bvalues > 0
        if np.any(np.abs(norms[weighted] - 1.0) > DIRECTION_NORM_TOL):
            raise ValueError("weighted directions must have unit norm")
        zero_ok = (np.abs(norms - 1.0) <= DIRECTION_NORM_TOL) | (norms == 0.0)
        if not np.all(zero_ok):
            raise ValueError("b=0 directions must be unit or zero vectors")

    def __len__(self):
        return len(self.bvalues)

    @property
    def n_measurements(self) -> int:
        return len(self.bvalues)


def predict_signal_batch(elements: np.ndarray, scheme: GradientScheme) -> np.ndarray:
    """Normalized diffusion signals S/S0 = exp(-b g^T D g), (n, 6) rows -> (n, m).

    b=0 entries give exactly 1. Each row is computed on its own, so it does
    not depend on what else is in the batch.
    """
    elements = np.asarray(elements, dtype=np.float64)
    if not np.all(np.isfinite(elements)):
        raise ValueError("non-finite input")
    g = scheme.directions
    mats = elements_to_matrices(elements)
    return np.exp(-(scheme.bvalues * np.einsum("ij,njk,ik->ni", g, mats, g)))


def design_matrix(scheme: GradientScheme) -> np.ndarray:
    """(m, 7) log-linear design: X @ (elements, ln_s0) == ln S for noiseless data."""
    g = scheme.directions
    b = scheme.bvalues
    gx, gy, gz = g[:, 0], g[:, 1], g[:, 2]
    return np.stack(
        [
            -b * gx * gx,
            -b * gy * gy,
            -b * gz * gz,
            -2 * b * gx * gy,
            -2 * b * gx * gz,
            -2 * b * gy * gz,
            np.ones_like(b),
        ],
        axis=1,
    )


def eigh3_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose a batch of symmetric 3x3 matrices (LAPACK, via numpy).

    Each matrix is decomposed on its own, so a row's result does not depend
    on what else is in the batch.

    Args:
        mats: (n, 3, 3) symmetric matrices.

    Returns:
        eigenvalues (n, 3) sorted descending, eigenvectors (n, 3, 3) with
        rows as eigenvectors (evecs[i, k] pairs with evals[i, k]).
    """
    a = np.asarray(mats, dtype=np.float64)
    if a.ndim != 3 or a.shape[1:] != (3, 3):
        raise ValueError("expected (n, 3, 3) input")
    evals, evecs = np.linalg.eigh(a)
    # ascending columns -> descending rows; the eigenvectors stay a view
    return np.ascontiguousarray(evals[:, ::-1]), evecs[:, :, ::-1].swapaxes(1, 2)


def fa_md_from_eigenvalues(evals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FA and MD from eigenvalue triples (last axis of length 3).

    FA of the all-zero tensor is defined as 0; FA is clipped to [0, 1]
    (unconstrained fits with negative eigenvalues can nominally exceed 1).
    """
    evals = np.asarray(evals, dtype=np.float64)
    md = evals.mean(axis=-1)
    dev = evals - md[..., None]
    denom = np.sum(evals * evals, axis=-1)
    num = 1.5 * np.sum(dev * dev, axis=-1)
    fa = np.sqrt(np.divide(num, denom, out=np.zeros_like(num), where=denom > 0))
    return np.clip(fa, 0.0, 1.0), md


def elements_to_matrices(elements: np.ndarray) -> np.ndarray:
    """(n, 6) element rows -> (n, 3, 3) symmetric matrices."""
    e = np.asarray(elements, dtype=np.float64)
    mats = np.empty(e.shape[:-1] + (3, 3))
    mats[..., 0, 0] = e[..., 0]
    mats[..., 1, 1] = e[..., 1]
    mats[..., 2, 2] = e[..., 2]
    mats[..., 0, 1] = mats[..., 1, 0] = e[..., 3]
    mats[..., 0, 2] = mats[..., 2, 0] = e[..., 4]
    mats[..., 1, 2] = mats[..., 2, 1] = e[..., 5]
    return mats


def matrices_to_elements(mats: np.ndarray) -> np.ndarray:
    """(n, 3, 3) symmetric matrices -> (n, 6) element rows."""
    m = np.asarray(mats, dtype=np.float64)
    return np.stack(
        [
            m[..., 0, 0],
            m[..., 1, 1],
            m[..., 2, 2],
            m[..., 0, 1],
            m[..., 0, 2],
            m[..., 1, 2],
        ],
        axis=-1,
    )
