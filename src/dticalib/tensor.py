"""Core diffusion tensor math: signal model, 3x3 symmetric eigensolver, scalar maps.

`fa_md` is the one FA/MD formula: elementwise, from the six elements, for
truth, point estimates and replicates alike. Eigensolves give only axes (and
the eigenvalues fitting's SPD floor clamps). `principal_scalars` adds the
principal axis in closed form (Smith's lambda1, v1 from cross products) and
marks the rows it cannot settle loose: near-degenerate lambda1 or isotropic.

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
# principal_scalars: cross-product threshold below which a row is loose
CROSS_PRODUCT_TOL = 1e-4


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
        if not np.all(np.isfinite(self.bvalues)):
            raise ValueError("bvalues must be finite")
        if np.any(self.bvalues < 0):
            raise ValueError("bvalues must be nonnegative")
        if not np.all(np.isfinite(self.directions)):
            raise ValueError("directions must be finite")
        norms = np.linalg.norm(self.directions, axis=1)
        weighted = self.bvalues > 0
        if np.any(np.abs(norms[weighted] - 1.0) > DIRECTION_NORM_TOL):
            raise ValueError("weighted directions must have unit norm")
        zero_ok = (np.abs(norms - 1.0) <= DIRECTION_NORM_TOL) | (norms == 0.0)
        if not np.all(zero_ok):
            raise ValueError("b=0 directions must be unit or zero vectors")

    def __len__(self):
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


def _fa_md_parts(elements):
    """fa_md of (..., 6) rows; then the deviatoric D - MD I, elements on the leading
    axis, at an exact power-of-two scale that puts its largest entry in [0.5, 1)
    (below, if it is subnormal) so fourth powers stay in range, and the squared
    norms dev2 of it and norm2 of D at that scale. A non-finite row, or one whose
    trace overflows, runs as zeros."""
    e = np.asarray(elements, dtype=np.float64)
    if e.shape[-1:] != (6,):
        raise ValueError("expected (..., 6) input")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf
        trace = e[..., 0] + e[..., 1] + e[..., 2]
    finite = np.isfinite(trace) & np.all(np.isfinite(e[..., 3:]), axis=-1)
    cols = np.where(finite, np.ascontiguousarray(np.moveaxis(e, -1, 0)), 0.0)
    md = np.where(finite, trace, 0.0) / 3.0
    cols[:3] -= md
    exponent = np.frexp(np.max(np.abs(cols), axis=0))[1]
    scale = np.ldexp(1.0, -np.maximum(exponent, -1021))
    cols *= scale
    a, b, c, xy, xz, yz = cols
    dev2 = a * a + b * b + c * c + 2.0 * (xy * xy + xz * xz + yz * yz)
    with np.errstate(over="ignore"):  # MD beyond 1e154 x the anisotropy: inf, loose
        mds = md * scale
        norm2 = dev2 + 3.0 * (mds * mds)
    fa = np.sqrt(np.divide(1.5 * dev2, norm2, out=np.zeros_like(dev2), where=norm2 > 0))
    fa = np.where(finite, np.clip(fa, 0.0, 1.0), np.nan)
    return fa, np.where(finite, md, np.nan), cols, dev2, norm2


def fa_md(elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FA and MD of (..., 6) tensor rows, the package's one FA/MD formula.

    MD = tr D / 3 and FA = sqrt(3/2) ||D - MD I||_F / ||D||_F (Basser & Pierpaoli
    1996, J Magn Reson B 111:209), 0 for the zero tensor, clipped to [0, 1]. Both
    are NaN for a row that is non-finite or whose trace overflows. Elementwise,
    so a row does not depend on its batch.
    """
    return _fa_md_parts(elements)[:2]


def principal_scalars(elements: np.ndarray):
    """fa_md and the closed-form principal axis of (..., 6) rows, with a loose mask.

    lambda1 of the deviatoric comes from Smith's trigonometric formula
    (Smith 1961, CACM 4(4):168) and v1 is the largest of the three row cross
    products of (D - MD I) - lambda1 I, the columns of its adjugate (Kopp
    2008, arXiv:physics/0610206). Each row is computed on its own,
    elementwise, so it does not depend on what else is in the batch.

    Smith's lambda1 loses accuracy as lambda1 nears lambda2, and v1 with it
    (its error grows as eps / gap^2). A row is loose when that largest squared
    cross product is at most
    CROSS_PRODUCT_TOL * ||D - MD I||^2 * max(||D - MD I||^2, CROSS_PRODUCT_TOL * ||D||^2):
    the first factor bounds the closed form's error, the second marks rows
    whose anisotropy is too near the rounding of ||D|| for any solver to fix
    an axis. Isotropic rows and fa_md's NaN rows are loose. Loose rows carry
    no usable v1; callers decompose them with eigh3_batch.

    Returns:
        fa (...), md (...), v1 (..., 3) unit rows, loose (...) bool.
    """
    fa, md, (a, b, c, xy, xz, yz), dev2, norm2 = _fa_md_parts(elements)
    off2 = xy * xy + xz * xz + yz * yz
    q = (a + b + c) / 3.0  # the rounding left in the deviatoric's trace
    a0, b0, c0 = a - q, b - q, c - q
    p = np.sqrt((a0 * a0 + b0 * b0 + c0 * c0 + 2.0 * off2) / 6.0)
    det = a0 * (b0 * c0 - yz * yz) - xy * (xy * c0 - yz * xz) + xz * (xy * yz - b0 * xz)
    half_det = np.divide(det, 2.0 * p * p * p, out=np.zeros_like(p), where=p > 0)
    lam1 = q + 2.0 * p * np.cos(np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0)

    # adjugate of M = dev - lam1 I; its columns are the row cross products of M
    am, bm, cm = a - lam1, b - lam1, c - lam1
    m00, m11, m22 = bm * cm - yz * yz, am * cm - xz * xz, am * bm - xy * xy
    m01, m02, m12 = xz * yz - xy * cm, xy * yz - bm * xz, xy * xz - am * yz
    sq0 = m00 * m00 + m01 * m01 + m02 * m02
    sq1 = m01 * m01 + m11 * m11 + m12 * m12
    sq2 = m02 * m02 + m12 * m12 + m22 * m22
    pick0 = (sq0 >= sq1) & (sq0 >= sq2)
    pick1 = ~pick0 & (sq1 >= sq2)
    best = np.where(pick0, sq0, np.where(pick1, sq1, sq2))
    v1 = np.stack(
        [
            np.where(pick0, m00, np.where(pick1, m01, m02)),
            np.where(pick0, m01, np.where(pick1, m11, m12)),
            np.where(pick0, m02, np.where(pick1, m12, m22)),
        ],
        axis=-1,
    )
    v1 /= np.sqrt(np.where(best > 0, best, 1.0))[..., None]
    sure = (best > CROSS_PRODUCT_TOL * dev2 * dev2) & (
        best > CROSS_PRODUCT_TOL * CROSS_PRODUCT_TOL * dev2 * norm2
    )
    return fa, md, v1, ~sure


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
