"""Core diffusion tensor math: signal model, 3x3 symmetric eigensolver, scalar maps.

Tensors cross every module boundary as (n, 6) element rows. `fa_md` is the
one FA/MD formula: elementwise, from the six elements, for truth, point
estimates and replicates alike. Eigensolves give only axes (and the
eigenvalues fitting's SPD floor clamps). `eigh3_batch` solves such rows in
closed form, elementwise on the row axis: Smith's lambda1 and lambda3
(Smith 1961, CACM 4(4):168), v1 and v3 from the cross products of
D - lambda I (Kopp 2008, arXiv:physics/0610206), v2 = v3 x v1, and the
eigenvalues as Rayleigh quotients. Only the rows it cannot settle, which are
non-finite, zero or isotropic, or have lambda1 or lambda3 near lambda2, are
built into 3x3 matrices, for LAPACK. `principal_scalars` runs the same
helpers for the principal axis alone and marks the rows whose lambda1 it
cannot settle loose.

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
# eigh3_batch and principal_scalars: cross-product threshold below which an axis
# is loose
CROSS_PRODUCT_TOL = 1e-4
# rows per block of principal_scalars, so that its temporaries stay in cache:
# on 200k rows (x86-64 with AVX-512, one thread) 8192 took 40 ms, 2048 46 ms,
# 32768 55 ms and one block 85 ms
SCALAR_BLOCK_ROWS = 8192
# row and column of each of the six elements in a symmetric 3x3 matrix
ELEMENT_ROWS = np.array([0, 1, 2, 0, 0, 1])
ELEMENT_COLS = np.array([0, 1, 2, 1, 2, 2])
_THIRDS = np.array([[0.0], [2.0 * np.pi / 3.0]])  # Smith's angles of lambda1, lambda3
# (i, j, k, l) index columns of _products over the rows (a, b, c, xy, xz, yz):
# the minors along a symmetric matrix's first row, its adjugate (m00, m11, m22,
# m01, m02, m12), and over the rows (u, v) of two vectors, u x v
_FIRST_ROW = np.array([0, 3, 4])
_FIRST_ROW_MINORS = np.array([[1, 3, 3], [2, 2, 5], [5, 5, 1], [5, 4, 4]])
_ADJUGATE = np.array([[1, 0, 0, 4, 3, 3], [2, 2, 1, 5, 5, 4],
                      [5, 4, 3, 3, 1, 0], [5, 4, 3, 2, 4, 5]])
_ADJUGATE_COLUMNS = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_CROSS = np.array([[1, 2, 0], [5, 3, 4], [2, 0, 1], [4, 5, 3]])


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


def eigh3_batch(elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose a batch of symmetric 3x3 tensors given as (n, 6) rows.

    Every row is solved in closed form: Smith's lambda1 and lambda3 give v1
    and v3 from the adjugates of (D - lambda I), and v2 = v3 x v1; the
    eigenvalues are their Rayleigh quotients v^T D v. A row is loose when
    either axis is (non-finite, zero or isotropic rows, and lambda1 or
    lambda3 near lambda2); LAPACK (numpy's eigh) decomposes the loose rows,
    the only ones built into 3x3 matrices. Each row is computed on its own,
    so its result does not depend on what else is in the batch.

    Args:
        elements: (n, 6) tensor rows (Dxx, Dyy, Dzz, Dxy, Dxz, Dyz).

    Returns:
        eigenvalues (n, 3) sorted descending, eigenvectors (n, 3, 3) with
        rows as eigenvectors (evecs[i, k] pairs with evals[i, k]).
    """
    rows = np.asarray(elements, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != 6:
        raise ValueError("expected (n, 6) input")
    e = _element_columns(rows)
    _, cols, scale, dev2, norm2 = _deviatoric(e)
    q, p2, phi = _smith(cols)
    axes, sure = _adjugate_axes(cols, q + p2 * np.cos(phi + _THIRDS), dev2, norm2)
    sure = sure[0] & sure[1]
    vecs = np.empty((3, 3, len(rows)))  # eigenvector, component, row
    vecs[0], vecs[2] = axes[:, 0], axes[:, 1]
    vecs[1] = _products(np.concatenate([vecs[2], vecs[0]]), _CROSS)  # v3 x v1
    # Rayleigh quotients v^T D v on D itself, at the deviatoric's exact scale,
    # keep a small eigenvalue's relative accuracy, which lambda - MD loses
    xx, yy, zz, xy, xz, yz = np.where(sure, e, 0.0) * scale
    x, y, z = vecs[:, 0], vecs[:, 1], vecs[:, 2]
    vals = xx * x * x + yy * y * y + zz * z * z + 2.0 * (xy * x * y + xz * x * z + yz * y * z)
    vals /= scale
    loose = ~sure
    if loose.any():
        w, v = np.linalg.eigh(elements_to_matrices(rows[loose]))
        vals[:, loose] = w.T[::-1]
        vecs[:, :, loose] = v.transpose(2, 1, 0)[::-1]
    # C order: strides that do not depend on n, so neither do later einsum loops
    return np.ascontiguousarray(vals.T), np.ascontiguousarray(vecs.transpose(2, 0, 1))


def _element_columns(elements):
    """(6, ...) C-ordered columns of (..., 6) tensor rows: every later step then
    reads contiguous rows."""
    e = np.asarray(elements, dtype=np.float64)
    if e.shape[-1:] != (6,):
        raise ValueError("expected (..., 6) input")
    return np.ascontiguousarray(np.moveaxis(e, -1, 0))


def _deviatoric(e):
    """The deviatoric D - MD I of tensor rows given as (6, ...) columns e, at an
    exact power-of-two scale that puts its largest entry in [0.5, 1) (below, if
    it is subnormal) so fourth powers stay in range. Returns md (...), that
    deviatoric (6, ...), the scale, and the squared norms dev2 of it and norm2
    of D at that scale. A non-finite row, or one whose trace overflows, runs as
    zeros with a NaN md."""
    # inf - inf in the trace; MD beyond 1e154 x the anisotropy overflows norm2: loose
    with np.errstate(over="ignore", invalid="ignore"):
        trace = e[0] + e[1] + e[2]
        finite = np.isfinite(trace) & np.logical_and.reduce(np.isfinite(e[3:]))
        cols = np.where(finite, e, 0.0)
        md = np.where(finite, trace, 0.0) / 3.0
        cols[:3] -= md
        exponent = np.frexp(np.maximum.reduce(np.abs(cols)))[1]
        scale = np.ldexp(1.0, -np.maximum(exponent, -1021))
        cols *= scale
        sq = cols * cols
        dev2 = sq[0] + sq[1] + sq[2] + 2.0 * (sq[3] + sq[4] + sq[5])
        mds = md * scale
        norm2 = dev2 + 3.0 * (mds * mds)
    return np.where(finite, md, np.nan), cols, scale, dev2, norm2


def _fa(md, dev2, norm2):
    """FA from _deviatoric's parts: NaN where md is."""
    fa = np.sqrt(np.divide(1.5 * dev2, norm2, out=np.zeros(dev2.shape), where=norm2 > 0))
    return np.where(np.isnan(md), np.nan, np.minimum(fa, 1.0))


def _products(f, pairs):
    """f[i] * f[j] - f[k] * f[l] for each (i, j, k, l) column of pairs, along f's
    leading axis: one ufunc call per step, whatever the number of products."""
    i, j, k, l = pairs
    return f[i] * f[j] - f[k] * f[l]


def _smith(cols):
    """q, 2p and phi of Smith's eigenvalues q + 2p cos(phi + 2 pi k / 3) of the
    symmetric rows cols (a, b, c, xy, xz, yz): k = 0 gives lambda1 and k = 1
    lambda3 (Smith 1961, CACM 4(4):168)."""
    q = (cols[0] + cols[1] + cols[2]) / 3.0  # the rounding left in the deviatoric's trace
    f = cols.copy()
    f[:3] -= q
    sq = f * f
    p = np.sqrt((sq[0] + sq[1] + sq[2] + 2.0 * (sq[3] + sq[4] + sq[5])) / 6.0)
    # det f along its first row: a0 (b0 c0 - yz^2) - xy (xy c0 - yz xz) + xz (xy yz - b0 xz)
    minors = f[_FIRST_ROW] * _products(f, _FIRST_ROW_MINORS)
    det = minors[0] - minors[1] + minors[2]
    half_det = np.divide(det, 2.0 * p * p * p, out=np.zeros(p.shape), where=p > 0)
    return q, 2.0 * p, np.arccos(np.maximum(np.minimum(half_det, 1.0), -1.0)) / 3.0


def _adjugate_axes(cols, lam, dev2, norm2):
    """Unit axes (3, j, ...) of _deviatoric's cols (6, ...) for their eigenvalues
    lam (j, ...), and which of them are sure (j, ...).

    The axis is the largest of the three row cross products of M = cols - lam I,
    the columns of its adjugate (Kopp 2008, arXiv:physics/0610206), the first
    on a tie. It loses accuracy as lam nears another eigenvalue (its error grows
    as eps / gap^2), so an axis is sure only when that largest squared cross
    product exceeds CROSS_PRODUCT_TOL * dev2 * max(dev2, CROSS_PRODUCT_TOL * norm2):
    the first factor bounds the closed form's error, the second marks rows whose
    anisotropy is too near the rounding of ||D|| for any solver to fix an axis.
    Zero rows, and so _deviatoric's non-finite ones, are never sure.
    """
    m = np.empty((6,) + lam.shape)
    m[:3] = cols[:3, None] - lam
    m[3:] = cols[3:, None]
    adjugate = _products(m, _ADJUGATE)[_ADJUGATE_COLUMNS]  # (column, component, ...)
    sq = adjugate * adjugate
    sq = sq[:, 0] + sq[:, 1] + sq[:, 2]
    pick0 = (sq[0] >= sq[1]) & (sq[0] >= sq[2])
    pick1 = ~pick0 & (sq[1] >= sq[2])
    best = np.where(pick0, sq[0], np.where(pick1, sq[1], sq[2]))
    axes = np.where(pick0, adjugate[0], np.where(pick1, adjugate[1], adjugate[2]))
    axes /= np.sqrt(np.where(best > 0, best, 1.0))
    sure = (best > CROSS_PRODUCT_TOL * dev2 * dev2) & (
        best > CROSS_PRODUCT_TOL * CROSS_PRODUCT_TOL * dev2 * norm2
    )
    return axes, sure


def fa_md(elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FA and MD of (..., 6) tensor rows, the package's one FA/MD formula.

    MD = tr D / 3 and FA = sqrt(3/2) ||D - MD I||_F / ||D||_F (Basser & Pierpaoli
    1996, J Magn Reson B 111:209), 0 for the zero tensor, clipped to [0, 1]. Both
    are NaN for a row that is non-finite or whose trace overflows. Elementwise,
    so a row does not depend on its batch.
    """
    md, _, _, dev2, norm2 = _deviatoric(_element_columns(elements))
    return _fa(md, dev2, norm2), md


def principal_scalars(elements: np.ndarray):
    """fa_md and the closed-form principal axis of (..., 6) rows, with a loose mask.

    lambda1 of the deviatoric comes from Smith's formula and v1 from the
    adjugate of (D - MD I) - lambda1 I, bit for bit as eigh3_batch's closed
    form computes them. A row is loose when that axis is not sure (see
    _adjugate_axes): isotropic rows, fa_md's NaN rows, and rows whose lambda1
    nears lambda2. Each row is computed on its own, elementwise, so it does
    not depend on what else is in the batch; rows run SCALAR_BLOCK_ROWS at a
    time. Loose rows carry no usable v1; callers decompose them with
    eigh3_batch, which finds them loose too and hands them to LAPACK.

    Returns:
        fa (...), md (...), v1 (..., 3) unit rows, loose (...) bool.
    """
    e = np.asarray(elements, dtype=np.float64)
    if e.shape[-1:] != (6,):
        raise ValueError("expected (..., 6) input")
    rows = e.reshape(-1, 6)
    n = len(rows)
    fa, md, v1, loose = np.empty(n), np.empty(n), np.empty((n, 3)), np.empty(n, dtype=bool)
    for start in range(0, n, SCALAR_BLOCK_ROWS):
        block = slice(start, start + SCALAR_BLOCK_ROWS)
        fa[block], md[block], v1[block], loose[block] = _principal_block(rows[block])
    shape = e.shape[:-1]
    return fa.reshape(shape), md.reshape(shape), v1.reshape(shape + (3,)), loose.reshape(shape)


def _principal_block(rows):
    """principal_scalars of (n, 6) rows, in one pass of each kernel."""
    md, cols, _, dev2, norm2 = _deviatoric(_element_columns(rows))
    q, p2, phi = _smith(cols)
    v1, sure = _adjugate_axes(cols, (q + p2 * np.cos(phi))[None], dev2, norm2)
    return _fa(md, dev2, norm2), md, v1[:, 0].T, ~sure[0]


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
    return np.asarray(mats, dtype=np.float64)[..., ELEMENT_ROWS, ELEMENT_COLS]
