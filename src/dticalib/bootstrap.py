"""Wild-bootstrap uncertainty for least-squares fits, plus the dyadic
orientation statistics shared by every replicate-based method.

Replicates from any source (wild bootstrap, dropout sampling, Monte-Carlo
noise draws) form g voxels of k replicate tensors each. One reducer,
``replicate_statistics``, takes their voxel-major elements and eigenvectors:
population std of FA and MD, and a cone angle taken as the 95th percentile
of angles between each replicate's principal direction and the mean dyadic
axis. One voxel is the g = 1 case.
"""

from __future__ import annotations

import numpy as np

from .tensor import GradientScheme, design_matrix, eigh3_batch, fa_md, matrices_to_elements
from .fitting import SIGNAL_FLOOR, fit_cwlls_batch, log_signal_rows, weighted_leverage
from .rng import WILD_BOOTSTRAP, run_stream

# Replicate rows per grouped call: wild_bootstrap_table refits, and predict
# runs dropout passes over, CHUNK_ROWS rows (whole voxels, at least one) at a
# time. Wild-bootstrap tables do not depend on it, because every kernel
# treats rows independently. Dropout forwards use BLAS matmul, which on the
# builds tested gives each row bit for bit what it gives alone; the CLI tests
# check both tables at one voxel per chunk and at all voxels in one.
CHUNK_ROWS = 1024
MIN_REPLICATES = 2  # fewer leave no spread to measure


def voxel_chunks(n_voxels: int, per_voxel: int):
    """Slices of whole voxels, CHUNK_ROWS // per_voxel (at least one) each.

    A per_voxel below 1 counts as 1, so the replicate-count checks downstream
    report it rather than a division by zero.
    """
    per_chunk = max(1, CHUNK_ROWS // max(per_voxel, 1))
    for start in range(0, n_voxels, per_chunk):
        yield slice(start, start + per_chunk)


class SaturatedLeverageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# grouped replicate reductions: g groups of k replicates each
# ---------------------------------------------------------------------------


def _mean_dyadic_axes(axes: np.ndarray) -> np.ndarray:
    """(g, 3) principal axes of the mean dyads of (g, k, 3) directions."""
    dyads = np.einsum("gki,gkj->gij", axes, axes) / axes.shape[1]
    return eigh3_batch(matrices_to_elements(dyads))[1][:, 0]


def _cone_angles_95(axes: np.ndarray) -> np.ndarray:
    """(g,) 95th percentiles of the angles (degrees) to each group's dyadic axis."""
    mean_axes = _mean_dyadic_axes(axes)
    cosines = np.clip(np.abs(np.einsum("gki,gi->gk", axes, mean_axes)), 0.0, 1.0)
    return np.percentile(np.degrees(np.arccos(cosines)), 95, axis=1, method="linear")


def replicate_statistics(elements: np.ndarray, evecs: np.ndarray, k: int) -> np.ndarray:
    """(g, 3) theta95, sigma_fa, sigma_md of g groups of k replicates, from their
    voxel-major (g * k, 6) elements and eigenvector rows (g * k, 3, 3), descending.
    Contiguous principal axes keep each group's result bitwise the same whether it
    is reduced alone or among many."""
    axes = np.ascontiguousarray(evecs[:, 0]).reshape(-1, k, 3)
    fa, md = fa_md(elements.reshape(-1, k, 6))
    return np.column_stack([_cone_angles_95(axes), np.std(fa, axis=1), np.std(md, axis=1)])


def summarize_uncertainty(elements) -> np.ndarray:
    """(g, 3) theta95, sigma_fa, sigma_md of (g, k, 6) replicate tensor elements.

    Population std of each group's replicate FA and MD, plus the 95th
    percentile (linear interpolation) of angles to its mean dyadic axis.
    The dyad v v^T and |dot| are blind to the sign of v, so angles live in
    [0, 90] degrees; identical replicates give exactly 0. The cone angle is
    meaningful for k >= 20 or so.
    """
    elements = np.asarray(elements, dtype=np.float64)
    if elements.ndim != 3 or elements.shape[2] != 6:
        raise ValueError("expected (g, k, 6) replicate elements")
    if not np.all(np.isfinite(elements)):
        raise ValueError("non-finite replicate tensors")
    if elements.shape[1] < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates")
    rows = elements.reshape(-1, 6)
    return replicate_statistics(rows, eigh3_batch(rows)[1], elements.shape[1])


# ---------------------------------------------------------------------------
# wild bootstrap
# ---------------------------------------------------------------------------


def _wild_base(y: np.ndarray, scheme: GradientScheme):
    """Base constrained WLLS fit of (n, m) log-signal rows y.

    Returns (X beta, residuals scaled by 1/sqrt(1 - h), (base tensor elements,
    their principal axes)), where h is the leverage of the weighted design.
    """
    beta, _, (_, evecs) = fit_cwlls_batch(y, scheme)
    leverage = weighted_leverage(y, scheme)
    if np.any(leverage >= 1.0 - 1e-9):
        raise SaturatedLeverageError("saturated leverage")
    y_hat = np.einsum("kj,mj->km", beta, design_matrix(scheme))
    return y_hat, (y - y_hat) / np.sqrt(1.0 - leverage), (beta[:, :6], evecs[:, 0])


def _wild_replicates(y_hat, scaled, seed, voxels, iterations: int, scheme: GradientScheme):
    """CWLLS refits of `iterations` sign-flipped residual sets per row.

    Row i draws its Rademacher signs from run_stream(seed, WILD_BOOTSTRAP,
    voxels[i]). The log-signals y* are clamped at ln SIGNAL_FLOOR, as
    log_signal_rows clamps signals. Returns the (rows * iterations, 6)
    replicate elements, voxel-major, and their eigenvector rows.
    """
    signs = np.concatenate([
        run_stream(seed, WILD_BOOTSTRAP, v).integers(0, 2, size=(iterations, y_hat.shape[1]))
        for v in voxels
    ]) * 2 - 1
    y_star = np.repeat(y_hat, iterations, axis=0) + signs * np.repeat(scaled, iterations, axis=0)
    beta, _, (_, evecs) = fit_cwlls_batch(np.maximum(y_star, np.log(SIGNAL_FLOOR)), scheme)
    if not np.all(np.isfinite(beta)):
        raise ValueError("non-finite replicate tensors")
    return beta[:, :6], evecs


def wild_bootstrap(
    signals, scheme: GradientScheme, iterations: int = 1000, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Wild-bootstrap replicates of the constrained WLLS fit of one voxel.

    The base fit supplies fitted log-signals, residuals and leverage. Each
    replicate flips residual signs with Rademacher draws and rescales them
    by 1/sqrt(1-h) before refitting, which keeps the resampling valid under
    heteroscedastic noise. The signs are voxel 0's of run `seed`. Returns
    the (iterations, 6) replicate elements and their fits' own eigenvector
    rows (iterations, 3, 3), what ``replicate_statistics`` reduces: a
    replicate floored to isotropy keeps its fit's axes, which its elements
    alone have lost.
    """
    if iterations < MIN_REPLICATES:
        raise ValueError(f"iterations must be >= {MIN_REPLICATES}")
    y_hat, scaled, _ = _wild_base(log_signal_rows(signals, scheme), scheme)
    return _wild_replicates(y_hat, scaled, seed, [0], iterations, scheme)


def wild_bootstrap_table(
    signals, scheme: GradientScheme, iterations: int, seed: int, voxels=None
) -> np.ndarray:
    """Point estimates and wild-bootstrap uncertainty for (n, m) signals.

    Row i holds voxel voxels[i] of run `seed` (voxels 0..n-1 by default); a
    row of voxel 0 is resampled exactly as ``wild_bootstrap(signals[i],
    scheme, iterations, seed)``, and its theta95, sigma_fa and sigma_md are
    ``replicate_statistics`` of those replicates. Replicates are refitted
    CHUNK_ROWS rows (whole voxels) at a time, and each replicate is
    decomposed once.

    Returns the (n, 9) prediction table: fa, md, v1 (3) of the base CWLLS
    fit, then theta95, sigma_fa, sigma_md, and NaN for aleatoric u.
    """
    if iterations < MIN_REPLICATES:
        raise ValueError(f"iterations must be >= {MIN_REPLICATES}")
    y = log_signal_rows(signals, scheme)
    voxels = range(len(y)) if voxels is None else voxels
    if len(voxels) != len(y):
        raise ValueError(f"voxels holds {len(voxels)} indices for {len(y)} rows")
    y_hat, scaled, (base, axes) = _wild_base(y, scheme)
    table = np.empty((len(y), 9))
    table[:, 0], table[:, 1] = fa_md(base)
    table[:, 2:5] = axes
    table[:, 8] = np.nan
    for rows in voxel_chunks(len(y), iterations):
        reps = _wild_replicates(y_hat[rows], scaled[rows], seed, voxels[rows], iterations, scheme)
        table[rows, 5:8] = replicate_statistics(*reps, iterations)
    return table
