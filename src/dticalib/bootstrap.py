"""Wild-bootstrap uncertainty for least-squares fits, plus the dyadic
orientation statistics shared by every replicate-based method.

Replicates from any source (wild bootstrap, dropout sampling, Monte-Carlo
noise draws) are reduced the same way: population std of FA and MD, and a
cone angle taken as the 95th percentile of angles between each replicate's
principal direction and the mean dyadic axis. The reductions work on groups
of equally many replicates, so one voxel and a whole table share one
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import (
    GradientScheme,
    eigh3_batch,
    elements_to_matrices,
    fa_md_from_eigenvalues,
)
from .fitting import SIGNAL_FLOOR, as_signal_rows, fit_cwlls_batch
from .rng import rng_from_key

# Replicate rows refitted per fit_cwlls_batch call in wild_bootstrap_table;
# a chunk always holds whole voxels (at least one). Results do not depend
# on it: every kernel treats rows independently.
CHUNK_ROWS = 1024


@dataclass
class TensorSampleSet:
    """Replicate tensors from one voxel, stored as (k, 6) element rows."""

    elements: np.ndarray  # (k, 6)
    source: str  # wild_bootstrap | mc_dropout | monte_carlo_oracle

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=np.float64)
        if self.elements.ndim != 2 or self.elements.shape[1] != 6:
            raise ValueError("expected (k, 6) replicate elements")
        if not np.all(np.isfinite(self.elements)):
            raise ValueError("non-finite replicate tensors")

    def __len__(self):
        return len(self.elements)


@dataclass
class UncertaintyBundle:
    theta95: float  # degrees, in [0, 90]
    sigma_fa: float
    sigma_md: float  # mm^2/s
    aleatoric_u: Optional[float] = None  # log-scale, DL only


class SaturatedLeverageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# grouped replicate reductions: g groups of k replicates each
# ---------------------------------------------------------------------------


def _principal_axes(evecs: np.ndarray) -> np.ndarray:
    """Contiguous principal axes (..., 3) of eigenvector rows (..., 3, 3).

    Contiguous input keeps the reductions below bitwise the same whether
    they see one group or many.
    """
    return np.ascontiguousarray(evecs[..., 0, :])


def _mean_dyadic_axes(axes: np.ndarray) -> np.ndarray:
    """(g, 3) principal axes of the mean dyads of (g, k, 3) directions."""
    dyads = np.einsum("gki,gkj->gij", axes, axes) / axes.shape[1]
    return eigh3_batch(dyads)[1][:, 0]


def _cone_angles_95(axes: np.ndarray) -> np.ndarray:
    """(g,) 95th percentiles of the angles (degrees) to each group's dyadic axis."""
    mean_axes = _mean_dyadic_axes(axes)
    cosines = np.clip(np.abs(np.einsum("gki,gi->gk", axes, mean_axes)), 0.0, 1.0)
    return np.percentile(np.degrees(np.arccos(cosines)), 95, axis=1, method="linear")


def _replicate_statistics(evals: np.ndarray, axes: np.ndarray):
    """(theta95, sigma_fa, sigma_md), each (g,), of grouped replicates.

    evals (g, k, 3) descending and axes (g, k, 3) principal eigenvectors:
    each replicate's eigensystem, computed once by the caller.
    """
    fa, md = fa_md_from_eigenvalues(evals)
    return _cone_angles_95(axes), np.std(fa, axis=1), np.std(md, axis=1)


def _one_group(samples: TensorSampleSet):
    """Eigenvalues (1, k, 3) and principal axes (1, k, 3) of one replicate set."""
    evals, evecs = eigh3_batch(elements_to_matrices(samples.elements))
    return evals[None], _principal_axes(evecs)[None]


def mean_dyadic(samples: TensorSampleSet) -> np.ndarray:
    """Principal axis of the mean outer product of replicate directions.

    The dyad v v^T is blind to the sign of v, so per-replicate sign flips
    cannot move the result.
    """
    return _mean_dyadic_axes(_one_group(samples)[1])[0]


def cone_angle_95(samples: TensorSampleSet) -> float:
    """95th percentile (linear interpolation) of angles to the mean dyadic axis.

    Angles fold the eigenvector sign ambiguity via |dot|, so they live in
    [0, 90] degrees. Meaningful for k >= 20 or so; smaller sets are allowed
    (identical replicates give exactly 0).
    """
    return float(_cone_angles_95(_one_group(samples)[1])[0])


def summarize_uncertainty(
    samples: TensorSampleSet, aleatoric_u: Optional[float] = None
) -> UncertaintyBundle:
    """Population std of replicate FA/MD plus the 95% cone angle."""
    if len(samples) < 2:
        raise ValueError("need at least 2 replicates")
    theta95, sigma_fa, sigma_md = _replicate_statistics(*_one_group(samples))
    return UncertaintyBundle(
        theta95=float(theta95[0]),
        sigma_fa=float(sigma_fa[0]),
        sigma_md=float(sigma_md[0]),
        aleatoric_u=aleatoric_u,
    )


# ---------------------------------------------------------------------------
# wild bootstrap
# ---------------------------------------------------------------------------


def _wild_base(signals: np.ndarray, scheme: GradientScheme):
    """Base constrained WLLS fit of (n, m) signal rows.

    Returns (fitted log-signals, leverage-scaled residuals, base eigensystem).
    """
    _, residuals, leverage, _, eig = fit_cwlls_batch(signals, scheme)
    if np.any(leverage >= 1.0 - 1e-9):
        raise SaturatedLeverageError("saturated leverage")
    y_hat = np.log(np.maximum(signals, SIGNAL_FLOOR)) - residuals
    return y_hat, residuals / np.sqrt(1.0 - leverage), eig


def _wild_replicates(y_hat, scaled, seeds, iterations: int, scheme: GradientScheme):
    """CWLLS refits of `iterations` sign-flipped residual sets per voxel.

    Voxel v draws its Rademacher signs from rng_from_key(seeds[v]). Returns
    the (len(seeds) * iterations, 6) replicate elements, voxel-major, and
    their eigensystem.
    """
    signs = np.concatenate(
        [rng_from_key(s).integers(0, 2, size=(iterations, y_hat.shape[1])) for s in seeds]
    ) * 2 - 1
    y_star = np.repeat(y_hat, iterations, axis=0) + signs * np.repeat(scaled, iterations, axis=0)
    beta, _, _, _, eig = fit_cwlls_batch(np.exp(y_star), scheme)
    if not np.all(np.isfinite(beta)):
        raise ValueError("non-finite replicate tensors")
    return beta[:, :6], eig


def wild_bootstrap(
    signals, scheme: GradientScheme, iterations: int = 1000, seed: int = 0
) -> TensorSampleSet:
    """Wild-bootstrap replicates of the constrained WLLS fit of one voxel.

    The base fit supplies fitted log-signals, residuals and leverage. Each
    replicate flips residual signs with Rademacher draws and rescales them
    by 1/sqrt(1-h) before refitting, which keeps the resampling valid under
    heteroscedastic noise.
    """
    if iterations < 2:
        raise ValueError("iterations must be >= 2")
    y_hat, scaled, _ = _wild_base(as_signal_rows(signals, scheme), scheme)
    elements, _ = _wild_replicates(y_hat, scaled, [seed], iterations, scheme)
    return TensorSampleSet(elements, "wild_bootstrap")


def wild_bootstrap_table(
    signals, scheme: GradientScheme, iterations: int, seeds
) -> np.ndarray:
    """Point estimates and wild-bootstrap uncertainty for (n, m) signals.

    Voxel v is resampled from rng_from_key(seeds[v]), exactly as
    ``wild_bootstrap(signals[v], scheme, iterations, seeds[v])``. Replicates
    are refitted CHUNK_ROWS rows (whole voxels) at a time, and each
    replicate's eigensystem is computed once.

    Returns the (n, 9) prediction table: fa, md, v1 (3) of the base CWLLS
    fit, then theta95, sigma_fa, sigma_md, and NaN for aleatoric u.
    """
    if iterations < 2:
        raise ValueError("iterations must be >= 2")
    signals = as_signal_rows(signals, scheme)
    seeds = [int(s) for s in seeds]
    if len(seeds) != len(signals):
        raise ValueError("need one seed per voxel")
    y_hat, scaled, (evals, evecs) = _wild_base(signals, scheme)
    table = np.empty((len(signals), 9))
    table[:, 0], table[:, 1] = fa_md_from_eigenvalues(evals)
    table[:, 2:5] = evecs[:, 0]
    table[:, 8] = np.nan
    per_chunk = max(1, CHUNK_ROWS // iterations)
    for start in range(0, len(signals), per_chunk):
        voxels = slice(start, start + per_chunk)
        _, (rep_evals, rep_evecs) = _wild_replicates(
            y_hat[voxels], scaled[voxels], seeds[voxels], iterations, scheme
        )
        shape = (len(rep_evals) // iterations, iterations, 3)
        table[voxels, 5:8] = np.column_stack(
            _replicate_statistics(
                rep_evals.reshape(shape), _principal_axes(rep_evecs).reshape(shape)
            )
        )
    return table
