"""Uncertainty calibration metrics and post-hoc recalibration.

The substrate is one Triples table per scalar parameter: three float
arrays (truth, estimate, sigma), one row per voxel, validated once by
triples_from_arrays. From those this module computes:

* equal-population RMV/RMSE bins and the count-weighted ENCE,
* PICP/MPIW curves over an interval half-width sweep and their AUCC,
* an isotonic (pool-adjacent-violators) recalibration map on the
  variance scale, fitted on a held-out calibration split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_BINS = 15
DEFAULT_GRID_SIZE = 256

# Interval-width caps used when sweeping the interval half-width: the sweep
# stops where the mean interval width reaches the cap for that parameter.
MPIW_CAPS = {"fa": 0.20, "md": 0.2e-3, "theta": 60.0}


@dataclass(frozen=True, eq=False)
class Triples:
    """Validated (truth, estimate, sigma) columns; build with triples_from_arrays."""

    truth: np.ndarray
    estimate: np.ndarray
    sigma: np.ndarray  # predicted uncertainty as a standard deviation

    def __len__(self) -> int:
        return len(self.truth)


@dataclass
class BinStats:
    rmv: np.ndarray  # sqrt(mean sigma^2) per bin
    rmse: np.ndarray  # sqrt(mean squared error) per bin
    counts: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.rmv)


@dataclass
class CalibrationCurve:
    beta_grid: np.ndarray
    picp: np.ndarray
    mpiw: np.ndarray
    mpiw_cap: float
    aucc: float


@dataclass
class IsotonicMap:
    """Non-decreasing map on the variance scale.

    Piecewise-linear between breakpoints, constant beyond the ends (so
    extrapolated variances can never go negative).
    """

    breakpoints: np.ndarray  # input variances, strictly increasing
    values: np.ndarray  # output variances, non-decreasing

    def __call__(self, variance):
        return np.interp(variance, self.breakpoints, self.values)


def triples_from_arrays(truth, estimate, sigma) -> Triples:
    """The one validating constructor: equal-length 1-D float arrays, all
    finite, sigma >= 0. A ValueError names the first offending row."""
    names = ("truth", "estimate", "sigma")
    arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in (truth, estimate, sigma)]
    if len({a.shape for a in arrays}) > 1 or arrays[0].ndim != 1:
        shapes = ", ".join(f"{name} {a.shape}" for name, a in zip(names, arrays))
        raise ValueError(f"row {min(a.size for a in arrays)}: not in all of {shapes}")
    truth, estimate, sigma = arrays
    ok = np.isfinite(truth) & np.isfinite(estimate) & np.isfinite(sigma) & (sigma >= 0)
    if not ok.all():
        row = int(np.argmin(ok))
        values = ", ".join(f"{name}={float(a[row])!r}" for name, a in zip(names, arrays))
        raise ValueError(f"row {row}: need finite values and sigma >= 0, got {values}")
    return Triples(truth, estimate, sigma)


def bin_rmv_rmse(triples: Triples, n_bins: int = DEFAULT_BINS) -> BinStats:
    """Equal-population bins ordered by sigma; RMV and RMSE per bin.

    Any remainder after integer division is spread one-per-bin over the
    leading bins.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    n = len(triples)
    if n < n_bins:
        raise ValueError("need at least one triple per bin")
    # stable sort: ties at bin boundaries resolve by original index
    order = np.argsort(triples.sigma, kind="stable")
    err2 = (triples.truth - triples.estimate)[order] ** 2
    var = triples.sigma[order] ** 2
    base, rem = divmod(n, n_bins)
    sizes = np.full(n_bins, base)
    sizes[:rem] += 1
    edges = np.concatenate([[0], np.cumsum(sizes)])
    rmv = np.empty(n_bins)
    rmse = np.empty(n_bins)
    for j in range(n_bins):
        lo, hi = edges[j], edges[j + 1]
        rmv[j] = np.sqrt(var[lo:hi].mean())
        rmse[j] = np.sqrt(err2[lo:hi].mean())
    return BinStats(rmv=rmv, rmse=rmse, counts=sizes)


def ence(stats: BinStats) -> float:
    """Count-weighted mean of |RMV - RMSE| / RMV over bins.

    Zero exactly when every bin has RMV == RMSE. A single-bin forecaster
    whose constant sigma equals the global RMSE therefore scores zero,
    which is why this metric is paired with the AUCC curve.
    """
    if np.any(stats.rmv == 0):
        raise ValueError("zero-variance bin")
    n_total = stats.counts.sum()
    gaps = stats.counts * np.abs(stats.rmv - stats.rmse) / stats.rmv
    return float(gaps.sum() / n_total)


def _coverage_thresholds(abs_err: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per row, the smallest float64 beta with |err| <= beta * sigma.

    |err|/sigma can sit an ulp off it, so it is stepped against the rounded
    product itself. Rows with sigma = 0 get 0 for exact hits, else inf.
    """
    keys = np.where(abs_err == 0, 0.0, np.inf)
    positive = sigma > 0
    err, sig = abs_err[positive], sigma[positive]
    k = err / sig
    while np.any(up := k * sig < err):
        k[up] = np.nextafter(k[up], np.inf)
    while np.any(down := (k > 0) & (np.nextafter(k, 0.0) * sig >= err)):
        k[down] = np.nextafter(k[down], 0.0)
    keys[positive] = k
    return keys


def picp_mpiw_curve(
    triples: Triples,
    mpiw_cap: float,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> CalibrationCurve:
    """Coverage vs interval width over a half-width sweep, plus its area.

    Intervals are estimate +/- beta*sigma. The sweep runs from beta = 0 to
    the beta where the mean interval width 2*beta*mean(sigma) hits mpiw_cap.
    Coverage uses the closed interval, so beta = 0 counts exact hits. It is
    counted from one sort of the per-row coverage thresholds, in O(n) memory.
    The area (AUCC) integrates coverage against normalized width,
    trapezoidally, giving a scale-invariant score in [0, 1].
    """
    if mpiw_cap <= 0:
        raise ValueError("mpiw_cap must be positive")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    sigma = triples.sigma
    mean_sigma = sigma.mean()
    if mean_sigma <= 0:
        raise ValueError("degenerate uncertainties")
    beta_max = mpiw_cap / (2.0 * mean_sigma)
    beta = np.linspace(0.0, beta_max, grid_size)
    thresholds = np.sort(_coverage_thresholds(np.abs(triples.truth - triples.estimate), sigma))
    picp = np.searchsorted(thresholds, beta, side="right") / len(sigma)
    mpiw = 2.0 * beta * mean_sigma
    x = mpiw / mpiw[-1]
    aucc = float(np.trapezoid(picp, x))
    return CalibrationCurve(beta, picp, mpiw, float(mpiw_cap), aucc)


def _pava(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted pool-adjacent-violators: L2-optimal non-decreasing fit."""
    n = len(values)
    fitted = np.empty(n)
    weight = np.empty(n)
    size = np.ones(n, dtype=np.int64)
    n_blocks = 0
    for i in range(n):
        fitted[n_blocks] = values[i]
        weight[n_blocks] = weights[i]
        size[n_blocks] = 1
        n_blocks += 1
        while n_blocks > 1 and fitted[n_blocks - 2] > fitted[n_blocks - 1]:
            total = weight[n_blocks - 2] + weight[n_blocks - 1]
            fitted[n_blocks - 2] = (
                weight[n_blocks - 2] * fitted[n_blocks - 2]
                + weight[n_blocks - 1] * fitted[n_blocks - 1]
            ) / total
            weight[n_blocks - 2] = total
            size[n_blocks - 2] += size[n_blocks - 1]
            n_blocks -= 1
    return np.repeat(fitted[:n_blocks], size[:n_blocks])


def fit_isotonic(calibration_triples: Triples, n_bins: int = DEFAULT_BINS) -> IsotonicMap:
    """Monotone variance map fitted to binned (RMV^2, RMSE^2) pairs.

    The pairs come from the calibration split only; apply the map to test
    data. Duplicate breakpoints (ties in binned RMV) are merged by their
    weighted mean after pooling.
    """
    stats = bin_rmv_rmse(calibration_triples, n_bins)
    if stats.n_bins < 2:
        raise ValueError("need at least 2 bins to fit a map")
    # bins are ordered by sigma, so binned RMV^2 can fall only by rounding
    # (means over bins of unequal size); carrying the maximum forward turns
    # such a fall into a tie
    x = np.maximum.accumulate(stats.rmv**2)
    y = _pava(stats.rmse**2, stats.counts.astype(np.float64))
    # merge tied breakpoints so interpolation is well defined
    w = stats.counts.astype(np.float64)
    starts = np.flatnonzero(np.diff(x, prepend=-np.inf))
    merged = np.add.reduceat(y * w, starts) / np.add.reduceat(w, starts)
    return IsotonicMap(x[starts], np.maximum.accumulate(merged))


def recalibrate(mapping: IsotonicMap, sigma: np.ndarray) -> np.ndarray:
    """Recalibrated sigmas: sqrt(map(sigma^2)), row by row."""
    return np.sqrt(mapping(np.asarray(sigma, dtype=np.float64) ** 2))
