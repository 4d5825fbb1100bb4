"""Least-squares tensor estimation on log-transformed signals.

Three batch kernels, each fitting one scheme to (k, m) signal rows:

* ``fit_ols_batch``   -- unweighted solve of ln S = X beta through one
                         shared projection R^-1 Q^T of X
* ``fit_wlls_batch``  -- two-pass: OLS, then a weighted solve with weights
                         exp(2 * predicted ln S), through the normal equations
                         of the column-equilibrated design (batched QR for
                         rows whose weighted condition bound is too large)
* ``fit_cwlls_batch`` -- WLLS followed by an eigenvalue floor (SPD projection)

The kernels treat rows independently, bit for bit, so a voxel's fit does
not depend on which batch it is fitted in; one voxel is a one-row batch.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    GradientScheme,
    design_matrix,
    eigh3_batch,
    elements_to_matrices,
    matrices_to_elements,
)

SIGNAL_FLOOR = 1e-8  # clamp before log; Rician magnitudes can be ~0
CONDITION_LIMIT = 1e12
# The normal equations square the condition number: within this bound on
# cond(sqrt_w X_s) their relative error stays below about 1e3**2 * eps, and
# rows past it take the QR solve.
NORMAL_EQUATIONS_LIMIT = 1e3
EIGENVALUE_FLOOR_REL = 1e-6
EIGENVALUE_FLOOR_MD_MIN = 1e-5  # mm^2/s


class DegenerateSchemeError(ValueError):
    pass


def _qr_solve_batch(design: np.ndarray, rhs: np.ndarray):
    """Least-squares via thin QR for a (k, m, 7) stack of designs.

    Returns (beta (k, 7), leverage (k, m)). Leverage is the squared row
    norm of Q, i.e. the hat-matrix diagonal.
    """
    q, r = np.linalg.qr(design)
    beta = np.linalg.solve(r, np.einsum("kmj,km->kj", q, rhs)[..., None])[..., 0]
    leverage = np.einsum("kmj,kmj->km", q, q)
    return beta, leverage


_UPPER = np.triu_indices(7)
# position among the 28 upper-triangle entries of each (i, j) of a 7x7
_SYMMETRIC = np.zeros((7, 7), dtype=np.intp)
_SYMMETRIC[_UPPER] = _SYMMETRIC.T[_UPPER] = np.arange(len(_UPPER[0]))
_OFF_DIAGONAL_TWICE = np.where(_UPPER[0] == _UPPER[1], 1.0, 2.0)


def _normal_solve_batch(xs: np.ndarray, w: np.ndarray, y: np.ndarray):
    """Weighted least squares through the 7x7 Gram matrices G = xs^T W xs.

    xs (m, 7) is the column-equilibrated design, w (k, m) the weights and
    y (k, m) the log-signals. Returns (beta of xs (k, 7), leverage (k, m));
    leverage w_m xs_m^T G^-1 xs_m is the hat-matrix diagonal. Both G and
    the leverage contract against the 28 products xs_i * xs_j, i <= j.
    """
    outer = xs[:, _UPPER[0]] * xs[:, _UPPER[1]]
    inverse = np.linalg.inv(np.einsum("km,mp->kp", w, outer)[:, _SYMMETRIC])
    beta = np.einsum("kij,kj->ki", inverse, np.einsum("mj,km->kj", xs, w * y))
    upper = inverse[:, _UPPER[0], _UPPER[1]] * _OFF_DIAGONAL_TWICE
    return beta, w * np.einsum("kp,mp->km", upper, outer)


def _weighted_solve_batch(x: np.ndarray, sqrt_w: np.ndarray, y: np.ndarray):
    """Weighted least squares of (k, m) log-signals y on the (m, 7) design x.

    Scaling the columns of X to unit norm (X_s = X / ||X columns||) takes
    the weighted condition number from about 1.3e3 to about 5 on 30
    directions at b = 1000, which makes the normal equations as accurate as
    QR there. A row takes them when its bound
    cond(X_s) * max(sqrt_w) / min(sqrt_w) is within NORMAL_EQUATIONS_LIMIT
    and keeps the QR solve of sqrt_w X otherwise.

    Returns (beta (k, 7), leverage (k, m)).
    """
    scale = np.linalg.norm(x, axis=0)
    xs = x / scale
    bound = np.linalg.cond(xs) * sqrt_w.max(axis=1) / sqrt_w.min(axis=1)
    normal = bound <= NORMAL_EQUATIONS_LIMIT
    beta = np.empty((len(y), x.shape[1]))
    leverage = np.empty(y.shape)
    if np.any(normal):
        w = sqrt_w[normal] * sqrt_w[normal]
        beta_s, leverage[normal] = _normal_solve_batch(xs, w, y[normal])
        beta[normal] = beta_s / scale
    if not np.all(normal):
        qr = ~normal
        beta[qr], leverage[qr] = _qr_solve_batch(
            sqrt_w[qr, :, None] * x, sqrt_w[qr] * y[qr]
        )
    return beta, leverage


# Row-axis products use einsum, elementwise arithmetic and per-matrix
# batched LAPACK (qr, inv, single-rhs solve) only: each row's result is then
# bitwise independent of the batch it sits in (BLAS matmul and multi-rhs
# solves are not), which the bootstrap's chunk-size invariance relies on.


def _predict_log(beta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fitted log-signals (k, m) of parameter rows beta (k, 7)."""
    return np.einsum("kj,mj->km", beta, x)


def as_signal_rows(signals, scheme: GradientScheme) -> np.ndarray:
    """(k, m) float64 signal rows; one voxel's (m,) vector becomes (1, m)."""
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim == 1:
        signals = signals[None]
    if signals.ndim != 2 or signals.shape[1] != scheme.n_measurements:
        raise ValueError("signal count does not match scheme")
    if scheme.n_measurements < 7:
        raise ValueError("need at least 7 measurements for a full fit")
    return signals


def _check_condition(design: np.ndarray) -> float:
    cond = float(np.linalg.cond(design))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateSchemeError("degenerate gradient scheme")
    return cond


def _weighted_conditions(cond_x: float, sqrt_w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-row condition numbers of the weighted designs sqrt_w * X.

    For positive weights cond(diag(s) X) <= cond(X) * max(s) / min(s), so a
    row whose bound is within CONDITION_LIMIT passes without an SVD; the
    remaining rows get the exact 2-norm condition number. A row is therefore
    rejected exactly when its exact condition number is too large.
    """
    conds = cond_x * sqrt_w.max(axis=1) / sqrt_w.min(axis=1)
    loose = ~(conds <= CONDITION_LIMIT)
    if np.any(loose):
        conds[loose] = np.linalg.cond(sqrt_w[loose, :, None] * x)
    if np.any(~np.isfinite(conds)) or np.any(conds > CONDITION_LIMIT):
        raise DegenerateSchemeError("degenerate gradient scheme")
    return conds


def _ols_projection(x: np.ndarray):
    """Least-squares projection R^-1 Q^T (7, m) of X and its leverage (m,)."""
    q, r = np.linalg.qr(x)
    return np.linalg.solve(r, q.T), np.einsum("mj,mj->m", q, q)


def fit_ols_batch(signals: np.ndarray, scheme: GradientScheme):
    """OLS on ln S for a (k, m) signal batch.

    Returns (beta (k, 7), residuals (k, m), leverage (k, m), cond).
    """
    x = design_matrix(scheme)
    cond = _check_condition(x)
    y = np.log(np.maximum(signals, SIGNAL_FLOOR))
    projection, leverage = _ols_projection(x)
    beta = np.einsum("jm,km->kj", projection, y)
    return beta, y - _predict_log(beta, x), np.broadcast_to(leverage, y.shape), cond


def fit_wlls_batch(signals: np.ndarray, scheme: GradientScheme):
    """Two-pass weighted solve; weights are squared OLS-predicted signals.

    Returns (beta, residuals, leverage, cond) where leverage and the
    condition number refer to the weighted design.
    """
    x = design_matrix(scheme)
    cond_x = _check_condition(x)
    y = np.log(np.maximum(signals, SIGNAL_FLOOR))
    beta0 = np.einsum("jm,km->kj", _ols_projection(x)[0], y)
    sqrt_w = np.exp(_predict_log(beta0, x))  # predicted signals = sqrt of weights exp(2*yhat)
    conds = _weighted_conditions(cond_x, sqrt_w, x)
    beta, leverage = _weighted_solve_batch(x, sqrt_w, y)
    return beta, y - _predict_log(beta, x), leverage, float(conds.max())


def floor_eigenvalues_batch(elements: np.ndarray):
    """Project (k, 6) tensor rows onto the SPD cone by flooring eigenvalues.

    The floor is EIGENVALUE_FLOOR_REL * max(MD, EIGENVALUE_FLOOR_MD_MIN),
    per tensor. Eigenvectors are preserved.

    Returns (projected elements, changed rows, (eigenvalues, eigenvectors)).
    The eigensystem is that of the projected elements, bit for bit what
    eigh3_batch gives for them: floored rows are decomposed again.
    """
    evals, evecs = eigh3_batch(elements_to_matrices(elements))
    md = evals.mean(axis=1)
    floor = EIGENVALUE_FLOOR_REL * np.maximum(md, EIGENVALUE_FLOOR_MD_MIN)
    flo = np.maximum(evals, floor[:, None])
    changed = np.any(flo != evals, axis=1)
    out = np.array(elements, dtype=np.float64, copy=True)
    if np.any(changed):
        mats = np.einsum(
            "kji,kj,kjl->kil", evecs[changed], flo[changed], evecs[changed]
        )
        out[changed] = matrices_to_elements(mats)
        evals[changed], evecs[changed] = eigh3_batch(elements_to_matrices(out[changed]))
    return out, changed, (evals, evecs)


def fit_cwlls_batch(signals: np.ndarray, scheme: GradientScheme):
    """WLLS then SPD projection for a (k, m) signal batch.

    Returns (beta, residuals, leverage, cond, (eigenvalues, eigenvectors));
    the eigensystem is that of the projected tensors, so callers that need
    it do not decompose the rows again. Residuals are recomputed against
    the projected tensor so that fitted + residual reproduces the observed
    log-signal.
    """
    beta, residuals, leverage, cond = fit_wlls_batch(signals, scheme)
    floored, changed, eig = floor_eigenvalues_batch(beta[:, :6])
    if np.any(changed):
        beta[changed, :6] = floored[changed]
        y_obs = np.log(np.maximum(signals[changed], SIGNAL_FLOOR))
        residuals[changed] = y_obs - _predict_log(beta[changed], design_matrix(scheme))
    return beta, residuals, leverage, cond, eig
