"""Least-squares tensor estimation on log-transformed signals.

Three batch kernels, each fitting one scheme to (k, m) log-signal rows y,
which ``log_signal_rows`` makes from signals; no kernel takes a log itself:

* ``fit_ols_batch``   -- unweighted solve of y = X beta through one
                         shared projection R^-1 Q^T of X
* ``fit_wlls_batch``  -- two-pass: ``fit_ols_batch``, then a weighted solve
                         with weights exp(2 * predicted ln S), through the
                         normal equations of the column-equilibrated design
                         (Cholesky; batched QR for rows whose weighted
                         condition bound is too large or whose pivot fails)
* ``fit_cwlls_batch`` -- WLLS followed by an eigenvalue floor (SPD projection)

Each returns the parameters (k, 7) and the largest condition number of the
(weighted) design; CWLLS also returns the eigensystem of the projected
tensors. ``weighted_leverage`` is the hat-matrix diagonal of the WLLS
weighted designs, which only the wild bootstrap's base fit reads.

The normal equations are solved by a Cholesky written elementwise on the
row axis. Per-matrix batched LAPACK (qr, then a solve of R) runs only on the
rows past the normal-equations bound and on the rows whose Cholesky pivot
fails; no Gram matrix goes to LAPACK. Row-axis products use einsum and
elementwise arithmetic, never BLAS matmul or multi-rhs solves: each row's
result is then bitwise independent of its batch, so a voxel's fit does not
depend on which batch it is fitted in (one voxel is a one-row batch), which
the bootstrap's chunk-size invariance relies on.
"""

from __future__ import annotations

import numpy as np

from .tensor import ELEMENT_COLS, ELEMENT_ROWS, GradientScheme, design_matrix, eigh3_batch

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


def log_signal_rows(signals, scheme: GradientScheme) -> np.ndarray:
    """(k, m) ln S rows of float64 signals, clamped at SIGNAL_FLOOR first; one
    voxel's (m,) vector becomes (1, m). A non-finite signal is refused, and the
    error names its row and measurement; LAPACK would fail on it opaquely."""
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim == 1:
        signals = signals[None]
    if signals.ndim != 2 or signals.shape[1] != len(scheme):
        raise ValueError("signal count does not match scheme")
    if len(scheme) < 7:
        raise ValueError("need at least 7 measurements for a full fit")
    finite = np.isfinite(signals)
    if not finite.all():
        row, m = np.argwhere(~finite)[0]
        raise ValueError(
            f"row {row}, measurement {m}: signal {float(signals[row, m])!r} must be finite"
        )
    return np.log(np.maximum(signals, SIGNAL_FLOOR))


def _qr_solve_batch(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares beta (k, 7) via thin QR for a (k, m, 7) stack of designs."""
    q, r = np.linalg.qr(design)
    return np.linalg.solve(r, np.einsum("kmj,km->kj", q, rhs)[..., None])[..., 0]


def weighted_leverage(y: np.ndarray, scheme: GradientScheme) -> np.ndarray:
    """Hat-matrix diagonal (k, m) of the WLLS weighted designs sqrt_w X of
    (k, m) log-signal rows: the squared row norms of Q in their thin QR."""
    x = design_matrix(scheme)
    q = np.linalg.qr(_wlls_sqrt_weights(x, fit_ols_batch(y, scheme)[0])[:, :, None] * x)[0]
    return np.einsum("kmj,kmj->km", q, q)


_UPPER = np.triu_indices(7)
# position among the 28 upper-triangle entries of each (i, j) of a 7x7
_SYMMETRIC = np.zeros((7, 7), dtype=np.intp)
_SYMMETRIC[_UPPER] = _SYMMETRIC.T[_UPPER] = np.arange(len(_UPPER[0]))
_DIAGONAL = np.arange(7)


def _normal_solve_batch(xs: np.ndarray, w: np.ndarray, y: np.ndarray):
    """Weighted least squares through the 7x7 Gram matrices G = xs^T W xs.

    xs (m, 7) is the column-equilibrated design, w (k, m) the weights and
    y (k, m) the log-signals. G contracts the weights against the 28 products
    xs_i * xs_j, i <= j, row axis last, and is solved by Cholesky,
    elementwise on the row axis: the factor L and the forward and back
    substitutions are ufunc steps on (k,) rows of its entries. Returns
    (beta of xs (k, 7), failed (k,)): a failed row's pivot is not positive
    and finite, or its result is not finite, and its beta is meaningless.
    """
    xt = np.ascontiguousarray(xs.T)
    z = np.einsum("jm,km->jk", xt, w * y)  # xs^T W y (7, k), then L^-1 of it, then beta
    low = np.einsum("km,pm->pk", w, xt[_UPPER[0]] * xt[_UPPER[1]])[_SYMMETRIC]  # G, then L
    n = len(z)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # bad pivots: flagged
        for j in range(n):
            col = low[j:, j]
            for m in range(j):
                col -= low[j:, m] * low[j, m]
            col[0] = np.sqrt(col[0])
            col[1:] /= col[0]
            z[j] /= col[0]
            z[j + 1 :] -= col[1:] * z[j]
        for i in range(n - 1, -1, -1):
            z[i] /= low[i, i]
            z[:i] -= low[i, :i] * z[i]
    roots = low[_DIAGONAL, _DIAGONAL]  # the pivots' square roots
    failed = ~(np.all((roots > 0) & (roots < np.inf), axis=0) & np.all(np.isfinite(z), axis=0))
    return z.T, failed


def _row_ratio(a: np.ndarray) -> np.ndarray:
    """max / min of each row of a (k, m), reduced along the contiguous axis of a
    transposed copy: numpy reduces short rows along axis 1 several times slower."""
    columns = np.ascontiguousarray(a.T)
    return columns.max(axis=0) / columns.min(axis=0)


def _weighted_solve_batch(x: np.ndarray, cond_x: float, sqrt_w: np.ndarray, y: np.ndarray):
    """Weighted least squares of (k, m) log-signals y on the (m, 7) design x.

    For positive weights cond(diag(s) A) <= cond(A) * max(s) / min(s), so
    one per-row ratio max(sqrt_w) / min(sqrt_w) makes both decisions:

    * rejection: rows whose bound cond(X) * ratio exceeds CONDITION_LIMIT
      get the exact condition number of sqrt_w X, so a row is rejected
      exactly when that is too large.
    * solver: unit-norm columns (X_s) take the weighted condition number
      from about 1.3e3 to about 5 on 30 directions at b = 1000, where the
      normal equations are as accurate as QR. A row takes them when
      cond(X_s) * ratio is within NORMAL_EQUATIONS_LIMIT, and QR otherwise,
      as does a row whose Cholesky fails.

    Returns (beta (k, 7), per-row condition numbers or their bounds (k,)).
    """
    ratio = _row_ratio(sqrt_w)
    conds = cond_x * ratio
    loose = ~(conds <= CONDITION_LIMIT)
    if np.any(loose):
        conds[loose] = np.linalg.cond(sqrt_w[loose, :, None] * x)
    if np.any(~np.isfinite(conds)) or np.any(conds > CONDITION_LIMIT):
        raise DegenerateSchemeError("degenerate gradient scheme")
    scale = np.linalg.norm(x, axis=0)
    xs = x / scale
    normal = np.linalg.cond(xs) * ratio <= NORMAL_EQUATIONS_LIMIT
    beta = np.empty((len(y), x.shape[1]))
    qr = ~normal
    if np.any(normal):
        rows = slice(None) if np.all(normal) else normal  # views when every row is normal
        w = sqrt_w[rows] * sqrt_w[rows]
        beta_s, qr[rows] = _normal_solve_batch(xs, w, y[rows])
        beta[rows] = beta_s / scale
    if np.any(qr):
        beta[qr] = _qr_solve_batch(sqrt_w[qr, :, None] * x, sqrt_w[qr] * y[qr])
    return beta, conds


def _wlls_sqrt_weights(x: np.ndarray, beta0: np.ndarray) -> np.ndarray:
    """Signals (k, m) predicted by OLS parameters beta0 (k, 7), each row times the exact
    power of two that puts its largest in [0.5, 1), so that squares cannot overflow: the
    square roots of the WLLS weights exp(2 * predicted ln S), to a row factor WLLS ignores."""
    sqrt_w = np.exp(np.einsum("kj,jm->km", beta0, np.ascontiguousarray(x.T)))
    largest = np.ascontiguousarray(sqrt_w.T).max(axis=0)  # faster than along axis 1
    return np.ldexp(sqrt_w, -np.frexp(largest)[1][:, None])


def fit_ols_batch(y: np.ndarray, scheme: GradientScheme):
    """OLS of (k, m) log-signal rows through the projection R^-1 Q^T (7, m) of X.
    Returns (beta (k, 7), cond(X))."""
    x = design_matrix(scheme)
    cond = float(np.linalg.cond(x))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateSchemeError("degenerate gradient scheme")
    q, r = np.linalg.qr(x)
    return np.einsum("jm,km->kj", np.linalg.solve(r, q.T), y), cond


def fit_wlls_batch(y: np.ndarray, scheme: GradientScheme):
    """Two-pass weighted solve; weights are squared OLS-predicted signals.

    Returns (beta (k, 7), cond): the largest condition number of the
    weighted designs, each row's exact value or its bound.
    """
    beta0, cond_x = fit_ols_batch(y, scheme)
    x = design_matrix(scheme)
    beta, conds = _weighted_solve_batch(x, cond_x, _wlls_sqrt_weights(x, beta0), y)
    return beta, float(conds.max())


def floor_eigenvalues_batch(elements: np.ndarray):
    """Project (k, 6) tensor rows onto the SPD cone by flooring eigenvalues.

    The floor is EIGENVALUE_FLOOR_REL * max(MD, EIGENVALUE_FLOOR_MD_MIN),
    per tensor. Eigenvectors are preserved.

    Returns (projected elements, (eigenvalues, eigenvectors)): the floored
    eigenvalues with the one decomposition's eigenvectors, so a row floored to
    isotropy keeps its fit's axes, not the rounding noise of floor * I.
    """
    evals, evecs = eigh3_batch(elements)
    md = evals.mean(axis=1)
    floor = EIGENVALUE_FLOOR_REL * np.maximum(md, EIGENVALUE_FLOOR_MD_MIN)
    flo = np.maximum(evals, floor[:, None])
    changed = np.any(flo != evals, axis=1)
    out = np.array(elements, dtype=np.float64, copy=True)
    v = evecs[changed]
    out[changed] = np.einsum(
        "kji,kj,kji->ki", v[..., ELEMENT_ROWS], flo[changed], v[..., ELEMENT_COLS]
    )
    return out, (flo, evecs)


def fit_cwlls_batch(y: np.ndarray, scheme: GradientScheme):
    """WLLS then SPD projection of (k, m) log-signal rows.

    Returns (beta, cond, (eigenvalues, eigenvectors)); the eigensystem is
    that of the projected tensors, so callers that need it do not decompose
    the rows again.
    """
    beta, cond = fit_wlls_batch(y, scheme)
    beta[:, :6], eig = floor_eigenvalues_batch(beta[:, :6])
    return beta, cond, eig
