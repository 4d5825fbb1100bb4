import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dticalib import fitting
from dticalib.bootstrap import _wild_base, wild_bootstrap_table
from dticalib.fitting import (
    DegenerateSchemeError,
    EIGENVALUE_FLOOR_MD_MIN,
    EIGENVALUE_FLOOR_REL,
    SIGNAL_FLOOR,
    fit_cwlls_batch,
    fit_ols_batch,
    fit_wlls_batch,
    log_signal_rows,
    weighted_leverage,
)
from dticalib.rng import box_muller
from dticalib.tensor import (
    GradientScheme,
    design_matrix,
    eigh3_batch,
    elements_to_matrices,
    matrices_to_elements,
    predict_signal_batch,
)
from dticalib.simulation import (
    PhantomSpec,
    _unit_quaternion,
    make_phantom,
    make_scheme,
    quaternion_rotations,
    rician,
)
from test_tensor import eigenvalue_fa_md

# the batch kernels under the names of the estimators they implement
FITS = {"fit_ols": fit_ols_batch, "fit_wlls": fit_wlls_batch, "fit_cwlls": fit_cwlls_batch}


def random_spd_tensor(rng):
    """(6,) elements of an SPD tensor with random eigenvalues and orientation."""
    lam = rng.uniform(0.1e-3, 3e-3, 3)
    rot = quaternion_rotations(_unit_quaternion(rng)[None])[0]
    return matrices_to_elements((rot @ np.diag(lam) @ rot.T)[None])[0]


def noiseless_signals(elements, scheme, ln_s0=0.0):
    return predict_signal_batch(elements[None], scheme)[0] * np.exp(ln_s0)


def fit_one(fit, signals, scheme):
    """(beta, cond) of one voxel's signals, fitted as a one-row batch."""
    beta, cond = fit(log_signal_rows(signals, scheme), scheme)[:2]
    return beta[0], cond


def residuals_of(beta, signals, scheme):
    """Log-signal residuals ln S - X beta of one voxel's fit."""
    return log_signal_rows(signals, scheme)[0] - design_matrix(scheme) @ beta


def spy_isotropic_floors(monkeypatch):
    """A list that gains, per floor_eigenvalues_batch call, how many of its rows have
    every eigenvalue at or below their floor: the rows it floors to isotropy."""
    counts = []
    floor_eigenvalues = fitting.floor_eigenvalues_batch

    def spy(elements):
        evals = np.linalg.eigvalsh(elements_to_matrices(elements))
        floor = EIGENVALUE_FLOOR_REL * np.maximum(evals.mean(axis=1), EIGENVALUE_FLOOR_MD_MIN)
        counts.append(int(np.sum(evals.max(axis=1) <= floor)))
        return floor_eigenvalues(elements)

    monkeypatch.setattr(fitting, "floor_eigenvalues_batch", spy)
    return counts


def eigensystem(elements):
    """Eigenvalues (3,) descending and eigenvector rows (3, 3) of one element row."""
    evals, evecs = eigh3_batch(elements[None])
    return evals[0], evecs[0]


class TestNoiselessRecovery:
    @pytest.mark.parametrize("fit", list(FITS.values()), ids=list(FITS))
    def test_exact_roundtrip(self, fit):
        rng = np.random.default_rng(5)
        scheme = make_scheme(30)
        for _ in range(25):
            ln_s0 = float(rng.normal(0, 0.2))
            truth = random_spd_tensor(rng)
            beta = fit_one(fit, noiseless_signals(truth, scheme, ln_s0), scheme)[0]
            assert np.max(np.abs(beta[:6] - truth)) < 1e-10 * np.max(np.abs(truth))
            assert beta[6] == pytest.approx(ln_s0, abs=1e-10)

    def test_wlls_equals_ols_without_noise(self):
        rng = np.random.default_rng(8)
        scheme = make_scheme(20)
        truth = random_spd_tensor(rng)
        s = noiseless_signals(truth, scheme)
        a = fit_one(fit_ols_batch, s, scheme)[0][:6]
        b = fit_one(fit_wlls_batch, s, scheme)[0][:6]
        assert np.allclose(a, b, atol=1e-10 * np.max(np.abs(a)))

    def test_isotropic_signals_give_isotropic_tensor(self):
        scheme = make_scheme(15)
        truth = np.array([0.8e-3, 0.8e-3, 0.8e-3, 0, 0, 0])
        beta = fit_one(fit_wlls_batch, noiseless_signals(truth, scheme), scheme)[0]
        assert np.allclose(eigensystem(beta[:6])[0], 0.8e-3, rtol=1e-10)

    def test_minimal_scheme_interpolates(self):
        # m = 7 with a full-rank design leaves zero residuals; the classic
        # six-direction set is used because six Fibonacci points are rank
        # deficient for the quadratic form
        dirs = np.array(
            [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1]],
            dtype=float,
        )
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        scheme = GradientScheme(
            np.vstack([np.zeros(3), dirs]), np.array([0.0] + [1000.0] * 6)
        )
        rng = np.random.default_rng(2)
        truth = random_spd_tensor(rng)
        signals = noiseless_signals(truth, scheme) * 1.3
        residuals = residuals_of(fit_one(fit_ols_batch, signals, scheme)[0], signals, scheme)
        assert np.max(np.abs(residuals)) < 1e-10


class TestDegenerateScheme:
    def test_coplanar_directions_rejected(self):
        # 6 in-plane directions + one b=0: rank must drop below 7
        angles = np.linspace(0, np.pi * 0.9, 6)
        dirs = np.vstack(
            [np.zeros(3), np.stack([np.cos(angles), np.sin(angles), np.zeros(6)], axis=1)]
        )
        bvals = np.array([0.0] + [1000.0] * 6)
        scheme = GradientScheme(dirs, bvals)
        from dticalib.tensor import design_matrix

        assert np.linalg.matrix_rank(design_matrix(scheme)) < 7
        with pytest.raises(DegenerateSchemeError, match="degenerate gradient scheme"):
            fit_ols_batch(np.full((1, 7), 0.5), scheme)

    def test_condition_bound_decides_like_exact_cond(self, monkeypatch):
        # cond(sqrt_w X) <= cond(X) max(sqrt_w) / min(sqrt_w): with the limit
        # between a row's exact value and its bound, the exact SVD decides
        from dticalib import fitting
        from dticalib.tensor import design_matrix

        scheme = make_scheme(30)
        signals = make_phantom(PhantomSpec(n_voxels=6, scheme=scheme, snr_db=25.0, seed=5)).signals
        y = log_signal_rows(signals, scheme)
        x = design_matrix(scheme)
        ols = np.linalg.lstsq(x, y.T, rcond=None)[0].T
        sqrt_w = np.exp(ols @ x.T)
        exact = np.linalg.cond(sqrt_w[:, :, None] * x)
        bound = np.linalg.cond(x) * sqrt_w.max(axis=1) / sqrt_w.min(axis=1)
        assert np.all(bound > 2 * exact)  # fixture sanity: the bound is loose
        limits = np.concatenate([exact * 0.9, np.sqrt(exact * bound), bound * 1.1])
        for limit in limits:
            monkeypatch.setattr(fitting, "CONDITION_LIMIT", limit)
            if np.all(exact <= limit):
                cond = fitting.fit_wlls_batch(y, scheme)[1]
                expected = np.where(bound <= limit, bound, exact).max()
                assert cond == pytest.approx(expected, rel=1e-9)
            else:
                with pytest.raises(DegenerateSchemeError):
                    fitting.fit_wlls_batch(y, scheme)


class TestLeverage:
    @pytest.mark.parametrize("fit", list(FITS.values()), ids=list(FITS))
    def test_sums_to_parameter_count(self, fit):
        rng = np.random.default_rng(13)
        scheme = make_scheme(24)
        truth = random_spd_tensor(rng)
        noisy = noiseless_signals(truth, scheme) * np.exp(rng.normal(0, 0.05, len(scheme)))
        cond = fit_one(fit, noisy, scheme)[1]
        leverage = weighted_leverage(log_signal_rows(noisy, scheme), scheme)[0]
        assert leverage.sum() == pytest.approx(7.0, abs=1e-8)
        assert np.all(leverage >= -1e-12) and np.all(leverage <= 1 + 1e-12)
        assert np.isfinite(cond) and cond >= 1.0


def replicate_log_signals(generator, snr_db, n_voxels=20, iterations=50, seed=3):
    """Wild-bootstrap replicate log-signal rows, as the bootstrap refits them."""
    scheme = make_scheme(30)
    phantom = make_phantom(
        PhantomSpec(n_voxels=n_voxels, scheme=scheme, generator=generator, snr_db=snr_db, seed=seed)
    )
    y_hat, scaled, _ = _wild_base(log_signal_rows(phantom.signals, scheme), scheme)
    signs = np.random.default_rng(seed).integers(0, 2, size=(n_voxels * iterations, len(scheme)))
    y_star = np.repeat(y_hat, iterations, axis=0) + (2 * signs - 1) * np.repeat(
        scaled, iterations, axis=0
    )
    return np.maximum(y_star, np.log(SIGNAL_FLOOR)), scheme


def normal_equations_bounds(y, scheme):
    """Per-row bound cond(X_s) * max(sqrt_w) / min(sqrt_w) of the weighted pass
    on (k, m) log-signal rows y."""
    x = design_matrix(scheme)
    beta0 = np.linalg.lstsq(x, y.T, rcond=None)[0].T
    sqrt_w = np.exp(beta0 @ x.T)
    return np.linalg.cond(x / np.linalg.norm(x, axis=0)) * sqrt_w.max(axis=1) / sqrt_w.min(axis=1)


class TestNormalEquations:
    @pytest.mark.parametrize("generator,snr_db", [("prolate", 28.0), ("random_spd", 5.0)])
    def test_matches_qr_solve(self, generator, snr_db, monkeypatch):
        y, scheme = replicate_log_signals(generator, snr_db)
        beta, cond = fitting.fit_wlls_batch(y, scheme)
        monkeypatch.setattr(fitting, "NORMAL_EQUATIONS_LIMIT", 0.0)
        beta_qr, cond_qr = fitting.fit_wlls_batch(y, scheme)
        rel = np.abs(beta - beta_qr).max(axis=1) / np.abs(beta_qr).max(axis=1)
        assert rel.max() <= 1e-11
        assert cond == cond_qr

    def test_split_batch_rows_equal_rows_fitted_alone(self, monkeypatch):
        y, scheme = replicate_log_signals("random_spd", 5.0, n_voxels=4, iterations=8)
        bounds = normal_equations_bounds(y, scheme)
        limit = float(np.median(bounds))
        monkeypatch.setattr(fitting, "NORMAL_EQUATIONS_LIMIT", limit)
        qr_rows = []
        qr_solve = fitting._qr_solve_batch

        def spy(design, rhs):
            qr_rows.append(len(design))
            return qr_solve(design, rhs)

        monkeypatch.setattr(fitting, "_qr_solve_batch", spy)
        batch = fitting.fit_cwlls_batch(y, scheme)
        # the QR solve sees exactly the rows past the bound, in one call
        assert qr_rows == [int(np.sum(bounds > limit))]
        assert 0 < qr_rows[0] < len(y)  # fixture sanity: both paths run
        for row in range(len(y)):
            alone = fitting.fit_cwlls_batch(y[row : row + 1], scheme)
            for whole, single in zip((batch[0], *batch[2]), (alone[0], *alone[2])):
                assert np.array_equal(whole[row], single[0])

    @pytest.mark.parametrize(
        "fit", [fit_wlls_batch, fit_cwlls_batch], ids=["fit_wlls", "fit_cwlls"]
    )
    def test_loose_row_takes_qr_with_full_leverage(self, fit, monkeypatch):
        # b = 3000 on fast diffusion spans the signals by ~e^9: far past the bound
        scheme = make_scheme(30, bvalue=3000.0)
        truth = np.array([3e-3, 2e-3, 1.5e-3, 2e-4, 0, -1e-4])
        rng = np.random.default_rng(29)
        noisy = noiseless_signals(truth, scheme) * np.exp(rng.normal(0, 0.05, len(scheme)))
        y = log_signal_rows(noisy, scheme)
        assert normal_equations_bounds(y, scheme)[0] > fitting.NORMAL_EQUATIONS_LIMIT
        qr_rows = []
        qr_solve = fitting._qr_solve_batch

        def spy(design, rhs):
            qr_rows.append(len(design))
            return qr_solve(design, rhs)

        monkeypatch.setattr(fitting, "_qr_solve_batch", spy)
        beta = fit_one(fit, noisy, scheme)[0]
        assert qr_rows == [1] and np.all(np.isfinite(beta))
        leverage = weighted_leverage(y, scheme)[0]
        assert leverage.sum() == pytest.approx(7.0, abs=1e-8)
        assert np.all(leverage >= -1e-12) and np.all(leverage <= 1 + 1e-12)


def gram_systems(y, scheme):
    """The WLLS weighted pass's normal equations of (k, m) log-signal rows y, built
    here: the equilibrated design xs (m, 7), the weights w (k, m), and the Gram
    matrices (k, 7, 7) and right-hand sides (k, 7)."""
    x = design_matrix(scheme)
    xs = x / np.linalg.norm(x, axis=0)
    sqrt_w = fitting._wlls_sqrt_weights(x, fit_ols_batch(y, scheme)[0])
    w = sqrt_w * sqrt_w
    return xs, w, np.einsum("mi,km,mj->kij", xs, w, xs), np.einsum("mj,km->kj", xs, w * y)


class TestCholeskySolve:
    def test_matches_lapack_solve(self):
        y, scheme = replicate_log_signals("prolate", 28.0)
        xs, w, gram, rhs = gram_systems(y, scheme)
        beta = fitting._normal_solve_batch(xs, w, y)[0]
        expected = np.linalg.solve(gram, rhs[..., None])[..., 0]
        assert np.all(np.abs(beta - expected) <= 1e-10 * np.abs(expected).max(axis=1)[:, None])

    def test_non_positive_pivot_takes_lapack_solve(self, monkeypatch):
        y, scheme = replicate_log_signals("prolate", 28.0, n_voxels=2, iterations=4)
        xs, w, _, _ = gram_systems(y, scheme)
        # a negative weight on the largest xs_m0^2 makes the first pivot negative
        w[3, np.argmax(xs[:, 0] ** 2)] = -1e3
        gram = np.einsum("mi,km,mj->kij", xs, w, xs)
        assert gram[3, 0, 0] < 0 < gram[np.arange(len(y)) != 3, 0, 0].min()  # fixture sanity
        beta, failed = fitting._normal_solve_batch(xs, w, y)
        assert np.flatnonzero(failed).tolist() == [3]
        for row in np.flatnonzero(~failed):
            one = slice(row, row + 1)
            alone, alone_failed = fitting._normal_solve_batch(xs, w[one], y[one])
            assert np.array_equal(alone[0], beta[row]) and not alone_failed[0]

        # the weighted solve hands a flagged row, and only it, to the one QR call
        x = design_matrix(scheme)
        beta0, cond_x = fit_ols_batch(y, scheme)
        sqrt_w = fitting._wlls_sqrt_weights(x, beta0)
        normal_solve, qr_solve = fitting._normal_solve_batch, fitting._qr_solve_batch
        unflagged = fitting._weighted_solve_batch(x, cond_x, sqrt_w, y)[0]

        def flag_row_3(xs, w, y):
            beta, failed = normal_solve(xs, w, y)
            assert len(y) == len(sqrt_w)  # fixture sanity: every row is normal
            return beta, failed | (np.arange(len(y)) == 3)

        handed = []

        def spy(design, rhs):
            handed.append((design, rhs))
            return qr_solve(design, rhs)

        monkeypatch.setattr(fitting, "_normal_solve_batch", flag_row_3)
        monkeypatch.setattr(fitting, "_qr_solve_batch", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta = fitting._weighted_solve_batch(x, cond_x, sqrt_w, y)[0]
        assert len(handed) == 1
        design, rhs = handed[0]
        assert np.array_equal(design, sqrt_w[3:4, :, None] * x)
        assert np.array_equal(rhs, sqrt_w[3:4] * y[3:4])
        assert np.all(np.isfinite(beta[3]))
        assert np.array_equal(beta[3], qr_solve(design, rhs)[0])
        others = np.arange(len(y)) != 3
        assert np.array_equal(beta[others], unflagged[others])


class TestOneOls:
    @pytest.mark.parametrize(
        "fit", [fit_wlls_batch, fit_cwlls_batch, weighted_leverage],
        ids=["fit_wlls", "fit_cwlls", "weighted_leverage"],
    )
    def test_weighted_pass_starts_from_one_ols_call(self, fit, monkeypatch):
        y, scheme = replicate_log_signals("prolate", 28.0, n_voxels=2, iterations=4)
        calls = []
        ols = fitting.fit_ols_batch

        def spy(y, scheme):
            calls.append(len(y))
            return ols(y, scheme)

        monkeypatch.setattr(fitting, "fit_ols_batch", spy)
        fit(y, scheme)
        assert calls == [len(y)]


class TestRowsAloneAsInBatch:
    """Every kernel and the leverage give each row bitwise what it gets alone."""

    @settings(max_examples=25, deadline=None)
    @given(
        n_directions=st.integers(8, 40),
        bvalue=st.floats(500.0, 3000.0),
        n_b0=st.integers(1, 3),
        snrs=st.lists(st.floats(5.0, 40.0), min_size=1, max_size=6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_row_alone_equals_row_in_batch(self, n_directions, bvalue, n_b0, snrs, seed):
        scheme = make_scheme(n_directions, bvalue, n_b0)
        rng = np.random.default_rng(seed)
        # a tensor the floor changes, a fast one whose weights span past the
        # normal-equations bound and a slow one well within it
        special = (
            np.array([2e-3, 1e-3, -0.5e-3, 0, 0, 0]),
            np.array([10.0 / bvalue, 1e-3, 0.5e-3, 0, 0, 0]),
            np.array([1.0 / bvalue] * 3 + [0.0] * 3),
        )
        rows = [noiseless_signals(elements, scheme) for elements in special]
        for snr_db in snrs:
            clean = noiseless_signals(random_spd_tensor(rng), scheme)
            n1, n2 = box_muller(rng.random(len(scheme)), rng.random(len(scheme)))
            rows.append(rician(clean, 10.0 ** (-snr_db / 20.0), n1, n2))
        y = log_signal_rows(np.array(rows)[rng.permutation(len(rows))], scheme)
        bounds = normal_equations_bounds(y, scheme)
        # draw sanity: both solve paths and the floor are exercised
        assert bounds.min() <= fitting.NORMAL_EQUATIONS_LIMIT < bounds.max()
        wlls = fit_wlls_batch(y, scheme)[0]
        assert np.linalg.eigvalsh(elements_to_matrices(wlls[:, :6])).min() < 0

        kernels = (fit_ols_batch, fit_wlls_batch, fit_cwlls_batch)
        batches = [fit(y, scheme) for fit in kernels]
        leverage = weighted_leverage(y, scheme)
        assert np.allclose(leverage.sum(axis=1), 7.0, rtol=0, atol=1e-8)
        assert np.all(leverage >= -1e-12) and np.all(leverage <= 1 + 1e-12)
        alone = [[fit(y[row : row + 1], scheme) for row in range(len(y))]
                 for fit in kernels]
        for batch, singles in zip(batches, alone):
            # cond is the largest row's, and each row's is its own
            assert batch[1] == max(single[1] for single in singles)
            for row, single in enumerate(singles):
                assert np.array_equal(batch[0][row], single[0][0])
        for row, single in enumerate(alone[2]):
            for whole, one in zip(batches[2][2], single[2]):
                assert np.array_equal(whole[row], one[0])
        for row in range(len(y)):
            alone_leverage = weighted_leverage(y[row : row + 1], scheme)
            assert np.array_equal(leverage[row], alone_leverage[0])


class TestWllsBeatsOls:
    def test_median_fa_error_at_snr30(self):
        # Monte-Carlo comparison, 500 voxels, frozen phantom seed 314
        scheme = make_scheme(30)
        spec = PhantomSpec(
            n_voxels=500, scheme=scheme, generator="prolate", fa_target=0.8,
            md=0.9e-3, orientation="uniform", snr_db=30.0, seed=314,
        )
        errs = {"ols": [], "wlls": []}
        phantom = make_phantom(spec)
        for signals, elements in zip(phantom.signals, phantom.truth):
            fa_true = eigenvalue_fa_md(eigensystem(elements)[0])[0]
            for name, fit in (("ols", fit_ols_batch), ("wlls", fit_wlls_batch)):
                evals = eigensystem(fit_one(fit, signals, scheme)[0][:6])[0]
                errs[name].append(abs(eigenvalue_fa_md(evals)[0] - fa_true))
        assert np.median(errs["wlls"]) <= np.median(errs["ols"])


class TestCwlls:
    def test_identity_when_already_spd(self):
        rng = np.random.default_rng(17)
        scheme = make_scheme(30)
        truth = random_spd_tensor(rng)
        noisy = noiseless_signals(truth, scheme) * np.exp(rng.normal(0, 0.02, len(scheme)))
        w = eigensystem(fit_one(fit_wlls_batch, noisy, scheme)[0][:6])[0]
        c = eigensystem(fit_one(fit_cwlls_batch, noisy, scheme)[0][:6])[0]
        assert w.min() > 0  # fixture sanity
        assert np.allclose(c, w, atol=1e-12)

    def test_floors_negative_eigenvalue(self):
        # phantom seed 0 at SNR 8 dB drives one WLLS eigenvalue negative
        scheme = make_scheme(30)
        spec = PhantomSpec(
            n_voxels=1, scheme=scheme, generator="prolate", fa_target=0.9,
            md=0.5e-3, orientation="fixed", snr_db=8.0, seed=0,
        )
        signals = make_phantom(spec).signals[0]
        w_evals, w_evecs = eigensystem(fit_one(fit_wlls_batch, signals, scheme)[0][:6])
        assert w_evals.min() < 0  # fixture sanity
        c_evals, c_evecs = eigensystem(fit_one(fit_cwlls_batch, signals, scheme)[0][:6])
        floor = EIGENVALUE_FLOOR_REL * max(w_evals.mean(), EIGENVALUE_FLOOR_MD_MIN)
        assert np.all(c_evals >= floor * (1 - 1e-9))
        # nearest flooring: untouched eigenvalues and eigenvectors survive
        keep = w_evals >= floor
        assert np.allclose(c_evals[keep], w_evals[keep], rtol=1e-10)
        for i in np.flatnonzero(keep):
            assert abs(np.dot(c_evecs[i], w_evecs[i])) == pytest.approx(1.0, abs=1e-8)

    def test_isotropic_floor_keeps_its_own_eigenvectors(self):
        # every eigenvalue negative: the floor makes floor * I, whose own
        # decomposition would give axes of rounding noise
        elements = np.array([[-1.0e-3, -2.0e-3, -0.5e-3, 0.2e-3, -0.1e-3, 0.3e-3]])
        evals, evecs = eigh3_batch(elements)
        assert evals.max() < 0  # fixture sanity
        out, (flo, vecs) = fitting.floor_eigenvalues_batch(elements)
        floor = EIGENVALUE_FLOOR_REL * EIGENVALUE_FLOOR_MD_MIN
        assert np.all(flo == floor)
        assert np.array_equal(vecs, evecs)
        assert np.allclose(out, [[floor, floor, floor, 0, 0, 0]], rtol=0, atol=1e-15 * floor)

    def test_one_eigensolve_per_row(self, monkeypatch):
        y, scheme = replicate_log_signals("random_spd", 5.0)
        wlls = fit_wlls_batch(y, scheme)[0]
        evals = np.linalg.eigvalsh(elements_to_matrices(wlls[:, :6]))
        floor = EIGENVALUE_FLOOR_REL * np.maximum(evals.mean(axis=1), EIGENVALUE_FLOOR_MD_MIN)
        floored = evals.min(axis=1) < floor
        assert 0 < floored.sum() < len(y)  # fixture sanity: both kinds of row
        calls = []

        def counted(mats):
            calls.append(len(mats))
            return eigh3_batch(mats)

        monkeypatch.setattr(fitting, "eigh3_batch", counted)
        beta, _, (flo, vecs) = fit_cwlls_batch(y, scheme)
        assert calls == [len(y)]
        # the eigensystem returned is that of the projected tensors
        recon = np.einsum("kji,kj,kjl->kil", vecs, flo, vecs)
        size = np.abs(flo).max(axis=1)[:, None, None]
        assert np.all(np.abs(recon - elements_to_matrices(beta[:, :6])) <= 1e-14 * size)
        assert np.array_equal(beta[~floored, :6], wlls[~floored, :6])

    def test_isotropic_truth_md_above_floor(self):
        scheme = make_scheme(30)
        rng = np.random.default_rng(23)
        truth = np.array([0.7e-3, 0.7e-3, 0.7e-3, 0, 0, 0])
        n1, n2 = box_muller(rng.random(len(scheme)), rng.random(len(scheme)))
        noisy = rician(noiseless_signals(truth, scheme), 10.0 ** (-15.0 / 20.0), n1, n2)
        evals = eigensystem(fit_one(fit_cwlls_batch, noisy, scheme)[0][:6])[0]
        assert eigenvalue_fa_md(evals)[1] >= EIGENVALUE_FLOOR_REL * EIGENVALUE_FLOOR_MD_MIN


class TestPermutationInvariance:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_permuting_measurements(self, seed):
        rng = np.random.default_rng(seed)
        scheme = make_scheme(12)
        truth = random_spd_tensor(rng)
        noisy = noiseless_signals(truth, scheme) * np.exp(rng.normal(0, 0.05, len(scheme)))
        perm = rng.permutation(len(scheme))
        permuted = GradientScheme(scheme.directions[perm], scheme.bvalues[perm])
        a_beta = fit_one(fit_wlls_batch, noisy, scheme)[0]
        b_beta = fit_one(fit_wlls_batch, noisy[perm], permuted)[0]
        assert np.allclose(a_beta[:6], b_beta[:6], atol=1e-12)
        a_residuals = residuals_of(a_beta, noisy, scheme)
        b_residuals = residuals_of(b_beta, noisy[perm], permuted)
        assert np.allclose(a_residuals[perm], b_residuals, atol=1e-12)


class TestLogSignalRows:
    def test_vector_becomes_one_row(self):
        scheme = make_scheme(10)
        signals = np.linspace(0.2, 1.0, len(scheme))
        y = log_signal_rows(signals, scheme)
        assert y.shape == (1, len(scheme)) and np.array_equal(y[0], np.log(signals))

    @pytest.mark.parametrize("shape", [(11,), (2, 11), (2, 13), (1, 2, 12)])
    def test_wrong_width_is_refused(self, shape):
        with pytest.raises(ValueError, match="signal count does not match scheme"):
            log_signal_rows(np.ones(shape), make_scheme(10))

    def test_fewer_than_seven_measurements_are_refused(self):
        scheme = make_scheme(4)  # 2 b=0 + 4 directions
        assert len(scheme) == 6  # fixture sanity
        with pytest.raises(ValueError, match="need at least 7 measurements"):
            log_signal_rows(np.ones((3, 6)), scheme)

    def test_zero_signal_is_clamped_without_warning(self):
        scheme = make_scheme(10)
        signals = np.full((2, len(scheme)), 0.5)
        signals[1, 3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = log_signal_rows(signals, scheme)
        assert y[1, 3] == np.log(SIGNAL_FLOOR)
        assert np.all(y[:, [0, 1, 2, 4]] == np.log(0.5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [*FITS, "wild_bootstrap_table"])
    def test_non_finite_signal_is_refused_by_row_and_measurement(self, name, value):
        # LAPACK would stop on it with "SVD did not converge", or OLS return NaN
        scheme = make_scheme(30)
        signals = make_phantom(PhantomSpec(4, scheme, snr_db=28.0, seed=1)).signals
        signals[2, 5] = value
        message = rf"row 2, measurement 5: signal {value!r} must be finite"
        with pytest.raises(ValueError, match=message):
            if name in FITS:
                FITS[name](log_signal_rows(signals, scheme), scheme)
            else:
                wild_bootstrap_table(signals, scheme, 50, 1)


class TestSignalFloor:
    def test_zero_signal_does_not_crash(self):
        scheme = make_scheme(10)
        signals = np.full(len(scheme), 0.5)
        signals[3] = 0.0  # Rician magnitudes can collapse to ~0
        beta = fit_one(fit_ols_batch, signals, scheme)[0]
        assert np.all(np.isfinite(beta[:6]))
