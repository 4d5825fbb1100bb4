import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dticalib import fitting
from dticalib.bootstrap import _wild_base
from dticalib.fitting import (
    DegenerateSchemeError,
    EIGENVALUE_FLOOR_MD_MIN,
    EIGENVALUE_FLOOR_REL,
    fit_cwlls_batch,
    fit_ols_batch,
    fit_wlls_batch,
)
from dticalib.rng import box_muller
from dticalib.tensor import (
    GradientScheme,
    design_matrix,
    eigh3_batch,
    elements_to_matrices,
    fa_md_from_eigenvalues,
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
    """(beta, residuals, leverage, cond) of one voxel, fitted as a one-row batch."""
    beta, residuals, leverage, cond = fit(signals[None], scheme)[:4]
    return beta[0], residuals[0], leverage[0], cond


def eigensystem(elements):
    """Eigenvalues (3,) descending and eigenvector rows (3, 3) of one element row."""
    evals, evecs = eigh3_batch(elements_to_matrices(elements[None]))
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
        residuals = fit_one(fit_ols_batch, noiseless_signals(truth, scheme) * 1.3, scheme)[1]
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
        x = design_matrix(scheme)
        ols = np.linalg.lstsq(x, np.log(signals).T, rcond=None)[0].T
        sqrt_w = np.exp(ols @ x.T)
        exact = np.linalg.cond(sqrt_w[:, :, None] * x)
        bound = np.linalg.cond(x) * sqrt_w.max(axis=1) / sqrt_w.min(axis=1)
        assert np.all(bound > 2 * exact)  # fixture sanity: the bound is loose
        limits = np.concatenate([exact * 0.9, np.sqrt(exact * bound), bound * 1.1])
        for limit in limits:
            monkeypatch.setattr(fitting, "CONDITION_LIMIT", limit)
            if np.all(exact <= limit):
                cond = fitting.fit_wlls_batch(signals, scheme)[3]
                expected = np.where(bound <= limit, bound, exact).max()
                assert cond == pytest.approx(expected, rel=1e-9)
            else:
                with pytest.raises(DegenerateSchemeError):
                    fitting.fit_wlls_batch(signals, scheme)


class TestLeverage:
    @pytest.mark.parametrize("fit", list(FITS.values()), ids=list(FITS))
    def test_sums_to_parameter_count(self, fit):
        rng = np.random.default_rng(13)
        scheme = make_scheme(24)
        truth = random_spd_tensor(rng)
        noisy = noiseless_signals(truth, scheme) * np.exp(rng.normal(0, 0.05, len(scheme)))
        _, _, leverage, cond = fit_one(fit, noisy, scheme)
        assert leverage.sum() == pytest.approx(7.0, abs=1e-8)
        assert np.all(leverage >= -1e-12) and np.all(leverage <= 1 + 1e-12)
        assert np.isfinite(cond) and cond >= 1.0


def replicate_signals(generator, snr_db, n_voxels=20, iterations=50, seed=3):
    """Wild-bootstrap replicate signal rows, as the bootstrap refits them."""
    scheme = make_scheme(30)
    phantom = make_phantom(
        PhantomSpec(n_voxels=n_voxels, scheme=scheme, generator=generator, snr_db=snr_db, seed=seed)
    )
    y_hat, scaled, _ = _wild_base(phantom.signals, scheme)
    signs = np.random.default_rng(seed).integers(0, 2, size=(n_voxels * iterations, len(scheme)))
    y_star = np.repeat(y_hat, iterations, axis=0) + (2 * signs - 1) * np.repeat(
        scaled, iterations, axis=0
    )
    return np.exp(y_star), scheme


def normal_equations_bounds(signals, scheme):
    """Per-row bound cond(X_s) * max(sqrt_w) / min(sqrt_w) of the weighted pass."""
    x = design_matrix(scheme)
    beta0 = np.linalg.lstsq(x, np.log(signals).T, rcond=None)[0].T
    sqrt_w = np.exp(beta0 @ x.T)
    return np.linalg.cond(x / np.linalg.norm(x, axis=0)) * sqrt_w.max(axis=1) / sqrt_w.min(axis=1)


class TestNormalEquations:
    @pytest.mark.parametrize("generator,snr_db", [("prolate", 28.0), ("random_spd", 5.0)])
    def test_matches_qr_solve(self, generator, snr_db, monkeypatch):
        signals, scheme = replicate_signals(generator, snr_db)
        beta, _, leverage, cond = fitting.fit_wlls_batch(signals, scheme)
        monkeypatch.setattr(fitting, "NORMAL_EQUATIONS_LIMIT", 0.0)
        beta_qr, _, leverage_qr, cond_qr = fitting.fit_wlls_batch(signals, scheme)
        rel = np.abs(beta - beta_qr).max(axis=1) / np.abs(beta_qr).max(axis=1)
        assert rel.max() <= 1e-11
        assert np.abs(leverage - leverage_qr).max() <= 1e-13
        assert cond == cond_qr

    def test_split_batch_rows_equal_rows_fitted_alone(self, monkeypatch):
        signals, scheme = replicate_signals("random_spd", 5.0, n_voxels=4, iterations=8)
        bounds = normal_equations_bounds(signals, scheme)
        limit = float(np.median(bounds))
        monkeypatch.setattr(fitting, "NORMAL_EQUATIONS_LIMIT", limit)
        qr_rows = []
        qr_solve = fitting._qr_solve_batch

        def spy(design, rhs):
            qr_rows.append(len(design))
            return qr_solve(design, rhs)

        monkeypatch.setattr(fitting, "_qr_solve_batch", spy)
        batch = fitting.fit_cwlls_batch(signals, scheme)
        # the QR solve sees exactly the rows past the bound, in one call
        assert qr_rows == [int(np.sum(bounds > limit))]
        assert 0 < qr_rows[0] < len(signals)  # fixture sanity: both paths run
        for row in range(len(signals)):
            alone = fitting.fit_cwlls_batch(signals[row : row + 1], scheme)
            for whole, single in zip(batch[:3], alone[:3]):
                assert np.array_equal(whole[row], single[0])

    @pytest.mark.parametrize(
        "fit", [fit_wlls_batch, fit_cwlls_batch], ids=["fit_wlls", "fit_cwlls"]
    )
    def test_loose_row_takes_qr_with_full_leverage(self, fit):
        # b = 3000 on fast diffusion spans the signals by ~e^9: far past the bound
        scheme = make_scheme(30, bvalue=3000.0)
        truth = np.array([3e-3, 2e-3, 1.5e-3, 2e-4, 0, -1e-4])
        rng = np.random.default_rng(29)
        noisy = noiseless_signals(truth, scheme) * np.exp(rng.normal(0, 0.05, len(scheme)))
        assert normal_equations_bounds(noisy[None], scheme)[0] > fitting.NORMAL_EQUATIONS_LIMIT
        leverage = fit_one(fit, noisy, scheme)[2]
        assert leverage.sum() == pytest.approx(7.0, abs=1e-8)
        assert np.all(leverage >= -1e-12) and np.all(leverage <= 1 + 1e-12)


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
            fa_true = fa_md_from_eigenvalues(eigensystem(elements)[0])[0]
            for name, fit in (("ols", fit_ols_batch), ("wlls", fit_wlls_batch)):
                evals = eigensystem(fit_one(fit, signals, scheme)[0][:6])[0]
                errs[name].append(abs(fa_md_from_eigenvalues(evals)[0] - fa_true))
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

    def test_isotropic_truth_md_above_floor(self):
        scheme = make_scheme(30)
        rng = np.random.default_rng(23)
        truth = np.array([0.7e-3, 0.7e-3, 0.7e-3, 0, 0, 0])
        n1, n2 = box_muller(rng.random(len(scheme)), rng.random(len(scheme)))
        noisy = rician(noiseless_signals(truth, scheme), 10.0 ** (-15.0 / 20.0), n1, n2)
        evals = eigensystem(fit_one(fit_cwlls_batch, noisy, scheme)[0][:6])[0]
        assert fa_md_from_eigenvalues(evals)[1] >= EIGENVALUE_FLOOR_REL * EIGENVALUE_FLOOR_MD_MIN


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
        a_beta, a_residuals = fit_one(fit_wlls_batch, noisy, scheme)[:2]
        b_beta, b_residuals = fit_one(fit_wlls_batch, noisy[perm], permuted)[:2]
        assert np.allclose(a_beta[:6], b_beta[:6], atol=1e-12)
        assert np.allclose(a_residuals[perm], b_residuals, atol=1e-12)


class TestSignalFloor:
    def test_zero_signal_does_not_crash(self):
        scheme = make_scheme(10)
        signals = np.full(len(scheme), 0.5)
        signals[3] = 0.0  # Rician magnitudes can collapse to ~0
        beta = fit_one(fit_ols_batch, signals, scheme)[0]
        assert np.all(np.isfinite(beta[:6]))
