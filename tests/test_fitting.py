import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dticalib as dc
from dticalib import fitting
from dticalib.bootstrap import _wild_base
from dticalib.fitting import (
    DegenerateSchemeError,
    EIGENVALUE_FLOOR_MD_MIN,
    EIGENVALUE_FLOOR_REL,
    fit_cwlls,
    fit_ols,
    fit_wlls,
)
from dticalib.tensor import (
    DiffusionTensor,
    GradientScheme,
    design_matrix,
    eig3_sym,
    predict_signal,
)
from dticalib.simulation import make_phantom, make_scheme, random_rotation, PhantomSpec


def random_spd_tensor(rng, ln_s0=0.0):
    lam = rng.uniform(0.1e-3, 3e-3, 3)
    rot = random_rotation(rng)
    return DiffusionTensor.from_matrix(rot @ np.diag(lam) @ rot.T, ln_s0)


def noiseless_signals(tensor, scheme):
    return predict_signal(tensor, scheme) * np.exp(tensor.ln_s0)


class TestNoiselessRecovery:
    @pytest.mark.parametrize("fit", [fit_ols, fit_wlls, fit_cwlls])
    def test_exact_roundtrip(self, fit):
        rng = np.random.default_rng(5)
        scheme = make_scheme(30)
        for _ in range(25):
            truth = random_spd_tensor(rng, ln_s0=float(rng.normal(0, 0.2)))
            res = fit(noiseless_signals(truth, scheme), scheme)
            assert np.max(np.abs(res.tensor.elements - truth.elements)) < 1e-10 * np.max(
                np.abs(truth.elements)
            )
            assert res.tensor.ln_s0 == pytest.approx(truth.ln_s0, abs=1e-10)

    def test_wlls_equals_ols_without_noise(self):
        rng = np.random.default_rng(8)
        scheme = make_scheme(20)
        truth = random_spd_tensor(rng)
        s = noiseless_signals(truth, scheme)
        a = fit_ols(s, scheme).tensor.elements
        b = fit_wlls(s, scheme).tensor.elements
        assert np.allclose(a, b, atol=1e-10 * np.max(np.abs(a)))

    def test_isotropic_signals_give_isotropic_tensor(self):
        scheme = make_scheme(15)
        truth = DiffusionTensor([0.8e-3, 0.8e-3, 0.8e-3, 0, 0, 0])
        res = fit_wlls(noiseless_signals(truth, scheme), scheme)
        sc = eig3_sym(res.tensor)
        assert np.allclose(sc.eigenvalues, 0.8e-3, rtol=1e-10)

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
        res = fit_ols(noiseless_signals(truth, scheme) * 1.3, scheme)
        assert np.max(np.abs(res.residuals_log)) < 1e-10


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
            fit_ols(np.full(7, 0.5), scheme)

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
    @pytest.mark.parametrize("fit", [fit_ols, fit_wlls, fit_cwlls])
    def test_sums_to_parameter_count(self, fit):
        rng = np.random.default_rng(13)
        scheme = make_scheme(24)
        truth = random_spd_tensor(rng)
        noisy = noiseless_signals(truth, scheme) * np.exp(rng.normal(0, 0.05, len(scheme)))
        res = fit(noisy, scheme)
        assert res.leverage.sum() == pytest.approx(7.0, abs=1e-8)
        assert np.all(res.leverage >= -1e-12) and np.all(res.leverage <= 1 + 1e-12)
        assert np.isfinite(res.condition_number) and res.condition_number >= 1.0


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

    @pytest.mark.parametrize("fit", [fit_wlls, fit_cwlls])
    def test_loose_row_takes_qr_with_full_leverage(self, fit):
        # b = 3000 on fast diffusion spans the signals by ~e^9: far past the bound
        scheme = make_scheme(30, bvalue=3000.0)
        truth = DiffusionTensor([3e-3, 2e-3, 1.5e-3, 2e-4, 0, -1e-4])
        rng = np.random.default_rng(29)
        noisy = noiseless_signals(truth, scheme) * np.exp(rng.normal(0, 0.05, len(scheme)))
        assert normal_equations_bounds(noisy[None], scheme)[0] > fitting.NORMAL_EQUATIONS_LIMIT
        res = fit(noisy, scheme)
        assert res.leverage.sum() == pytest.approx(7.0, abs=1e-8)
        assert np.all(res.leverage >= -1e-12) and np.all(res.leverage <= 1 + 1e-12)


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
            fa_true = eig3_sym(DiffusionTensor(elements)).fa
            errs["ols"].append(abs(eig3_sym(fit_ols(signals, scheme).tensor).fa - fa_true))
            errs["wlls"].append(abs(eig3_sym(fit_wlls(signals, scheme).tensor).fa - fa_true))
        assert np.median(errs["wlls"]) <= np.median(errs["ols"])


class TestCwlls:
    def test_identity_when_already_spd(self):
        rng = np.random.default_rng(17)
        scheme = make_scheme(30)
        truth = random_spd_tensor(rng)
        noisy = noiseless_signals(truth, scheme) * np.exp(rng.normal(0, 0.02, len(scheme)))
        w = fit_wlls(noisy, scheme)
        c = fit_cwlls(noisy, scheme)
        assert eig3_sym(w.tensor).eigenvalues.min() > 0  # fixture sanity
        assert np.allclose(
            eig3_sym(c.tensor).eigenvalues, eig3_sym(w.tensor).eigenvalues, atol=1e-12
        )
        assert c.constrained and not w.constrained

    def test_floors_negative_eigenvalue(self):
        # phantom seed 0 at SNR 8 dB drives one WLLS eigenvalue negative
        scheme = make_scheme(30)
        spec = PhantomSpec(
            n_voxels=1, scheme=scheme, generator="prolate", fa_target=0.9,
            md=0.5e-3, orientation="fixed", snr_db=8.0, seed=0,
        )
        signals = make_phantom(spec).signals[0]
        w = eig3_sym(fit_wlls(signals, scheme).tensor)
        assert w.eigenvalues.min() < 0  # fixture sanity
        c = eig3_sym(fit_cwlls(signals, scheme).tensor)
        floor = EIGENVALUE_FLOOR_REL * max(w.eigenvalues.mean(), EIGENVALUE_FLOOR_MD_MIN)
        assert np.all(c.eigenvalues >= floor * (1 - 1e-9))
        # nearest flooring: untouched eigenvalues and eigenvectors survive
        keep = w.eigenvalues >= floor
        assert np.allclose(c.eigenvalues[keep], w.eigenvalues[keep], rtol=1e-10)
        for i in np.flatnonzero(keep):
            assert abs(np.dot(c.eigenvectors[i], w.eigenvectors[i])) == pytest.approx(
                1.0, abs=1e-8
            )

    def test_isotropic_truth_md_above_floor(self):
        scheme = make_scheme(30)
        rng = np.random.default_rng(23)
        truth = DiffusionTensor([0.7e-3, 0.7e-3, 0.7e-3, 0, 0, 0])
        noisy = dc.add_rician(predict_signal(truth, scheme), 15.0, rng)
        c = fit_cwlls(noisy, scheme)
        assert eig3_sym(c.tensor).md >= EIGENVALUE_FLOOR_REL * EIGENVALUE_FLOOR_MD_MIN


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
        a = fit_wlls(noisy, scheme)
        b = fit_wlls(noisy[perm], permuted)
        assert np.allclose(a.tensor.elements, b.tensor.elements, atol=1e-12)
        assert np.allclose(a.residuals_log[perm], b.residuals_log, atol=1e-12)


class TestSignalFloor:
    def test_zero_signal_does_not_crash(self):
        scheme = make_scheme(10)
        signals = np.full(len(scheme), 0.5)
        signals[3] = 0.0  # Rician magnitudes can collapse to ~0
        res = fit_ols(signals, scheme)
        assert np.all(np.isfinite(res.tensor.elements))
