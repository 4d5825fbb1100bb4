import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dticalib.tensor import (
    GradientScheme,
    design_matrix,
    eigh3_batch,
    elements_to_matrices,
    fa_md_from_eigenvalues,
    matrices_to_elements,
    predict_signal_batch,
)
from dticalib.simulation import _unit_quaternion, make_scheme, quaternion_rotations


def diag_tensor(dxx, dyy, dzz):
    return np.array([dxx, dyy, dzz, 0.0, 0.0, 0.0])


def random_rotation(rng):
    return quaternion_rotations(_unit_quaternion(rng)[None])[0]


def scalars(elements):
    """(eigenvalues, eigenvectors, fa, md) of one (6,) element row, as a one-row batch."""
    evals, evecs = eigh3_batch(elements_to_matrices(elements[None]))
    fa, md = fa_md_from_eigenvalues(evals)
    return evals[0], evecs[0], fa[0], md[0]


class TestGradientScheme:
    def test_accepts_unit_directions(self):
        s = GradientScheme([[1, 0, 0], [0, 0, 0]], [1000.0, 0.0])
        assert s.n_measurements == 2

    def test_rejects_non_unit_weighted_direction(self):
        with pytest.raises(ValueError):
            GradientScheme([[2, 0, 0]], [1000.0])

    def test_rejects_negative_bvalue(self):
        with pytest.raises(ValueError):
            GradientScheme([[1, 0, 0]], [-1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            GradientScheme([[1, 0, 0]], [1000.0, 0.0])


class TestPredictSignal:
    def test_isotropic_same_for_all_directions(self):
        scheme = make_scheme(12, bvalue=1000.0, n_b0=0)
        t = diag_tensor(1e-3, 1e-3, 1e-3)
        s = predict_signal_batch(t[None], scheme)[0]
        assert np.allclose(s, np.exp(-1.0), atol=1e-15)

    def test_b0_is_exactly_one(self):
        scheme = make_scheme(6, n_b0=2)
        s = predict_signal_batch(diag_tensor(1.7e-3, 0.3e-3, 0.3e-3)[None], scheme)[0]
        assert s[0] == 1.0 and s[1] == 1.0

    def test_diagonal_tensor_along_x(self):
        # q = (1,0,0), b = 1000 picks out Dxx alone
        scheme = GradientScheme([[1.0, 0.0, 0.0]], [1000.0])
        s = predict_signal_batch(diag_tensor(1.7e-3, 0.3e-3, 0.3e-3)[None], scheme)[0]
        assert s[0] == pytest.approx(0.18268352405273466, abs=1e-15)

    def test_non_finite_rejected(self):
        scheme = make_scheme(6)
        with pytest.raises(ValueError, match="non-finite input"):
            predict_signal_batch(np.array([[np.nan, 0, 0, 0, 0, 0]]), scheme)

    def test_values_in_unit_interval_for_spd(self):
        scheme = make_scheme(20)
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam = rng.uniform(0.1e-3, 3e-3, 3)
            rot = random_rotation(rng)
            t = matrices_to_elements((rot @ np.diag(lam) @ rot.T)[None])
            s = predict_signal_batch(t, scheme)[0]
            assert np.all(s > 0) and np.all(s <= 1.0)


class TestEig3Sym:
    def test_isotropic_fa_zero(self):
        _, _, fa, md = scalars(diag_tensor(0.7e-3, 0.7e-3, 0.7e-3))
        assert fa == pytest.approx(0.0, abs=1e-12)
        assert md == pytest.approx(0.7e-3, rel=1e-12)

    def test_rank_one_fa_is_one(self):
        _, _, fa, md = scalars(diag_tensor(1.0, 0.0, 0.0))
        assert fa == pytest.approx(1.0, abs=1e-12)
        assert md == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero_tensor_fa_defined_zero(self):
        _, _, fa, _ = scalars(diag_tensor(0.0, 0.0, 0.0))
        assert fa == 0.0

    def test_prolate_example(self):
        # oracle: direct evaluation of the FA formula on the eigenvalues
        lam = np.array([1.7e-3, 0.3e-3, 0.3e-3])
        fa_direct = np.sqrt(1.5 * np.sum((lam - lam.mean()) ** 2) / np.sum(lam**2))
        _, _, fa, md = scalars(diag_tensor(*lam))
        assert fa_direct == pytest.approx(0.7990222037494894, abs=1e-12)
        assert fa == pytest.approx(fa_direct, abs=1e-12)
        assert md == pytest.approx(lam.mean(), rel=1e-12)

    def test_eigenvectors_orthonormal_and_reconstruct(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mat = rng.normal(size=(3, 3))
            mat = (mat + mat.T) / 2
            evals, v, _, _ = scalars(matrices_to_elements(mat[None])[0])
            assert np.allclose(v @ v.T, np.eye(3), atol=1e-8)
            recon = v.T @ np.diag(evals) @ v
            assert np.linalg.norm(recon - mat) <= 1e-10 * max(np.linalg.norm(mat), 1e-30)

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(11)
        mats = rng.normal(size=(200, 3, 3))
        mats = (mats + mats.transpose(0, 2, 1)) / 2
        evals, _ = eigh3_batch(mats)
        ref = np.sort(np.linalg.eigvalsh(mats), axis=1)[:, ::-1]
        assert np.allclose(evals, ref, atol=1e-12)

    def test_degenerate_eigenvalues(self):
        evals, evecs = eigh3_batch(np.eye(3)[None] * 2.5)
        assert np.allclose(evals[0], 2.5)
        assert np.allclose(evecs[0] @ evecs[0].T, np.eye(3), atol=1e-12)

    def test_rows_independent_of_batch(self):
        # LAPACK decomposes each matrix on its own: a mixed batch gives
        # bit-for-bit the row-by-row results
        rng = np.random.default_rng(29)
        mats = rng.normal(size=(12, 3, 3)) * 1e-3
        mats = (mats + mats.transpose(0, 2, 1)) / 2
        mats[3] = np.eye(3) * 2.5
        mats[4] = np.diag([2e-3, 2e-3, 0.5e-3])
        mats[5] = 0.0
        mats[6] = np.diag([1.0, 1.0 + 1e-15, 1.0 - 1e-15])
        mats[7] *= 1e12
        evals, evecs = eigh3_batch(mats)
        for i in range(len(mats)):
            e1, v1 = eigh3_batch(mats[i : i + 1])
            assert np.array_equal(e1[0], evals[i]) and np.array_equal(v1[0], evecs[i])
        assert np.all(np.diff(evals, axis=1) <= 0)


class TestDesignMatrix:
    def test_b0_row(self):
        scheme = GradientScheme([[0.0, 0.0, 0.0]], [0.0])
        assert np.array_equal(design_matrix(scheme)[0], [0, 0, 0, 0, 0, 0, 1])

    def test_x_direction_row(self):
        scheme = GradientScheme([[1.0, 0.0, 0.0]], [1000.0])
        assert np.array_equal(design_matrix(scheme)[0], [-1000, 0, 0, 0, 0, 0, 1])

    def test_consistent_with_signal_model(self):
        # X @ params must equal ln(predict * S0) for random tensors/schemes
        rng = np.random.default_rng(21)
        for _ in range(20):
            n_dirs = int(rng.integers(8, 40))
            scheme = make_scheme(n_dirs, bvalue=float(rng.uniform(500, 3000)))
            lam = rng.uniform(0.1e-3, 3e-3, 3)
            rot = random_rotation(rng)
            ln_s0 = float(rng.normal(0, 0.3))
            t = matrices_to_elements((rot @ np.diag(lam) @ rot.T)[None])
            x = design_matrix(scheme)
            params = np.concatenate([t[0], [ln_s0]])
            log_signal = np.log(predict_signal_batch(t, scheme)[0]) + ln_s0
            assert np.allclose(x @ params, log_signal, atol=1e-12)


class TestRotationEquivariance:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_fa_md_rotation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.1e-3, 3e-3, 3)
        rot = random_rotation(rng)
        _, _, base_fa, base_md = scalars(diag_tensor(*lam))
        _, _, fa, md = scalars(matrices_to_elements((rot @ np.diag(lam) @ rot.T)[None])[0])
        assert fa == pytest.approx(base_fa, abs=1e-10)
        assert md == pytest.approx(base_md, abs=1e-10 * base_md + 1e-18)


class TestElementLayout:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(10, 6))
        assert np.array_equal(matrices_to_elements(elements_to_matrices(e)), e)

    def test_fa_clipped_to_unit_interval(self):
        # mixed-sign eigenvalues can push the raw formula above 1
        fa, _ = fa_md_from_eigenvalues(np.array([1.0, 0.0, -1.0]))
        assert fa == 1.0
