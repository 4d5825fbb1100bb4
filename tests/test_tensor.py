import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dticalib import pipeline, tensor
from dticalib.bootstrap import wild_bootstrap
from dticalib.fitting import fit_ols_batch, log_signal_rows
from dticalib.pipeline import tensor_scalars
from dticalib.tensor import (
    GradientScheme,
    design_matrix,
    eigh3_batch,
    elements_to_matrices,
    fa_md,
    matrices_to_elements,
    predict_signal_batch,
    principal_scalars,
)
from dticalib.simulation import (
    PhantomSpec,
    _unit_quaternion,
    make_phantom,
    make_scheme,
    quaternion_rotations,
)

LAPACK_EIGH = np.linalg.eigh  # the reference, bound before any test spies on it


def diag_tensor(dxx, dyy, dzz):
    return np.array([dxx, dyy, dzz, 0.0, 0.0, 0.0])


def random_rotation(rng):
    return quaternion_rotations(_unit_quaternion(rng)[None])[0]


def eigenvalue_fa_md(evals):
    """Reference FA and MD from eigenvalue triples (last axis of length 3).

    FA of the all-zero tensor is 0; FA is clipped to [0, 1].
    """
    evals = np.asarray(evals, dtype=np.float64)
    md = evals.mean(axis=-1)
    dev = evals - md[..., None]
    denom = np.sum(evals * evals, axis=-1)
    num = 1.5 * np.sum(dev * dev, axis=-1)
    fa = np.sqrt(np.divide(num, denom, out=np.zeros_like(num), where=denom > 0))
    return np.clip(fa, 0.0, 1.0), md


def lapack_reference(mats):
    """Eigenvalues (n, 3) descending and eigenvector rows (n, 3, 3) from numpy's eigh."""
    evals, evecs = LAPACK_EIGH(mats)
    return evals[:, ::-1], evecs[:, :, ::-1].swapaxes(1, 2)


def spy_lapack(monkeypatch):
    """A list that gains the matrices of each np.linalg.eigh call."""
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return LAPACK_EIGH(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return seen


def lapack_rows(rows):
    """Which of the (n, 6) rows eigh3_batch hands to LAPACK, each decomposed alone."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = spy_lapack(monkeypatch)
        loose = []
        for i in range(len(rows)):
            before = len(seen)
            eigh3_batch(rows[i : i + 1])
            loose.append(len(seen) > before)
    return np.array(loose)


def scalars(elements):
    """(eigenvalues, eigenvectors, fa, md) of one (6,) element row, as a one-row batch."""
    evals, evecs = eigh3_batch(elements[None])
    fa, md = eigenvalue_fa_md(evals)
    return evals[0], evecs[0], fa[0], md[0]


class TestGradientScheme:
    def test_accepts_unit_directions(self):
        s = GradientScheme([[1, 0, 0], [0, 0, 0]], [1000.0, 0.0])
        assert len(s) == 2

    def test_rejects_non_unit_weighted_direction(self):
        with pytest.raises(ValueError):
            GradientScheme([[2, 0, 0]], [1000.0])

    def test_rejects_negative_bvalue(self):
        with pytest.raises(ValueError):
            GradientScheme([[1, 0, 0]], [-1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            GradientScheme([[1, 0, 0]], [1000.0, 0.0])

    @pytest.mark.parametrize("directions, bvalues, message", [
        ([1, 0, 0], [1000.0], "directions must be an (m, 3) array"),
        ([[1, 0]], [1000.0], "directions must be an (m, 3) array"),
        ([[0.5, 0, 0]], [0.0], "b=0 directions must be unit or zero vectors"),
    ])
    def test_refusal_names_what_is_wrong(self, directions, bvalues, message):
        with pytest.raises(ValueError) as info:
            GradientScheme(directions, bvalues)
        assert str(info.value) == message


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
        evals, _ = eigh3_batch(matrices_to_elements(mats))
        ref = np.sort(np.linalg.eigvalsh(mats), axis=1)[:, ::-1]
        assert np.allclose(evals, ref, atol=1e-12)

    def test_degenerate_eigenvalues(self):
        evals, evecs = eigh3_batch(np.array([[2.5, 2.5, 2.5, 0.0, 0.0, 0.0]]))
        assert np.allclose(evals[0], 2.5)
        assert np.allclose(evecs[0] @ evecs[0].T, np.eye(3), atol=1e-12)

    def test_rows_independent_of_batch(self):
        # every row is solved alone, in closed form or, if loose, by LAPACK: a
        # mixed batch gives bit for bit the row-by-row results
        rng = np.random.default_rng(29)
        mats = rng.normal(size=(16, 3, 3)) * 1e-3
        mats = (mats + mats.transpose(0, 2, 1)) / 2
        mats[3] = np.eye(3) * 2.5
        mats[4] = np.diag([2e-3, 2e-3, 0.5e-3])
        mats[5] = 0.0
        mats[6] = np.diag([1.0, 1.0 + 1e-15, 1.0 - 1e-15])
        mats[7] *= 1e12
        mats[8] = elements_to_matrices(np.array([1e-11, 1e-11, 1e-11, 1e-27, -2e-27, 3e-27]))
        mats[9] = np.diag([1.7e-3, 0.3e-3, 0.3e-3])
        mats[10] *= 1e-300
        rows = matrices_to_elements(mats)
        loose = lapack_rows(rows)
        assert loose[[3, 4, 5, 6, 8, 9]].all() and not loose.all()  # fixture sanity
        evals, evecs = eigh3_batch(rows)
        for i in range(len(rows)):
            e1, v1 = eigh3_batch(rows[i : i + 1])
            assert np.array_equal(e1[0], evals[i]) and np.array_equal(v1[0], evecs[i])
        assert np.all(np.diff(evals, axis=1) <= 0)


def angle_deg(v, w):
    """Angle between the axes of unit rows v and w, accurate down to 1e-16 rad."""
    sin = np.linalg.norm(np.cross(v, w), axis=1)
    return np.degrees(np.arctan2(sin, np.abs(np.sum(v * w, axis=1))))


OLS_SCHEME = make_scheme(12)


def hard_row(kind, gap, log_scale, seed):
    """One (6,) tensor row of a shape where a closed form is at its weakest."""
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    lam = rng.uniform(0.2, 2.0)
    if kind == "prolate":  # lambda2 == lambda3 exactly
        minor = lam * rng.uniform(0.05, 0.95)
        lams = [lam, minor, minor]
    elif kind == "near_oblate":  # lambda1 = lambda2 (1 + gap)
        lams = [lam * (1.0 + gap), lam, lam * rng.uniform(-0.5, 0.95)]
    elif kind == "near_isotropic":  # anisotropy at gap x the size
        lams = lam * (1.0 + gap * rng.normal(size=3))
    elif kind == "random":  # any sign
        lams = rng.normal(0.3, 1.0, size=3)
    elif kind == "isotropic":
        lams = [lam, lam, lam]
    elif kind == "zero":
        return np.zeros(6)
    elif kind == "floor":  # a floored fit: 1e-11 I with rounding-level off-diagonals
        return np.concatenate([np.full(3, 1e-11), rng.uniform(-1e-27, 1e-27, 3)])
    else:  # an OLS fit of a noisy prolate voxel; often has a negative eigenvalue
        truth = matrices_to_elements((rot @ np.diag([1.7e-3, 0.3e-3, 0.3e-3]) @ rot.T)[None])
        signals = predict_signal_batch(truth, OLS_SCHEME)
        signals = np.abs(signals + rng.normal(0.0, 0.3, signals.shape))
        return fit_ols_batch(log_signal_rows(signals, OLS_SCHEME), OLS_SCHEME)[0][0, :6]
    mats = rot @ np.diag(np.asarray(lams, dtype=np.float64) * 10.0**log_scale) @ rot.T
    return matrices_to_elements(mats[None])[0]


HARD_ROWS = st.builds(
    hard_row,
    st.sampled_from(
        ["prolate", "near_oblate", "near_isotropic", "random", "isotropic", "zero", "floor",
         "ols"]
    ),
    st.sampled_from([10.0**-k for k in range(1, 10)] + [0.0]),
    st.floats(-6.0, 2.0),
    st.integers(0, 2**32 - 1),
)

# HARD_ROWS at their own scale, or moved by an exact power of two to near the
# subnormals or to where fourth powers overflow: a scale shared across rows
# would underflow or overflow there
SCALED_HARD_ROWS = st.builds(np.ldexp, HARD_ROWS, st.sampled_from([0, -990, 500]))


def wbs_chain_replicates():
    """(n, 6) replicate tensors of the wild bootstrap of a few wbs_chain voxels:
    prolate FA 0.8, MD 0.9e-3, 28 dB, 30 directions + 2 b0."""
    scheme = make_scheme(30)
    spec = PhantomSpec(n_voxels=4, scheme=scheme, snr_db=28.0, seed=1)
    return np.concatenate([
        wild_bootstrap(row, scheme, 500, 1)[0] for row in make_phantom(spec).signals
    ])


class TestEigh3Batch:
    """The closed form against numpy's eigh, called here."""

    def check_against_lapack(self, rows):
        loose = lapack_rows(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            evals, evecs = eigh3_batch(rows)
        mats = elements_to_matrices(rows)
        ref_evals, ref_evecs = lapack_reference(mats)
        size = np.linalg.norm(mats, axis=(1, 2))[:, None]
        assert np.all(np.abs(evals - ref_evals) <= 1e-12 * size)
        assert np.all(np.diff(evals, axis=1) <= 0)
        assert np.all(angle_deg(evecs[~loose, 0], ref_evecs[~loose, 0]) <= 1e-9)
        assert np.array_equal(evals[loose], ref_evals[loose])
        assert np.array_equal(evecs[loose], ref_evecs[loose])
        gram = np.einsum("nij,nkj->nik", evecs, evecs)
        assert np.all(np.abs(gram - np.eye(3)) <= 1e-14)
        recon = np.einsum("nji,nj,njk->nik", evecs, evals, evecs)
        assert np.all(np.abs(recon - mats) <= 1e-13 * size[:, :, None])
        return loose

    @settings(max_examples=300, deadline=None)
    @given(st.lists(HARD_ROWS, min_size=1, max_size=12))
    def test_hard_rows_match_lapack(self, rows):
        self.check_against_lapack(np.array(rows))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(SCALED_HARD_ROWS, min_size=2, max_size=12), st.data())
    def test_each_row_alone_as_in_a_permuted_batch(self, rows, data):
        rows = np.array(rows)
        order = data.draw(st.permutations(range(len(rows))))
        evals, evecs = eigh3_batch(rows[order])
        for i, row in enumerate(order):
            alone = eigh3_batch(rows[row : row + 1])
            assert np.array_equal(alone[0][0], evals[i]) and np.array_equal(alone[1][0], evecs[i])

    def test_wbs_chain_replicates_match_lapack(self):
        rows = wbs_chain_replicates()
        loose = self.check_against_lapack(rows)
        # prolate: lambda2 near lambda3 sends a few rows to LAPACK, not most
        assert 0 < loose.sum() < 0.1 * len(rows)

    @pytest.mark.parametrize("kind", ["isotropic", "zero", "floor", "nan", "inf"])
    def test_rows_it_cannot_settle_reach_lapack(self, kind, monkeypatch):
        row = {
            "isotropic": [0.7e-3, 0.7e-3, 0.7e-3, 0.0, 0.0, 0.0],
            "zero": np.zeros(6),
            "floor": [1e-11, 1e-11, 1e-11, 1e-27, -2e-27, 3e-27],
            "nan": [np.nan, 1e-3, 1e-3, 0.0, 0.0, 0.0],
            "inf": [1e-3, 1e-3, 1e-3, 0.0, np.inf, 0.0],
        }[kind]
        sure = [1.7e-3, 0.3e-3, 0.2e-3, 1e-4, 0.0, 0.0]
        rows = np.array([sure, row, sure])
        seen = spy_lapack(monkeypatch)
        try:
            eigh3_batch(rows)
        except np.linalg.LinAlgError:  # LAPACK's own verdict on a non-finite row stands
            assert kind in ("nan", "inf")
        expected = elements_to_matrices(rows[1:2])
        assert len(seen) == 1 and np.array_equal(seen[0], expected, equal_nan=True)

    @pytest.mark.parametrize("shape", [(4, 3, 3), (6,), (4, 7), (2, 4, 6), (4, 9)])
    def test_refuses_anything_but_element_rows(self, shape):
        # a (n, 3, 3) matrix is refused, not read by one triangle
        with pytest.raises(ValueError, match=r"\(n, 6\)"):
            eigh3_batch(np.ones(shape))


class TestPrincipalScalars:
    """The closed form against numpy's eigh, called here."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(HARD_ROWS, min_size=1, max_size=12))
    def test_matches_eigh(self, rows):
        elements = np.array(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, _, _, loose = principal_scalars(elements)
            fa, md, v1 = tensor_scalars(elements)
            fa_closed, md_closed = fa_md(elements)
        evals, evecs = lapack_reference(elements_to_matrices(elements))
        fa_ref, md_ref = eigenvalue_fa_md(evals)
        sure = ~loose
        size = np.linalg.norm(elements_to_matrices(elements), axis=(1, 2))
        # every row's FA and MD is fa_md's, loose rows included
        assert np.array_equal(fa, fa_closed) and np.array_equal(md, md_closed)
        # MD relative to the tensor's size: an OLS fit's MD can sit near 0
        assert np.all(np.abs(fa - fa_ref) <= 1e-14)
        assert np.all(np.abs(md - md_ref) <= 1e-14 * size)
        assert np.all(angle_deg(v1, evecs[:, 0])[sure] <= 1e-9)
        assert np.array_equal(v1[loose], evecs[loose, 0])
        for i in range(len(elements)):
            alone = tensor_scalars(elements[i : i + 1])
            assert np.array_equal(alone[0][0], fa[i]) and np.array_equal(alone[1][0], md[i])
            assert np.array_equal(alone[2][0], v1[i])
            assert principal_scalars(elements[i : i + 1])[3][0] == loose[i]

    def test_separated_lambda1_is_never_loose(self):
        rng = np.random.default_rng(41)
        n = 20000
        lam2 = rng.uniform(0.1, 2.0, n)
        lams = np.column_stack(
            [lam2 * rng.uniform(1.3, 10.0, n), lam2, lam2 * rng.uniform(1e-6, 1.0, n)]
        )
        quats = rng.normal(size=(n, 4))
        rots = quaternion_rotations(quats / np.linalg.norm(quats, axis=1, keepdims=True))
        mats = rots @ (lams[:, :, None] * 10.0 ** rng.uniform(-6, 2, (n, 1, 1))
                       * rots.swapaxes(1, 2))
        assert not principal_scalars(matrices_to_elements(mats))[3].any()

    def test_edge_rows(self):
        elements = np.array(
            [
                np.zeros(6),
                [0.7e-3, 0.7e-3, 0.7e-3, 0.0, 0.0, 0.0],
                [1e-11, 1e-11, 1e-11, 1e-27, -2e-27, 3e-27],
                [1e-3, 1e-3, 0.2e-3, 0.0, 0.0, 0.0],  # oblate: no principal axis
                [np.nan, 0.0, 0.0, 0.0, 0.0, 0.0],
                [np.inf, 1e-3, 1e-3, 0.0, 0.0, 0.0],
                [1.7e-3, 0.3e-3, 0.3e-3, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1e-320, 0.0, 0.0],  # subnormal: eigenvalues +-1e-320, 0
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fa, md, v1, loose = principal_scalars(elements)
        assert loose.tolist() == [True] * 6 + [False] * 2
        assert fa[0] == 0.0 and fa[1] == 0.0
        assert np.isnan(fa[4:6]).all() and np.isnan(md[4:6]).all()
        assert np.array_equal(np.abs(v1[6]), [1.0, 0.0, 0.0])
        assert fa[6] == pytest.approx(0.7990222037494894, abs=1e-15)
        assert np.allclose(np.abs(v1[7]), [np.sqrt(0.5), np.sqrt(0.5), 0.0], atol=1e-15)

    def test_rejects_misshapen_rows(self):
        with pytest.raises(ValueError, match="expected"):
            principal_scalars(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError, match="expected"):
            fa_md(np.zeros((3, 5)))


def block_edge_rows(n):
    """(n, 6) rows for principal_scalars' row blocks: every fifth row at 1e-300
    and every fifth at 1e150 (a scale shared across a block would flush the small
    ones to zero), the rest at 1e-6..1e2, each seventh isotropic (loose)."""
    rng = np.random.default_rng(61)
    quats = rng.normal(size=(n, 4))
    rots = quaternion_rotations(quats / np.linalg.norm(quats, axis=1, keepdims=True))
    lams = rng.uniform(0.2, 2.0, (n, 3))
    lams[::7] = lams[::7, :1]
    scale = 10.0 ** rng.uniform(-6, 2, n)
    scale[1::5], scale[3::5] = 1e-300, 1e150
    mats = rots @ (lams[:, :, None] * scale[:, None, None] * rots.swapaxes(1, 2))
    return matrices_to_elements(mats)


class TestScalarBlocks:
    """principal_scalars runs tensor.SCALAR_BLOCK_ROWS rows at a time, and a row's
    scalars must not depend on the block it falls in."""

    @pytest.mark.parametrize("block", [5, tensor.SCALAR_BLOCK_ROWS])
    def test_rows_equal_rows_alone_around_block_edges(self, monkeypatch, block):
        monkeypatch.setattr(tensor, "SCALAR_BLOCK_ROWS", block)
        rows = block_edge_rows(2 * block + 1)
        # each row alone is a call of its own, so at the module's block size the
        # rows at each block edge and a sample of 200 stand for all
        edges = {0, block - 2, block - 1, block, block + 1, 2 * block - 1, 2 * block}
        sample = np.random.default_rng(5).choice(len(rows), min(200, len(rows)), replace=False)
        checked = sorted(edges | {int(i) for i in sample})
        alone = {i: tensor_scalars(rows[i : i + 1]) for i in checked}
        loose = principal_scalars(rows)[3]
        assert loose.any() and not loose.all()  # fixture sanity: both paths run
        for n in (block - 1, block, block + 1, 2 * block + 1):
            fa, md, v1 = tensor_scalars(rows[:n])
            for i in (i for i in checked if i < n):
                assert np.array_equal(fa[i], alone[i][0][0]), (n, i)
                assert np.array_equal(md[i], alone[i][1][0]), (n, i)
                assert np.array_equal(v1[i], alone[i][2][0]), (n, i)


class TestFaMd:
    def test_non_finite_rows_give_nan(self):
        elements = np.array(
            [
                [np.nan, 0.0, 0.0, 0.0, 0.0, 0.0],
                [1e-3, 1e-3, 1e-3, np.inf, 0.0, 0.0],
                [1.7e-3, 0.3e-3, 0.3e-3, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, -np.inf],
            ]
        )
        fa, md = fa_md(elements)
        assert np.isnan(fa[[0, 1, 3]]).all() and np.isnan(md[[0, 1, 3]]).all()
        assert np.array_equal([fa[2], md[2]], fa_md(elements[2]))

    def test_overflowing_trace_gives_nan_without_warnings(self):
        elements = np.array(
            [
                [1e308, 1e308, 1e308, 0.0, 0.0, 0.0],
                [1e308, 1e308, -1e308, 0.0, 0.0, 0.0],  # (1e308 + 1e308) overflows first
                [1e308, -1e308, 1e308, 0.0, 0.0, 0.0],
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fa, md = fa_md(elements)
            loose = principal_scalars(elements)[3]
        assert np.isnan(fa[:2]).all() and np.isnan(md[:2]).all() and loose[:2].all()
        assert md[2] == 1e308 / 3.0 and fa[2] == 1.0  # in range: not PSD, FA clipped

    def test_any_leading_shape(self):
        rows = np.array([hard_row(kind, 1e-3, -3.0, 7) for kind in ("prolate", "random", "ols")])
        elements = np.stack([rows, rows[::-1]])
        fa, md = fa_md(elements)
        flat_fa, flat_md = fa_md(elements.reshape(-1, 6))
        assert fa.shape == md.shape == (2, 3)
        assert np.array_equal(fa.ravel(), flat_fa) and np.array_equal(md.ravel(), flat_md)
        one_fa, one_md = fa_md(rows[1])
        assert one_fa.shape == () and one_fa == fa[0, 1] and one_md == md[0, 1]


class TestTensorScalars:
    def test_refuses_non_finite_row_before_any_eigensolve(self, monkeypatch):
        def refused(mats):
            raise AssertionError("eigh3_batch reached")

        monkeypatch.setattr(pipeline, "eigh3_batch", refused)
        elements = np.tile([1.7e-3, 0.3e-3, 0.3e-3, 0.0, 0.0, 0.0], (5, 1))
        elements[3, 4] = np.nan
        elements[4, 0] = np.inf
        with pytest.raises(ValueError, match="tensor row 3 is non-finite"):
            tensor_scalars(elements)
        elements[1, :3] = 1e308
        with pytest.raises(ValueError, match="tensor row 1 is non-finite or its trace overflows"):
            tensor_scalars(elements)


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
        fa, _ = fa_md(np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0]))
        assert fa == 1.0
