import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dticalib.bootstrap import (
    SaturatedLeverageError,
    _mean_dyadic_axes,
    _principal_axes,
    summarize_uncertainty,
    wild_bootstrap,
    wild_bootstrap_table,
)
from dticalib.simulation import (
    PhantomSpec,
    _axisym_eigenvalues,
    make_phantom,
    make_scheme,
    monte_carlo_oracle,
)
from dticalib.fitting import fit_cwlls_batch
from dticalib.tensor import (
    eigh3_batch,
    elements_to_matrices,
    fa_md_from_eigenvalues,
    matrices_to_elements,
    predict_signal_batch,
)


def samples_from_axes(axes, scale=1e-3):
    """(k, 6) prolate replicate tensors whose principal directions are `axes`."""
    axes = np.asarray(axes, dtype=np.float64)
    mats = scale * (
        np.einsum("ki,kj->kij", axes, axes) * 1.5 + 0.2 * np.eye(3)[None, :, :]
    )
    return matrices_to_elements(mats)


def summary(samples):
    """(theta95, sigma_fa, sigma_md) of one (k, 6) replicate set."""
    return summarize_uncertainty(samples[None])[0]


def mean_dyadic(samples):
    """Mean dyadic axis of one (k, 6) replicate set's principal directions."""
    axes = _principal_axes(eigh3_batch(elements_to_matrices(samples))[1])
    return _mean_dyadic_axes(axes[None])[0]


def cone_angle_95(samples):
    return summary(samples)[0]


class TestWildBootstrap:
    def test_noiseless_replicates_collapse(self):
        # residuals are ~1e-16 for noiseless input, so the collapse is
        # machine-precision rather than bitwise
        scheme = make_scheme(30)
        truth = np.array([[1.4e-3, 0.5e-3, 0.5e-3, 0.1e-3, 0, 0]])
        samples = wild_bootstrap(predict_signal_batch(truth, scheme)[0], scheme, 200, seed=1)
        spread = samples.max(axis=0) - samples.min(axis=0)
        assert np.max(spread) < 1e-15
        theta95, sigma_fa, sigma_md = summary(samples)
        assert sigma_fa < 1e-12
        assert sigma_md < 1e-15
        assert theta95 < 1e-5

    def test_same_seed_bitwise_identical(self):
        scheme = make_scheme(30)
        signals = make_phantom(
            PhantomSpec(n_voxels=1, scheme=scheme, snr_db=25.0, seed=3)
        ).signals[0]
        a = wild_bootstrap(signals, scheme, 100, seed=9)
        b = wild_bootstrap(signals, scheme, 100, seed=9)
        assert np.array_equal(a, b)
        c = wild_bootstrap(signals, scheme, 100, seed=10)
        assert not np.array_equal(a, c)

    def test_single_b0_scheme_saturates(self):
        # one shell + one b=0 row: that row is an exact interpolation point
        scheme = make_scheme(30, n_b0=1)
        signals = make_phantom(
            PhantomSpec(n_voxels=1, scheme=scheme, snr_db=25.0, seed=3)
        ).signals[0]
        with pytest.raises(SaturatedLeverageError, match="saturated leverage"):
            wild_bootstrap(signals, scheme, 50, seed=0)

    def test_iterations_validated(self):
        scheme = make_scheme(30)
        with pytest.raises(ValueError):
            wild_bootstrap(np.full(len(scheme), 0.5), scheme, 1, seed=0)

    def test_tracks_monte_carlo_oracle(self):
        # prolate FA 0.8, 30 directions, SNR 30 dB: sigma(FA) within 30%
        scheme = make_scheme(30)
        spec = PhantomSpec(
            n_voxels=1, scheme=scheme, generator="prolate", fa_target=0.8,
            md=0.9e-3, orientation="uniform", snr_db=30.0, seed=12,
        )
        phantom = make_phantom(spec)
        wbs = summary(wild_bootstrap(phantom.signals[0], scheme, 1000, seed=5))
        orc = monte_carlo_oracle(phantom.truth[0], scheme, 30.0, n_realizations=2000, seed=6)
        assert abs(wbs[1] / orc[1] - 1) <= 0.30  # sigma_fa

    def test_table_matches_per_voxel_path(self):
        # low SNR, so some replicates hit the eigenvalue floor
        scheme = make_scheme(30)
        spec = PhantomSpec(n_voxels=6, scheme=scheme, fa_target=0.9, md=0.5e-3,
                           snr_db=12.0, seed=8)
        signals = make_phantom(spec).signals
        seeds = [40 + v for v in range(len(signals))]
        table = wild_bootstrap_table(signals, scheme, 150, seeds)
        assert table.shape == (6, 9) and np.all(np.isnan(table[:, 8]))
        for v, seed in enumerate(seeds):
            evals, evecs = fit_cwlls_batch(signals[v : v + 1], scheme)[4]
            fa, md = fa_md_from_eigenvalues(evals[0])
            expected = [fa, md, *summary(wild_bootstrap(signals[v], scheme, 150, seed))]
            got = table[v, [0, 1, 5, 6, 7]]
            assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))
            assert abs(np.dot(table[v, 2:5], evecs[0, 0])) == pytest.approx(1.0, abs=1e-12)


class TestMeanDyadic:
    def test_constant_axis(self):
        axes = np.tile([0.0, 0.0, 1.0], (30, 1))
        axis = mean_dyadic(samples_from_axes(axes))
        assert abs(axis[2]) == pytest.approx(1.0, abs=1e-10)

    def test_sign_mixture_kills_nothing(self):
        axes = np.tile([0.0, 0.0, 1.0], (30, 1))
        axes[::2] *= -1.0
        axis = mean_dyadic(samples_from_axes(axes))
        assert abs(axis[2]) == pytest.approx(1.0, abs=1e-10)

    def test_cone_of_directions(self):
        # 10-degree cone around z: the dyadic axis lands within 1 degree
        rng = np.random.default_rng(77)
        k = 1000
        ang = np.radians(rng.uniform(0, 10, k))
        az = rng.uniform(0, 2 * np.pi, k)
        axes = np.stack(
            [np.sin(ang) * np.cos(az), np.sin(ang) * np.sin(az), np.cos(ang)], axis=1
        )
        axis = mean_dyadic(samples_from_axes(axes))
        assert np.degrees(np.arccos(abs(axis[2]))) < 1.0


class TestConeAngle:
    def test_identical_axes_zero(self):
        axes = np.tile([0.0, 1.0, 0.0], (25, 1))
        assert cone_angle_95(samples_from_axes(axes)) == 0.0

    def test_fixed_ring_gives_its_angle(self):
        # axes exactly 10 degrees off z with symmetric azimuths
        az = np.linspace(0, 2 * np.pi, 36, endpoint=False)
        ang = np.radians(10.0)
        axes = np.stack(
            [np.sin(ang) * np.cos(az), np.sin(ang) * np.sin(az), np.full(36, np.cos(ang))],
            axis=1,
        )
        assert cone_angle_95(samples_from_axes(axes)) == pytest.approx(10.0, abs=1e-6)

    def test_isotropic_axes_match_closed_form(self):
        # uniform directions: angle CDF is 1 - cos(a), so the 95th
        # percentile is arccos(0.05) = 87.134 degrees
        rng = np.random.default_rng(123)
        axes = rng.normal(size=(10_000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        theta = cone_angle_95(samples_from_axes(axes))
        assert theta == pytest.approx(np.degrees(np.arccos(0.05)), abs=0.5)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_sign_flip_invariance_exact(self, seed):
        rng = np.random.default_rng(seed)
        axes = rng.normal(size=(40, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        flipped = axes * np.where(rng.random(40) < 0.5, -1.0, 1.0)[:, None]
        assert cone_angle_95(samples_from_axes(axes)) == cone_angle_95(
            samples_from_axes(flipped)
        )
        a1 = mean_dyadic(samples_from_axes(axes))
        a2 = mean_dyadic(samples_from_axes(flipped))
        assert abs(np.dot(a1, a2)) == pytest.approx(1.0, abs=1e-12)


class TestSummarize:
    def test_identical_pair_gives_zero_bundle(self):
        t = np.array([1.2e-3, 0.4e-3, 0.4e-3, 0, 0, 0])
        theta95, sigma_fa, sigma_md = summary(np.stack([t, t]))
        assert sigma_fa == 0.0 and sigma_md == 0.0 and theta95 == 0.0

    def test_two_point_fa_std(self):
        # FA values {0.4, 0.6}: population std is exactly 0.1
        e1 = np.diag(_axisym_eigenvalues(0.4, 0.9e-3, prolate=True))
        e2 = np.diag(_axisym_eigenvalues(0.6, 0.9e-3, prolate=True))
        sigma_fa = summary(matrices_to_elements(np.stack([e1, e2])))[1]
        assert sigma_fa == pytest.approx(0.1, abs=1e-9)

    def test_requires_two_replicates(self):
        t = np.array([1e-3, 1e-3, 1e-3, 0, 0, 0])
        with pytest.raises(ValueError, match="need at least 2 replicates"):
            summary(t[None])

    def test_groups_equal_each_group_alone(self):
        rng = np.random.default_rng(5)
        axes = rng.normal(size=(4, 30, 3))
        axes /= np.linalg.norm(axes, axis=2, keepdims=True)
        groups = np.stack([samples_from_axes(a, scale=(1 + g) * 1e-3) for g, a in enumerate(axes)])
        table = summarize_uncertainty(groups)
        assert table.shape == (4, 3)
        for g in range(4):
            assert np.array_equal(table[g], summary(groups[g]))

    def test_rejects_bad_shape_and_non_finite(self):
        t = np.array([1e-3, 1e-3, 1e-3, 0, 0, 0])
        with pytest.raises(ValueError, match="expected"):
            summarize_uncertainty(np.stack([t, t]))  # (k, 6): no group axis
        bad = np.stack([t, t])
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite replicate tensors"):
            summary(bad)

    def test_matches_streaming_oracle(self):
        # two-pass numpy std against an incremental Welford accumulation
        scheme = make_scheme(30)
        signals = make_phantom(PhantomSpec(n_voxels=1, scheme=scheme, snr_db=28.0, seed=4)).signals[0]
        samples = wild_bootstrap(signals, scheme, 1000, seed=2)
        from dticalib.tensor import fa_md_from_eigenvalues

        fa, md = fa_md_from_eigenvalues(eigh3_batch(elements_to_matrices(samples))[0])
        _, sigma_fa, sigma_md = summary(samples)
        for values, got in ((fa, sigma_fa), (md, sigma_md)):
            mean, m2 = 0.0, 0.0
            for i, v in enumerate(values, start=1):
                delta = v - mean
                mean += delta / i
                m2 += delta * (v - mean)
            assert got == pytest.approx(np.sqrt(m2 / len(values)), abs=1e-12)


class TestNoiseMonotonicity:
    def test_sigma_fa_grows_with_noise(self):
        # median over 100 voxels: sigma(FA) at 20 dB >= at 35 dB
        scheme = make_scheme(30)
        medians = {}
        for snr in (20.0, 35.0):
            spec = PhantomSpec(
                n_voxels=100, scheme=scheme, generator="prolate", fa_target=0.8,
                md=0.9e-3, orientation="uniform", snr_db=snr, seed=31,
            )
            vals = [
                summary(wild_bootstrap(row, scheme, 300, seed=100 + v))[1]
                for v, row in enumerate(make_phantom(spec).signals)
            ]
            medians[snr] = np.median(vals)
        assert medians[20.0] >= medians[35.0]

    def test_cone_shrinks_with_anisotropy(self):
        # high-FA prolate voxels have tighter orientation cones
        scheme = make_scheme(30)
        medians = {}
        for fa in (0.15, 0.8):
            spec = PhantomSpec(
                n_voxels=30, scheme=scheme, generator="prolate", fa_target=fa,
                md=0.9e-3, orientation="uniform", snr_db=25.0, seed=37,
            )
            vals = [
                summary(wild_bootstrap(row, scheme, 300, seed=500 + v))[0]
                for v, row in enumerate(make_phantom(spec).signals)
            ]
            medians[fa] = np.median(vals)
        assert medians[0.8] < medians[0.15]
