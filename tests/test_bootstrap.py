import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dticalib.bootstrap import (
    SaturatedLeverageError,
    _mean_dyadic_axes,
    replicate_statistics,
    summarize_uncertainty,
    wild_bootstrap,
    wild_bootstrap_table,
)
from dticalib.rng import box_muller
from dticalib.simulation import (
    PhantomSpec,
    _axisym_eigenvalues,
    _unit_quaternion,
    make_phantom,
    make_scheme,
    monte_carlo_oracle,
    quaternion_rotations,
    rician,
)
from dticalib.fitting import fit_cwlls_batch, log_signal_rows
from dticalib.tensor import (
    GradientScheme,
    eigh3_batch,
    elements_to_matrices,
    matrices_to_elements,
    predict_signal_batch,
)
from test_fitting import spy_isotropic_floors
from test_tensor import eigenvalue_fa_md


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


def wbs_summary(signals, scheme, iterations, seed):
    """(theta95, sigma_fa, sigma_md) of one voxel's wild bootstrap, reduced with its
    replicates' own eigenvectors: the per-voxel path."""
    return replicate_statistics(*wild_bootstrap(signals, scheme, iterations, seed), iterations)[0]


def mean_dyadic(samples):
    """Mean dyadic axis of one (k, 6) replicate set's principal directions."""
    axes = np.ascontiguousarray(eigh3_batch(samples)[1][:, 0])
    return _mean_dyadic_axes(axes[None])[0]


def cone_angle_95(samples):
    return summary(samples)[0]


class TestWildBootstrap:
    def test_noiseless_replicates_collapse(self):
        # residuals are ~1e-16 for noiseless input, so the collapse is
        # machine-precision rather than bitwise
        scheme = make_scheme(30)
        truth = np.array([[1.4e-3, 0.5e-3, 0.5e-3, 0.1e-3, 0, 0]])
        signals = predict_signal_batch(truth, scheme)[0]
        samples = wild_bootstrap(signals, scheme, 200, seed=1)[0]
        spread = samples.max(axis=0) - samples.min(axis=0)
        assert np.max(spread) < 1e-15
        theta95, sigma_fa, sigma_md = wbs_summary(signals, scheme, 200, 1)
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
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = wild_bootstrap(signals, scheme, 100, seed=10)
        assert not np.array_equal(a[0], c[0])

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

    @pytest.mark.parametrize("iterations", [1000, 30])  # a chunk of one voxel, and of all
    def test_voxels_must_hold_one_index_per_row(self, iterations):
        scheme = make_scheme(30)
        rows = make_phantom(PhantomSpec(n_voxels=2, scheme=scheme, snr_db=25.0, seed=3)).signals
        with pytest.raises(ValueError, match="^voxels holds 3 indices for 2 rows$"):
            wild_bootstrap_table(rows, scheme, iterations, 1, voxels=[5, 6, 7])

    def test_tracks_monte_carlo_oracle(self):
        # prolate FA 0.8, 30 directions, SNR 30 dB: sigma(FA) within 30%
        scheme = make_scheme(30)
        spec = PhantomSpec(
            n_voxels=1, scheme=scheme, generator="prolate", fa_target=0.8,
            md=0.9e-3, orientation="uniform", snr_db=30.0, seed=12,
        )
        phantom = make_phantom(spec)
        wbs = wbs_summary(phantom.signals[0], scheme, 1000, 5)
        orc = monte_carlo_oracle(phantom.truth[0], scheme, 30.0, n_realizations=2000, seed=6)
        assert abs(wbs[1] / orc[1] - 1) <= 0.30  # sigma_fa

    def test_table_matches_per_voxel_path(self, monkeypatch):
        # low SNR, so some replicates hit the eigenvalue floor; the last row is
        # voxel 83 of the 12 dB phantom of TestIsotropicFloors, some of whose
        # replicates are floored to isotropy and keep only their fits' axes
        scheme = make_scheme(30)
        spec = PhantomSpec(n_voxels=6, scheme=scheme, fa_target=0.9, md=0.5e-3,
                           snr_db=12.0, seed=8)
        floored = make_phantom(PhantomSpec(n_voxels=100, scheme=scheme, snr_db=12.0, seed=1))
        signals = np.concatenate([make_phantom(spec).signals, floored.signals[83:84]])
        # every row keyed as voxel 0, the one voxel wild_bootstrap resamples
        table = wild_bootstrap_table(signals, scheme, 200, 1, voxels=[0] * len(signals))
        assert table.shape == (7, 9) and np.all(np.isnan(table[:, 8]))
        floors = spy_isotropic_floors(monkeypatch)
        for v in range(len(signals)):
            evals, evecs = fit_cwlls_batch(log_signal_rows(signals[v], scheme), scheme)[2]
            fa, md = eigenvalue_fa_md(evals[0])
            expected = [fa, md, *wbs_summary(signals[v], scheme, 200, 1)]
            got = table[v, [0, 1, 5, 6, 7]]
            assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))
            assert abs(np.dot(table[v, 2:5], evecs[0, 0])) == pytest.approx(1.0, abs=1e-12)
        assert floors[-1] > 0  # fixture sanity: the last row's replicate refits


class TestIsotropicFloors:
    def test_theta95_survives_a_rounding_level_signal_scale(self, monkeypatch):
        # at 12 dB, rows 77 and 83 of this prolate FA 0.8 phantom hold replicates
        # whose every eigenvalue is floored; each keeps its fit's principal axis
        scheme = make_scheme(30)
        spec = PhantomSpec(n_voxels=100, scheme=scheme, snr_db=12.0, seed=1)
        rows = make_phantom(spec).signals[[77, 83]]
        floors = spy_isotropic_floors(monkeypatch)
        table = wild_bootstrap_table(rows, scheme, 200, 1, voxels=[77, 83])
        assert sum(floors) > 0  # fixture sanity
        scaled = wild_bootstrap_table(rows * (1 + 2.0**-50), scheme, 200, 1, voxels=[77, 83])
        assert np.all(np.abs(scaled[:, 5] - table[:, 5]) <= 1e-9)


class TestRowsAloneAsInBatch:
    """A voxel's table row, and a group's summary, are bitwise the same computed
    alone as inside a permuted batch. The base fit always runs on the whole
    batch, so only this comparison sees a product that couples its rows."""

    def test_wild_bootstrap_table(self, monkeypatch):
        # 12 dB, so replicate refits are floored, those of voxels 77 and 83 to isotropy
        scheme = make_scheme(30)
        signals = make_phantom(PhantomSpec(100, scheme, snr_db=12.0, seed=1)).signals
        voxels = np.random.default_rng(3).permutation([*range(0, 92, 4), 77, 83])
        floors = spy_isotropic_floors(monkeypatch)
        batch = wild_bootstrap_table(signals[voxels], scheme, 200, 1, voxels=voxels)
        assert sum(floors) > 0  # fixture sanity
        for row, v in zip(batch, voxels):
            alone = wild_bootstrap_table(signals[[v]], scheme, 200, 1, voxels=[v])[0]
            assert np.array_equal(alone, row, equal_nan=True)

    def test_summarize_uncertainty(self):
        rng = np.random.default_rng(9)
        scheme = make_scheme(30)
        signals = make_phantom(PhantomSpec(3, scheme, snr_db=20.0, seed=2)).signals
        groups = [wild_bootstrap(row, scheme, 100, 1)[0] for row in signals]
        axes = rng.normal(size=(100, 3))
        groups.append(samples_from_axes(axes / np.linalg.norm(axes, axis=1, keepdims=True)))
        # floored to isotropy: every replicate loose, its axes rounding noise
        groups.append(np.column_stack([np.full((100, 3), 1e-11),
                                       rng.uniform(-1e-27, 1e-27, (100, 3))]))
        groups = np.stack(groups)[rng.permutation(len(groups))]
        table = summarize_uncertainty(groups)
        for g in range(len(groups)):
            assert np.array_equal(summarize_uncertainty(groups[g : g + 1])[0], table[g])


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
        samples = wild_bootstrap(signals, scheme, 1000, seed=2)[0]
        fa, md = eigenvalue_fa_md(eigh3_batch(samples)[0])
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
                wbs_summary(row, scheme, 300, 100 + v)[1]
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
                wbs_summary(row, scheme, 300, 500 + v)[0]
                for v, row in enumerate(make_phantom(spec).signals)
            ]
            medians[fa] = np.median(vals)
        assert medians[0.8] < medians[0.15]


class TestRotationInvariance:
    # Rotating the scheme moves the rounding of every fit; over 160 draws at
    # 8-40 dB the largest relative change was 6e-14, so 1e-9 leaves a wide margin.
    # theta95 is left out: a replicate whose two largest eigenvalues nearly tie
    # has a principal axis that rounding can turn far.
    RTOL = 1e-9
    # A base fit floored to isotropy is floor * I, whose FA is rounding noise
    # (about 3e-16) that rotating changes by its own size: both sides' FA must
    # stay below this bound instead.
    ISOTROPIC_FA_ATOL = 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        generator=st.sampled_from(["prolate", "random_spd"]),
        snr_db=st.floats(8.0, 40.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(generator="prolate", snr_db=8.0, seed=256)  # voxel 1 floored to isotropy
    def test_fa_md_and_their_sigmas_survive_rotating_truth_and_scheme(
        self, generator, snr_db, seed
    ):
        scheme = make_scheme(30)
        n = 4
        truth = make_phantom(PhantomSpec(
            n_voxels=n, scheme=scheme, generator=generator, snr_db=np.inf, seed=seed
        )).truth
        rng = np.random.default_rng(seed)
        rot = quaternion_rotations(_unit_quaternion(rng)[None])[0]
        rotated_scheme = GradientScheme(scheme.directions @ rot.T, scheme.bvalues)
        rotated_truth = matrices_to_elements(rot @ elements_to_matrices(truth) @ rot.T)
        # the same noise draws on each measurement of both acquisitions
        n1, n2 = box_muller(rng.random((n, len(scheme))), rng.random((n, len(scheme))))
        tables, isotropic = [], []
        for s, t in ((scheme, truth), (rotated_scheme, rotated_truth)):
            signals = rician(predict_signal_batch(t, s), 10.0 ** (-snr_db / 20.0), n1, n2)
            table = wild_bootstrap_table(signals, s, 100, 0)
            tables.append(table[:, [0, 1, 6, 7]])  # fa, md, sigma_fa, sigma_md
            floored = fit_cwlls_batch(log_signal_rows(signals, s), s)[2][0]
            isotropic.append(floored[:, 0] == floored[:, 2])
        iso = isotropic[0] | isotropic[1]
        close = np.abs(tables[1] - tables[0]) <= self.RTOL * np.abs(tables[0])
        close[iso, 0] = (tables[0][iso, 0] < self.ISOTROPIC_FA_ATOL) & (
            tables[1][iso, 0] < self.ISOTROPIC_FA_ATOL
        )
        assert np.all(close)
