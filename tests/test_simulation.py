import hashlib
import sys

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from dticalib import simulation
from dticalib.bootstrap import replicate_statistics
from dticalib.fitting import fit_cwlls_batch, log_signal_rows
from dticalib.rng import box_muller, rng_from_key
from dticalib.simulation import (
    GENERATORS,
    PhantomSpec,
    _axisym_eigenvalues,
    fibonacci_directions,
    make_phantom,
    make_scheme,
    monte_carlo_oracle,
    quaternion_rotations,
    rician,
)
from dticalib.tensor import (
    eigh3_batch,
    elements_to_matrices,
    matrices_to_elements,
    predict_signal_batch,
)
from test_fitting import spy_isotropic_floors


def add_rician(signal, snr_db, rng):
    """signal after complex Gaussian noise at snr_db, Box-Muller uniforms drawn from rng.

    snr_db = inf gives sigma_n = 0, and the magnitude sqrt(s**2) is s exactly.
    """
    n1, n2 = box_muller(rng.random(signal.shape), rng.random(signal.shape))
    return rician(signal, 10.0 ** (-snr_db / 20.0), n1, n2)


def lapack_fa_md(elements):
    """Independent scalar path: LAPACK eigenvalues + direct FA formula."""
    lam = np.linalg.eigvalsh(elements_to_matrices(elements[None])[0])
    md = lam.mean()
    fa = np.sqrt(1.5 * np.sum((lam - md) ** 2) / np.sum(lam**2))
    return fa, md


class TestSchemes:
    def test_fibonacci_directions_unit(self):
        d = fibonacci_directions(64)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)

    def test_make_scheme_layout(self):
        s = make_scheme(30, bvalue=1000.0, n_b0=2)
        assert len(s) == 32
        assert np.all(s.bvalues[:2] == 0.0)
        assert np.all(s.bvalues[2:] == 1000.0)


class TestGenerators:
    def test_prolate_hits_fa_target(self):
        scheme = make_scheme(12)
        spec = PhantomSpec(
            n_voxels=3, scheme=scheme, generator="prolate", fa_target=0.8,
            md=0.9e-3, orientation="uniform", snr_db=np.inf, seed=9,
        )
        for elements in make_phantom(spec).truth:
            fa, md = lapack_fa_md(elements)
            assert fa == pytest.approx(0.8, abs=1e-6)
            assert md == pytest.approx(0.9e-3, abs=1e-9)

    @pytest.mark.parametrize("generator", ["prolate", "oblate"])
    def test_axisymmetric_eigenvalues_solved_once_per_spec(self, monkeypatch, generator):
        from dticalib import simulation

        calls = []

        def counted(*args):
            calls.append(args)
            return _axisym_eigenvalues(*args)

        monkeypatch.setattr(simulation, "_axisym_eigenvalues", counted)
        spec = PhantomSpec(n_voxels=4, scheme=make_scheme(12), generator=generator,
                           fa_target=0.5, seed=2)
        make_phantom(spec)
        make_phantom(spec)
        assert len(calls) == 1

    def test_oblate_hits_fa_target(self):
        lam = _axisym_eigenvalues(0.5, 1.1e-3, prolate=False)
        assert lam[0] == lam[1] > lam[2] > 0
        fa, md = lapack_fa_md(np.array([lam[0], lam[1], lam[2], 0, 0, 0]))
        assert fa == pytest.approx(0.5, abs=1e-6)
        assert md == pytest.approx(1.1e-3, abs=1e-9)

    def test_oblate_cannot_reach_high_fa(self):
        # oblate family tops out at FA = 1/sqrt(2)
        with pytest.raises(ValueError):
            _axisym_eigenvalues(0.9, 1e-3, prolate=False)

    def test_random_spd_respects_range(self):
        scheme = make_scheme(10)
        spec = PhantomSpec(
            n_voxels=50, scheme=scheme, generator="random_spd",
            eig_range=(0.2e-3, 1.5e-3), snr_db=np.inf, seed=5,
        )
        for elements in make_phantom(spec).truth:
            lam = np.linalg.eigvalsh(elements_to_matrices(elements[None])[0])
            assert lam.min() >= 0.2e-3 - 1e-12
            assert lam.max() <= 1.5e-3 + 1e-12

    def test_two_population_scales_second_half(self):
        scheme = make_scheme(10)
        spec = PhantomSpec(
            n_voxels=40, scheme=scheme, generator="two_population",
            eig_range=(0.3e-3, 1.0e-3), shift=1.8, snr_db=np.inf, seed=6,
        )
        phantom = make_phantom(spec)
        assert phantom.population.tolist() == [0] * 20 + [1] * 20
        md_a = np.mean([lapack_fa_md(t)[1] for t in phantom.truth[:20]])
        md_b = np.mean([lapack_fa_md(t)[1] for t in phantom.truth[20:]])
        assert md_b > 1.4 * md_a

    def test_fixed_generator_requires_elements(self):
        scheme = make_scheme(10)
        with pytest.raises(ValueError):
            make_phantom(PhantomSpec(n_voxels=1, scheme=scheme, generator="fixed", seed=0))

    @pytest.mark.parametrize("snr_range", [(np.nan, 20.0), (20.0, np.inf), (30.0, 10.0), (20.0,)])
    def test_bad_snr_range_is_refused_by_name(self, snr_range):
        with pytest.raises(ValueError, match="^snr_range must be "):
            PhantomSpec(n_voxels=1, scheme=make_scheme(10), snr_range=snr_range)


class TestPhantomDeterminism:
    def test_infinite_snr_is_noiseless(self):
        scheme = make_scheme(14)
        spec = PhantomSpec(n_voxels=4, scheme=scheme, snr_db=np.inf, seed=2)
        phantom = make_phantom(spec)
        for signals, elements in zip(phantom.signals, phantom.truth):
            assert np.array_equal(signals, predict_signal_batch(elements[None], scheme)[0])

    def test_same_seed_identical(self):
        scheme = make_scheme(14)
        spec = PhantomSpec(n_voxels=6, scheme=scheme, snr_db=25.0, seed=42)
        a, b = make_phantom(spec), make_phantom(spec)
        assert np.array_equal(a.signals, b.signals)
        assert np.array_equal(a.truth, b.truth)

    def test_snr_range_draws_per_voxel(self):
        scheme = make_scheme(14)
        spec = PhantomSpec(
            n_voxels=6, scheme=scheme, generator="fixed",
            elements=np.array([1e-3, 1e-3, 1e-3, 0, 0, 0]),
            orientation="fixed", snr_range=(10.0, 40.0), seed=1,
        )
        signals = make_phantom(spec).signals
        spreads = [np.std(row) for row in signals]
        assert len(set(np.round(spreads, 12))) == len(signals)


class TestRicianNoise:
    def test_zero_noise_identity(self):
        rng = rng_from_key(0)
        s = np.array([0.0, 0.3, 1.0])
        assert np.array_equal(add_rician(s, np.inf, rng), s)  # sigma_n = 0

    def test_rayleigh_mean_at_zero_signal(self):
        # closed form: E|noise| of a zero signal is sigma * sqrt(pi/2)
        rng = rng_from_key(8)
        sigma = 10 ** (-25.0 / 20.0)
        draws = add_rician(np.zeros(1_000_000), 25.0, rng)
        expected = sigma * np.sqrt(np.pi / 2)
        assert abs(draws.mean() / expected - 1) < 0.01

    def test_second_moment_identity(self):
        # E[S_noisy^2] = S^2 + 2 sigma^2
        rng = rng_from_key(9)
        s, snr = 0.4, 22.0
        sigma = 10 ** (-snr / 20.0)
        draws = add_rician(np.full(1_000_000, s), snr, rng)
        expected = s**2 + 2 * sigma**2
        assert abs((draws**2).mean() / expected - 1) < 0.005

    def test_nonnegative(self):
        rng = rng_from_key(10)
        draws = add_rician(np.zeros(10_000), 3.0, rng)
        assert np.all(draws >= 0.0)

    def test_gaussian_pair_moments(self):
        rng = rng_from_key(11)
        a, b = box_muller(rng.random(500_000), rng.random(500_000))
        for z in (a, b):
            assert abs(z.mean()) < 5e-3
            assert abs(z.std() - 1) < 5e-3
        assert abs(np.corrcoef(a, b)[0, 1]) < 5e-3


class TestMonteCarloOracle:
    def test_noiseless_bundle_is_zero(self):
        scheme = make_scheme(20)
        spec = PhantomSpec(n_voxels=1, scheme=scheme, snr_db=np.inf, seed=3)
        truth = make_phantom(spec).truth[0]
        theta95, sigma_fa, sigma_md = monte_carlo_oracle(
            truth, scheme, np.inf, n_realizations=100, seed=0
        )
        # identical replicates; the std of n equal floats still carries ulps
        assert sigma_fa < 1e-12
        assert sigma_md < 1e-15
        assert theta95 < 1e-5

    def test_converged_at_2000_realizations(self):
        scheme = make_scheme(30)
        spec = PhantomSpec(
            n_voxels=1, scheme=scheme, generator="prolate", fa_target=0.8,
            md=0.9e-3, snr_db=30.0, seed=19,
        )
        truth = make_phantom(spec).truth[0]
        a = monte_carlo_oracle(truth, scheme, 30.0, n_realizations=2000, seed=1)
        b = monte_carlo_oracle(truth, scheme, 30.0, n_realizations=4000, seed=1)
        assert abs(a[1] / b[1] - 1) < 0.05  # sigma_fa

    def test_sigma_fa_monotone_in_noise(self):
        scheme = make_scheme(30)
        spec = PhantomSpec(
            n_voxels=1, scheme=scheme, generator="prolate", fa_target=0.8,
            md=0.9e-3, snr_db=30.0, seed=23,
        )
        truth = make_phantom(spec).truth[0]
        noisy = monte_carlo_oracle(truth, scheme, 20.0, n_realizations=800, seed=2)
        quiet = monte_carlo_oracle(truth, scheme, 35.0, n_realizations=800, seed=2)
        assert noisy[1] > quiet[1]  # sigma_fa

    def test_deterministic_under_seed(self):
        scheme = make_scheme(20)
        spec = PhantomSpec(n_voxels=1, scheme=scheme, snr_db=28.0, seed=4)
        truth = make_phantom(spec).truth[0]
        a = monte_carlo_oracle(truth, scheme, 28.0, n_realizations=200, seed=7)
        b = monte_carlo_oracle(truth, scheme, 28.0, n_realizations=200, seed=7)
        assert np.array_equal(a, b)

    def test_each_realization_decomposed_once(self, monkeypatch):
        # the fit's eigensystem is reduced as it is; a second eigensolve of
        # every realization shows as a second call this large
        calls = []

        def counted(mats):
            calls.append(len(mats))
            return eigh3_batch(mats)

        for name, module in list(sys.modules.items()):
            if name.startswith("dticalib") and getattr(module, "eigh3_batch", None) is eigh3_batch:
                monkeypatch.setattr(module, "eigh3_batch", counted)
        scheme = make_scheme(20)
        truth = make_phantom(PhantomSpec(n_voxels=1, scheme=scheme, seed=4)).truth[0]
        monte_carlo_oracle(truth, scheme, 12.0, n_realizations=300, seed=7)
        assert sum(rows >= 300 for rows in calls) == 1

    def test_theta95_survives_a_rounding_level_signal_scale(self, monkeypatch):
        # voxel 77 of a 12 dB prolate FA 0.8 phantom, at 8 dB: some realizations
        # have every eigenvalue floored, and each keeps its fit's principal axis
        scheme = make_scheme(30)
        spec = PhantomSpec(n_voxels=100, scheme=scheme, snr_db=12.0, seed=1)
        truth = make_phantom(spec).truth[77]
        floors = spy_isotropic_floors(monkeypatch)
        theta95 = monte_carlo_oracle(truth, scheme, 8.0, n_realizations=200, seed=1)[0]
        assert floors[-1] > 0  # fixture sanity
        monkeypatch.setattr(
            simulation, "log_signal_rows", lambda s, sch: log_signal_rows(s * (1 + 2.0**-50), sch)
        )
        scaled = monte_carlo_oracle(truth, scheme, 8.0, n_realizations=200, seed=1)[0]
        assert abs(scaled - theta95) <= 1e-9

    def test_rejects_tiny_realization_count(self):
        scheme = make_scheme(20)
        spec = PhantomSpec(n_voxels=1, scheme=scheme, snr_db=28.0, seed=4)
        truth = make_phantom(spec).truth[0]
        with pytest.raises(ValueError):
            monte_carlo_oracle(truth, scheme, 28.0, n_realizations=50, seed=7)


def phantom_digest(phantom):
    return hashlib.sha256(phantom.signals.tobytes() + phantom.truth.tobytes()).hexdigest()


# The digests hash float64 results of numpy's exp and log, whose AVX-512
# loops round differently from the AVX2 ones, so they hold only under the
# dispatch they were made on. reference_phantom checks the same property,
# make_phantom equal to its per-voxel form, under any dispatch.
PINNED_DISPATCH = pytest.mark.skipif(
    not __cpu_features__.get("X86_V4", False),
    reason="digests were pinned under numpy's X86_V4 (AVX-512) loops, which are "
    "not dispatched here; exp and log may round otherwise",
)


def reference_phantom(spec):
    """make_phantom one voxel at a time: (signals, truth, population).

    Voxel v draws from its own stream keyed (seed, v), in the order that
    make_phantom documents, and its tensor, signal and Rician noise are
    computed alone.
    """
    signals, truth, population = [], [], []
    for v in range(spec.n_voxels):
        rng = rng_from_key(spec.seed, v)
        shifted = spec.generator == "two_population" and v >= spec.n_voxels // 2
        if spec.generator == "fixed":
            elements = np.reshape(spec.elements, 6).astype(np.float64)
        elif spec.generator in ("prolate", "oblate"):
            elements = np.concatenate([spec.axisym_eigenvalues, np.zeros(3)])
        else:
            lam = np.sort(rng.uniform(*spec.eig_range, size=3))[::-1]
            elements = np.concatenate([lam * (spec.shift if shifted else 1.0), np.zeros(3)])
        if spec.orientation == "uniform":
            q = rng.normal(size=4)
            rot = quaternion_rotations((q / np.linalg.norm(q))[None])
            mats = rot @ elements_to_matrices(elements[None]) @ rot.swapaxes(1, 2)
            elements = matrices_to_elements(mats)[0]
        snr = spec.snr_db if spec.snr_range is None else float(rng.uniform(*spec.snr_range))
        clean = predict_signal_batch(elements[None], spec.scheme)[0]
        signals.append(clean if snr == np.inf else add_rician(clean, snr, rng))
        truth.append(elements)
        population.append(int(shifted))
    return np.array(signals), np.array(truth), np.array(population)


FIXED_ELEMENTS = np.array([1.7e-3, 0.4e-3, 0.3e-3, 0.1e-3, -0.05e-3, 0.02e-3])


class TestPhantomReference:
    @pytest.mark.parametrize("noise", [
        dict(snr_db=25.0), dict(snr_range=(10.0, 40.0)), dict(snr_db=np.inf),
    ], ids=["fixed_snr", "snr_range", "noiseless"])
    @pytest.mark.parametrize("orientation", ["fixed", "uniform"])
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_equals_per_voxel_reference(self, generator, orientation, noise):
        spec = PhantomSpec(
            n_voxels=25, scheme=make_scheme(30), generator=generator,
            elements=FIXED_ELEMENTS if generator == "fixed" else None, fa_target=0.6,
            orientation=orientation, seed=13, **noise,
        )
        phantom = make_phantom(spec)
        signals, truth, population = reference_phantom(spec)
        assert np.array_equal(phantom.signals, signals)
        assert np.array_equal(phantom.truth, truth)
        assert np.array_equal(phantom.population, population)


class TestPhantomArrays:
    # sha256 of signals then truth bytes, as the per-voxel implementation made
    # them (numpy 2.4, x86-64); any change to a draw or its order shows here
    PINNED = {
        "fixed": "a353426d5436f540f283acde7ce61b227eb2bd9ecfe961e8e96e35e703c1f74e",
        "snr_range": "638826087547d71cbcde67203c61e7687fe1b4ef8864ffef0d3b1e8ce8f762a8",
        "noiseless": "84850447ede6852016397f69532acb15f703f313f5cf86c1db7ea8b30648904d",
    }

    SPECS = {
        "fixed": dict(generator="fixed", elements=FIXED_ELEMENTS, snr_db=25.0, seed=3),
        "snr_range": dict(generator="random_spd", snr_range=(10.0, 40.0), seed=4),
        "noiseless": dict(generator="two_population", snr_db=np.inf, seed=5),
    }

    @PINNED_DISPATCH
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_matches_pinned_digest(self, case):
        spec = PhantomSpec(n_voxels=25, scheme=make_scheme(30), **self.SPECS[case])
        phantom = make_phantom(spec)
        assert phantom.signals.shape == (25, 32) and phantom.truth.shape == (25, 6)
        assert phantom_digest(phantom) == self.PINNED[case]

    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_matches_per_voxel_reference(self, case):
        spec = PhantomSpec(n_voxels=25, scheme=make_scheme(30), **self.SPECS[case])
        phantom = make_phantom(spec)
        signals, truth, _ = reference_phantom(spec)
        assert np.array_equal(phantom.signals, signals) and np.array_equal(phantom.truth, truth)

    @pytest.mark.parametrize("noise", [dict(snr_db=25.0), dict(snr_range=(10.0, 40.0))])
    @pytest.mark.parametrize("generator", [g for g in GENERATORS if g != "two_population"])
    def test_prefix_rows_equal_smaller_phantom(self, generator, noise):
        scheme = make_scheme(30)
        elements = FIXED_ELEMENTS if generator == "fixed" else None
        big = make_phantom(PhantomSpec(
            n_voxels=30, scheme=scheme, generator=generator, elements=elements,
            fa_target=0.6, seed=8, **noise,
        ))
        for k in (1, 7):
            small = make_phantom(PhantomSpec(
                n_voxels=k, scheme=scheme, generator=generator, elements=elements,
                fa_target=0.6, seed=8, **noise,
            ))
            assert np.array_equal(big.signals[:k], small.signals)
            assert np.array_equal(big.truth[:k], small.truth)
            assert np.array_equal(big.population[:k], small.population)


def reference_oracle(elements, scheme, snr_db, n_realizations, seed):
    """The oracle one realization at a time: Rician noise per stream, one batch fit,
    whose own eigensystem gives the axes (a floored tensor keeps its fit's axes, which
    a second decomposition of it would turn by rounding)."""
    clean = predict_signal_batch(elements[None], scheme)[0]
    noisy = np.array(
        [add_rician(clean, snr_db, rng_from_key(seed, k)) for k in range(n_realizations)]
    )
    beta, _, (_, evecs) = fit_cwlls_batch(log_signal_rows(noisy, scheme), scheme)
    return replicate_statistics(beta[:, :6], evecs, n_realizations)[0]


class TestOracleReference:
    @pytest.mark.parametrize("snr_db", [30.0, 12.0, np.inf])
    def test_equals_per_realization_reference(self, snr_db):
        scheme = make_scheme(30)
        truth = make_phantom(PhantomSpec(n_voxels=2, scheme=scheme, seed=19)).truth
        for v, elements in enumerate(truth):
            expected = reference_oracle(elements, scheme, snr_db, 300, 2000 + v)
            got = monte_carlo_oracle(elements, scheme, snr_db, 300, seed=2000 + v)
            assert got.shape == (3,) and np.array_equal(got, expected)
