import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dticalib.calibration import (
    IsotonicMap,
    RowError,
    _pava,
    bin_rmv_rmse,
    ence,
    fit_isotonic,
    picp_mpiw_curve,
    recalibrate,
    triples_from_arrays,
)


def constant_triples(n, sigma, error):
    return triples_from_arrays(np.full(n, error), np.zeros(n), np.full(n, sigma))


def recalibrated(mapping, t):
    return triples_from_arrays(t.truth, t.estimate, recalibrate(mapping, t.sigma))


def broadcast_picp(t, beta):
    """Reference PICP: the (grid x n) closed-interval coverage matrix."""
    abs_err = np.abs(t.truth - t.estimate)
    return (abs_err[None, :] <= beta[:, None] * t.sigma[None, :]).mean(axis=1)


def proportional_fixture():
    """sigma_reported = 2 sigma_true with a per-level deterministic error
    pattern, so binned RMSE^2 is exactly proportional to RMV^2."""
    levels = 0.02 * 1.25 ** np.arange(15)
    pattern = np.linspace(0.4, 1.6, 20) * np.tile([1.0, -1.0], 10)
    pattern /= np.sqrt(np.mean(pattern**2))
    truth, sig = [], []
    for s in levels:
        for _ in range(2):  # two identical copies: calibration and test halves
            truth.extend(s * pattern)
            sig.extend(np.full_like(pattern, 2.0 * s))
    truth = np.array(truth)
    sig = np.array(sig)
    rows = np.arange(len(truth))
    cal = rows % 40 < 20
    make = lambda m: triples_from_arrays(truth[m], np.zeros(m.sum()), sig[m])
    return make(cal), make(~cal)


class TestBinning:
    def test_identical_triples(self):
        stats = bin_rmv_rmse(constant_triples(30, sigma=0.7, error=0.2), 5)
        assert np.allclose(stats.rmv, 0.7)
        assert np.allclose(stats.rmse, 0.2)
        assert stats.counts.sum() == 30

    def test_two_bin_example(self):
        triples = triples_from_arrays([1, 1, 2, 2], [0, 0, 0, 0], [1, 1, 2, 2])
        stats = bin_rmv_rmse(triples, 2)
        assert np.allclose(stats.rmv, [1, 2])
        assert np.allclose(stats.rmse, [1, 2])
        assert np.array_equal(stats.counts, [2, 2])

    def test_remainder_spread_over_leading_bins(self):
        stats = bin_rmv_rmse(constant_triples(17, 1.0, 0.5), 5)
        assert np.array_equal(stats.counts, [4, 4, 3, 3, 3])

    def test_sampled_rmse_tracks_rmv(self):
        # error ~ Normal(0, sigma_i): per-bin gap stays small; frozen seed 29
        rng = np.random.default_rng(29)
        sig = rng.uniform(0.5, 2.0, 10_000)
        err = rng.normal(0.0, sig)
        stats = bin_rmv_rmse(triples_from_arrays(err, np.zeros_like(err), sig), 15)
        assert np.abs(stats.rmse - stats.rmv).max() < 0.15

    def test_rmv_non_decreasing(self):
        rng = np.random.default_rng(4)
        sig = rng.uniform(0.1, 3.0, 500)
        err = rng.normal(0, 1, 500)
        stats = bin_rmv_rmse(triples_from_arrays(err, np.zeros(500), sig), 10)
        assert np.all(np.diff(stats.rmv) >= -1e-12)

    def test_bad_bin_count(self):
        with pytest.raises(ValueError):
            bin_rmv_rmse(constant_triples(5, 1, 1), 0)
        with pytest.raises(ValueError):
            bin_rmv_rmse(constant_triples(5, 1, 1), 6)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bitwise_as_with_a_stable_argsort(self, data):
        # heavy ties, 0.0 next to -0.0, and row counts off a multiple of the bins:
        # tied rows must fall into bins in index order, as a stable sort puts them
        bins = data.draw(st.integers(1, 12))
        n = bins * data.draw(st.integers(1, 30)) + data.draw(st.integers(0, bins - 1))
        sigma = np.array(data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0]), min_size=n, max_size=n)))
        err = np.array(data.draw(st.lists(
            st.floats(-3.0, 3.0, allow_nan=False), min_size=n, max_size=n)))
        stats = bin_rmv_rmse(triples_from_arrays(err, np.zeros(n), sigma), bins)
        order = np.argsort(sigma, kind="stable")
        edges = np.concatenate([[0], np.cumsum(stats.counts)])
        for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            assert np.array_equal(stats.rmv[j], np.sqrt((sigma[order][lo:hi] ** 2).mean()))
            assert np.array_equal(stats.rmse[j], np.sqrt((err[order][lo:hi] ** 2).mean()))


class TestEnce:
    def test_perfectly_calibrated_is_zero(self):
        stats = bin_rmv_rmse(constant_triples(20, sigma=0.5, error=0.5), 4)
        assert ence(stats) == 0.0

    def test_single_bin_value(self):
        stats = bin_rmv_rmse(constant_triples(50, sigma=2.0, error=1.0), 1)
        assert ence(stats) == pytest.approx(0.5, abs=1e-15)

    def test_constant_sigma_equal_to_global_rmse(self):
        # the degenerate forecaster: one bin, sigma == global RMSE
        rng = np.random.default_rng(50)
        err = rng.normal(0, 1, 2000)
        sigma = np.full(2000, np.sqrt(np.mean(err**2)))
        stats = bin_rmv_rmse(triples_from_arrays(err, np.zeros(2000), sigma), 1)
        assert ence(stats) < 1e-12

    def test_zero_variance_bin_rejected(self):
        stats = bin_rmv_rmse(constant_triples(10, sigma=0.0, error=1.0), 2)
        with pytest.raises(ValueError, match="zero-variance bin"):
            ence(stats)

    def test_nonnegative_and_weighted(self):
        rng = np.random.default_rng(51)
        sig = rng.uniform(0.5, 2, 300)
        err = rng.normal(0, sig * 1.7)
        val = ence(bin_rmv_rmse(triples_from_arrays(err, np.zeros(300), sig), 10))
        assert val > 0


class TestPicpMpiwCurve:
    def test_zero_errors_full_coverage(self):
        # closed interval: beta = 0 already covers exact hits, so the curve
        # is identically 1 and its area is exactly 1
        triples = constant_triples(100, sigma=0.5, error=0.0)
        curve = picp_mpiw_curve(triples, mpiw_cap=0.4, grid_size=64)
        assert np.all(curve.picp == 1.0)
        assert curve.aucc == pytest.approx(1.0, abs=1e-12)

    def test_picp_zero_counts_only_exact_hits(self):
        triples = triples_from_arrays([0.0, 0.1], [0.0, 0.0], [1.0, 1.0])
        curve = picp_mpiw_curve(triples, mpiw_cap=4.0, grid_size=32)
        assert curve.picp[0] == 0.5

    def test_step_geometry_matches_closed_form(self):
        # identical error e and sigma: coverage steps at beta* = e/sigma
        e, s, cap, grid = 0.3, 0.6, 2.4, 4097
        curve = picp_mpiw_curve(constant_triples(50, s, e), cap, grid)
        closed_form = 1.0 - e / (s * (cap / (2 * s)))
        # brute-force re-derivation of coverage and area on the same grid
        picp = (e <= curve.beta_grid * s).astype(float)
        brute = np.trapezoid(picp, curve.beta_grid / curve.beta_grid[-1])
        assert curve.aucc == pytest.approx(brute, abs=1e-12)
        assert curve.aucc == pytest.approx(closed_form, abs=1.0 / (grid - 1))

    def test_mpiw_exactly_linear(self):
        triples = constant_triples(10, sigma=0.8, error=0.1)
        curve = picp_mpiw_curve(triples, 1.0, 16)
        assert np.allclose(curve.mpiw, 2 * curve.beta_grid * 0.8, atol=1e-15)

    def test_picp_monotone(self):
        rng = np.random.default_rng(3)
        sig = rng.uniform(0.2, 2, 400)
        err = rng.normal(0, sig)
        curve = picp_mpiw_curve(triples_from_arrays(err, np.zeros(400), sig), 2.0)
        assert np.all(np.diff(curve.picp) >= 0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        sig = rng.uniform(0.2, 2, 500)
        err = rng.normal(0, sig)
        base = picp_mpiw_curve(triples_from_arrays(err, np.zeros(500), sig), 1.5).aucc
        for c in (0.1, 10.0):
            scaled = picp_mpiw_curve(
                triples_from_arrays(err, np.zeros(500), c * sig), 1.5
            ).aucc
            assert abs(scaled - base) < 1e-12

    def test_oracle_beats_permuted(self):
        rng = np.random.default_rng(1000)
        err = rng.normal(0.0, 0.03, 10_000)
        sig = 1.3 * np.abs(err) + 1e-9
        perm = rng.permutation(10_000)
        zero = np.zeros(10_000)
        a = picp_mpiw_curve(triples_from_arrays(err, zero, sig), 0.2).aucc
        b = picp_mpiw_curve(triples_from_arrays(err, zero, sig[perm]), 0.2).aucc
        assert a > b

    def test_degenerate_sigmas_rejected(self):
        with pytest.raises(ValueError, match="degenerate uncertainties"):
            picp_mpiw_curve(constant_triples(5, sigma=0.0, error=0.1), 1.0)

    @pytest.mark.parametrize("cap, grid, message", [
        (0.0, 16, "mpiw_cap must be positive"), (-1.0, 16, "mpiw_cap must be positive"),
        (1.0, 1, "grid_size must be >= 2"),
    ])
    def test_bad_cap_or_grid_rejected(self, cap, grid, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            picp_mpiw_curve(constant_triples(5, sigma=0.1, error=0.1), cap, grid)

    def test_matches_broadcast_definition_exactly(self):
        rng = np.random.default_rng(17)
        n, grid, cap = 3000, 256, 2.0
        sig = rng.uniform(0.05, 2.0, n)
        sig[:300] = 0.0  # sigma = 0: covered only by exact hits
        err = rng.normal(0.0, 1.0, n)
        err[::7] = 0.0  # exact hits, with and without sigma = 0
        beta = np.linspace(0.0, cap / (2.0 * sig.mean()), grid)
        # errors on, and one ulp either side of, rounded grid products
        j = rng.integers(1, grid, 600)
        on = beta[j] * sig[1000:1600]
        err[1000:1600] = np.where(rng.random(600) < 0.5, -on, on)
        err[1600:1800] = np.nextafter(beta[j[:200]] * sig[1600:1800], np.inf)
        err[1800:2000] = np.nextafter(beta[j[200:400]] * sig[1800:2000], 0.0)
        t = triples_from_arrays(err, np.zeros(n), sig)
        curve = picp_mpiw_curve(t, cap, grid)
        assert np.array_equal(curve.beta_grid, beta)
        assert np.array_equal(curve.picp, broadcast_picp(t, beta))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_row_permutation_invariant(self, data):
        # dyadic sigmas sum exactly in any order, so the beta grid is fixed
        # and only the coverage count could depend on row order
        n = data.draw(st.integers(2, 40))
        sig = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0]), min_size=n, max_size=n)))
        assume(sig.sum() > 0)
        err = np.array(data.draw(st.lists(
            st.floats(-3.0, 3.0, allow_nan=False), min_size=n, max_size=n)))
        perm = np.array(data.draw(st.permutations(range(n))))
        zero = np.zeros(n)
        a = picp_mpiw_curve(triples_from_arrays(err, zero, sig), 1.5, 64)
        b = picp_mpiw_curve(triples_from_arrays(err[perm], zero, sig[perm]), 1.5, 64)
        assert np.array_equal(a.picp, b.picp)
        assert a.aucc == b.aucc


def exhaustive_monotone_fit(values, weights):
    """L2-optimal non-decreasing fit by enumerating contiguous poolings."""
    n = len(values)
    best, best_sse = None, np.inf
    for cuts in itertools.product([0, 1], repeat=n - 1):
        edges = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        fit = np.empty(n)
        for lo, hi in zip(edges[:-1], edges[1:]):
            fit[lo:hi] = np.average(values[lo:hi], weights=weights[lo:hi])
        if np.any(np.diff(fit) < 0):
            continue
        sse = np.sum(weights * (values - fit) ** 2)
        if sse < best_sse - 1e-15:
            best, best_sse = fit, sse
    return best


class TestPava:
    def test_monotone_input_untouched(self):
        v = np.array([1.0, 2.0, 5.0])
        assert np.array_equal(_pava(v, np.ones(3)), v)

    def test_two_point_violation_pools_to_mean(self):
        assert np.array_equal(_pava(np.array([3.0, 1.0]), np.ones(2)), [2.0, 2.0])

    def test_documented_four_point_case(self):
        out = _pava(np.array([1.0, 3.0, 2.0, 4.0]), np.ones(4))
        assert np.array_equal(out, [1.0, 2.5, 2.5, 4.0])

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(88)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            v = rng.normal(size=n)
            w = rng.uniform(0.5, 3.0, n)
            assert np.allclose(
                _pava(v, w), exhaustive_monotone_fit(v, w), atol=1e-10
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=30),
    )
    def test_output_non_decreasing_and_mean_preserving(self, values):
        v = np.array(values)
        w = np.ones(len(v))
        out = _pava(v, w)
        assert np.all(np.diff(out) >= -1e-12)
        assert np.sum(out * w) == pytest.approx(np.sum(v * w), abs=1e-8)


class TestIsotonicMap:
    def test_monotone_bins_interpolated_exactly(self):
        cal, _ = proportional_fixture()
        mapping = fit_isotonic(cal, 15)
        stats = bin_rmv_rmse(cal, 15)
        assert np.allclose(mapping(stats.rmv**2), stats.rmse**2, rtol=1e-12)

    def test_constant_extrapolation(self):
        mapping = IsotonicMap(np.array([1.0, 2.0]), np.array([3.0, 5.0]))
        assert mapping(0.0) == 3.0
        assert mapping(10.0) == 5.0
        assert mapping(1.5) == 4.0

    def test_tied_breakpoints_merged_by_count_weighted_mean(self):
        # bins of 4, 3, 3 rows; the first two share RMV^2 = 1
        sigma = np.array([1.0] * 7 + [2.0] * 3)
        err = np.array([0.5] * 4 + [1.0] * 3 + [2.0] * 3)
        mapping = fit_isotonic(triples_from_arrays(err, np.zeros(10), sigma), 3)
        assert np.array_equal(mapping.breakpoints, [1.0, 4.0])
        assert np.allclose(mapping.values, [(4 * 0.25 + 3 * 1.0) / 7, 4.0], rtol=1e-15)

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            fit_isotonic(constant_triples(10, 1.0, 0.5), 1)

    def test_constant_sigma_bins_of_unequal_size_merge(self):
        # bins of two sizes can round the same RMV^2 one ulp apart either
        # way; about 1 table in 50 here falls from one bin to the next
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(16, 40))
            truth = rng.normal(size=n)
            sigma = np.full(n, rng.uniform(0.1, 2.0))
            triples = triples_from_arrays(truth, truth + rng.normal(size=n), sigma)
            mapping = fit_isotonic(triples, 15)
            assert np.all(np.diff(mapping.breakpoints) > 0)
            assert np.allclose(mapping.breakpoints, sigma[0] ** 2, rtol=1e-14, atol=0)
            assert np.all(np.diff(mapping.values) >= 0)


class TestRecalibrate:
    def test_identity_map_is_noop(self):
        mapping = IsotonicMap(np.array([0.0, 10.0]), np.array([0.0, 10.0]))
        triples = constant_triples(5, sigma=1.3, error=0.4)
        assert np.allclose(recalibrate(mapping, triples.sigma), triples.sigma, rtol=1e-12)

    def test_constant_map(self):
        mapping = IsotonicMap(np.array([1.0, 2.0]), np.array([4.0, 4.0]))
        out = recalibrate(mapping, constant_triples(5, sigma=9.0, error=0.1).sigma)
        assert np.all(out == 2.0)

    def test_twofold_miscalibration_fixed_on_holdout(self):
        # sampled-noise version of the 2x fixture, frozen seed
        rng = np.random.default_rng(77)
        n = 4000
        sig_true = rng.uniform(0.02, 0.1, n)
        err = rng.normal(0.0, sig_true)
        zero = np.zeros(2000)
        cal = triples_from_arrays(err[:2000], zero, 2.0 * sig_true[:2000])
        test = triples_from_arrays(err[2000:], zero, 2.0 * sig_true[2000:])
        mapping = fit_isotonic(cal, 15)
        before = ence(bin_rmv_rmse(test, 15))
        after = ence(bin_rmv_rmse(recalibrated(mapping, test), 15))
        assert after <= 0.5 * before

    def test_proportional_map_preserves_aucc_exactly(self):
        cal, test = proportional_fixture()
        mapping = fit_isotonic(cal, 15)
        assert np.all(np.diff(mapping.values) > 0)  # strictly increasing
        rec = recalibrated(mapping, test)
        a0 = picp_mpiw_curve(test, 0.2).aucc
        a1 = picp_mpiw_curve(rec, 0.2).aucc
        assert abs(a1 - a0) < 1e-9
        assert ence(bin_rmv_rmse(rec, 15)) < 1e-12

    def test_nonproportional_monotone_map_can_change_aucc(self):
        # strictly increasing but nonlinear in sigma^2: AUCC moves
        rng = np.random.default_rng(21)
        sig = rng.uniform(0.5, 2.0, 2000)
        err = rng.normal(0, sig)
        triples = triples_from_arrays(err, np.zeros(2000), sig)
        mapping = IsotonicMap(np.array([0.0, 1.0, 4.0]), np.array([0.0, 1.0, 16.0]))
        a0 = picp_mpiw_curve(triples, 4.0).aucc
        a1 = picp_mpiw_curve(recalibrated(mapping, triples), 4.0).aucc
        assert abs(a1 - a0) > 1e-4


class TestTripleValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match=r"row 2: .*sigma=-1.0$"):
            triples_from_arrays(np.zeros(4), np.zeros(4), [1.0, 1.0, -1.0, -2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match=r"row 3: need finite values .* truth=nan,"):
            triples_from_arrays([0.0, 1.0, 2.0, np.nan, np.inf], np.zeros(5), np.ones(5))
        with pytest.raises(ValueError, match=r"row 1: "):
            triples_from_arrays(np.zeros(3), [0.0, np.inf, 0.0], [1.0, 1.0, np.nan])
        with pytest.raises(ValueError, match=r"row 0: "):
            triples_from_arrays(np.zeros(2), np.zeros(2), [np.nan, -1.0])

    @pytest.mark.parametrize("truth, estimate, sigma, row, array", [
        ([0.0, np.nan], [0.0, np.inf], [1.0, -1.0], 1, "truth"),
        ([0.0, 0.0], [0.0, np.inf], [1.0, np.nan], 1, "estimate"),
        ([0.0, 0.0], [0.0, 0.0], [1.0, -1.0], 1, "sigma"),
        ([0.0, 0.0], [0.0, 0.0], [np.inf, 1.0], 0, "sigma"),
    ])
    def test_refusal_names_row_and_first_bad_array(self, truth, estimate, sigma, row, array):
        with pytest.raises(RowError) as refused:
            triples_from_arrays(truth, estimate, sigma)
        assert (refused.value.row, refused.value.array) == (row, array)
        assert str(refused.value) == f"row {row}: {refused.value.detail}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_recalibrate_refuses_a_bad_sigma(self, bad):
        mapping = IsotonicMap(np.array([0.0, 1.0]), np.array([0.0, 4.0]))
        assert np.array_equal(recalibrate(mapping, [0.5, 1.0]), [1.0, 2.0])
        with pytest.raises(RowError, match=rf"^row 2: need finite sigma >= 0, got sigma={bad!r}$"):
            recalibrate(mapping, [0.5, 1.0, bad, -3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"row 4: not in all of .*estimate \(4,\)"):
            triples_from_arrays(np.zeros(5), np.zeros(4), np.ones(5))

    def test_arrays_are_float_and_kept(self):
        t = triples_from_arrays([1, 2], [0, 0], [1, 1])
        assert len(t) == 2
        for a in (t.truth, t.estimate, t.sigma):
            assert a.dtype == np.float64 and a.shape == (2,)
        assert np.array_equal(t.truth, [1.0, 2.0])
