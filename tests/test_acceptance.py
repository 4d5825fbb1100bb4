"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is seeded and deterministic.
"""

import hashlib
import itertools
import shutil
import time

import numpy as np
import pytest

import dticalib as dc
from dticalib.bootstrap import _mean_dyadic_axes, _principal_axes, summarize_uncertainty
from dticalib.calibration import (
    _pava,
    bin_rmv_rmse,
    ence,
    fit_isotonic,
    picp_mpiw_curve,
    recalibrate,
    triples_from_arrays,
)
from dticalib.cli import main as cli_main
from dticalib.fitting import fit_cwlls_batch, fit_ols_batch, fit_wlls_batch
from dticalib.mlp import (
    MlpSpec,
    TrainConfig,
    TwoBranchMlp,
    batch_loss,
    batch_loss_and_grads,
    normalize_signals,
    predict_mc_dropout,
    train,
)
from dticalib.simulation import (
    PhantomSpec,
    _unit_quaternion,
    make_phantom,
    make_scheme,
    monte_carlo_oracle,
    quaternion_rotations,
)
from dticalib.tensor import (
    eigh3_batch,
    elements_to_matrices,
    matrices_to_elements,
    predict_signal_batch,
)

COLUMNS = ("theta95", "sigma_fa", "sigma_md")  # summarize_uncertainty's columns


def report(number, text):
    print(f"\nACCEPTANCE {number:2d} PASS - {text}")


def test_criterion_01_noiseless_roundtrip():
    scheme = make_scheme(30)
    rng = np.random.default_rng(1)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        lam = rng.uniform(0.1e-3, 3e-3, 3)
        rot = quaternion_rotations(_unit_quaternion(rng)[None])[0]
        truth = matrices_to_elements((rot @ np.diag(lam) @ rot.T)[None])  # one-row batch
        signals = predict_signal_batch(truth, scheme) * np.exp(0.05)
        scale = np.max(np.abs(truth))
        for fit in (fit_ols_batch, fit_wlls_batch, fit_cwlls_batch):
            beta = fit(signals, scheme)[0]
            worst = max(worst, np.max(np.abs(beta[0, :6] - truth[0])) / scale)
    elapsed = time.monotonic() - start
    assert worst < 1e-8
    assert elapsed < 10.0
    report(1, f"1000 noiseless roundtrips, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_wild_bootstrap_vs_oracle():
    scheme = make_scheme(30)
    spec = PhantomSpec(
        n_voxels=50, scheme=scheme, generator="prolate", fa_target=0.8,
        md=0.9e-3, orientation="uniform", snr_db=30.0, seed=42,
    )
    start = time.monotonic()
    phantom = make_phantom(spec)
    wbs = summarize_uncertainty(np.stack([
        dc.wild_bootstrap(signals, scheme, 1000, seed=1000 + v)
        for v, signals in enumerate(phantom.signals)
    ]))
    orc = np.array([
        monte_carlo_oracle(truth, scheme, 30.0, n_realizations=2000, seed=2000 + v)
        for v, truth in enumerate(phantom.truth)
    ])
    elapsed = time.monotonic() - start
    medians = dict(zip(COLUMNS, np.median(np.abs(wbs / orc - 1.0), axis=0).tolist()))
    assert all(m <= 0.30 for m in medians.values()), medians
    assert elapsed < 300.0
    report(2, "wild bootstrap vs Monte-Carlo oracle, median rel dev "
              f"fa {medians['sigma_fa']:.3f} md {medians['sigma_md']:.3f} "
              f"theta {medians['theta95']:.3f}, {elapsed:.0f}s")


def test_criterion_03_attenuated_loss_stationarity():
    rng = np.random.default_rng(30)
    grid = np.arange(-10.0, 10.0, 1e-4)
    worst = 0.0
    for _ in range(100):
        residual_sum = float(rng.uniform(0.05, 20.0))
        for penalty in (0.5, 1.0, 2.0):
            objective = residual_sum * np.exp(-grid) + penalty * grid
            u_star = grid[int(np.argmin(objective))]
            worst = max(worst, abs(u_star - np.log(residual_sum / penalty)))
    assert worst < 1e-3
    report(3, f"grid-minimized u matches ln(R/penalty), worst gap {worst:.2e}")


def test_criterion_04_gradient_check():
    spec = MlpSpec(input_dim=32, hidden_widths=(64, 64, 64), uncertainty_widths=(32, 32))
    model = TwoBranchMlp(spec, seed=40)
    rng = np.random.default_rng(41)
    x = rng.normal(0.5, 0.25, size=(8, spec.input_dim))
    y = rng.normal(0.0, 0.6, size=(8, 6))
    _, grads = batch_loss_and_grads(model, x, y, 1.0)
    flat_g = np.concatenate([g.ravel() for g in grads])
    flat_p = model.get_flat()
    h = 1e-5
    worst = 0.0
    for idx in rng.choice(flat_p.size, 20, replace=False):
        p0 = flat_p[idx]
        flat_p[idx] = p0 + h
        model.set_flat(flat_p)
        up = batch_loss(model, x, y, 1.0)
        flat_p[idx] = p0 - h
        model.set_flat(flat_p)
        down = batch_loss(model, x, y, 1.0)
        flat_p[idx] = p0
        model.set_flat(flat_p)
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(fd - flat_g[idx]) / max(abs(fd), abs(flat_g[idx]), 1e-12))
    assert worst < 1e-4
    report(4, f"backprop vs central differences on 20 coordinates, worst rel err {worst:.2e}")


def test_criterion_05_ence_degenerate_forecaster():
    rng = np.random.default_rng(50)
    err = rng.normal(0.0, 1.3, 5000)
    sigma = np.full(5000, np.sqrt(np.mean(err**2)))  # constant = global RMSE
    value = ence(bin_rmv_rmse(triples_from_arrays(err, np.zeros(5000), sigma), 1))
    assert value < 1e-12
    report(5, f"constant-sigma forecaster with sigma = global RMSE: ENCE {value:.2e}")


def test_criterion_06_aucc_scale_invariance():
    rng = np.random.default_rng(60)
    sig = rng.uniform(0.2, 2.0, 5000)
    err = rng.normal(0.0, sig)
    zero = np.zeros(5000)
    base = picp_mpiw_curve(triples_from_arrays(err, zero, sig), 2.0).aucc
    worst = 0.0
    for c in (0.1, 10.0):
        scaled = picp_mpiw_curve(triples_from_arrays(err, zero, c * sig), 2.0).aucc
        worst = max(worst, abs(scaled - base))
    assert worst < 1e-12
    report(6, f"AUCC shift under sigma scaling by 0.1 and 10: {worst:.2e}")


def test_criterion_07_aucc_ordering():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        err = rng.normal(0.0, 0.03, 10_000)
        sig = 1.3 * np.abs(err) + 1e-9
        perm = rng.permutation(10_000)
        zero = np.zeros(10_000)
        oracle = picp_mpiw_curve(triples_from_arrays(err, zero, sig), 0.20).aucc
        permuted = picp_mpiw_curve(triples_from_arrays(err, zero, sig[perm]), 0.20).aucc
        wins += oracle > permuted
    assert wins == 20
    report(7, "oracle sigma beats permuted sigma on AUCC, 20/20 seeds")


def proportional_miscalibration_fixture():
    levels = 0.02 * 1.25 ** np.arange(15)
    pattern = np.linspace(0.4, 1.6, 20) * np.tile([1.0, -1.0], 10)
    pattern /= np.sqrt(np.mean(pattern**2))
    truth, sig = [], []
    for s in levels:
        for _ in range(2):
            truth.extend(s * pattern)
            sig.extend(np.full_like(pattern, 2.0 * s))
    truth, sig = np.array(truth), np.array(sig)
    rows = np.arange(len(truth))
    cal = rows % 40 < 20
    build = lambda m: triples_from_arrays(truth[m], np.zeros(int(m.sum())), sig[m])
    return build(cal), build(~cal)


def test_criterion_08_recalibration_efficacy():
    cal_half, test_half = proportional_miscalibration_fixture()
    mapping = fit_isotonic(cal_half, 15)
    assert np.all(np.diff(mapping.values) > 0)  # the criterion's premise
    before = ence(bin_rmv_rmse(test_half, 15))
    recal = triples_from_arrays(
        test_half.truth, test_half.estimate, recalibrate(mapping, test_half.sigma)
    )
    after = ence(bin_rmv_rmse(recal, 15))
    assert after <= 0.5 * before
    aucc_gap = abs(
        picp_mpiw_curve(recal, 0.2).aucc - picp_mpiw_curve(test_half, 0.2).aucc
    )
    assert aucc_gap < 1e-9
    report(8, f"held-out ENCE {before:.3f} -> {after:.3e}, AUCC gap {aucc_gap:.2e}")


def exhaustive_monotone_fit(values, weights):
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


def test_criterion_09_pava_optimality():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        values = rng.normal(size=n)
        weights = rng.uniform(0.5, 3.0, n)
        gap = np.max(np.abs(_pava(values, weights) - exhaustive_monotone_fit(values, weights)))
        worst = max(worst, gap)
    assert worst < 1e-10
    report(9, f"PAVA equals exhaustive-search monotone fit, worst gap {worst:.2e}")


SNR_STEPS = (35.0, 32.0, 29.0, 26.0, 23.0, 20.0)


def _trend_model():
    scheme = make_scheme(30)
    spec = PhantomSpec(
        n_voxels=5000, scheme=scheme, generator="prolate", fa_target=0.8,
        md=0.9e-3, snr_range=(18.0, 37.0), seed=100,
    )
    phantom = make_phantom(spec)
    inputs = normalize_signals(phantom.signals, scheme)
    model, _ = train(
        inputs, phantom.truth,
        MlpSpec(input_dim=len(scheme), hidden_widths=(64, 64, 64),
                uncertainty_widths=(64, 64), dropout_rate=0.3, target_scale=4000.0),
        TrainConfig(epochs=250, seed=3, batch_size=512, learning_rate=1e-3, eval_every=25),
    )
    return scheme, model


def test_criterion_10_noise_trend():
    scheme, model = _trend_model()
    mean_u = []
    for snr in SNR_STEPS:
        spec = PhantomSpec(
            n_voxels=400, scheme=scheme, generator="prolate", fa_target=0.8,
            md=0.9e-3, snr_db=snr, seed=777,
        )
        inputs = normalize_signals(make_phantom(spec).signals, scheme)
        mean_u.append(float(model.predict(inputs)[1].mean()))
    increasing = sum(b > a for a, b in zip(mean_u, mean_u[1:]))
    assert increasing >= 4, mean_u

    def mc_sigma_fa(snr):
        spec = PhantomSpec(
            n_voxels=120, scheme=scheme, generator="prolate", fa_target=0.8,
            md=0.9e-3, snr_db=snr, seed=888,
        )
        inputs = normalize_signals(make_phantom(spec).signals, scheme)
        seeds = 3000 + np.arange(len(inputs))
        samples = predict_mc_dropout(model, inputs, n_samples=100, seeds=seeds)
        return float(np.mean(summarize_uncertainty(samples)[:, 1]))

    noisy, quiet = mc_sigma_fa(20.0), mc_sigma_fa(35.0)
    assert noisy > quiet
    report(10, f"mean u rises over SNR 35->20 in {increasing}/5 steps; "
               f"MC sigma(FA) {quiet:.4f} (35 dB) -> {noisy:.4f} (20 dB)")


def test_criterion_11_distribution_shift():
    scheme = make_scheme(30)
    spec = PhantomSpec(
        n_voxels=4000, scheme=scheme, generator="two_population",
        eig_range=(0.3e-3, 1.2e-3), shift=1.8, snr_db=30.0, seed=55,
    )
    phantom = make_phantom(spec)
    inputs = normalize_signals(phantom.signals, scheme)
    train_inputs, train_truth = inputs[:2000], phantom.truth[:2000]  # population A only

    eval_spec = PhantomSpec(
        n_voxels=400, scheme=scheme, generator="two_population",
        eig_range=(0.3e-3, 1.2e-3), shift=1.8, snr_db=30.0, seed=56,
    )
    eval_inputs = normalize_signals(make_phantom(eval_spec).signals, scheme)
    in_dist, shifted = eval_inputs[:200], eval_inputs[200:]

    def sigma_md(model, rows, seed0):
        samples = predict_mc_dropout(model, rows, n_samples=60, seeds=seed0 + np.arange(len(rows)))
        return summarize_uncertainty(samples)[:, 2]

    margins = []
    for seed in (1, 2, 3, 4, 5):
        model, _ = train(
            train_inputs, train_truth,
            MlpSpec(input_dim=len(scheme), dropout_rate=0.5, target_scale=4000.0),
            TrainConfig(epochs=120, seed=seed, batch_size=256, eval_every=20),
        )
        base = sigma_md(model, in_dist, 9000)
        moved = sigma_md(model, shifted, 90000)
        assert moved.mean() >= base.mean() + 2.0 * base.std()
        margins.append((moved.mean() - base.mean()) / base.std())
    report(11, "shifted population separated by "
               f"{min(margins):.1f}-{max(margins):.1f} training-population SDs, 5/5 seeds")


def cone_angle_95(elements):
    return summarize_uncertainty(elements[None])[0, 0]


def mean_dyadic(elements):
    axes = _principal_axes(eigh3_batch(elements_to_matrices(elements))[1])
    return _mean_dyadic_axes(axes[None])[0]


def test_criterion_12_cone_geometry():
    # identical replicate directions
    axes = np.tile([0.0, 0.0, 1.0], (100, 1))
    mats = 1e-3 * (np.einsum("ki,kj->kij", axes, axes) * 1.5 + 0.2 * np.eye(3))
    identical = matrices_to_elements(mats)
    assert cone_angle_95(identical) == 0.0

    # isotropic directions: closed form arccos(0.05) = 87.134 degrees
    rng = np.random.default_rng(120)
    axes = rng.normal(size=(10_000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    mats = 1e-3 * (np.einsum("ki,kj->kij", axes, axes) * 1.5 + 0.2 * np.eye(3))
    iso = matrices_to_elements(mats)
    theta = cone_angle_95(iso)
    assert theta == pytest.approx(np.degrees(np.arccos(0.05)), abs=0.5)

    # sign flips change nothing, exactly
    flips = np.where(rng.random(10_000) < 0.5, -1.0, 1.0)[:, None]
    mats_f = 1e-3 * (
        np.einsum("ki,kj->kij", axes * flips, axes * flips) * 1.5 + 0.2 * np.eye(3)
    )
    flipped = matrices_to_elements(mats_f)
    assert cone_angle_95(flipped) == theta
    assert abs(np.dot(mean_dyadic(flipped), mean_dyadic(iso))) == pytest.approx(1.0, abs=1e-12)
    report(12, f"cone geometry: identical -> 0, isotropic -> {theta:.2f} deg "
               "(closed form 87.13), sign-flip invariant")


CLI_CONFIG = """
out_dir = run
seed = 17
phantom.generator = prolate
phantom.fa_target = 0.8
phantom.md = 0.9e-3
phantom.n_voxels = 30
phantom.orientation = uniform
phantom.snr_db = 28
scheme.n_directions = 30
fit.estimator = cwlls
bootstrap.iterations = 150
train.epochs = 10
train.dropout_rate = 0.3
predict.samples = 40
metrics.bins = 6
"""


def test_criterion_13_cli_reproducibility(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CLI_CONFIG)
    commands = ("simulate", "fit", "bootstrap", "train", "predict",
                "calibrate", "evaluate", "curves")

    def run_all():
        for cmd in commands:
            assert cli_main([cmd, "--config", str(cfg)]) == 0
        return {
            str(p.relative_to(tmp_path / "run")): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / "run").rglob("*"))
            if p.is_file()
        }

    first = run_all()
    shutil.rmtree(tmp_path / "run")
    second = run_all()
    assert first == second
    assert len(first) >= 10
    report(13, f"full CLI pipeline rerun: {len(first)} files byte-identical")
