import json

import numpy as np
import pytest

from dticalib.bootstrap import summarize_uncertainty
from dticalib.mlp import (
    DivergenceError,
    MlpSpec,
    TrainConfig,
    TwoBranchMlp,
    U_MAX,
    U_MIN,
    batch_loss,
    attenuated_loss,
    batch_loss_and_grads,
    load_checkpoint,
    normalize_signals,
    predict_mc_dropout,
    save_checkpoint,
    train,
)
from dticalib.fitting import fit_ols_batch
from dticalib.rng import rng_from_key
from dticalib.simulation import PhantomSpec, fibonacci_directions, make_phantom, make_scheme
from dticalib.tensor import GradientScheme, predict_signal_batch

SCHEME = make_scheme(30)


def small_spec(**kw):
    kw.setdefault("input_dim", len(SCHEME))
    kw.setdefault("hidden_widths", (32, 32))
    kw.setdefault("uncertainty_widths", (16,))
    kw.setdefault("target_scale", 4000.0)
    return MlpSpec(**kw)


def loss_attenuated(pred, truth, u, penalty):
    """attenuated_loss of one voxel, as a one-row batch."""
    pred, truth = np.asarray(pred, dtype=np.float64), np.asarray(truth, dtype=np.float64)
    return attenuated_loss(pred[None], truth[None], np.array([u], dtype=np.float64), penalty)[0][0]


class TestLossAttenuated:
    def test_zero_at_perfect_prediction(self):
        assert loss_attenuated([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6], 0.0, 1.0) == 0.0

    def test_stationary_point_value(self):
        # residual sum R = e with penalty 1: optimal u is 1 and loss is 2
        pred = np.zeros(6)
        truth = np.array([np.e, 0, 0, 0, 0, 0])
        assert loss_attenuated(pred, truth, 1.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_grid_search_minimizer(self):
        # brute-force grid oracle: argmin_u R e^-u + u, R = 0.5
        u_grid = np.arange(-10, 10, 1e-4)
        objective = 0.5 * np.exp(-u_grid) + u_grid
        u_star = u_grid[np.argmin(objective)]
        assert u_star == pytest.approx(np.log(0.5), abs=1e-3)
        losses = [loss_attenuated([0.5, 0, 0, 0, 0, 0], np.zeros(6), u, 1.0) for u in u_grid]
        assert u_grid[int(np.argmin(losses))] == pytest.approx(np.log(0.5), abs=1e-3)

    def test_u_zero_reduces_to_l1(self):
        rng = np.random.default_rng(0)
        pred, truth = rng.normal(size=6), rng.normal(size=6)
        assert loss_attenuated(pred, truth, 0.0, 1.0) == np.sum(np.abs(pred - truth))

    def test_huge_penalty_pulls_minimizer_deep_negative(self):
        # analytic minimizer ln(R / penalty): with penalty 1e6 it sits far
        # below zero for any residual the toy model sees, and the clamp
        # exists because R -> 0 sends it to -inf
        assert np.log(10.0 / 1e6) < -10.0
        assert np.log(1e-8) < U_MIN


class TestGradients:
    def gradient_check(self, masks, seed, n_coords=25, h=1e-5):
        spec = small_spec()
        model = TwoBranchMlp(spec, seed=seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(0.5, 0.2, size=(6, spec.input_dim))
        y = rng.normal(0.0, 0.5, size=(6, 6))
        if masks == "dropout":
            masks = model.make_dropout_masks(np.random.default_rng(3), 6)
        _, grads = batch_loss_and_grads(model, x, y, 1.0, masks)
        flat_g = np.concatenate([g.ravel() for g in grads])
        flat_p = model.get_flat()
        worst = 0.0
        for idx in rng.choice(flat_p.size, n_coords, replace=False):
            p0 = flat_p[idx]
            flat_p[idx] = p0 + h
            model.set_flat(flat_p)
            up = batch_loss(model, x, y, 1.0, masks)
            flat_p[idx] = p0 - h
            model.set_flat(flat_p)
            down = batch_loss(model, x, y, 1.0, masks)
            flat_p[idx] = p0
            model.set_flat(flat_p)
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - flat_g[idx]) / max(abs(fd), abs(flat_g[idx]), 1e-12))
        return worst

    def test_deterministic_pass(self):
        assert self.gradient_check(None, seed=4) < 1e-4

    def test_with_fixed_dropout_masks(self):
        assert self.gradient_check("dropout", seed=6) < 1e-4


class TestUncertaintyBranchDeterminism:
    def test_u_ignores_dropout_masks(self):
        spec = small_spec(dropout_rate=0.5)
        model = TwoBranchMlp(spec, seed=2)
        x = np.random.default_rng(5).normal(0.5, 0.2, size=(4, spec.input_dim))
        u_plain, _ = model.uncertainty(x)
        masks = model.make_dropout_masks(np.random.default_rng(9), 4)
        model.forward(x, masks=masks)  # a masked pass of the dropout branch
        u_masked, _ = model.uncertainty(x)
        assert np.array_equal(u_plain, u_masked)
        u_again, _ = model.uncertainty(x)
        assert np.array_equal(u_plain, u_again)


def reference_forward(model, x, masks=None):
    """Both branches written out as two loops: (pred, u, cache)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    keep = 1.0 - model.spec.dropout_rate
    cache = {"main_in": [], "main_z": [], "unc_in": [], "unc_z": [], "masks": masks}
    h = x
    for i in range(len(model.spec.hidden_widths)):
        cache["main_in"].append(h)
        z = h @ model.main_w[i] + model.main_b[i]
        cache["main_z"].append(z)
        h = np.maximum(z, 0.0)
        if masks is not None:
            h = h * masks[i] / keep
    cache["main_in"].append(h)
    pred = h @ model.main_w[-1] + model.main_b[-1]
    g = x
    for i in range(len(model.spec.uncertainty_widths)):
        cache["unc_in"].append(g)
        z = g @ model.unc_w[i] + model.unc_b[i]
        cache["unc_z"].append(z)
        g = np.maximum(z, 0.0)
    cache["unc_in"].append(g)
    cache["u_raw"] = (g @ model.unc_w[-1] + model.unc_b[-1])[:, 0]
    return pred, np.clip(cache["u_raw"], U_MIN, U_MAX), cache


def reference_backward(model, cache, d_pred, d_u):
    """Gradients of reference_forward, one loop per branch."""
    keep = 1.0 - model.spec.dropout_rate
    masks = cache["masks"]
    grads_w, grads_b = [None] * len(model.main_w), [None] * len(model.main_b)
    grads_w[-1] = cache["main_in"][-1].T @ d_pred
    grads_b[-1] = d_pred.sum(axis=0)
    dh = d_pred @ model.main_w[-1].T
    for i in reversed(range(len(model.spec.hidden_widths))):
        if masks is not None:
            dh = dh * masks[i] / keep
        dz = dh * (cache["main_z"][i] > 0)
        grads_w[i] = cache["main_in"][i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        dh = dz @ model.main_w[i].T
    gate = (cache["u_raw"] > U_MIN) & (cache["u_raw"] < U_MAX)
    du = (d_u * gate)[:, None]
    ugrads_w, ugrads_b = [None] * len(model.unc_w), [None] * len(model.unc_b)
    ugrads_w[-1] = cache["unc_in"][-1].T @ du
    ugrads_b[-1] = du.sum(axis=0)
    dg = du @ model.unc_w[-1].T
    for i in reversed(range(len(model.spec.uncertainty_widths))):
        dz = dg * (cache["unc_z"][i] > 0)
        ugrads_w[i] = cache["unc_in"][i].T @ dz
        ugrads_b[i] = dz.sum(axis=0)
        dg = dz @ model.unc_w[i].T
    out = []
    for w, b in [*zip(grads_w, grads_b), *zip(ugrads_w, ugrads_b)]:
        out.extend([w, b])
    return out


class TestStackKernelMatchesTwoLoopReference:
    """The shared layer-stack kernel keeps the two-loop arithmetic bit for bit."""

    @staticmethod
    def model_and_batch(dropout_rate=0.3):  # keep 0.7: 1 / keep rounds
        spec = small_spec(hidden_widths=(32, 16, 8), uncertainty_widths=(16, 8),
                          dropout_rate=dropout_rate)
        model = TwoBranchMlp(spec, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(0.5, 0.2, size=(9, spec.input_dim))
        y = rng.normal(0.0, 0.5, size=(9, 6))
        return model, x, y

    @pytest.mark.parametrize("with_masks", [False, True])
    @pytest.mark.parametrize("clamped", [False, True])
    def test_loss_and_every_gradient(self, with_masks, clamped):
        model, x, y = self.model_and_batch()
        masks = model.make_dropout_masks(np.random.default_rng(3), len(x)) if with_masks else None
        if clamped:  # move u_raw so that it leaves the clamp window on some rows only
            u_raw = reference_forward(model, x)[2]["u_raw"]
            model.unc_b[-1][:] += U_MAX - np.median(u_raw)
        pred, u, cache = reference_forward(model, x, masks)
        gate = (cache["u_raw"] > U_MIN) & (cache["u_raw"] < U_MAX)
        assert gate.any() and (not gate.all()) == clamped
        penalty = 1.0
        losses, diff, resid, attenuation = attenuated_loss(pred, y, u, penalty)
        d_pred = np.sign(diff) * attenuation[:, None] / len(x)
        d_u = (-resid * attenuation + penalty) / len(x)
        expected = reference_backward(model, cache, d_pred, d_u)
        loss, grads = batch_loss_and_grads(model, x, y, penalty, masks)
        assert loss == float(np.mean(losses))
        assert len(grads) == len(expected) == len(model.parameters())
        for got, want in zip(grads, expected):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert batch_loss(model, x, y, penalty, masks) == loss

    def test_predict_and_mc_dropout(self):
        model, x, _ = self.model_and_batch()
        pred, u, _ = reference_forward(model, x)
        points, u_got = model.predict(x)
        assert np.array_equal(points, pred / model.spec.target_scale)
        assert np.array_equal(u_got, u)
        seeds = [21 + v for v in range(len(x))]
        draws = [model.make_sample_masks(rng_from_key(s), 12) for s in seeds]
        masks = [np.concatenate(layer) for layer in zip(*draws)]
        want = reference_forward(model, np.repeat(x, 12, axis=0), masks)[0]
        got = predict_mc_dropout(model, x, n_samples=12, seeds=seeds)
        assert np.array_equal(got, (want / model.spec.target_scale).reshape(len(x), 12, 6))


class TestTraining:
    def test_loss_halves_within_50_epochs(self):
        spec = PhantomSpec(
            n_voxels=500, scheme=SCHEME, generator="random_spd", snr_db=30.0, seed=7
        )
        phantom = make_phantom(spec)
        x, truth = normalize_signals(phantom.signals, SCHEME), phantom.truth
        _, hist = train(x, truth, small_spec(dropout_rate=0.3), TrainConfig(epochs=50, seed=1))
        assert hist.train_loss[-1] <= 0.5 * hist.train_loss[0]

    def test_deterministic_under_seed(self):
        spec = PhantomSpec(n_voxels=128, scheme=SCHEME, snr_db=30.0, seed=8)
        phantom = make_phantom(spec)
        x, truth = normalize_signals(phantom.signals, SCHEME), phantom.truth
        cfg = TrainConfig(epochs=10, seed=5, batch_size=64)
        m1, _ = train(x, truth, small_spec(dropout_rate=0.4), cfg)
        m2, _ = train(x, truth, small_spec(dropout_rate=0.4), cfg)
        assert np.array_equal(m1.get_flat(), m2.get_flat())

    def test_divergence_reported_with_epoch(self):
        spec = PhantomSpec(n_voxels=64, scheme=SCHEME, snr_db=30.0, seed=1)
        phantom = make_phantom(spec)
        x, truth = normalize_signals(phantom.signals, SCHEME), phantom.truth
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch"):
            train(x, truth, small_spec(), TrainConfig(epochs=3, seed=0, learning_rate=1e160))

    @pytest.mark.parametrize("field, value", [
        ("penalty", 0.0), ("learning_rate", -1.0), ("learning_rate", float("nan")),
        ("batch_size", 0), ("epochs", 0), ("eval_every", 0), ("stop_patience", 0),
        ("val_fraction", 1.5), ("val_fraction", -0.1),
    ])
    def test_config_rejects_bad_value_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("hidden_widths", (0,)), ("hidden_widths", (64, -1)), ("uncertainty_widths", (0,)),
        ("dropout_rate", 1.5), ("dropout_rate", -0.1),
    ])
    def test_spec_rejects_bad_value_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            small_spec(**{field: value})

    def test_no_training_rows_is_an_error(self):
        # 3 voxels, val_fraction 0.9 rounds to 3 validation rows
        x = np.full((3, len(SCHEME)), 0.5)
        with pytest.raises(ValueError, match="no training rows"):
            train(x, np.zeros((3, 6)), small_spec(), TrainConfig(epochs=1, val_fraction=0.9))

    def test_identical_voxels_converge_and_u_drifts_negative(self):
        spec = PhantomSpec(
            n_voxels=256, scheme=SCHEME, generator="prolate", fa_target=0.7,
            md=0.9e-3, orientation="fixed", snr_db=np.inf, seed=2,
        )
        phantom = make_phantom(spec)
        x, truth = normalize_signals(phantom.signals, SCHEME), phantom.truth
        u_by_epochs = {}
        for epochs in (40, 500):
            model, _ = train(
                x, truth, small_spec(hidden_widths=(64, 64, 64), dropout_rate=0.1),
                TrainConfig(epochs=epochs, seed=1, batch_size=64, val_fraction=0.1,
                            learning_rate=3e-3, eval_every=100),
            )
            pred, u = model.predict(x)
            u_by_epochs[epochs] = float(u.mean())
        assert np.abs(pred - truth).mean() < 0.05 * np.abs(truth).mean()
        assert u_by_epochs[500] < u_by_epochs[40]
        assert u_by_epochs[500] < 0.0

    def test_huge_penalty_collapses_u(self):
        spec = PhantomSpec(n_voxels=128, scheme=SCHEME, snr_db=30.0, seed=9)
        phantom = make_phantom(spec)
        x, truth = normalize_signals(phantom.signals, SCHEME), phantom.truth
        kwargs = dict(epochs=80, seed=2, batch_size=64, learning_rate=3e-3, eval_every=40)
        m_ref, _ = train(x, truth, small_spec(), TrainConfig(penalty=1.0, **kwargs))
        m_big, _ = train(x, truth, small_spec(), TrainConfig(penalty=1e6, **kwargs))
        _, u_ref = m_ref.predict(x)
        _, u_big = m_big.predict(x)
        assert u_big.mean() < u_ref.mean() - 0.5


class TestMcDropout:
    def test_sample_masks_equal_per_sample_draws(self):
        model = TwoBranchMlp(small_spec(hidden_widths=(32, 16, 8), dropout_rate=0.4), seed=3)
        batched_rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
        batched = model.make_sample_masks(batched_rng, 25)
        loop = [model.make_dropout_masks(loop_rng, 1) for _ in range(25)]
        for layer, masks in enumerate(batched):
            assert np.array_equal(masks, np.vstack([m[layer] for m in loop]))
        assert batched_rng.random() == loop_rng.random()  # same stream position

    def test_one_pass_matches_per_sample_passes(self):
        model = TwoBranchMlp(small_spec(dropout_rate=0.5), seed=3)
        x = np.random.default_rng(1).normal(0.5, 0.1, len(SCHEME))
        samples = predict_mc_dropout(model, x, n_samples=40, seeds=[11])[0]
        rng = rng_from_key(11)
        reference = np.vstack([
            model.forward(x, model.make_dropout_masks(rng, 1))[0] for _ in range(40)
        ]) / model.spec.target_scale
        assert np.allclose(samples, reference, rtol=1e-12, atol=0.0)

    def test_grouped_rows_equal_one_row_calls(self):
        model = TwoBranchMlp(small_spec(dropout_rate=0.5), seed=3)
        x = np.random.default_rng(2).normal(0.5, 0.1, (7, len(SCHEME)))
        seeds = [50 + 3 * v for v in range(7)]
        grouped = predict_mc_dropout(model, x, n_samples=25, seeds=seeds)
        assert grouped.shape == (7, 25, 6)
        for v in range(7):
            one = predict_mc_dropout(model, x[v], n_samples=25, seeds=[seeds[v]])[0]
            assert np.allclose(grouped[v], one, rtol=1e-12, atol=0.0)
        with pytest.raises(ValueError, match="one seed per voxel"):
            predict_mc_dropout(model, x, n_samples=25, seeds=seeds[:-1])

    def test_zero_rate_gives_identical_samples(self):
        model = TwoBranchMlp(small_spec(dropout_rate=0.0), seed=3)
        x = np.random.default_rng(1).normal(0.5, 0.1, len(SCHEME))
        samples = predict_mc_dropout(model, x, n_samples=20, seeds=[0])
        assert samples.shape == (1, 20, 6)
        assert np.all(samples == samples[0, 0])
        assert summarize_uncertainty(samples)[0, 1] < 1e-12  # sigma_fa

    def test_same_seed_identical_sample_set(self):
        model = TwoBranchMlp(small_spec(dropout_rate=0.5), seed=3)
        x = np.random.default_rng(1).normal(0.5, 0.1, len(SCHEME))
        a = predict_mc_dropout(model, x, n_samples=30, seeds=[11])
        b = predict_mc_dropout(model, x, n_samples=30, seeds=[11])
        assert np.array_equal(a, b)
        c = predict_mc_dropout(model, x, n_samples=30, seeds=[12])
        assert not np.array_equal(a, c)

    def test_spread_grows_with_dropout_rate(self):
        # retrain per rate with one seed; median sigma over voxels is monotone
        spec = PhantomSpec(
            n_voxels=600, scheme=SCHEME, generator="prolate", fa_target=0.6,
            md=0.9e-3, snr_db=35.0, seed=3,
        )
        phantom = make_phantom(spec)
        x, truth = normalize_signals(phantom.signals, SCHEME), phantom.truth
        med_fa, med_md = [], []
        for rate in (0.1, 0.3, 0.5):
            model, _ = train(
                x, truth,
                MlpSpec(input_dim=len(SCHEME), dropout_rate=rate, target_scale=4000.0),
                TrainConfig(epochs=150, seed=4, batch_size=128, eval_every=50),
            )
            samples = predict_mc_dropout(model, x[:40], n_samples=50, seeds=700 + np.arange(40))
            _, fa, md = summarize_uncertainty(samples).T
            med_fa.append(np.median(fa))
            med_md.append(np.median(md))
        assert med_fa[0] < med_fa[1] < med_fa[2]
        assert med_md[0] < med_md[1] < med_md[2]


class TestNormalization:
    def test_divides_by_b0_mean(self):
        signals = np.ones((2, len(SCHEME)))
        signals[:, :2] = 2.0  # the two b=0 entries
        x = normalize_signals(signals, SCHEME)
        assert np.allclose(x[:, :2], 1.0)
        assert np.allclose(x[:, 2:], 0.5)

    @staticmethod
    def two_shell_scheme():
        # ln S0 is only identifiable without b=0 rows on a multi-shell
        # scheme, so the fallback fixtures use two shells
        dirs = np.vstack([fibonacci_directions(8), fibonacci_directions(8)])
        return GradientScheme(dirs, np.array([500.0] * 8 + [1500.0] * 8))

    def test_falls_back_to_fitted_s0(self):
        scheme = self.two_shell_scheme()
        clean = predict_signal_batch(np.array([[1e-3, 1e-3, 1e-3, 0, 0, 0]]), scheme)
        x = normalize_signals(clean * 3.0, scheme)  # S0 = 3
        assert np.allclose(x, clean, atol=1e-10)

    def test_fallback_rows_equal_per_row_fit(self):
        scheme = self.two_shell_scheme()
        spec = PhantomSpec(n_voxels=50, scheme=scheme, generator="random_spd", snr_db=20.0, seed=12)
        signals = make_phantom(spec).signals * np.linspace(0.5, 4.0, 50)[:, None]
        expected = np.array(
            [row / np.exp(fit_ols_batch(row[None], scheme)[0][0, 6]) for row in signals]
        )
        assert np.array_equal(normalize_signals(signals, scheme), expected)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        spec = PhantomSpec(n_voxels=64, scheme=SCHEME, snr_db=30.0, seed=4)
        phantom = make_phantom(spec)
        x, truth = normalize_signals(phantom.signals, SCHEME), phantom.truth
        cfg = TrainConfig(epochs=5, seed=7, batch_size=32)
        model, hist = train(x, truth, small_spec(dropout_rate=0.2), cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(path, model, cfg, epoch=hist.stopped_epoch)
        loaded, header = load_checkpoint(path)
        assert np.array_equal(loaded.get_flat(), model.get_flat())
        assert header["spec"]["dropout_rate"] == 0.2
        assert header["config"]["seed"] == 7
        xq = x[:3]
        assert np.array_equal(loaded.predict(xq)[0], model.predict(xq)[0])

    @staticmethod
    def saved(tmp_path):
        model = TwoBranchMlp(small_spec(), seed=3)
        path = tmp_path / "model.bin"
        save_checkpoint(path, model, TrainConfig(), epoch=2)
        return model, path

    def test_layout_is_header_line_then_weights(self, tmp_path):
        model, path = self.saved(tmp_path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        weights = b"".join(np.asarray(p, dtype="<f8").tobytes() for p in model.parameters())
        expected = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + weights
        assert path.read_bytes() == expected
        assert header["n_parameters"] == model.n_parameters() and header["epoch"] == 2

    def test_rejects_truncated(self, tmp_path):
        _, path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        _, path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b'{"kind": "dataset"}\n')
        with pytest.raises(ValueError):
            load_checkpoint(path)
