import json
import math

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
    _stack_backward,
    _stack_forward,
    attenuated_loss,
    batch_loss_and_grads,
    load_checkpoint,
    normalize_signals,
    predict_mc_dropout,
    save_checkpoint,
    train,
)
from dticalib.fitting import fit_ols_batch, log_signal_rows
from dticalib.rng import MC_DROPOUT, MLP_INIT, MLP_TRAIN, run_stream
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


def declared_views(model):
    """model's weights and biases in declaration order: main W0, b0, ..., then uncertainty."""
    pairs = [*zip(model.main_w, model.main_b), *zip(model.unc_w, model.unc_b)]
    return [a for pair in pairs for a in pair]


class TestParameterStore:
    def test_views_tile_flat_in_declaration_order(self):
        model = TwoBranchMlp(small_spec(hidden_widths=(32, 16), uncertainty_widths=(8,)), seed=3)
        views = declared_views(model)
        assert all(np.shares_memory(v, model.flat) for v in views)
        assert np.array_equal(np.concatenate([v.ravel() for v in views]), model.flat)
        assert sum(v.size for v in views) == model.flat.size
        model.flat[-1] = 7.0  # the last element is the uncertainty output bias
        assert model.unc_b[-1][0] == 7.0

    def test_initial_draws_are_per_layer_uniforms(self):
        spec = small_spec(hidden_widths=(32, 16), uncertainty_widths=(8,))
        model = TwoBranchMlp(spec, seed=11)
        rng = run_stream(11, MLP_INIT)
        expected = []
        for dims in ([spec.input_dim, 32, 16, 6], [spec.input_dim, 8, 1]):
            for fan_in, fan_out in zip(dims[:-1], dims[1:]):
                bound = 1.0 / np.sqrt(fan_in)
                expected += [rng.uniform(-bound, bound, size=(fan_in, fan_out)).ravel(),
                             np.zeros(fan_out)]
        assert np.array_equal(model.flat, np.concatenate(expected))


class TestGradients:
    def gradient_check(self, masks, seed, n_coords=25, h=1e-5):
        spec = small_spec()
        model = TwoBranchMlp(spec, seed=seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(0.5, 0.2, size=(6, spec.input_dim))
        y = rng.normal(0.0, 0.5, size=(6, 6))
        if masks == "dropout":
            masks = model.make_sample_masks([np.random.default_rng(3)], 6)
        _, grad = batch_loss_and_grads(model, x, y, 1.0, masks)
        worst = 0.0
        for idx in rng.choice(model.flat.size, n_coords, replace=False):
            p0 = model.flat[idx]
            model.flat[idx] = p0 + h
            up = batch_loss_and_grads(model, x, y, 1.0, masks)[0]
            model.flat[idx] = p0 - h
            down = batch_loss_and_grads(model, x, y, 1.0, masks)[0]
            model.flat[idx] = p0
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-12))
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
        masks = model.make_sample_masks([np.random.default_rng(9)], 4)
        model.forward(x, masks=masks)  # a masked pass of the dropout branch
        u_masked, _ = model.uncertainty(x)
        assert np.array_equal(u_plain, u_masked)
        u_again, _ = model.uncertainty(x)
        assert np.array_equal(u_plain, u_again)


def reference_forward(model, x, masks=None):
    """Both branches written out as two loops: (pred, u, cache)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    cache = {"main_in": [], "main_z": [], "unc_in": [], "unc_z": [], "masks": masks}
    h = x
    for i in range(len(model.spec.hidden_widths)):
        cache["main_in"].append(h)
        z = h @ model.main_w[i] + model.main_b[i]
        cache["main_z"].append(z)
        h = np.maximum(z, 0.0)
        if masks is not None:
            h = h * masks[i]
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
    masks = cache["masks"]
    grads_w, grads_b = [None] * len(model.main_w), [None] * len(model.main_b)
    grads_w[-1] = cache["main_in"][-1].T @ d_pred
    grads_b[-1] = d_pred.sum(axis=0)
    dh = d_pred @ model.main_w[-1].T
    for i in reversed(range(len(model.spec.hidden_widths))):
        if masks is not None:
            dh = dh * masks[i]
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
    def model_and_batch(dropout_rate=0.3):  # 1 / (1 - 0.3) rounds
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
        masks = model.make_sample_masks([np.random.default_rng(3)], len(x)) if with_masks else None
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
        loss, grad = batch_loss_and_grads(model, x, y, penalty, masks)
        assert loss == float(np.mean(losses))
        assert [w.shape for w in expected] == [v.shape for v in declared_views(model)]
        assert grad.shape == model.flat.shape
        assert np.array_equal(grad, np.concatenate([w.ravel() for w in expected]))

    def test_predict_and_mc_dropout(self):
        model, x, _ = self.model_and_batch()
        pred, u, _ = reference_forward(model, x)
        points, u_got = model.predict(x)
        assert np.array_equal(points, pred / model.spec.target_scale)
        assert np.array_equal(u_got, u)
        draws = [model.make_sample_masks([run_stream(21, MC_DROPOUT, v)], 12)
                 for v in range(len(x))]
        masks = [np.concatenate(layer) for layer in zip(*draws)]
        want = reference_forward(model, np.repeat(x, 12, axis=0), masks)[0]
        got = predict_mc_dropout(model, x, n_samples=12, seed=21)
        assert np.array_equal(got, (want / model.spec.target_scale).reshape(len(x), 12, 6))

    def test_half_rate_masks_equal_keep_masks_over_keep_bitwise(self):
        # at rate 0.5 the drawn scale 2 is exact, so the kernels' h * mask equals
        # h * keep / 0.5, with keep the 0/1 mask, in the pass and in its gradients
        model, x, _ = self.model_and_batch(dropout_rate=0.5)
        masks = model.make_sample_masks([np.random.default_rng(3)], len(x))
        keep = [(m > 0).astype(np.float64) for m in masks]
        trace = [x]
        for w, b, k in zip(model.main_w, model.main_b, keep):
            trace.append(np.maximum(trace[-1] @ w + b, 0.0) * k / 0.5)
        out = trace[-1] @ model.main_w[-1] + model.main_b[-1]
        d_out = d = np.random.default_rng(8).normal(size=out.shape)
        grads = [d.sum(axis=0), trace[-1].T @ d]
        for i in reversed(range(len(keep))):
            d = d @ model.main_w[i + 1].T
            d = d * keep[i] / 0.5
            d = d * (trace[i + 1] > 0)
            grads += [d.sum(axis=0), trace[i].T @ d]
        got, got_trace = _stack_forward(model.main_w, model.main_b, x, masks)
        got_grads = _stack_backward(model.main_w, got_trace, d_out, masks)
        assert got.tobytes() == out.tobytes()
        assert [t.tobytes() for t in got_trace] == [t.tobytes() for t in trace]
        assert [g.tobytes() for g in got_grads] == [g.tobytes() for g in grads[::-1]]


def allocating_stack_forward(weights, biases, x, masks=None):
    """_stack_forward as it was written before its buffers were reused."""
    trace = [x]
    for i, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
        h = np.maximum(trace[-1] @ w + b, 0.0)
        if masks is not None:
            h = h * masks[i]
        trace.append(h)
    return trace[-1] @ weights[-1] + biases[-1], trace


def allocating_stack_backward(weights, trace, d_out, masks=None):
    """_stack_backward as it was written before its buffers were reused."""
    grads = [d_out.sum(axis=0), trace[-1].T @ d_out]
    d = d_out
    for i in reversed(range(len(weights) - 1)):
        d = d @ weights[i + 1].T
        if masks is not None:
            d = d * masks[i]
        d = d * (trace[i + 1] > 0)
        grads += [d.sum(axis=0), trace[i].T @ d]
    return grads[::-1]


def allocating_loss_and_grads(model, x, targets, penalty, masks=None):
    """batch_loss_and_grads on the allocating kernels."""
    pred, trace = allocating_stack_forward(model.main_w, model.main_b, x, masks)
    u_raw, u_trace = allocating_stack_forward(model.unc_w, model.unc_b, x)
    u = np.clip(u_raw[:, 0], U_MIN, U_MAX)
    losses, diff, resid, attenuation = attenuated_loss(pred, targets, u, penalty)
    d_pred = np.sign(diff) * attenuation[:, None] / len(x)
    d_u = (-resid * attenuation + penalty) / len(x)
    d_u = d_u * ((u > U_MIN) & (u < U_MAX))
    grads = allocating_stack_backward(model.main_w, trace, d_pred, masks)
    grads += allocating_stack_backward(model.unc_w, u_trace, d_u[:, None])
    return float(np.mean(losses)), np.concatenate([g.ravel() for g in grads])


def allocating_train(inputs, target_elements, spec, cfg):
    """train's draws and steps with the allocating kernels and Adam's
    expressions as written out, for val_fraction 0 (no validation)."""
    targets = target_elements * spec.target_scale
    model = TwoBranchMlp(spec, seed=cfg.seed)
    rng = run_stream(cfg.seed, MLP_TRAIN)
    order = rng.permutation(len(inputs))  # every row trains
    x_tr, y_tr = inputs[order], targets[order]
    m1, m2 = np.zeros_like(model.flat), np.zeros_like(model.flat)
    beta1, beta2, eps, lr, step = 0.9, 0.999, 1e-8, cfg.learning_rate, 0
    losses = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(x_tr))
        for start in range(0, len(x_tr), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            masks = model.make_sample_masks([rng], len(idx))
            loss, grad = allocating_loss_and_grads(model, x_tr[idx], y_tr[idx], cfg.penalty, masks)
            step += 1
            m1 *= beta1
            m1 += (1 - beta1) * grad
            m2 *= beta2
            m2 += (1 - beta2) * grad * grad
            m1_hat = m1 / (1 - beta1**step)
            m2_hat = m2 / (1 - beta2**step)
            model.flat -= lr * m1_hat / (np.sqrt(m2_hat) + eps)
            losses.append(loss)
    return model, losses


class TestInPlaceKernelsMatchAllocatingReference:
    """The buffer-reusing kernels and Adam keep every operation and its order."""

    @pytest.mark.parametrize("with_masks", [False, True])
    def test_loss_and_gradients_bitwise(self, with_masks):
        model, x, y = TestStackKernelMatchesTwoLoopReference.model_and_batch(dropout_rate=0.3)
        masks = model.make_sample_masks([np.random.default_rng(3)], len(x)) if with_masks else None
        loss, grad = batch_loss_and_grads(model, x, y, 1.0, masks)
        want_loss, want_grad = allocating_loss_and_grads(model, x, y, 1.0, masks)
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()

    def test_kernels_leave_their_inputs_alone(self):
        model, x, _ = TestStackKernelMatchesTwoLoopReference.model_and_batch(dropout_rate=0.3)
        masks = model.make_sample_masks([np.random.default_rng(3)], len(x))
        x_before, masks_before = x.copy(), [m.copy() for m in masks]
        out, trace = _stack_forward(model.main_w, model.main_b, x, masks)
        d_out = np.random.default_rng(8).normal(size=out.shape)
        d_before = d_out.copy()
        _stack_backward(model.main_w, trace, d_out, masks)
        assert np.array_equal(x, x_before) and np.array_equal(d_out, d_before)
        assert all(np.array_equal(m, b) for m, b in zip(masks, masks_before))

    def test_training_steps_bitwise(self):
        phantom = make_phantom(PhantomSpec(n_voxels=100, scheme=SCHEME, snr_db=30.0, seed=8))
        x, truth = normalize_signals(phantom.signals, SCHEME), phantom.truth
        spec = small_spec(dropout_rate=0.3)
        cfg = TrainConfig(epochs=3, seed=5, batch_size=32, val_fraction=0.0)  # 12 Adam steps
        model, history = train(x, truth, spec, cfg)
        want, losses = allocating_train(x, truth, spec, cfg)
        assert model.flat.tobytes() == want.flat.tobytes()
        assert history.train_loss == [float(np.mean(losses[i : i + 4])) for i in (0, 4, 8)]


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
        assert np.array_equal(m1.flat, m2.flat)

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
        ("dropout_rate", 1.5), ("dropout_rate", -0.1), ("input_dim", 0),
        ("target_scale", 0.0), ("target_scale", -1000.0), ("target_scale", float("nan")),
        ("target_scale", float("inf")),
    ])
    def test_spec_rejects_bad_value_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            small_spec(**{field: value})

    def test_inputs_and_targets_of_other_voxel_counts_are_an_error(self):
        x = np.full((3, len(SCHEME)), 0.5)
        with pytest.raises(ValueError, match="^inputs and targets disagree on voxel count$"):
            train(x, np.zeros((4, 6)), small_spec(), TrainConfig(epochs=1))

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


class FixedWords:
    """A stream whose raw draw is the given words, as many as asked for."""

    def __init__(self, words):
        self.bit_generator, self.words = self, np.array(words, dtype=np.uint64)

    def random_raw(self, size):
        assert size == self.words.size
        return self.words


class TestMaskDraw:
    """Keep decisions read one bit at rates 0 and 0.5, one raw word otherwise."""

    @staticmethod
    def model(rate, widths=(32, 16, 8)):
        return TwoBranchMlp(small_spec(hidden_widths=widths, dropout_rate=rate), seed=3)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.4, 0.7, 0.25, 0.125, 0.75])
    def test_other_rates_keep_the_uniform_draw_masks(self, rate):
        model = self.model(rate)
        drawn, fresh = run_stream(9, MC_DROPOUT, 4), run_stream(9, MC_DROPOUT, 4)
        masks = model.make_sample_masks([drawn], 300)
        keep = fresh.random((300, 56)) >= rate
        expected = np.split(keep / (1 - rate), [32, 48], axis=1)
        assert [m.tobytes() for m in masks] == [e.tobytes() for e in expected]
        assert all(m.flags.c_contiguous for m in masks)
        assert drawn.random() == fresh.random()  # same stream position

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.4, 0.7])
    def test_words_next_to_the_threshold_decide_as_random_does(self, rate):
        # random() is (raw >> 11) * 2**-53; try the 8 values of those top 53
        # bits around rate * 2**53, once with the low 11 bits clear, once set
        top = [math.ceil(rate * 2**53) + k for k in range(-4, 4)]
        expected = [t * 2.0**-53 >= rate for t in top]
        for low in (0, 2**11 - 1):
            words = FixedWords([t << 11 | low for t in top])
            keep = self.model(rate, widths=(8,)).make_sample_masks([words], 1)[0][0] > 0
            assert keep.tolist() == expected

    @pytest.mark.parametrize("widths", [(32, 16, 8), (64, 64, 64)])
    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_a_row_reads_whole_words_of_bits(self, rate, widths):
        units, rows = sum(widths), 40
        per_row = math.ceil(units / 64)  # 3 words for 192 units
        drawn, fresh = run_stream(9, MC_DROPOUT, 4), run_stream(9, MC_DROPOUT, 4)
        keep = np.hstack(self.model(rate, widths).make_sample_masks([drawn], rows)) > 0
        words = fresh.bit_generator.random_raw((rows, per_row))
        assert drawn.bit_generator.random_raw() == fresh.bit_generator.random_raw()
        # unit j reads bit j of its row's words, the first word's low end first
        rows_as_ints = [sum(int(w) << (64 * k) for k, w in enumerate(row)) for row in words]
        expected = [[(v >> j) & 1 >= 2 * rate for j in range(units)] for v in rows_as_ints]
        assert np.array_equal(keep, expected)

    @pytest.mark.parametrize("rate", [0.0, 0.5, 0.25, 0.3])
    def test_rows_of_one_call_equal_one_row_calls(self, rate):
        model = self.model(rate)
        batched_rng, loop_rng = run_stream(2, MC_DROPOUT, 6), run_stream(2, MC_DROPOUT, 6)
        batched = model.make_sample_masks([batched_rng], 25)
        loop = [model.make_sample_masks([loop_rng], 1) for _ in range(25)]
        for layer, masks in enumerate(batched):
            assert np.array_equal(masks, np.vstack([m[layer] for m in loop]))
        assert batched_rng.bit_generator.random_raw() == loop_rng.bit_generator.random_raw()

    def test_a_sequence_of_streams_stacks_their_masks(self):
        model = self.model(0.5)
        stacked = model.make_sample_masks([run_stream(1, MC_DROPOUT, v) for v in (4, 0, 7)], 10)
        alone = [model.make_sample_masks([run_stream(1, MC_DROPOUT, v)], 10) for v in (4, 0, 7)]
        for layer, masks in enumerate(stacked):
            assert np.array_equal(masks, np.vstack([a[layer] for a in alone]))

    @pytest.mark.parametrize("rate", [0.5, 0.25, 0.125, 0.75, 0.3])
    def test_units_keep_at_one_minus_rate_and_independently(self, rate):
        rows, keep_p = 20_000, 1.0 - rate
        model = self.model(rate, widths=(64, 40))
        masks = model.make_sample_masks([run_stream(4, MC_DROPOUT)], rows)
        keep = np.hstack(masks) > 0  # 104 units: at 0.5 a row reads part of its second word
        freq = keep.mean(axis=0)
        assert np.all(np.abs(freq - keep_p) < 5 * np.sqrt(keep_p * (1 - keep_p) / rows))
        centred = keep - freq
        spread = np.sqrt(freq * (1 - freq))
        corr = (centred[:, :-1] * centred[:, 1:]).mean(axis=0) / (spread[:-1] * spread[1:])
        assert np.all(np.abs(corr) < 5 / np.sqrt(rows))  # adjacent units


class TestMcDropout:
    def test_rows_of_one_call_equal_one_row_calls(self):
        model = TwoBranchMlp(small_spec(hidden_widths=(32, 16, 8), dropout_rate=0.4), seed=3)
        batched_rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
        batched = model.make_sample_masks([batched_rng], 25)
        loop = [model.make_sample_masks([loop_rng], 1) for _ in range(25)]
        for layer, masks in enumerate(batched):
            assert np.array_equal(masks, np.vstack([m[layer] for m in loop]))
        assert batched_rng.random() == loop_rng.random()  # same stream position

    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.5])
    def test_masks_hold_zero_or_the_inverted_scale(self, rate):
        model = TwoBranchMlp(small_spec(hidden_widths=(32, 16, 8), dropout_rate=rate), seed=3)
        masks = model.make_sample_masks([np.random.default_rng(4)], 50)
        assert [m.shape for m in masks] == [(50, 32), (50, 16), (50, 8)]
        values = np.unique(np.concatenate([m.ravel() for m in masks]))
        scale = 1.0 / (1.0 - rate)
        assert values.tolist() == ([scale] if rate == 0 else [0.0, scale])

    def test_one_pass_matches_per_sample_passes(self):
        model = TwoBranchMlp(small_spec(dropout_rate=0.5), seed=3)
        x = np.random.default_rng(1).normal(0.5, 0.1, len(SCHEME))
        samples = predict_mc_dropout(model, x, n_samples=40, seed=11)[0]
        rng = run_stream(11, MC_DROPOUT, 0)
        reference = np.vstack([
            model.forward(x, model.make_sample_masks([rng], 1))[0] for _ in range(40)
        ]) / model.spec.target_scale
        assert np.allclose(samples, reference, rtol=1e-12, atol=0.0)

    def test_grouped_rows_equal_one_row_calls(self):
        model = TwoBranchMlp(small_spec(dropout_rate=0.5), seed=3)
        x = np.random.default_rng(2).normal(0.5, 0.1, (7, len(SCHEME)))
        grouped = predict_mc_dropout(model, x, n_samples=25, seed=50)
        assert grouped.shape == (7, 25, 6)
        for v in range(7):
            one = predict_mc_dropout(model, x[v], n_samples=25, seed=50, voxels=[v])[0]
            assert np.array_equal(grouped[v], one)

    def test_voxels_must_hold_one_index_per_row(self):
        model = TwoBranchMlp(small_spec(dropout_rate=0.5), seed=3)
        x = np.random.default_rng(2).normal(0.5, 0.1, (2, len(SCHEME)))
        with pytest.raises(ValueError, match="^voxels holds 3 indices for 2 rows$"):
            predict_mc_dropout(model, x, n_samples=5, seed=1, voxels=[5, 6, 7])

    def test_zero_rate_gives_identical_samples(self):
        model = TwoBranchMlp(small_spec(dropout_rate=0.0), seed=3)
        x = np.random.default_rng(1).normal(0.5, 0.1, len(SCHEME))
        samples = predict_mc_dropout(model, x, n_samples=20, seed=0)
        assert samples.shape == (1, 20, 6)
        assert np.all(samples == samples[0, 0])
        assert summarize_uncertainty(samples)[0, 1] < 1e-12  # sigma_fa

    def test_same_seed_identical_sample_set(self):
        model = TwoBranchMlp(small_spec(dropout_rate=0.5), seed=3)
        x = np.random.default_rng(1).normal(0.5, 0.1, len(SCHEME))
        a = predict_mc_dropout(model, x, n_samples=30, seed=11)
        b = predict_mc_dropout(model, x, n_samples=30, seed=11)
        assert np.array_equal(a, b)
        c = predict_mc_dropout(model, x, n_samples=30, seed=12)
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
            samples = predict_mc_dropout(model, x[:40], n_samples=50, seed=700)
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
        expected = np.array([
            row / np.exp(fit_ols_batch(log_signal_rows(row, scheme), scheme)[0][0, 6])
            for row in signals
        ])
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
        assert np.array_equal(loaded.flat, model.flat)
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
        weights = model.flat.astype("<f8").tobytes()
        expected = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + weights
        assert path.read_bytes() == expected
        assert header["n_parameters"] == model.flat.size and header["epoch"] == 2

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
