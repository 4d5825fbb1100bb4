"""Per-voxel two-branch MLP: tensor regression with a learned,
input-dependent uncertainty scalar.

The regression branch maps a normalized signal vector to the 6 tensor
elements and carries inverted dropout on its hidden layers: each mask holds
0 for a dropped unit and 1 / (1 - rate) for a kept one, so masks can stay
active at inference for Monte-Carlo sampling. The
uncertainty branch shares the input but has no dropout, so its output u
depends on the signal alone and comes from one deterministic pass. One
ReLU-stack kernel, _stack_forward with _stack_backward, serves both
branches; MC dropout samples only the regression branch.

Every weight and bias of both branches is a view into one float64 vector,
model.flat. Gradients come laid out the same way, Adam updates model.flat
as a whole, and a checkpoint's one block is model.flat.

Training minimizes the attenuated loss
    sum_j |pred_j - truth_j| * exp(-u) + penalty * u
averaged over the batch, by plain minibatch Adam with handwritten
backpropagation. Everything is float64 numpy; no framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import dataio
from .fitting import fit_ols_batch, log_signal_rows
from .tensor import GradientScheme
from .rng import MC_DROPOUT, MLP_INIT, MLP_TRAIN, run_stream

U_MIN, U_MAX = -15.0, 15.0  # the loss is unbounded below as residuals -> 0


@dataclass
class MlpSpec:
    input_dim: int
    hidden_widths: tuple = (64, 64, 64)
    uncertainty_widths: tuple = (32, 32)
    dropout_rate: float = 0.5
    target_scale: float = 1000.0  # tensor elements are ~1e-3 mm^2/s; train near unit scale

    def __post_init__(self):
        if not self.input_dim >= 1:
            raise ValueError(f"input_dim must be positive, not {self.input_dim}")
        if not 0 < self.target_scale < np.inf:  # NaN fails too
            raise ValueError(f"target_scale must be positive and finite, not {self.target_scale}")
        self.hidden_widths = tuple(int(w) for w in self.hidden_widths)
        self.uncertainty_widths = tuple(int(w) for w in self.uncertainty_widths)
        for name in ("hidden_widths", "uncertainty_widths"):
            if min(getattr(self, name), default=1) < 1:
                raise ValueError(f"{name} must be positive, not {getattr(self, name)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), not {self.dropout_rate}")


@dataclass
class TrainConfig:
    penalty: float = 1.0  # weight on u in the attenuated loss
    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 100
    seed: int = 0
    val_fraction: float = 0.15
    eval_every: int = 10  # epochs between validation evaluations
    stop_patience: int = 2  # consecutive non-improving evaluations

    def __post_init__(self):
        for name in ("penalty", "learning_rate", "batch_size", "epochs", "eval_every",
                     "stop_patience"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, not {getattr(self, name)}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), not {self.val_fraction}")


class TwoBranchMlp:
    """Weights of both branches, each a view into flat, and their passes.

    flat holds main W0, b0, ..., Wk, bk, then the uncertainty branch alike.
    """

    def __init__(self, spec: MlpSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed
        layers = [
            (fan_in, fan_out)
            for dims in ([spec.input_dim, *spec.hidden_widths, 6],
                         [spec.input_dim, *spec.uncertainty_widths, 1])
            for fan_in, fan_out in zip(dims[:-1], dims[1:])
        ]
        self.flat = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in layers))
        rng = run_stream(seed, MLP_INIT)
        weights, biases, offset = [], [], 0
        for fan_in, fan_out in layers:
            w = self.flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
            bound = 1.0 / np.sqrt(fan_in)
            w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            offset += fan_in * fan_out
            weights.append(w)
            biases.append(self.flat[offset : offset + fan_out])  # starts at zero
            offset += fan_out
        main = len(spec.hidden_widths) + 1
        self.main_w, self.unc_w = weights[:main], weights[main:]
        self.main_b, self.unc_b = biases[:main], biases[main:]

    def make_sample_masks(self, streams, rows: int):
        """Inverted-dropout masks for the main-branch hidden layers, one
        contiguous (rows, width) mask per layer: 0 for a dropped unit,
        1 / (1 - dropout_rate) for a kept one.

        streams is a sequence of generators that each draw `rows` rows,
        stacked in order. A row takes whole raw 64-bit words of its
        generator's bit stream. At rate 0 or 0.5 a keep decision is one bit:
        unit j reads bit j of the row's words, counted from the low end of the
        first, and is kept when that bit is >= 2 * rate, so 192 units take 3
        words. At any other rate a unit reads one word and is kept when
        (raw >> 11) >= ceil(rate * 2**53), which is random() >= rate, as
        random() draws (raw >> 11) * 2**-53: the masks and the stream position
        are those of rng.random((rows, units)) >= dropout_rate. So a unit is
        kept with probability 1 - ceil(rate * 2**53) / 2**53: exactly
        1 - dropout_rate where rate * 2**53 is an integer (0, 0.25, 0.5, 0.7),
        less by under 2**-53 elsewhere (8.3e-17 at 0.1, 5.6e-17 at 0.3). The
        draw is row-major: row i of each mask equals the masks of the i-th of
        `rows` successive make_sample_masks([rng], 1) calls, bit for bit.
        """
        widths, rate = self.spec.hidden_widths, self.spec.dropout_rate
        units, one_bit = sum(widths), (2 * rate).is_integer()
        per_row = -(-units // 64) if one_bit else units  # whole words per row
        words = np.concatenate([s.bit_generator.random_raw(rows * per_row) for s in streams])
        words = words.reshape(-1, per_row)
        if one_bit:
            bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1,
                                 bitorder="little")
            keep = bits[:, :units] >= math.ceil(2 * rate)
        else:
            keep = (words >> 11) >= math.ceil(rate * 2.0**53)
        edges = np.cumsum((0, *widths))
        return [keep[:, a:b] / (1.0 - rate) for a, b in zip(edges[:-1], edges[1:])]

    def forward(self, x: np.ndarray, masks=None):
        """Dropout branch: (pred (B, 6) at internal scale, trace).

        masks=None runs it deterministically (no dropout).
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return _stack_forward(self.main_w, self.main_b, x, masks)

    def uncertainty(self, x: np.ndarray):
        """Deterministic branch: (u (B,) clamped to [U_MIN, U_MAX], trace)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        u_raw, trace = _stack_forward(self.unc_w, self.unc_b, x)
        return np.clip(u_raw[:, 0], U_MIN, U_MAX), trace

    def predict(self, x: np.ndarray):
        """Deterministic pass of both branches: (pred_elements at physical scale, u)."""
        pred, _ = self.forward(x)
        return pred / self.spec.target_scale, self.uncertainty(x)[0]


def _stack_forward(weights, biases, x, masks=None):
    """ReLU hidden layers, then a linear output layer; returns (out, trace).

    trace lists each layer's input, x first. masks, one make_sample_masks
    mask per hidden layer, multiply the units after the ReLU. Each layer's
    product is the one buffer its bias, ReLU and mask update in place.
    """
    trace = [x]
    for i, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
        h = trace[-1] @ w
        h += b
        np.maximum(h, 0.0, out=h)
        if masks is not None:
            h *= masks[i]
        trace.append(h)
    out = trace[-1] @ weights[-1]
    out += biases[-1]
    return out, trace


def _stack_backward(weights, trace, d_out, masks=None):
    """Gradients [W0, b0, ..., Wk, bk] of a _stack_forward pass given dLoss/d(out)."""
    grads = [d_out.sum(axis=0), trace[-1].T @ d_out]  # last layer first, b before W
    d = d_out
    for i in reversed(range(len(weights) - 1)):
        d = d @ weights[i + 1].T  # a fresh buffer, so d_out is never written
        if masks is not None:
            d *= masks[i]
        # the ReLU passes gradient where its output is positive; a dropped
        # unit's gradient is already zero
        d *= trace[i + 1] > 0
        grads += [d.sum(axis=0), trace[i].T @ d]
    return grads[::-1]


def attenuated_loss(pred, targets, u, penalty: float):
    """Row-wise attenuated L1 loss sum_j |pred_j - target_j| * exp(-u) + penalty * u.

    pred and targets are (B, 6), u the (B,) clamped uncertainty output. Returns
    the (B,) losses, plus pred - targets, the row L1 residuals and exp(-u)
    for the gradient.
    """
    diff = pred - targets
    resid = np.abs(diff).sum(axis=1)
    attenuation = np.exp(-u)
    return resid * attenuation + penalty * u, diff, resid, attenuation


def batch_loss_and_grads(model: TwoBranchMlp, x, targets, penalty: float, masks=None):
    """Mean attenuated loss over a batch, with its gradient laid out as model.flat.

    Targets are expected at the model's internal (scaled) units.
    """
    x = np.atleast_2d(x)
    batch = x.shape[0]
    pred, trace = model.forward(x, masks)
    u, u_trace = model.uncertainty(x)
    losses, diff, resid, attenuation = attenuated_loss(pred, np.atleast_2d(targets), u, penalty)
    d_pred = np.sign(diff) * attenuation[:, None] / batch
    d_u = (-resid * attenuation + penalty) / batch
    d_u = d_u * ((u > U_MIN) & (u < U_MAX))  # no gradient where the clamp holds u
    grads = _stack_backward(model.main_w, trace, d_pred, masks)
    grads += _stack_backward(model.unc_w, u_trace, d_u[:, None])
    return float(np.mean(losses)), np.concatenate([g.ravel() for g in grads])


def normalize_signals(signals, scheme: GradientScheme) -> np.ndarray:
    """Divide each voxel's signals by its baseline.

    The baseline is the mean of the b=0 measurements when present,
    otherwise exp(ln S0) of a quick OLS fit.
    """
    signals = np.atleast_2d(np.asarray(signals, dtype=np.float64))
    b0 = scheme.bvalues == 0
    if np.any(b0):
        base = signals[:, b0].mean(axis=1)
    else:
        base = np.exp(fit_ols_batch(log_signal_rows(signals, scheme), scheme)[0][:, 6])
    return signals / np.maximum(base, 1e-12)[:, None]


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)  # (epoch, loss) pairs
    lr_steps: list = field(default_factory=list)
    stopped_epoch: int = 0


class DivergenceError(RuntimeError):
    pass


def train(
    inputs: np.ndarray,
    target_elements: np.ndarray,
    spec: MlpSpec,
    cfg: TrainConfig,
) -> tuple[TwoBranchMlp, TrainHistory]:
    """Train on normalized inputs (n, m) and physical-scale targets (n, 6).

    Deterministic under cfg.seed: the split, shuffling, and dropout masks
    all derive from run_stream(cfg.seed, MLP_TRAIN). Validation is
    evaluated every cfg.eval_every epochs; a non-improving evaluation
    halves the learning rate, and cfg.stop_patience consecutive ones stop
    training.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(target_elements, dtype=np.float64) * spec.target_scale
    if inputs.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets disagree on voxel count")
    model = TwoBranchMlp(spec, seed=cfg.seed)
    rng = run_stream(cfg.seed, MLP_TRAIN)

    n = inputs.shape[0]
    order = rng.permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if not len(train_idx):
        raise ValueError(f"val_fraction {cfg.val_fraction} leaves no training rows of {n}")
    x_val, y_val = inputs[val_idx], targets[val_idx]
    x_tr, y_tr = inputs[train_idx], targets[train_idx]

    m1 = np.zeros_like(model.flat)
    m2 = np.zeros_like(model.flat)
    tmp, update = np.empty_like(model.flat), np.empty_like(model.flat)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = cfg.learning_rate
    step = 0

    history = TrainHistory()
    best_val = np.inf
    bad_evals = 0

    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(x_tr))
        epoch_losses = []
        for start in range(0, len(x_tr), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            masks = model.make_sample_masks([rng], len(idx))
            loss, grad = batch_loss_and_grads(
                model, x_tr[idx], y_tr[idx], cfg.penalty, masks
            )
            if not np.isfinite(loss):
                raise DivergenceError(f"divergence at epoch {epoch}")
            step += 1
            # Adam's expressions, each operation in its order, in two buffers
            m1 *= beta1
            m1 += np.multiply(1 - beta1, grad, out=tmp)
            m2 *= beta2
            np.multiply(1 - beta2, grad, out=tmp)
            tmp *= grad
            m2 += tmp
            denom = np.sqrt(np.divide(m2, 1 - beta2**step, out=tmp), out=tmp)
            denom += eps  # sqrt(m2_hat) + eps
            np.divide(m1, 1 - beta1**step, out=update)  # m1_hat
            update *= lr
            update /= denom  # lr * m1_hat / (sqrt(m2_hat) + eps)
            model.flat -= update
            epoch_losses.append(loss)
        history.train_loss.append(float(np.mean(epoch_losses)))

        last_epoch = epoch == cfg.epochs - 1
        if len(x_val) and ((epoch + 1) % cfg.eval_every == 0 or last_epoch):
            val = batch_loss_and_grads(model, x_val, y_val, cfg.penalty)[0]
            history.val_loss.append((epoch, val))
            if val < best_val - 1e-12:
                best_val = val
                bad_evals = 0
            else:
                bad_evals += 1
                lr *= 0.5
                history.lr_steps.append((epoch, lr))
                if bad_evals >= cfg.stop_patience:
                    history.stopped_epoch = epoch
                    break
    else:
        history.stopped_epoch = cfg.epochs - 1
    return model, history


def predict_mc_dropout(model: TwoBranchMlp, inputs, n_samples: int = 100, *, seed, voxels=None):
    """Stochastic forward passes with fresh dropout masks, n_samples per row.

    Row i of the (n, m) inputs holds voxel voxels[i] of run `seed` (voxels
    0..n-1 by default), whose masks are make_sample_masks(run_stream(seed,
    MC_DROPOUT, voxels[i]), n_samples). One make_sample_masks call takes every
    row's stream, stacks their raw words and turns them into masks at once;
    all rows then run as one forward over n_samples copies of each. A row's
    samples do not depend on the other rows of the call: on the BLAS builds
    tested they are bit for bit those of the row called alone, as the tests
    check. Returns the (n, n_samples, 6) replicate tensors at physical scale
    (Gal & Ghahramani 2016, dropout as a Bayesian approximation).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    voxels = range(len(inputs)) if voxels is None else voxels
    if len(voxels) != len(inputs):
        raise ValueError(f"voxels holds {len(voxels)} indices for {len(inputs)} rows")
    masks = model.make_sample_masks([run_stream(seed, MC_DROPOUT, v) for v in voxels], n_samples)
    pred, _ = model.forward(np.repeat(inputs, n_samples, axis=0), masks)
    return (pred / model.spec.target_scale).reshape(len(inputs), n_samples, 6)


# checkpoint format: dataio's one-line JSON header, then one float64 block,
# model.flat


def save_checkpoint(path, model: TwoBranchMlp, cfg: TrainConfig = None, epoch: int = 0):
    header = {
        "spec": asdict(model.spec),
        "config": asdict(cfg) if cfg is not None else None,
        "epoch": epoch,
        "seed": model.seed,
        "n_parameters": model.flat.size,
    }
    dataio.write_header_blocks(path, "mlp_checkpoint", header, [model.flat])


def load_checkpoint(path) -> tuple[TwoBranchMlp, dict]:
    header, (flat,) = dataio.read_header_blocks(
        path, "mlp_checkpoint", lambda header: [(header["n_parameters"],)]
    )
    try:
        spec = MlpSpec(**header["spec"])
    except (TypeError, ValueError) as exc:  # an unknown or missing key, or a bad value
        raise dataio.DataFormatError(f"{path}: mlp_checkpoint spec refused: {exc}") from exc
    model = TwoBranchMlp(spec, seed=header["seed"])
    if model.flat.size != header["n_parameters"]:
        raise dataio.DataFormatError(
            f"{path}: mlp_checkpoint header n_parameters = {header['n_parameters']}, "
            f"but its spec has {model.flat.size}"
        )
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise dataio.DataFormatError(
            f"{path}: mlp_checkpoint parameter {bad[0]} = {float(flat[bad[0]])!r} must be finite"
        )
    model.flat[...] = flat
    return model, header
