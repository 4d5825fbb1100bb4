"""Per-voxel two-branch MLP: tensor regression with a learned,
input-dependent uncertainty scalar.

The regression branch maps a normalized signal vector to the 6 tensor
elements and carries dropout on its hidden layers (inverted scaling, so
masks can stay active at inference for Monte-Carlo sampling). The
uncertainty branch shares the input but has no dropout, so its output u
depends on the signal alone and comes from one deterministic pass. One
ReLU-stack kernel, _stack_forward with _stack_backward, serves both
branches; MC dropout samples only the regression branch.

Training minimizes the attenuated loss
    sum_j |pred_j - truth_j| * exp(-u) + penalty * u
averaged over the batch, by plain minibatch Adam with handwritten
backpropagation. Everything is float64 numpy; no framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import dataio
from .fitting import as_signal_rows, fit_ols_batch
from .tensor import GradientScheme
from .rng import rng_from_key

U_MIN, U_MAX = -15.0, 15.0  # the loss is unbounded below as residuals -> 0


@dataclass
class MlpSpec:
    input_dim: int
    hidden_widths: tuple = (64, 64, 64)
    uncertainty_widths: tuple = (32, 32)
    dropout_rate: float = 0.5
    target_scale: float = 1000.0  # tensor elements are ~1e-3 mm^2/s; train near unit scale

    def __post_init__(self):
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
    """Weights of both branches and their passes; see module docstring."""

    def __init__(self, spec: MlpSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed
        rng = rng_from_key(seed)
        self.main_w, self.main_b = self._init_branch(
            rng, spec.input_dim, spec.hidden_widths, 6
        )
        self.unc_w, self.unc_b = self._init_branch(
            rng, spec.input_dim, spec.uncertainty_widths, 1
        )

    @staticmethod
    def _init_branch(rng, input_dim, widths, out_dim):
        dims = [input_dim, *widths, out_dim]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return weights, biases

    # parameter declaration order: main W0,b0,...,Wk,bk then uncertainty branch
    def parameters(self):
        out = []
        for w, b in zip(self.main_w, self.main_b):
            out.extend([w, b])
        for w, b in zip(self.unc_w, self.unc_b):
            out.extend([w, b])
        return out

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, flat: np.ndarray):
        offset = 0
        for p in self.parameters():
            p[...] = flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    def make_dropout_masks(self, rng, batch: int):
        """Keep masks for the main-branch hidden layers, one per layer."""
        rate = self.spec.dropout_rate
        if rate == 0.0:
            return [np.ones((batch, w)) for w in self.spec.hidden_widths]
        return [
            (rng.random((batch, w)) >= rate).astype(np.float64)
            for w in self.spec.hidden_widths
        ]

    def make_sample_masks(self, rng, n_samples: int):
        """Keep masks for n_samples one-row passes, drawn in one call.

        The draw is sample-major, so the masks equal those of n_samples
        successive make_dropout_masks(rng, 1) calls, bit for bit.
        """
        widths = self.spec.hidden_widths
        keep = rng.random((n_samples, sum(widths))) >= self.spec.dropout_rate
        return np.split(keep.astype(np.float64), np.cumsum(widths)[:-1], axis=1)

    def forward(self, x: np.ndarray, masks=None):
        """Dropout branch: (pred (B, 6) at internal scale, trace).

        masks=None runs it deterministically (no dropout).
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return _stack_forward(self.main_w, self.main_b, x, masks, 1.0 - self.spec.dropout_rate)

    def uncertainty(self, x: np.ndarray):
        """Deterministic branch: (u (B,) clamped to [U_MIN, U_MAX], trace)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        u_raw, trace = _stack_forward(self.unc_w, self.unc_b, x)
        return np.clip(u_raw[:, 0], U_MIN, U_MAX), trace

    def predict(self, x: np.ndarray):
        """Deterministic pass of both branches: (pred_elements at physical scale, u)."""
        pred, _ = self.forward(x)
        return pred / self.spec.target_scale, self.uncertainty(x)[0]


def _stack_forward(weights, biases, x, masks=None, keep=1.0):
    """ReLU hidden layers, then a linear output layer; returns (out, trace).

    trace lists each layer's input, x first. masks, one keep mask per hidden
    layer, drop units after the ReLU with inverted scaling 1 / keep.
    """
    trace = [x]
    for i, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
        h = np.maximum(trace[-1] @ w + b, 0.0)
        if masks is not None:
            h = h * masks[i] / keep
        trace.append(h)
    return trace[-1] @ weights[-1] + biases[-1], trace


def _stack_backward(weights, trace, d_out, masks=None, keep=1.0):
    """Gradients [W0, b0, ..., Wk, bk] of a _stack_forward pass given dLoss/d(out)."""
    grads = [d_out.sum(axis=0), trace[-1].T @ d_out]  # last layer first, b before W
    d = d_out
    for i in reversed(range(len(weights) - 1)):
        d = d @ weights[i + 1].T
        if masks is not None:
            d = d * masks[i] / keep
        # the ReLU passes gradient where its output is positive; a dropped
        # unit's gradient is already zero
        d = d * (trace[i + 1] > 0)
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
    """Mean attenuated loss over a batch, with parameter gradients.

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
    grads = _stack_backward(model.main_w, trace, d_pred, masks, 1.0 - model.spec.dropout_rate)
    return float(np.mean(losses)), grads + _stack_backward(model.unc_w, u_trace, d_u[:, None])


def batch_loss(model: TwoBranchMlp, x, targets, penalty: float, masks=None) -> float:
    x = np.atleast_2d(x)
    pred, _ = model.forward(x, masks)
    u, _ = model.uncertainty(x)
    return float(np.mean(attenuated_loss(pred, np.atleast_2d(targets), u, penalty)[0]))


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
        base = np.exp(fit_ols_batch(as_signal_rows(signals, scheme), scheme)[0][:, 6])
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
    all derive from one stream. Validation is evaluated every
    cfg.eval_every epochs; a non-improving evaluation halves the learning
    rate, and cfg.stop_patience consecutive ones stop training.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(target_elements, dtype=np.float64) * spec.target_scale
    if inputs.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets disagree on voxel count")
    model = TwoBranchMlp(spec, seed=cfg.seed)
    rng = rng_from_key(cfg.seed, 1)

    n = inputs.shape[0]
    order = rng.permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if not len(train_idx):
        raise ValueError(f"val_fraction {cfg.val_fraction} leaves no training rows of {n}")
    x_val, y_val = inputs[val_idx], targets[val_idx]
    x_tr, y_tr = inputs[train_idx], targets[train_idx]

    params = model.parameters()
    m1 = [np.zeros_like(p) for p in params]
    m2 = [np.zeros_like(p) for p in params]
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
            masks = model.make_dropout_masks(rng, len(idx))
            loss, grads = batch_loss_and_grads(
                model, x_tr[idx], y_tr[idx], cfg.penalty, masks
            )
            if not np.isfinite(loss):
                raise DivergenceError(f"divergence at epoch {epoch}")
            step += 1
            for p, g, a, b in zip(params, grads, m1, m2):
                a *= beta1
                a += (1 - beta1) * g
                b *= beta2
                b += (1 - beta2) * g * g
                a_hat = a / (1 - beta1**step)
                b_hat = b / (1 - beta2**step)
                p -= lr * a_hat / (np.sqrt(b_hat) + eps)
            epoch_losses.append(loss)
        history.train_loss.append(float(np.mean(epoch_losses)))

        last_epoch = epoch == cfg.epochs - 1
        if len(x_val) and ((epoch + 1) % cfg.eval_every == 0 or last_epoch):
            val = batch_loss(model, x_val, y_val, cfg.penalty)
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


def predict_mc_dropout(model: TwoBranchMlp, inputs, n_samples: int = 100, *, seeds):
    """Stochastic forward passes with fresh dropout masks, n_samples per row.

    Row v of the (n, m) inputs draws its masks with
    make_sample_masks(rng_from_key(seeds[v]), n_samples); all rows run as
    one forward over n_samples copies of each. Returns the (n, n_samples, 6)
    replicate tensors at physical scale (Gal & Ghahramani 2016, dropout as
    a Bayesian approximation).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if len(seeds) != len(inputs):
        raise ValueError("need one seed per voxel")
    draws = (model.make_sample_masks(rng_from_key(int(s)), n_samples) for s in seeds)
    masks = [np.concatenate(layer) for layer in zip(*draws)]  # per-row masks freed here
    pred, _ = model.forward(np.repeat(inputs, n_samples, axis=0), masks)
    return (pred / model.spec.target_scale).reshape(len(inputs), n_samples, 6)


# checkpoint format: dataio's one-line JSON header, then one float64 block
# of all weights in parameter declaration order


def save_checkpoint(path, model: TwoBranchMlp, cfg: TrainConfig = None, epoch: int = 0):
    header = {
        "spec": asdict(model.spec),
        "config": asdict(cfg) if cfg is not None else None,
        "epoch": epoch,
        "seed": model.seed,
        "n_parameters": model.n_parameters(),
    }
    dataio.write_header_blocks(path, "mlp_checkpoint", header, model.parameters())


def load_checkpoint(path) -> tuple[TwoBranchMlp, dict]:
    header, (flat,) = dataio.read_header_blocks(
        path, "mlp_checkpoint", lambda header: [(header["n_parameters"],)]
    )
    model = TwoBranchMlp(MlpSpec(**header["spec"]), seed=header.get("seed", 0))
    model.set_flat(flat)
    return model, header
