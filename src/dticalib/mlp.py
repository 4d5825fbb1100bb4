"""Per-voxel two-branch MLP: tensor regression with a learned,
input-dependent uncertainty scalar.

The main branch maps a normalized signal vector to the 6 tensor elements and
carries dropout on its hidden layers (inverted scaling, so masks can stay
active at inference for Monte-Carlo sampling). The uncertainty branch shares
the input but has no dropout, so its output u depends on the signal alone.

Training minimizes the attenuated loss
    sum_j |pred_j - truth_j| * exp(-u) + penalty * u
averaged over the batch, by plain minibatch Adam with handwritten
backpropagation. Everything is float64 numpy; no framework.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .bootstrap import TensorSampleSet
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
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


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
        if self.penalty <= 0:
            raise ValueError("penalty must be positive")


def loss_attenuated(pred, truth, u: float, penalty: float) -> float:
    """Attenuated L1 loss for one voxel (clamped u)."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(truth)) and np.isfinite(u)):
        raise ValueError("non-finite input")
    u = float(np.clip(u, U_MIN, U_MAX))
    return float(np.sum(np.abs(pred - truth)) * np.exp(-u) + penalty * u)


class TwoBranchMlp:
    """Weights plus forward/backward passes; see module docstring."""

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
        """Both branches; returns (pred (B,6), u (B,), cache for backward).

        masks=None runs the main branch deterministically (no dropout).
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        keep = 1.0 - self.spec.dropout_rate
        cache = {"x": x, "main_in": [], "main_z": [], "masks": masks}
        h = x
        n_hidden = len(self.spec.hidden_widths)
        for i in range(n_hidden):
            cache["main_in"].append(h)
            z = h @ self.main_w[i] + self.main_b[i]
            cache["main_z"].append(z)
            h = np.maximum(z, 0.0)
            if masks is not None:
                h = h * masks[i] / keep
        cache["main_in"].append(h)
        pred = h @ self.main_w[-1] + self.main_b[-1]

        g = x
        cache["unc_in"], cache["unc_z"] = [], []
        for i in range(len(self.spec.uncertainty_widths)):
            cache["unc_in"].append(g)
            z = g @ self.unc_w[i] + self.unc_b[i]
            cache["unc_z"].append(z)
            g = np.maximum(z, 0.0)
        cache["unc_in"].append(g)
        u_raw = (g @ self.unc_w[-1] + self.unc_b[-1])[:, 0]
        cache["u_raw"] = u_raw
        u = np.clip(u_raw, U_MIN, U_MAX)
        return pred, u, cache

    def predict(self, x: np.ndarray):
        """Deterministic pass: (pred_elements at physical scale, u)."""
        pred, u, _ = self.forward(x, masks=None)
        return pred / self.spec.target_scale, u

    def backward(self, cache, d_pred: np.ndarray, d_u: np.ndarray):
        """Gradients of all parameters given dLoss/dpred and dLoss/du."""
        keep = 1.0 - self.spec.dropout_rate
        masks = cache["masks"]
        grads_w = [None] * len(self.main_w)
        grads_b = [None] * len(self.main_b)
        h_last = cache["main_in"][-1]
        grads_w[-1] = h_last.T @ d_pred
        grads_b[-1] = d_pred.sum(axis=0)
        dh = d_pred @ self.main_w[-1].T
        for i in reversed(range(len(self.spec.hidden_widths))):
            if masks is not None:
                dh = dh * masks[i] / keep
            dz = dh * (cache["main_z"][i] > 0)
            grads_w[i] = cache["main_in"][i].T @ dz
            grads_b[i] = dz.sum(axis=0)
            dh = dz @ self.main_w[i].T

        # clamp gate: zero gradient where u_raw left the clamp window
        gate = (cache["u_raw"] > U_MIN) & (cache["u_raw"] < U_MAX)
        du = (d_u * gate)[:, None]
        ugrads_w = [None] * len(self.unc_w)
        ugrads_b = [None] * len(self.unc_b)
        g_last = cache["unc_in"][-1]
        ugrads_w[-1] = g_last.T @ du
        ugrads_b[-1] = du.sum(axis=0)
        dg = du @ self.unc_w[-1].T
        for i in reversed(range(len(self.spec.uncertainty_widths))):
            dz = dg * (cache["unc_z"][i] > 0)
            ugrads_w[i] = cache["unc_in"][i].T @ dz
            ugrads_b[i] = dz.sum(axis=0)
            dg = dz @ self.unc_w[i].T

        out = []
        for w, b in zip(grads_w, grads_b):
            out.extend([w, b])
        for w, b in zip(ugrads_w, ugrads_b):
            out.extend([w, b])
        return out


def batch_loss_and_grads(model: TwoBranchMlp, x, targets, penalty: float, masks=None):
    """Mean attenuated loss over a batch, with parameter gradients.

    Targets are expected at the model's internal (scaled) units.
    """
    x = np.atleast_2d(x)
    targets = np.atleast_2d(targets)
    batch = x.shape[0]
    pred, u, cache = model.forward(x, masks)
    diff = pred - targets
    resid = np.abs(diff).sum(axis=1)
    attenuation = np.exp(-u)
    loss = float(np.mean(resid * attenuation + penalty * u))
    d_pred = np.sign(diff) * attenuation[:, None] / batch
    d_u = (-resid * attenuation + penalty) / batch
    grads = model.backward(cache, d_pred, d_u)
    return loss, grads


def batch_loss(model: TwoBranchMlp, x, targets, penalty: float, masks=None) -> float:
    x = np.atleast_2d(x)
    targets = np.atleast_2d(targets)
    pred, u, _ = model.forward(x, masks)
    resid = np.abs(pred - targets).sum(axis=1)
    return float(np.mean(resid * np.exp(-u) + penalty * u))


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


def predict_mc_dropout(model: TwoBranchMlp, x, n_samples: int = 100, seed: int = 0):
    """Stochastic forward passes with fresh dropout masks for one voxel.

    The n_samples passes run as one forward over n_samples copies of x.
    Returns (TensorSampleSet of n_samples replicate tensors at physical
    scale, u) where u comes from a single deterministic pass of the
    uncertainty branch.
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    masks = model.make_sample_masks(rng_from_key(seed), n_samples)
    pred, _, _ = model.forward(np.repeat(x, n_samples, axis=0), masks)
    _, u = model.predict(x)
    return TensorSampleSet(pred / model.spec.target_scale, "mc_dropout"), float(u[0])


# ---------------------------------------------------------------------------
# checkpoint format: one-line JSON header, then float64 little-endian weight
# blocks in parameter declaration order
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: TwoBranchMlp, cfg: TrainConfig = None, epoch: int = 0):
    header = {
        "version": CHECKPOINT_VERSION,
        "kind": "mlp_checkpoint",
        "spec": asdict(model.spec),
        "config": asdict(cfg) if cfg is not None else None,
        "epoch": epoch,
        "seed": model.seed,
        "n_parameters": model.n_parameters(),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for p in model.parameters():
            f.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[TwoBranchMlp, dict]:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        if header.get("kind") != "mlp_checkpoint":
            raise ValueError("not a model checkpoint")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header.get('version')}")
        spec_d = dict(header["spec"])
        spec_d["hidden_widths"] = tuple(spec_d["hidden_widths"])
        spec_d["uncertainty_widths"] = tuple(spec_d["uncertainty_widths"])
        spec = MlpSpec(**spec_d)
        model = TwoBranchMlp(spec, seed=header.get("seed", 0))
        flat = np.frombuffer(
            f.read(8 * header["n_parameters"]), dtype="<f8"
        ).astype(np.float64)
        if flat.size != header["n_parameters"]:
            raise ValueError("checkpoint truncated")
        model.set_flat(flat)
    return model, header
