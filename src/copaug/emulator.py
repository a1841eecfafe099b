"""Feed-forward network emulator trained with Adam on Huber loss.

Plain-numpy multilayer perceptron: ELU hidden layers, linear output,
z-score input normalization, mini-batch Adam, early stopping on the
validation loss with best-weights restoration.  Everything is seeded and
deterministic: weight init and batch shuffling draw from the package's
Philox streams.

A model's weights and biases live in one flat float64 vector, layer by
layer (W0, b0, W1, b1, ...), and the per-layer arrays are reshaped views
of it; the gradient vector has the same layout, so one Adam step updates
every parameter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .dataset import DataMatrix, ProfileSet, SchemaError, check_artifact, json_numbers, read_json, write_lines

MLP_FORMAT_VERSION = 1


@dataclass(frozen=True)
class MLPLayout:
    n_inputs: int
    hidden: tuple = (512, 512, 512)
    n_outputs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(w < 1 for w in self.widths):
            raise ValueError(f"all layer widths must be >= 1, got {self.widths}")

    @property
    def widths(self) -> tuple:
        return (self.n_inputs, *self.hidden, self.n_outputs)


@dataclass(frozen=True)
class Normalizer:
    """Per-feature z-score transform fitted on training inputs."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def from_data(cls, x: np.ndarray) -> "Normalizer":
        x = np.asarray(x, dtype=float)
        std = np.maximum(x.std(axis=0), 1e-8)  # floor for constant features
        return cls(x.mean(axis=0), std)

    def apply(self, x: np.ndarray) -> np.ndarray:
        z = np.asarray(x, dtype=float) - self.mean
        z /= self.std  # in place: no second full-size temporary
        return z


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    patience: int = 25
    batch_size: int = 256
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    huber_delta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.patience, self.batch_size) < 1:
            raise ValueError("epochs, patience and batch_size must be positive")
        if self.patience > self.epochs:
            raise ValueError("patience must not exceed the epoch limit")
        if min(self.learning_rate, self.huber_delta, self.adam_eps) <= 0:
            raise ValueError("learning_rate, huber_delta and adam_eps must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")


@dataclass(frozen=True)
class MLPModel:
    layout: MLPLayout
    params: np.ndarray  # W0, b0, W1, b1, ... flattened; weights and biases are views of it
    normalizer: Normalizer
    history: dict = field(default_factory=lambda: {"train": [], "val": []})
    best_epoch: int = -1
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "params", np.ascontiguousarray(self.params, dtype=np.float64))
        weights, biases = _param_views(self.layout, self.params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)


def init_mlp(layout: MLPLayout, seed: int) -> MLPModel:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    gen = rng.stream(seed)
    widths = layout.widths
    params = np.zeros(sum(a * b + b for a, b in zip(widths[:-1], widths[1:])))
    for w in _param_views(layout, params)[0]:
        w[...] = (2.0 * gen.random(w.shape) - 1.0) * (1.0 / np.sqrt(w.shape[0]))
    return MLPModel(layout, params, Normalizer(np.zeros(widths[0]), np.ones(widths[0])))


def _param_views(layout: MLPLayout, flat: np.ndarray):
    """Per-layer weight and bias views of a flat vector laid out W0, b0, W1, b1, ..."""
    weights, biases = [], []
    widths = layout.widths
    pos = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        end = pos + fan_in * fan_out
        weights.append(flat[pos:end].reshape(fan_in, fan_out))
        biases.append(flat[end:end + fan_out])
        pos = end + fan_out
    if flat.shape != (pos,):
        raise ValueError(f"expected a vector of {pos} parameters, got shape {flat.shape}")
    return weights, biases


def _forward_cached(m: MLPModel, x_norm: np.ndarray):
    """Forward pass keeping min(z, 0) of each hidden layer for backprop."""
    neg, act = [], [x_norm]
    a = x_norm
    last = len(m.weights) - 1
    for k, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = a @ w
        z += b
        if k == last:
            a = z
        else:
            zneg = np.minimum(z, 0.0)
            a = np.expm1(zneg)
            np.maximum(a, z, out=a)  # exact ELU, as expm1(z) > z for z < 0; this order keeps -0.0
            neg.append(zneg)
        act.append(a)
    return neg, act


def forward(m: MLPModel, x) -> np.ndarray:
    """Normalized forward pass of an (n, n_inputs) batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != m.layout.n_inputs:
        raise ValueError(f"expected an (n, {m.layout.n_inputs}) matrix of input features, got {x.shape}")
    _, act = _forward_cached(m, m.normalizer.apply(x))
    return act[-1]


def _mean_huber(r: np.ndarray, delta: float) -> float:
    """Mean over all elements of the Huber penalty of the residual `r`."""
    ar = np.abs(r)
    return float(np.where(ar <= delta, 0.5 * r * r, delta * (ar - 0.5 * delta)).mean())


def huber_loss(pred, target, delta: float = TrainConfig.huber_delta) -> float:
    """Mean over all elements of the Huber penalty."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    return _mean_huber(pred - target, delta)


def loss_and_grads(m: MLPModel, x_norm: np.ndarray, y: np.ndarray, delta: float, out=None):
    """Huber loss and its analytic gradients w.r.t. every weight and bias.

    `x_norm` is the network's input, already normalized: `m.normalizer`
    is not applied here, so callers pass `m.normalizer.apply(x)`.  The
    gradients are written into `out`, a flat vector in the layout of
    `m.params` (allocated when None), and returned as per-layer
    views of it: (loss, grads_w, grads_b).
    """
    neg, act = _forward_cached(m, x_norm)
    r = act[-1]
    r -= y
    count = r.size
    loss = _mean_huber(r, delta)
    # dLoss/dpred: r inside the quadratic zone, delta*sign(r) outside.
    delta_k = np.clip(r, -delta, delta, out=r)
    delta_k /= count
    if out is None:
        out = np.empty_like(m.params)
    grads_w, grads_b = _param_views(m.layout, out)
    for k in range(len(m.weights) - 1, -1, -1):
        np.matmul(act[k].T, delta_k, out=grads_w[k])
        np.sum(delta_k, axis=0, out=grads_b[k])
        if k > 0:
            upstream = delta_k @ m.weights[k].T
            upstream *= np.exp(neg[k - 1], out=neg[k - 1])  # ELU'(z) = exp(min(z, 0))
            delta_k = upstream
    return loss, grads_w, grads_b


class AdamState:
    """First/second moment accumulators for one parameter vector."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = (np.empty_like(params), np.empty_like(params))
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray, cfg: TrainConfig):
        """params -= lr * (m / corr1) / (sqrt(v / corr2) + eps), in scratch buffers."""
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        mm, vv, (num, den) = self.m, self.v, self._scratch
        mm *= b1
        mm += np.multiply(grads, 1.0 - b1, out=num)
        vv *= b2
        np.multiply(grads, 1.0 - b2, out=num)
        num *= grads
        vv += num
        np.divide(vv, corr2, out=den)
        np.sqrt(den, out=den)
        den += cfg.adam_eps
        np.divide(mm, corr1, out=num)
        num *= cfg.learning_rate
        num /= den
        params -= num


def train(m: MLPModel, train_x, train_y, val_x, val_y, cfg: TrainConfig = TrainConfig()) -> MLPModel:
    """Mini-batch Adam with early stopping on validation Huber loss.

    Stops once the validation loss has not improved for `patience`
    consecutive epochs (or at the epoch limit) and returns a model
    carrying the weights of the best validation epoch.
    """
    tx = np.asarray(train_x, dtype=float)
    ty = np.asarray(train_y, dtype=float)
    vx = np.asarray(val_x, dtype=float)
    vy = np.asarray(val_y, dtype=float)
    if tx.shape[0] == 0 or vx.shape[0] == 0:
        raise ValueError("training and validation sets must be nonempty")
    if tx.shape[1] != m.layout.n_inputs or ty.shape[1] != m.layout.n_outputs:
        raise ValueError("data widths do not match the model layout")

    flat = m.params.copy()
    model = MLPModel(m.layout, flat, Normalizer.from_data(tx))  # views of flat, which Adam steps
    txn = model.normalizer.apply(tx)

    gen = rng.stream(cfg.seed)
    adam = AdamState(flat)
    grad = np.empty_like(flat)
    n = tx.shape[0]
    best_val = np.inf
    best_flat, best_epoch = flat, -1  # the last weights, should no epoch improve
    for epoch in range(cfg.epochs):
        order = rng.permutation(n, gen)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, _, _ = loss_and_grads(model, txn[idx], ty[idx], cfg.huber_delta, out=grad)
            if not math.isfinite(loss):
                raise ValueError(f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}")
            adam.step(flat, grad, cfg)
            epoch_loss += loss * idx.shape[0]
        val_loss = huber_loss(forward(model, vx), vy, cfg.huber_delta)
        model.history["train"].append(epoch_loss / n)
        model.history["val"].append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_flat, best_epoch = flat.copy(), epoch
        elif epoch - best_epoch >= cfg.patience:
            break
    return MLPModel(m.layout, best_flat, model.normalizer, model.history, best_epoch)


def predict_set(m: MLPModel, profiles: ProfileSet) -> DataMatrix:
    """Forward the set's input matrix; returns the flux matrix (n_half wide)."""
    if profiles.inputs.shape[1] != m.layout.n_inputs:
        raise ValueError(f"profile grid provides {profiles.inputs.shape[1]} features "
                         f"but the model expects {m.layout.n_inputs}")
    return DataMatrix(forward(m, profiles.inputs), tuple(profiles.grid.output_labels()))


# ---------------------------------------------------------------------------
# Model artifact (JSON, versioned).
# ---------------------------------------------------------------------------

def save_mlp(path, m: MLPModel) -> None:
    doc = {
        "version": MLP_FORMAT_VERSION,
        "layout": {"n_inputs": m.layout.n_inputs, "hidden": list(m.layout.hidden),
                   "n_outputs": m.layout.n_outputs},
        "normalizer": {"mean": m.normalizer.mean.tolist(), "std": m.normalizer.std.tolist()},
        "weights": [w.tolist() for w in m.weights],  # row-major per layer
        "biases": [b.tolist() for b in m.biases],
        "history": m.history,
        "best_epoch": m.best_epoch,
    }
    write_lines(path, [json.dumps(doc)])


def load_mlp(path) -> MLPModel:
    """Read a model artifact; a malformed one raises SchemaError naming the field."""
    doc = read_json(path)
    check_artifact(doc, MLP_FORMAT_VERSION,
                   "layout", "normalizer", "weights", "biases", "history", "best_epoch")
    try:
        lay = doc["layout"]
        if not all(type(w) is int for w in (lay["n_inputs"], *lay["hidden"], lay["n_outputs"])):
            raise TypeError
        layout = MLPLayout(lay["n_inputs"], tuple(lay["hidden"]), lay["n_outputs"])
    except (KeyError, TypeError, ValueError):
        raise SchemaError("layout: expected n_inputs, hidden and n_outputs as positive "
                          "integers") from None
    widths = layout.widths
    n_layers = len(widths) - 1
    for key in ("weights", "biases"):
        if not isinstance(doc[key], list) or len(doc[key]) != n_layers:
            raise SchemaError(f"{key}: expected a list of {n_layers} layers")
    weights = [json_numbers(w, f"weights[{k}]", (widths[k], widths[k + 1]))
               for k, w in enumerate(doc["weights"])]
    biases = [json_numbers(b, f"biases[{k}]", (widths[k + 1],))
              for k, b in enumerate(doc["biases"])]
    norm = doc["normalizer"]
    if not isinstance(norm, dict) or not {"mean", "std"} <= norm.keys():
        raise SchemaError("normalizer: expected mean and std")
    mean = json_numbers(norm["mean"], "normalizer.mean", (layout.n_inputs,))
    std = json_numbers(norm["std"], "normalizer.std", (layout.n_inputs,))
    if not np.all(std > 0.0):
        raise SchemaError("normalizer.std: values must be positive")
    history, best = doc["history"], doc["best_epoch"]
    if not (isinstance(history, dict) and all(type(history.get(key)) is list for key in ("train", "val"))
            and len(history["train"]) == len(history["val"])):
        raise SchemaError("history: expected an object with train and val lists of equal length")
    for key in ("train", "val"):
        json_numbers(history[key], f"history.{key}", (len(history[key]),))
    if not (type(best) is int and -1 <= best < len(history["train"])):
        raise SchemaError(f"best_epoch: expected an integer in [-1, {len(history['train'])}), got {best!r}")
    params = np.concatenate([p.ravel() for layer in zip(weights, biases) for p in layer])
    return MLPModel(layout, params, Normalizer(mean, std), history, best)
