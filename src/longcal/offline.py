"""Offline regression: fit throttle/brake acceleration models and emit a table.

One model family covers the preprocessed ``(cmd, v) -> acc`` samples: a
small feedforward sigmoid network trained with Adam.  Throttle and brake
are fitted separately on the signed command axis; a ten-fold
cross-validation harness scores the networks on held-out folds only.  The
network's shape, epochs, Adam step and batch size are module constants; a
fit's one setting is its seed (``MlpHyper``).  The step follows one cosine
per fit (Loshchilov & Hutter, SGDR, arXiv:1608.03983, without restarts):
epoch ``e`` takes ``LR * (1 + cos(pi e / EPOCHS)) / 2``, from ``LR`` down to
near zero, which reaches in 40 epochs the fit a constant step needs 80
for.  The network trains in float32 and predicts in float64, so tables are
float64.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .table import CalibrationTable, check_number, project_monotone

DEADBAND_CMD = 2.0  # |cmd| below this is idle-creep ambiguity, not training data
HIDDEN = 16  # units in each of the network's two hidden layers
EPOCHS = 40  # passes over the training rows per fit
LR = 0.07  # Adam's peak step size, taken in the first epoch and cosine-decayed
BATCH = 512  # rows per Adam step at most; small sets keep 8 steps an epoch


class TooFewSamples(ValueError):
    """Not enough samples for the requested fit or fold count."""


class Degenerate(UserWarning):
    """All regression targets identical; the fit collapses to a constant."""


def as_sample_array(samples) -> np.ndarray:
    """Coerce ``(cmd, v, acc)`` rows, an (n, 3) array or nested sequence, to a float array.

    Raises ValueError on another shape or on a non-finite value.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("samples must be (n, 3): cmd, v, acc")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


@dataclass
class MlpHyper:
    """The seed of one network fit: initialisation, shuffling and batch order.

    Every other setting is a module constant: a 2 -> ``HIDDEN`` -> ``HIDDEN``
    -> 1 net trained for ``EPOCHS`` epochs by Adam, its step cosine-decayed
    from ``LR``, on batches of at most ``BATCH`` rows.  A fit costs about
    epochs x samples: one sign of a 20-minute drive log trains in about
    0.07-0.08 s on ax1 (9k samples) and 0.13-0.21 s on mkz (16k-25k
    samples) on one core of a 2-vCPU Xeon VM (best of three per fit, log
    seeds 0-2).  Raises ValueError unless ``seed`` is an integer >= 0; a
    bool is refused.
    """

    seed: int = 0
    # unannotated, so a class attribute and not a field: the benchmark's
    # tracer counts epochs as MlpHyper().epochs
    epochs = EPOCHS

    def __post_init__(self):
        check_number("seed", self.seed, 0, integer=True)


def _sigmoid(z):
    """``1 / (1 + exp(-z))``, written over the float array ``z`` and returned.

    Where ``exp(-z)`` overflows (``z`` below about -88.7 in float32, -709 in
    float64) the result is exactly 0, with no warning.
    """
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


@dataclass
class MlpModel:
    """Feedforward net 2 -> HIDDEN -> HIDDEN -> 1, sigmoid hidden units, linear output.

    Inputs and target are standardised with constants taken from the
    training split only; ``predict`` works in raw units and in float64,
    whatever the dtype of the parameters (float32 from ``train_mlp``).
    """

    weights: list = field(repr=False)
    biases: list = field(repr=False)
    x_mean: np.ndarray = field(default=None)
    x_std: np.ndarray = field(default=None)
    y_mean: float = 0.0
    y_std: float = 1.0
    first_epoch_mse: float = float("nan")
    final_mse: float = float("nan")

    def predict(self, cmd, v) -> np.ndarray:
        """Acceleration at ``(cmd, v)``, in raw units.

        ``cmd`` and ``v`` are arrays that broadcast together; the result is a
        float array of their broadcast shape.
        """
        cmd, v = np.broadcast_arrays(np.asarray(cmd, dtype=float), np.asarray(v, dtype=float))
        x = (np.column_stack([cmd.ravel(), v.ravel()]) - self.x_mean) / self.x_std
        h = _sigmoid(x @ self.weights[0] + self.biases[0])
        h = _sigmoid(h @ self.weights[1] + self.biases[1])
        out = (h @ self.weights[2] + self.biases[2])[:, 0]
        return (out * self.y_std + self.y_mean).reshape(cmd.shape)


def train_mlp(samples, hyper: MlpHyper | None = None) -> MlpModel:
    """Fit the network by minibatch Adam on mean squared error.

    Every step of epoch ``e`` (from 0) has the step size
    ``LR * 0.5 * (1 + cos(pi * e / EPOCHS))``, computed in float64 once per
    epoch: ``LR`` in the first epoch, decaying to about ``LR / 650`` in the
    last.

    Deterministic for a given seed (initialisation, shuffling, and batch
    order all come from one generator).  Constant targets trigger a
    Degenerate warning and return the constant predictor.

    Training runs in float32: the parameters, the Adam moments, the
    standardised inputs and targets (standardised in float64, then cast
    once) and every batch buffer.  The returned net's parameters are
    float32; ``MlpModel.predict`` evaluates them in float64.  Each epoch
    gathers the shuffled rows once into a buffer, and its batches are
    contiguous slices of it, the same rows in the same order as a gather
    per batch.

    All parameters live in one flat vector ``theta`` laid out layer by
    layer as ``w0 | b0 | w1 | b1 | w2 | b2`` (each weight row-major), and the
    returned model's ``weights`` and ``biases`` are reshaped views into it.
    So layer ``i`` is one contiguous ``[w_i; b_i]`` block of shape
    ``(fan_in + 1, fan_out)``.  The standardised inputs and the first
    hidden layer's activations carry a trailing column of ones, so one
    matmul with the block gives a hidden layer's pre-activation with its
    bias added, and one matmul of the transposed input with the layer's
    delta fills its ``[gw_i; gb_i]`` block of the flat gradient.  The
    output layer keeps its bias apart: its bias gradient is the pairwise
    sum of a column, which a matmul would add in another order.  One Adam
    pass over flat moment vectors then updates every parameter per step.

    The trained net is bit-identical to a separate update per weight and
    bias array (the per-layer reference in the tests), a one-row last batch
    included: at width ``HIDDEN`` numpy's OpenBLAS sgemm adds the
    ones-column product after the sum a bias add would follow, and sums a
    column in row order as ``np.add.reduce`` does.
    """
    hyper = hyper or MlpHyper()
    arr = as_sample_array(samples)
    if len(arr) < 50:
        raise TooFewSamples(f"need >= 50 samples to fit the network, got {len(arr)}")
    X_raw = arr[:, :2]
    y_raw = arr[:, 2:3]

    x_mean = X_raw.mean(axis=0)
    x_std = X_raw.std(axis=0)
    x_std[x_std == 0.0] = 1.0
    y_mean = float(y_raw.mean())
    y_std = float(y_raw.std())
    if np.ptp(y_raw) == 0.0:
        y_std = 0.0

    sizes = [2, HIDDEN, HIDDEN, 1]
    shapes = [(sizes[i] + 1, sizes[i + 1]) for i in range(3)]
    theta = np.zeros(sum(math.prod(s) for s in shapes), dtype=np.float32)
    grad = np.zeros_like(theta)

    def blocks(flat):
        """The layers' ``[w_i; b_i]`` blocks: reshaped views into ``flat``."""
        parts, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            parts.append(flat[start : start + size].reshape(shape))
            start += size
        return parts

    layers = blocks(theta)
    grads = blocks(grad)
    weights = [block[:-1] for block in layers]
    biases = [block[-1] for block in layers]
    rng = np.random.default_rng(hyper.seed)
    for i, w in enumerate(weights):
        w[...] = rng.normal(0.0, 1.0 / np.sqrt(sizes[i]), size=w.shape)
    model = MlpModel(weights, biases, x_mean, x_std, y_mean, y_std)

    if y_std == 0.0:
        warnings.warn("all targets identical; returning a constant model", Degenerate)
        for w in weights:
            w *= 0.0
        model.first_epoch_mse = model.final_mse = 0.0
        return model

    # standardised (cmd, v), computed in float64 and cast once, and the
    # ones column that adds layer 0's bias
    n = len(arr)
    Xa = np.ones((n, 3), dtype=np.float32)
    X = Xa[:, :2]
    X[...] = (X_raw - x_mean) / x_std
    y = ((y_raw - y_mean) / y_std).astype(np.float32)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step_buf = np.empty_like(theta)
    denom = np.empty_like(theta)
    step = 0
    # keep at least 8 optimiser steps per epoch on small datasets, otherwise
    # the epoch budget undertrains
    batch = int(min(BATCH, max(64, np.ceil(n / 8))))
    # the first hidden layer's activations end in a ones column (layer 1's
    # bias input) and its deltas in a zero column, so the elementwise
    # products run over whole contiguous buffers
    a1_buf = np.ones((batch, HIDDEN + 1), dtype=np.float32)
    d1_buf = np.zeros((batch, HIDDEN + 1), dtype=np.float32)
    a2_buf = np.empty((batch, HIDDEN), dtype=np.float32)
    d2_buf = np.empty((batch, HIDDEN), dtype=np.float32)
    out_buf = np.empty((batch, 1), dtype=np.float32)
    # the epoch's shuffled rows; each batch is a contiguous slice of them
    Xe = np.empty_like(Xa)
    ye = np.empty_like(y)

    def full_mse():
        a1 = _sigmoid(X @ weights[0] + biases[0])
        a2 = _sigmoid(a1 @ weights[1] + biases[1])
        return float(((a2 @ weights[2] + biases[2] - y) ** 2).mean())

    for epoch in range(EPOCHS):
        lr = LR * 0.5 * (1.0 + math.cos(math.pi * epoch / EPOCHS))
        order = rng.permutation(n)
        # a permutation is always in range, and "clip" writes straight into
        # out where the default mode goes through a buffer
        np.take(Xa, order, axis=0, out=Xe, mode="clip")
        np.take(y, order, axis=0, out=ye, mode="clip")
        for s in range(0, n, batch):
            xb, yb = Xe[s : s + batch], ye[s : s + batch]
            nb = len(xb)
            a1, a2, d1, d2, delta = a1_buf[:nb], a2_buf[:nb], d1_buf[:nb], d2_buf[:nb], out_buf[:nb]
            np.matmul(xb, layers[0], out=a1[:, :HIDDEN])
            _sigmoid(a1)
            a1[:, HIDDEN] = 1.0
            np.matmul(a1, layers[1], out=a2)
            _sigmoid(a2)
            np.matmul(a2, weights[2], out=delta)
            delta += biases[2]
            # delta = 2 (out - y) / n
            delta -= yb
            delta *= 2.0
            delta /= nb
            np.matmul(a2.T, delta, out=grads[2][:-1])
            np.add.reduce(delta, axis=0, out=grads[2][-1])
            # d2 = (delta w2^T) * a2 * (1 - a2), a2 then spent; the outer
            # product is one multiply per element, as a matmul's would be
            np.multiply(delta, weights[2].T, out=d2)
            d2 *= a2
            np.subtract(1.0, a2, out=a2)
            d2 *= a2
            np.matmul(a1.T, d2, out=grads[1])
            np.matmul(d2, weights[1].T, out=d1[:, :HIDDEN])
            d1 *= a1
            np.subtract(1.0, a1, out=a1)
            d1 *= a1
            np.matmul(xb.T, d1[:, :HIDDEN], out=grads[0])

            step += 1
            c1 = 1.0 - beta1**step
            c2 = 1.0 - beta2**step
            # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g**2
            m *= beta1
            np.multiply(grad, 1.0 - beta1, out=step_buf)
            m += step_buf
            v *= beta2
            np.square(grad, out=step_buf)
            step_buf *= 1.0 - beta2
            v += step_buf
            # theta -= lr (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=step_buf)
            step_buf *= lr
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            step_buf /= denom
            theta -= step_buf
        if epoch == 0:
            model.first_epoch_mse = full_mse()
    model.final_mse = full_mse()
    return model


def split_by_sign(arr: np.ndarray):
    """Throttle (> deadband) and brake (< -deadband) sample subsets."""
    throttle = arr[arr[:, 0] > DEADBAND_CMD]
    brake = arr[arr[:, 0] < -DEADBAND_CMD]
    return throttle, brake


def _fit_both_signs(train_arr: np.ndarray, seed: int):
    """The throttle net on ``seed`` and the brake net on ``seed + 1``; ``None`` for a sign with no rows."""
    return tuple(
        train_mlp(rows, MlpHyper(seed=seed + i)) if len(rows) else None
        for i, rows in enumerate(split_by_sign(train_arr))
    )


def _predict_signed(throttle_model, brake_model, arr: np.ndarray) -> np.ndarray:
    out = np.empty(len(arr))
    pos = arr[:, 0] > 0
    if pos.any():
        if throttle_model is None:
            raise TooFewSamples("held-out throttle samples but no throttle training data")
        out[pos] = throttle_model.predict(arr[pos, 0], arr[pos, 1])
    if (~pos).any():
        if brake_model is None:
            raise TooFewSamples("held-out brake samples but no brake training data")
        out[~pos] = brake_model.predict(arr[~pos, 0], arr[~pos, 1])
    return out


@dataclass
class CvReport:
    """Held-out MAE/RMSE per fold plus fold-mean aggregates."""

    fold_mae: np.ndarray
    fold_rmse: np.ndarray

    @property
    def mae(self) -> float:
        return float(self.fold_mae.mean())

    @property
    def rmse(self) -> float:
        return float(self.fold_rmse.mean())


def cross_validate(
    samples,
    folds: int = 10,
    kind: str = "nn",
    seed: int = 0,
    workers: int = 1,
) -> CvReport:
    """Seeded k-fold cross-validation of the networks, scored on held-out folds only.

    Fold assignment shuffles once with the given seed; deadband samples are
    excluded (neither sign's model owns them).  Fold ``k`` fits its throttle
    net on seed ``seed + 1000 (k + 1)`` and its brake net on the next seed,
    with the module's fixed network settings, and the folds run one after
    another.  ``kind`` must be ``"nn"`` and ``workers`` the integer 1: both
    stay only because the benchmark passes them, and go once it stops.
    Raises ValueError before any work unless ``folds`` is an integer >= 2
    and ``seed`` an integer >= 0, neither a bool, and ``kind`` and
    ``workers`` hold those values (a bool is no integer 1).
    """
    check_number("folds", folds, 2, integer=True)
    check_number("seed", seed, 0, integer=True)
    if kind != "nn":
        raise ValueError(f"kind must be 'nn', got {kind!r}")
    check_number("workers", workers, 1, high=1, integer=True)
    arr = as_sample_array(samples)
    arr = arr[np.abs(arr[:, 0]) > DEADBAND_CMD]
    if len(arr) < folds:
        raise TooFewSamples(f"{len(arr)} usable samples cannot fill {folds} folds")
    rng = np.random.default_rng(seed)
    assignment = rng.permutation(len(arr)) % folds

    fold_mae = np.empty(folds)
    fold_rmse = np.empty(folds)
    for k in range(folds):
        # rebinding frees the last fold's copies: one fold's exist at a time
        train, test = arr[assignment != k], arr[assignment == k]
        err = _predict_signed(*_fit_both_signs(train, seed + 1000 * (k + 1)), test) - test[:, 2]
        fold_mae[k] = np.abs(err).mean()
        fold_rmse[k] = np.sqrt((err**2).mean())
    return CvReport(fold_mae=fold_mae, fold_rmse=fold_rmse)


def build_table(throttle_model, brake_model, speed_grid, cmd_grid) -> CalibrationTable:
    """Evaluate the signed models over the grid and project to monotone.

    Positive commands come from the throttle model, negative from the brake
    model, and the zero row blends the two models' zero-command limits.
    Each model predicts all of its rows in one call.
    """
    speed_grid = np.asarray(speed_grid, dtype=float)
    cmd_grid = np.asarray(cmd_grid, dtype=float)
    acc = np.empty((len(cmd_grid), len(speed_grid)))
    up, down, zero = cmd_grid >= 0, cmd_grid < 0, cmd_grid == 0
    acc[up] = throttle_model.predict(cmd_grid[up, None], speed_grid)
    acc[down] = brake_model.predict(cmd_grid[down, None], speed_grid)
    acc[zero] = 0.5 * (acc[zero] + brake_model.predict(cmd_grid[zero, None], speed_grid))
    return project_monotone(CalibrationTable(speed_grid, cmd_grid, acc))
