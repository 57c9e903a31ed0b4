"""KL-divergence training with L2 regularization, plus checkpointing.

Loss: sum_n y_n·(log y_n − log_softmax(z)_n) + (lambda/2)·||theta||^2 over
the model's logits z, where theta ranges over convolution, dense and
attention weights (not biases or norm parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import artifact
from . import autodiff as ad
from .augment import balanced_oversample, center_crop, make_batch
from .autodiff import Tensor
from .errors import (DataError, FormatError, InvalidInputError,
                     require_counts, require_rates)
from .evaluation import SCORE_NAMES, evaluate_predictions
from .model import ModelConfig, RespiratoryClassifier, typed_like

CHECKPOINT_MAGIC = b"LSCK"
CHECKPOINT_VERSION = 6
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# samples per eval-mode forward pass
EVAL_BATCH = 32

HISTORY_COLUMNS = ("epoch", "split", "loss", *SCORE_NAMES)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    learning_rate: float = 1e-4
    l2_lambda: float = 1e-4
    seed: int = 0
    eval_every: int = 1
    early_stop_evals: int = 20

    def __post_init__(self):
        # zero epochs is a run that saves the model it starts from
        require_counts("train", least=0, epochs=self.epochs)
        require_counts("train", batch_size=self.batch_size,
                       eval_every=self.eval_every,
                       early_stop_evals=self.early_stop_evals)
        require_rates("train", learning_rate=self.learning_rate,
                      l2_lambda=self.l2_lambda)


def regularized_parameters(model):
    """Every parameter of two or more dimensions: conv kernels, dense weights
    and attention projections. Biases and norm affine parameters are 1-d and
    left unregularized."""
    return {name: p for name, p in model.parameters().items() if p.ndim >= 2}


def kl_loss(y, logits, params=(), l2_lambda=0.0):
    """Eq-style objective: KL(y || softmax(logits)) summed over the batch
    plus an L2 penalty. `y` is a constant probability matrix; `logits` a
    Tensor of the same shape. The log-probabilities are finite wherever the
    logits are, so no floor is needed and every sample has a gradient."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < 0):
        raise InvalidInputError("labels must be nonnegative")
    logits = logits if isinstance(logits, Tensor) else Tensor(
        np.asarray(logits))
    if y.shape != logits.shape:
        raise InvalidInputError("label and prediction shapes differ")
    mask = y > 0
    y_log_y = float(np.sum(y[mask] * np.log(y[mask])))  # 0·log 0 -> 0
    cross = ad.tsum(ad.log_softmax(logits, axis=-1) * y)
    loss = y_log_y - cross
    for p in params:
        loss = loss + ad.tsum(p * p) * (l2_lambda / 2.0)
    return loss


class Adam:
    def __init__(self, params, lr=1e-4):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        self.step_count += 1
        b1, b2 = ADAM_BETAS
        bias1 = 1.0 - b1**self.step_count
        bias2 = 1.0 - b2**self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            update = (self.m[name] / bias1) / (
                np.sqrt(self.v[name] / bias2) + ADAM_EPS
            )
            p.data = p.data - self.lr * update


def train_step(model, batch, labels, optimizer, l2_lambda):
    """One forward/backward/update; returns the pre-update loss. A
    non-finite loss or gradient raises before any parameter or Adam moment
    moves."""
    model.zero_grad()
    rng = getattr(model, "_dropout_rng", None)
    logits = model.forward(batch, training=True, rng=rng)
    reg = regularized_parameters(model)
    loss = kl_loss(labels, logits, reg.values(), l2_lambda)
    value = loss.item()
    if not np.isfinite(value):
        raise InvalidInputError("non-finite training loss")
    loss.backward()
    for name, p in model.parameters().items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise InvalidInputError(f"non-finite gradient in {name}")
    optimizer.step()
    return value


@dataclass
class FitResult:
    history: list
    best_score: float | None
    best_epoch: int
    checkpoint_path: str | None


def _stack_eval(dataset, indices, crop_bins):
    specs, labels = [], []
    for i in indices:
        item = dataset[i]
        specs.append(center_crop(item.spec, crop_bins).values)
        labels.append(int(np.argmax(item.label)))
    return np.stack(specs)[:, None, :, :], np.asarray(labels)


def predict(model, dataset, indices, crop_bins):
    """Eval-mode class probabilities of center-cropped spectrograms, one
    forward pass per EVAL_BATCH samples. Returns (truth class ids,
    probabilities)."""
    truths, probs = [], []
    with ad.no_grad():
        for start in range(0, len(indices), EVAL_BATCH):
            chunk = indices[start : start + EVAL_BATCH]
            batch, truth = _stack_eval(dataset, chunk, crop_bins)
            probs.append(ad.softmax(model.forward(batch, training=False)).data)
            truths.append(truth)
    return np.concatenate(truths), np.concatenate(probs)


def evaluate_model(model, dataset, indices, task, crop_bins):
    """Deterministic eval-mode scoring on center-cropped spectrograms."""
    truth, probs = predict(model, dataset, indices, crop_bins)
    return evaluate_predictions(truth, probs, task)


def fit(model, dataset, train_idx, val_idx, task, train_config, augment_config,
        checkpoint_path=None):
    """Balanced-batch training with periodic validation scoring; keeps the
    checkpoint of the best validation Score. When no evaluation ran (no
    validation split, or fewer epochs than eval_every) it keeps the final
    checkpoint, with best_score None and best_epoch the last epoch."""
    if not train_idx:
        raise InvalidInputError("empty training split")
    cfg = train_config
    classes = {i: int(np.argmax(dataset[i].label)) for i in train_idx}
    if augment_config.oversample:
        present = set(classes.values())
        missing = [name for k, name in enumerate(task.class_names)
                   if k not in present]
        if missing:
            raise DataError(
                f"task {task.task_id}: no training sample of class "
                f"{', '.join(missing)}, which augment.oversample needs")
        stream = balanced_oversample(classes, cfg.batch_size, cfg.seed + 1)
    else:
        stream = _shuffled_batches(list(train_idx), cfg.batch_size, cfg.seed + 1)
    rng = np.random.default_rng(cfg.seed)
    model._dropout_rng = rng
    optimizer = Adam(model.parameters(), lr=cfg.learning_rate)
    steps_per_epoch = max(1, -(-len(train_idx) // cfg.batch_size))

    history = []
    best_score, best_epoch = -1.0, -1
    evals_since_best = 0
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for _ in range(steps_per_epoch):
            batch, labels = make_batch(dataset, next(stream), augment_config, rng)
            epoch_loss += train_step(model, batch, labels, optimizer,
                                     cfg.l2_lambda)
        epoch_loss /= steps_per_epoch
        if (epoch + 1) % cfg.eval_every == 0 and val_idx:
            report = evaluate_model(model, dataset, val_idx, task,
                                    augment_config.crop_bins)
            history.append({"epoch": epoch + 1, "split": "validation",
                            "loss": epoch_loss, **report.named_scores()})
            if report.score > best_score:
                best_score, best_epoch = report.score, epoch + 1
                evals_since_best = 0
                if checkpoint_path:
                    save_checkpoint(checkpoint_path, model, optimizer,
                                    cfg.seed, epoch + 1)
            else:
                evals_since_best += 1
                if evals_since_best >= cfg.early_stop_evals:
                    break
    if best_epoch < 0:  # no evaluation ran, so nothing stopped training early
        best_score, best_epoch = None, cfg.epochs
        if checkpoint_path:
            save_checkpoint(checkpoint_path, model, optimizer, cfg.seed,
                            cfg.epochs)
    return FitResult(
        history=history,
        best_score=best_score,
        best_epoch=best_epoch,
        checkpoint_path=checkpoint_path,
    )


def _shuffled_batches(indices, batch_size, seed):
    rng = np.random.default_rng(seed)
    while True:
        order = list(indices)
        rng.shuffle(order)
        for start in range(0, len(order), batch_size):
            chunk = order[start : start + batch_size]
            if chunk:
                yield chunk


def write_history_csv(path, history):
    lines = [",".join(HISTORY_COLUMNS)]
    for row in history:
        lines.append(
            ",".join(
                str(row[c]) if c in ("epoch", "split") else f"{row[c]:.6f}"
                for c in HISTORY_COLUMNS
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- checkpoint container ---------------------------------------------------------


def _named_arrays(model, optimizer):
    """A checkpoint's arrays as name -> (dtype, live array), in file order:
    parameters, buffers, then each parameter's Adam m and v, in model order."""
    params = model.parameters()
    named = {f"param/{name}": ("<f4", p.data) for name, p in params.items()}
    named.update((f"buffer/{name}", ("<f8", b))
                 for name, b in model.named_buffers())
    named.update((f"{k}/{name}", ("<f4", moments[name])) for name in params
                 for k, moments in (("m", optimizer.m), ("v", optimizer.v)))
    return named


def save_checkpoint(path, model, optimizer, seed=0, epoch=0):
    """An `artifact` file: the model config, Adam's step and lr, the seed
    and the epoch, then the arrays of `_named_arrays`. `load_checkpoint`
    builds a float32 model, the default, so only a float32 model is saved:
    any other would come back with other values."""
    dtype = np.dtype(model.dtype)
    if dtype != np.float32:
        raise InvalidInputError(
            f"a checkpoint holds a float32 model, not a {dtype.name} one")
    header = {"config": model.config.to_dict(),
              "optimizer": {"step": optimizer.step_count,
                            "lr": float(optimizer.lr)},
              "seed": int(seed), "epoch": int(epoch)}
    arrays = {name: a.astype(dt) for name, (dt, a)
              in _named_arrays(model, optimizer).items()}
    artifact.save(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, arrays)


def _read_header(path, header):
    """(config, optimizer step, lr, seed, epoch) from a checkpoint's header,
    each of the type `save_checkpoint` writes, each number finite and >= 0."""
    try:
        opt = header["optimizer"]
        numbers = {"optimizer step": typed_like(opt["step"], 0),
                   "optimizer lr": typed_like(opt["lr"], 0.0),
                   "seed": typed_like(header["seed"], 0),
                   "epoch": typed_like(header["epoch"], 0)}
        config = ModelConfig.from_dict(header["config"])
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: corrupt checkpoint header: {exc!r}") from exc
    for field, value in numbers.items():
        if not 0 <= value < math.inf:
            raise FormatError(f"{path}: checkpoint {field} is {value!r}, "
                              "not a finite number >= 0")
    return (config, *numbers.values())


def load_checkpoint(path):
    """Returns (model, optimizer, seed, epoch) with parameters, buffers and
    Adam's step, lr and moments restored. The file must list the model's own
    `_named_arrays`: the same names, dtypes and shapes in the same order."""
    header, arrays = artifact.load(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                   "checkpoint")
    config, step, lr, seed, epoch = _read_header(path, header)
    model = RespiratoryClassifier(config, seed=seed)
    optimizer = Adam(model.parameters(), lr=lr)
    optimizer.step_count = step
    own = _named_arrays(model, optimizer)
    saved = [(name, a.dtype.str, a.shape) for name, a in arrays.items()]
    built = [(name, dt, a.shape) for name, (dt, a) in own.items()]
    for i, (s, b) in enumerate(zip_longest(saved, built)):
        if s != b:
            raise FormatError(f"{path}: checkpoint array {i} is {s}; the "
                              f"model's is {b}")
    for name, (_, a) in own.items():
        a[...] = arrays[name]
    return model, optimizer, seed, epoch
