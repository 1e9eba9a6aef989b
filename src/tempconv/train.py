"""Training recipe: plain SGD with weight decay, cosine annealing, MixUp,
crop/flip/variable-length augmentation, and best-checkpoint selection.

The schedule is exact: rate(e) = BASE_LR * (1 + cos(pi * e / total)) / 2,
evaluated per epoch. Weight decay is coupled: it enters the update as
lr * (g + WEIGHT_DECAY * w), so it anneals with the rate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .augment import augment, mixup
from .config import MAX_EPOCHS, TrainConfig
from .errors import ConfigError, NumericError, located
from .tensor import GradTape, Tensor
from . import ops

BASE_LR = 0.02
WEIGHT_DECAY = 0.01
BATCH_SIZE = 32  # training and evaluation batches


def lr_schedule(total_epochs=TrainConfig.epochs):
    """The annealed rate of every epoch 0..total_epochs."""
    if total_epochs < 1:  # an empty range would return no rates
        raise ConfigError(f"total_epochs must be ≥ 1, got {total_epochs}")
    if total_epochs > MAX_EPOCHS:
        raise ConfigError(f"total_epochs must be ≤ {MAX_EPOCHS:,}, got {total_epochs}")
    return [BASE_LR * 0.5 * (1.0 + math.cos(math.pi * e / total_epochs))
            for e in range(total_epochs + 1)]


def cosine_lr(epoch, total_epochs=TrainConfig.epochs):
    """Annealed rate at integer epoch e in 0..total_epochs: that entry of :func:`lr_schedule`."""
    rates = lr_schedule(total_epochs)
    if not 0 <= epoch <= total_epochs:
        raise ConfigError(f"epoch {epoch} outside 0..{total_epochs}")
    return rates[epoch]


def sgd_step(params, lr):
    """In-place descent step over all params that received gradients."""
    for p in params:
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient encountered in sgd_step")
        p.data = p.data - lr * (g + WEIGHT_DECAY * p.data)


def one_hot(labels, num_classes):
    out = np.zeros((len(labels), num_classes), dtype=np.float32)
    out[np.arange(len(labels)), labels] = 1.0
    return out


@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_acc: float = 0.0
    best_state: dict = None


def _augment_batch(videos, rng, train_mode, tcfg):
    out = []
    lens = []
    for clip in videos:
        a, k = augment(clip, rng, train_mode, tcfg.crop_size)
        out.append(a)
        lens.append(k)
    return np.stack(out), np.asarray(lens, dtype=np.int64)


def evaluate(model, dataset, split, tcfg):
    """Top-1 accuracy on a split in batches of ``BATCH_SIZE``: eval mode, center crop, full lengths."""
    n = dataset.split_size(split)
    if n < 1:
        raise ConfigError(f"cannot evaluate empty split '{split}'")
    was_training = model.training
    model.eval()
    correct = 0
    for start in range(0, n, BATCH_SIZE):
        idx = range(start, min(start + BATCH_SIZE, n))
        videos, labels = dataset.batch(split, idx)
        x, lens = _augment_batch(videos, None, False, tcfg)
        logits = model(Tensor(x), valid_len=lens)
        correct += int((logits.data.argmax(axis=1) == labels).sum())
    model.train(was_training)
    return correct / n


def train_loop(model, dataset, tcfg, log_stream=None):
    """Run the full recipe; leaves the model holding the best weights.

    History is one record per epoch: {"epoch", "lr", "train_loss",
    "val_acc"}, also passed to ``log_stream.write`` as one JSON line each
    when given.
    An error inside a training step names its epoch and step.
    """
    if model.head.num_classes != dataset.spec.num_classes:
        raise ConfigError(
            f"model has {model.head.num_classes} classes, dataset has "
            f"{dataset.spec.num_classes}"
        )
    num_classes = dataset.spec.num_classes
    n_train = dataset.split_size("train")
    rng = np.random.default_rng(np.random.SeedSequence([tcfg.seed, 11]))
    result = TrainResult()

    for epoch, lr in enumerate(lr_schedule(tcfg.epochs)[:-1]):
        model.train()
        perm = rng.permutation(n_train)
        losses = []
        for step, start in enumerate(range(0, n_train, BATCH_SIZE)):
            idx = perm[start:start + BATCH_SIZE]
            videos, labels = dataset.batch("train", idx)
            x, lens = _augment_batch(videos, rng, True, tcfg)
            y = one_hot(labels, num_classes)
            pair = rng.permutation(len(idx))
            x, y, _ = mixup(x, x[pair], y, y[pair], rng)
            lens = np.maximum(lens, lens[pair])  # pool over the union extent
            with located(f"epoch {epoch}, step {step}"):
                model.zero_grad()
                with GradTape() as tape:
                    loss = ops.cross_entropy(model(Tensor(x), valid_len=lens), Tensor(y))
                tape.backward(loss)
                sgd_step(model.parameters(), lr)
            losses.append(float(loss.data))
        val_acc = evaluate(model, dataset, "val", tcfg)
        record = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": sum(losses) / len(losses),
            "val_acc": val_acc,
        }
        result.history.append(record)
        if log_stream is not None:
            log_stream.write(json.dumps(record) + "\n")
        if val_acc > result.best_val_acc or result.best_epoch < 0:
            result.best_epoch = epoch
            result.best_val_acc = val_acc
            result.best_state = model.state_dict()

    model.load_state_dict(result.best_state)
    return result
