"""Data augmentation on raw (C, T, H, W) arrays, pre-tensor.

Training always applies one recipe: random spatial crop, horizontal flip
with p=0.5, and a random contiguous window of ceil(T/2)..T frames (the
retained length becomes the sample's valid length; the tail is zero-padded
so batches stay rectangular). Evaluation: deterministic center crop, full
length. A crop as large as the frame takes it whole. All randomness comes
from the caller's generator, drawn in a fixed order: crop, flip, length.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError

MIXUP_ALPHA = 0.4  # both shape parameters of the Beta law of MixUp's weights


def horizontal_flip(frames):
    """Mirror the width axis; applying it twice restores the input."""
    return frames[..., ::-1].copy()


def _crop(frames, size, offsets):
    """The size x size window at ``offsets(h - size, w - size)``; one rule for every crop."""
    h, w = frames.shape[-2:]
    if not 1 <= size <= min(h, w):
        raise ShapeError(f"crop {size} must lie in 1..{min(h, w)} for a {h}x{w} frame")
    if h == w == size:  # every offset is 0, and a draw from integers(0, 1) takes nothing
        return frames.copy()
    top, left = offsets(h - size, w - size)
    return frames[..., top:top + size, left:left + size].copy()


def random_crop(frames, size, rng):
    return _crop(frames, size, lambda dh, dw: (int(rng.integers(0, dh + 1)),
                                               int(rng.integers(0, dw + 1))))


def center_crop(frames, size):
    return _crop(frames, size, lambda dh, dw: (dh // 2, dw // 2))


def variable_length(seq, rng):
    """Keep a random contiguous window, right-pad with zeros.

    Returns (padded sequence of the original length, valid length k) with
    k drawn uniformly from {ceil(T/2) .. T}.
    """
    t = seq.shape[1]
    k = int(rng.integers((t + 1) // 2, t + 1))
    start = int(rng.integers(0, t - k + 1))
    out = np.zeros_like(seq)
    out[:, :k] = seq[:, start:start + k]
    return out, k


def augment(seq, rng, train_mode, crop_size):
    """Full per-sample pipeline; returns (augmented sequence, valid_len)."""
    if train_mode:
        seq = random_crop(seq, crop_size, rng)
        if rng.random() < 0.5:
            seq = horizontal_flip(seq)
        return variable_length(seq, rng)
    return center_crop(seq, crop_size), seq.shape[1]


def mixup(batch_a, batch_b, labels_a, labels_b, rng):
    """Convex pairwise combination with one Beta(MIXUP_ALPHA, MIXUP_ALPHA)
    weight per pair.

    Labels must already be dense (one-hot or soft); the same weight mixes
    a sample and its label row.
    """
    if batch_a.shape != batch_b.shape or labels_a.shape != labels_b.shape:
        raise ShapeError("mixup inputs must have matching shapes")
    n = batch_a.shape[0]
    lam = rng.beta(MIXUP_ALPHA, MIXUP_ALPHA, size=n).astype(batch_a.dtype)
    lx = lam.reshape((n,) + (1,) * (batch_a.ndim - 1))
    ly = lam.reshape((n,) + (1,) * (labels_a.ndim - 1))
    mixed_x = lx * batch_a + (1.0 - lx) * batch_b
    mixed_y = ly * labels_a + (1.0 - ly) * labels_b
    return mixed_x, mixed_y, lam
