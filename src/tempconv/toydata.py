"""Synthetic sequence-classification data for desk-scale training runs.

Each class owns a fixed spatial motif (a smooth random field, made
mirror-symmetric so horizontal flips are label-preserving). A sample
shows its class motif pulsing on a regular temporal cycle with a random
phase, plus white noise. The cycle is short enough that any half-length
window still contains full pulses, so variable-length augmentation never
destroys the label signal.

Every sample is a pure function of (spec, split, index): regenerating is
cheap and bitwise reproducible, and splits are disjoint by construction.
A dataset generates each split once, on the first batch drawn from it.
"""
from __future__ import annotations

import numpy as np

from .config import ToyDatasetSpec
from .errors import ConfigError

# pulse cycle: PERIOD frames per cycle, the first DUTY of them active
PERIOD = 4
DUTY = 3
AMPLITUDE = 1.5

_SPLIT_TAG = {"train": 1, "val": 2, "test": 3}
_MOTIF_TAG = 7


class ToyDataset:
    def __init__(self, spec):
        if not isinstance(spec, ToyDatasetSpec):
            raise ConfigError("ToyDataset expects a ToyDatasetSpec")
        self.spec = spec
        self.motifs = np.stack([self._motif(c) for c in range(spec.num_classes)])
        self._splits = {}  # split -> (videos, labels), generated on first use

    def _motif(self, cls):
        s = self.spec.frame_size
        rng = np.random.default_rng(np.random.SeedSequence([self.spec.seed, _MOTIF_TAG, cls]))
        field = rng.standard_normal((s, s))
        sym = (field + field[:, ::-1]) / 2.0  # flip-invariant
        sym -= sym.mean()
        sym /= max(np.abs(sym).max(), 1e-9)
        return (AMPLITUDE * sym).astype(np.float32)

    def split_size(self, split):
        if split not in _SPLIT_TAG:
            raise ConfigError(f"unknown split '{split}'")
        return {"train": self.spec.train_size, "val": self.spec.val_size,
                "test": self.spec.test_size}[split]

    def label(self, index):
        return index % self.spec.num_classes

    def sample(self, split, index):
        """Returns (video float32 (1, T, H, W), label int)."""
        size = self.split_size(split)
        if not 0 <= index < size:
            raise ConfigError(f"index {index} out of range for {split} split of {size}")
        spec = self.spec
        label = self.label(index)
        rng = np.random.default_rng(
            np.random.SeedSequence([spec.seed, _SPLIT_TAG[split], index])
        )
        phase = int(rng.integers(0, PERIOD))
        active = ((np.arange(spec.seq_len) + phase) % PERIOD) < DUTY
        video = np.zeros((1, spec.seq_len, spec.frame_size, spec.frame_size), dtype=np.float32)
        video[0, active] = self.motifs[label]
        if spec.noise > 0:
            video += rng.normal(0.0, spec.noise, size=video.shape).astype(np.float32)
        return video, label

    def batch(self, split, indices):
        """(videos (len, 1, T, H, W), labels int64) of ``indices``, bitwise the
        stacked :meth:`sample` of each: a fresh copy out of the split, which
        is generated once, on first use."""
        videos, labels = self._split(split)
        idx = np.asarray(indices, dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= len(labels))]
        if bad.size:
            raise ConfigError(f"index {bad[0]} out of range for {split} split of {len(labels)}")
        return videos[idx], labels[idx]

    def _split(self, split):
        if split not in self._splits:
            size = self.split_size(split)
            videos = np.empty((size, 1, self.spec.seq_len) + self.motifs.shape[1:], np.float32)
            labels = np.empty(size, np.int64)
            for i in range(size):
                videos[i], labels[i] = self.sample(split, i)
            videos.flags.writeable = labels.flags.writeable = False
            self._splits[split] = videos, labels
        return self._splits[split]

    def all_of(self, split):
        """The whole split's (videos, labels), read-only: the generated arrays, not a copy."""
        return self._split(split)
