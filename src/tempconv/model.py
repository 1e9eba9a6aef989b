"""Assemble configured networks and compute their structural properties.

Pipeline: stem -> per-frame extractor -> dilated causal temporal stack
-> masked-pool classifier. A config with the frontend disabled builds the
temporal stack alone, consuming [C, T] feature sequences directly; that
mode is what the complexity audit uses for the column that excludes the
frontend.
"""
from __future__ import annotations

import numpy as np

from . import ops
from .blocks import make_block
from .config import ModelConfig, config_hash, config_to_dict
from .errors import ConfigError, ShapeError
from .frontend import ClassifierHead, ReferenceExtractor, Stem
from .layers import PARAM_BUDGET_CAP, Module, Sequential, fast_eval
from .tensor import unchecked

BUILD_VERSION = "0.1.0"


class TCN(Module):
    """``cfg.stages`` temporal blocks of one width, ``cfg.channels``, with
    dilation doubled at every stage."""

    def __init__(self, cfg):
        super().__init__()
        self.in_channels = cfg.channels
        self.body = Sequential(*(make_block(cfg.block_kind, cfg.channels, 2 ** i, dropout=cfg.dropout)
                                 for i in range(cfg.stages)))

    def forward(self, x):
        return self.body(x)


class Model(Module):
    """The end-to-end network; also usable frontend-less on [C, T] input."""

    def __init__(self, config):
        super().__init__()
        self.config = config
        self.config_hash = config_hash(config)
        self.build_version = BUILD_VERSION
        if config.extractor is not None:
            self.stem = Stem(config.stem)
            self.extractor = ReferenceExtractor(config.extractor, config.stem.out_channels)
        else:
            self.stem = self.extractor = None
        self.tcn = TCN(config.tcn)
        self.head = ClassifierHead(config.tcn.channels, config.classifier.num_classes)

    @property
    def has_frontend(self):
        return self.extractor is not None

    def check_input(self, shape):
        """Refuse one ``(C, *S)`` sample the model cannot run: the one owner of
        the input rules that ``forward``, ``complexity.audit`` and ``infer`` apply."""
        expect = 4 if self.has_frontend else 2
        if len(shape) != expect:
            raise ShapeError(f"model expects a sample of rank {expect}, got rank {len(shape)}")
        if self.has_frontend:
            self.stem._check(shape)
            self.extractor._check_spatial(self.stem.conv.spec.out_sizes(shape[1:])[1:], shape[2:])
        elif shape[0] != self.tcn.in_channels:
            raise ShapeError(f"input has {shape[0]} channels, "
                             f"temporal stack expects {self.tcn.in_channels}")

    def forward(self, x, valid_len=None):
        """Logits (N, K); the one module that also takes a single sample, giving (K,).
        In fast eval only the logits are checked for finiteness, and a failure re-runs
        the forward with per-op checks to name the op: fast eval writes only fresh
        arrays, so the re-run sees the same input and weights."""
        if not all(map(fast_eval, self.modules())):
            return self._forward(x, valid_len)
        with unchecked():
            logits = self._forward(x, valid_len)
        return logits if np.isfinite(logits.data).all() else self._forward(x, valid_len)

    def _forward(self, x, valid_len):
        expect = 4 if self.has_frontend else 2
        if x.ndim == expect:  # a batch of one; valid_len passes through unchanged
            logits = self._forward(ops.reshape(x, (1,) + tuple(x.shape)), valid_len)
            return ops.reshape(logits, tuple(logits.shape[1:]))
        if x.ndim != expect + 1:
            raise ShapeError(f"model expects rank {expect} (single) or {expect + 1} (batched) "
                             f"input, got rank {x.ndim}")
        self.check_input(tuple(x.shape[1:]))
        if self.has_frontend:
            x = self.extractor(self.stem(x))
        return self.head(self.tcn(x), valid_len=valid_len)

    def predict_proba(self, x, valid_len=None):
        return ops.softmax(self.forward(x, valid_len=valid_len), axis=-1)

    def input_shape(self, frames=29, size=88):
        if self.has_frontend:
            return (self.config.in_channels, frames, size, size)
        return (self.tcn.in_channels, frames)


def build_model(config, seed=0, init=True):
    """Construct the network; parameters are a pure function of the seed.

    With ``init=False`` the parameters stay declared by shape, holding no
    storage: enough to count, describe and audit. A caller that writes
    weights in place calls ``allocate()`` first, as ``load_state_dict`` does."""
    if not isinstance(config, ModelConfig):
        raise ConfigError("build_model expects a parsed ModelConfig")
    model = Model(config)  # parameters are declared by shape, not yet allocated
    total = model.param_count()
    if total > PARAM_BUDGET_CAP:
        raise ConfigError(
            f"config implies {total:,} parameters, over the "
            f"{PARAM_BUDGET_CAP:,} budget cap"
        )
    return model.init_parameters(np.random.default_rng(seed)) if init else model


def receptive_field(config):
    """Frames of input influencing one output frame.

    1 + sum over blocks of (kernel - 1) * dilation per temporal conv;
    the stem's temporal kernel widens it further when the frontend is present.
    """
    rf = 1 + sum((k - 1) * d for block in TCN(config.tcn).body for k, d in block.rf_taps())
    if config.extractor is not None:
        rf += config.stem.kernel[0] - 1
    return rf


def _fmt(n):
    return f"{n:,}"


def describe(model):
    """Stable human-readable summary; embeds the full config verbatim."""
    config = model.config
    lines = []
    lines.append(f"temporal network summary (build {model.build_version})")
    lines.append(f"config hash: {model.config_hash}")
    lines.append("")
    lines.append("configuration:")
    for section, body in config_to_dict(config).items():
        lines.append(f"  [{section}]")
        for key, value in body.items():
            lines.append(f"    {key} = {value}")
    lines.append("")
    lines.append("modules:")
    if model.has_frontend:
        stem = model.stem
        lines.append(
            f"  stem        conv3d {config.in_channels}->{stem.spec.out_channels} "
            f"k{stem.spec.kernel} s{stem.spec.stride}  "
            f"params {_fmt(stem.param_count())}"
        )
        ext = model.extractor
        lines.append(
            f"  extractor   {len(ext.spec.widths)} stage(s) widths {ext.spec.widths}  "
            f"params {_fmt(ext.param_count())}"
        )
    for stage, block in enumerate(model.tcn.body):
        lines.append(
            f"  tcn[{stage}]      {block.kind} C={block.channels} d={block.dilation}  "
            f"params {_fmt(block.param_count())}"
        )
    lines.append(
        f"  classifier  {config.tcn.channels}->{config.classifier.num_classes}  "
        f"params {_fmt(model.head.param_count())}"
    )
    lines.append("")
    lines.append(f"dilations: {[block.dilation for block in model.tcn.body]}")
    lines.append(f"receptive field: {receptive_field(config)} frame(s)")
    lines.append(f"total parameters: {_fmt(model.param_count())}")
    return "\n".join(lines)
