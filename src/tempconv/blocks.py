"""Temporal block zoo: interchangeable (N, C, T) -> (N, C, T) causal units.

Every block is residual (input added to the body output) and ends in
dropout. All temporal convolutions are causal with the block's dilation,
so a block never reads future frames. A convolution and its norm are one
``layers.ConvNorm`` unit, and the convolution carries no bias; the plain
two-conv block keeps its biases, giving it 2*(k*C^2 + C) + 4*C parameters.

The built module tree is the only description of a block: parameter
counts, MACs and receptive-field taps are read from it. Plain stacks come
from the ``_BODIES`` table, "starv" from ``StarBlock``; each kind names one
structure. The seven kinds are the seven rows of the paper fixture.
"""
from __future__ import annotations

import numpy as np

from . import ops
from .errors import ConfigError
from .layers import (Conv, Conv1d, ConvNorm, Dropout, Module, Sequential, eval_tiles, fast_eval,
                     residual)
from .tensor import Tensor

DEFAULT_EXPANSION = {
    "fusedmb": 3.5, "invertedresidual": 2.0, "cib": 2.0, "uib": 4.0,
    "starv": 4.0,
}

PLAIN_KERNEL = 3    # every temporal conv of the plain kinds
STAR_DW_KERNEL = 7  # the two depthwise convs of "starv"


def canonical_kind(name):
    key = str(name).strip().lower().replace(" ", "")
    if key not in BLOCK_KINDS:
        raise ConfigError(f"unknown block kind '{name}'; choose from {', '.join(BLOCK_KINDS)}")
    return key


def expanded_width(channels, expansion):
    try:
        e = int(round(expansion * channels))
    except (OverflowError, ValueError):  # an infinite or NaN width
        e = 0
    if e < 1 or abs(e - expansion * channels) > 1e-9:
        raise ConfigError(f"expansion {expansion} does not give a whole width at {channels} channels")
    return e


def block_width(kind, channels):
    """Expanded width of a canonical kind at ``channels``; None for a kind without one."""
    if kind not in DEFAULT_EXPANSION:
        return None
    return expanded_width(channels, DEFAULT_EXPANSION[kind])


class TemporalBlock(Module):
    """Residual + dropout wrapper around a body; subclasses provide the body."""

    def __init__(self, kind, channels, dilation, dropout):
        super().__init__()
        self.kind = kind
        self.channels = channels
        self.dilation = dilation
        self.drop = Dropout(dropout)

    def forward(self, x):
        return self.drop(residual(self, self._body(x), x))

    def _body(self, x):
        raise NotImplementedError

    def rf_taps(self):
        """(kernel, dilation) of every temporal conv, for receptive-field sums."""
        return [(m.spec.kernel[0], m.spec.dilation[0])
                for m in self.modules() if isinstance(m, Conv) and m.spec.kernel[0] > 1]


def _full(a, b, d, bias=False):
    return Conv1d(a, b, PLAIN_KERNEL, dilation=d, causal=True, bias=bias)


def _dw(c, d, k=PLAIN_KERNEL, bias=False):
    return Conv1d(c, c, k, dilation=d, groups=c, causal=True, bias=bias)


def _pw(a, b, bias=False):
    return Conv1d(a, b, 1, causal=True, bias=bias)


# body units per plain kind, each a conv with its norm: (channels, expanded width, dilation)
_BODIES = {
    # two full causal convolutions, each followed by norm and relu
    "baseline": lambda c, e, d: [ConvNorm(_full(c, c, d, bias=True), relu=True),
                                 ConvNorm(_full(c, c, d, bias=True), relu=True)],
    # depthwise, pointwise, depthwise; norms only, no activation
    "linear": lambda c, e, d: [ConvNorm(_dw(c, d)), ConvNorm(_pw(c, c)), ConvNorm(_dw(c, d))],
    # full conv expands the width, pointwise projects back
    "fusedmb": lambda c, e, d: [ConvNorm(_full(c, e, d), relu=True), ConvNorm(_pw(e, c))],
    # pointwise expand, depthwise, pointwise project
    "invertedresidual": lambda c, e, d: [ConvNorm(_pw(c, e), relu=True),
                                         ConvNorm(_dw(e, d), relu=True), ConvNorm(_pw(e, c))],
    # compact inverted bottleneck: dw / pw-expand / dw / pw-project / dw
    "cib": lambda c, e, d: [ConvNorm(_dw(c, d)), ConvNorm(_pw(c, e)), ConvNorm(_dw(e, d)),
                            ConvNorm(_pw(e, c)), ConvNorm(_dw(c, d))],
    # extra-depthwise universal bottleneck: dw / pw-expand / dw / pw-project
    "uib": lambda c, e, d: [ConvNorm(_dw(c, d)), ConvNorm(_pw(c, e), relu=True),
                            ConvNorm(_dw(e, d)), ConvNorm(_pw(e, c))],
}

BLOCK_KINDS = (*_BODIES, "starv")


class SequentialBlock(TemporalBlock):
    """Body is the plain unit stack ``_BODIES[kind]`` builds."""

    def __init__(self, kind, channels, dilation, width, dropout):
        super().__init__(kind, channels, dilation, dropout)
        self.body = Sequential(*_BODIES[kind](channels, width, dilation))

    def _body(self, x):
        return self.body(x)


class StarBlock(TemporalBlock):
    """Multiplicative mixing: two pointwise branches joined elementwise.

    Body: dw(K) + norm -> branches x1, x2 (pointwise C->E, biased) ->
    relu6(x1) * x2 -> pointwise E->C + norm -> dw(K, biased).

    In eval with no tape, the pointwise section between the two depthwise
    convs reaches no other frame, so it runs on tiles of time steps with no
    halo (``layers.eval_tiles``), and no E-wide tensor exists whole.
    """

    def __init__(self, kind, channels, dilation, width, dropout):
        super().__init__(kind, channels, dilation, dropout)
        c, d, e = channels, dilation, width
        self.dw_in = ConvNorm(_dw(c, d, STAR_DW_KERNEL))
        self.branch1 = _pw(c, e, bias=True)
        self.branch2 = _pw(c, e, bias=True)
        self.project = ConvNorm(_pw(e, c))
        self.dw_out = _dw(c, d, STAR_DW_KERNEL, bias=True)

    def _body(self, x):
        h = self.dw_in(x)
        expanded = h.shape[0] * 2 * self.branch1.spec.out_channels  # both branches, per frame
        return self.dw_out(eval_tiles(h, 2, h.data.itemsize * expanded, [self.project],
                                      self._pointwise))

    def _pointwise(self, h, folds):
        """The branches, their gate and ``project`` with its norm; ``folds``
        holds the folded ``project`` of a run of tiles."""
        if fast_eval(self):  # gate the fresh branch1 output where it lies
            gate = self.branch1(h).data
            np.clip(gate, 0, 6, out=gate)
            mixed = Tensor(np.multiply(gate, self.branch2(h).data, out=gate), _op="hadamard")
        else:
            mixed = ops.hadamard(ops.relu6(self.branch1(h)), self.branch2(h))
        return self.project(mixed, fold=folds[0])


def make_block(kind, channels, dilation, dropout=0.2):
    """Construct one temporal block of a registered kind."""
    kind = canonical_kind(kind)
    block = SequentialBlock if kind in _BODIES else StarBlock
    return block(kind, channels, dilation, block_width(kind, channels), dropout)
