"""Differentiable array operations: convolution, normalization, elementwise.

All ops take and return :class:`~tempconv.tensor.Tensor` and register a
backward rule on the active :class:`~tempconv.tensor.GradTape`, if any.
Convolution covers 1-D/2-D/3-D by kernel rank, with stride, dilation,
groups, and either symmetric zero padding or causal left padding (1-D only,
output length equals input length). :func:`conv` runs each call on one of
four routes, chosen by shape class alone in :func:`_conv_route`, forward
and backward alike:

- ``POINTWISE`` (groups = 1, k = 1, stride 1, no padding): one GEMM over
  every position of the batch;
- ``DEPTHWISE`` (groups = C_in = C_out > 1): one einsum per cache-sized
  tile of whole samples, over a read-only view of the tile's tap windows,
  into one preallocated output; its backward runs per kernel tap on the
  same tiles, over only the positions each tap reads;
- ``FRAME`` (one input channel, stride 1 on the first axis, as in the 3-D
  stem): one im2col per padded frame over the other axes' taps; each
  first-axis tap reads it as a shifted view, and one GEMM per such tap is
  summed into the output;
- ``GEMM`` (every other conv, any groups): channels-last im2col columns,
  (N·S_out, C/G·taps) per group, gathered from a channels-last padded
  copy, then GEMMs per group over the whole batch in blocks of output rows.

On ``FRAME`` and ``GEMM`` the weight's plain reshape is the GEMM operand.
Every route is tested against the reference conv in ``tests/oracles.py``.

Eval-mode batch norm is one multiply-add per element; a ``layers.ConvNorm``
unit folds it into its conv when no tape records. Training-mode batch norm
reduces over the (rows, C) view of a channels-last input.

Layout convention: every op takes and returns the logical shape (N, C, *S),
batched and channels-first, and accepts any memory layout. Every conv route
and training-mode batch norm write one layout at every rank, channels-last:
the (N, C, *S) view of a C-order (N, *S, C) array. Elementwise ops and
eval batch norm keep the layout their inputs share, so activations stay
channels-last from the first conv on. Only :class:`~tempconv.model.Model`
also accepts a single sample.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .tensor import Tensor, apply_op


def _tuplify(value, rank, name):
    if isinstance(value, int):
        return (value,) * rank
    value = tuple(int(v) for v in value)
    if len(value) != rank:
        raise ShapeError(f"{name} must have {rank} entries, got {value}")
    return value


@dataclass(frozen=True)
class ConvSpec:
    """Static description of a convolution: shapes, strides, padding mode.

    ``causal=True`` selects causal left padding of exactly ``(k-1)*dilation``
    zeros and is only valid for rank-1 (temporal) convolution with stride 1.
    Otherwise symmetric zero padding is used; ``padding=None`` defaults to
    the size-preserving ``((k-1)*d)//2`` per axis.
    """

    in_channels: int
    out_channels: int
    kernel: tuple
    stride: tuple = None
    dilation: tuple = None
    groups: int = 1
    causal: bool = False
    padding: tuple = None

    def __post_init__(self):
        kernel = tuple(int(k) for k in (self.kernel if not isinstance(self.kernel, int) else (self.kernel,)))
        rank = len(kernel)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "stride", _tuplify(self.stride if self.stride is not None else 1, rank, "stride"))
        object.__setattr__(self, "dilation", _tuplify(self.dilation if self.dilation is not None else 1, rank, "dilation"))
        if self.in_channels < 1 or self.out_channels < 1:
            raise ShapeError("channel counts must be positive")
        if any(k < 1 for k in kernel) or any(s < 1 for s in self.stride) or any(d < 1 for d in self.dilation):
            raise ShapeError("kernel, stride and dilation entries must be positive")
        if self.groups < 1 or self.in_channels % self.groups or self.out_channels % self.groups:
            raise ShapeError(
                f"groups={self.groups} must divide in_channels={self.in_channels} "
                f"and out_channels={self.out_channels}"
            )
        if self.causal:
            if rank != 1:
                raise ShapeError("causal padding is only defined for 1-D convolution")
            if self.stride != (1,):
                raise ShapeError("causal convolution requires stride 1")
            object.__setattr__(self, "padding", None)
        elif self.padding is None:
            object.__setattr__(
                self, "padding", tuple((k - 1) * d // 2 for k, d in zip(kernel, self.dilation))
            )
        else:
            object.__setattr__(self, "padding", _tuplify(self.padding, rank, "padding"))

    @property
    def rank(self):
        return len(self.kernel)

    def pad_pairs(self):
        if self.causal:
            return (((self.kernel[0] - 1) * self.dilation[0], 0),)
        return tuple((p, p) for p in self.padding)

    def out_sizes(self, in_sizes):
        """Spatial/temporal output sizes by the standard convolution arithmetic."""
        sizes = []
        for s, k, st, d, (pl, pr) in zip(in_sizes, self.kernel, self.stride, self.dilation, self.pad_pairs()):
            eff = (k - 1) * d + 1
            padded = s + pl + pr
            if padded < eff:
                raise ShapeError(f"input size {s} too small for kernel {k} with dilation {d}")
            sizes.append((padded - eff) // st + 1)
        return tuple(sizes)

    def macs(self, in_sizes):
        """Multiply-accumulates of one sample whose spatial/temporal sizes are ``in_sizes``."""
        return (self.out_channels * math.prod(self.out_sizes(in_sizes))
                * (self.in_channels // self.groups) * math.prod(self.kernel))


def _padded(xd, spec, dtype):
    """Zero-padded channels-last (N, *P, C) copy of an (N, C, *S) input,
    written once, straight into the padded buffer."""
    n, c, *sizes = xd.shape
    buf = np.zeros([n, *(s + lo + hi for s, (lo, hi) in zip(sizes, spec.pad_pairs())), c], dtype)
    buf[_interior(spec, 1)] = np.moveaxis(xd, 1, -1)
    return buf


def _interior(spec, first):
    """Index of the unpadded region of a padded buffer, spatial axes at ``first``."""
    return (slice(None),) * first + tuple(slice(lo, -hi or None) for lo, hi in spec.pad_pairs())


def _tap_index(tap, spec, out_sizes, first):
    """Index of the padded input that one kernel tap reads, spatial axes at ``first``."""
    return (slice(None),) * first + tuple(
        slice(t * d, t * d + s * (o - 1) + 1, s)
        for t, d, s, o in zip(tap, spec.dilation, spec.stride, out_sizes)
    )


def _biased(y, bd):
    """An (N, C, *S) route output plus its per-channel bias: added in place
    into the route's fresh array unless the bias's dtype is wider."""
    if bd is None:
        return y
    b = bd.reshape((-1,) + (1,) * (y.ndim - 2))
    return y + b if np.result_type(y, b) != y.dtype else np.add(y, b, out=y)


def _pointwise_forward(xd, wd, bd, spec, out_sizes):
    """k = 1, stride 1, no padding: one (N·S, C) @ (C, O) GEMM over the whole
    batch, returned as the (N, O, *S) view of its (N, *S, O) result."""
    xl = np.moveaxis(xd, 1, -1)
    y = np.matmul(xl.reshape(-1, spec.in_channels), wd.reshape(spec.out_channels, -1).T)
    return _biased(np.moveaxis(y.reshape(xl.shape[:-1] + (-1,)), -1, 1), bd), xl


def _pointwise_backward(up, wd, spec, xl, need_x, need_w):
    upl = np.moveaxis(up, 1, -1).reshape(-1, spec.out_channels)
    gx = gw = None
    if need_x:
        gx = np.moveaxis((upl @ wd.reshape(spec.out_channels, -1)).reshape(xl.shape), -1, 1)
    if need_w:
        gw = (upl.T @ xl.reshape(-1, spec.in_channels)).reshape(wd.shape)
    return gx, gw


# Rows of channels-last columns per forward GEMM call. OpenBLAS packs the
# rows of one call, up to its own block size, into a buffer whose touched
# pages stay resident, so a taller call raises peak RSS: the (2048 × 1536)
# @ (1536 × 512) GEMM of a `long_seq` baseline k3 conv touched 2.7 MiB
# more in one call than the per-sample GEMMs it replaced, and 0.1 MiB more
# in 512-row calls, for +10 % GEMM time (14.5 → 15.9 ms, 2 vCPUs).
_GEMM_ROWS = 512

# Columns per cache-sized block of the channels-last gather. Each kernel
# tap writes every taps-th column element, so a block of the first output
# axis takes all its taps while it is in cache: on the `long_seq` baseline
# forward (eight k3 convs over 2 × 1024 frames of 512 channels) the gather
# took 21 ms in blocks of about this size against 36 ms unblocked.
_GATHER_BYTES = 1 << 20


def _gemm_forward(xd, wd, bd, spec, out_sizes):
    """im2col and GEMMs over the whole batch: the (N·S_out, C·taps) columns
    are gathered channels-last from a channels-last padded copy, one strided
    write per kernel tap and block of ``_GATHER_BYTES``, in the (C, taps)
    order of the weight's rows; GEMMs over ``_GEMM_ROWS`` of them at a time,
    the groups as a batch axis, write the channels-last output."""
    dtype = np.result_type(xd, wd)
    n, c = xd.shape[:2]
    g, o, taps = spec.groups, spec.out_channels, math.prod(spec.kernel)
    xp = _padded(xd, spec, dtype)
    cols = np.empty((n, *out_sizes, c, taps), dtype)
    s, reach = spec.stride[0], (spec.kernel[0] - 1) * spec.dilation[0]
    step = max(1, _GATHER_BYTES // cols[:, :1].nbytes)
    for a in range(0, out_sizes[0], step):
        block = (min(step, out_sizes[0] - a),) + out_sizes[1:]
        src = xp[:, a * s:(a + block[0] - 1) * s + reach + 1]
        for t, tap in enumerate(np.ndindex(*spec.kernel)):
            cols[:, a:a + block[0], ..., t] = src[_tap_index(tap, spec, block, 1)]
    padded_shape, xp, src = xp.shape, None, None  # only the gather reads the padded copy
    cols = cols.reshape(-1, g, c // g * taps)  # (N·S_out, G, C/G·taps)
    y = np.empty((n, *out_sizes, o), dtype)
    yg, cg = y.reshape(-1, g, o // g).transpose(1, 0, 2), cols.transpose(1, 0, 2)
    wg = wd.reshape(g, o // g, -1).transpose(0, 2, 1)
    for r in range(0, len(cols), _GEMM_ROWS):
        np.matmul(cg[:, r:r + _GEMM_ROWS], wg, out=yg[:, r:r + _GEMM_ROWS])
    return _biased(np.moveaxis(y, -1, 1), bd), (padded_shape, cols)


def _gemm_backward(up, wd, spec, saved, need_x, need_w):
    padded_shape, cols = saved
    g, o = spec.groups, spec.out_channels
    upg = np.moveaxis(up, 1, -1).reshape(-1, g, o // g).transpose(1, 0, 2)  # (G, N·S_out, O/G)
    gx = gw = None
    if need_x:
        # col2im: add each tap's columns back, channels-last, where it read
        gcols = np.empty(cols.shape, np.result_type(up, wd))
        np.matmul(upg, wd.reshape(g, o // g, -1), out=gcols.transpose(1, 0, 2))
        gcols = gcols.reshape(up.shape[:1] + up.shape[2:] + (spec.in_channels, -1))
        gxp = np.zeros(padded_shape, gcols.dtype)
        for t, tap in enumerate(np.ndindex(*spec.kernel)):
            gxp[_tap_index(tap, spec, up.shape[2:], 1)] += gcols[..., t]
        gx = np.moveaxis(gxp[_interior(spec, 1)], -1, 1)
    if need_w:
        gw = np.matmul(upg.transpose(0, 2, 1), cols.transpose(1, 0, 2)).reshape(wd.shape)
    return gx, gw


def _frame_taps(spec, cols, out_sizes):
    """The (N, taps, S_out) views of (N, taps, P·R) per-frame columns, R
    output positions to a frame, that each first-axis kernel tap reads."""
    r = math.prod(out_sizes[1:])
    return [cols[:, :, i * spec.dilation[0] * r:(i * spec.dilation[0] + out_sizes[0]) * r]
            for i in range(spec.kernel[0])]


def _frame_forward(xd, wd, bd, spec, out_sizes):
    """C_in = 1, stride 1 on the first axis: an im2col of every padded frame
    over the other axes' taps, written once and read by each first-axis tap
    as a shifted view; per block of ``_GEMM_ROWS`` output rows, one
    (rows, taps) @ (taps, O) batch GEMM per first-axis tap, summed into the
    channels-last output."""
    n, o, dtype = xd.shape[0], spec.out_channels, np.result_type(xd, wd)
    xp = _padded(xd, spec, dtype)[..., 0]  # (N, *P)
    frames = (xp.shape[1],) + out_sizes[1:]  # every padded frame, the outputs within one
    cols = np.empty((n, math.prod(spec.kernel[1:])) + frames, dtype)
    for j, tap in enumerate(np.ndindex(*spec.kernel[1:])):
        cols[:, j] = xp[_tap_index((0,) + tap, spec, frames, 1)]
    cols = cols.reshape(n, cols.shape[1], -1)
    w3 = wd.reshape(o, spec.kernel[0], -1)  # (O, first-axis taps, other taps)
    views = [v.transpose(0, 2, 1) for v in _frame_taps(spec, cols, out_sizes)]  # (N, S_out, taps)
    y = np.empty((n, math.prod(out_sizes), o), dtype)
    part = np.empty((n, min(_GEMM_ROWS, y.shape[1]), o), dtype)
    for r in range(0, y.shape[1], _GEMM_ROWS):
        yr = y[:, r:r + _GEMM_ROWS]
        np.matmul(views[0][:, r:r + _GEMM_ROWS], w3[:, 0].T, out=yr)
        for i in range(1, len(views)):
            yr += np.matmul(views[i][:, r:r + _GEMM_ROWS], w3[:, i].T, out=part[:, :yr.shape[1]])
    return _biased(np.moveaxis(y.reshape((n,) + out_sizes + (o,)), -1, 1), bd), (xp.shape, cols)


def _frame_backward(up, wd, spec, saved, need_x, need_w):
    padded_shape, cols = saved
    n, o = up.shape[:2]
    up3 = up.reshape(n, o, -1)  # a view of a channels-last upstream gradient
    w3 = wd.reshape(o, spec.kernel[0], -1)
    gx = gw = None
    if need_x:
        # each first-axis tap's column gradient added where it read, then col2im
        gcols = np.zeros(cols.shape, np.result_type(up, wd))
        for i, view in enumerate(_frame_taps(spec, gcols, up.shape[2:])):
            view += np.matmul(w3[:, i].T, up3)
        frames = (padded_shape[1],) + up.shape[3:]
        gcols = gcols.reshape(gcols.shape[:2] + frames)
        gxp = np.zeros(padded_shape, gcols.dtype)
        for j, tap in enumerate(np.ndindex(*spec.kernel[1:])):
            gxp[_tap_index((0,) + tap, spec, frames, 1)] += gcols[:, j]
        gx = gxp[_interior(spec, 1)][:, None]
    if need_w:
        gw = np.stack([np.matmul(up3, view.transpose(0, 2, 1)).sum(axis=0)
                       for view in _frame_taps(spec, cols, up.shape[2:])], axis=1).reshape(wd.shape)
    return gx, gw


# A tile of whole samples whose padded input and output together take
# about this size stays in cache through its einsum; a sample over it is a
# tile of its own. On the first starv extractor dw2d (29 frames of
# 128×44×44, stride 2) one tile of the whole batch took 16.4 ms against
# 11.6 in these tiles, and tiles of 256 KiB to 4 MiB all took 11.6 to
# 12.3 ms (medians of 9 interleaved calls, 2 vCPUs).
_DEPTHWISE_CHUNK_BYTES = 1 << 20


def _samples_per_tile(xshape, padded, out_sizes, dtype):
    """Whole samples per depthwise tile: as many as fit the chunk with their
    ``padded`` input and their output, and at least one."""
    n, c = xshape[:2]
    sample = dtype.itemsize * c * (math.prod(padded) + math.prod(out_sizes))
    return min(n, max(1, _DEPTHWISE_CHUNK_BYTES // sample))


def _tap_reach(tap, spec, in_sizes, out_sizes):
    """Indices, spatial axes at 1, of the outputs whose kernel ``tap`` reads
    inside the unpadded input and of the input they read; None when the tap
    reads only padding."""
    outs, ins = [], []
    for t, d, s, o, size, (lo, _) in zip(tap, spec.dilation, spec.stride, out_sizes,
                                         in_sizes, spec.pad_pairs()):
        first = max(0, -((t * d - lo) // s))  # first output reading input ≥ 0
        last = min(o - 1, (size - 1 + lo - t * d) // s)
        if last < first:
            return None
        start = first * s + t * d - lo
        outs.append(slice(first, last + 1))
        ins.append(slice(start, start + (last - first) * s + 1, s))
    return (slice(None), *outs), (slice(None), *ins)


def _windows(xp, spec):
    """Read-only (N, *S_out, C, *k) view of a channels-last padded buffer:
    the input each output position reads through each kernel tap."""
    eff = [(k - 1) * d + 1 for k, d in zip(spec.kernel, spec.dilation)]
    win = np.lib.stride_tricks.sliding_window_view(xp, eff, axis=tuple(range(1, 1 + spec.rank)))
    return win[(slice(None),) + tuple(slice(None, None, s) for s in spec.stride)
               + (slice(None),) + tuple(slice(None, None, d) for d in spec.dilation)]


def _depthwise_forward(xd, wd, bd, spec, out_sizes):
    """groups = C_in = C_out: one einsum of each tile's tap windows with the
    (*k, C) taps, straight into a preallocated channels-last output, the
    bias added while the tile is in cache; returned as the (N, C, *S) view.
    Each tile's padded input is gathered channels-last into one reused buffer."""
    n, c = xd.shape[:2]
    dtype = np.result_type(xd, wd, *([] if bd is None else [bd]))
    taps = np.ascontiguousarray(np.moveaxis(wd.reshape(c, *spec.kernel), 0, -1))  # (*k, C)
    padded = [s + lo + hi for s, (lo, hi) in zip(xd.shape[2:], spec.pad_pairs())]
    step = _samples_per_tile(xd.shape, padded, out_sizes, dtype)
    buf = np.zeros((step, *padded, c), dtype)  # its padding stays zero
    y = np.empty((n, *out_sizes, c), dtype)
    o, k = "abc"[:spec.rank], "ijk"[:spec.rank]  # output and kernel axes; z: channels
    for n0 in range(0, n, step):
        src = xd[n0:n0 + step]
        xp = buf[:len(src)]
        xp[_interior(spec, 1)] = np.moveaxis(src, 1, -1)
        out = y[n0:n0 + step]
        np.einsum(f"n{o}z{k},{k}z->n{o}z", _windows(xp, spec), taps, out=out)
        if bd is not None:
            out += bd
    return np.moveaxis(y, -1, 1), xd


def _depthwise_backward(up, wd, spec, xd, need_x, need_w):
    """Per kernel tap, on the forward's tiles of whole samples, over only the
    outputs whose tap reads inside the input, so no padded buffer is made:
    ``up·w_tap`` is added into the channels-last input gradient where the tap
    read, and the tap's weight gradient is one einsum of ``up`` with the
    input it read. Each input-gradient element sums its taps in kernel order."""
    n, c = xd.shape[:2]
    out_sizes = up.shape[2:]
    padded = [s + lo + hi for s, (lo, hi) in zip(xd.shape[2:], spec.pad_pairs())]
    step = _samples_per_tile(xd.shape, padded, out_sizes, up.dtype)
    upl = np.ascontiguousarray(np.moveaxis(up, 1, -1))
    xl = np.moveaxis(xd, 1, -1)
    taps = np.ascontiguousarray(wd.reshape(c, -1).T)  # (taps, C)
    reach = [(t, r) for t, r in enumerate(_tap_reach(tap, spec, xd.shape[2:], out_sizes)
                                          for tap in np.ndindex(*spec.kernel)) if r]
    gx = np.zeros(xl.shape, up.dtype) if need_x else None
    gw = np.zeros(taps.shape, up.dtype) if need_w else None
    tmp = np.empty((step, *out_sizes, c), up.dtype)
    o = "abc"[:spec.rank]
    for n0 in range(0, n, step):
        upt = upl[n0:n0 + step]
        for t, (outs, ins) in reach:
            if need_x:
                gx[n0:n0 + step][ins] += np.multiply(upt[outs], taps[t], out=tmp[:len(upt)][outs])
            if need_w:
                gw[t] += np.einsum(f"n{o}z,n{o}z->z", upt[outs], xl[n0:n0 + step][ins])
    return (None if gx is None else np.moveaxis(gx, -1, 1),
            None if gw is None else gw.T.reshape(wd.shape))


_Route = namedtuple("_Route", "name forward backward")
GEMM = _Route("gemm", _gemm_forward, _gemm_backward)
DEPTHWISE = _Route("depthwise", _depthwise_forward, _depthwise_backward)
FRAME = _Route("frame", _frame_forward, _frame_backward)
POINTWISE = _Route("pointwise", _pointwise_forward, _pointwise_backward)


def _conv_route(spec, in_sizes, out_sizes):
    """The one place a convolution's compute route is chosen, by shape class
    alone: the input's memory layout plays no part.

    - pointwise (groups = 1, k = 1, no padding, output as large as the
      input): one GEMM over the batch, whatever the input's layout;
    - depthwise (groups = C_in = C_out > 1): one einsum over tap windows;
    - frame (C_in = 1, stride 1 on the first axis): per-frame im2col, one
      GEMM per first-axis tap;
    - every other conv, any groups: channels-last im2col + GEMMs over the
      whole batch.
    """
    if (spec.groups == 1 and math.prod(spec.kernel) == 1
            and not any(map(sum, spec.pad_pairs())) and out_sizes == in_sizes):
        return POINTWISE
    if spec.groups == spec.in_channels == spec.out_channels > 1:
        return DEPTHWISE
    if spec.in_channels == 1 and spec.stride[0] == 1:
        return FRAME
    return GEMM


def conv(x, weight, bias=None, spec=None):
    """Grouped, strided, dilated convolution of rank 1..3.

    ``x``: (N, C_in, *S); ``weight``: (C_out, C_in/groups, *k);
    ``bias``: (C_out,) or None. Causal mode preserves the temporal length
    exactly and uses only past context. The compute route comes from
    :func:`_conv_route`.
    """
    if spec is None:
        raise ShapeError("conv requires a ConvSpec")
    rank = spec.rank
    if x.ndim != rank + 2:
        raise ShapeError(f"conv rank {rank} expects (N, C, *S) input of rank {rank + 2}, got {x.ndim}")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    if x.shape[0] == 0:
        raise ShapeError("conv input batch is empty (N = 0)")
    wshape = (spec.out_channels, spec.in_channels // spec.groups) + spec.kernel
    if weight.shape != wshape:
        raise ShapeError(f"weight shape {tuple(weight.shape)} does not match {wshape}")
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ShapeError(f"bias shape {tuple(bias.shape)} does not match ({spec.out_channels},)")
    out_sizes = spec.out_sizes(x.shape[2:])
    return _conv_via(_conv_route(spec, x.shape[2:], out_sizes), x, weight, bias, spec, out_sizes)


def _conv_via(route, x, weight, bias, spec, out_sizes):
    """Run one checked convolution on ``route`` and record its backward."""
    y, saved = route.forward(x.data, weight.data, None if bias is None else bias.data,
                             spec, out_sizes)
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def make_backward():
        wd, need_x, need_w = weight.data, x.requires_grad, weight.requires_grad
        need_b = None if bias is None else bias.requires_grad

        def bwd(up):
            gx, gw = route.backward(up, wd, spec, saved, need_x, need_w)
            if need_b is None:
                return gx, gw
            gb = up.sum(axis=(0,) + tuple(range(2, 2 + spec.rank))) if need_b else None
            return gx, gw, gb

        return bwd

    return apply_op("conv", inputs, y, make_backward)


def batch_norm_affine(gamma, beta, mean, var, eps, dtype):
    """Eval-mode batch norm as ``x * scale + shift``, per channel, in ``dtype``."""
    denom = var.astype(dtype) + eps
    if np.any(denom <= 0):
        raise NumericError("batch_norm variance estimate is non-positive after eps")
    scale = gamma.astype(dtype) / np.sqrt(denom)
    return scale, beta.astype(dtype) - mean.astype(dtype) * scale


def batch_norm(x, gamma, beta, running_mean, running_var, eps=1e-5,
               momentum=0.1, training=False):
    """Per-channel batch normalization over a batched (N, C, *S) input.

    Training mode normalizes with batch statistics and updates the running
    arrays in place (plain ndarrays, not tensors); inference mode is one
    multiply-add with the running statistics. ``gamma``/``beta`` are the
    affine parameters. The output is channels-last in training and keeps
    the input's memory layout in inference.
    """
    if x.ndim < 2:
        raise ShapeError("batch_norm expects a batched (N, C, ...) input")
    c = x.shape[1]
    for name, p in (("gamma", gamma), ("beta", beta)):
        if p.shape != (c,):
            raise ShapeError(f"{name} length {p.shape} does not match {c} channels")
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise ShapeError("running statistics length does not match channel count")
    if training:
        if x.shape[0] == 0 or 0 in x.shape[2:]:
            raise ShapeError(f"batch_norm training batch is empty: input {tuple(x.shape)} has no rows")
        return _batch_norm_training(x, gamma, beta, running_mean, running_var, eps, momentum)

    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, c) + (1,) * (x.ndim - 2)
    scale, shift = batch_norm_affine(gamma.data, beta.data, running_mean, running_var,
                                     eps, x.dtype)
    y = x.data * scale.reshape(bshape)
    y += shift.reshape(bshape)

    def make_backward():
        mu = running_mean.astype(x.dtype)
        inv = 1.0 / np.sqrt(running_var.astype(x.dtype) + eps)
        xd = x.data if gamma.requires_grad else None  # only the gamma gradient reads it
        need_x, need_b = x.requires_grad, beta.requires_grad

        def bwd(up):
            gb = up.sum(axis=axes) if need_b else None
            gg = None
            if xd is not None:
                gg = (up * ((xd - mu.reshape(bshape)) * inv.reshape(bshape))).sum(axis=axes)
            gx = scale.reshape(bshape) * up if need_x else None
            return gx, gg, gb

        return bwd

    return apply_op("batch_norm", (x, gamma, beta), y, make_backward)


def _batch_norm_training(x, gamma, beta, running_mean, running_var, eps, momentum):
    """Training-mode batch norm on the (rows, C) view of a channels-last
    input (a reshape of any other layout), returned channels-last. It keeps
    the centred input ``xc``, C-order, for the backward, where ``x̂ = xc·inv``;
    the per-channel sums are GEMVs with a ones vector, and the variance and
    ``Σ up·xc`` are einsums, so no squared temporary is made."""
    n, c = x.shape[:2]
    last = x.shape[:1] + x.shape[2:] + (c,)  # the channels-last shape

    def rows(a):
        return np.moveaxis(a, 1, -1).reshape(-1, c)

    def back(a):
        return np.moveaxis(a.reshape(last), -1, 1)

    xv = rows(x.data)
    m = len(xv)
    ones = np.ones(m, xv.dtype)
    mu = ones @ xv / m
    xc = np.subtract(xv, mu, order="C")  # also where the reshape viewed another layout
    var = np.einsum("rc,rc->c", xc, xc) / m
    if not math.isfinite(var.max()):  # an inf would output β; NaN propagates through max
        raise NumericError("batch_norm batch variance is not finite")
    denom = var + eps
    if np.any(denom <= 0):
        raise NumericError("batch_norm variance estimate is non-positive after eps")
    unbias = m / (m - 1) if m > 1 else 1.0
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu
    running_var *= 1.0 - momentum
    running_var += momentum * var * unbias
    inv = 1.0 / np.sqrt(denom)
    scale = gamma.data * inv
    yv = xc * scale
    yv += beta.data

    def make_backward():
        need_x, need_g, need_b = x.requires_grad, gamma.requires_grad, beta.requires_grad

        def bwd(up):
            upv = rows(up)
            gb = ones @ upv if need_b or need_x else None
            gg = None
            if need_g or need_x:
                gg = np.einsum("rc,rc->c", upv, xc) * inv  # Σ up·x̂
            gx = None
            if need_x:  # scale·(up − Σup/m − x̂·Σup·x̂/m), in one buffer
                gx = np.multiply(xc, gg * inv / -m)
                gx -= gb / m
                gx += upv
                gx *= scale
                gx = back(gx)
            return gx, gg if need_g else None, gb if need_b else None

        return bwd

    return apply_op("batch_norm", (x, gamma, beta), back(yv), make_backward)


def relu(x):
    def make_backward():
        mask = x.data > 0

        def bwd(up):
            return (up * mask,)

        return bwd

    return apply_op("relu", (x,), np.maximum(x.data, 0), make_backward)


def relu6(x):
    def make_backward():
        mask = (x.data > 0) & (x.data < 6)

        def bwd(up):
            return (up * mask,)

        return bwd

    return apply_op("relu6", (x,), np.clip(x.data, 0, 6), make_backward)


def hadamard(a, b):
    """Elementwise product of two equal-shaped tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"hadamard shapes differ: {tuple(a.shape)} vs {tuple(b.shape)}")

    def make_backward():
        ad = a.data if b.requires_grad else None
        bd = b.data if a.requires_grad else None

        def bwd(up):
            return (None if bd is None else up * bd), (None if ad is None else up * ad)

        return bwd

    return apply_op("hadamard", (a, b), a.data * b.data, make_backward)


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {tuple(a.shape)} vs {tuple(b.shape)}")

    def make_backward():
        need_a, need_b = a.requires_grad, b.requires_grad

        def bwd(up):
            return (up if need_a else None, up if need_b else None)

        return bwd

    return apply_op("add", (a, b), a.data + b.data, make_backward)


def concat(tensors, axis):
    tensors = list(tensors)
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref) or any(
            i != axis and a != b for i, (a, b) in enumerate(zip(t.shape, ref))
        ):
            raise ShapeError("concat inputs differ on a non-concatenated axis")
    sizes = [t.shape[axis] for t in tensors]

    def make_backward():
        needs = [t.requires_grad for t in tensors]

        def bwd(up):
            grads = []
            start = 0
            for need, s in zip(needs, sizes):
                index = tuple(
                    slice(start, start + s) if i == axis else slice(None)
                    for i in range(len(ref))
                )
                grads.append(up[index] if need else None)
                start += s
            return tuple(grads)

        return bwd

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return apply_op("concat", tuple(tensors), data, make_backward)


def narrow(x, axis, start, stop):
    """Contiguous slice along one axis."""
    if not (0 <= start < stop <= x.shape[axis]):
        raise ShapeError(f"invalid slice [{start}:{stop}] for axis of size {x.shape[axis]}")
    index = tuple(slice(start, stop) if i == axis else slice(None) for i in range(x.ndim))

    def make_backward():
        shape, dtype = x.shape, x.dtype

        def bwd(up):
            g = np.zeros(shape, dtype)
            g[index] = up
            return (g,)

        return bwd

    return apply_op("narrow", (x,), x.data[index].copy(), make_backward)


def global_average_pool(x, axes, valid_len=None):
    """Mean over ``axes``; with ``valid_len``, only the leading valid positions
    of the single reduced axis contribute. ``valid_len`` is one length for
    every sample or a shape (N,) array with one length per sample, of an
    integer type: a bool or a float is refused, not truncated."""
    axes = (axes,) if isinstance(axes, int) else tuple(axes)
    if any(a < 0 or a >= x.ndim for a in axes):
        raise ShapeError(f"axes {axes} out of range for rank {x.ndim}")
    if valid_len is None:
        return _reduce("mean", x, axes)
    if len(axes) != 1:
        raise ShapeError("valid_len masking applies to exactly one axis")
    axis = axes[0]
    t = x.shape[axis]
    lens = np.asarray(valid_len, dtype=object)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in lens.flat):
        raise ShapeError(f"valid lengths must be integers, got {valid_len!r}")
    if lens.ndim and lens.shape != x.shape[:1]:
        raise ShapeError(f"valid lengths must be a scalar or of shape ({x.shape[0]},), got {lens.shape}")
    if np.any(lens <= 0) or np.any(lens > t):  # before the int64 cast, which a huge int overflows
        raise ShapeError(f"valid lengths must lie in 1..{t}, got {lens}")
    lens = lens.astype(np.int64)
    # mask broadcast over the reduced axis, per batch entry when lens is a vector
    pos = np.arange(t).reshape((1,) * axis + (t,) + (1,) * (x.ndim - axis - 1))
    lshape = ((-1,) + (1,) * (x.ndim - 1)) if lens.ndim else lens.shape
    mask = (pos < lens.reshape(lshape)).astype(x.dtype)
    denom = np.broadcast_to(lens.reshape(lshape).astype(x.dtype), mask.shape)
    weights = mask / denom
    data = (x.data * weights).sum(axis=axis)

    def make_backward():
        def bwd(up):
            return (np.expand_dims(up, axis) * weights,)

        return bwd

    return apply_op("masked_mean", (x,), data, make_backward)


def linear(x, weight, bias=None):
    """Affine map on the last axis: y = x W^T + b, weight (out, in)."""
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"linear input dim {x.shape[-1]} does not match weight in-dim {weight.shape[1]}"
        )
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError("bias length does not match weight out-dim")
    y = x.data @ weight.data.T
    if bias is not None:
        y = y + bias.data
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def make_backward():
        wd, need_x = weight.data, x.requires_grad
        xd = x.data if weight.requires_grad else None  # only the weight gradient reads it
        need_b = None if bias is None else bias.requires_grad

        def bwd(up):
            gx = up @ wd if need_x else None
            gw = None
            if xd is not None:
                gw = up.reshape(-1, wd.shape[0]).T @ xd.reshape(-1, wd.shape[1])
            if need_b is None:
                return gx, gw
            gb = up.reshape(-1, wd.shape[0]).sum(axis=0) if need_b else None
            return gx, gw, gb

        return bwd

    return apply_op("linear", inputs, y, make_backward)


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis`` (max-subtracted)."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def make_backward():
        def bwd(up):
            dot = (up * s).sum(axis=axis, keepdims=True)
            return (s * (up - dot),)

        return bwd

    return apply_op("softmax", (x,), s, make_backward)


def cross_entropy(logits, targets):
    """Mean soft-target cross entropy over the batch; stable log-softmax form.

    ``logits``: (N, K); ``targets``: (N, K) rows that sum to 1 (one-hot or
    mixed). Returns a scalar tensor.
    """
    if logits.ndim != 2 or logits.shape != targets.shape:
        raise ShapeError(
            f"cross_entropy expects matching (N, K), got {tuple(logits.shape)} and {tuple(targets.shape)}"
        )
    n = logits.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -(targets.data * logp).sum() / n

    def make_backward():
        td, need_l, need_t = targets.data, logits.requires_grad, targets.requires_grad

        def bwd(up):
            gl = None
            if need_l:
                p = np.exp(logp)
                gl = up * (p - td) / n
            gt = (-up * logp / n) if need_t else None
            return gl, gt

        return bwd

    return apply_op("cross_entropy", (logits, targets), loss, make_backward)


def dropout(x, p, rng, training):
    """Inverted dropout: scales kept units by 1/(1-p) during training only."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout rate must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)

    def make_backward():
        def bwd(up):
            return (up * keep,)

        return bwd

    return apply_op("dropout", (x,), x.data * keep, make_backward)


def reshape(x, shape):
    """The values of ``x`` in ``shape``, always in C-order memory: a strided
    input is copied even where numpy could return a view."""
    def make_backward():
        in_shape = x.shape

        def bwd(up):
            return (up.reshape(in_shape),)

        return bwd

    return apply_op("reshape", (x,), np.asarray(x.data.reshape(shape), order="C"), make_backward)


def moveaxis(x, src, dst):
    def make_backward():
        def bwd(up):
            return (np.moveaxis(up, dst, src),)

        return bwd

    return apply_op("moveaxis", (x,), np.moveaxis(x.data, src, dst), make_backward)


def _reduce(op, x, axes=None):
    """The sum (``op`` "sum") or mean ("mean") of ``x`` over ``axes``, every
    axis if None; the backward spreads the upstream gradient back over them,
    divided by their count for a mean."""
    mean = op == "mean"
    data = x.data.mean(axis=axes) if mean else x.data.sum(axis=axes)

    def make_backward():
        shape = x.shape
        count = math.prod(shape if axes is None else (shape[a] for a in axes))

        def bwd(up):
            g = up if axes is None else np.expand_dims(up, axes)
            return (np.broadcast_to(g / count if mean else g, shape).copy(),)

        return bwd

    return apply_op(op, (x,), data, make_backward)


def tensor_sum(x):
    return _reduce("sum", x)


def tensor_mean(x):
    return _reduce("mean", x)
