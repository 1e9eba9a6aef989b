"""Stateful layers on top of the functional ops.

``Module`` auto-registers parameters (``Tensor`` attributes) and child
modules in definition order, which fixes the iteration order used for
initialization, checkpoints, and optimizer updates.

Layers declare their parameters and buffers by shape only: a declared
array is a read-only broadcast of its fill value and takes no memory until
``init_parameters`` or ``allocate`` gives it storage, so a module tree can
be counted (and refused) before any weight exists.

A conv with a norm is one :class:`ConvNorm` unit, which folds the norm into
the conv in :func:`fast_eval`; ``Sequential`` runs its layers in turn.
"""
from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from . import ops
from .errors import ConfigError, FormatError, ShapeError
from .ops import ConvSpec
from .tensor import Tensor, active_tape


class Module:
    """Base class: parameter/submodule registry, train/eval mode, casting."""

    def __init__(self):
        object.__setattr__(self, "_params", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        params = self.__dict__.get("_params")
        if params is None:
            # plain attributes may precede __init__; tracked values may not
            if isinstance(value, (Tensor, Module)):
                raise TypeError(
                    "Module.__init__ must run before assigning parameters or submodules"
                )
            object.__setattr__(self, name, value)
            return
        for registry in (self._params, self._buffers, self._modules):
            registry.pop(name, None)
        if isinstance(value, Tensor):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array):
        """Track a non-learnable array (e.g. running statistics)."""
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    # -- registry walks ----------------------------------------------------

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, m in self._modules.items():
            yield from m.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix=""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, m in self._modules.items():
            yield from m.named_buffers(prefix + name + ".")

    def modules(self):
        yield self
        for m in self._modules.values():
            yield from m.modules()

    def param_count(self):
        return sum(p.size for p in self.parameters())

    # -- mode and dtype ----------------------------------------------------

    def train(self, mode=True):
        object.__setattr__(self, "training", mode)
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def astype(self, dtype):
        """Cast parameters and buffers in place; tensor identity is kept."""
        for m in self.modules():
            m._cast(np.dtype(dtype))
        return self

    def _cast(self, dtype):
        for p in self._params.values():
            p.data = p.data.astype(dtype)
            p.grad = None
        for name in list(self._buffers):
            self.register_buffer(name, self._buffers[name].astype(dtype))

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    # -- init and state ----------------------------------------------------

    def init_parameters(self, rng):
        """Deterministically (re)initialize every layer in definition order."""
        self.allocate()
        for m in self.modules():
            m.reset_parameters(rng)
        return self

    def allocate(self):
        """Give every declared parameter and buffer its own writeable storage."""
        for p in self.parameters():
            if not p.data.flags.writeable:
                p.data = p.data.copy()
        for m in self.modules():
            for name, b in list(m._buffers.items()):
                if not b.flags.writeable:
                    m.register_buffer(name, b.copy())
        return self

    def reset_parameters(self, rng):
        pass

    def state_dict(self):
        state = OrderedDict((k, v.data.copy()) for k, v in self.named_parameters())
        for k, v in self.named_buffers():
            state[k] = v.copy()
        return state

    def load_state_dict(self, state):
        own = OrderedDict(self.named_parameters())
        bufs = OrderedDict(self.named_buffers())
        expected = set(own) | set(bufs)
        got = set(state)
        if expected != got:
            missing = sorted(expected - got)[:4]
            extra = sorted(got - expected)[:4]
            raise FormatError(f"state mismatch; missing {missing}, unexpected {extra}")
        self.allocate()  # buffers are written in place
        for k, p in own.items():
            arr = np.asarray(state[k])
            if arr.shape != p.shape:
                raise ShapeError(f"state entry '{k}' has shape {arr.shape}, expected {tuple(p.shape)}")
            p.data = arr.astype(p.dtype, copy=True)
            p.grad = None
        for k in bufs:
            arr = np.asarray(state[k])
            if arr.shape != bufs[k].shape:
                raise ShapeError(f"state entry '{k}' has shape {arr.shape}, expected {bufs[k].shape}")
            bufs[k][...] = arr

    # -- forward and audit -------------------------------------------------

    def forward(self, x):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


# refuse configs whose parameter total would not fit in desk-scale memory
PARAM_BUDGET_CAP = 1_000_000_000

# Stages of the temporal stack and of the extractor. LWT1 stores sizes under
# 2**32: temporal stage i dilates by 2**i, so every dilated tap of a 33rd one
# reads only padding, and each extractor stage halves the frame, so a 33rd one
# could never run.
MAX_STAGES = 32


def _declare(shape, fill=0.0):
    """A float32 parameter known by shape; it holds ``fill`` until allocated.

    One parameter over the whole budget cap is refused here, before numpy
    is asked for an array that large.
    """
    size = math.prod(shape)
    if size > PARAM_BUDGET_CAP:
        raise ConfigError(f"a parameter of shape {shape} has {size:,} entries, over the "
                          f"{PARAM_BUDGET_CAP:,} budget cap")
    p = Tensor(np.float32(fill), requires_grad=True)
    p.data = np.broadcast_to(p.data, shape)
    return p


def _uniform_fill(rng, tensor, bound):
    tensor.data[...] = rng.uniform(-bound, bound, size=tensor.shape).astype(tensor.dtype)


class Conv(Module):
    """Convolution of rank 1..3 driven by a :class:`ConvSpec`."""

    def __init__(self, spec, bias=True):
        super().__init__()
        self.spec = spec
        wshape = (spec.out_channels, spec.in_channels // spec.groups) + spec.kernel
        self.weight = _declare(wshape)
        self.bias = _declare((spec.out_channels,)) if bias else None

    def reset_parameters(self, rng):
        fan_in = (self.spec.in_channels // self.spec.groups) * math.prod(self.spec.kernel)
        bound = 1.0 / math.sqrt(fan_in)
        _uniform_fill(rng, self.weight, bound)
        if self.bias is not None:
            _uniform_fill(rng, self.bias, bound)

    def forward(self, x):
        return ops.conv(x, self.weight, self.bias, self.spec)


def Conv1d(in_channels, out_channels, kernel, dilation=1, groups=1,
           causal=False, padding=None, bias=True):
    spec = ConvSpec(in_channels, out_channels, (kernel,), dilation=(dilation,),
                    groups=groups, causal=causal,
                    padding=None if padding is None else (padding,))
    return Conv(spec, bias=bias)


def Conv2d(in_channels, out_channels, kernel, stride=1, padding=None, groups=1, bias=True):
    spec = ConvSpec(in_channels, out_channels, _pair(kernel, 2), stride=_pair(stride, 2),
                    padding=padding if padding is None else _pair(padding, 2), groups=groups)
    return Conv(spec, bias=bias)


def Conv3d(in_channels, out_channels, kernel, stride=1, padding=None, groups=1, bias=True):
    spec = ConvSpec(in_channels, out_channels, _pair(kernel, 3), stride=_pair(stride, 3),
                    padding=padding if padding is None else _pair(padding, 3), groups=groups)
    return Conv(spec, bias=bias)


def _pair(v, rank):
    return (v,) * rank if isinstance(v, int) else tuple(v)


class BatchNorm(Module):
    """Batch normalization over channel axis 1 of a batched input."""

    def __init__(self, channels, eps=1e-5, momentum=0.1):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = _declare((channels,), fill=1.0)
        self.beta = _declare((channels,))
        self.register_buffer("running_mean", np.broadcast_to(np.float32(0.0), (channels,)))
        self.register_buffer("running_var", np.broadcast_to(np.float32(1.0), (channels,)))

    def reset_parameters(self, rng):
        self.gamma.data[...] = 1.0
        self.beta.data[...] = 0.0
        self.running_mean[...] = 0.0
        self.running_var[...] = 1.0

    def forward(self, x):
        if self.training and not self.running_mean.flags.writeable:
            self.allocate()  # training updates the declared running statistics in place
        return ops.batch_norm(x, self.gamma, self.beta, self.running_mean,
                              self.running_var, eps=self.eps,
                              momentum=self.momentum, training=self.training)


def fast_eval(module):
    """Eval with no tape: no backward reads an op's result, so a fresh result
    may be overwritten by the op that consumes it, and norms fold."""
    return not module.training and active_tape() is None


def residual(module, y, x):
    """``y + x`` for the fresh body output ``y`` of ``module``; in
    :func:`fast_eval`, ``x`` is added into ``y``, which nothing else holds.
    An ``x`` laid out otherwise, such as a frontend-less caller's
    channels-first input, is copied into ``y``'s layout first: numpy's add
    across the two layouts took 10.8 ms on a (2, 512, 1024) pair, the copy
    and add 2.3 ms."""
    if not fast_eval(module):
        return ops.add(y, x)
    xd = x.data
    if xd.strides != y.data.strides:
        xd = np.empty_like(y.data)
        xd[...] = x.data
    y.data += xd
    return Tensor(y.data, _op="add")


# Bytes of expanded activations that one tile of an eval expanding block
# (an extractor bottleneck, a star block's pointwise section) holds at once.
# 8 MiB tiles took the tracemalloc peak of a frontend-less starv forward at
# (2, 512, 1024) from 44.0 to 26.0 MiB and of a 1×29×88×88 clip from 49.7
# to 28.1 MiB, at whole-tensor latency (in-process medians, 2 vCPUs);
# smaller tiles cost time: up to 3 % at 4 MiB, 5-17 % at 2, 11-38 % at 1.
_EVAL_TILE_BYTES = 8 << 20


def eval_tiles(x, axis, item_bytes, units, run):
    """``run(x, folds)`` on tiles of ``x`` along ``axis`` of about
    ``_EVAL_TILE_BYTES`` at ``item_bytes`` per index, joined in one Tensor
    laid out like the first; ``folds`` are the :meth:`ConvNorm.fold` of
    ``units``, made once. ``run`` must not mix across ``axis``. One run takes
    the whole ``x`` where a unit does not fold or one tile covers the axis."""
    size = x.shape[axis]
    step = max(1, _EVAL_TILE_BYTES // item_bytes)
    folds = [unit.fold() for unit in units]
    if step >= size or None in folds:
        return run(x, folds)
    out = None
    for start in range(0, size, step):
        index = (slice(None),) * axis + (slice(start, start + step),)
        y = run(Tensor(x.data[index]), folds)
        if out is None:
            out = np.empty_like(y.data, shape=y.shape[:axis] + (size,) + y.shape[axis + 1:])
        out[index] = y.data
    return Tensor(out, _op=y._op)


class ConvNorm(Module):
    """``conv``, then a :class:`BatchNorm` ``bn`` at its output width, then a
    ReLU if ``relu``. In :func:`fast_eval` one conv runs with the :meth:`fold`
    weight and bias, and the ReLU clamps its fresh output in place: one
    Tensor, one finite check."""

    def __init__(self, conv, relu=False):
        super().__init__()
        self.conv = conv
        self.bn = BatchNorm(conv.spec.out_channels)
        self.relu = relu

    def fold(self):
        """The conv's weight ``W·s`` and bias ``(b − μ)·s + β`` Tensors,
        ``s = γ/√(var + eps)``, made per call from the current parameters and
        running statistics, so nothing is cached; None outside :func:`fast_eval`."""
        bn = self.bn
        if not fast_eval(bn):
            return None
        w = self.conv.weight.data
        scale, shift = ops.batch_norm_affine(bn.gamma.data, bn.beta.data, bn.running_mean,
                                             bn.running_var, bn.eps, w.dtype)
        if self.conv.bias is not None:
            shift = self.conv.bias.data * scale + shift
        return Tensor(w * scale.reshape((-1,) + (1,) * (w.ndim - 1))), Tensor(shift)

    def forward(self, x, fold=None):
        """The unit on ``x``; a caller running the conv over many tiles
        passes the ``fold`` it made once."""
        fold = fold or self.fold()
        if fold is None:
            y = self.bn(self.conv(x))
            return ops.relu(y) if self.relu else y
        y = ops.conv(x, *fold, self.conv.spec)
        if self.relu:
            np.maximum(y.data, 0, out=y.data)
        return y


class Dropout(Module):
    """Inverted dropout with a private, reseedable generator."""

    def __init__(self, p):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ShapeError(f"dropout rate must lie in [0, 1), got {p}")
        self.p = p
        object.__setattr__(self, "_rng", np.random.default_rng(0))

    def reset_parameters(self, rng):
        # draw a child seed so dropout streams are part of the init seed
        self.reseed(int(rng.integers(0, 2**63 - 1)))

    def reseed(self, seed):
        object.__setattr__(self, "_rng", np.random.default_rng(seed))

    def forward(self, x):
        return ops.dropout(x, self.p, self._rng, self.training)


class Linear(Module):
    def __init__(self, in_features, out_features, bias=True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = _declare((out_features, in_features))
        self.bias = _declare((out_features,)) if bias else None

    def reset_parameters(self, rng):
        bound = 1.0 / math.sqrt(self.in_features)
        _uniform_fill(rng, self.weight, bound)
        if self.bias is not None:
            _uniform_fill(rng, self.bias, bound)

    def forward(self, x):
        return ops.linear(x, self.weight, self.bias)


class Sequential(Module):
    def __init__(self, *layers):
        super().__init__()
        for layer in layers:
            self.append(layer)

    def append(self, layer):
        self._modules[str(len(self._modules))] = layer
        return self

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self):
        return len(self._modules)

    def forward(self, x):
        for layer in self:
            x = layer(x)
        return x
