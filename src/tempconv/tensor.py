"""Dense float tensors with optional reverse-mode gradient recording.

Values are numpy arrays in float32 (default) or float64 (used for gradient
checking), validated finite on creation so that a computation fails at the op
that made a NaN/Inf. A fast-eval ``Model.forward`` (eval, no tape) checks only its
logits and re-runs with per-op checks on a failure, to name the op; there a ±inf
that an eval ReLU or ReLU6 clamps to its limit (0 or 6) no longer raises.

A :class:`GradTape` holds no Tensor but the leaves whose ``.grad`` it writes:
its nodes route gradients by key, and each backward closure keeps only the
flags, shapes and arrays it reads, so an activation no backward reads is
freed during the forward.
"""
from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager

import numpy as np

from .errors import NumericError, TapeError

FLOAT_DTYPES = (np.float32, np.float64)

# one process-wide source of tape keys: unlike ``id()``, a key is never
# reused after its Tensor is freed
_keys = itertools.count()


class Tensor:
    """A shaped, immutable-by-convention float32/float64 array, finite unless :func:`unchecked`.

    ``requires_grad`` marks leaf parameters; intermediate results inherit it
    from their inputs. Gradients accumulate additively into ``.grad`` across
    ``backward`` calls until ``zero_grad``-style resets.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op", "_key")

    def __init__(self, data, requires_grad=False, dtype=None, _op=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if not getattr(_state, "unchecked", False) and not np.isfinite(arr).all():
            where = _op if _op is not None else "tensor construction"
            raise NumericError(f"non-finite values produced by {where}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._op = _op
        self._key = None  # set once the Tensor is recorded or enters a tape

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        grad = ", grad" if self.grad is not None else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}{grad})"


class _TapeNode:
    """One recorded op: its result's key and, per input, ``(key, shape,
    leaf, gap)``: ``leaf`` is the requires-grad leaf Tensor that receives
    ``.grad`` (else None) and ``gap`` the op name of an input made off this
    tape."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_state = threading.local()


@contextmanager
def unchecked():
    """Create Tensors on this thread without the finite check."""
    _state.unchecked = True
    try:
        yield
    finally:
        _state.unchecked = False


def _tape_stack():
    if not hasattr(_state, "stack"):
        _state.stack = []
    return _state.stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class GradTape:
    """Ordered record of differentiable ops executed while the tape is active.

    Use as a context manager around a forward pass; ``backward`` then replays
    the record in exact reverse execution order. A tape is single-owner:
    recording and backward must happen on one thread.
    """

    def __init__(self):
        self._nodes = []
        self._output_keys = set()

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._nodes)

    def _record(self, op, inputs, output, backward_fn):
        entries = []
        for t in inputs:
            if t._key is None:
                t._key = next(_keys)
            leaf = t if t._op is None and t.requires_grad else None
            gap = t._op if t._op is not None and t._key not in self._output_keys else None
            entries.append((t._key, t.shape, leaf, gap))
        output._key = next(_keys)
        self._output_keys.add(output._key)
        self._nodes.append(_TapeNode(op, tuple(entries), output._key, backward_fn))

    def backward(self, loss):
        """Accumulate d(loss)/d(leaf) into each reachable leaf's ``.grad``.

        Returns a map {leaf Tensor: accumulated gradient array} for every
        parameter (requires_grad leaf) the loss depends on. Raises TapeError
        if an ancestor op of the loss was executed outside this tape. The
        tape is left as it was, so it can run backward again.
        """
        if loss.size != 1:
            raise TapeError(f"backward needs a scalar loss, got shape {tuple(loss.shape)}")
        if loss._op is not None and loss._key not in self._output_keys:
            raise TapeError("loss was not produced on this tape (tape gap)")

        grad_of = {loss._key: np.ones_like(loss.data)}
        leaves = {loss._key: loss} if loss._op is None and loss.requires_grad else {}
        for node in reversed(self._nodes):
            # an op result's gradient is complete once its node is reached
            # (later nodes ran first), so it is dropped here; leaves' stay
            upstream = grad_of.pop(node.output, None)
            if upstream is None:
                continue
            input_grads = node.backward_fn(upstream)
            for (key, shape, leaf, gap), g in zip(node.inputs, input_grads):
                if g is None:
                    continue
                if g.shape != shape:
                    raise TapeError(
                        f"{node.op}: gradient shape {g.shape} does not match input {shape}"
                    )
                if gap is not None:
                    raise TapeError(
                        f"ancestor op '{gap}' was not recorded on this tape (tape gap)"
                    )
                if key in grad_of:
                    grad_of[key] = grad_of[key] + g
                else:
                    grad_of[key] = g
                    if leaf is not None:
                        leaves[key] = leaf

        result = {}
        for key, t in leaves.items():
            g = grad_of[key]
            t.grad = g.copy() if t.grad is None else t.grad + g
            result[t] = t.grad
        return result


def apply_op(op, inputs, data, make_backward):
    """Wrap an op result, recording it on the active tape when gradients flow.

    ``make_backward`` is called lazily (only when recording) and must return a
    closure mapping the upstream gradient to one gradient array per input
    (None for inputs that do not require gradients).
    """
    requires_grad = any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=requires_grad, _op=op)
    tape = active_tape()
    if tape is not None and requires_grad:
        tape._record(op, tuple(inputs), out, make_backward())
    return out
