"""Dense float tensors with optional reverse-mode gradient recording.

Values are numpy arrays in float32 (default) or float64 (used for gradient
checking), validated finite on creation so that a computation fails at the op
that made a NaN/Inf. A fast-eval ``Model.forward`` (eval, no tape) checks only its
logits and re-runs with per-op checks on a failure, to name the op; there a ±inf
that an eval ReLU or ReLU6 clamps to its limit (0 or 6) no longer raises.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import NumericError, TapeError

FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A shaped, immutable-by-convention float32/float64 array, finite unless :func:`unchecked`.

    ``requires_grad`` marks leaf parameters; intermediate results inherit it
    from their inputs. Gradients accumulate additively into ``.grad`` across
    ``backward`` calls until ``zero_grad``-style resets.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op")

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
        self._output_ids = set()

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
        self._nodes.append(_TapeNode(op, inputs, output, backward_fn))
        self._output_ids.add(id(output))

    def backward(self, loss):
        """Accumulate d(loss)/d(leaf) into each reachable leaf's ``.grad``.

        Returns a map {leaf Tensor: accumulated gradient array} for every
        parameter (requires_grad leaf) the loss depends on. Raises TapeError
        if an ancestor op of the loss was executed outside this tape.
        """
        if loss.size != 1:
            raise TapeError(f"backward needs a scalar loss, got shape {tuple(loss.shape)}")
        if loss._op is not None and id(loss) not in self._output_ids:
            raise TapeError("loss was not produced on this tape (tape gap)")

        grad_of = {id(loss): np.ones_like(loss.data)}
        seen = {id(loss): loss}
        for node in reversed(self._nodes):
            # an op result's gradient is complete once its node is reached
            # (later nodes ran first), so it is dropped here; leaves' stay
            upstream = grad_of.pop(id(node.output), None)
            if upstream is None:
                continue
            input_grads = node.backward_fn(upstream)
            for inp, g in zip(node.inputs, input_grads):
                if g is None:
                    continue
                if g.shape != inp.shape:
                    raise TapeError(
                        f"{node.op}: gradient shape {g.shape} does not match input {inp.shape}"
                    )
                tid = id(inp)
                if tid in grad_of:
                    grad_of[tid] = grad_of[tid] + g
                else:
                    grad_of[tid] = g
                    seen[tid] = inp

        result = {}
        for tid, t in seen.items():
            if t._op is not None and tid not in self._output_ids:
                raise TapeError(
                    f"ancestor op '{t._op}' was not recorded on this tape (tape gap)"
                )
            if t._op is None and t.requires_grad:
                g = grad_of[tid]
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
