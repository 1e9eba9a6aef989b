"""Central finite-difference verification of recorded gradients."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .tensor import GradTape, Tensor

_REL_FLOOR = 1e-6


@dataclass
class GradCheckResult:
    ok: bool
    max_rel_err: float
    checked: int
    worst: tuple = None  # (param_index, flat_coord, analytic, numeric)

    def __str__(self):
        state = "PASS" if self.ok else "FAIL"
        return f"gradcheck {state}: {self.checked} coords, max rel err {self.max_rel_err:.3e}"


def grad_check(fn, params, h=1e-4, tol=1e-3, coords_per_param=5, rng=None):
    """Compare tape gradients of ``fn()`` against central differences.

    ``fn`` is a zero-argument callable returning a scalar Tensor and closing
    over ``params`` (leaf tensors with ``requires_grad``). The check runs in
    64-bit: every parameter must be float64. For each parameter up to
    ``coords_per_param`` coordinates are probed (all of them when the
    parameter is small). Relative error uses a small absolute floor so that
    near-zero gradient pairs compare sanely.

    Raises :class:`NumericError` if two forward evaluations disagree, since
    finite differencing a nondeterministic function is meaningless.
    """
    params = list(params)
    if not params:
        return GradCheckResult(ok=True, max_rel_err=0.0, checked=0)
    if len({id(p) for p in params}) != len(params):
        raise NumericError("duplicate parameter passed to grad_check")
    for i, p in enumerate(params):
        if p.dtype != np.float64:
            raise NumericError(f"grad_check requires float64 parameters, param {i} is {p.dtype}")
    rng = rng if rng is not None else np.random.default_rng(0)

    ref_a = float(fn().data)
    ref_b = float(fn().data)
    if ref_a != ref_b:
        raise NumericError(
            "function is not deterministic across evaluations; "
            "fix its randomness before finite differencing"
        )

    with GradTape() as tape:
        loss = fn()
    grads = tape.backward(loss)

    max_err = 0.0
    worst = None
    checked = 0
    for pi, p in enumerate(params):
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        if p.size <= coords_per_param:
            coords = np.arange(p.size)
        else:
            coords = rng.choice(p.size, size=coords_per_param, replace=False)
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for ci in coords:
            ci = int(ci)
            orig = flat[ci]
            flat[ci] = orig + h
            f_plus = float(fn().data)
            flat[ci] = orig - h
            f_minus = float(fn().data)
            flat[ci] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(aflat[ci])
            err = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
            checked += 1
            if err > max_err:
                max_err = err
                worst = (pi, ci, a, numeric)
    return GradCheckResult(ok=max_err < tol, max_rel_err=max_err, checked=checked, worst=worst)


# -- architecture gradient suite ------------------------------------------

def _block_case(kind, seed, channels=8, t=7, batch=2):
    from . import ops
    from .blocks import make_block

    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    block = make_block(kind, channels, dilation=2, dropout=0.0)
    block.init_parameters(rng)
    block.astype(np.float64)
    block.train()  # exercise the batch-statistics normalization backward
    x = Tensor(rng.standard_normal((batch, channels, t)))
    probe = Tensor(rng.standard_normal((batch, channels, t)))

    def fn():
        return ops.tensor_sum(ops.hadamard(block(x), probe))

    return fn, block.parameters()


def _head_case(seed, channels=8, t=7, batch=3, classes=5):
    from . import ops
    from .frontend import ClassifierHead

    rng = np.random.default_rng(np.random.SeedSequence([seed, 6]))
    head = ClassifierHead(channels, classes)
    head.init_parameters(rng)
    head.astype(np.float64)
    x = Tensor(rng.standard_normal((batch, channels, t)))
    lens = np.asarray([t, t - 2, t - 4])
    targets = np.zeros((batch, classes))
    targets[np.arange(batch), rng.integers(0, classes, size=batch)] = 1.0
    targets = Tensor(targets)

    def fn():
        return ops.cross_entropy(head(x, valid_len=lens), targets)

    return fn, head.parameters()


def block_suite(which="all", seed=0):
    """Gradient-check every block kind and the classifier head.

    Returns [(name, GradCheckResult), ...]; names cover the full zoo when
    ``which`` is "all", otherwise the one requested kind or "head".
    """
    from .blocks import BLOCK_KINDS, canonical_kind

    if which == "all":
        names = list(BLOCK_KINDS) + ["head"]
    elif which == "head":
        names = ["head"]
    else:
        names = [canonical_kind(which)]
    results = []
    for name in names:
        if name == "head":
            fn, params = _head_case(seed)
        else:
            fn, params = _block_case(name, seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 9]))
        results.append((name, grad_check(fn, params, rng=rng)))
    return results
