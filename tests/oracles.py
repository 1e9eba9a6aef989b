"""Independent reference implementations used to verify the package.

Everything here is deliberately slow and obvious: nested loops, direct
formulas, no shared code with the library under test beyond numpy.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv_oracle(x, w, b=None, stride=None, dilation=None, padding=None, groups=1):
    """Direct nested-loop N-D convolution (cross-correlation).

    x: (N, C, *spatial)   w: (O, C//groups, *kernel)   b: (O,) or None
    stride / dilation / padding: per-dim tuples (padding is symmetric
    unless given as explicit (lo, hi) pairs).
    Returns (N, O, *out_spatial) in float64.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    rank = x.ndim - 2
    kernel = w.shape[2:]
    stride = tuple(stride) if stride is not None else (1,) * rank
    dilation = tuple(dilation) if dilation is not None else (1,) * rank
    if padding is None:
        padding = (0,) * rank
    pairs = []
    for p in padding:
        pairs.append(tuple(p) if isinstance(p, (tuple, list)) else (int(p), int(p)))
    xp = np.pad(x, [(0, 0), (0, 0)] + [list(p) for p in pairs])

    n, c = x.shape[:2]
    o = w.shape[0]
    cg = c // groups
    og = o // groups
    out_spatial = []
    for i in range(rank):
        span = (kernel[i] - 1) * dilation[i] + 1
        out_spatial.append((xp.shape[2 + i] - span) // stride[i] + 1)
    out = np.zeros((n, o) + tuple(out_spatial))

    for ni in range(n):
        for oi in range(o):
            g = oi // og
            for pos in np.ndindex(*out_spatial):
                acc = 0.0
                for ci in range(cg):
                    for tap in np.ndindex(*kernel):
                        idx = tuple(pos[i] * stride[i] + tap[i] * dilation[i]
                                    for i in range(rank))
                        acc += (xp[(ni, g * cg + ci) + idx]
                                * w[(oi, ci) + tap])
                out[(ni, oi) + pos] = acc
    if b is not None:
        out += np.asarray(b, dtype=np.float64).reshape((1, o) + (1,) * rank)
    return out


def causal_conv1d_oracle(x, w, b=None, dilation=1):
    """Causal 1-D convolution: left-pad (k-1)*dilation zeros, stride 1."""
    k = w.shape[-1]
    return conv_oracle(x, w, b, stride=(1,), dilation=(dilation,),
                       padding=(((k - 1) * dilation, 0),))


# -- the einsum conv --------------------------------------------------------
# The generic convolution, any groups: one einsum over a strided view of all
# receptive-field patches. It has the forward/backward interface of an
# ``ops`` route, so ``ops._conv_via(EINSUM, ...)`` runs it under the tape
# and every route ``ops.conv`` dispatches to is tested against it.

_OUT_AXES, _KER_AXES = "xyz", "uvw"


def _interior(spec, first):
    """Index of the unpadded region of a padded buffer, spatial axes at ``first``."""
    return (slice(None),) * first + tuple(slice(lo, -hi or None) for lo, hi in spec.pad_pairs())


def _tap_index(tap, spec, out_sizes, first):
    """Index of the padded input that one kernel tap reads, spatial axes at ``first``."""
    return (slice(None),) * first + tuple(
        slice(t * d, t * d + s * (o - 1) + 1, s)
        for t, d, s, o in zip(tap, spec.dilation, spec.stride, out_sizes)
    )


def _einsum_forward(xd, wd, bd, spec, out_sizes):
    rank, n, groups = spec.rank, xd.shape[0], spec.groups
    og, cg = spec.out_channels // groups, spec.in_channels // groups
    sub_out, sub_k = _OUT_AXES[:rank], _KER_AXES[:rank]
    xp = np.pad(xd, ((0, 0), (0, 0)) + spec.pad_pairs())
    eff = tuple((k - 1) * d + 1 for k, d in zip(spec.kernel, spec.dilation))
    win = sliding_window_view(xp, eff, axis=tuple(range(2, 2 + rank)))
    index = ((slice(None),) * 2 + tuple(slice(None, None, s) for s in spec.stride)
             + tuple(slice(None, None, d) for d in spec.dilation))
    patches = win[index]  # (N, C, *out, *kernel)
    assert patches.shape[2:2 + rank] == out_sizes
    patches = patches.reshape(n, groups, cg, *out_sizes, *spec.kernel)
    wg = wd.reshape(groups, og, cg, *spec.kernel)
    y = np.einsum(f"ngc{sub_out}{sub_k},goc{sub_k}->ngo{sub_out}", patches, wg, optimize=True)
    y = y.reshape(n, spec.out_channels, *out_sizes)
    if bd is not None:
        y = y + bd.reshape((-1,) + (1,) * rank)
    return y, (xp.shape, patches)


def _einsum_backward(up, wd, spec, saved, need_x, need_w):
    padded_shape, patches = saved
    n, groups = up.shape[0], spec.groups
    og, cg = spec.out_channels // groups, spec.in_channels // groups
    sub_out, sub_k = _OUT_AXES[:spec.rank], _KER_AXES[:spec.rank]
    up_g = up.reshape(n, groups, og, *up.shape[2:])
    gx = gw = None
    if need_x:  # scatter the output gradient back through each kernel tap
        wg = wd.reshape(groups, og, cg, *spec.kernel)
        gxp = np.zeros(padded_shape, up.dtype)
        gx_g = gxp.reshape(n, groups, cg, *padded_shape[2:])
        for tap in np.ndindex(*spec.kernel):
            gx_g[(slice(None),) + _tap_index(tap, spec, up.shape[2:], 2)] += np.einsum(
                f"ngo{sub_out},goc->ngc{sub_out}", up_g, wg[(slice(None),) * 3 + tap], optimize=True)
        gx = gxp[_interior(spec, 2)]
    if need_w:
        gw = np.einsum(f"ngc{sub_out}{sub_k},ngo{sub_out}->goc{sub_k}", patches, up_g,
                       optimize=True).reshape(wd.shape)
    return gx, gw


EINSUM = namedtuple("Route", "name forward backward")("einsum", _einsum_forward, _einsum_backward)


def numeric_grad(fn, arrays, h=1e-5):
    """Central-difference gradient of scalar fn(*arrays) w.r.t. each array.

    Independent of the library's own finite-difference checker: plain
    two-point stencil over every coordinate, all in float64.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    grads = []
    for i, a in enumerate(arrays):
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = fn(*arrays)
            flat[j] = orig - h
            dn = fn(*arrays)
            flat[j] = orig
            gf[j] = (up - dn) / (2.0 * h)
        grads.append(g)
    return grads


def cosine_rate_oracle(base, epoch, total):
    """Half-cosine annealing computed straight from the formula."""
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / total))


def batchnorm_oracle(x, gamma, beta, axis_keep=1, eps=1e-5):
    """Normalize over every axis except ``axis_keep`` using batch stats."""
    x = np.asarray(x, dtype=np.float64)
    axes = tuple(i for i in range(x.ndim) if i != axis_keep)
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    shape = [1] * x.ndim
    shape[axis_keep] = x.shape[axis_keep]
    g = np.asarray(gamma, dtype=np.float64).reshape(shape)
    b = np.asarray(beta, dtype=np.float64).reshape(shape)
    return g * (x - mean) / np.sqrt(var + eps) + b


def template_predict(dataset, split, index):
    """Classify one toy sample by correlating frames against class motifs.

    Uses only the dataset's published motif bank and raw arrays — none of
    the model stack. With zero noise this recovers the label exactly.
    """
    seq, _label = dataset.sample(split, index)
    frames = seq[0] if seq.ndim == 4 else seq  # (T, H, W)
    motifs = dataset.motifs  # (classes, H, W)
    # score every class by its best frame correlation
    flat_m = motifs.reshape(motifs.shape[0], -1).astype(np.float64)
    flat_f = frames.reshape(frames.shape[0], -1).astype(np.float64)
    scores = flat_f @ flat_m.T  # (T, classes)
    return int(np.argmax(scores.max(axis=0)))


# -- closed-form parameter counts ------------------------------------------
# One formula per block kind (c = width, e = expansion ratio), written from
# the block descriptions rather than from the built modules. Expanded widths
# are rounded the way the constructors round them.

K_PLAIN, K_STAR = 3, 7  # every conv kernel of the plain kinds; starv's depthwise kernel


def _e(c, e):
    return int(round(e * c))


PARAM_FORMS = {
    "baseline": lambda c: 2 * (K_PLAIN * c * c + c) + 4 * c,
    "linear": lambda c: c * c + (2 * K_PLAIN + 6) * c,
    "fusedmb": lambda c, e=3.5: (K_PLAIN + 1) * c * _e(c, e) + 2 * _e(c, e) + 2 * c,
    "invertedresidual": lambda c, e=2.0: 2 * c * _e(c, e) + (K_PLAIN + 4) * _e(c, e) + 2 * c,
    "cib": lambda c, e=2.0: 2 * c * _e(c, e) + (K_PLAIN + 4) * _e(c, e) + (2 * K_PLAIN + 6) * c,
    "uib": lambda c, e=4.0: 2 * c * _e(c, e) + (K_PLAIN + 4) * _e(c, e) + (K_PLAIN + 4) * c,
    "starv": lambda c, e=4.0: 3 * c * _e(c, e) + 2 * _e(c, e) + (2 * K_STAR + 5) * c,
}

# names that build no block: former copies and the former variant of starv,
# and former aliases of baseline, invertedresidual and starv
RETIRED_KIND_NAMES = ("stari", "starii", "stariii", "stariv",
                      "baselinetcn", "invres", "inverted_residual", "star", "star-v")


def block_param_form(kind, channels):
    """Closed-form parameters of one block."""
    return PARAM_FORMS[kind](channels)


def predict_param_count(config):
    """Closed-form parameter total for a parsed config, without building it."""
    tcn = config.tcn
    total = tcn.stages * block_param_form(tcn.block_kind, tcn.channels)
    if config.extractor is not None:
        stem = config.stem
        total += config.in_channels * stem.out_channels * math.prod(stem.kernel)
        total += stem.out_channels + 2 * stem.out_channels
        cin = stem.out_channels
        e_ratio = config.extractor.expansion
        for width in config.extractor.widths:
            e = int(round(cin * e_ratio))
            total += cin * e + 2 * e + 9 * e + 2 * e + e * width + 2 * width
            cin = width
    total += tcn.channels * config.classifier.num_classes + config.classifier.num_classes
    return total


def lwt_record(array):
    """An LWT1 tensor record of a float32 or float64 array, laid out by hand
    from the format description, so it may hold values the writers refuse."""
    a = np.asarray(array)
    code = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}[a.dtype]
    return (b"LWT1" + bytes([code, a.ndim]) + b"".join(d.to_bytes(4, "little") for d in a.shape)
            + a.astype(a.dtype.newbyteorder("<")).tobytes())
