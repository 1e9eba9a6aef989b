"""Every convolution route and the eval batch-norm fold against their oracles.

``ops.conv`` picks one of four compute routes by shape class; the generic
einsum conv (``oracles.EINSUM``) is the oracle. Each route that accepts a
drawn convolution (``GEMM`` accepts every one) must match it in the output
and in both gradients, to float32 tolerance. Every route also takes
channels-last arrays, inputs and upstream gradients alike, and must then
match the oracle run on C-order copies; from either input layout, every
route's output is channels-last. The ``FRAME`` route (one input channel,
stride 1 on the first axis, as in the stem) gets explicit cases, each also
run on ``GEMM``'s channels-last columns, and so do grouped convs. Only
``_conv_route`` reads a route, and no route calls another's functions.
The eval extractor and the eval TCN, which keep their
activations channels-last, must match the same inputs run channels-first.
The depthwise route tiles the batch by whole samples;
it must match the oracle for every count of samples per tile, in both
float dtypes and both layouts. Every shipped config, run at small widths
in eval and in a taped training step, sends each conv to the route of its
shape class, also when its eval bottlenecks and star blocks run one frame
or time step per tile, and so do grouped and channel-multiplier convs
built through the layers.

In eval mode with no tape, a ``ConvNorm`` unit folds its norm into its
conv; a folded forward must match the unfolded one (run under a tape, which
turns the fold off) for every block kind, the extractor bottleneck and the
stem. A unit's ReLU then clamps the conv's output in place; that must
equal the conv, norm and ReLU layers run one by one, and under a tape or
in training the ReLU must leave its input array as it was.

The cases come from the fixed ``fastpath`` hypothesis profile (see
``conftest.py``), so every run draws the same ones.
"""
import ast
import contextlib
import glob
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import EINSUM

import tempconv as tc
from tempconv import layers, ops
from tempconv.blocks import BLOCK_KINDS, make_block
from tempconv.errors import NumericError, ShapeError
from tempconv.frontend import ExtractorSpec, ReferenceExtractor, Stem, StemSpec, _SpatialBottleneck
from tempconv.gradcheck import grad_check
from tempconv.layers import BatchNorm, Conv, ConvNorm
from tempconv.tensor import GradTape, Tensor
from tempconv.train import one_hot

FIXED = settings.get_profile("fastpath")


@st.composite
def convolutions(draw):
    """A conv spec of rank 1-3 and an input for it, from 1x1 outputs up."""
    rank = draw(st.integers(1, 3))
    shape_class = draw(st.sampled_from(["pointwise", "full", "depthwise", "grouped"]))
    groups, cin, cout = 1, draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if shape_class == "depthwise":
        groups = cin = cout = draw(st.integers(1, 5))
    elif shape_class == "grouped":
        groups = draw(st.integers(2, 3))
        cin, cout = groups * draw(st.integers(1, 2)), groups * draw(st.integers(1, 2))
    kernel = (1,) * rank if shape_class == "pointwise" else tuple(
        draw(st.integers(1, 3)) for _ in range(rank))
    causal = rank == 1 and draw(st.booleans())
    stride = (1,) if causal else tuple(draw(st.integers(1, 2)) for _ in range(rank))
    dilation = tuple(draw(st.integers(1, 2)) for _ in range(rank))
    padding = None
    if not causal and draw(st.booleans()):
        padding = tuple(draw(st.integers(0, 2)) for _ in range(rank))
    spec = ops.ConvSpec(cin, cout, kernel, stride=stride, dilation=dilation, groups=groups,
                        causal=causal, padding=padding)
    # smallest input that still fits the dilated kernel, up to a few more
    low = [max(1, (k - 1) * d + 1 - sum(p)) for k, d, p in zip(kernel, dilation, spec.pad_pairs())]
    sizes = tuple(draw(st.integers(lo, lo + 4)) for lo in low)
    batch = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    return spec, (batch, cin) + sizes, draw(st.booleans()), seed


def _run(route, spec, x, w, b, probe):
    """Output and the input, weight and bias gradients of one conv on ``route``."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    with GradTape() as tape:
        y = ops._conv_via(route, xt, wt, bt, spec, spec.out_sizes(x.shape[2:]))
        loss = ops.tensor_sum(ops.hadamard(y, Tensor(probe)))
    tape.backward(loss)
    return [y.data, xt.grad, wt.grad] + ([] if b is None else [bt.grad])


def _routes(spec, in_sizes, out_sizes):
    """The dispatched route and every route that accepts the conv's shape
    class; GEMM accepts every conv."""
    routes = [ops._conv_route(spec, in_sizes, out_sizes), ops.GEMM]
    pointwise = all(k == 1 for k in spec.kernel) and not any(map(sum, spec.pad_pairs()))
    if spec.groups == 1 and pointwise and out_sizes == in_sizes:
        routes.append(ops.POINTWISE)
    if spec.groups == spec.in_channels == spec.out_channels:
        routes.append(ops.DEPTHWISE)
    if spec.in_channels == 1 and spec.stride[0] == 1:
        routes.append(ops.FRAME)
    return routes


def _close(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5 * scale)


# C_in = 1 with stride 1 on the first axis, batch > 1: the FRAME route, the
# stem's shape first, each case also run on GEMM's channels-last columns;
# then C_in = 1 with stride 2 on the first axis, which takes GEMM alone
FRAME_CASES = [
    (ops.ConvSpec(1, 4, (3, 5, 5), stride=(1, 2, 2), padding=(1, 2, 2)), (2, 1, 4, 6, 6), True, 0),
    (ops.ConvSpec(1, 3, (2, 3, 2), stride=(1, 2, 1), dilation=(2, 1, 2), padding=(0, 1, 2)),
     (3, 1, 5, 5, 4), False, 1),
    (ops.ConvSpec(1, 2, (3, 1, 1)), (2, 1, 3, 2, 1), True, 2),
    (ops.ConvSpec(1, 3, (3,), dilation=(2,), causal=True), (2, 1, 6), True, 3),
    (ops.ConvSpec(1, 2, (3, 2, 2), stride=(2, 1, 1), padding=(1, 0, 1)), (2, 1, 5, 3, 3), True, 4),
]


@settings(FIXED, max_examples=400)
@given(convolutions())
@example(FRAME_CASES[0])
@example(FRAME_CASES[1])
@example(FRAME_CASES[2])
@example(FRAME_CASES[3])
@example(FRAME_CASES[4])
def test_every_route_matches_einsum(case):
    spec, shape, with_bias, seed = case
    with pytest.MonkeyPatch.context() as patch:
        if seed % 2:  # GEMM: one output row per gather block, three rows per GEMM call
            patch.setattr(ops, "_GATHER_BYTES", 1)
            patch.setattr(ops, "_GEMM_ROWS", 3)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal((spec.out_channels, spec.in_channels // spec.groups)
                                + spec.kernel).astype(np.float32)
        b = rng.standard_normal(spec.out_channels).astype(np.float32) if with_bias else None
        out = spec.out_sizes(shape[2:])
        probe = rng.standard_normal((shape[0], spec.out_channels) + out).astype(np.float32)

        want = _run(EINSUM, spec, x, w, b, probe)
        for route in _routes(spec, x.shape[2:], out):
            got = _run(route, spec, x, w, b, probe)
            assert _is_channels_last(got[0]), route.name  # from channels-first input too
            for g, r in zip(got, want):
                assert g.shape == r.shape, route.name
                _close(g, r)
        # the public entry point takes the dispatched route
        direct = ops.conv(Tensor(x), Tensor(w), None if b is None else Tensor(b), spec).data
        _close(direct, want[0])


def _to_channels_last(a):
    """The values of an (N, C, *S) array, stored as a C-order (N, *S, C) array."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 1, -1)), -1, 1)


def _is_channels_last(a):
    """Whether an (N, C, *S) array is the view of a C-order (N, *S, C) array."""
    return np.moveaxis(a, 1, -1).flags.c_contiguous


def _runs_in_order(a):
    """Whether memory runs in the axis order of ``a``, gaps allowed; size-1
    axes play no part."""
    strides = [s for s, n in zip(a.strides, a.shape) if n > 1]
    return strides == sorted(strides, reverse=True)


@st.composite
def channels_last_convolutions(draw):
    """A conv of rank 1-3, of each shape class, and an input for it: stride
    1-2 for rank 2-3; at rank 1, as in the TCN, causal or symmetric and
    dilation 1-2."""
    rank = draw(st.integers(1, 3))
    shape_class = draw(st.sampled_from(["pointwise", "full", "depthwise", "grouped"]))
    groups, cin, cout = 1, draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if shape_class == "depthwise":
        groups = cin = cout = draw(st.integers(1, 5))
    elif shape_class == "grouped":
        groups = draw(st.integers(2, 3))
        cin, cout = groups * draw(st.integers(1, 2)), groups * draw(st.integers(1, 2))
    kernel = (1,) * rank if shape_class == "pointwise" else tuple(
        draw(st.integers(1, 3)) for _ in range(rank))
    if rank == 1:
        stride, dilation, causal = (1,), (draw(st.integers(1, 2)),), draw(st.booleans())
    else:
        stride, dilation, causal = tuple(draw(st.integers(1, 2)) for _ in range(rank)), None, False
    spec = ops.ConvSpec(cin, cout, kernel, stride=stride, dilation=dilation, groups=groups,
                        causal=causal)
    sizes = tuple(draw(st.integers(k, k + 4)) for k in kernel)
    shape = (draw(st.integers(1, 3)), cin) + sizes
    return spec, shape, draw(st.booleans()), draw(st.integers(0, 2**16))


def _conv_grads(route, spec, x, w, b, up):
    """Output and input, weight and bias gradients of one conv on ``route``,
    given the upstream gradient ``up`` as it is laid out."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    with GradTape() as tape:
        y = ops._conv_via(route, xt, wt, bt, spec, spec.out_sizes(x.shape[2:]))
    (node,) = tape._nodes
    return [y.data, *node.backward_fn(up)]


@settings(FIXED, max_examples=300)
@given(channels_last_convolutions())
@example(FRAME_CASES[0])
@example(FRAME_CASES[4])
@example((ops.ConvSpec(4, 6, (3, 2), stride=(2, 1), groups=2), (2, 4, 5, 4), True, 5))
def test_routes_take_channels_last_arrays(case):
    spec, shape, with_bias, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    w = rng.standard_normal((spec.out_channels, spec.in_channels // spec.groups)
                            + spec.kernel).astype(np.float32)
    b = rng.standard_normal(spec.out_channels).astype(np.float32) if with_bias else None
    out = spec.out_sizes(shape[2:])
    up = rng.standard_normal((shape[0], spec.out_channels) + out).astype(np.float32)

    want = _conv_grads(EINSUM, spec, x, w, b, up)
    xl, upl = _to_channels_last(x), _to_channels_last(up)
    for route in _routes(spec, shape[2:], out) + [EINSUM]:
        got = _conv_grads(route, spec, xl, w, b, upl)
        for g, r in zip(got, want):
            assert g.shape == r.shape, route.name
            _close(g, r)
        # output and input gradient are channels-last; the GEMM and FRAME
        # routes' input gradient is a view of a padded buffer
        if route in (ops.GEMM, ops.FRAME):
            assert _is_channels_last(got[0]) and _runs_in_order(np.moveaxis(got[1], 1, -1))
        elif route is not EINSUM:
            assert _is_channels_last(got[0]) and _is_channels_last(got[1]), route.name


@pytest.mark.parametrize("spec,route", [
    (ops.ConvSpec(4, 6, (1, 1)), ops.POINTWISE),
    (ops.ConvSpec(4, 4, (3, 3), stride=2, groups=4), ops.DEPTHWISE),
    (ops.ConvSpec(4, 6, (3,), dilation=2, causal=True), ops.GEMM),  # channels-last columns
    (FRAME_CASES[0][0], ops.FRAME),  # per-frame columns
], ids=["pointwise", "depthwise", "gemm", "gemm-frames"])
def test_conv_refuses_an_empty_batch(spec, route):
    sizes = (6,) * spec.rank
    assert ops._conv_route(spec, sizes, spec.out_sizes(sizes)) is route
    x = Tensor(np.zeros((0, spec.in_channels) + sizes, np.float32))
    w = Tensor(np.zeros((spec.out_channels, spec.in_channels // spec.groups) + spec.kernel, np.float32))
    with pytest.raises(ShapeError, match="batch is empty"):
        ops.conv(x, w, None, spec)


ROUTES = ("POINTWISE", "DEPTHWISE", "FRAME", "GEMM")


def _route_reads(node, scope=()):
    """The enclosing function of every read of a route constant under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and child.id in ROUTES and isinstance(child.ctx, ast.Load):
            yield ".".join(scope)
        inner = scope + (child.name,) if isinstance(child, ast.FunctionDef) else scope
        yield from _route_reads(child, inner)


def test_conv_route_is_the_one_chooser():
    """Parsed from ops.py: only ``_conv_route`` reads a route constant, and
    no module function named as a forward or backward calls one of another
    route; each of them is one route's."""
    with open(ops.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    assert set(_route_reads(tree)) == {"_conv_route"}
    owner = {}  # function name -> the name of the route it is registered on
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Route":
            name, *fns = node.args
            owner.update({fn.id: name.value for fn in fns})
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.endswith(("_forward", "_backward"))}
    crossed = [(name, call.func.id) for name, body in bodies.items() for call in ast.walk(body)
               if isinstance(call, ast.Call) and getattr(call.func, "id", None) in bodies
               and owner.get(call.func.id) != owner.get(name)]
    assert crossed == []
    assert set(bodies) == set(owner)
    assert sorted(set(owner.values())) == sorted(r.lower() for r in ROUTES)


@pytest.mark.parametrize("shape", [(0, 3, 5), (2, 3, 0)], ids=["no-samples", "no-frames"])
@pytest.mark.parametrize("via", ["op", "module"])
def test_training_batch_norm_refuses_an_empty_batch(shape, via):
    """Refused before any reduction: the batch mean of no rows warned of an
    invalid divide, then the NaN variance raised a NumericError."""
    x = Tensor(np.zeros(shape, np.float32))
    bn = tc.BatchNorm(3).train()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError, match="batch is empty"):
            if via == "op":
                ops.batch_norm(x, bn.gamma, bn.beta, np.zeros(3), np.ones(3), training=True)
            else:
                bn(x)


@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
@pytest.mark.parametrize("frontend", [True, False], ids=["frontend", "nofrontend"])
@pytest.mark.parametrize("kind", BLOCK_KINDS)
def test_model_refuses_an_empty_batch(kind, frontend, training):
    """Unchecked, an empty batch reached the stem's im2col, the depthwise
    tiling or the GEMM gather's block size, each of which raised a raw numpy
    or Python error."""
    overrides = [f"tcn.block_kind={kind}", "tcn.channels=8", "classifier.num_classes=3"]
    overrides += ["stem.out_channels=4", "extractor.widths=4,8"] if frontend else ["model.frontend=false"]
    model = tc.build_model(tc.parse_config("", overrides), seed=0).train(training)
    with pytest.raises(ShapeError, match="batch is empty"):
        model(Tensor(np.zeros((0,) + model.input_shape(5, 16), np.float32)))


def test_eval_extractor_matches_channels_first_run(monkeypatch):
    """At batch 1 too, where a reshape could return a strided view."""
    rng = np.random.default_rng(0)
    extractor = ReferenceExtractor(ExtractorSpec((8, 16, 16), expansion=2.0), 4)
    extractor.init_parameters(rng)
    _randomize_norms(extractor, rng)
    extractor.eval()
    xs = [rng.standard_normal((batch, 4, 3, 12, 12)).astype(np.float32) for batch in (2, 1)]

    layouts, conv = [], ops.conv

    def spy(x, weight, bias=None, spec=None):
        layouts.append(_is_channels_last(x.data))
        return conv(x, weight, bias, spec)

    monkeypatch.setattr(ops, "conv", spy)
    got = [extractor(Tensor(x)).data for x in xs]
    assert len(layouts) == 18 and all(layouts)  # every 2-D conv read a channels-last input

    apply_op = ops.apply_op  # every op's result copied to C order: a channels-first run
    monkeypatch.setattr(ops, "apply_op", lambda op, inputs, data, make_backward: apply_op(
        op, inputs, np.ascontiguousarray(data), make_backward))
    layouts.clear()
    want = [extractor(Tensor(x)).data for x in xs]
    assert not any(layouts)
    for g, w in zip(got, want):
        _close(g, w)


@pytest.mark.parametrize("kind", BLOCK_KINDS)
def test_eval_tcn_keeps_channels_last(kind, monkeypatch):
    """Fed channels-last, every conv of an eval TCN reads channels-last
    memory, depthwise and full ones included, and the logits match a
    channels-first run."""
    rng = np.random.default_rng(1)
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "starv.cfg")
    config = tc.load_config_file(path, ["model.frontend=false", f"tcn.block_kind={kind}",
                                        "tcn.stages=2", "tcn.channels=6", "classifier.num_classes=3"])
    model = tc.build_model(config, seed=0)
    _randomize_norms(model, rng)
    model.eval()
    x = rng.standard_normal((2, 6, 9)).astype(np.float32)
    valid_len = np.array([9, 5])

    layouts, conv = [], ops.conv

    def spy(x, weight, bias=None, spec=None):
        layouts.append(_is_channels_last(x.data))
        return conv(x, weight, bias, spec)

    monkeypatch.setattr(ops, "conv", spy)
    got = model(Tensor(_to_channels_last(x)), valid_len).data
    assert len(layouts) == sum(isinstance(m, tc.Conv) for m in model.modules()) and all(layouts)

    apply_op = ops.apply_op  # every op's result copied to C order: a channels-first run
    monkeypatch.setattr(ops, "apply_op", lambda op, inputs, data, make_backward: apply_op(
        op, inputs, np.ascontiguousarray(data), make_backward))
    layouts.clear()
    want = model(Tensor(x), valid_len).data
    assert layouts and not any(layouts)
    _close(got, want)


CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.cfg")))
# the shipped stacks at small widths
SMALL = ["stem.out_channels=4", "extractor.widths=4,8", "extractor.expansion=2",
         "tcn.channels=8", "classifier.num_classes=3"]


def _shape_class_route(spec):
    unit = (1,) * spec.rank
    if spec.groups == 1 and spec.kernel == unit and spec.stride == unit \
            and not any(map(sum, spec.pad_pairs())):
        return ops.POINTWISE
    if 1 < spec.groups == spec.in_channels == spec.out_channels:
        return ops.DEPTHWISE
    if spec.in_channels == 1 and spec.stride[0] == 1:
        return ops.FRAME
    return ops.GEMM


def _routes_taken(path, monkeypatch):
    """Every conv call of an eval forward (norms folded) and a taped training
    step of a shipped config at small widths, with the route it took, which
    must be that of its shape class (pointwise convs POINTWISE whatever
    their input's layout); and the model's count of convs."""
    model = tc.build_model(tc.load_config_file(path, SMALL), seed=0)
    x = np.random.default_rng(0).standard_normal((2,) + model.input_shape(5, 16)).astype(np.float32)
    calls, route = [], ops._conv_route

    def spy(spec, in_sizes, out_sizes):
        calls.append((spec, route(spec, in_sizes, out_sizes)))
        return calls[-1][1]

    monkeypatch.setattr(ops, "_conv_route", spy)
    model.eval()
    model(Tensor(x))
    model.train()
    with GradTape() as tape:
        loss = ops.cross_entropy(model(Tensor(x)), Tensor(one_hot([0, 1], 3)))
    tape.backward(loss)
    for spec, got in calls:
        assert got is _shape_class_route(spec), spec
    return calls, sum(isinstance(m, tc.Conv) for m in model.modules())


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_configs_take_shape_class_routes(path, monkeypatch):
    """Every conv takes the route of its shape class, in eval and in a
    taped training step: the stem takes FRAME, and only the kinds with a
    full k3 conv take GEMM."""
    calls, _ = _routes_taken(path, monkeypatch)
    routes = {got for _, got in calls}
    assert {ops.POINTWISE, ops.DEPTHWISE, ops.FRAME} <= routes
    kind = tc.load_config_file(path).tcn.block_kind
    assert (ops.GEMM in routes) == (kind in ("baseline", "fusedmb")), kind


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_eval_tiles_take_shape_class_routes(path, monkeypatch):
    """With one frame per eval bottleneck tile and one time step per star
    tile, every tile's conv still takes the route of its shape class."""
    monkeypatch.setattr(layers, "_EVAL_TILE_BYTES", 1)
    calls, convs = _routes_taken(path, monkeypatch)
    assert len(calls) > 2 * convs  # ten frames: the bottlenecks ran in tiles


def _eval_and_train_step(net, x, probe):
    """A net's eval (folded) output, then the output and the input and
    parameter gradients of one taped training step; the state is restored."""
    state = net.state_dict()
    out = [net.eval()(Tensor(x)).data]
    xt = Tensor(x, requires_grad=True)
    with GradTape() as tape:
        y = net.train()(xt)
        loss = ops.tensor_sum(ops.hadamard(y, Tensor(probe)))
    tape.backward(loss)
    out += [y.data, xt.grad] + [p.grad for p in net.parameters()]
    net.load_state_dict(state)
    net.zero_grad()
    return out


@pytest.mark.parametrize("conv,shape", [
    (Conv(ops.ConvSpec(6, 4, (3,), dilation=2, groups=2, causal=True)), (2, 6, 9)),  # 1 < groups < C
    (Conv(ops.ConvSpec(4, 8, (3, 3), stride=2, groups=4)), (2, 4, 7, 7)),  # groups = C_in, two outputs each
], ids=["grouped", "channel-multiplier"])
def test_grouped_layers_take_gemm(conv, shape, monkeypatch):
    """Convs between groups = 1 and depthwise, each with a norm, run on GEMM
    in eval (folded) and in training, and match the einsum conv."""
    rng = np.random.default_rng(5)
    net = ConvNorm(conv).init_parameters(rng)
    _randomize_norms(net, rng)
    x = rng.standard_normal(shape).astype(np.float32)
    probe = rng.standard_normal((shape[0], conv.spec.out_channels)
                                + conv.spec.out_sizes(shape[2:])).astype(np.float32)
    routes, route = [], ops._conv_route

    def spy(spec, in_sizes, out_sizes):
        routes.append(route(spec, in_sizes, out_sizes))
        return routes[-1]

    monkeypatch.setattr(ops, "_conv_route", spy)
    got = _eval_and_train_step(net, x, probe)
    assert routes == [ops.GEMM, ops.GEMM]
    monkeypatch.setattr(ops, "_conv_route", lambda spec, in_sizes, out_sizes: EINSUM)
    for g, w in zip(got, _eval_and_train_step(net, x, probe), strict=True):
        _close(g, w)


def _depthwise_case(rng, spec, shape, dtype=np.float32):
    """Input, weight, bias and output probe for a depthwise ``spec``."""
    c = shape[1]
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((c, 1) + spec.kernel).astype(dtype)
    b = rng.standard_normal(c).astype(dtype)
    probe = rng.standard_normal((shape[0], c) + spec.out_sizes(shape[2:])).astype(dtype)
    return x, w, b, probe


def _tile_sizes(monkeypatch):
    """Samples per forward tile of the depthwise route, one entry per call
    of its window view, and the samples per tile that the forward and the
    backward each chose."""
    sizes, steps, windows, per_tile = [], [], ops._windows, ops._samples_per_tile

    def spy(xp, spec):
        sizes.append(len(xp))
        return windows(xp, spec)

    def step_spy(*args):
        steps.append(per_tile(*args))
        return steps[-1]

    monkeypatch.setattr(ops, "_windows", spy)
    monkeypatch.setattr(ops, "_samples_per_tile", step_spy)
    return sizes, steps


def _sample_bytes(spec, shape, dtype):
    """Bytes one sample's padded input and output take in a depthwise tile."""
    padded = [s + lo + hi for s, (lo, hi) in zip(shape[2:], spec.pad_pairs())]
    return np.dtype(dtype).itemsize * shape[1] * int(
        np.prod(padded) + np.prod(spec.out_sizes(shape[2:])))


def _check_depthwise_tiles(spec, shape, per_tile, x, w, b, probe, monkeypatch):
    """The depthwise route runs tiles of ``per_tile`` samples, the last one
    partial, and matches the oracle run on C-order copies."""
    want = _run(EINSUM, spec, *(np.ascontiguousarray(a) for a in (x, w, b, probe)))
    sizes, steps = _tile_sizes(monkeypatch)
    got = _run(ops.DEPTHWISE, spec, x, w, b, probe)
    assert sizes == [min(per_tile, shape[0] - i) for i in range(0, shape[0], per_tile)]
    assert steps == [per_tile, per_tile]
    for g, r in zip(got, want, strict=True):
        assert g.shape == r.shape and g.dtype == r.dtype
        _close(g, r)


# (chunk bytes, input shape, ConvSpec keywords): a sample takes
# 4·C·(padded + output positions) bytes, and a tile holds as many whole
# samples as fit the chunk, at least one
@pytest.mark.parametrize("chunk,shape,conv", [
    # causal, dilation 2: the one sample (528 B) is larger than the chunk
    (192, (1, 3, 20), dict(kernel=(3,), dilation=(2,), causal=True)),
    # causal, dilation 5: two tiles, each sample (336 B) over the chunk
    (128, (2, 2, 16), dict(kernel=(3,), dilation=(5,), causal=True)),
    # stride 2: two tiles of one sample (408 B)
    (156, (2, 3, 21), dict(kernel=(3,), stride=(2,))),
    # stride 2, k = 1: every other frame
    (56, (1, 2, 9), dict(kernel=(1,), stride=(2,), padding=(0,))),
    # symmetric padding 4, wider than the kernel's reach of 2: the first two
    # and the last two outputs read only zeros
    (64, (1, 2, 6), dict(kernel=(3,), padding=(4,))),
    # two samples (216 B each) per tile, the last tile partial
    (624, (5, 3, 8), dict(kernel=(3,), causal=True)),
    # rank 2, stride 2: two tiles of one sample (1104 B)
    (564, (2, 3, 9, 5), dict(kernel=(3, 3), stride=(2, 2))),
])
def test_tiled_depthwise_matches_einsum(chunk, shape, conv, monkeypatch):
    """Tiles of whole samples, each adding the bias, match the oracle."""
    c = shape[1]
    spec = ops.ConvSpec(c, c, groups=c, **conv)
    monkeypatch.setattr(ops, "_DEPTHWISE_CHUNK_BYTES", chunk)
    per_tile = max(1, chunk // _sample_bytes(spec, shape, np.float32))
    _check_depthwise_tiles(spec, shape, per_tile,
                           *_depthwise_case(np.random.default_rng(c), spec, shape), monkeypatch)


@pytest.mark.parametrize("shape,conv", [
    ((2, 3, 11), dict(kernel=(4,), dilation=(3,), causal=True)),
    ((2, 3, 9, 8), dict(kernel=(3, 2), stride=(2, 3), dilation=(2, 1), padding=(1, 3))),
    ((1, 2, 5, 6, 4), dict(kernel=(2, 3, 1), stride=(1, 2, 2))),
])
def test_depthwise_windows_are_tap_slices(shape, conv):
    """The window view holds, at each kernel tap, the padded buffer's slice
    that the tap reads, and cannot be written through."""
    c = shape[1]
    spec = ops.ConvSpec(c, c, groups=c, **conv)
    out = spec.out_sizes(shape[2:])
    x = np.moveaxis(np.random.default_rng(0).standard_normal(shape), 1, -1)
    xp = np.pad(x, ((0, 0), *spec.pad_pairs(), (0, 0)))  # channels-last, zero-padded
    windows = ops._windows(xp, spec)
    assert windows.shape == (shape[0], *out, c, *spec.kernel)
    assert not windows.flags.writeable
    for tap in np.ndindex(*spec.kernel):
        np.testing.assert_array_equal(windows[(Ellipsis,) + tap],
                                      xp[ops._tap_index(tap, spec, out, 1)])


@st.composite
def depthwise_convolutions(draw):
    """A depthwise spec of rank 1-2 (k 1-7, stride 1-3, dilation 1-4, causal
    or symmetric padding), a batch of 1-5 and the samples per tile."""
    rank = draw(st.integers(1, 2))
    c = draw(st.integers(1, 4))
    kernel = tuple(draw(st.integers(1, 7)) for _ in range(rank))
    dilation = tuple(draw(st.integers(1, 4)) for _ in range(rank))
    causal = rank == 1 and draw(st.booleans())
    stride, padding = (1,), None
    if not causal:
        stride = tuple(draw(st.integers(1, 3)) for _ in range(rank))
        padding = tuple(draw(st.integers(0, (k - 1) * d + 1)) for k, d in zip(kernel, dilation))
    spec = ops.ConvSpec(c, c, kernel, stride=stride, dilation=dilation, groups=c,
                        causal=causal, padding=padding)
    low = [max(1, (k - 1) * d + 1 - sum(p)) for k, d, p in zip(kernel, dilation, spec.pad_pairs())]
    batch = draw(st.integers(1, 5))
    shape = (batch, c) + tuple(draw(st.integers(lo, lo + 4)) for lo in low)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return (spec, shape, dtype, draw(st.integers(1, batch)), draw(st.booleans()),
            draw(st.integers(0, 2**16)))


@settings(FIXED, max_examples=150)
@given(depthwise_convolutions())
def test_depthwise_tiles_match_einsum(case):
    spec, shape, dtype, per_tile, channels_last, seed = case
    x, w, b, probe = _depthwise_case(np.random.default_rng(seed), spec, shape, dtype)
    if channels_last:
        x, probe = _to_channels_last(x), _to_channels_last(probe)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ops, "_DEPTHWISE_CHUNK_BYTES", per_tile * _sample_bytes(spec, shape, dtype))
        _check_depthwise_tiles(spec, shape, per_tile, x, w, b, probe, patch)


# (input shape, ConvSpec keywords, samples per tile): each puts a tile
# boundary mid-batch; 0 makes the chunk half a sample, so each sample is a
# tile of its own, larger than the chunk
@pytest.mark.parametrize("shape,conv,per_tile", [
    ((3, 2, 9), dict(kernel=(3,), dilation=(2,), causal=True), 0),
    ((5, 3, 8), dict(kernel=(3,), causal=True), 2),
    ((5, 2, 11), dict(kernel=(3,), stride=(2,)), 2),
    ((4, 3, 13), dict(kernel=(5,), stride=(2,), dilation=(3,), padding=(4,)), 3),
    ((5, 2, 6, 7), dict(kernel=(3, 3)), 2),
    ((3, 3, 4, 4), dict(kernel=(3, 3), stride=(2, 2)), 2),
    ((5, 2, 5, 6), dict(kernel=(3, 2), stride=(2, 1), dilation=(2, 3), padding=(3, 1)), 3),
])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels_last", [False, True])
def test_tiled_depthwise_backward_matches_untiled_scatter(shape, conv, per_tile, dtype,
                                                          channels_last, monkeypatch):
    """Tiled by samples, the depthwise backward gives the oracle's untiled
    per-tap scatter bitwise as its input gradient, and its weight gradient."""
    c = shape[1]
    spec = ops.ConvSpec(c, c, groups=c, **conv)
    x, w, _, up = _depthwise_case(np.random.default_rng(per_tile), spec, shape, dtype)
    want_gx, want_gw = EINSUM.backward(
        up, w, spec, EINSUM.forward(x, w, None, spec, up.shape[2:])[1], True, True)
    sample = _sample_bytes(spec, shape, dtype)
    monkeypatch.setattr(ops, "_DEPTHWISE_CHUNK_BYTES", per_tile * sample or sample // 2)
    _, steps = _tile_sizes(monkeypatch)
    if channels_last:
        x, up = _to_channels_last(x), _to_channels_last(up)
    gx, gw = ops._depthwise_backward(up, w, spec, x, True, True)
    assert steps == [max(1, per_tile)]
    assert gx.dtype == gw.dtype == dtype and gw.shape == w.shape
    assert np.ascontiguousarray(gx).tobytes() == np.ascontiguousarray(want_gx).tobytes()
    _close(gw, want_gw)
    only_x, only_w = ops._depthwise_backward(up, w, spec, x, True, False), \
        ops._depthwise_backward(up, w, spec, x, False, True)
    assert only_x[1] is None and only_w[0] is None
    np.testing.assert_array_equal(only_x[0], gx)
    np.testing.assert_array_equal(only_w[1], gw)


def test_tiled_depthwise_gradcheck(monkeypatch):
    """A strided, dilated 2-D depthwise conv on tiles of two samples, the
    last one partial, against central differences."""
    spec = ops.ConvSpec(3, 3, (3, 3), stride=(2, 1), dilation=(1, 2), groups=3)
    rng = np.random.default_rng(0)
    monkeypatch.setattr(ops, "_DEPTHWISE_CHUNK_BYTES", 2 * _sample_bytes(spec, (5, 3, 6, 7), np.float64))
    x = Tensor(rng.standard_normal((5, 3, 6, 7)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 1, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    probe = Tensor(rng.standard_normal((5, 3) + spec.out_sizes((6, 7))))
    result = grad_check(lambda: ops.tensor_sum(ops.hadamard(ops.conv(x, w, b, spec), probe)),
                        [x, w, b], coords_per_param=12)
    assert result.ok, result


def _randomize_norms(module, rng):
    """Non-trivial affine parameters and running statistics for every norm."""
    for m in module.modules():
        if isinstance(m, BatchNorm):
            c = m.channels
            m.gamma.data[...] = rng.uniform(0.5, 1.5, c)
            m.beta.data[...] = rng.normal(0, 0.5, c)
            m.running_mean[...] = rng.normal(0, 0.5, c)
            m.running_var[...] = rng.uniform(0.5, 2.0, c)


def _fold_matches_unfolded(module, x):
    module.eval()
    folded = module(Tensor(x)).data
    with GradTape():  # a recording tape turns the fold off
        unfolded = module(Tensor(x)).data
    assert folded.shape == unfolded.shape
    _close(folded, unfolded)


@pytest.mark.parametrize("kind", BLOCK_KINDS)
@FIXED
@given(dilation=st.sampled_from([1, 2, 4]), frames=st.integers(1, 9), seed=st.integers(0, 2**16))
def test_eval_fold_matches_unfolded_block(kind, dilation, frames, seed):
    rng = np.random.default_rng(seed)
    block = make_block(kind, 8, dilation)
    block.init_parameters(rng)
    _randomize_norms(block, rng)
    _fold_matches_unfolded(block, rng.standard_normal((2, 8, frames)).astype(np.float32))


@FIXED
@given(cout=st.sampled_from([4, 8]), size=st.integers(1, 9), seed=st.integers(0, 2**16))
def test_eval_fold_matches_unfolded_frontend(cout, size, seed):
    rng = np.random.default_rng(seed)
    bottleneck = _SpatialBottleneck(4, cout, 2.0)
    bottleneck.init_parameters(rng)
    _randomize_norms(bottleneck, rng)
    _fold_matches_unfolded(bottleneck, rng.standard_normal((3, 4, size, size)).astype(np.float32))
    stem = Stem()
    stem.init_parameters(rng)
    _randomize_norms(stem, rng)
    _fold_matches_unfolded(stem, rng.standard_normal((1, 1, 3, 2 * size, 2 * size)).astype(np.float32))


@pytest.mark.parametrize("kind", BLOCK_KINDS)
def test_eval_block_leaves_input_and_parameters(kind):
    """The in-place eval paths write only into arrays their own ops made."""
    rng = np.random.default_rng(0)
    block = make_block(kind, 8, 2)
    block.init_parameters(rng)
    _randomize_norms(block, rng)
    block.eval()
    x = rng.standard_normal((2, 8, 9)).astype(np.float32)
    before = [x.tobytes()] + [p.data.tobytes() for p in block.parameters()]
    block(Tensor(x))
    assert before == [x.tobytes()] + [p.data.tobytes() for p in block.parameters()]


@pytest.mark.parametrize("recorded", [False, True])
@pytest.mark.parametrize("kind,bias,want", [
    ("starv", "branch2.bias", "hadamard"),  # relu6(6) * 3e38 overflows the gate
    ("starv", "dw_out.bias", "add"),        # 3e38 + 1e38 overflows the residual
    ("linear", "body.2.bn.beta", "add"),
])
def test_forced_overflow_names_the_op(kind, bias, want, recorded):
    block = make_block(kind, 4, 1).init_parameters(np.random.default_rng(0))
    for name, p in block.named_parameters():
        if name.endswith(("weight", "bias", "beta")):
            p.data[...] = 0.0
    dict(block.named_parameters())[bias].data[...] = 3e38
    if kind == "starv":
        block.branch1.bias.data[...] = 6.0
    block.eval()
    x = Tensor(np.full((1, 4, 5), 1e38, np.float32), requires_grad=recorded)
    with GradTape() if recorded else contextlib.nullcontext(), np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=f"non-finite values produced by {want}$"):
            block(x)


def test_eval_batch_norm_gradcheck():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    beta = Tensor(rng.standard_normal(4), requires_grad=True)
    mean, var = rng.standard_normal(4), rng.uniform(0.5, 2.0, 4)
    probe = Tensor(rng.standard_normal((3, 4, 5)))

    def fn():
        return ops.tensor_sum(ops.hadamard(
            ops.batch_norm(x, gamma, beta, mean, var, training=False), probe))

    result = grad_check(fn, [x, gamma, beta])
    assert result.ok, result


def _conv_norm_relu_cases(rng):
    """A ConvNorm with a ReLU and a Stem with non-trivial norms, each with an
    input and its unfused layers."""
    net = ConvNorm(Conv(ops.ConvSpec(3, 5, (3, 3), stride=2)), relu=True)
    stem = Stem(StemSpec(out_channels=4))
    cases = []
    for module, layers, shape in ((net, [net.conv, net.bn, ops.relu], (2, 3, 7, 7)),
                                  (stem, [stem.conv, stem.bn, ops.relu], (1, 1, 3, 8, 8))):
        module.init_parameters(rng)
        _randomize_norms(module, rng)
        cases.append((module, layers, rng.standard_normal(shape).astype(np.float32)))
    return cases


@FIXED
@given(seed=st.integers(0, 2**16))
def test_eval_relu_in_place_matches_unfused(seed):
    for module, layers, x in _conv_norm_relu_cases(np.random.default_rng(seed)):
        module.eval()
        kept = x.copy()
        fused = module(Tensor(x)).data
        h = Tensor(x)
        for layer in layers:
            h = layer(h)
        assert fused.shape == h.shape
        _close(fused, h.data)
        np.testing.assert_array_equal(x, kept)


@pytest.mark.parametrize("mode", ["tape", "training"])
def test_relu_leaves_its_input_when_recorded_or_training(mode, monkeypatch):
    recorded, batch_norm = [], ops.batch_norm

    def spy(*args, **kwargs):
        out = batch_norm(*args, **kwargs)
        recorded.append((out.data, out.data.copy()))
        return out

    monkeypatch.setattr(ops, "batch_norm", spy)
    for module, _, x in _conv_norm_relu_cases(np.random.default_rng(0)):
        module.train(mode == "training")
        with GradTape() if mode == "tape" else contextlib.nullcontext():
            y = module(Tensor(x))
        assert (y.data >= 0).all()
    assert len(recorded) == 2
    for data, kept in recorded:
        assert (kept < 0).any()  # a ReLU in place would have clamped these
        np.testing.assert_array_equal(data, kept)
