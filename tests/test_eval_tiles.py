"""Eval tiles of the expanding blocks against the whole-tensor paths.

In eval with no tape, an extractor bottleneck runs expand → dw3×3 →
project on tiles of whole frames, and a star block runs its pointwise
section (both branches, the gate and ``project``) on tiles of
time steps; ``layers._EVAL_TILE_BYTES`` sizes the tiles. Forced to one
frame or step per tile, to a partial last tile, or to one tile longer than
the input, each block must match the taped path (which never tiles) to
float32 tolerance, and must equal bitwise the whole-tensor eval path run
on each tile's slice alone. Against the whole-tensor eval path run on the
whole input it must match to float32 tolerance: OpenBLAS rounds a GEMM of
a few rows with other kernels than one of many, so at these small sizes
that match is not bitwise. At paper scale, where every tile's GEMM has
hundreds of rows, the memory guard checks it bitwise, and checks that no
forward holds a whole expanded tensor.

The cases come from the fixed ``fastpath`` hypothesis profile (see
``conftest.py``), so every run draws the same ones.
"""
import contextlib
import importlib
import os
import pkgutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fastpath import _close, _is_channels_last, _randomize_norms, _to_channels_last

import tempconv as tc
from tempconv import layers, ops
from tempconv.blocks import TemporalBlock, make_block
from tempconv.frontend import ExtractorSpec, ReferenceExtractor, _SpatialBottleneck
from tempconv.tensor import GradTape, Tensor

FIXED = settings.get_profile("fastpath")
WHOLE = 1 << 62  # a tile budget no input here reaches: the whole-tensor path
MODES = ["one", "partial", "single"]
STARV = os.path.join(os.path.dirname(__file__), "..", "configs", "starv.cfg")
BASELINE = os.path.join(os.path.dirname(__file__), "..", "configs", "baseline.cfg")


def _per_tile(mode, size):
    """Items per tile that force ``mode`` over ``size`` items; a single tile
    is longer than the input."""
    return {"one": 1, "partial": 2, "single": size + 1}[mode]


def _sizes(mode):
    """Item counts a mode can tile: a partial last tile of two per tile
    needs an odd count of at least 3."""
    return st.sampled_from([3, 5, 7]) if mode == "partial" else st.integers(1, 6)


def _spec_inputs(monkeypatch, spec):
    """The input of every call of ``ops.conv`` with ``spec``, as it comes."""
    inputs, conv = [], ops.conv

    def spy(x, weight, bias=None, spec_=None):
        if spec_ is spec:
            inputs.append(x.data)
        return conv(x, weight, bias, spec_)

    monkeypatch.setattr(ops, "conv", spy)
    return inputs


def _taped(module, x):
    with GradTape():  # a recording tape turns the fold and the tiles off
        return module(Tensor(x)).data


def _bottleneck_item_bytes(block, x):
    """Bytes of one frame's expanded tensor and its depthwise output."""
    expand, dw, _ = (unit.conv.spec for unit in block.body)
    sizes = x.shape[2:]
    return x.itemsize * expand.out_channels * (
        int(np.prod(sizes)) + int(np.prod(dw.out_sizes(sizes))))


@pytest.mark.parametrize("mode", MODES)
@FIXED
@given(data=st.data(), cout=st.sampled_from([4, 8]), channels_last=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), size=st.integers(3, 7),
       seed=st.integers(0, 2**16))
def test_bottleneck_tiles_match_whole(mode, data, cout, channels_last, dtype, size, seed):
    frames = data.draw(_sizes(mode), label="frames")
    rng = np.random.default_rng(seed)
    block = _SpatialBottleneck(4, cout, 2.0).init_parameters(rng)
    _randomize_norms(block, rng)
    block.astype(dtype).eval()
    x = rng.standard_normal((frames, 4, size, size)).astype(dtype)
    if channels_last:
        x = _to_channels_last(x)
    per_tile = _per_tile(mode, frames)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers, "_EVAL_TILE_BYTES", per_tile * _bottleneck_item_bytes(block, x))
        tiles = _spec_inputs(patch, next(iter(block.body)).conv.spec)
        got = block(Tensor(x)).data
    assert [len(t) for t in tiles] == [min(per_tile, frames - i) for i in range(0, frames, per_tile)]
    assert got.dtype == dtype and (_is_channels_last(got) or not channels_last)
    _close(got, _taped(block, x))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers, "_EVAL_TILE_BYTES", WHOLE)
        _close(got, block(Tensor(x)).data)
        each = [block(Tensor(x[i:i + per_tile])).data for i in range(0, frames, per_tile)]
    np.testing.assert_array_equal(got, np.concatenate(each))


@pytest.mark.parametrize("mode", MODES)
@FIXED
@given(data=st.data(), dilation=st.integers(1, 8), batch=st.integers(1, 2),
       seed=st.integers(0, 2**16))
def test_star_tiles_match_whole(mode, data, dilation, batch, seed):
    frames = data.draw(_sizes(mode), label="frames")
    rng = np.random.default_rng(seed)
    block = make_block("starv", 4, dilation).init_parameters(rng)
    _randomize_norms(block, rng)
    block.eval()
    x = rng.standard_normal((batch, 4, frames)).astype(np.float32)
    per_tile = _per_tile(mode, frames)
    item = x.itemsize * batch * 2 * block.branch1.spec.out_channels
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers, "_EVAL_TILE_BYTES", per_tile * item)
        tiles = _spec_inputs(patch, block.branch1.spec)
        mixed = _spec_inputs(patch, block.dw_out.spec)
        got = block(Tensor(x)).data
    assert [t.shape[2] for t in tiles] == [min(per_tile, frames - i)
                                          for i in range(0, frames, per_tile)]
    _close(got, _taped(block, x))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers, "_EVAL_TILE_BYTES", WHOLE)
        _close(got, block(Tensor(x)).data)
        h = block.dw_in(Tensor(x)).data
        each = [block._pointwise(Tensor(h[..., i:i + per_tile]), [None]).data
                for i in range(0, frames, per_tile)]
    np.testing.assert_array_equal(mixed[0], np.concatenate(each, axis=2))


def _conv_calls(monkeypatch):
    """(spec, input shape) of every ``ops.conv`` call, in order."""
    calls, conv = [], ops.conv

    def spy(x, weight, bias=None, spec=None):
        calls.append((spec, x.shape))
        return conv(x, weight, bias, spec)

    monkeypatch.setattr(ops, "conv", spy)
    return calls


def _never_tiled(name, rng):
    """A block that tiles at any budget in eval with no tape, its input, the
    axis it tiles and the conv its tiles start with."""
    if name == "bottleneck":
        block = _SpatialBottleneck(4, 4, 2.0).init_parameters(rng)
        return block, rng.standard_normal((3, 4, 5, 5)), 0, next(iter(block.body)).conv
    block = make_block(name, 4, 2).init_parameters(rng)
    return block, rng.standard_normal((2, 4, 6)), 2, block.branch1


@pytest.mark.parametrize("name", ["bottleneck", "starv"])
def test_training_and_tape_never_tile(name, monkeypatch):
    """With one index per tile, training without a tape and eval under a
    tape call each conv once on the whole input; eval without a tape tiles."""
    block, x, axis, first = _never_tiled(name, np.random.default_rng(0))
    x = x.astype(np.float32)
    convs = [m.spec for m in block.modules() if isinstance(m, tc.Conv)]
    monkeypatch.setattr(layers, "_EVAL_TILE_BYTES", 1)
    calls = _conv_calls(monkeypatch)
    for training, tape in [(True, contextlib.nullcontext()), (False, GradTape())]:
        block.train(training)
        calls.clear()
        with tape:
            block(Tensor(x))
        assert sorted(map(id, (spec for spec, _ in calls))) == sorted(map(id, convs))
        assert all(shape[axis] == x.shape[axis] for _, shape in calls)
    block.eval()
    calls.clear()
    block(Tensor(x))
    tiles = [shape for spec, shape in calls if spec is first.spec]
    assert [shape[axis] for shape in tiles] == [1] * x.shape[axis]


def test_fast_eval_has_one_owner():
    """``layers.fast_eval`` is the one reader of the tape stack that picks
    the eval fast path: no other module binds ``active_tape``, and no block
    keeps a gate of its own."""
    binders = [name for _, name, _ in pkgutil.iter_modules(tc.__path__)
               if hasattr(importlib.import_module(f"tempconv.{name}"), "active_tape")]
    assert sorted(binders) == ["layers", "tensor"]
    assert not hasattr(tc, "active_tape")
    assert not hasattr(TemporalBlock, "_in_place")


def _peak_mib(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _eval_whole(module, x, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers, "_EVAL_TILE_BYTES", WHOLE)
        return module(Tensor(x), *args).data


def test_long_sequence_forward_holds_no_whole_expanded_tensor():
    """Frontend-less starv at (2, 512, 1024): each block's two 16 MiB branch
    outputs made a 44.0 MiB peak before its pointwise section ran in tiles."""
    model = tc.build_model(tc.load_config_file(STARV, ["model.frontend=false"]), seed=0).eval()
    x = np.random.default_rng(0).standard_normal((2, 512, 1024)).astype(np.float32)
    valid_len = np.array([1024, 600])
    got, peak = _peak_mib(lambda: model(Tensor(x), valid_len).data)
    assert peak < 36, f"eval forward peaked at {peak:.1f} MiB"
    np.testing.assert_array_equal(got, _eval_whole(model, x, valid_len))


def test_long_sequence_gemm_conv_frees_its_padded_copy():
    """Frontend-less baseline at (2, 512, 1024): each k3 conv's channels-last
    padded copy, held through its GEMMs after the gather had read it, made a
    31.1 MiB peak against 27.1 MiB freed."""
    model = tc.build_model(tc.load_config_file(BASELINE, ["model.frontend=false"]), seed=0).eval()
    x = np.random.default_rng(0).standard_normal((2, 512, 1024)).astype(np.float32)
    valid_len = np.array([1024, 600])
    _, peak = _peak_mib(lambda: model(Tensor(x), valid_len).data)
    assert peak < 29, f"eval forward peaked at {peak:.1f} MiB"


def test_clip_extractor_holds_no_whole_expanded_tensor():
    """One paper-scale clip's stem output through the extractor: the first
    bottleneck's 27 MiB expanded tensor made a 42.9 MiB peak before the
    bottlenecks ran in tiles of frames."""
    rng = np.random.default_rng(0)
    extractor = ReferenceExtractor(ExtractorSpec(), 32).init_parameters(rng)
    _randomize_norms(extractor, rng)
    extractor.eval()
    x = np.maximum(rng.standard_normal((1, 32, 29, 44, 44)), 0).astype(np.float32)
    got, peak = _peak_mib(lambda: extractor(Tensor(x)).data)
    assert peak < 36, f"extractor forward peaked at {peak:.1f} MiB"
    np.testing.assert_array_equal(got, _eval_whole(extractor, x))


def test_clip_forward_folds_frames_without_a_copy():
    """One starv.cfg clip (1×29×88×88) in eval: the extractor's fold of the
    stem's 6.9 MiB output into frames is a view only while the stem writes
    channels-last; the copy it made of a channels-first stem output lived
    through the extractor, for a 28.1 MiB peak."""
    model = tc.build_model(tc.load_config_file(STARV), seed=0).eval()
    x = np.random.default_rng(0).standard_normal((1,) + model.input_shape()).astype(np.float32)
    _, peak = _peak_mib(lambda: model(Tensor(x)).data)
    assert peak < 25, f"eval forward peaked at {peak:.1f} MiB"
