"""The benchmark's traced runs patch package entry points by name.

``bench/spans.py`` resolves every entry point it wraps (``ops.narrow``,
``ops.concat``, ``complexity.audit``, ``Module.__call__``, ...) when a
``Tracer`` is built; building one installs nothing. Renaming or deleting
one of them fails here, not only in the slow benchmark self-test.

An installed ``Tracer`` reads each conv call's MACs from its input's logical
shape; around an eval and a training forward of a small frontend model, and
an eval forward of a frontend-less ``starv`` stack, they must add up to the
audit's (``spans.check_macs``), whatever memory layout the activations have
and whichever eval path (in place or not) the blocks take. So must they
when the eval bottlenecks and star blocks run in tiles of one frame or one
time step.
"""
import importlib.util
import os

import numpy as np

import tempconv as tc
from tempconv import complexity, layers, ops
from tempconv.layers import Module
from tempconv.tensor import GradTape, Tensor

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_resolves_every_patch_point():
    spans = _load_spans()
    originals = (ops.conv, complexity.audit, Module.__call__)
    spans.Tracer()
    assert (ops.conv, complexity.audit, Module.__call__) == originals


def test_traced_forwards_join_the_audit_macs():
    spans = _load_spans()
    config = tc.parse_config("", ["stem.out_channels=4", "extractor.widths=8,16",
                                  "tcn.channels=16", "tcn.stages=1", "classifier.num_classes=5"])
    model = tc.build_model(config, seed=0)
    tcn = tc.build_model(tc.parse_config("", [
        "model.frontend=false", "tcn.block_kind=starv", "tcn.stages=2", "tcn.channels=8",
        "classifier.num_classes=5"]), seed=0)
    shape, tcn_shape = model.input_shape(5, 16), tcn.input_shape(12)
    audit = {"small": complexity.audit(model, shape).total_macs,
             "tcn": complexity.audit(tcn, tcn_shape).total_macs}
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2,) + shape).astype(np.float32))
    tracer = spans.Tracer()
    tracer.set_models({"small": model, "tcn": tcn})
    tracer.op = 0
    tracer.install()
    try:
        model.eval()(x)
        tcn.eval()(Tensor(rng.standard_normal((2,) + tcn_shape).astype(np.float32)))
        model.train()
        with GradTape() as tape:
            loss = ops.tensor_mean(model(x))
        tape.backward(loss)
    finally:
        tracer.uninstall()
    assert spans.check_macs(tracer.spans, audit) == 3


def test_traced_tiles_join_the_audit_macs(monkeypatch):
    """One frame per extractor tile and one time step per star tile: the
    convs of every tile add up to the audit's MACs, each counted once."""
    spans = _load_spans()
    model = tc.build_model(tc.parse_config("", [
        "stem.out_channels=4", "extractor.widths=8,16", "tcn.block_kind=starv", "tcn.channels=16",
        "tcn.stages=1", "classifier.num_classes=5"]), seed=0).eval()
    tcn = tc.build_model(tc.parse_config("", [
        "model.frontend=false", "tcn.block_kind=starv", "tcn.stages=2", "tcn.channels=8",
        "classifier.num_classes=5"]), seed=0).eval()
    shape, tcn_shape = model.input_shape(5, 16), tcn.input_shape(12)
    audit = {"small": complexity.audit(model, shape).total_macs,
             "tcn": complexity.audit(tcn, tcn_shape).total_macs}
    rng = np.random.default_rng(0)
    convs = sum(isinstance(m, tc.Conv) for m in model.modules())
    monkeypatch.setattr(layers, "_EVAL_TILE_BYTES", 1)
    tracer = spans.Tracer()
    tracer.set_models({"small": model, "tcn": tcn})
    tracer.op = 0
    tracer.install()
    try:
        model(Tensor(rng.standard_normal((2,) + shape).astype(np.float32)))
        calls = sum(s[1] == "ops.conv" for s in tracer.spans)
        tcn(Tensor(rng.standard_normal((2,) + tcn_shape).astype(np.float32)))
    finally:
        tracer.uninstall()
    assert calls > 5 * convs  # ten frames and five time steps, a tile each
    assert spans.check_macs(tracer.spans, audit) == 2
