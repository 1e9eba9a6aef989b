"""One finiteness check per fast-eval forward.

``Model.forward`` in fast eval (every module in eval mode, no tape) creates
its op results unchecked and checks the logits once; on a failure it runs
again with per-op checks, so the error names the op that failed first, as
when every result was checked. The messages pinned below are those of a
forward that checks every op result.
"""
import ast
import contextlib
import os

import numpy as np
import pytest

import tempconv as tc
from tempconv.blocks import BLOCK_KINDS
from tempconv.config import load_config_file, parse_config
from tempconv.errors import NumericError
from tempconv.layers import BatchNorm
from tempconv.model import build_model
from tempconv.tensor import GradTape, Tensor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(tc.__file__)

FOLD = "non-finite values produced by tensor construction"  # a folded weight or bias
CONV = "non-finite values produced by conv"
LINEAR = "non-finite values produced by linear"
VARIANCE = "batch_norm variance estimate is non-positive after eps"
FINITE = None  # an infinite variance folds its channel to zero: no error

# (model, parameter or buffer) -> the outcome of NaN, +inf and -inf written
# into its first entry; "tcn" models are frontend-less, one kind each
WEIGHT, BIAS, STAT = (FOLD, FOLD, FOLD), (FOLD, FOLD, FOLD), (FOLD, FINITE, VARIANCE)
INJECTIONS = {
    **{(kind, f"tcn.body.0.{name}"): want for kind, name, want in [
        *[(kind, "body.0.conv.weight", WEIGHT) for kind in BLOCK_KINDS if kind != "starv"],
        ("baseline", "body.1.bn.beta", BIAS),
        ("linear", "body.2.bn.beta", BIAS),
        ("fusedmb", "body.1.bn.beta", BIAS),
        ("invertedresidual", "body.2.bn.beta", BIAS),
        ("cib", "body.4.bn.beta", BIAS),
        ("uib", "body.3.bn.beta", BIAS),
        *[(kind, "body.0.bn.running_var", STAT) for kind in BLOCK_KINDS if kind != "starv"],
        ("starv", "dw_in.conv.weight", WEIGHT),
        ("starv", "dw_out.bias", (CONV, CONV, CONV)),
        ("starv", "dw_in.bn.running_var", STAT),
    ]},
    **{("frontend", name): want for name, want in [
        ("stem.conv.weight", WEIGHT),
        ("stem.conv.bias", BIAS),
        ("stem.bn.running_var", STAT),
        ("extractor.stages.0.body.1.conv.weight", WEIGHT),
        ("extractor.stages.0.body.2.bn.beta", BIAS),
        ("extractor.stages.0.body.1.bn.running_var", STAT),
        ("head.fc.weight", (LINEAR, LINEAR, LINEAR)),
        ("head.fc.bias", (LINEAR, LINEAR, LINEAR)),
    ]},
}
# a -inf that an eval ReLU clamps to 0 before the logits no longer raises in
# fast eval, where per-op checks raised the table's message: the bias of the
# norm before the baseline body's last ReLU, and the stem's
SATURATED = {("baseline", "tcn.body.0.body.1.bn.beta", -np.inf),
             ("frontend", "stem.conv.bias", -np.inf)}


def _model(name):
    if name == "frontend":
        text = ("[stem]\nout_channels = 4\n[extractor]\nwidths = 8, 8\n"
                "[tcn]\nstages = 1\nchannels = 8\n")
    else:
        text = (f"[model]\nfrontend = false\n"
                f"[tcn]\nblock_kind = {name}\nstages = 2\nchannels = 8\n")
    model = build_model(parse_config(text + "[classifier]\nnum_classes = 4\n"), seed=0)
    rng = np.random.default_rng(1)
    for m in model.modules():
        if isinstance(m, BatchNorm):
            c = m.channels
            m.gamma.data[...] = rng.uniform(0.5, 1.5, c)
            m.beta.data[...] = rng.normal(0, 0.5, c)
            m.running_mean[...] = rng.normal(0, 0.5, c)
            m.running_var[...] = rng.uniform(0.5, 2.0, c)
    x = rng.standard_normal((2,) + (model.input_shape(frames=5, size=16) if model.has_frontend
                                    else (8, 11))).astype(np.float32)
    return model.eval(), x


def _state(model, x):
    return ([x.tobytes()] + [p.data.tobytes() for p in model.parameters()]
            + [b.tobytes() for _, b in model.named_buffers()])


@pytest.mark.parametrize("name,target,value,want", [
    pytest.param(name, target, value, want, id=f"{name}-{target.replace('tcn.body.0.', '')}-{value}")
    for (name, target), wants in INJECTIONS.items()
    for value, want in zip((np.nan, np.inf, -np.inf), wants)
])
def test_injected_fault_raises_as_per_op_checks_do(name, target, value, want):
    model, x = _model(name)
    found = dict(model.named_parameters())
    array = found[target].data if target in found else dict(model.named_buffers())[target]
    array.reshape(-1)[0] = value
    before = _state(model, x)
    if (name, target, value) in SATURATED or want is FINITE:
        with np.errstate(all="ignore"):
            assert np.isfinite(model(Tensor(x)).data).all()
    else:
        with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
            model(Tensor(x))
        assert type(info.value) is NumericError and str(info.value) == want
    assert _state(model, x) == before


def _overflowing(kind):
    """A frontend-less model whose first block's first conv overflows on
    all-ones input: to -inf under the baseline ReLU, to +inf under the star
    gate's ReLU6."""
    model, _ = _model(kind)
    block = next(iter(model.tcn.body))
    if kind == "baseline":
        list(block.body)[0].conv.weight.data[0] = -1e38
    else:
        dw_in = block.dw_in
        dw_in.conv.weight.data[...] = 1 / 7
        dw_in.bn.gamma.data[...], dw_in.bn.beta.data[...] = 1.0, 0.0
        dw_in.bn.running_mean[...], dw_in.bn.running_var[...] = 0.0, 1.0
        block.branch1.weight.data[0] = block.branch1.bias.data[0] = 3e38
    return model, Tensor(np.ones((2, 8, 11), np.float32))


@pytest.mark.parametrize("kind", ["baseline", "starv"])
def test_clamped_overflow_is_the_limit_in_fast_eval(kind):
    """The saturation rule: fast eval returns the clamp's limit (0 or 6) for
    a conv's ±inf, while a forward with per-op checks names the conv."""
    model, x = _overflowing(kind)
    with np.errstate(over="ignore"):
        assert np.isfinite(model(x).data).all()
        with GradTape(), pytest.raises(NumericError) as info:
            model(x)
    assert str(info.value) == CONV


@contextlib.contextmanager
def _spy():
    """Bytes of every Tensor made and of every array checked for finiteness."""
    made, checked = [], []
    init, isfinite = Tensor.__init__, np.isfinite

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.data.nbytes)

    def spy_isfinite(a, *args, **kwargs):
        checked.append(np.asarray(a).nbytes)
        return isfinite(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tensor, "__init__", spy_init)
        patch.setattr(np, "isfinite", spy_isfinite)
        yield made, checked


def test_fast_eval_checks_only_the_logits():
    model = build_model(load_config_file(os.path.join(ROOT, "configs", "starv.cfg")), seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 5, 32, 32)).astype(np.float32))
    model.eval()
    with _spy() as (made, checked):
        model(x)
    assert checked == [1 * 500 * 4]  # the (1, 500) float32 logits
    assert len(made) > 50
    for mode, tape in (("train", GradTape()), ("eval", GradTape())):
        getattr(model, mode)()
        with _spy() as (made, checked), tape:
            model(x)
        assert checked == made and len(made) > 50, mode


def _enters_unchecked(node, scope=()):
    """The enclosing ``Class.function`` of every call of ``unchecked`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and "unchecked" in (getattr(child.func, "id", None),
                                                           getattr(child.func, "attr", None)):
            yield ".".join(scope)
        inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
        yield from _enters_unchecked(child, inner)


def test_only_model_forward_enters_unchecked():
    entered = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as f:
                entered += [f"{fname}:{where}" for where in _enters_unchecked(ast.parse(f.read()))]
    assert entered == ["model.py:Model.forward"]
