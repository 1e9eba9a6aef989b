"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test below is a single pass/fail line for one commitment:

  1. temporal-stack parameter counts vs the shipped reference-table values
  2. temporal-stack MAC counts at a 1x29x88x88 input
  3. parameter/MAC trend across the (stages; channels) grid
  4. bitwise causality, 50 random (config, t) cases
  5. gradient suite vs central differences, every block kind + head
  6. cosine schedule exactness at every epoch
  7. convolution vs nested-loop oracle, 100 random cases
  8. toy end-to-end training: chance before, >= 95% validation within
     30 epochs, under 5 CPU-minutes
  9. bitwise determinism of every report and history above

A red line here is a finding, not necessarily a bug: the suite states each
target exactly as committed and does not bend tolerances to force green.
"""
import io
import json
import os
import time

import numpy as np
import pytest

import tempconv as tc
from tempconv import GradTape, Tensor, ops
from tempconv.blocks import BLOCK_KINDS, STAR_DW_KERNEL, make_block
from tempconv.complexity import audit, emit_verify, verify_fixture
from tempconv.gradcheck import block_suite
from tempconv.model import receptive_field
from tempconv.toydata import ToyDataset
from tempconv.train import cosine_lr, evaluate, train_loop

from oracles import conv_oracle, cosine_rate_oracle

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURE = os.path.join(ROOT, "fixtures", "paper_tables.json")
TOY_CFG = os.path.join(ROOT, "configs", "toy.cfg")

TCN_ONLY = "[model]\nfrontend = false\n"


# ---------------------------------------------------------------- criterion 1

def _verify(metric):
    results = verify_fixture(FIXTURE)
    picked = [r for r in results if r.metric == metric]
    lines = emit_verify(picked, fmt="text")
    failed = [r for r in picked if not r.passed]
    return picked, failed, lines


def test_criterion_1_parameter_tables():
    """Every temporal-stack parameter target holds at its stated tolerance."""
    picked, failed, lines = _verify("params")
    assert len(picked) == 7
    assert not failed, "\n" + lines


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_mac_tables():
    """Temporal-stack MAC targets at 1x29x88x88 hold at stated tolerance."""
    picked, failed, lines = _verify("macs")
    assert len(picked) == 2  # baseline and starv rows carry MAC targets
    assert not failed, "\n" + lines


# ---------------------------------------------------------------- criterion 3

def _grid_profile():
    rows = []
    for stages, ch in [(8, 128), (6, 256), (4, 512), (3, 768)]:
        c = tc.parse_config(
            TCN_ONLY + f"[tcn]\nblock_kind = starv\nstages = {stages}\nchannels = {ch}\n")
        model = tc.build_model(c, init=False)
        rep = audit(model, model.input_shape(frames=29))
        rows.append((stages, ch, rep.tcn_params, rep.tcn_macs))
    return rows


def test_criterion_3_depth_width_trend():
    """Params rise (8;128)->(6;256)->(4;512); MACs fall (3;768)->...->(8;128)."""
    rows = _grid_profile()
    params = [r[2] for r in rows]
    macs = [r[3] for r in rows]
    assert params[0] < params[1] < params[2], rows
    assert macs[3] > macs[2] > macs[1] > macs[0], rows


# ---------------------------------------------------------------- criterion 4

def _causality_cases(seed, n_cases=50):
    """Half single blocks, half full temporal stacks; every kind covered."""
    rng = np.random.default_rng(seed)
    kinds = list(BLOCK_KINDS)
    outcomes = []
    for i in range(n_cases):
        kind = kinds[i % len(kinds)]
        channels = 2 * int(rng.integers(2, 9))  # even: all expansions integral
        t_len = int(rng.integers(8, 25))
        cut = int(rng.integers(1, t_len))
        x = rng.standard_normal((1, channels, t_len)).astype(np.float32)
        y = x.copy()
        y[:, :, cut:] += rng.standard_normal(
            (1, channels, t_len - cut)).astype(np.float32)
        if i < n_cases // 2:
            net = make_block(kind, channels, dilation=int(rng.integers(1, 5)), dropout=0.0)
            net.init_parameters(np.random.default_rng(int(rng.integers(1 << 30))))
            net.eval()
            fwd = net
        else:
            stages = int(rng.integers(1, 4))
            c = tc.parse_config(
                "[model]\nfrontend = false\n"
                + f"[tcn]\nblock_kind = {kind}\nchannels = {channels}\n"
                + f"stages = {stages}\ndropout = 0\n")
            model = tc.build_model(c, seed=int(rng.integers(1 << 30))).eval()
            fwd = model.tcn
        out_x = fwd(Tensor(x)).data
        out_y = fwd(Tensor(y)).data
        outcomes.append(bool(np.array_equal(out_x[:, :, :cut], out_y[:, :, :cut])))
    return outcomes


def test_criterion_4_causality_50_random_cases():
    """Future-frame perturbations never touch past outputs, bitwise."""
    outcomes = _causality_cases(seed=20260822)
    assert len(outcomes) == 50
    assert all(outcomes), f"{outcomes.count(False)} of 50 cases leaked"


# ---------------------------------------------------------------- criterion 5

def _gradient_suite(seed=0):
    t0 = time.time()
    results = block_suite(which="all", seed=seed)
    elapsed = time.time() - t0
    return results, elapsed


def test_criterion_5_gradient_suite():
    """Tape gradients match central differences to < 1e-3 for every kind."""
    results, elapsed = _gradient_suite()
    names = [name for name, _ in results]
    assert set(names) >= set(BLOCK_KINDS) | {"head"}
    for name, res in results:
        assert res.checked >= 5, f"{name} probed only {res.checked} coords"
        assert res.ok, f"{name}: {res}"
    assert elapsed < 120, f"suite took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 6

def _schedule_errors():
    return [abs(cosine_lr(e) - cosine_rate_oracle(0.02, e, 80)) for e in range(81)]


def test_criterion_6_schedule_exactness():
    """Annealed rate is exact to 1e-12 at all epochs; endpoints pinned."""
    errs = _schedule_errors()
    assert max(errs) <= 1e-12
    assert cosine_lr(0) == pytest.approx(0.02, abs=1e-15)
    assert cosine_lr(40) == pytest.approx(0.01, abs=1e-15)
    assert cosine_lr(80) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------- criterion 7

def _conv_cases(seed, n_cases=100):
    """Random draws over the conv configurations the blocks actually use."""
    rng = np.random.default_rng(seed)
    errors = []
    for i in range(n_cases):
        flavor = ("full", "depthwise", "pointwise", "grouped")[i % 4]
        cin = int(rng.integers(1, 9))
        if flavor == "full":
            groups, cout, k = 1, int(rng.integers(1, 9)), int(rng.choice([3, 5, 7]))
        elif flavor == "depthwise":
            groups, cout, k = cin, cin, int(rng.choice([3, 5, 7]))
        elif flavor == "pointwise":
            groups, cout, k = 1, int(rng.integers(1, 9)), 1
        else:
            cin = int(rng.choice([2, 4, 6, 8]))
            groups = int(rng.choice([2, cin // 2 or 2]))
            cout = groups * int(rng.integers(1, 4))
            k = int(rng.choice([3, 5, 7]))
        dilation = int(rng.choice([1, 2, 4, 8, 16, 32, 64, 128]))
        t_len = int(rng.integers(4, 40))
        x = rng.standard_normal((2, cin, t_len))
        w = rng.standard_normal((cout, cin // groups, k))
        use_bias = bool(rng.integers(0, 2))
        b = rng.standard_normal(cout) if use_bias else None
        spec = ops.ConvSpec(cin, cout, kernel=(k,), dilation=(dilation,),
                            groups=groups, causal=True)
        got = ops.conv(Tensor(x), Tensor(w),
                       Tensor(b) if b is not None else None, spec).data
        want = conv_oracle(x, w, b, dilation=(dilation,),
                           padding=(((k - 1) * dilation, 0),), groups=groups)
        scale = max(np.abs(want).max(), 1e-12)
        errors.append(float(np.abs(got - want).max() / scale))
    return errors


def test_criterion_7_convolution_oracle_100_cases():
    """Library convolution equals the nested-loop oracle to 1e-6 relative."""
    errors = _conv_cases(seed=7)
    assert len(errors) == 100
    assert max(errors) < 1e-6, f"worst case {max(errors):.3e}"


# ---------------------------------------------------------------- criterion 8

def _run_toy_recipe():
    text = open(TOY_CFG).read()
    config = tc.parse_config(text)
    tcfg = tc.parse_train_config(text)
    toy = tc.parse_toy_spec(text)
    dataset = ToyDataset(toy)
    model = tc.build_model(config, seed=tcfg.seed)
    acc_before = evaluate(model, dataset, "val", tcfg)
    stream = io.StringIO()
    t0 = time.time()
    result = train_loop(model, dataset, tcfg, log_stream=stream)
    elapsed = time.time() - t0
    return {
        "acc_before": acc_before,
        "history": result.history,
        "history_log": stream.getvalue(),
        "best_val_acc": result.best_val_acc,
        "elapsed": elapsed,
        "test_acc": evaluate(model, dataset, "test", tcfg),
    }


@pytest.fixture(scope="module")
def toy_run():
    return _run_toy_recipe()


def test_criterion_8_toy_end_to_end(toy_run):
    """Chance before training; >= 95% validation within 30 epochs, < 5 min."""
    assert toy_run["acc_before"] <= 0.2, "untrained accuracy already above chance band"
    assert len(toy_run["history"]) <= 30
    reached = [row["epoch"] for row in toy_run["history"] if row["val_acc"] >= 0.95]
    assert reached, f"never reached 95%: best {toy_run['best_val_acc']:.3f}"
    assert toy_run["elapsed"] < 300, f"took {toy_run['elapsed']:.0f}s"


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_bitwise_determinism(toy_run):
    """Re-running every report and the full training reproduces identical bytes."""
    # complexity verification reports (criteria 1-2)
    r1 = emit_verify(verify_fixture(FIXTURE), fmt="json")
    r2 = emit_verify(verify_fixture(FIXTURE), fmt="json")
    assert r1 == r2

    # grid profile (criterion 3)
    assert _grid_profile() == _grid_profile()

    # causality outcomes (criterion 4)
    assert _causality_cases(seed=20260822) == _causality_cases(seed=20260822)

    # gradient suite errors (criterion 5)
    g1, _ = _gradient_suite()
    g2, _ = _gradient_suite()
    assert [(n, r.max_rel_err) for n, r in g1] == [(n, r.max_rel_err) for n, r in g2]

    # schedule (criterion 6)
    assert _schedule_errors() == _schedule_errors()

    # convolution oracle deviations (criterion 7)
    assert _conv_cases(seed=7) == _conv_cases(seed=7)

    # full training history, bitwise (criterion 8)
    rerun = _run_toy_recipe()
    assert rerun["history_log"] == toy_run["history_log"]
    assert rerun["history"] == toy_run["history"]
    assert rerun["test_acc"] == toy_run["test_acc"]
    # the log stream round-trips through JSON without loss
    parsed = [json.loads(line) for line in toy_run["history_log"].splitlines()]
    assert parsed == toy_run["history"]
