"""The three benchmark workloads, their set-up and their output checks.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one returned. The seed picks which inputs the run
sends, from a pool whose reference outputs are stored in ``refs.npz``
(written by ``make_refs.py``); the program only ever sees those inputs.

- ``clip_infer``: one ``1x29x88x88`` clip per operation through the
  ``configs/starv.cfg`` model in eval mode, as ``tempconv infer`` runs it.
- ``long_seq``: the frontend-less ``configs/starv.cfg`` and
  ``configs/baseline.cfg`` stacks; one operation is a request to each, every
  request a batch of ``SEQ_BATCH`` sequences of ``SEQ_FRAMES`` frames with a
  per-sample ``valid_len``.
- ``toy_train``: the ``configs/toy.cfg`` recipe through ``train_loop`` with
  ``TOY_EPOCHS`` epochs; one operation is an epoch, one checked unit a
  whole training.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from tempconv import complexity, lwt
from tempconv.config import load_config_file, parse_config, parse_toy_spec, parse_train_config
from tempconv.errors import NumericError
from tempconv.model import build_model
from tempconv.tensor import Tensor
from tempconv.toydata import ToyDataset
from tempconv.train import train_loop

from spans import Tracer, check_macs, overhead_share, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
REFS = Path(__file__).resolve().parent / "refs.npz"

WORKLOADS = ("clip_infer", "long_seq", "toy_train")
WEIGHT_SEED = 0
CLIP_SHAPE = (1, 29, 88, 88)
CLIP_POOL = 16
SEQ_KINDS = ("starv", "baseline")
SEQ_BATCH = 2
SEQ_FRAMES = 1024
SEQ_POOL = 16
TOY_EPOCHS = 8
# highest percentile with at least ten samples beyond it at the benchmark's
# 25 s run length on this code (about 50 clips, 22 request pairs, 45 epochs)
TAIL_PERCENTILE = {"clip_infer": 75, "long_seq": 50, "toy_train": 75}
# float32 tolerance: accumulation order may change, the function may not
RTOL = 1e-3
ATOL_SCALE = 1e-4
MIN_VAL_ACC = 0.95


@dataclass
class Checks:
    """What a correct output looks like: stored logits and the toy accuracy bar."""

    refs: dict
    min_val_acc: float = MIN_VAL_ACC

    @classmethod
    def load(cls):
        with np.load(REFS) as f:
            return cls({k: f[k] for k in f.files})

    def logits_ok(self, key, index, out):
        ref = self.refs[key][index]
        return (out.shape == ref.shape and bool(np.isfinite(out).all())
                and bool(np.allclose(out, ref, rtol=RTOL, atol=ATOL_SCALE * np.abs(ref).max())))


@dataclass
class Result:
    """What one run measured; ``op_s`` are the untraced operation times."""

    attempted: int = 0
    failed: int = 0
    op_s: list = field(default_factory=list)
    traced_op_s: list = field(default_factory=list)
    items: int = 0
    item_unit: str = ""
    op_name: str = ""


def clip_input(index):
    rng = np.random.default_rng(np.random.SeedSequence([29, 88, index]))
    return rng.standard_normal(CLIP_SHAPE, dtype=np.float32)


def seq_input(kind, index, channels):
    rng = np.random.default_rng(np.random.SeedSequence([1024, SEQ_KINDS.index(kind), index]))
    x = rng.standard_normal((SEQ_BATCH, channels, SEQ_FRAMES), dtype=np.float32)
    valid_len = rng.integers(SEQ_FRAMES // 4, SEQ_FRAMES + 1, size=SEQ_BATCH)
    return x, valid_len


def _round_trip(model, name):
    """Write the weights to an LWTC file and load them back, as ``infer --checkpoint``."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-{os.getpid()}.lwtc"
    lwt.save_checkpoint(path, model.state_dict(), meta={"config_hash": model.config_hash})
    try:
        state, meta = lwt.load_checkpoint(path)
    finally:
        path.unlink()
    if meta.get("config_hash") != model.config_hash:
        raise ValueError(f"checkpoint {path.name} holds another config")
    model.load_state_dict(state)
    return model


def _build(name, config):
    model = _round_trip(build_model(config, seed=WEIGHT_SEED), name)
    return model.eval()


# -- set-up: config parse, build, checkpoint round trip, audit, warm-up -----

def setup_clip_infer():
    model = _build("clip", load_config_file(ROOT / "configs" / "starv.cfg"))
    audits = {"starv": complexity.audit(model, CLIP_SHAPE).total_macs}
    model(Tensor(clip_input(0)))
    return {"models": {"starv": model}, "audits": audits}


def setup_long_seq():
    models = {k: _build(k, load_config_file(ROOT / "configs" / f"{k}.cfg", ["model.frontend=false"]))
              for k in SEQ_KINDS}
    audits = {k: complexity.audit(m, (m.tcn.in_channels, SEQ_FRAMES)).total_macs
              for k, m in models.items()}
    for k, m in models.items():
        x, valid_len = seq_input(k, 0, m.tcn.in_channels)
        m(Tensor(x), valid_len=valid_len)
    return {"models": models, "audits": audits}


def setup_toy_train():
    text = (ROOT / "configs" / "toy.cfg").read_text(encoding="utf-8")
    overrides = [f"train.epochs={TOY_EPOCHS}"]
    config = parse_config(text, overrides)
    tcfg = parse_train_config(text, overrides)
    spec = parse_toy_spec(text, overrides)
    dataset = ToyDataset(spec)
    model = _round_trip(build_model(config, seed=tcfg.seed), "toy")
    shape = (config.in_channels, spec.seq_len, spec.frame_size, spec.frame_size)
    audits = {"toy": complexity.audit(model, shape).total_macs}
    train_loop(model, dataset, replace(tcfg, epochs=1))  # warm-up: one operation
    return {"config": config, "tcfg": tcfg, "spec": spec, "audits": audits}


SETUP = {"clip_infer": setup_clip_infer, "long_seq": setup_long_seq, "toy_train": setup_toy_train}


def timed_setup(workload):
    start = perf_counter()
    ctx = SETUP[workload]()
    return ctx, perf_counter() - start


# -- measured loops ----------------------------------------------------------

def _failure(result, what):
    result.failed += 1
    print(f"bench: {what} failed", file=sys.stderr)
    traceback.print_exc()


def _closed_loop(seconds, trace, step):
    """Call ``step(k, traced)`` until ``seconds`` pass; a traced run alternates
    untraced and traced operations and runs at least one of each."""
    start = perf_counter()
    k = 0
    while True:
        step(k, trace and k % 2 == 1)
        k += 1
        if perf_counter() - start >= seconds and (not trace or k >= 2):
            return


def _timed(tracer, k, traced, fn):
    if traced:
        tracer.op = k
        tracer.install()
    try:
        start = perf_counter()
        out = fn()
        return out, perf_counter() - start
    finally:
        if traced:
            tracer.uninstall()
            tracer.op = -1


def run_clip_infer(ctx, seed, seconds, trace, tracer, checks):
    model = ctx["models"]["starv"]
    rng = np.random.default_rng(seed)
    res = Result(item_unit="clips", op_name="clip")

    def step(k, traced):
        index = int(rng.integers(CLIP_POOL))
        x = clip_input(index)
        res.attempted += 1
        try:
            out, dt = _timed(tracer, k, traced, lambda: model(Tensor(x)).data)
        except Exception:
            return _failure(res, f"clip {k}")
        (res.traced_op_s if traced else res.op_s).append(dt)
        res.items += 1
        if not checks.logits_ok("clip_infer", index, out):
            res.failed += 1
            print(f"bench: clip {k} (pool entry {index}) logits differ from reference", file=sys.stderr)

    _closed_loop(seconds, trace, step)
    return res


def run_long_seq(ctx, seed, seconds, trace, tracer, checks):
    models = ctx["models"]
    rng = np.random.default_rng(seed)
    res = Result(item_unit="frames", op_name="request pair")

    def step(k, traced):
        requests = []
        for kind in SEQ_KINDS:
            index = int(rng.integers(SEQ_POOL))
            requests.append((kind, index) + seq_input(kind, index, models[kind].tcn.in_channels))

        def pair():
            return [models[kind](Tensor(x), valid_len=valid_len).data
                    for kind, _, x, valid_len in requests]

        res.attempted += len(requests)
        try:
            outs, dt = _timed(tracer, k, traced, pair)
        except Exception:
            return _failure(res, f"request pair {k}")
        (res.traced_op_s if traced else res.op_s).append(dt)
        for (kind, index, x, valid_len), out in zip(requests, outs):
            res.items += x.shape[0] * x.shape[2]
            if not checks.logits_ok(f"long_seq_{kind}", index, out):
                res.failed += 1
                print(f"bench: {kind} request {k} (pool entry {index}) logits differ "
                      "from reference", file=sys.stderr)

    _closed_loop(seconds, trace, step)
    return res


class _EpochClock:
    """The ``log_stream`` given to ``train_loop``: timestamps every epoch record.

    In a traced run it also switches tracing on for every other epoch.
    """

    def __init__(self, res, tracer, trace):
        self.res, self.tracer, self.trace = res, tracer, trace
        self.epoch = 0
        self.last = None
        self.records = []

    def start(self):
        self._arm()
        self.last = perf_counter()

    def _arm(self):
        if self.trace and self.epoch % 2 == 1:
            self.tracer.op = self.epoch
            self.tracer.install()

    def write(self, line):
        now = perf_counter()
        traced = self.tracer.op >= 0
        self.tracer.uninstall()
        self.tracer.op = -1
        (self.res.traced_op_s if traced else self.res.op_s).append(now - self.last)
        self.records.append(json.loads(line))
        self.epoch += 1
        self._arm()
        self.last = perf_counter()

    def flush(self):
        pass

    def stop(self):
        self.tracer.uninstall()
        self.tracer.op = -1


def run_toy_train(ctx, seed, seconds, trace, tracer, checks):
    config, tcfg, spec = ctx["config"], ctx["tcfg"], ctx["spec"]
    res = Result(item_unit="train samples", op_name="epoch")
    clock = _EpochClock(res, tracer, trace)
    start = perf_counter()
    training = 0
    while True:
        data_seed, init_seed, train_seed = (
            int(v) for v in np.random.SeedSequence([seed, training]).generate_state(3) % 2**31)
        dataset = ToyDataset(replace(spec, seed=data_seed))
        model = build_model(config, seed=init_seed)
        if trace:
            tracer.set_models({"toy": model})
        res.attempted += 1
        clock.records = []
        clock.start()
        try:
            outcome = train_loop(model, dataset, replace(tcfg, seed=train_seed), log_stream=clock)
        except NumericError:
            _failure(res, f"training {training}")
        else:
            losses_ok = all(np.isfinite(r["train_loss"]) for r in clock.records)
            if not losses_ok or outcome.best_val_acc < checks.min_val_acc:
                res.failed += 1
                print(f"bench: training {training} reached val_acc {outcome.best_val_acc:.3f}"
                      f" (needs {checks.min_val_acc}), losses finite: {losses_ok}", file=sys.stderr)
        finally:
            clock.stop()
        res.items += len(clock.records) * spec.train_size
        training += 1
        if perf_counter() - start >= seconds and (not trace or len(res.traced_op_s) >= 1):
            break
    return res


RUN = {"clip_infer": run_clip_infer, "long_seq": run_long_seq, "toy_train": run_toy_train}


def run_workload(workload, seed, seconds, trace, checks, setups=()):
    """Set up (traced when ``trace``), run the loop, and return the metrics.

    ``setups`` are extra set-up times measured in fresh processes. Returns
    ``(result, end_to_end, per_layer, detail)``; ``per_layer`` is None
    unless ``trace``.
    """
    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        ctx, setup_s = timed_setup(workload)
    finally:
        tracer.uninstall()
    if trace:
        tracer.set_models(ctx.get("models", {}))
    res = RUN[workload](ctx, seed, seconds, trace, tracer, checks)
    if not res.op_s:
        raise RuntimeError(f"{workload}: no operation completed")
    op_ms = sorted(1e3 * s for s in res.op_s)
    tail = TAIL_PERCENTILE[workload]
    measured_s = sum(res.op_s) + sum(res.traced_op_s)
    detail = {
        "operation": res.op_name,
        "item": res.item_unit,
        "operations": len(res.op_s) + len(res.traced_op_s),
        "traced_operations": len(res.traced_op_s),
        "tail": f"p{tail} of {len(op_ms)} untraced operations",
        "op_ms": [round(1e3 * s, 3) for s in res.op_s],
        "setup_samples_s": [setup_s] + list(setups),
        "failed_share": res.failed / res.attempted,
    }
    end_to_end = {
        "setup_s": statistics.median([setup_s] + list(setups)),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": float(np.percentile(op_ms, tail)),
        "items_per_s": res.items / measured_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    per_layer = None
    if trace:
        detail["mac_join_forwards_checked"] = check_macs(tracer.spans, ctx["audits"])
        per_layer = summarize(tracer.spans, len(res.traced_op_s))
        per_layer["trace.overhead_share"] = overhead_share(res.traced_op_s, res.op_s)
        detail["spans"] = tracer.spans
    return res, end_to_end, per_layer, detail


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
