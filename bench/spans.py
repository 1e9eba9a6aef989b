"""Span tracing for the benchmark's traced runs, installed from outside ``src/``.

``Tracer.install()`` swaps the public entry points of each layer for thin
wrappers that record one span per call; ``uninstall()`` puts the originals
back, so untraced operations run the unmodified program. A span is
``[id, name, start, end, parent, op, attrs]``: ``parent`` is the id of the
enclosing span (-1 at top level) and ``op`` the operation id the workload set
(-1 during set-up). Spans stay in memory until the run writes them out.

``summarize`` turns the spans of the traced operations into the per-layer
metrics. Times there are self times (a span's duration minus its children's)
for ``ops.*`` and ``tensor.backward``, and inclusive times for modules. MACs
come from each traced call's ``ConvSpec`` (and the linear map's shapes);
``check_macs`` proves their sum per forward equals ``complexity.audit``.
"""
from __future__ import annotations

import math
import os
import statistics
from time import perf_counter

from tempconv import complexity, lwt, ops, train
from tempconv.blocks import TemporalBlock
from tempconv.layers import Module
from tempconv.tensor import GradTape
from tempconv.toydata import ToyDataset

CONV_CLASSES = ("dw2d", "pw", "dw1d", "full")
BLOCK_KINDS = ("starv", "baseline")
OP_CATEGORY = {
    "batch_norm": "batch_norm",
    "relu": "elementwise", "relu6": "elementwise", "hadamard": "elementwise",
    "add": "elementwise", "dropout": "elementwise", "softmax": "elementwise",
    "reshape": "layout", "moveaxis": "layout", "narrow": "layout", "concat": "layout",
    "global_average_pool": "pool", "tensor_mean": "pool", "tensor_sum": "pool",
    "linear": "linear", "cross_entropy": "cross_entropy",
}
CATEGORIES = ("batch_norm", "elementwise", "layout", "pool", "linear", "cross_entropy")
ROLES = {"stem": "frontend.stem", "extractor": "frontend.extractor",
         "head": "frontend.head", "tcn": "model.tcn"}


def conv_class(spec):
    """Shape class of a convolution, as the per-layer metrics group them."""
    if spec.groups == 1 and all(k == 1 for k in spec.kernel):
        return "pw"
    if spec.groups == spec.in_channels == spec.out_channels and spec.rank in (1, 2):
        return f"dw{spec.rank}d"
    if spec.groups == 1:
        return "full"
    raise ValueError(f"convolution {spec} fits no benchmark class")


def conv_macs(x, spec):
    """MACs of one conv call, from its ConvSpec and input shape."""
    n = x.shape[0] if x.ndim == spec.rank + 2 else 1
    out = spec.out_sizes(x.shape[-spec.rank:])
    return n * spec.out_channels * math.prod(out) * (spec.in_channels // spec.groups) * math.prod(spec.kernel)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._conv_class = []
        self._modules = {}
        self._patches = self._build_patches()
        self._saved = None

    # -- recording ---------------------------------------------------------

    def begin(self, name, attrs=None):
        rec = [len(self.spans), name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op, attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec):
        rec[3] = perf_counter()
        self._stack.pop()

    def set_models(self, models):
        """Name every module of ``{label: model}`` so its calls get spans."""
        self._modules = {}
        for label, model in models.items():
            self._modules[id(model)] = ("model", {"label": label})
            for role in ROLES:
                part = getattr(model, role, None)
                if part is not None:
                    self._modules[id(part)] = (role, None)
            for m in model.modules():
                if isinstance(m, TemporalBlock):
                    self._modules[id(m)] = ("block", {"kind": m.kind})

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._saved is None:
            self._saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
            for owner, attr, wrapper in self._patches:
                setattr(owner, attr, wrapper)

    def uninstall(self):
        if self._saved is not None:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved = None

    def _wrap(self, fn, name, attrs=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.begin(name, attrs(*args, **kwargs) if attrs else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if after is not None:
                after(rec, out, *args, **kwargs)
            return out

        return wrapper

    def _build_patches(self):
        tracer = self
        patches = []
        for fn in OP_CATEGORY:
            after = None
            if fn == "linear":
                def after(rec, out, x, weight, bias=None):
                    rec[6] = {"macs": math.prod(x.shape[:-1]) * weight.shape[0] * weight.shape[1]}
            patches.append((ops, fn, self._wrap(getattr(ops, fn), f"ops.{fn}", after=after)))

        conv = ops.conv

        def traced_conv(x, weight, bias=None, spec=None):
            cls = conv_class(spec)
            rec = tracer.begin("ops.conv", {"class": cls})
            tracer._conv_class.append(cls)
            try:
                out = conv(x, weight, bias, spec)
            finally:
                tracer._conv_class.pop()
                tracer.end(rec)
            nbytes = x.data.nbytes + weight.data.nbytes + out.data.nbytes
            nbytes += bias.data.nbytes if bias is not None else 0
            rec[6].update(macs=conv_macs(x, spec), bytes=nbytes)
            return out

        patches.append((ops, "conv", traced_conv))

        apply_op = ops.apply_op

        def traced_apply_op(op, inputs, data, make_backward):
            attrs = {"class": tracer._conv_class[-1]} if op == "conv" else None

            def traced_make_backward():
                bwd = make_backward()

                def traced_bwd(up):
                    rec = tracer.begin(f"bwd.{op}", attrs)
                    try:
                        return bwd(up)
                    finally:
                        tracer.end(rec)

                return traced_bwd

            return apply_op(op, inputs, data, traced_make_backward)

        patches.append((ops, "apply_op", traced_apply_op))

        call = Module.__call__

        def traced_call(module, *args, **kwargs):
            known = tracer._modules.get(id(module))
            if known is None:
                return call(module, *args, **kwargs)
            role, attrs = known
            if role == "model":
                x, valid_len = args[0], kwargs.get("valid_len")
                batched = x.ndim == (5 if module.has_frontend else 3)
                n = x.shape[0] if batched else 1
                t = x.shape[-3] if module.has_frontend else x.shape[-1]
                valid = n * t if valid_len is None else int(sum(valid_len))
                attrs = dict(attrs, n=n, frames=n * t, valid=valid)
            rec = tracer.begin(f"module.{role}", attrs)
            try:
                return call(module, *args, **kwargs)
            finally:
                tracer.end(rec)

        patches.append((Module, "__call__", traced_call))
        patches.append((GradTape, "backward", self._wrap(
            GradTape.backward, "tensor.backward", attrs=lambda tape, loss: {"nodes": len(tape)})))
        for fn in ("sgd_step", "augment", "mixup", "evaluate"):
            patches.append((train, fn, self._wrap(getattr(train, fn), f"train.{fn}")))
        patches.append((ToyDataset, "batch", self._wrap(
            ToyDataset.batch, "toydata.batch", attrs=lambda ds, split, idx: {"split": split})))

        def saved_bytes(rec, out, path, *args, **kwargs):
            rec[6] = {"bytes": os.path.getsize(path)}

        patches.append((lwt, "save_checkpoint", self._wrap(
            lwt.save_checkpoint, "lwt.save_checkpoint", after=saved_bytes)))
        patches.append((lwt, "load_checkpoint", self._wrap(lwt.load_checkpoint, "lwt.load_checkpoint")))
        patches.append((complexity, "audit", self._wrap(complexity.audit, "complexity.audit")))
        return patches


def _annotate(spans):
    """Self time, and the model/role/block span each span runs under."""
    self_s = [s[3] - s[2] for s in spans]
    model = [-1] * len(spans)
    role = [None] * len(spans)
    for s in spans:
        sid, name, start, end, parent = s[:5]
        if parent >= 0:
            self_s[parent] -= end - start
            model[sid], role[sid] = model[parent], role[parent]
        if name == "module.model":
            model[sid] = sid
        elif name.startswith("module.") and name != "module.block":
            role[sid] = name[len("module."):]
    return self_s, model, role


def check_macs(spans, audit_macs):
    """Each traced forward's conv + linear MACs must equal N x the audit total.

    ``audit_macs`` maps a model label to ``complexity.audit(...).total_macs``
    for one sample. Returns the number of forwards checked; raises on a
    mismatch.
    """
    _, model, _ = _annotate(spans)
    macs = {}
    for s in spans:
        if s[1] in ("ops.conv", "ops.linear") and model[s[0]] >= 0:
            macs[model[s[0]]] = macs.get(model[s[0]], 0) + s[6]["macs"]
    checked = 0
    for s in spans:
        if s[1] == "module.model" and s[5] >= 0:
            want = s[6]["n"] * audit_macs[s[6]["label"]]
            got = macs.get(s[0], 0)
            if got != want:
                raise AssertionError(
                    f"MAC join mismatch on {s[6]['label']} forward (span {s[0]}): "
                    f"traced {got:,} vs audit {want:,}")
            checked += 1
    return checked


def summarize(spans, n_ops):
    """Per-layer metrics over the spans of ``n_ops`` traced operations.

    ``ops.*``, ``frontend.*``, ``model.tcn.ms`` and ``blocks.*`` are per
    operation; ``train.*`` (except ``eval_ms``, per epoch), ``toydata.*``,
    ``augment.*`` and ``tensor.*`` are per training step; ``lwt.*`` and
    ``complexity.*`` come from set-up.
    """
    self_s, model, role = _annotate(spans)
    acc = {}

    def add(key, value):
        acc[key] = acc.get(key, 0) + value

    steps = []
    for s in spans:
        sid, name, start, end, parent, op, attrs = s
        dur = end - start
        if op < 0:
            if name.startswith(("lwt.", "complexity.")):
                add(name, dur)
                if attrs and "bytes" in attrs:
                    add("lwt.bytes", attrs["bytes"])
            continue
        if name == "ops.conv":
            c = attrs["class"]
            add(f"conv_{c}.s", self_s[sid])
            add(f"conv_{c}.calls", 1)
            add(f"conv_{c}.macs", attrs["macs"])
            add(f"conv_{c}.bytes", attrs["bytes"])
            if role[sid] is not None:
                add(f"{role[sid]}.macs", attrs["macs"])
        elif name.startswith("ops."):
            add(OP_CATEGORY[name[4:]], self_s[sid])
            if name == "ops.cross_entropy" and parent < 0:
                add("train.forward", dur)
        elif name == "bwd.conv":
            add(f"conv_{attrs['class']}.bwd", dur)
        elif name == "bwd.batch_norm":
            add("batch_norm.bwd", dur)
        elif name == "module.model":
            add("frames", attrs["frames"])
            add("valid", attrs["valid"])
            if parent < 0:
                add("train.forward", dur)
        elif name == "module.block":
            add(f"block.{attrs['kind']}", dur)
        elif name.startswith("module."):
            add(name[len("module."):], dur)
        elif name == "tensor.backward":
            add("tensor.backward", self_s[sid])
            add("tensor.backward_incl", dur)
            add("tape_nodes", attrs["nodes"])
        elif name == "train.evaluate":
            add("train.eval", dur)
        elif name == "train.sgd_step":
            add("train.optimizer", dur)
            if steps and "end" not in steps[-1]:
                steps[-1]["end"] = end
        elif name == "toydata.batch" and attrs["split"] == "train":
            add("toydata.batch", dur)
            steps.append({"start": start})
        elif name in ("train.augment", "train.mixup") and parent < 0:
            add("augment", dur)
        if name == "module.model" and parent < 0 and steps and "fwd" not in steps[-1]:
            steps[-1]["fwd"] = start

    steps = [st for st in steps if "end" in st and "fwd" in st]
    per_op = 1e3 / max(n_ops, 1)
    per_step = 1e3 / max(len(steps), 1)
    epochs = max(n_ops, 1)

    def gmacs(macs, seconds):
        return macs / seconds / 1e9 if seconds > 0 else 0.0

    out = {}
    for c in CONV_CLASSES:
        s = acc.get(f"conv_{c}.s", 0.0)
        macs, nbytes = acc.get(f"conv_{c}.macs", 0), acc.get(f"conv_{c}.bytes", 0)
        out[f"ops.conv_{c}.ms"] = s * per_op
        out[f"ops.conv_{c}.calls"] = acc.get(f"conv_{c}.calls", 0) / max(n_ops, 1)
        out[f"ops.conv_{c}.gmacs_per_s"] = gmacs(macs, s)
        out[f"ops.conv_{c}.bytes_computed"] = nbytes / max(n_ops, 1)
        out[f"ops.conv_{c}.macs_per_byte"] = macs / nbytes if nbytes else 0.0
        out[f"ops.conv_{c}.bwd_ms"] = acc.get(f"conv_{c}.bwd", 0.0) * per_op
    for c in CATEGORIES:
        out[f"ops.{c}.ms"] = acc.get(c, 0.0) * per_op
    out["ops.batch_norm.bwd_ms"] = acc.get("batch_norm.bwd", 0.0) * per_op
    out["tensor.backward_ms"] = acc.get("tensor.backward", 0.0) * per_step
    out["tensor.tape_nodes"] = acc.get("tape_nodes", 0) / max(len(steps), 1)
    for r, prefix in ROLES.items():
        out[f"{prefix}.ms"] = acc.get(r, 0.0) * per_op
        if r != "head":
            out[f"{prefix}.gmacs_per_s"] = gmacs(acc.get(f"{r}.macs", 0), acc.get(r, 0.0))
    for k in BLOCK_KINDS:
        out[f"blocks.{k}.ms"] = acc.get(f"block.{k}", 0.0) * per_op
    out["model.valid_frame_share"] = acc.get("valid", 0) / acc["frames"] if acc.get("frames") else 0.0
    out["train.step_ms"] = sum(st["end"] - st["start"] for st in steps) * per_step
    out["train.data_wait_ms"] = sum(st["fwd"] - st["start"] for st in steps) * per_step
    out["train.forward_ms"] = acc.get("train.forward", 0.0) * per_step if steps else 0.0
    out["train.backward_ms"] = acc.get("tensor.backward_incl", 0.0) * per_step
    out["train.optimizer_ms"] = acc.get("train.optimizer", 0.0) * per_step
    out["train.eval_ms"] = acc.get("train.eval", 0.0) * 1e3 / epochs
    out["toydata.batch_ms"] = acc.get("toydata.batch", 0.0) * per_step
    out["augment.ms"] = acc.get("augment", 0.0) * per_step
    out["lwt.save_ms"] = acc.get("lwt.save_checkpoint", 0.0) * 1e3
    out["lwt.load_ms"] = acc.get("lwt.load_checkpoint", 0.0) * 1e3
    out["lwt.bytes"] = acc.get("lwt.bytes", 0)
    out["complexity.audit_ms"] = acc.get("complexity.audit", 0.0) * 1e3
    return out


def overhead_share(traced_s, untraced_s):
    """Median traced operation time over median untraced, minus one."""
    return statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
