"""Command-line entry point.

Commands: describe, count, verify, infer, gradcheck, schedule, train-toy,
gen-data. Exit codes: 0 success, 1 usage, 2 validation/config/format
error, 3 numeric failure (divergence, failed verification or gradcheck).
Each command accepts only the flags it reads. ``--seed`` (infer, gradcheck)
must be ≥ 0 and defaults to 0; train-toy takes its seed from ``train.seed``.
An unreadable path (missing, a directory, no permission) exits 2 with the
path and the OS reason.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import complexity, lwt
from .augment import augment
from .config import (TrainConfig, config_to_dict, parse_config, parse_toy_spec, parse_train_config,
                     read_config_text)
from .errors import ConfigError, FormatError, NumericError, ShapeError, TapeError, located
from .model import build_model, describe, receptive_field
from .tensor import Tensor
from .train import BASE_LR, evaluate, lr_schedule, train_loop

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_FORMATS = ("text", "json")  # count alone adds markdown


def _resolve_seed(args):
    if args.seed < 0:
        raise ConfigError(f"seed must be ≥ 0, got {args.seed}")
    return args.seed


def _document(args):
    """The parse functions' ``(text, overrides, source)`` from ``--config`` and ``--set``."""
    with located(args.config):
        text = read_config_text(args.config) if args.config else ""
    return text, args.set or [], args.config


def _emit(args, document):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(document if document.endswith("\n") else document + "\n")
    else:
        print(document)


def build_parser():
    # each command takes only the flag groups it reads
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="path to a config document")
    config.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override one config key (repeatable, last wins)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed, ≥ 0 (default: 0)")

    def output(*formats):
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--format", choices=_FORMATS + formats, default="text")
        p.add_argument("--out", help="write the output document to this path")
        return p

    parser = argparse.ArgumentParser(prog="tempconv",
                                     description="causal temporal-convolution model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("describe", parents=[config, output()],
                   help="build a model and print its structure")

    p = sub.add_parser("count", parents=[config, output("markdown")],
                       help="analytic parameter/MAC audit")
    p.add_argument("--frames", type=int, default=29, help="temporal length to audit at")
    p.add_argument("--size", type=int, default=88, help="spatial edge to audit at")

    p = sub.add_parser("verify", parents=[output()],
                       help="check configs against an expectations fixture")
    p.add_argument("--fixture", default="fixtures/paper_tables.json")
    p.add_argument("--only", action="append", help="restrict to fixture row id (repeatable)")

    p = sub.add_parser("infer", parents=[config, seed, output()],
                       help="classify one stored tensor")
    p.add_argument("--input", required=True, help="tensor file to classify")
    p.add_argument("--checkpoint", help="trained weights; omitted = fresh seeded model")

    p = sub.add_parser("gradcheck", parents=[seed, output()],
                       help="finite-difference check of block gradients")
    p.add_argument("--kind", default="all", help="block kind, 'head', or 'all'")

    p = sub.add_parser("schedule", parents=[output()],
                       help="print the annealed learning-rate table")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)

    p = sub.add_parser("train-toy", parents=[config, output()],
                       help="train on the synthetic task with the full recipe")
    p.add_argument("--run-dir", default="runs/toy",
                   help="directory for history, checkpoint and summary")

    sub.add_parser("gen-data", parents=[config, output()],
                   help="materialize the synthetic dataset to an .npz file")
    return parser


# -- command bodies --------------------------------------------------------

def _cmd_describe(args):
    config = parse_config(*_document(args))
    model = build_model(config, init=False)
    if args.format == "json":
        doc = json.dumps({
            "build": model.build_version,
            "config_hash": model.config_hash,
            "config": config_to_dict(config),
            "receptive_field": receptive_field(config),
            "total_params": model.param_count(),
        }, indent=2)
    else:
        doc = describe(model)
    _emit(args, doc)
    return EXIT_OK


def _cmd_count(args):
    config = parse_config(*_document(args))
    model = build_model(config, init=False)
    report = complexity.audit(model, model.input_shape(args.frames, args.size))
    _emit(args, complexity.emit_report(report, args.format))
    return EXIT_OK


def _cmd_verify(args):
    results = complexity.verify_fixture(args.fixture, row_ids=args.only)
    _emit(args, complexity.emit_verify(results, args.format))
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERIC


def _cmd_schedule(args):
    rates = lr_schedule(args.epochs)  # refuses epochs < 1
    if args.format == "json":
        doc = json.dumps({"base_lr": BASE_LR, "total_epochs": args.epochs,
                          "rates": rates}, indent=2)
    else:
        lines = [f"cosine annealing: base {BASE_LR}, {args.epochs} epochs"]
        lines += [f"  epoch {e:>3}  lr {r:.10f}" for e, r in enumerate(rates)]
        doc = "\n".join(lines)
    _emit(args, doc)
    return EXIT_OK


def _cmd_gradcheck(args):
    from .gradcheck import block_suite

    results = block_suite(args.kind, seed=_resolve_seed(args))
    passed = all(r.ok for _, r in results)
    if args.format == "json":
        doc = json.dumps({
            "passed": passed,
            "results": [
                {"kind": kind, "ok": r.ok, "checked": r.checked,
                 "max_rel_err": r.max_rel_err}
                for kind, r in results
            ],
        }, indent=2)
    else:
        lines = [f"  {kind:<18} {'PASS' if r.ok else 'FAIL'}  "
                 f"{r.checked} coords, max rel err {r.max_rel_err:.3e}"
                 for kind, r in results]
        lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
        doc = "\n".join(lines)
    _emit(args, doc)
    return EXIT_OK if passed else EXIT_NUMERIC


def _cmd_infer(args):
    doc = _document(args)
    tcfg = parse_train_config(*doc)  # the clip is prepared as evaluate prepares it
    model = build_model(parse_config(*doc), seed=_resolve_seed(args))
    if args.checkpoint:
        state, meta = lwt.load_checkpoint(args.checkpoint)
        with located(args.checkpoint):
            if meta.get("config_hash") and meta["config_hash"] != model.config_hash:
                raise FormatError(
                    f"checkpoint was trained on config {meta['config_hash']}, "
                    f"current config is {model.config_hash}"
                )
            model.load_state_dict(state)
    model.eval()
    arr = lwt.load_tensor(args.input)
    if model.has_frontend and arr.ndim == 4:  # a clip of another rank is refused uncropped
        arr, _ = augment(arr, None, False, tcfg.crop_size)
    model.check_input(arr.shape)
    probs = model.predict_proba(Tensor(arr.astype(np.float32))).data
    order = np.argsort(-probs, kind="stable")
    top5 = [(int(i), float(probs[i])) for i in order[:5]]
    if args.format == "json":
        doc = json.dumps({
            "top1": top5[0][0],
            "top5": [{"class": c, "prob": p} for c, p in top5],
            "prob_sum": float(probs.sum()),
        }, indent=2)
    else:
        lines = [f"top-1 class: {top5[0][0]}"]
        lines += [f"  class {c:>4}  p={p:.6f}" for c, p in top5]
        doc = "\n".join(lines)
    _emit(args, doc)
    return EXIT_OK


class _History:
    """The run's ``history.jsonl``, truncated at the first epoch record (a run
    refused before one keeps an earlier history), then appended record by record."""

    def __init__(self, run_dir):
        self.path, self.mode = os.path.join(run_dir, "history.jsonl"), "w"

    def write(self, text):
        with open(self.path, self.mode, encoding="utf-8") as f:
            f.write(text)
        self.mode = "a"


def _cmd_train_toy(args):
    doc = _document(args)
    config = parse_config(*doc)
    tcfg = parse_train_config(*doc)
    toy = parse_toy_spec(*doc)

    from .toydata import ToyDataset
    dataset = ToyDataset(toy)
    model = build_model(config, seed=tcfg.seed)
    os.makedirs(args.run_dir, exist_ok=True)
    log = _History(args.run_dir)
    result = train_loop(model, dataset, tcfg, log_stream=log)
    test_acc = evaluate(model, dataset, "test", tcfg)
    ckpt_path = os.path.join(args.run_dir, "best.lwtc")
    lwt.save_checkpoint(ckpt_path, model.state_dict(), meta={
        "config_hash": model.config_hash,
        "best_epoch": result.best_epoch,
        "best_val_acc": result.best_val_acc,
        "seed": tcfg.seed,
    })
    summary = {
        "epochs": tcfg.epochs,
        "best_epoch": result.best_epoch,
        "best_val_acc": result.best_val_acc,
        "test_acc": test_acc,
        "history": log.path,
        "checkpoint": ckpt_path,
    }
    if args.format == "json":
        doc = json.dumps(summary, indent=2)
    else:
        doc = "\n".join([
            f"trained {tcfg.epochs} epoch(s); best epoch {result.best_epoch} "
            f"with val acc {result.best_val_acc:.4f}",
            f"test acc {test_acc:.4f}",
            f"history: {log.path}",
            f"checkpoint: {ckpt_path}",
        ])
    _emit(args, doc)
    return EXIT_OK


def _cmd_gen_data(args):
    from .toydata import ToyDataset

    toy = parse_toy_spec(*_document(args))
    dataset = ToyDataset(toy)
    arrays = {}
    counts = {}
    for split in ("train", "val", "test"):
        x, y = dataset.all_of(split)
        arrays[f"{split}_x"] = x
        arrays[f"{split}_y"] = y
        counts[split] = len(y)
    out = args.out or "toy_data.npz"
    with open(out, "wb") as f:  # a path, not a file, would gain a ".npz" suffix
        np.savez(f, **arrays)
    doc = json.dumps({"path": out, "classes": toy.num_classes,
                      "seq_len": toy.seq_len, "frame_size": toy.frame_size,
                      "sizes": counts}, indent=2)
    print(doc if args.format == "json" else
          f"wrote {out}: {counts} samples, {toy.num_classes} classes, "
          f"T={toy.seq_len}, {toy.frame_size}x{toy.frame_size}")
    return EXIT_OK


_COMMANDS = {
    "describe": _cmd_describe,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "infer": _cmd_infer,
    "gradcheck": _cmd_gradcheck,
    "schedule": _cmd_schedule,
    "train-toy": _cmd_train_toy,
    "gen-data": _cmd_gen_data,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error exits 2; here usage is 1
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FormatError, ShapeError, TapeError) as exc:
        print(f"tempconv.{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"tempconv.{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"tempconv: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
