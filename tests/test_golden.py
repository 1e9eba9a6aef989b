"""Golden outputs: CLI documents and seeded weights must not drift.

Every shipped config is rendered through ``describe`` (text, json) and
``count`` (text, json, markdown), with and without the frontend (without
it, from a copy of the config that drops its ``[stem]`` and ``[extractor]``
sections, which a frontend-less model refuses); the paper fixture through ``verify --format json``; ``infer --format text`` on
a seeded clip through the toy config and on a seeded sequence through a
frontend-less model. Weights are pinned by a sha256 over each
``state_dict`` (entry names, order, dtypes, shapes and bytes), for seeded
and uninitialized models of every config and for one block of every kind,
and again by one that leaves the names out (``model_values``,
``block_values``): a change that only renames or regroups layers rewrites
the first and must pass the second unchanged. The eval logits of every
config's seeded model, with and without the frontend, on a seeded batch of
two whose second sample is shortened by ``valid_len``, are pinned to
float32 tolerance (``logits``): within 1e-5 of the largest recorded logit.

The recorded values live in ``golden/outputs.json``. Regenerate them only
for an intended change of output, and say why in the change log:

    PYTHONPATH=src python tests/test_golden.py --write
"""
import contextlib
import dataclasses
import difflib
import functools
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

import tempconv as tc
from tempconv.blocks import BLOCK_KINDS, make_block
from tempconv.cli import main
from tempconv.lwt import save_tensor

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "outputs.json")
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
FIXTURE = os.path.join(ROOT, "fixtures", "paper_tables.json")
NO_FRONTEND = ["--set", "model.frontend=false"]
FRONTEND_SECTIONS = ("[stem]", "[extractor]")
# frontend-less two-stage starv stack of width 8, on (8, 12) sequences
SEQ_MODEL = ["--set", "model.frontend=false", "--set", "tcn.block_kind=starv",
             "--set", "tcn.stages=2", "--set", "tcn.channels=8",
             "--set", "classifier.num_classes=10"]
# (frames, edge) of the logits section's clips, per config; 24-frame sequences without the frontend
CLIPS = {"toy.cfg": (12, 8)}
CLIP, SEQ_FRAMES = (7, 32), 24
LOGITS_RTOL = 1e-5  # of the largest recorded logit


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def state_hash(module, names=True):
    """sha256 over ``module.state_dict()`` in order: each entry's dtype,
    shape and bytes, and its name unless ``names`` is false."""
    h = hashlib.sha256()
    for name, arr in module.state_dict().items():
        h.update(f"{name if names else ''}|{arr.dtype}|{arr.shape}\n".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def without_frontend_sections(path, tmp):
    """A copy, in ``tmp``, of the config at ``path`` without its frontend sections."""
    keep, lines = True, []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("["):
                keep = line.strip() not in FRONTEND_SECTIONS
            if keep:
                lines.append(line)
    copy = os.path.join(tmp, os.path.basename(path))
    with open(copy, "w", encoding="utf-8") as f:
        f.writelines(lines)
    return copy


def documents():
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in CONFIGS:
            name = os.path.basename(path)
            frontendless = ["--config", without_frontend_sections(path, tmp)] + NO_FRONTEND
            for tag, base in (("frontend", ["--config", path]), ("nofrontend", frontendless)):
                for fmt in ("text", "json"):
                    docs[f"describe {name} {tag} {fmt}"] = run_cli(["describe"] + base + ["--format", fmt])
                for fmt in ("text", "json", "markdown"):
                    docs[f"count {name} {tag} {fmt}"] = run_cli(["count"] + base + ["--format", fmt])
    docs["verify json"] = run_cli(["verify", "--fixture", FIXTURE, "--format", "json"])
    docs.update(infer_documents())
    return docs


def infer_documents():
    rng = np.random.default_rng(7)
    cases = {
        "infer toy.cfg clip text": (["--config", os.path.join(ROOT, "configs", "toy.cfg")],
                                    rng.standard_normal((1, 12, 8, 8))),
        "infer starv nofrontend seq text": (SEQ_MODEL, rng.standard_normal((8, 12))),
    }
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (key, (model, x)) in enumerate(cases.items()):
            path = os.path.join(tmp, f"input{i}.lwt")
            save_tensor(path, x.astype(np.float32))
            docs[key] = run_cli(["infer"] + model + ["--input", path, "--seed", "3",
                                                     "--format", "text"])
    return docs


@functools.cache
def seeded(path):
    """The seed-3 model of the config at ``path``, built once for every test
    that reads it: its state hashes, with and without names, and the
    ``{tag: logits}`` of it and of its frontend-less seed-3 twin."""
    config = tc.load_config_file(path)
    model = tc.build_model(config, seed=3)
    hashes = {True: state_hash(model), False: state_hash(model, names=False)}
    twin = tc.build_model(dataclasses.replace(config, stem=None, extractor=None), seed=3)
    frames, edge = CLIPS.get(os.path.basename(path), CLIP)
    logits = {"frontend": eval_logits(model, model.input_shape(frames, edge)),
              "nofrontend": eval_logits(twin, twin.input_shape(SEQ_FRAMES))}
    return hashes, logits


def eval_logits(model, sample):
    """Eval logits, as rows of ``%.9g`` text (exact for float32), of a seeded
    batch of two ``sample``-shaped inputs; the second one's ``valid_len`` is
    two thirds of its frames."""
    x = np.random.default_rng(5).standard_normal((2, *sample)).astype(np.float32)
    frames = sample[1]
    logits = model.eval()(tc.Tensor(x), valid_len=np.array([frames, frames * 2 // 3]))
    return [" ".join(f"{v:.9g}" for v in row) for row in logits.data.tolist()]


def model_hashes(names=True):
    hashes = {}
    for path in CONFIGS:
        config = tc.load_config_file(path)
        name = os.path.basename(path)
        hashes[f"{name} seed=3"] = seeded(path)[0][names]
        hashes[f"{name} init=False"] = state_hash(tc.build_model(config, init=False), names)
    return hashes


def logits():
    return {f"{os.path.basename(path)} {tag}": rows
            for path in CONFIGS for tag, rows in seeded(path)[1].items()}


def block_hashes(names=True):
    hashes = {}
    for kind in BLOCK_KINDS:
        hashes[f"{kind} raw"] = state_hash(make_block(kind, 16, 2), names)
        seeded = make_block(kind, 16, 2)
        seeded.init_parameters(np.random.default_rng(3))
        hashes[f"{kind} seed=3"] = state_hash(seeded, names)
    return hashes


def _load():
    with open(GOLDEN, "r", encoding="utf-8") as f:
        return json.load(f)


def _compare(want, got):
    assert sorted(got) == sorted(want), "golden keys changed"
    bad = [k for k in want if got[k] != want[k]]
    report = []
    for k in bad[:3]:
        report.append(f"== {k}")
        report.extend(difflib.unified_diff(str(want[k]).splitlines(), str(got[k]).splitlines(),
                                           "golden", "now", lineterm="", n=1))
    assert not bad, f"{len(bad)} golden output(s) differ:\n" + "\n".join(report)


def test_cli_documents_unchanged():
    _compare(_load()["documents"], documents())


def test_model_state_hashes_unchanged():
    _compare(_load()["models"], model_hashes())


def test_block_state_hashes_unchanged():
    _compare(_load()["blocks"], block_hashes())


def test_model_state_values_unchanged():
    _compare(_load()["model_values"], model_hashes(names=False))


def test_block_state_values_unchanged():
    _compare(_load()["block_values"], block_hashes(names=False))


def test_seeded_logits_unchanged():
    want, got = _load()["logits"], logits()
    assert sorted(got) == sorted(want), "golden keys changed"
    bad = []
    for key, rows in want.items():
        w, g = (np.array([row.split() for row in r], float) for r in (rows, got[key]))
        err = np.abs(g - w).max() if g.shape == w.shape else np.inf
        if err > LOGITS_RTOL * np.abs(w).max():
            bad.append(f"{key}: off by {err:.3g}, largest logit {np.abs(w).max():.3g}")
    assert not bad, f"{len(bad)} logit set(s) differ:\n" + "\n".join(bad)


def test_each_kind_builds_its_own_structure():
    """Two kinds with one raw state are two names for one structure."""
    raw = {kind: state_hash(make_block(kind, 16, 2)) for kind in BLOCK_KINDS}
    assert len(set(raw.values())) == len(raw), raw


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump({"documents": documents(), "models": model_hashes(),
                   "blocks": block_hashes(), "model_values": model_hashes(names=False),
                   "block_values": block_hashes(names=False), "logits": logits()},
                  f, indent=1, sort_keys=True)
        f.write("\n")
