"""Self-test of the benchmark: every workload at a tiny run length.

    python3 -m pytest -q bench/selftest.py

Checks that each workload prints every end-to-end and per-layer metric of
``BENCHMARK.json`` with its unit, that the MAC join holds, that a perturbed
reference makes ``failed_share`` positive instead of passing silently, and
that the command refuses to run outside a tempconv checkout.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run._limit_blas_threads()
sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMED = {
    "clip_infer": {"setup_s", "clip_ms_p50", "clip_ms_tail", "clips_per_s", "peak_rss_mb", "failed_share"},
    "long_seq": {"setup_s", "seq_frames_per_s", "peak_rss_mb", "failed_share"},
    "toy_train": {"setup_s", "train_samples_per_s", "epoch_s_p50", "peak_rss_mb", "failed_share"},
}


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(run.ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    summary = json.loads(
        (run.ROOT / ".bench_out" / f"{workload}-seed0-trace{trace}.json").read_text(encoding="utf-8"))
    assert summary["claim"] is None and list(summary)[-1] == "claim"
    assert {"nproc", "blas", "numpy", "python", "seed", "src_lines"} <= set(summary["context"])
    if trace:
        assert summary["detail"]["mac_join_forwards_checked"] >= 1
    else:
        assert set(summary["named"]) == NAMED[workload]
        assert all(v["unit"] for v in summary["named"].values())
        for name in NAMED[workload]:
            assert name in proc.stdout


def _perturbed():
    checks = workloads.Checks.load()
    refs = {k: v.copy() for k, v in checks.refs.items()}
    for v in refs.values():
        v[..., 0] += 0.01 * np.abs(v).max()
    return workloads.Checks(refs, min_val_acc=1.01)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_reference_fails(workload):
    res, _, _, detail = workloads.run_workload(workload, 0, 0.1, False, _perturbed())
    assert res.failed > 0 and detail["failed_share"] > 0


def test_refuses_outside_a_checkout():
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "clip_infer", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
