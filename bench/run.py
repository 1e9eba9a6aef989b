"""Run one tempconv benchmark workload and print its metrics.

    python3 bench/run.py --workload clip_infer --seed 0 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``, metric names and units in
``BENCHMARK.json`` at the repository root. The run prints a readable report,
then as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``. The whole summary (machine and
context, the metrics under their workload-specific names, and for a traced
run the spans) is written under ``.bench_out/``.

End-to-end metrics are the same on every workload; the operation is a clip
(``clip_infer``), a request pair (``long_seq``) or an epoch (``toy_train``):

- ``setup_s``: median set-up time of this process and two fresh ones;
- ``op_ms_p50`` / ``op_ms_tail``: median and tail operation latency;
- ``items_per_s``: clips, frames (valid plus padded) or training samples
  per second of operation time;
- ``peak_rss_mb``: peak resident memory of this process.

The program must run from a checkout that holds ``src/`` and ``configs/``;
anywhere else the command exits with code 2 before measuring.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FRESH_SETUPS = 2
# the end-to-end metrics under the names each workload reports them by
NAMED = {
    "clip_infer": {"op_ms_p50": ("clip_ms_p50", 1.0, "ms"), "op_ms_tail": ("clip_ms_tail", 1.0, "ms"),
                   "items_per_s": ("clips_per_s", 1.0, "1/s")},
    "long_seq": {"items_per_s": ("seq_frames_per_s", 1.0, "1/s")},
    "toy_train": {"op_ms_p50": ("epoch_s_p50", 1e-3, "s"),
                  "items_per_s": ("train_samples_per_s", 1.0, "1/s")},
}


def _limit_blas_threads():
    """Cap BLAS threads at the cores this process may use; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def _blas_threads():
    """Threads the loaded OpenBLAS reports, else the environment's cap."""
    import ctypes
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _context(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "numpy": np.__version__, "python": platform.python_version(),
        "src_lines": src_lines, "callers": 1, "loop": "closed",
    }


def _fresh_setups(args):
    """Set-up times of ``FRESH_SETUPS`` new processes, one after the other."""
    times = []
    for _ in range(FRESH_SETUPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def _metric_table():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/tempconv/__init__.py", "configs/starv.cfg", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a tempconv checkout, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import tempconv
    import workloads

    if Path(tempconv.__file__).resolve().parent != ROOT / "src" / "tempconv":
        print(f"bench: imported tempconv from {tempconv.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        _, setup_s = workloads.timed_setup(args.workload)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    table = _metric_table()
    checks = workloads.Checks.load()
    setups = _fresh_setups(args) if not args.trace else ()
    res, end_to_end, per_layer, detail = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), checks, setups)

    context = _context(args)
    named = {"failed_share": (detail["failed_share"], "share")}
    if not args.trace:
        named.update(setup_s=(end_to_end["setup_s"], "s"),
                     peak_rss_mb=(end_to_end["peak_rss_mb"], "MiB"))
        for key, (name, scale, unit) in NAMED[args.workload].items():
            named[name] = (end_to_end[key] * scale, unit)

    wanted = table["per_layer"] if args.trace else table["end_to_end"]
    values = per_layer if args.trace else end_to_end
    absent = sorted(set(wanted) - set(values))
    if absent:
        raise KeyError(f"metrics not computed: {absent}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}

    workloads.OUT.mkdir(exist_ok=True)
    stem = workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = detail.pop("spans", None)
    if spans is not None:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")
    summary = {"context": context, "detail": detail,
               "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
               "metrics": metrics, "claim": None}
    with open(f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)

    print(f"tempconv benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("context: " + json.dumps(context))
    print("detail: " + json.dumps(detail))
    shown = named if not args.trace else {k: (v["value"], v["unit"]) for k, v in metrics.items()}
    for name, (value, unit) in shown.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
