"""Write ``refs.npz``: the reference logits for every pooled benchmark input.

    python3 bench/make_refs.py

Run it only when the benchmark's inputs or models change on purpose; the
stored logits are what later code is checked against.
"""
from __future__ import annotations

import sys

import run

run._limit_blas_threads()
sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tempconv.tensor import Tensor  # noqa: E402


def main():
    clip = workloads.setup_clip_infer()["models"]["starv"]
    refs = {"clip_infer": np.stack([clip(Tensor(workloads.clip_input(i))).data
                                    for i in range(workloads.CLIP_POOL)])}
    models = workloads.setup_long_seq()["models"]
    for kind, model in models.items():
        outs = []
        for i in range(workloads.SEQ_POOL):
            x, valid_len = workloads.seq_input(kind, i, model.tcn.in_channels)
            outs.append(model(Tensor(x), valid_len=valid_len).data)
        refs[f"long_seq_{kind}"] = np.stack(outs)
    np.savez(workloads.REFS, **refs)
    print(f"wrote {workloads.REFS.name}: " + ", ".join(f"{k} {v.shape}" for k, v in refs.items()))


if __name__ == "__main__":
    main()
