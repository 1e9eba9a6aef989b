"""The benchmark's output checks, in tier-1: one operation of every workload.

``bench/workloads.py`` reads the package by name (``config.in_channels``,
``build_model``, ``train_loop``, ...) and compares each operation's output
with the logits stored in ``bench/refs.npz`` and the toy accuracy bar. Run
here with no timed loop, so a renamed entry point or a logits drift fails
with the tests, not only in a benchmark run.
"""
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    return workloads


@pytest.mark.parametrize("workload", ["clip_infer", "long_seq", "toy_train"])
def test_one_operation_passes_the_checks(workload, workloads):
    assert workload in workloads.WORKLOADS
    res, *_ = workloads.run_workload(workload, seed=0, seconds=0, trace=0,
                                     checks=workloads.Checks.load())
    assert res.attempted >= 1 and res.failed == 0
