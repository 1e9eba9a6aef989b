"""Reverse-mode gradient correctness against a plain finite-difference oracle,
plus the tape's bookkeeping rules (ordering, accumulation, gap detection)."""
import tracemalloc

import numpy as np
import pytest

from tempconv import GradTape, Tensor, ops
from tempconv.errors import TapeError
from tempconv.frontend import Stem, StemSpec
from tempconv.gradcheck import block_suite, grad_check

from oracles import numeric_grad


def leaf(a):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)


def check_against_oracle(build_loss, arrays, rtol=1e-6, h=1e-5):
    """build_loss(*tensors) -> scalar Tensor; compare tape grads to FD."""
    leaves = [leaf(a) for a in arrays]
    with GradTape() as tape:
        loss = build_loss(*leaves)
    grads = tape.backward(loss)

    def scalar_fn(*arrs):
        return float(build_loss(*[Tensor(a) for a in arrs]).data)

    want = numeric_grad(scalar_fn, arrays, h=h)
    assert len(grads) == len(leaves)
    for lf, w in zip(leaves, want):
        np.testing.assert_allclose(grads[lf], w, rtol=rtol, atol=1e-7)


class TestOpGradients:
    def test_causal_conv_weight_and_input(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 7))
        w = rng.standard_normal((4, 3, 3))
        b = rng.standard_normal(4)
        spec = ops.ConvSpec(3, 4, kernel=(3,), dilation=(2,), causal=True)
        check_against_oracle(
            lambda xt, wt, bt: ops.tensor_sum(
                ops.hadamard(ops.conv(xt, wt, bt, spec),
                             Tensor(np.cos(np.arange(56.0)).reshape(2, 4, 7)))),
            [x, w, b])

    def test_grouped_conv(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 4, 6))
        w = rng.standard_normal((4, 2, 3))
        spec = ops.ConvSpec(4, 4, kernel=(3,), groups=2, causal=True)
        check_against_oracle(
            lambda xt, wt: ops.tensor_sum(ops.conv(xt, wt, None, spec)),
            [x, w])

    def test_strided_conv2d(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        spec = ops.ConvSpec(2, 3, kernel=(3, 3), stride=(2, 2), padding=(1, 1))
        probe = np.sin(np.arange(54.0)).reshape(2, 3, 3, 3)
        check_against_oracle(
            lambda xt, wt: ops.tensor_sum(
                ops.hadamard(ops.conv(xt, wt, None, spec), Tensor(probe))),
            [x, w])

    def test_batch_norm_training_mode(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 3, 4))
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        probe = np.cos(np.arange(60.0)).reshape(5, 3, 4)

        def build(xt, gt, bt):
            rm, rv = np.zeros(3), np.ones(3)  # fresh each call
            y = ops.batch_norm(xt, gt, bt, rm, rv, training=True)
            return ops.tensor_sum(ops.hadamard(y, Tensor(probe)))

        check_against_oracle(build, [x, gamma, beta], rtol=1e-5)

    @pytest.mark.parametrize("channels_last", [False, True])
    @pytest.mark.parametrize("shape", [
        (3, 2, 4), (2, 3, 2, 3), (2, 2, 2, 1, 3),  # rank 3, 4, 5
        (1, 2, 1), (1, 2, 1, 1), (1, 2, 1, 1, 1),  # N·S = 1
        (2, 2, 1), (1, 2, 2, 1), (1, 2, 1, 2, 1),  # N·S = 2
    ])
    def test_batch_norm_training_in_either_layout(self, shape, channels_last):
        """Training-mode gradients match finite differences for input memory
        laid out channels-first or channels-last, and the float32 gradients
        match the float64 ones."""
        rng = np.random.default_rng(shape[0] + len(shape))
        c = shape[1]
        x, gamma, beta = rng.standard_normal(shape), rng.uniform(0.5, 1.5, c), rng.standard_normal(c)
        probe = rng.standard_normal(shape)

        def build(xt, gt, bt):
            if channels_last:  # a taped copy of xt whose memory is (N, *S, C)
                moved = ops.moveaxis(xt, 1, -1)
                xt = ops.moveaxis(ops.reshape(moved, moved.shape), -1, 1)
            y = ops.batch_norm(xt, gt, bt, np.zeros(c), np.ones(c), training=True)
            return ops.tensor_sum(ops.hadamard(y, Tensor(probe, dtype=y.dtype)))

        check_against_oracle(build, [x, gamma, beta], rtol=1e-5)
        grads = {}
        for dtype in (np.float32, np.float64):
            leaves = [Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gamma, beta)]
            with GradTape() as tape:
                loss = build(*leaves)
            grads[dtype] = [tape.backward(loss)[lf] for lf in leaves]
        for g32, g64 in zip(grads[np.float32], grads[np.float64], strict=True):
            assert g32.dtype == np.float32
            np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-4)

    def test_relu_kink_free_points(self):
        x = np.array([[-1.5, -0.3, 0.4, 2.0]])
        check_against_oracle(lambda xt: ops.tensor_sum(ops.relu(xt)), [x])

    def test_relu6_upper_kink(self):
        x = np.array([[1.0, 5.0, 7.0, -2.0]])
        check_against_oracle(lambda xt: ops.tensor_sum(ops.relu6(xt)), [x])

    def test_hadamard_both_sides(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((2, 2, 5)), rng.standard_normal((2, 2, 5))
        check_against_oracle(
            lambda at, bt: ops.tensor_sum(ops.hadamard(at, bt)), [a, b])

    def test_masked_pool(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2, 6))
        lens = np.array([6, 3, 1])
        check_against_oracle(
            lambda xt: ops.tensor_sum(
                ops.global_average_pool(xt, axes=(2,), valid_len=lens)),
            [x])

    def test_linear_and_softmax_cross_entropy(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 5))
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        targets = rng.dirichlet(np.ones(3), size=4)
        check_against_oracle(
            lambda xt, wt, bt: ops.cross_entropy(
                ops.linear(xt, wt, bt), Tensor(targets)),
            [x, w, b])

    def test_softmax(self):
        rng = np.random.default_rng(8)
        x, w = rng.standard_normal((2, 3, 4)), Tensor(rng.standard_normal((2, 3, 4)))
        check_against_oracle(
            lambda xt: ops.tensor_sum(ops.hadamard(ops.softmax(xt, axis=1), w)), [x])

    def test_concat_and_narrow(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 2, 4))

        def build(at, bt):
            joined = ops.concat([at, bt], axis=1)
            left, right = ops.narrow(joined, 2, 0, 2), ops.narrow(joined, 2, 2, 4)
            return ops.tensor_sum(ops.hadamard(left, right))

        check_against_oracle(build, [a, b])


class TestTapeMechanics:
    def test_grad_accumulates_across_backward_calls(self):
        x = leaf(np.array([2.0, 3.0]))
        for _ in range(2):
            with GradTape() as tape:
                loss = ops.tensor_sum(ops.hadamard(x, x))
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * 2 * x.data)  # two passes of 2x

    def test_shared_input_accumulates_within_pass(self):
        x = leaf(np.array([1.0, 2.0]))
        with GradTape() as tape:
            loss = ops.tensor_sum(ops.add(ops.hadamard(x, x), x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data + 1)

    def test_scalar_loss_required(self):
        x = leaf(np.ones((2, 2)))
        with GradTape() as tape:
            y = ops.relu(x)
        with pytest.raises(TapeError):
            tape.backward(y)

    def test_tape_gap_detected(self):
        x = leaf(np.ones(3))
        y = ops.hadamard(x, x)  # recorded nowhere
        with GradTape() as tape:
            loss = ops.tensor_sum(y)
        with pytest.raises(TapeError):
            tape.backward(loss)

    def test_no_tape_records_nothing(self):
        x = leaf(np.ones(3))
        y = ops.relu(x)
        assert y._op is not None
        with GradTape() as tape:
            pass
        assert len(tape) == 0

    def test_nested_tapes_record_independently(self):
        x = leaf(np.ones(3))
        with GradTape() as outer:
            _ = ops.relu(x)
            with GradTape() as inner:
                loss = ops.tensor_sum(ops.hadamard(x, x))
            inner.backward(loss)
        assert len(outer) == 1 and len(inner) == 2

    def test_non_leaf_gets_no_grad_attribute(self):
        x = leaf(np.ones(3))
        with GradTape() as tape:
            y = ops.relu(x)
            loss = ops.tensor_sum(y)
        grads = tape.backward(loss)
        assert y not in grads and y.grad is None

    def test_backward_drops_each_upstream_once_used(self):
        """An op result's gradient is freed once its node's backward ran, so a
        chain's backward holds a few activation-sized arrays, not one per op."""
        x = Tensor(np.ones(2**18, np.float32), requires_grad=True)  # 1 MiB
        with GradTape() as tape:
            h = x
            for _ in range(20):
                h = ops.relu(h)
            loss = ops.tensor_sum(h)
        tracemalloc.start()
        try:
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(x.grad, 1.0)
        assert peak < 6 * 2**20  # 22 MiB when every upstream was kept to the end

    def test_tape_holds_no_activation_that_no_backward_reads(self):
        """An add's backward reads neither input, so the tape keeps none of a
        chain's results: 20.0 MiB held when the tape pinned every Tensor."""
        x = Tensor(np.ones(2**18, np.float32), requires_grad=True)  # 1 MiB
        c = Tensor(np.ones(2**18, np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with GradTape() as tape:
                h = x
                for _ in range(20):
                    h = ops.add(h, c)
                loss = ops.tensor_sum(h)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 3 * 2**20
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, 1.0)
        np.testing.assert_array_equal(c.grad, 20.0)

    def test_dropped_intermediates_route_by_key(self):
        """The loop drops each intermediate, so CPython hands its id to a
        later Tensor, here to a leaf made mid-forward: gradients routed by
        ``id()`` then mix the two, and keyed ones still match finite
        differences; the tape replays to the same gradients."""
        rng = np.random.default_rng(9)
        x, ws = rng.standard_normal(4), rng.uniform(0.5, 1.5, (20, 4))

        def forward(xt, ws, made, ids):
            h = xt
            for row in ws:
                s = ops.add(h, xt)
                made.append(Tensor(row, requires_grad=xt.requires_grad))
                h = ops.hadamard(ops.relu(s), made[-1])
                ids.extend((id(s), id(h)))
            return ops.tensor_sum(h)

        xt, made, ids = leaf(x), [], []
        with GradTape() as tape:
            loss = forward(xt, ws, made, ids)
        assert {id(t) for t in made} & set(ids)  # a leaf took a dropped result's id
        tape.backward(loss)
        want = numeric_grad(lambda a, b: float(forward(Tensor(a), b, [], []).data), [x, ws])
        got = [xt.grad, np.stack([t.grad for t in made])]
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=1e-6, atol=1e-7)
        for t in [xt, *made]:
            t.grad = None
        tape.backward(loss)
        np.testing.assert_array_equal(xt.grad, got[0])
        np.testing.assert_array_equal(np.stack([t.grad for t in made]), got[1])

    def test_both_tape_gaps_raise_with_dropped_intermediates(self):
        x = leaf(np.ones(3))
        with GradTape() as tape:
            y = ops.hadamard(x, x)
        loss = ops.tensor_sum(y)  # recorded nowhere
        del y
        with pytest.raises(TapeError, match="loss was not produced on this tape"):
            tape.backward(loss)
        y = ops.hadamard(x, x)  # recorded nowhere
        with GradTape() as tape:
            loss = ops.tensor_sum(ops.relu(y))
        del y
        with pytest.raises(TapeError, match="ancestor op 'hadamard' was not recorded"):
            tape.backward(loss)
        assert x.grad is None


class TestBuiltInChecker:
    def test_grad_check_detects_wrong_gradient(self):
        from tempconv.tensor import apply_op
        p = leaf(np.array([1.0, 2.0, 3.0]))

        def square_with_wrong_rule():
            def make_backward():
                return lambda g: (g * 3.0 * p.data,)  # truth is 2x, rule says 3x
            y = apply_op("bad_square", (p,), p.data * p.data, make_backward)
            return ops.tensor_sum(y)

        res = grad_check(square_with_wrong_rule, [p])
        assert not res.ok and res.max_rel_err > 0.3

    def test_block_suite_all_pass(self):
        results = block_suite(which="all", seed=0)
        kinds = [name for name, _ in results]
        assert len(kinds) == len(set(kinds)) >= 8
        for name, res in results:
            assert res.ok, f"{name}: {res}"

    def test_stem_in_training(self):
        """The 3-D stem (per-frame GEMM columns, then batch-statistics norm
        and ReLU) in float64, input gradient included."""
        rng = np.random.default_rng(4)
        stem = Stem(StemSpec(out_channels=3)).init_parameters(rng)
        stem.astype(np.float64)
        stem.train()
        x = leaf(rng.standard_normal((2, 1, 4, 6, 6)))
        probe = Tensor(rng.standard_normal((2, 3, 4, 3, 3)))

        def fn():
            return ops.tensor_sum(ops.hadamard(stem(x), probe))

        result = grad_check(fn, [x] + stem.parameters(), coords_per_param=8, rng=rng)
        assert result.ok, result
