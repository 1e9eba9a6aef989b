"""Forward-pass correctness of the array ops against independent oracles."""
import numpy as np
import pytest

from tempconv import Tensor, ops
from tempconv.errors import NumericError, ShapeError
from tempconv.layers import BatchNorm, Conv1d, Sequential

from oracles import batchnorm_oracle, conv_oracle


def t(a, dtype=np.float64):
    return Tensor(np.asarray(a, dtype=dtype))


class TestConvSpec:
    def test_defaults_preserve_size(self):
        spec = ops.ConvSpec(8, 8, kernel=(3,))
        assert spec.padding == (1,)
        assert spec.out_sizes((10,)) == (10,)

    def test_causal_pads_left_only(self):
        spec = ops.ConvSpec(8, 8, kernel=(3,), dilation=(4,), causal=True)
        assert spec.pad_pairs() == ((8, 0),)
        assert spec.out_sizes((10,)) == (10,)

    def test_causal_rejects_rank2(self):
        with pytest.raises(ShapeError):
            ops.ConvSpec(8, 8, kernel=(3, 3), causal=True)

    def test_causal_rejects_stride(self):
        with pytest.raises(ShapeError):
            ops.ConvSpec(8, 8, kernel=(3,), stride=(2,), causal=True)

    def test_groups_must_divide(self):
        with pytest.raises(ShapeError):
            ops.ConvSpec(6, 4, kernel=(3,), groups=4)

    def test_too_small_input(self):
        spec = ops.ConvSpec(1, 1, kernel=(5,), padding=(0,))
        with pytest.raises(ShapeError):
            spec.out_sizes((3,))


class TestConvForward:
    def test_causal_1d_matches_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 13))
        w = rng.standard_normal((7, 5, 3))
        b = rng.standard_normal(7)
        spec = ops.ConvSpec(5, 7, kernel=(3,), dilation=(2,), causal=True)
        got = ops.conv(t(x), t(w), t(b), spec).data
        want = conv_oracle(x, w, b, dilation=(2,), padding=((4, 0),))
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_depthwise_matches_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 6, 10))
        w = rng.standard_normal((6, 1, 3))
        spec = ops.ConvSpec(6, 6, kernel=(3,), groups=6, causal=True)
        got = ops.conv(t(x), t(w), None, spec).data
        want = conv_oracle(x, w, padding=((2, 0),), groups=6)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_pointwise_is_channel_mix(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 9))
        w = rng.standard_normal((5, 4, 1))
        spec = ops.ConvSpec(4, 5, kernel=(1,))
        got = ops.conv(t(x), t(w), None, spec).data
        want = np.einsum("nct,oc->not", x, w[:, :, 0])
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_conv2d_stride_matches_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        spec = ops.ConvSpec(3, 4, kernel=(3, 3), stride=(2, 2), padding=(1, 1))
        got = ops.conv(t(x), t(w), t(b), spec).data
        want = conv_oracle(x, w, b, stride=(2, 2), padding=(1, 1))
        assert got.shape == (2, 4, 4, 4)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_conv3d_matches_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 1, 5, 6, 6))
        w = rng.standard_normal((2, 1, 3, 5, 5))
        spec = ops.ConvSpec(1, 2, kernel=(3, 5, 5), stride=(1, 2, 2), padding=(1, 2, 2))
        got = ops.conv(t(x), t(w), None, spec).data
        want = conv_oracle(x, w, stride=(1, 2, 2), padding=(1, 2, 2))
        assert got.shape == (1, 2, 5, 3, 3)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_channel_mismatch_raises(self):
        spec = ops.ConvSpec(4, 4, kernel=(3,), causal=True)
        w = np.zeros((4, 4, 3))
        with pytest.raises(ShapeError):
            ops.conv(t(np.zeros((2, 3, 9))), t(w), None, spec)


class TestBatchNorm:
    def test_training_matches_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3, 7))
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        rm = np.zeros(3)
        rv = np.ones(3)
        got = ops.batch_norm(t(x), t(gamma), t(beta), rm, rv, training=True).data
        want = batchnorm_oracle(x, gamma, beta)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_running_stats_update(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 2, 5))
        rm = np.zeros(2)
        rv = np.ones(2)
        ops.batch_norm(t(x), t(np.ones(2)), t(np.zeros(2)), rm, rv,
                       momentum=0.1, training=True)
        batch_mean = x.mean(axis=(0, 2))
        m = x.shape[0] * x.shape[2]
        unbiased = x.var(axis=(0, 2)) * m / (m - 1)
        np.testing.assert_allclose(rm, 0.1 * batch_mean, rtol=1e-9)
        np.testing.assert_allclose(rv, 0.9 + 0.1 * unbiased, rtol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels_last", [False, True])
    @pytest.mark.parametrize("shape", [
        (4, 3, 7), (3, 4, 2, 5), (2, 3, 4, 2, 3),  # rank 3, 4, 5
        (1, 3, 1), (1, 3, 1, 1), (1, 3, 1, 1, 1),  # N·S = 1
        (2, 3, 1), (1, 3, 1, 2), (1, 3, 2, 1, 1),  # N·S = 2
    ])
    def test_training_in_either_layout(self, shape, channels_last, dtype):
        """Training mode matches the oracle, returns channels-last memory
        for either input layout and updates the running statistics by the
        momentum rule."""
        rng = np.random.default_rng(len(shape) + shape[0])
        x = (rng.standard_normal(shape) * 2 + 1).astype(dtype)
        if channels_last:
            x = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, -1)), -1, 1)
        c = shape[1]
        gamma, beta = rng.uniform(0.5, 1.5, c), rng.standard_normal(c)
        rm0, rv0 = rng.standard_normal(c).astype(dtype), rng.uniform(0.5, 2, c).astype(dtype)
        rm, rv = rm0.copy(), rv0.copy()
        y = ops.batch_norm(t(x, dtype), t(gamma, dtype), t(beta, dtype), rm, rv,
                           momentum=0.1, training=True).data
        assert y.dtype == dtype and np.moveaxis(y, 1, -1).flags.c_contiguous
        tol = dict(rtol=1e-5, atol=1e-5) if dtype == np.float32 else dict(rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(y, batchnorm_oracle(x, gamma.astype(dtype), beta.astype(dtype)),
                                   **tol)
        x64 = x.astype(np.float64)
        m = x.size // c
        unbiased = x64.var(axis=(0,) + tuple(range(2, x.ndim))) * (m / (m - 1) if m > 1 else 1.0)
        np.testing.assert_allclose(rm, 0.9 * rm0 + 0.1 * x64.mean(axis=(0,) + tuple(range(2, x.ndim))),
                                   **tol)
        np.testing.assert_allclose(rv, 0.9 * rv0 + 0.1 * unbiased, **tol)

    @pytest.mark.parametrize("channels_last", [False, True])
    def test_training_refuses_an_overflowing_variance(self, channels_last):
        """±1e30 squares past the float32 range: unrefused, the batch variance
        is inf, the output is β and the running variance becomes inf. It is
        refused before the running statistics move."""
        x = np.full((4, 3, 5), 1e30, np.float32)
        x[::2] = -1e30
        if channels_last:
            x = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, -1)), -1, 1)
        rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
        with np.errstate(over="ignore"), pytest.raises(NumericError) as info:
            ops.batch_norm(t(x, np.float32), t(np.ones(3), np.float32), t(np.zeros(3), np.float32),
                           rm, rv, training=True)
        assert str(info.value) == "batch_norm batch variance is not finite"
        np.testing.assert_array_equal(rm, np.zeros(3))
        np.testing.assert_array_equal(rv, np.ones(3))

    def test_module_refuses_an_input_of_another_width(self):
        net = Sequential(Conv1d(4, 8, 3), BatchNorm(6))
        net.init_parameters(np.random.default_rng(0)).eval()
        with pytest.raises(ShapeError, match="does not match 8 channels"):
            net(Tensor(np.zeros((1, 4, 5), np.float32)))

    def test_eval_uses_running_stats(self):
        x = np.arange(12, dtype=np.float64).reshape(2, 2, 3)
        rm = np.array([1.0, 2.0])
        rv = np.array([4.0, 9.0])
        got = ops.batch_norm(t(x), t(np.ones(2)), t(np.zeros(2)), rm, rv,
                             eps=0.0, training=False).data
        want = (x - rm.reshape(1, 2, 1)) / np.sqrt(rv).reshape(1, 2, 1)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestElementwise:
    def test_relu_and_relu6(self):
        x = np.array([-2.0, 0.0, 3.0, 7.5])
        np.testing.assert_array_equal(ops.relu(t(x)).data, [0, 0, 3, 7.5])
        np.testing.assert_array_equal(ops.relu6(t(x)).data, [0, 0, 3, 6])

    def test_hadamard_requires_equal_shapes(self):
        with pytest.raises(ShapeError):
            ops.hadamard(t(np.zeros((2, 3))), t(np.zeros((3, 2))))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 11)) * 30  # exercise max-subtraction stability
        p = ops.softmax(t(x)).data
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(5), rtol=1e-12)
        assert np.isfinite(p).all()

    def test_cross_entropy_matches_formula(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((4, 6))
        targets = rng.dirichlet(np.ones(6), size=4)
        got = float(ops.cross_entropy(t(logits), t(targets)).data)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        want = float((-targets * logp).sum(axis=1).mean())
        assert abs(got - want) < 1e-12

    def test_concat_narrow_roundtrip(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 6, 4))
        parts = [ops.narrow(t(x), 1, i, i + 2) for i in (0, 2, 4)]
        assert [p.shape for p in parts] == [(2, 2, 4)] * 3
        back = ops.concat(parts, axis=1)
        np.testing.assert_array_equal(back.data, x)
        mid = ops.narrow(t(x), 1, 2, 4)
        np.testing.assert_array_equal(mid.data, x[:, 2:4])


class TestPooling:
    def test_unmasked_mean(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 5, 4))
        got = ops.global_average_pool(t(x), axes=(2, 3)).data
        np.testing.assert_allclose(got, x.mean(axis=(2, 3)), rtol=1e-12)

    def test_masked_mean_respects_lengths(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 2, 6))
        lens = np.array([6, 4, 1])
        got = ops.global_average_pool(t(x), axes=(2,), valid_len=lens).data
        for i, L in enumerate(lens):
            np.testing.assert_allclose(got[i], x[i, :, :L].mean(axis=-1), rtol=1e-12)

    def test_masked_rejects_bad_lengths(self):
        x = t(np.zeros((2, 2, 6)))
        with pytest.raises(ShapeError):
            ops.global_average_pool(x, axes=(2,), valid_len=np.array([6, 7]))
        with pytest.raises(ShapeError):
            ops.global_average_pool(x, axes=(2,), valid_len=np.array([0, 3]))
        with pytest.raises(ShapeError):
            ops.global_average_pool(x, axes=(2,), valid_len=np.array([3, 3, 3]))
        with pytest.raises(ShapeError):
            ops.global_average_pool(x, axes=(2,), valid_len=np.array([5]))
        with pytest.raises(ShapeError, match="1..6"):
            ops.global_average_pool(x, axes=(2,), valid_len=2**70)
        for fractional in ([2.7, 3], [True, 3], 2.7, True):
            with pytest.raises(ShapeError, match="integers"):
                ops.global_average_pool(x, axes=(2,), valid_len=fractional)


class TestDropout:
    def test_eval_identity(self):
        x = t(np.ones((4, 4)))
        out = ops.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_rate_checked_in_every_mode(self):
        x = t(np.ones((4, 4)))
        for p in (1.5, -0.1, 1.0, float("nan")):
            for training in (False, True):
                with pytest.raises(ShapeError, match="dropout rate"):
                    ops.dropout(x, p, np.random.default_rng(0), training=training)

    def test_zero_rate_identity(self):
        x = t(np.ones((4, 4)))
        out = ops.dropout(x, 0.0, np.random.default_rng(0), training=True)
        assert out is x

    def test_inverted_scaling(self):
        rng = np.random.default_rng(13)
        x = np.ones((2000,))
        out = ops.dropout(t(x), 0.25, rng, training=True).data
        kept = out != 0
        np.testing.assert_allclose(out[kept], 1.0 / 0.75, rtol=1e-6)
        assert 0.65 < kept.mean() < 0.85


class TestTensorHygiene:
    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            Tensor(np.array([1.0, np.nan]))

    def test_storage_always_float(self):
        assert Tensor(np.zeros(3, dtype=np.int32)).dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
