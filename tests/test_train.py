"""Optimizer math, schedule, augmentation, toy data, and the training loop."""
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import tempconv as tc
from tempconv import GradTape, Tensor, ops
from tempconv.augment import (
    augment,
    center_crop,
    horizontal_flip,
    mixup,
    random_crop,
    variable_length,
)
from tempconv.config import ToyDatasetSpec, TrainConfig, parse_toy_spec, parse_train_config
from tempconv.errors import ConfigError, NumericError, ShapeError
from tempconv.toydata import DUTY, PERIOD, ToyDataset
from tempconv.train import (
    cosine_lr,
    evaluate,
    lr_schedule,
    one_hot,
    sgd_step,
    train_loop,
)

from oracles import cosine_rate_oracle, template_predict

TOY_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.cfg")


class TestSchedule:
    def test_pinned_epochs(self):
        assert cosine_lr(0) == pytest.approx(0.02, abs=1e-15)
        assert cosine_lr(40) == pytest.approx(0.01, abs=1e-15)
        assert cosine_lr(80) == pytest.approx(0.0, abs=1e-15)

    def test_formula_exact_all_epochs(self):
        for epoch in range(81):
            want = cosine_rate_oracle(0.02, epoch, 80)
            assert abs(cosine_lr(epoch) - want) <= 1e-12

    def test_schedule_vector(self):
        sched = lr_schedule(10)
        assert len(sched) == 11
        assert sched[0] == 0.02 and abs(sched[10]) < 1e-15
        assert all(a > b for a, b in zip(sched, sched[1:]))
        for epoch, rate in enumerate(sched):
            assert abs(rate - cosine_rate_oracle(0.02, epoch, 10)) <= 1e-12

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            cosine_lr(-1)
        with pytest.raises(ConfigError):
            cosine_lr(81, total_epochs=80)
        with pytest.raises(ConfigError):
            cosine_lr(0, total_epochs=0)
        with pytest.raises(ConfigError, match="total_epochs must be ≤ 100,000, got 100001"):
            lr_schedule(100_001)


class TestSgd:
    def _param(self, v, g):
        p = Tensor(np.array(v, dtype=np.float64), requires_grad=True)
        p.grad = np.array(g, dtype=np.float64)
        return p

    def test_coupled_decay_formula(self):
        p = self._param([1.0, -2.0], [0.5, 0.25])
        sgd_step([p], lr=0.1)
        want = np.array([1.0, -2.0]) - 0.1 * (np.array([0.5, 0.25])
                                              + 0.01 * np.array([1.0, -2.0]))
        np.testing.assert_allclose(p.data, want, rtol=1e-15)

    def test_coupled_decay_scales_with_lr(self):
        """At zero gradient the decay shrinkage is lr * 0.01 * p."""
        for lr, want in ((0.1, 3.996), (0.001, 3.99996)):
            p = self._param([4.0], [0.0])
            sgd_step([p], lr=lr)
            np.testing.assert_allclose(p.data, [want], rtol=1e-15)

    def test_skips_unused_params(self):
        p = self._param([1.0], [1.0])
        q = Tensor(np.array([5.0]), requires_grad=True)  # no grad
        sgd_step([p, q], lr=0.1)
        np.testing.assert_allclose(q.data, [5.0])

    def test_non_finite_gradient_raises(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.inf])
        with pytest.raises(NumericError):
            sgd_step([p], lr=0.1)

    def test_quadratic_bowl_converges(self):
        """Full pipeline sanity: tape + sgd minimize ||x - c||^2 + 0.005·||x||^2,
        the loss whose gradient the coupled decay of 0.01 completes, quickly."""
        target = np.array([3.0, -1.0, 0.5])
        x = Tensor(np.zeros(3), requires_grad=True)
        for _ in range(200):
            x.grad = None
            with GradTape() as tape:
                d = ops.add(x, Tensor(-target))
                loss = ops.tensor_sum(ops.hadamard(d, d))
            tape.backward(loss)
            sgd_step([x], lr=0.1)
        np.testing.assert_allclose(x.data, target * 2 / 2.01, atol=1e-8)


class TestAugment:
    def test_flip_is_involution(self):
        x = np.random.default_rng(0).standard_normal((1, 4, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(horizontal_flip(horizontal_flip(x)), x)

    def test_center_crop_identity_at_full_size(self):
        x = np.random.default_rng(1).standard_normal((1, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(center_crop(x, 8), x)

    def test_center_crop_too_large(self):
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        with pytest.raises(ShapeError):
            center_crop(x, 9)

    def test_full_frame_crop_draws_nothing(self):
        """A crop as wide as the frame takes it whole and leaves the
        generator's stream as it was, so the flip and length draws keep theirs."""
        x = np.random.default_rng(1).standard_normal((1, 5, 8, 8)).astype(np.float32)
        rng, fresh = np.random.default_rng(3), np.random.default_rng(3)
        np.testing.assert_array_equal(random_crop(x, 8, rng), x)
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_random_crop_is_a_window(self):
        rng = np.random.default_rng(2)
        x = np.arange(100, dtype=np.float32).reshape(1, 1, 10, 10)
        out = random_crop(x, 6, rng)
        assert out.shape == (1, 1, 6, 6)
        # the crop appears verbatim somewhere in the source
        found = any(
            np.array_equal(x[:, :, i:i + 6, j:j + 6], out)
            for i in range(5) for j in range(5))
        assert found

    def test_train_mode_crop_is_a_random_window(self):
        """The training recipe: a crop window, flipped or not, cut to a valid
        length in ceil(T/2)..T, with zero frames after it."""
        t_len = 7
        x = np.arange(t_len * 100, dtype=np.float32).reshape(1, t_len, 10, 10) + 1
        for seed in range(20):
            out, k = augment(x, np.random.default_rng(seed), True, 6)
            assert out.shape == (1, t_len, 6, 6)
            assert (t_len + 1) // 2 <= k <= t_len
            assert np.all(out[:, k:] == 0)
            windows = [view[:, s:s + k, i:i + 6, j:j + 6]
                       for view in (x, x[..., ::-1])
                       for s in range(t_len - k + 1) for i in range(5) for j in range(5)]
            assert any(np.array_equal(w, out[:, :k]) for w in windows)

    def test_variable_length_pads_right(self):
        rng = np.random.default_rng(3)
        x = np.ones((1, 12, 4, 4), dtype=np.float32)
        seq, k = variable_length(x, rng)
        assert seq.shape == x.shape
        assert 6 <= k <= 12
        assert np.all(seq[:, :k] != 0) and np.all(seq[:, k:] == 0)

    def test_variable_length_covers_half_to_full(self):
        """Valid lengths are drawn from exactly ceil(T/2)..T."""
        for t_len in (1, 2, 7, 12):
            x = np.ones((1, t_len, 2, 2), dtype=np.float32)
            rng = np.random.default_rng(t_len)
            seen = {variable_length(x, rng)[1] for _ in range(400)}
            assert seen == set(range((t_len + 1) // 2, t_len + 1))

    def test_eval_augment_is_deterministic(self):
        x = np.random.default_rng(4).standard_normal((1, 5, 10, 10)).astype(np.float32)
        a, la = augment(x, np.random.default_rng(0), train_mode=False, crop_size=8)
        b, lb = augment(x, np.random.default_rng(99), train_mode=False, crop_size=8)
        np.testing.assert_array_equal(a, b)
        assert la == lb == 5


class TestOneHot:
    def test_float32_rows(self):
        y = one_hot(np.array([2, 0, 2]), 3)
        assert y.dtype == np.float32
        np.testing.assert_array_equal(y, [[0, 0, 1], [1, 0, 0], [0, 0, 1]])


class TestMixup:
    def test_convexity_and_label_mass(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 1, 4, 4, 4)).astype(np.float32)
        b = rng.standard_normal((8, 1, 4, 4, 4)).astype(np.float32)
        ya = one_hot(np.arange(8) % 3, 3)
        yb = one_hot((np.arange(8) + 1) % 3, 3)
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        mx, my, lam = mixup(a, b, ya, yb, rng=rng)
        assert lam.shape == (8,)
        # one Beta(0.4, 0.4) draw per pair
        np.testing.assert_array_equal(lam, twin.beta(0.4, 0.4, 8).astype(np.float32))
        assert np.all(lam >= 0) and np.all(lam <= 1)
        np.testing.assert_allclose(my.sum(axis=1), np.ones(8), rtol=1e-6)
        i = 3
        np.testing.assert_allclose(
            mx[i], lam[i] * a[i] + (1 - lam[i]) * b[i], rtol=1e-6)

    def test_per_pair_weights_differ(self):
        rng = np.random.default_rng(6)
        a = np.zeros((16, 2), dtype=np.float32)
        b = np.ones((16, 2), dtype=np.float32)
        y = one_hot(np.zeros(16, dtype=int), 2)
        _, _, lam = mixup(a, b, y, y, rng=rng)
        assert len(np.unique(np.round(lam, 6))) > 1

    def test_beta_mean_is_half(self):
        rng = np.random.default_rng(7)
        a = np.zeros((200_000, 1), dtype=np.float64)
        b = a.copy()
        y = np.zeros((200_000, 2), dtype=np.float64)
        _, _, lam = mixup(a, b, y, y, rng=rng)
        assert abs(float(lam.mean()) - 0.5) < 0.01


class TestToyData:
    def test_samples_are_pure_functions(self):
        spec = ToyDatasetSpec()
        a, b = ToyDataset(spec), ToyDataset(spec)
        va, la = a.sample("train", 17)
        vb, lb = b.sample("train", 17)
        np.testing.assert_array_equal(va, vb)
        assert la == lb

    def test_batch_is_stacked_samples(self):
        """A batch is bitwise the stacked samples of its indices, shuffled or
        repeated, and a fresh array: writing into it changes no later batch.
        ``all_of`` gives the split itself, read-only."""
        ds = ToyDataset(ToyDatasetSpec())
        for split, idx in (("train", np.random.default_rng(0).permutation(200)[:32]),
                           ("val", [7, 3, 7, 7, 0, 49]), ("test", range(50))):
            videos, labels = ds.batch(split, idx)
            want = [ds.sample(split, int(i)) for i in idx]
            assert videos.dtype == np.float32 and labels.dtype == np.int64
            assert videos.tobytes() == np.stack([v for v, _ in want]).tobytes()
            assert labels.tolist() == [y for _, y in want]
            videos[...] = np.nan
            labels[...] = -1
            again, again_labels = ds.batch(split, idx)
            assert again.tobytes() == np.stack([v for v, _ in want]).tobytes()
            assert again_labels.tolist() == [y for _, y in want]
        videos, labels = ds.all_of("val")
        assert not videos.flags.writeable and not labels.flags.writeable
        assert videos.tobytes() == ds.batch("val", range(50))[0].tobytes()
        with pytest.raises(ConfigError, match="index 200 out of range for train split of 200"):
            ds.batch("train", [3, 200])
        with pytest.raises(ConfigError, match="index -1 out of range"):
            ds.batch("val", [-1])
        with pytest.raises(ConfigError, match="unknown split"):
            ds.batch("dev", [0])

    def test_splits_differ(self):
        ds = ToyDataset(ToyDatasetSpec())
        v1, _ = ds.sample("train", 0)
        v2, _ = ds.sample("val", 0)
        assert not np.array_equal(v1, v2)

    def test_label_histogram_balanced(self):
        ds = ToyDataset(ToyDatasetSpec())
        _, labels = ds.all_of("train")
        counts = np.bincount(labels, minlength=10)
        assert counts.min() == counts.max() == 20

    def test_motifs_flip_symmetric(self):
        ds = ToyDataset(ToyDatasetSpec())
        np.testing.assert_array_equal(ds.motifs, ds.motifs[:, :, ::-1])

    def test_pulse_structure(self):
        ds = ToyDataset(ToyDatasetSpec(noise=0.0))
        video, label = ds.sample("train", 3)
        energy = np.abs(video[0]).sum(axis=(1, 2))
        active = energy > 0
        assert DUTY <= active.sum() <= video.shape[1] * DUTY / PERIOD + DUTY
        # active frames all show the motif exactly
        for f in np.flatnonzero(active):
            np.testing.assert_array_equal(video[0, f], ds.motifs[label])

    def test_template_oracle_perfect_at_zero_noise(self):
        ds = ToyDataset(ToyDatasetSpec(noise=0.0))
        hits = sum(template_predict(ds, "val", i) == ds.label(i)
                   for i in range(ds.split_size("val")))
        assert hits == ds.split_size("val")

    def test_capacity_guard(self):
        with pytest.raises(ConfigError):
            ToyDataset(ToyDatasetSpec(num_classes=65, frame_size=8))


class TestLoop:
    def _tiny(self):
        text = ("[stem]\nout_channels = 4\n[extractor]\nwidths = 4, 8\n"
                "[tcn]\nchannels = 8\nstages = 1\ndropout = 0.0\n"
                "[classifier]\nnum_classes = 4\n")
        cfg = tc.parse_config(text)
        model = tc.build_model(cfg, seed=0)
        spec = ToyDatasetSpec(num_classes=4, seq_len=8, frame_size=8,
                              train_size=16, val_size=8, test_size=8)
        tcfg = TrainConfig(epochs=2, crop_size=8, seed=0)
        return model, ToyDataset(spec), tcfg

    def test_history_schema_and_log_stream(self):
        model, ds, tcfg = self._tiny()
        stream = io.StringIO()
        result = train_loop(model, ds, tcfg, log_stream=stream)
        assert len(result.history) == 2
        for i, row in enumerate(result.history):
            assert row["epoch"] == i
            assert set(row) == {"epoch", "lr", "train_loss", "val_acc"}
            assert row["lr"] == pytest.approx(cosine_lr(i, tcfg.epochs))
        logged = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert logged == result.history

    def test_every_step_mixes(self, monkeypatch):
        """MixUp is part of the one recipe: every step mixes its whole batch,
        the last, partial one too."""
        model, _, tcfg = self._tiny()
        ds = ToyDataset(ToyDatasetSpec(num_classes=4, seq_len=8, frame_size=8,
                                       train_size=40, val_size=8, test_size=8))
        calls = []

        def counted(a, b, ya, yb, rng):
            calls.append(len(a))
            return mixup(a, b, ya, yb, rng)

        monkeypatch.setattr("tempconv.train.mixup", counted)
        train_loop(model, ds, tcfg)
        assert calls == [32, 8] * tcfg.epochs

    def test_best_checkpoint_restored(self):
        model, ds, tcfg = self._tiny()
        result = train_loop(model, ds, tcfg)
        assert 0 <= result.best_epoch < tcfg.epochs
        assert result.best_val_acc == max(r["val_acc"] for r in result.history)
        # the restored weights reproduce the best validation accuracy
        assert evaluate(model, ds, "val", tcfg) == result.best_val_acc

    def test_determinism(self):
        r1 = train_loop(*self._tiny())
        r2 = train_loop(*self._tiny())
        assert r1.history == r2.history

    def test_toy_step_holds_only_what_its_backward_reads(self):
        """One seeded ``toy.cfg`` step at batch 32: the tape keeps no conv
        output that only its norm read and no norm output that only its ReLU
        read (14.4 MiB traced when the tape pinned every op's result)."""
        with open(TOY_CFG, encoding="utf-8") as f:
            text = f.read()
        tcfg, spec = parse_train_config(text), parse_toy_spec(text)
        model = tc.build_model(tc.parse_config(text), seed=tcfg.seed).train()
        x, labels = ToyDataset(spec).batch("train", range(32))
        lens = spec.seq_len - np.arange(32) % (spec.seq_len // 2)  # variable lengths
        y = Tensor(one_hot(labels, spec.num_classes))

        def step():
            model.zero_grad()
            with GradTape() as tape:
                loss = ops.cross_entropy(model(Tensor(x), valid_len=lens), y)
            tape.backward(loss)

        step()  # the first step allocates the norms' running statistics
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in model.parameters())
        assert peak < 12.5 * 2**20

    def test_step_error_names_epoch_and_step(self):
        model, ds, tcfg = self._tiny()
        model.parameters()[0].data.flat[0] = np.nan
        with pytest.raises(NumericError, match="^epoch 0, step 0: "):
            train_loop(model, ds, tcfg)

    def test_class_count_mismatch_rejected(self):
        model, ds, tcfg = self._tiny()
        bad = ToyDataset(ToyDatasetSpec(num_classes=5, seq_len=8, frame_size=8,
                                        train_size=10, val_size=5, test_size=5))
        with pytest.raises(ConfigError):
            train_loop(model, bad, tcfg)

    def test_empty_split_rejected(self):
        model, ds, tcfg = self._tiny()
        with pytest.raises(ConfigError):
            evaluate(model, ds, "nope", tcfg)

    def test_evaluate_restores_training_flag(self):
        model, ds, tcfg = self._tiny()
        model.train()
        evaluate(model, ds, "val", tcfg)
        assert model.training
        model.eval()
        evaluate(model, ds, "val", tcfg)
        assert not model.training
