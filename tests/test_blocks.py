"""Structural and behavioral invariants of every temporal block kind."""
import re

import numpy as np
import pytest

from tempconv import Tensor, ops, parse_config
from tempconv.blocks import (
    BLOCK_KINDS,
    STAR_DW_KERNEL,
    canonical_kind,
    expanded_width,
    make_block,
)
from tempconv.errors import ConfigError, ShapeError
from tempconv.frontend import ClassifierHead, ReferenceExtractor, Stem

from oracles import PARAM_FORMS, RETIRED_KIND_NAMES, block_param_form

ALL_KINDS = tuple(BLOCK_KINDS)


def param_count(module):
    return sum(int(np.prod(p.shape)) for _, p in module.named_parameters())


def fresh(kind, channels=16, dilation=2, dropout=0.0):
    blk = make_block(kind, channels, dilation=dilation, dropout=dropout)
    blk.init_parameters(np.random.default_rng(0))
    return blk


class TestRegistry:
    def test_kind_lists_complete(self):
        assert BLOCK_KINDS == ("baseline", "linear", "fusedmb", "invertedresidual", "cib",
                               "uib", "starv")
        assert canonical_kind(" StarV ") == "starv"  # case and spaces fold

    def test_retired_names_refused(self):
        """One name per structure: the copies and the variant of starv and the aliases
        are unknown kinds."""
        for name in RETIRED_KIND_NAMES:
            message = re.escape(f"unknown block kind '{name}'; choose from {', '.join(BLOCK_KINDS)}")
            with pytest.raises(ConfigError, match=message):
                canonical_kind(name)
            with pytest.raises(ConfigError, match=message):
                parse_config("", [f"tcn.block_kind={name}"])
            with pytest.raises(ConfigError, match=message):
                make_block(name, 8, dilation=1)

    def test_expanded_width_integrality(self):
        assert expanded_width(16, 3.5) == 56
        assert expanded_width(10, 3.3) == 33  # float noise tolerated
        with pytest.raises(ConfigError):
            expanded_width(10, 3.37)
        with pytest.raises(ConfigError):
            expanded_width(7, 1.5)


class TestParamClosedForms:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("channels", [16, 32])
    def test_formula_matches_built_block(self, kind, channels):
        blk = fresh(kind, channels)
        want = block_param_form(kind, channels)
        assert param_count(blk) == want

    def test_baseline_at_reference_width(self):
        # two full convs with bias + two norms at width 512
        want = 2 * (512 * 512 * 3 + 512) + 4 * 512
        assert block_param_form("baseline", 512) == want == 1_575_936

    def test_forms_cover_every_kind(self):
        assert set(PARAM_FORMS) == set(ALL_KINDS)


class TestShapesAndCausality:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_shape_preserved(self, kind):
        blk = fresh(kind).eval()
        x = Tensor(np.random.default_rng(1).standard_normal((2, 16, 9)).astype(np.float32))
        assert blk(x).shape == (2, 16, 9)

    def test_declared_block_runs_in_training(self):
        """Norm statistics are declared by shape; the first training update allocates them."""
        blk = make_block("baseline", 4, dilation=1)
        blk(Tensor(np.ones((2, 4, 5), np.float32)))
        assert all(b.flags.writeable for _, b in blk.named_buffers())

    # below the Model every op and module takes batched (N, C, *S) input only
    UNBATCHED = {
        **{kind: (lambda x, kind=kind: fresh(kind).eval()(x), (16, 9)) for kind in ALL_KINDS},
        "ops.conv": (lambda x: ops.conv(x, Tensor(np.zeros((4, 4, 3), np.float32)), None,
                                        ops.ConvSpec(4, 4, kernel=(3,), causal=True)), (4, 9)),
        "stem": (lambda x: Stem()(x), (1, 5, 8, 8)),
        "extractor": (lambda x: ReferenceExtractor()(x), (32, 5, 8, 8)),
        "head": (lambda x: ClassifierHead(16, 4)(x), (16, 9)),
    }

    @pytest.mark.parametrize("name", list(UNBATCHED))
    def test_unbatched_input_rejected(self, name):
        run, shape = self.UNBATCHED[name]
        with pytest.raises(ShapeError, match=f"rank {len(shape) + 1}"):
            run(Tensor(np.zeros(shape, dtype=np.float32)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("dilation", [1, 4])
    def test_causal_bitwise(self, kind, dilation):
        blk = fresh(kind, dilation=dilation).eval()
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 16, 12)).astype(np.float32)
        cut = 5
        y = x.copy()
        y[:, :, cut:] += rng.standard_normal((1, 16, 12 - cut)).astype(np.float32)
        out_x = blk(Tensor(x)).data
        out_y = blk(Tensor(y)).data
        assert np.array_equal(out_x[:, :, :cut], out_y[:, :, :cut])
        assert not np.array_equal(out_x[:, :, cut:], out_y[:, :, cut:])


class TestResidualStructure:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_body_passes_input_through(self, kind):
        """Zeroing every conv weight and norm gain leaves only the shortcut."""
        blk = fresh(kind).eval()
        for name, p in blk.named_parameters():
            p.data[...] = 0.0
        x = Tensor(np.random.default_rng(4).standard_normal((2, 16, 7)).astype(np.float32))
        np.testing.assert_array_equal(blk(x).data, x.data)

    def test_dropout_covers_block_output(self):
        """Dropout acts after the residual add: surviving entries are scaled
        copies of the shortcut when the body is zeroed."""
        p = 0.5
        blk = fresh("baseline", dropout=p)
        for _, par in blk.named_parameters():
            par.data[...] = 0.0
        blk.train()
        x = Tensor(np.random.default_rng(5).standard_normal((2, 16, 7)).astype(np.float32))
        out = blk(x).data
        kept = out != 0
        assert 0.2 < kept.mean() < 0.8
        np.testing.assert_allclose(out[kept], x.data[kept] / (1 - p), rtol=1e-6)

    def test_eval_mode_disables_dropout(self):
        blk = fresh("baseline", dropout=0.9).eval()
        for _, par in blk.named_parameters():
            par.data[...] = 0.0
        x = Tensor(np.random.default_rng(5).standard_normal((2, 16, 7)).astype(np.float32))
        np.testing.assert_array_equal(blk(x).data, x.data)


class TestStarMixer:
    def test_gate_branch_is_rectified(self):
        """Driving the gate branch far negative silences the whole body."""
        blk = fresh("starv", channels=8).eval()
        # branch1 feeds relu6: push its bias to -100 so the gate is all zero
        blk.branch1.bias.data[...] = -100.0
        blk.branch1.weight.data[...] = 0.0
        # the trailing depthwise conv is biased; zero it so a silent body
        # contributes exactly nothing
        blk.dw_out.bias.data[...] = 0.0
        x = Tensor(np.random.default_rng(6).standard_normal((1, 8, 6)).astype(np.float32))
        np.testing.assert_allclose(blk(x).data, x.data, atol=1e-6)

    def test_branches_not_interchangeable(self):
        """relu6 gates branch1 only, so swapping branch weights changes output."""
        blk = fresh("starv", channels=8).eval()
        x = Tensor(np.random.default_rng(7).standard_normal((1, 8, 6)).astype(np.float32))
        base = blk(x).data.copy()
        w1 = blk.branch1.weight.data.copy()
        b1 = blk.branch1.bias.data.copy()
        blk.branch1.weight.data[...] = blk.branch2.weight.data
        blk.branch1.bias.data[...] = blk.branch2.bias.data
        blk.branch2.weight.data[...] = w1
        blk.branch2.bias.data[...] = b1
        swapped = blk(x).data
        assert not np.allclose(base, swapped)

    def test_depthwise_kernel_default(self):
        blk = fresh("starv", channels=8)
        assert blk.dw_in.conv.spec.kernel == (STAR_DW_KERNEL,)
        assert blk.dw_out.spec.kernel == (STAR_DW_KERNEL,)


class TestReceptiveTaps:
    @pytest.mark.parametrize("kind,count", [
        ("baseline", 2), ("linear", 2), ("fusedmb", 1), ("invertedresidual", 1),
        ("cib", 3), ("uib", 2), ("starv", 2)])
    def test_tap_counts(self, kind, count):
        d = 2
        taps = fresh(kind, dilation=d).rf_taps()
        assert len(taps) == count
        k = STAR_DW_KERNEL if kind.startswith("star") else 3
        assert all(tap == (k, d) for tap in taps)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_taps_match_measured_reach(self, kind):
        """The declared taps predict exactly which frames reach the last output."""
        d = 3
        blk = fresh(kind, dilation=d).eval()
        reach = sum((k - 1) * dd for k, dd in blk.rf_taps())
        t_len = reach + 4
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 16, t_len)).astype(np.float32)

        def last_frame_after_bump(frame):
            y = x.copy()
            y[:, :, frame] += 1.0
            return blk(Tensor(y)).data[:, :, -1]

        base = blk(Tensor(x)).data[:, :, -1]
        edge = t_len - 1 - reach  # earliest frame inside the receptive field
        assert not np.array_equal(base, last_frame_after_bump(edge))
        if edge > 0:
            assert np.array_equal(base, last_frame_after_bump(edge - 1))


class TestCountAgreement:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_registry_equals_complexity_counter(self, kind):
        blk = fresh(kind)
        assert blk.param_count() == param_count(blk)
