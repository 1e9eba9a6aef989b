"""Model assembly: config validation, parameter prediction, receptive field,
deterministic construction, and serialization round-trips."""
import glob
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tempconv as tc
from tempconv import Tensor
from tempconv.blocks import BLOCK_KINDS
from tempconv.complexity import audit
from tempconv.config import _KNOWN_KEYS
from tempconv.errors import ConfigError, ShapeError
from tempconv.frontend import StemSpec
from tempconv.model import PARAM_BUDGET_CAP, receptive_field

from oracles import predict_param_count

FIXED = settings.get_profile("fastpath")


def cfg(text, overrides=()):
    return tc.parse_config(text, overrides)

TCN_ONLY = "[model]\nfrontend = false\n"
CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.cfg")))


def render(doc):
    """The INI text of a ``config_to_dict`` document."""
    lines = []
    for section, body in doc.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {', '.join(map(str, value)) if isinstance(value, list) else value}"
                  for key, value in body.items()]
    return "\n".join(lines) + "\n"


def shipped():
    """Every shipped config, frontend on and off."""
    cases = {os.path.basename(path): tc.load_config_file(path) for path in CONFIGS}
    for name, c in list(cases.items()):
        cases[f"{name}-tcn-only"] = replace(c, stem=None, extractor=None)
    return cases


class TestConfigValidation:
    def test_defaults(self):
        c = cfg("")
        assert c.tcn.stages == 4
        assert c.tcn.channels == 512
        assert c.tcn.dropout == 0.2
        assert c.in_channels == 1
        assert c.classifier.num_classes == 500
        assert c.extractor is not None

    def test_stage_floor(self):
        with pytest.raises(ConfigError, match="stages must be ≥ 1"):
            cfg("[tcn]\nstages = 0\n")
        # past 32 stages every dilated tap of an LWT1-sized input reads padding
        assert cfg(TCN_ONLY + "[tcn]\nstages = 32\nchannels = 8\n").tcn.stages == 32
        with pytest.raises(ConfigError, match="stages must be ≤ 32"):
            cfg("[tcn]\nstages = 33\n")

    def test_unknown_section_and_key(self):
        with pytest.raises(ConfigError):
            cfg("[optimizer]\nlr = 1\n")
        with pytest.raises(ConfigError):
            cfg("[tcn]\nwidth = 64\n")
        for key in ("dropout = 0.1", "flip = true", "variable_length = true",
                    "decoupled_decay = false"):
            with pytest.raises(ConfigError, match="unknown key"):
                cfg(f"[train]\n{key}\n")
        with pytest.raises(ConfigError, match=r"^unknown key\(s\) in \[model\]: experimental$"):
            cfg("[model]\nexperimental = true\n")

    def test_frontendless_rejects_stem_section(self):
        with pytest.raises(ConfigError):
            cfg("[model]\nfrontend = false\n[stem]\nout_channels = 16\n")

    def test_fractional_expansion_must_hit_whole_width(self):
        with pytest.raises(ConfigError, match=WIDTH_RULE):
            cfg("[tcn]\nblock_kind = fusedmb\nchannels = 5\nstages = 2\n")

    def test_set_overrides(self):
        c = cfg(TCN_ONLY + "[tcn]\nstages = 4\n", overrides=["tcn.stages=2", "tcn.channels=32"])
        assert c.tcn.stages == 2 and c.tcn.channels == 32

    def test_bad_override_value(self):
        with pytest.raises(ConfigError):
            cfg("", overrides=["tcn.stages=soon"])
        with pytest.raises(ConfigError, match="finite"):
            tc.parse_toy_spec("[toy]\nnoise = nan\n")

    def test_rules_hold_for_replace(self):
        """A section's rules live in its dataclass, so replace() is checked too."""
        with pytest.raises(ConfigError, match="epochs"):
            replace(tc.TrainConfig(), epochs=0)
        with pytest.raises(ConfigError, match="noise"):
            replace(tc.ToyDatasetSpec(), noise=-1)
        with pytest.raises(ConfigError, match="crop_size"):
            replace(tc.TrainConfig(), crop_size=0)

    @pytest.mark.parametrize("name,config", sorted(shipped().items()))
    def test_writer_and_reader_agree(self, name, config):
        """config_to_dict writes a document that parses back to the same config."""
        assert cfg(render(tc.config_to_dict(config))) == config

    @pytest.mark.parametrize("key", sorted(f"{section}.{key}" for section, keys in
                                           _KNOWN_KEYS.items() for key in keys))
    @settings(FIXED, max_examples=40)
    @given(value=st.one_of(st.text(), st.integers().map(str), st.floats().map(repr),
                           st.sampled_from(["nan", "-inf", "1e308", "%", "%(x)s", "none"])))
    def test_fuzzed_override_raises_only_config_error(self, key, value):
        for parse in (tc.parse_config, tc.parse_train_config, tc.parse_toy_spec):
            try:
                parse("", [f"{key}={value}"])
            except ConfigError:
                pass


WIDTH_RULE = "expansion 3.5 does not give a whole width at 5 channels"
KIND_RULE = "unknown block kind 'stariii'"
TCN_WIDTH_RULE = r"\[tcn\] channels 256 must equal the extractor's output width, widths\[-1\] = 512"


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(BLOCK_KINDS))
    overrides = [f"tcn.block_kind={kind}",
                 f"tcn.stages={draw(st.integers(1, 2))}",
                 f"tcn.channels={draw(st.sampled_from(['1', '3', '4', '5', '4,6', '8,3']))}",
                 "classifier.num_classes=3"]
    if draw(st.booleans()):
        widths = draw(st.sampled_from(['2', '4,6', '3,4,5']))
        overrides += [f"stem.out_channels={draw(st.integers(1, 6))}",
                      f"extractor.widths={widths}",
                      f"extractor.expansion={draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))}"]
        if draw(st.booleans()):  # the one [tcn] width a frontend admits
            overrides.append(f"tcn.channels={widths.split(',')[-1]}")
    else:
        overrides.append("model.frontend=false")
    return overrides


class TestModelRules:
    """[model]'s rules and the builder's width and kind rules have one owner,
    so parsing, replace() and make_block refuse the same configs."""

    @pytest.mark.parametrize("make,match", [
        (lambda: cfg("", ["tcn.block_kind=fusedmb", "tcn.channels=5"]), WIDTH_RULE),
        (lambda: tc.make_block("fusedmb", 5, 1), WIDTH_RULE),
        (lambda: cfg("[tcn]\nblock_kind = stariii\n"), KIND_RULE),
        (lambda: tc.make_block("stariii", 8, 1), KIND_RULE),
        (lambda: replace(cfg("", ["extractor.expansion=1.5"]), stem=StemSpec(3)),
         "expansion 1.5 does not give a whole width at 3 channels"),
        (lambda: replace(cfg(""), stem=None), "must both be set"),
        (lambda: replace(cfg(TCN_ONLY), tcn=tc.TCNConfig(block_kind="stariii")), KIND_RULE),
        (lambda: replace(cfg(TCN_ONLY), tcn=tc.TCNConfig(block_kind="fusedmb", channels=5)),
         WIDTH_RULE),
        (lambda: cfg("", ["tcn.channels=256"]), TCN_WIDTH_RULE),
        (lambda: replace(cfg(""), tcn=tc.TCNConfig(channels=256)), TCN_WIDTH_RULE),
    ], ids=["fractional-width-parse", "fractional-width-make-block", "retired-kind-parse",
            "retired-kind-make-block", "stem-width-fractional-expansion", "stem-without-extractor",
            "retired-kind-replace", "fractional-width-replace", "tcn-width-parse",
            "tcn-width-replace"])
    def test_refused_where_the_rule_lives(self, make, match):
        with pytest.raises(ConfigError, match=match):
            make()

    def test_extractor_takes_the_stem_width(self):
        """The stem's width is passed to the extractor when the model is
        built, so any stem width with whole expanded widths builds."""
        config = replace(cfg(""), stem=StemSpec(16))
        assert tc.build_model(config, init=False).param_count() == predict_param_count(config)

    @settings(FIXED, max_examples=200)
    @given(overrides=documents())
    def test_every_parsed_document_builds_and_audits(self, overrides):
        """A document the parser accepts is one the builder and auditor accept."""
        try:
            config = cfg("", overrides)
        except ConfigError:
            return
        model = tc.build_model(config, init=False)
        audit(model, model.input_shape())


class TestParamPrediction:
    @pytest.mark.parametrize("kind", ["baseline", "linear", "fusedmb",
                                      "invertedresidual", "cib", "uib", "starv"])
    def test_closed_form_matches_built_model(self, kind):
        c = cfg(TCN_ONLY + f"[tcn]\nblock_kind = {kind}\nchannels = 64\nstages = 3\n")
        model = tc.build_model(c, init=False)
        assert predict_param_count(c) == model.param_count()

    def test_full_model_prediction(self):
        c = cfg("[extractor]\nwidths = 64, 128\n[tcn]\nchannels = 128\nstages = 2\n"
                "[classifier]\nnum_classes = 12\n")
        model = tc.build_model(c, init=False)
        assert predict_param_count(c) == model.param_count()

    def test_budget_cap_enforced(self):
        """Over-budget configs fail on declared shapes, before any weight is
        allocated (eager allocation of this one would need about 48 GiB)."""
        c = cfg(TCN_ONLY + "[tcn]\nchannels = 16384\nstages = 8\n")
        assert predict_param_count(c) > PARAM_BUDGET_CAP
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="budget"):
                tc.build_model(c, init=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


    def test_declared_build_holds_no_storage(self):
        """``build_model(init=False)``, as count, describe and verify build, leaves
        every parameter and buffer declared by shape (the allocated fusedmb.cfg
        build took 61 MiB); ``allocate()`` gives them storage."""
        c = tc.load_config_file(next(p for p in CONFIGS if p.endswith("fusedmb.cfg")))
        tc.build_model(c, init=False)  # the first call pays for one-time work
        tracemalloc.start()
        try:
            model = tc.build_model(c, init=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        arrays = lambda: [p.data for p in model.parameters()] + [b for _, b in model.named_buffers()]
        assert not any(a.flags.writeable for a in arrays())
        model.allocate()
        assert all(a.flags.writeable for a in arrays())


class TestReceptiveField:
    def test_baseline_formula_values(self):
        # 2 taps/block, kernel 3, dilations 1,2,4,8 -> 1 + 2*2*15 = 61 (+2 stem)
        assert receptive_field(cfg(TCN_ONLY + "[tcn]\nblock_kind = baseline\n")) == 61
        assert receptive_field(cfg("")) == 63

    def test_star_formula_value(self):
        c = cfg(TCN_ONLY + "[tcn]\nblock_kind = starv\n")
        # 2 taps/block, dw kernel 7 -> 1 + 2*6*15 = 181
        assert receptive_field(c) == 181

    @pytest.mark.parametrize("kind,stages", [("baseline", 3), ("cib", 2),
                                             ("fusedmb", 4), ("starv", 2)])
    def test_formula_matches_perturbation(self, kind, stages):
        """Empirical receptive field of the temporal path equals the formula."""
        c = cfg(TCN_ONLY + f"[tcn]\nblock_kind = {kind}\nchannels = 8\nstages = {stages}\n")
        model = tc.build_model(c, seed=0).eval()
        rf = receptive_field(c)
        t_len = rf + 3
        x = np.random.default_rng(1).standard_normal((1, 8, t_len)).astype(np.float32)

        def last_frame(bump_at):
            y = x.copy()
            y[:, :, bump_at] += 1.0
            return model.tcn(Tensor(y)).data[:, :, -1]

        base = model.tcn(Tensor(x)).data[:, :, -1]
        edge = t_len - rf  # first frame the last output can see
        assert not np.array_equal(base, last_frame(edge))
        assert np.array_equal(base, last_frame(edge - 1))


class TestDeterminism:
    def test_same_seed_same_weights(self):
        c = cfg("[tcn]\nchannels = 16\nstages = 2\n[extractor]\nwidths = 8, 16\n")
        a = tc.build_model(c, seed=7)
        b = tc.build_model(c, seed=7)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        c = cfg(TCN_ONLY + "[tcn]\nchannels = 16\nstages = 1\n")
        a = tc.build_model(c, seed=0)
        b = tc.build_model(c, seed=1)
        diffs = [not np.array_equal(pa.data, pb.data)
                 for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
                 if pa.data.std() > 0]
        assert any(diffs)


class TestStateDictRoundTrip:
    def test_round_trip_bitwise(self):
        c = cfg("[tcn]\nchannels = 16\nstages = 2\n[extractor]\nwidths = 8, 16\n"
                "[classifier]\nnum_classes = 4\n")
        a = tc.build_model(c, seed=3)
        b = tc.build_model(c, seed=99)
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 6, 16, 16)).astype(np.float32))
        a.eval(), b.eval()
        np.testing.assert_array_equal(a(x).data, b(x).data)

    def test_missing_key_rejected(self):
        c = cfg(TCN_ONLY + "[tcn]\nchannels = 8\nstages = 1\n")
        model = tc.build_model(c, seed=0)
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(tc.FormatError):
            model.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        c = cfg(TCN_ONLY + "[tcn]\nchannels = 8\nstages = 1\n")
        model = tc.build_model(c, seed=0)
        state = model.state_dict()
        k = next(iter(state))
        state[k] = np.zeros((1, 2, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            model.load_state_dict(state)

    def test_refused_state_writes_nothing(self):
        """Every entry's shape is checked before the first write, so a
        refused load leaves no half-loaded model."""
        model = tc.Sequential(tc.Conv(tc.ConvSpec(2, 2, (3,))), tc.BatchNorm(2))
        model.init_parameters(np.random.default_rng(0))
        before = model.state_dict()
        state = {k: v + 1 for k, v in before.items()}
        state["1.gamma"] = np.ones(5, np.float32)
        with pytest.raises(ShapeError, match="'1.gamma'"):
            model.load_state_dict(state)
        after = model.state_dict()
        assert list(after) == list(before)
        for k in before:
            assert after[k].tobytes() == before[k].tobytes(), k

    def test_loads_into_a_model_built_without_storage(self):
        c = cfg("[tcn]\nchannels = 16\nstages = 2\n[extractor]\nwidths = 8, 16\n"
                "[classifier]\nnum_classes = 4\n")
        state = tc.build_model(c, seed=3).state_dict()
        model = tc.build_model(c, init=False)
        model.load_state_dict(state)
        for k, v in model.state_dict().items():
            np.testing.assert_array_equal(v, state[k])


class TestDescribe:
    def test_describe_mentions_structure(self):
        c = cfg("[tcn]\nblock_kind = starv\nchannels = 32\nstages = 2\n"
                "[extractor]\nwidths = 16, 32\n[classifier]\nnum_classes = 11\n")
        model = tc.build_model(c, init=False)
        text = tc.describe(model)
        assert "starv" in text
        assert "receptive field" in text.lower()
        assert tc.config_hash(c) in text
        assert f"{predict_param_count(c):,}" in text

    def test_describe_deterministic(self):
        c = cfg(TCN_ONLY + "[tcn]\nchannels = 16\n")
        m = tc.build_model(c, init=False)
        assert tc.describe(m) == tc.describe(m)


class TestTrendAcrossDepthWidthGrid:
    def test_params_rise_with_width_and_macs_fall_with_depth(self):
        """Across (stages; channels) = (8;128) (6;256) (4;512) (3;768):
        parameters strictly increase, per-clip MACs strictly decrease the
        other way."""
        grid = [(8, 128), (6, 256), (4, 512), (3, 768)]
        params, macs = [], []
        for stages, ch in grid:
            c = cfg(TCN_ONLY +
                    f"[tcn]\nblock_kind = starv\nstages = {stages}\nchannels = {ch}\n")
            model = tc.build_model(c, init=False)
            rep = audit(model, model.input_shape(frames=29))
            params.append(rep.tcn_params)
            macs.append(rep.tcn_macs)
        assert params[0] < params[1] < params[2]  # (8;128) -> (6;256) -> (4;512)
        assert macs[3] > macs[2] > macs[1] > macs[0]  # (3;768) down to (8;128)
