"""Parameter/MAC auditing: row accounting, fixture verification, emitters."""
import ast
import json
import math
import os
import pathlib
import re

import numpy as np
import pytest

import tempconv as tc
from tempconv import Tensor, ops
from tempconv.blocks import BLOCK_KINDS
from tempconv.complexity import (
    audit,
    emit_report,
    emit_verify,
    load_fixture,
    report_to_dict,
    verify_fixture,
    verify_report,
)
from tempconv.errors import FormatError

from oracles import predict_param_count

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "paper_tables.json")
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def small_model(extra="", frontend=True):
    head = "" if frontend else "[model]\nfrontend = false\n"
    c = tc.parse_config(head + "[tcn]\nchannels = 16\nstages = 2\n"
                        + ("[extractor]\nwidths = 8, 16\n" if frontend else "")
                        + "[classifier]\nnum_classes = 4\n" + extra)
    return tc.build_model(c, init=False), c


class TestAudit:
    def test_rows_sum_to_totals(self):
        model, c = small_model()
        rep = audit(model, (1, 6, 16, 16))
        assert rep.total_params == sum(r.params for r in rep.rows)
        assert rep.total_params == predict_param_count(c)

    def test_group_partition(self):
        model, _ = small_model()
        rep = audit(model, (1, 6, 16, 16))
        params, macs = rep.group_totals()
        assert set(params) == {"stem", "extractor", "tcn", "classifier"}
        assert sum(params.values()) == rep.total_params
        assert sum(macs.values()) == rep.total_macs
        assert all(v > 0 for v in params.values())

    def test_tcn_only_audit(self):
        model, _ = small_model(frontend=False)
        rep = audit(model, model.input_shape(frames=10))
        params, _ = rep.group_totals()
        assert params["stem"] == 0 and params["extractor"] == 0
        assert params["tcn"] == rep.tcn_params

    def test_macs_scale_linearly_with_frames(self):
        """Causal temporal stacks cost exactly T times the per-frame work."""
        model, _ = small_model(frontend=False)
        r10 = audit(model, model.input_shape(frames=10))
        r20 = audit(model, model.input_shape(frames=20))
        assert r20.tcn_macs == 2 * r10.tcn_macs
        # the classifier runs once per clip, so its cost is frame-independent
        head10 = r10.total_macs - r10.tcn_macs
        head20 = r20.total_macs - r20.tcn_macs
        assert head10 == head20 > 0

    def test_macs_exclude_norm_and_bias(self):
        """A bias-only change of structure must not alter the MAC count."""
        model, _ = small_model(frontend=False)
        rep = audit(model, model.input_shape(frames=8))
        # hand-recompute one baseline block: 2 convs of k*C*C per frame
        t = 8
        c = 16
        per_block = 2 * (3 * c * c) * t
        block_rows = [r for r in rep.rows if "baseline" in r.name]
        assert len(block_rows) == 2
        assert all(r.macs == per_block for r in block_rows)


JOIN_CASES = {
    **{kind: ("[model]\nfrontend = false\n"
              f"[tcn]\nblock_kind = {kind}\nchannels = 8\nstages = 2\n", (2, 8, 7))
       for kind in BLOCK_KINDS},
    "frontend": ("[stem]\nout_channels = 4\n"
                 "[extractor]\nwidths = 8, 16\n"
                 "[tcn]\nblock_kind = starv\nchannels = 16\nstages = 2\n", (2, 1, 5, 16, 16)),
}


class TestMacJoin:
    """A batched forward runs exactly N times the MACs ``audit`` reports."""

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("case", list(JOIN_CASES))
    def test_forward_macs_equal_audit(self, case, training, monkeypatch):
        doc, shape = JOIN_CASES[case]
        model = tc.build_model(tc.parse_config(doc + "[classifier]\nnum_classes = 4\n"), seed=0)
        model.train(training)  # eval folds each norm into its conv
        counted = []
        conv, linear = ops.conv, ops.linear

        def counting_conv(x, weight, bias=None, spec=None):
            out = conv(x, weight, bias, spec)
            counted.append(out.data.size * math.prod(weight.shape[1:]))
            return out

        def counting_linear(x, weight, bias=None):
            counted.append(math.prod(x.shape[:-1]) * weight.data.size)
            return linear(x, weight, bias)

        monkeypatch.setattr(ops, "conv", counting_conv)
        monkeypatch.setattr(ops, "linear", counting_linear)
        x = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        model(Tensor(x))
        assert sum(counted) == shape[0] * audit(model, shape[1:]).total_macs


class TestVerify:
    def test_fixture_all_rows(self):
        results = verify_fixture(FIXTURE)
        by_id = {}
        for r in results:
            by_id.setdefault(r.row_id, []).append(r)
        assert set(by_id) == {"baseline", "linear", "fusedmb",
                              "invertedresidual", "cib", "uib", "starv"}
        # every row except the linear parameter row verifies
        for r in results:
            if r.row_id == "linear" and r.metric == "params":
                assert not r.passed
            else:
                assert r.passed, f"{r.row_id}/{r.metric}: {r}"

    def test_row_filter(self):
        results = verify_fixture(FIXTURE, row_ids={"starv"})
        assert {r.row_id for r in results} == {"starv"}
        assert len(results) == 2  # params + macs

    def test_negative_control_catches_wrong_width(self):
        """Doubling the temporal width must blow every tolerance."""
        text = open(os.path.join(CONFIGS, "starv.cfg")).read()
        c = tc.parse_config(text, overrides=["model.frontend=false", "tcn.channels=1024"])
        model = tc.build_model(c, init=False)
        rep = audit(model, model.input_shape(frames=29))
        fixture = load_fixture(FIXTURE)
        row = next(r for r in fixture["rows"] if r["id"] == "starv")
        results = verify_report(rep, row)
        assert all(not r.passed for r in results)

    def test_block_zoo_is_the_audited_kinds(self):
        """Every registered kind is a fixture row and a shipped config, and
        nothing else is: an unaudited kind cannot join the zoo unnoticed."""
        rows = {row["id"] for row in load_fixture(FIXTURE)["rows"]}
        shipped = {tc.load_config_file(path).tcn.block_kind
                   for path in pathlib.Path(CONFIGS).glob("*.cfg")}
        assert set(BLOCK_KINDS) == rows == shipped

    def test_tolerance_is_relative(self):
        model, _ = small_model(frontend=False)
        rep = audit(model, model.input_shape(frames=8))
        row = {"id": "probe", "tcn_params_m": rep.tcn_params / 1e6 * 1.04,
               "tol_params": 0.05}
        assert all(r.passed for r in verify_report(rep, row))
        row["tol_params"] = 0.03
        assert not all(r.passed for r in verify_report(rep, row))


class TestFixtureFormat:
    def test_missing_tolerance_rejected(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"rows": [{"id": "x", "config": "c.cfg",
                                           "tcn_params_m": 1.0}]}))
        with pytest.raises(FormatError):
            load_fixture(p)

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "f.json"
        row = {"id": "x", "config": "c.cfg", "tcn_params_m": 1.0, "tol_params": 0.05}
        p.write_text(json.dumps({"rows": [row, row]}))
        with pytest.raises(FormatError, match="duplicate fixture row id 'x'"):
            load_fixture(p)

    GOOD_ROW = {"id": "x", "config": "c.cfg", "tcn_params_m": 1.0, "tol_params": 0.05}

    @pytest.mark.parametrize("doc,message", [
        (None, "fixture must be an object with a 'rows' list"),
        ({"rows": [5]}, "fixture row 0 is not an object, got 5"),
        ({"rows": [{**GOOD_ROW, "id": [1]}]}, "fixture row 0 needs string 'id' and 'config'"),
        ({"rows": [{**GOOD_ROW, "config": 3}]}, "fixture row 0 needs string 'id' and 'config'"),
        ({"rows": [{**GOOD_ROW, "tcn_params_m": "many"}]},
         "fixture row 'x' tcn_params_m must be a finite number > 0, got 'many'"),
        ({"rows": [{**GOOD_ROW, "tcn_params_m": None}]},
         "fixture row 'x' tcn_params_m must be a finite number > 0, got None"),
        ({"rows": [{**GOOD_ROW, "tcn_params_m": [1]}]},
         "fixture row 'x' tcn_params_m must be a finite number > 0, got [1]"),
        ({"rows": [{**GOOD_ROW, "tcn_params_m": 0}]},
         "fixture row 'x' tcn_params_m must be a finite number > 0, got 0"),
        ({"rows": [{**GOOD_ROW, "tol_params": "x"}]},
         "fixture row 'x' tol_params must be a finite number ≥ 0, got 'x'"),
        ({"rows": [{**GOOD_ROW, "tol_params": True}]},
         "fixture row 'x' tol_params must be a finite number ≥ 0, got True"),
        ({"rows": [{**GOOD_ROW, "tol_params": -0.1}]},
         "fixture row 'x' tol_params must be a finite number ≥ 0, got -0.1"),
        ({"rows": [{**GOOD_ROW, "tol_params": math.inf}]},
         "fixture row 'x' tol_params must be a finite number ≥ 0, got inf"),
        ({"rows": [GOOD_ROW], "input_shape": 5},
         "fixture input_shape must be 4 positive ints (C, T, H, W), got 5"),
        ({"rows": [GOOD_ROW], "input_shape": [1, 29.0, 88, 88]},
         "fixture input_shape must be 4 positive ints (C, T, H, W), got [1, 29.0, 88, 88]"),
    ], ids=["null", "row-not-object", "id-list", "config-int", "expectation-string",
            "expectation-null", "expectation-list", "expectation-zero", "tolerance-string",
            "tolerance-bool", "tolerance-negative", "tolerance-infinite", "shape-int",
            "shape-float"])
    def test_wrongly_typed_values_refused(self, tmp_path, doc, message):
        """Each value verify_fixture reads is checked at load, by file and row."""
        p = tmp_path / "f.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
            load_fixture(p)

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text("{nope")
        with pytest.raises(FormatError):
            load_fixture(p)


class TestEmitters:
    def test_json_round_trip(self):
        model, _ = small_model()
        rep = audit(model, (1, 6, 16, 16))
        blob = emit_report(rep, fmt="json")
        parsed = json.loads(blob)
        assert parsed == report_to_dict(rep)
        assert parsed["totals"]["params"] == rep.total_params

    def test_markdown_has_table_and_totals(self):
        model, _ = small_model()
        rep = audit(model, (1, 6, 16, 16))
        md = emit_report(rep, fmt="markdown")
        assert "|" in md and "Total" in md

    def test_text_contains_every_row(self):
        model, _ = small_model()
        rep = audit(model, (1, 6, 16, 16))
        txt = emit_report(rep, fmt="text")
        for row in rep.rows:
            assert row.name in txt

    def test_verify_emitters(self):
        results = verify_fixture(FIXTURE, row_ids={"starv"})
        txt = emit_verify(results, fmt="text")
        assert "starv" in txt and "pass" in txt
        blob = json.loads(emit_verify(results, fmt="json"))
        assert all(entry["passed"] for entry in blob["rows"])


class TestWhatAModelAccepts:
    """``Model.check_input`` is the one owner of the input rules: the audit
    and a forward refuse the same sample with the same error."""

    MODELS = {
        "toy": pathlib.Path(CONFIGS, "toy.cfg").read_text(encoding="utf-8"),
        "starv-3-stages": ("[stem]\nout_channels = 4\n[extractor]\nwidths = 4, 8, 8\n"
                           "[tcn]\nblock_kind = starv\nchannels = 8\nstages = 1\n"
                           "[classifier]\nnum_classes = 4\n"),
        "starv-frontendless": ("[model]\nfrontend = false\n[tcn]\nblock_kind = starv\n"
                               "channels = 8\nstages = 2\n[classifier]\nnum_classes = 4\n"),
    }

    @staticmethod
    def _shapes(model):
        if model.has_frontend:
            sides = [(s, s) for s in (0, 2, 4, 6, 7, 8, 16)] + [(8, 10)]
            return [(c, t, h, w) for c in (1, 3) for t in (0, 1, 2, 3, 5) for h, w in sides]
        right = model.tcn.in_channels
        return [(c, t) for c in (right - 1, right) for t in (0, 1, 2, 5)]

    @staticmethod
    def _outcome(run):
        try:
            run()
        except tc.TempconvError as exc:
            return type(exc).__name__, str(exc)
        return "ok"

    @pytest.fixture(params=list(MODELS))
    def model(self, request):
        return tc.build_model(tc.parse_config(self.MODELS[request.param]), seed=0).eval()

    def test_audit_and_forward_agree(self, model):
        disagree = []
        for shape in self._shapes(model):
            audited = self._outcome(lambda: audit(model, shape))
            ran = self._outcome(lambda: model(Tensor(np.zeros(shape, np.float32))))
            if audited != ran:
                disagree.append((shape, audited, ran))
        assert disagree == []

    def test_wrong_rank_refused_by_both(self, model):
        shape = model.input_shape(frames=5, size=8)[:-1]
        with pytest.raises(tc.ShapeError):
            audit(model, shape)
        with pytest.raises(tc.ShapeError):
            model(Tensor(np.zeros(shape, np.float32)))

    @pytest.mark.parametrize("module", ["complexity.py", "cli.py"])
    def test_input_rules_have_one_owner(self, module):
        """Neither the audit nor the CLI writes a shape rule of its own."""
        def raised(node):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return getattr(exc, "id", getattr(exc, "attr", None))

        tree = ast.parse(pathlib.Path(tc.__file__).with_name(module).read_text(encoding="utf-8"))
        offenders = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Raise) and node.exc is not None
                     and raised(node) == "ShapeError"]
        assert offenders == []
