"""Command-line interface: exit codes, output formats, file side effects."""
import errno
import json
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from tempconv import build_model, frontend, load_config_file, lwt, parse_config
from tempconv.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from tempconv.config import _KNOWN_KEYS
from tempconv.errors import ConfigError
from tempconv.layers import MAX_STAGES

from oracles import RETIRED_KIND_NAMES, lwt_record

ROOT = os.path.join(os.path.dirname(__file__), "..")
TOY_CFG = os.path.join(ROOT, "configs", "toy.cfg")
STARV_CFG = os.path.join(ROOT, "configs", "starv.cfg")
FIXTURE = os.path.join(ROOT, "fixtures", "paper_tables.json")

TINY = ["--set", "extractor.widths=4,8", "--set", "tcn.channels=8",
        "--set", "tcn.stages=1", "--set", "stem.out_channels=4",
        "--set", "classifier.num_classes=4",
        "--set", "toy.num_classes=4", "--set", "toy.train_size=16",
        "--set", "toy.val_size=8", "--set", "toy.test_size=8",
        "--set", "toy.seq_len=8",
        "--set", "train.epochs=2"]


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["describe", "--wat"]) == EXIT_USAGE

    def test_help_is_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert main(["describe", "--help"]) == EXIT_OK

    def test_missing_config_file(self, capsys):
        assert main(["describe", "--config", "/nope/missing.cfg"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("argv,path,code", [
        (["count", "--config", "{dir}"], "{dir}", errno.EISDIR),
        (["describe", "--config", TOY_CFG, "--out", "{dir}"], "{dir}", errno.EISDIR),
        (["verify", "--fixture", "{dir}"], "{dir}", errno.EISDIR),
        (["infer", "--config", TOY_CFG, "--input", "{dir}"], "{dir}", errno.EISDIR),
        (["infer", "--config", TOY_CFG, "--input", "{file}", "--checkpoint", "{dir}"],
         "{dir}", errno.EISDIR),
        (["train-toy", "--config", TOY_CFG, *TINY, "--run-dir", "{file}"], "{file}", errno.EEXIST),
        (["gen-data", "--config", TOY_CFG, *TINY, "--out", "{dir}"], "{dir}", errno.EISDIR),
    ], ids=["count-config-dir", "describe-out-dir", "verify-fixture-dir", "infer-input-dir",
            "infer-checkpoint-dir", "train-run-dir-is-file", "gen-data-out-dir"])
    def test_unusable_path(self, argv, path, code, tmp_path, capsys):
        """Exit 2 naming the path and the OS reason, not a traceback."""
        (tmp_path / "file").write_bytes(b"")
        names = {"{dir}": str(tmp_path), "{file}": str(tmp_path / "file")}
        assert main([names.get(a, a) for a in argv]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"tempconv: {names[path]}: {os.strerror(code)}\n"

    @pytest.mark.parametrize("command,flag,error", [
        ("describe", "--config", "ConfigError"),
        ("verify", "--fixture", "FormatError"),
    ])
    def test_document_not_utf8(self, command, flag, error, tmp_path, capsys):
        path = tmp_path / "latin1.doc"
        path.write_bytes("[tcn]\nblock_kind = baseline # \u00e9\n".encode("latin-1"))
        assert main([command, flag, str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"tempconv.{error}: ")

    @pytest.mark.parametrize("argv", [
        ["describe", "--seed", "1"],
        ["count", "--seed", "1"],
        ["gen-data", "--seed", "1"],
        ["verify", "--config", TOY_CFG],
        ["verify", "--set", "tcn.stages=1"],
        ["verify", "--seed", "1"],
        ["schedule", "--config", TOY_CFG],
        ["schedule", "--set", "tcn.stages=1"],
        ["schedule", "--seed", "1"],
        ["schedule", "--base-lr", "0.1"],
        ["train-toy", "--seed", "1"],
        ["gradcheck", "--config", TOY_CFG],
        ["gradcheck", "--set", "tcn.stages=1"],
        ["infer", "--crop-size", "8", "--input", "clip.lwt"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_flag_the_command_ignores(self, argv, capsys):
        """A flag the command would not read is a usage error, not a silent no-op."""
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["describe"],
        ["verify"],
        ["infer", "--input", "{tmp}/missing.lwt"],
        ["gradcheck", "--kind", "head"],
        ["schedule", "--epochs", "2"],
        ["train-toy", "--config", TOY_CFG, *TINY, "--run-dir", "{tmp}/run"],
        ["gen-data", "--config", TOY_CFG, *TINY, "--out", "{tmp}/toy.npz"],
    ], ids=lambda argv: argv[0])
    def test_markdown_only_where_it_renders(self, argv, tmp_path, capsys):
        """Only count renders markdown; elsewhere it is a usage error, not text."""
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert main(argv + ["--format", "markdown"]) == EXIT_USAGE
        assert "invalid choice: 'markdown'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_invalid_config_value(self, capsys):
        assert main(["describe", "--set", "tcn.stages=0"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "ConfigError" in err and "stages" in err

    @pytest.mark.parametrize("argv,doc", [
        (["describe", "--set", "tcn.block_kind=50%"], None),
        (["describe"], "[tcn]\nstages = 3%\n"),
        (["describe"], "[tcn]\nblock_kind = base%(x)s\n"),
        (["describe", "--set", "DEFAULT.seed=3"], None),
        (["describe"], "[DEFAULT]\nnum_classes = 7\n"),
        (["describe", "--set", "tcn.dropout=nan"], None),
        (["describe", "--set", "tcn.dropout=inf"], None),
        (["describe", "--set", "extractor.expansion=inf"], None),
        (["describe", "--set", "tcn.stages=33"], None),
        (["gen-data", "--set", "toy.frame_size=-8", "--out", "{tmp}/toy.npz"], None),
        (["gen-data", "--set", "toy.seed=-1", "--out", "{tmp}/toy.npz"], None),
        (["train-toy", "--config", TOY_CFG, *TINY, "--set", "train.seed=-1",
          "--run-dir", "{tmp}/run"], None),
        (["infer", "--input", "{tmp}/missing.lwt", "--seed", "-1"], None),
        (["gradcheck", "--kind", "head", "--seed", "-1"], None),
        (["train-toy", "--config", TOY_CFG, *TINY,
          "--set", "train.crop_size=-1", "--run-dir", "{tmp}/run"], None),
        (["describe", "--set", "tcn.channels=100000000000000000000"], None),
        (["describe", "--set", "extractor.widths=100000000000000000000"], None),
        (["describe", "--set", "stem.out_channels=100000000000000000000"], None),
        (["describe", "--set", "extractor.expansion=1e30"], None),
        (["describe", "--set", "classifier.num_classes=10000000000000000001"], None),
        (["describe", "--set", "extractor.expansion=1.01"], None),
        (["describe", "--set", "extractor.in_channels=8"], None),
        (["describe", "--set", "stem.kernel=3"], None),
        (["describe", "--set", "extractor.stage_widths=8"], None),
        (["describe", "--set", "tcn.channels=8,16"], None),
        (["describe", "--set", "extractor.widths=8,,16", "--set", "tcn.channels=16"], None),
        (["describe", "--set", "extractor.widths=8,16,", "--set", "tcn.channels=16"], None),
        (["describe", "--set", "extractor.widths=,8,16", "--set", "tcn.channels=16"], None),
        (["describe", "--set", "extractor.widths=8,16", "--set", "tcn.channels=8"], None),
        # sizes whose arrays no machine holds, so they fail at once wherever they are not refused
        (["train-toy", "--config", TOY_CFG, "--set", "toy.train_size=1000000000000",
          "--run-dir", "{tmp}/run"], None),
        (["train-toy", "--config", TOY_CFG, "--set", "toy.seq_len=10000000000000",
          "--run-dir", "{tmp}/run"], None),
        (["gen-data", "--set", "toy.frame_size=10000000", "--set", "toy.num_classes=2",
          "--out", "{tmp}/toy.npz"], None),
        (["schedule", "--epochs", "100000000"], None),
        (["schedule", "--epochs", str(10**26)], None),
    ], ids=["percent-override", "percent-doc", "interpolation-doc", "default-override",
            "default-doc", "tcn-dropout-nan", "tcn-dropout-inf", "extractor-expansion-inf",
            "stages-33", "toy-frame-size-negative", "toy-seed-negative", "train-seed-negative",
            "seed-flag-negative", "gradcheck-seed-negative", "crop-size-negative",
            "tcn-channels-huge", "extractor-widths-huge", "stem-out-channels-huge",
            "extractor-expansion-huge", "num-classes-huge", "extractor-expansion-fraction",
            "extractor-in-channels-key", "stem-kernel-key", "extractor-stage-widths-key",
            "tcn-channels-list", "extractor-widths-inner-empty", "extractor-widths-trailing-empty",
            "extractor-widths-leading-empty", "tcn-width-unlike-extractor",
            "toy-train-size-huge", "toy-seq-len-huge", "toy-frame-size-huge",
            "schedule-epochs-1e8", "schedule-epochs-1e26"])
    def test_bad_config_input(self, argv, doc, tmp_path, capsys):
        """Exit 2 with a ConfigError message: no traceback, no silent no-op."""
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if doc is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(doc)
            argv = argv + ["--config", str(path)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("tempconv.ConfigError: ")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("widths", ["8,,16", "8,16,", ",8,16"])
    def test_empty_list_entry_is_refused(self, widths, capsys):
        argv = ["describe", "--set", f"extractor.widths={widths}", "--set", "tcn.channels=16"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"tempconv.ConfigError: [extractor] widths = '{widths}' is not valid: "
            "a list entry is empty\n")

    def test_empty_list_is_refused_by_its_rule(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("[extractor]\nwidths =\n")
        assert main(["describe", "--config", str(cfg)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"tempconv.ConfigError: {cfg}: extractor widths must be a nonempty list of positive ints\n")

    def test_refused_width_allocates_nothing(self, capsys):
        """Norm buffers are declared by shape, so a refused width costs no memory."""
        argv = ["describe", "--set", "model.frontend=false", "--set", "tcn.block_kind=linear",
                "--set", "tcn.channels=5000000"]
        main(argv)  # the first call pays for one-time imports
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        assert "budget cap" in capsys.readouterr().err
        assert peak < 2**20

    @pytest.fixture
    def built(self, monkeypatch):
        """Every extractor bottleneck built, by its arguments; past 64 builds fail."""
        built = []

        class Counted(frontend._SpatialBottleneck):
            def __init__(self, *args):
                built.append(args)
                if len(built) > 64:
                    raise RuntimeError("built more than 64 bottlenecks")
                super().__init__(*args)

        monkeypatch.setattr(frontend, "_SpatialBottleneck", Counted)
        return built

    def test_deep_extractor_refused_before_building(self, built, capsys):
        """A 33rd extractor stage is refused with the config, before any
        bottleneck is built: its frame could not be halved again."""
        argv = ["describe", "--config", STARV_CFG, "--set", "extractor.widths=" + ",".join(["4"] * 33)]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "tempconv.ConfigError: extractor widths must be ≤ 32 stages, got 33\n")
        assert built == []
        assert len(frontend.ExtractorSpec((4,) * MAX_STAGES).widths) == MAX_STAGES

    def test_many_small_extractor_stages_refused(self, built, capsys):
        """Stages too small to reach the parameter cap are bounded too
        (20,000 of width 4 built for 11.8 s, then exited 0)."""
        argv = ["describe", "--config", STARV_CFG, "--set", "extractor.widths=" + ",".join(["4"] * 20000)]
        assert main(argv) == EXIT_VALIDATION
        assert "ConfigError" in capsys.readouterr().err
        assert built == []

    def test_bad_input_tensor(self, tmp_path, capsys):
        p = tmp_path / "bad.lwt"
        p.write_bytes(b"JUNKJUNKJUNK")
        code = main(["infer", "--config", TOY_CFG, "--input", str(p)])
        assert code == EXIT_VALIDATION
        assert "FormatError" in capsys.readouterr().err


    def test_forged_size_from_unseekable_stream(self, tmp_path, capsys):
        """A pipe cannot be sized, so a header declaring 2^31 x 2^31 float32
        is read in bounded chunks and ends as a truncated record."""
        fifo = str(tmp_path / "forged.lwt")
        os.mkfifo(fifo)
        blob = b"LWT1" + struct.pack("<BB2I", 0, 2, 2**31, 2**31) + b"\x00" * 64

        def feed():
            try:
                with open(fifo, "wb") as f:
                    f.write(blob)
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            code = main(["infer", "--config", TOY_CFG, "--input", fifo])
        finally:
            if writer.is_alive():  # the pipe was never opened: release the writer
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"tempconv.FormatError: {fifo}: truncated stream")


class TestDescribe:
    def test_text_output(self, capsys):
        assert main(["describe", "--config", TOY_CFG]) == EXIT_OK
        out = capsys.readouterr().out
        assert "baseline" in out and "receptive field" in out

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "d.txt"
        assert main(["describe", "--config", TOY_CFG, "--out", str(dest)]) == EXIT_OK
        assert "baseline" in dest.read_text()


class TestCount:
    def test_json_totals_consistent(self, capsys):
        assert main(["count", "--config", TOY_CFG, "--frames", "12",
                     "--size", "8", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["params"] == sum(r["params"] for r in doc["rows"])
        assert doc["totals"]["macs"] == sum(r["macs"] for r in doc["rows"])
        assert {r["group"] for r in doc["rows"]} == {
            "stem", "extractor", "tcn", "classifier"}

    def test_markdown(self, capsys):
        assert main(["count", "--config", TOY_CFG, "--frames", "12",
                     "--size", "8", "--format", "markdown"]) == EXIT_OK
        assert "|" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,message", [
        (["--frames", "2"], "need at least 3 frames, got 2"),
        (["--size", "6"], "spatial input 6x6 collapses before the final stage (stage 2 of 4)"),
        (["--size", "7"], "spatial size must be even, got 7x7"),
        (["--size", "0"], "input size 0 too small for kernel 5 with dilation 1"),
        (["--set", "model.frontend=false", "--frames", "0"],
         "input size 0 too small for kernel 7 with dilation 1"),
    ], ids=["frames-2", "size-6", "size-7", "size-0", "frontendless-frames-0"])
    def test_shape_errors(self, flags, message, capsys):
        assert main(["count", "--config", STARV_CFG, *flags]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"tempconv.ShapeError: {message}\n"


class TestVerify:
    def test_full_fixture_reports_known_miss(self, capsys):
        """One published target is out of reach; verify must say so and fail."""
        assert main(["verify", "--fixture", FIXTURE]) == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert out.count("pass") >= 8
        assert "linear" in out and "FAIL" in out

    def test_passing_subset_is_ok(self, capsys):
        assert main(["verify", "--fixture", FIXTURE, "--only", "starv",
                     "--only", "baseline"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        assert main(["verify", "--fixture", FIXTURE, "--only", "uib",
                     "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] and len(doc["rows"]) == 1

    def test_missing_fixture(self, capsys):
        assert main(["verify", "--fixture", "/nope.json"]) == EXIT_VALIDATION

    _ROW = {"id": "x", "config": "c.cfg", "tcn_params_m": 1.0, "tol_params": 0.05}

    @pytest.mark.parametrize("doc,message", [
        (None, "fixture must be an object with a 'rows' list"),
        ({"rows": [5]}, "fixture row 0 is not an object, got 5"),
        ({"rows": [{**_ROW, "id": [1]}]}, "fixture row 0 needs string 'id' and 'config'"),
        ({"rows": [{**_ROW, "config": 3}]}, "fixture row 0 needs string 'id' and 'config'"),
        ({"rows": [{**_ROW, "tcn_params_m": "many"}]},
         "fixture row 'x' tcn_params_m must be a finite number > 0, got 'many'"),
        ({"rows": [{**_ROW, "tol_params": "x"}]},
         "fixture row 'x' tol_params must be a finite number ≥ 0, got 'x'"),
        ({"rows": [_ROW], "input_shape": 5},
         "fixture input_shape must be 4 positive ints (C, T, H, W), got 5"),
    ], ids=["null", "row-not-object", "id-list", "config-int", "expectation-string",
            "tolerance-string", "shape-int"])
    def test_wrongly_typed_fixture_is_a_validation_error(self, doc, message, tmp_path, capsys):
        """A fixture value of the wrong type ends verify with exit 2 and one
        line naming the file, not a traceback."""
        fixture = tmp_path / "typed.json"
        fixture.write_text(json.dumps(doc))
        assert main(["verify", "--fixture", str(fixture)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"tempconv.FormatError: {fixture}: {message}\n"


class TestInfer:
    def test_round_trip_and_formats(self, tmp_path, capsys):
        clip = np.random.default_rng(0).standard_normal((1, 12, 8, 8)).astype(np.float32)
        p = tmp_path / "clip.lwt"
        lwt.save_tensor(p, clip)
        assert main(["infer", "--config", TOY_CFG, "--input", str(p),
                     "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["top5"]) == 5
        assert doc["prob_sum"] == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("size", ["-2", "0"])
    def test_empty_crop_refused(self, size, tmp_path, capsys):
        """A crop edge below 1 would slice an empty frame; the [train] section refuses it."""
        p = tmp_path / "clip.lwt"
        lwt.save_tensor(p, np.zeros((1, 12, 8, 8), dtype=np.float32))
        assert main(["infer", "--config", TOY_CFG, "--input", str(p),
                     "--set", f"train.crop_size={size}"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"tempconv.ConfigError: crop_size must be ≥ 1, got {size}")

    def test_crop_beyond_the_frame_refused(self, tmp_path, capsys):
        p = tmp_path / "clip.lwt"
        lwt.save_tensor(p, np.zeros((1, 12, 8, 8), dtype=np.float32))
        assert main(["infer", "--config", TOY_CFG, "--input", str(p),
                     "--set", "train.crop_size=9"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("tempconv.ShapeError: crop 9 must lie in 1..8")

    @pytest.mark.parametrize("size", [11, 12])
    def test_crop_follows_the_train_section(self, size, tmp_path, capsys):
        """The document's crop_size center-crops the clip, as evaluate does:
        toy.cfg's 8 takes the center 8x8 of a wider clip, which it took
        whole while the document could switch the crop off."""
        clip = np.random.default_rng(2).standard_normal((1, 12, size, size)).astype(np.float32)
        whole, cropped = tmp_path / "whole.lwt", tmp_path / "cropped.lwt"
        lwt.save_tensor(whole, clip)
        top = (size - 8) // 2
        lwt.save_tensor(cropped, clip[..., top:top + 8, top:top + 8])

        def infer(path):
            assert main(["infer", "--config", TOY_CFG, "--input", str(path),
                         "--format", "json"]) == EXIT_OK
            return json.loads(capsys.readouterr().out)

        assert infer(whole) == infer(cropped)

    def test_wrong_channel_count_rejected(self, tmp_path, capsys):
        """The stem owns the input-channel rule; infer reports its error."""
        p = tmp_path / "rgb.lwt"
        lwt.save_tensor(p, np.zeros((3, 12, 8, 8), dtype=np.float32))
        assert main(["infer", "--config", TOY_CFG, "--input", str(p)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            "tempconv.ShapeError: stem expects 1 input channels, got 3")

    def test_wrong_rank_rejected(self, tmp_path, capsys):
        """The model's sample-rank rule refuses a clip of another rank, before any crop."""
        p = tmp_path / "clip.lwt"
        for shape in [(3, 5), (1, 1, 12, 8, 8), (5,), ()]:
            lwt.save_tensor(p, np.zeros(shape, dtype=np.float32))
            assert main(["infer", "--config", TOY_CFG, "--input", str(p)]) == EXIT_VALIDATION
            assert capsys.readouterr().err == (
                f"tempconv.ShapeError: model expects a sample of rank 4, got rank {len(shape)}\n")

    def test_count_and_infer_report_the_same_error(self, tmp_path, capsys):
        p = tmp_path / "empty.lwt"
        lwt.save_tensor(p, np.zeros((1, 0, 8, 8), dtype=np.float32))
        for argv in (["count", "--config", TOY_CFG, "--frames", "0", "--size", "8"],
                     ["infer", "--config", TOY_CFG, "--input", str(p)]):
            assert main(argv) == EXIT_VALIDATION
            assert capsys.readouterr().err == "tempconv.ShapeError: need at least 3 frames, got 0\n"

    def test_checkpoint_config_mismatch(self, tmp_path, capsys):
        p = tmp_path / "clip.lwt"
        lwt.save_tensor(p, np.zeros((1, 12, 8, 8), dtype=np.float32))
        ck = tmp_path / "wrong.lwtc"
        lwt.save_checkpoint(ck, {"w": np.zeros(1, dtype=np.float32)},
                            meta={"config_hash": "deadbeef0000"})
        code = main(["infer", "--config", TOY_CFG, "--input", str(p),
                     "--checkpoint", str(ck)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"tempconv.FormatError: {ck}: checkpoint was trained on config deadbeef0000")


    def test_checkpoint_metadata_not_an_object(self, tmp_path, capsys):
        p = tmp_path / "clip.lwt"
        lwt.save_tensor(p, np.zeros((1, 12, 8, 8), dtype=np.float32))
        ck = tmp_path / "list_meta.lwtc"
        ck.write_bytes(b"LWTC" + struct.pack("<HI", 1, 5) + b"[1,2]" + struct.pack("<I", 0))
        code = main(["infer", "--config", TOY_CFG, "--input", str(p),
                     "--checkpoint", str(ck)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"tempconv.FormatError: {ck}: checkpoint metadata must be a JSON object, got list\n")

    def test_checkpoint_name_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "clip.lwt"
        lwt.save_tensor(p, np.zeros((1, 12, 8, 8), dtype=np.float32))
        ck = tmp_path / "bad_name.lwtc"
        lwt.save_checkpoint(ck, {"ab": np.zeros(1, dtype=np.float32)})
        ck.write_bytes(ck.read_bytes().replace(b"ab", b"\xff\xfe"))
        code = main(["infer", "--config", TOY_CFG, "--input", str(p),
                     "--checkpoint", str(ck)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"tempconv.FormatError: {ck}: record name is not UTF-8")

    def test_non_finite_input_refused(self, tmp_path, capsys):
        clip = np.zeros((1, 12, 8, 8), dtype=np.float32)
        clip[0, 3, 2, 5] = np.nan
        p = tmp_path / "nan.lwt"
        p.write_bytes(lwt_record(clip))
        assert main(["infer", "--config", TOY_CFG, "--input", str(p)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"tempconv.FormatError: {p}: payload holds non-finite values")

    def test_truncated_input_names_the_file(self, tmp_path, capsys):
        p = tmp_path / "cut.lwt"
        lwt.save_tensor(p, np.zeros((1, 12, 8, 8), dtype=np.float32))
        p.write_bytes(p.read_bytes()[:-1])
        assert main(["infer", "--config", TOY_CFG, "--input", str(p)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"tempconv.FormatError: {p}: truncated stream while reading payload")

    def test_non_finite_checkpoint_names_the_record(self, tmp_path, capsys):
        p = tmp_path / "clip.lwt"
        lwt.save_tensor(p, np.zeros((1, 12, 8, 8), dtype=np.float32))
        model = build_model(load_config_file(TOY_CFG), seed=0)
        state = model.state_dict()
        name = next(iter(state))
        ck = tmp_path / "inf.lwtc"
        lwt.save_checkpoint(ck, state, meta={"config_hash": model.config_hash})
        finite = lwt_record(state[name])
        state[name].flat[0] = np.inf
        blob = ck.read_bytes()
        assert blob.count(finite) == 1
        ck.write_bytes(blob.replace(finite, lwt_record(state[name])))
        code = main(["infer", "--config", TOY_CFG, "--input", str(p),
                     "--checkpoint", str(ck)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"tempconv.FormatError: {ck}: record '{name}': payload holds non-finite values")


class TestWhereItFailed:
    """Each error names the file, record or row it happened in, once."""

    def _infer_checkpoint(self, tmp_path, capsys, ck):
        p = tmp_path / "clip.lwt"
        lwt.save_tensor(p, np.zeros((1, 12, 8, 8), dtype=np.float32))
        assert main(["infer", "--config", TOY_CFG, "--input", str(p),
                     "--checkpoint", str(ck)]) == EXIT_VALIDATION
        return capsys.readouterr().err

    def test_truncated_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "cut.lwtc"
        lwt.save_checkpoint(ck, {"a": np.ones(3, dtype=np.float32)})
        ck.write_bytes(ck.read_bytes()[:-2])
        assert self._infer_checkpoint(tmp_path, capsys, ck) == (
            f"tempconv.FormatError: {ck}: record 'a': truncated stream while reading payload "
            "(10/12 bytes)\n")

    def test_bad_checkpoint_magic(self, tmp_path, capsys):
        ck = tmp_path / "magic.lwtc"
        lwt.save_checkpoint(ck, {"a": np.ones(3, dtype=np.float32)})
        ck.write_bytes(b"XXXX" + ck.read_bytes()[4:])
        assert self._infer_checkpoint(tmp_path, capsys, ck) == (
            f"tempconv.FormatError: {ck}: bad checkpoint magic b'XXXX', expected b'LWTC'\n")

    def test_checkpoint_of_the_older_key_layout(self, tmp_path, capsys):
        """A checkpoint saved while each norm sat beside its conv (a star
        block's ``dw_in.weight``, ``bn_in.*``, ``project.weight``, ``bn_out.*``)
        passes the config hash check and is refused by its keys."""
        star = ["model.frontend=false", "tcn.block_kind=starv", "tcn.stages=1", "tcn.channels=8"]
        model = build_model(parse_config("", star), seed=0)
        older = {"dw_in.conv.": "dw_in.", "dw_in.bn.": "bn_in.",
                 "project.conv.": "project.", "project.bn.": "bn_out."}
        state = {}
        for name, arr in model.state_dict().items():
            for now, then in older.items():
                name = name.replace(now, then)
            state[name] = arr
        ck, p = tmp_path / "older.lwtc", tmp_path / "seq.lwt"
        lwt.save_checkpoint(ck, state, meta={"config_hash": model.config_hash})
        lwt.save_tensor(p, np.zeros((8, 12), dtype=np.float32))
        argv = ["infer", "--input", str(p), "--checkpoint", str(ck)]
        for item in star:
            argv += ["--set", item]
        assert main(argv) == EXIT_VALIDATION
        missing = [f"tcn.body.0.dw_in.bn.{key}" for key in ("beta", "gamma", "running_mean",
                                                             "running_var")]
        assert capsys.readouterr().err.startswith(
            f"tempconv.FormatError: {ck}: state mismatch; missing {missing}, unexpected ")

    def test_verify_names_the_row_and_its_config(self, tmp_path, capsys):
        cfg, fixture = tmp_path / "broken.cfg", tmp_path / "fixture.json"
        cfg.write_text("[tcn]\nstages = four\n")
        fixture.write_text(json.dumps({"rows": [{"id": "broken", "config": "broken.cfg",
                                                 "tcn_params_m": 1.0, "tol_params": 0.05}]}))
        assert main(["verify", "--fixture", str(fixture)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"tempconv.ConfigError: row 'broken' ({cfg}): [tcn] stages = 'four' is not valid: ")

    def test_truncated_fixture(self, tmp_path, capsys):
        fixture = tmp_path / "cut.json"
        with open(FIXTURE, encoding="utf-8") as f:
            fixture.write_text(f.read()[:-2])
        assert main(["verify", "--fixture", str(fixture)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"tempconv.FormatError: {fixture}: fixture is not valid JSON: ")

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg, fixture = tmp_path / "latin.cfg", tmp_path / "fixture.json"
        cfg.write_bytes("[tcn]\nblock_kind = baseline # \u00e9\n".encode("latin-1"))
        fixture.write_text(json.dumps({"rows": [{"id": "latin", "config": "latin.cfg",
                                                 "tcn_params_m": 1.0, "tol_params": 0.05}]}))
        reason = "config is not UTF-8: invalid continuation byte at byte 30\n"
        assert main(["describe", "--config", str(cfg)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"tempconv.ConfigError: {cfg}: {reason}"
        assert main(["verify", "--fixture", str(fixture)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"tempconv.ConfigError: row 'latin' ({cfg}): {reason}"

    @pytest.mark.parametrize("command", ["describe", "count", "infer", "train-toy", "gen-data"])
    def test_config_value_names_the_file(self, tmp_path, capsys, command):
        """A value of [model], [train] or [toy] that does not parse names its
        file, in every command that reads a config."""
        reason = "'four' is not valid: invalid literal for int() with base 10: 'four'\n"
        extra = {"infer": ["--input", str(tmp_path / "clip.lwt")],
                 "train-toy": ["--run-dir", str(tmp_path / "run")],
                 "gen-data": ["--out", str(tmp_path / "toy.npz")]}.get(command, [])
        for section, key in (("tcn", "stages"), ("train", "epochs"), ("toy", "seq_len")):
            cfg = tmp_path / "four.cfg"
            cfg.write_text(f"[{section}]\n{key} = four\n")
            assert main([command, "--config", str(cfg), *extra]) == EXIT_VALIDATION
            assert capsys.readouterr().err == (
                f"tempconv.ConfigError: {cfg}: [{section}] {key} = {reason}")
            with pytest.raises(ConfigError, match=f"^{re.escape(str(cfg))}: "):
                load_config_file(cfg)

    def test_malformed_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "header.cfg"
        cfg.write_text("stages = 4\n")
        assert main(["describe", "--config", str(cfg)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"tempconv.ConfigError: {cfg}: malformed config document: File contains no section "
            f"headers.\nfile: '{cfg}', line: 1\n'stages = 4\\n'\n")

    def test_override_errors_name_no_file(self, tmp_path, capsys):
        """A value set by --set is not in the file; one may still replace a
        file value that does not parse."""
        cfg = tmp_path / "four.cfg"
        cfg.write_text("[tcn]\nstages = four\n")
        assert main(["describe", "--config", str(cfg), "--set", "tcn.stages=five"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == ("tempconv.ConfigError: [tcn] stages = 'five' is not "
                                           "valid: invalid literal for int() with base 10: 'five'\n")
        assert main(["describe", "--config", str(cfg), "--set", "tcn.stages=2"]) == EXIT_OK
        assert "    stages = 2\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command,section,text,reason,other", [
        *((command, "tcn", "stages = 40", "stages must be ≤ 32, got 40", "tcn.dropout=0.1")
          for command in ("describe", "count", "infer", "train-toy")),
        *((command, "tcn", "channels = 8\n[extractor]\nwidths = 8, 16",
           "[tcn] channels 8 must equal the extractor's output width, widths[-1] = 16",
           "tcn.dropout=0.1") for command in ("describe", "count")),
        *((command, "train", "epochs = 0", "epochs must be ≥ 1, got 0", "train.seed=1")
          for command in ("infer", "train-toy")),
        *((command, "toy", "seed = -1", "toy seed must be ≥ 0, got -1", "toy.noise=0.1")
          for command in ("train-toy", "gen-data")),
    ])
    def test_config_rule_names_the_file(self, tmp_path, capsys, command, section, text, reason,
                                        other):
        """A rule over a section's values, broken by the file alone, names
        the file in every command that reads the section; a --set value in
        that section leaves it unnamed, one in another section does not."""
        extra = {"infer": ["--input", str(tmp_path / "clip.lwt")],
                 "train-toy": ["--run-dir", str(tmp_path / "run")],
                 "gen-data": ["--out", str(tmp_path / "toy.npz")]}.get(command, [])
        cfg = tmp_path / "rules.cfg"
        cfg.write_text(f"[{section}]\n{text}\n")
        for overrides, where in (([], f"{cfg}: "), (["--set", other], ""),
                                 (["--set", "classifier.num_classes=10"], f"{cfg}: ")):
            assert main([command, "--config", str(cfg), *overrides, *extra]) == EXIT_VALIDATION
            assert capsys.readouterr().err == f"tempconv.ConfigError: {where}{reason}\n"

    def test_model_rule_names_the_file(self, tmp_path, capsys):
        """A [model] rule spans sections: a --set value in any of them leaves
        the file unnamed."""
        cfg = tmp_path / "model.cfg"
        cfg.write_text("[model]\nfrontend = false\n[stem]\nout_channels = 8\n")
        reason = "stem/extractor sections present but model.frontend is false"
        assert main(["describe", "--config", str(cfg)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"tempconv.ConfigError: {cfg}: {reason}\n"
        assert main(["describe", "--config", str(cfg), "--set", "stem.out_channels=4"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"tempconv.ConfigError: {reason}\n"
        cfg.write_text("[stem]\nout_channels = 3\n[extractor]\nexpansion = 1.5\n")
        reason = "expansion 1.5 does not give a whole width at 3 channels"
        assert main(["describe", "--config", str(cfg)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"tempconv.ConfigError: {cfg}: {reason}\n"
        assert main(["describe", "--config", str(cfg), "--set", "tcn.stages=2"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"tempconv.ConfigError: {reason}\n"

    def test_verify_names_a_malformed_row_config_once(self, tmp_path, capsys):
        cfg, fixture = tmp_path / "hdr.cfg", tmp_path / "fixture.json"
        cfg.write_text("stages = 4\n")
        fixture.write_text(json.dumps({"rows": [{"id": "hdr", "config": "hdr.cfg",
                                                 "tcn_params_m": 1.0, "tol_params": 0.05}]}))
        assert main(["verify", "--fixture", str(fixture)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"tempconv.ConfigError: row 'hdr' ({cfg}): malformed config document: File contains "
            f"no section headers.\nfile: '{cfg}', line: 1\n'stages = 4\\n'\n")

    def test_fixture_row_without_expectations(self, tmp_path, capsys):
        """A format rule of the fixture: refused by name before any model is built."""
        fixture = tmp_path / "bare.json"
        fixture.write_text(json.dumps({"rows": [{"id": "bare", "config": "missing.cfg"}]}))
        assert main(["verify", "--fixture", str(fixture)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"tempconv.FormatError: {fixture}: fixture row 'bare' has no expectations\n")


class TestGradcheckCommand:
    def test_single_kind(self, capsys):
        assert main(["gradcheck", "--kind", "head"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_unknown_kind(self, capsys):
        assert main(["gradcheck", "--kind", "nope"]) == EXIT_VALIDATION

    def test_retired_kind_names_refused(self, capsys):
        """Neither a config override nor --kind accepts a name that builds no block."""
        for name in RETIRED_KIND_NAMES:
            for argv in (["describe", "--config", STARV_CFG, "--set", f"tcn.block_kind={name}"],
                         ["gradcheck", "--kind", name]):
                assert main(argv) == EXIT_VALIDATION
                assert capsys.readouterr().err.startswith(
                    f"tempconv.ConfigError: unknown block kind '{name}'; choose from baseline,")


class TestScheduleCommand:
    def test_endpoint_values(self, capsys):
        """The one base rate's schedule: 0.02 annealed to half at mid-run, 0 at the end."""
        assert main(["schedule", "--epochs", "4", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["base_lr"] == 0.02 and doc["total_epochs"] == 4
        assert doc["rates"][0] == pytest.approx(0.02)
        assert doc["rates"][2] == pytest.approx(0.01)
        assert doc["rates"][-1] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_bad_epochs(self, epochs, capsys):
        assert main(["schedule", "--epochs", epochs]) == EXIT_VALIDATION
        assert f"total_epochs must be ≥ 1, got {epochs}" in capsys.readouterr().err


class TestSeedResolution:
    def test_environment_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("TEMPCONV_SEED", "not-an-int")
        # --seed is the only seed source, so the environment value is never parsed
        assert main(["gradcheck", "--kind", "head"]) == EXIT_OK

    def test_seed_flag_is_stable(self, tmp_path, capsys):
        clip = tmp_path / "clip.lwt"
        lwt.save_tensor(clip, np.random.default_rng(1).standard_normal(
            (1, 12, 8, 8)).astype(np.float32))

        def top5(seed):
            assert main(["infer", "--config", TOY_CFG, "--input", str(clip),
                         "--seed", seed, "--format", "json"]) == EXIT_OK
            return json.loads(capsys.readouterr().out)["top5"]

        assert top5("12345") == top5("12345")


class TestRemovedRecipeToggles:
    """[train] holds only epochs, crop_size and seed: the rest of the
    recipe is constant, so its settings are no keys, even at the values
    they always had."""

    KEYS = [("flip", "false"), ("variable_length", "false"), ("decoupled_decay", "false"),
            ("base_lr", "0.02"), ("weight_decay", "0.01"), ("batch_size", "32"),
            ("mixup_alpha", "0.4"), ("crop", "false"), ("crop", "true")]

    def test_train_keys_are_the_run_settings(self):
        assert list(_KNOWN_KEYS["train"]) == ["epochs", "crop_size", "seed"]

    @pytest.mark.parametrize("key,value", KEYS, ids=[k for k, _ in KEYS])
    def test_set_is_refused_as_unknown(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "retired.cfg"
        cfg.write_text(f"[train]\n{key} = {value}\n")
        reason = f"unknown key(s) in [train]: {key}"
        for command, extra in (("describe", []), ("count", []),
                               ("infer", ["--input", str(tmp_path / "clip.lwt")]),
                               ("train-toy", ["--run-dir", str(tmp_path / "run")]),
                               ("gen-data", ["--out", str(tmp_path / "toy.npz")])):
            for argv, where in ((["--config", str(cfg)], f"{cfg}: "),
                                (["--config", TOY_CFG, "--set", f"train.{key}={value}"], "")):
                assert main([command, *argv, *extra]) == EXIT_VALIDATION
                assert capsys.readouterr().err == f"tempconv.ConfigError: {where}{reason}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["retired.cfg"]


class TestRetiredModelKey:
    @pytest.mark.parametrize("command", ["describe", "count"])
    def test_set_experimental_is_refused_as_unknown(self, command, capsys):
        """[model] has no experimental key: every kind builds without a gate."""
        code = main([command, "--config", STARV_CFG, "--set", "model.experimental=true"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "tempconv.ConfigError: unknown key(s) in [model]: experimental\n")


class TestRetiredStructureKeys:
    """Each block kind and the frontend have one structure: its kernels,
    expansion, extractor depth and input channels are no keys, even at the
    values they always had."""

    KEYS = [("tcn", "kernel", "3"), ("tcn", "dw_kernel", "7"), ("tcn", "expansion", "4"),
            ("extractor", "blocks_per_stage", "1"), ("model", "in_channels", "1")]

    @pytest.mark.parametrize("section,key,value", KEYS, ids=[k for _, k, _ in KEYS])
    @pytest.mark.parametrize("command", ["describe", "count", "train-toy"])
    def test_refused_as_unknown(self, command, section, key, value, tmp_path, capsys):
        run = tmp_path / "run"
        extra = ["--run-dir", str(run)] if command == "train-toy" else []
        cfg = tmp_path / "retired.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        reason = f"unknown key(s) in [{section}]: {key}"
        for argv, where in ((["--config", str(cfg)], f"{cfg}: "),
                            (["--config", TOY_CFG, "--set", f"{section}.{key}={value}"], "")):
            assert main([command, *argv, *extra]) == EXIT_VALIDATION
            assert capsys.readouterr().err == f"tempconv.ConfigError: {where}{reason}\n"
        assert not run.exists()


class TestTrainToy:
    def test_tiny_run_writes_artifacts(self, tmp_path, capsys):
        run = tmp_path / "run"
        code = main(["train-toy", "--config", TOY_CFG, *TINY,
                     "--run-dir", str(run)])
        assert code == EXIT_OK
        hist = [json.loads(line)
                for line in (run / "history.jsonl").read_text().splitlines()]
        assert [h["epoch"] for h in hist] == [0, 1]
        state, meta = lwt.load_checkpoint(run / "best.lwtc")
        assert meta["best_epoch"] in (0, 1)
        assert 0.0 <= meta["best_val_acc"] <= 1.0
        assert any(k.startswith("tcn.") for k in state)
        out = capsys.readouterr().out
        assert "best epoch" in out

    @pytest.mark.parametrize("overrides,error", [
        (["--set", "toy.num_classes=5"], "ConfigError: model has 4 classes, dataset has 5"),
        (["--set", "train.crop_size=9"], "ShapeError: crop 9 must lie in 1..8"),
    ], ids=["class-count", "crop-size"])
    def test_refused_run_leaves_the_run_dir_as_it_was(self, overrides, error, tmp_path, capsys):
        """--run-dir is made up front, but no file in it is made or truncated
        before the first epoch record."""
        old, fresh = tmp_path / "old", tmp_path / "fresh"
        old.mkdir()
        (old / "history.jsonl").write_text('{"epoch": 0}\n')
        for run in (old, fresh):
            argv = ["train-toy", "--config", TOY_CFG, *TINY, *overrides, "--run-dir", str(run)]
            assert main(argv) == EXIT_VALIDATION
            assert error in capsys.readouterr().err
        assert (old / "history.jsonl").read_text() == '{"epoch": 0}\n'
        assert [p.name for p in old.iterdir()] == ["history.jsonl"]
        assert list(fresh.iterdir()) == []

    @pytest.mark.parametrize("noise", ["1e38", "1e308"])
    @pytest.mark.parametrize("command", ["gen-data", "train-toy"])
    def test_overflowing_noise_refused(self, command, noise, tmp_path, capsys):
        """A noise level whose float32 draws can overflow is refused before
        any sample is drawn: gen-data wrote non-finite data with exit 0."""
        out = ["--out", str(tmp_path / "toy.npz")] if command == "gen-data" else \
            ["--run-dir", str(tmp_path / "run")]
        assert main([command, "--config", TOY_CFG, "--set", f"toy.noise={noise}", *out]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"tempconv.ConfigError: toy noise must lie in 0..1e+36, got {float(noise):g}\n")
        assert list(tmp_path.iterdir()) == []

    def test_epochs_over_the_bound_refused_at_parse(self, tmp_path, capsys):
        """``[train] epochs`` over the schedule's bound is refused when the
        document is parsed: the run used to build the model and make
        --run-dir first. ``schedule --epochs`` keeps the schedule's refusal."""
        assert main(["train-toy", "--config", TOY_CFG, "--set", "train.epochs=100001",
                     "--run-dir", str(tmp_path / "run")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "tempconv.ConfigError: epochs must be ≤ 100,000, got 100001\n")
        assert list(tmp_path.iterdir()) == []
        assert main(["schedule", "--epochs", "100001"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "tempconv.ConfigError: total_epochs must be ≤ 100,000, got 100001\n")

    def test_overflowing_batch_variance_stops_the_first_step(self, tmp_path, capsys):
        """Noise of 1e30 overflows the float32 batch variance of the first
        training norm: the run stops there with exit 3 and writes no history
        record or checkpoint."""
        run = tmp_path / "run"
        argv = ["train-toy", "--config", TOY_CFG, "--set", "train.epochs=2",
                "--set", "toy.noise=1e30", "--run-dir", str(run)]
        assert main(argv) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "tempconv.NumericError: epoch 0, step 0: batch_norm batch variance is not finite\n")
        assert list(run.iterdir()) == []

    def test_run_dir_that_is_a_file_fails_before_training(self, tmp_path, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the run directory was made")

        monkeypatch.setattr("tempconv.cli.train_loop", no_training)
        (tmp_path / "file").write_bytes(b"")
        argv = ["train-toy", "--config", TOY_CFG, *TINY, "--run-dir", str(tmp_path / "file")]
        assert main(argv) == EXIT_VALIDATION
        assert os.strerror(errno.EEXIST) in capsys.readouterr().err

    def test_gen_data_writes_npz(self, tmp_path, capsys):
        dest = tmp_path / "toy.npz"
        code = main(["gen-data", "--config", TOY_CFG, *TINY, "--out", str(dest)])
        assert code == EXIT_OK
        with np.load(dest) as z:
            assert z["train_x"].shape == (16, 1, 8, 8, 8)
            assert z["val_y"].shape == (8,)

    def test_gen_data_writes_the_path_it_reports(self, tmp_path, capsys):
        """No ".npz" suffix is appended to a path that lacks one."""
        dest = tmp_path / "toy"
        assert main(["gen-data", "--config", TOY_CFG, *TINY, "--out", str(dest)]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"wrote {dest}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy"]
        with np.load(dest) as z:
            assert z["test_y"].shape == (8,)
