"""Config parsing: INI-style documents with dotted-path overrides.

Sections: [model] (frontend on/off, input channels, experimental flag),
[stem], [extractor], [tcn], [classifier], [train], [toy]. Every key has a
default; an empty document parses to the stock 4-stage, 512-channel,
kernel-3 network with a 500-class head. ``--set tcn.stages=6`` style
overrides patch the document before validation, last one wins.
"""
from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field

from .blocks import DEFAULT_EXPANSION, STAR_DW_KERNEL, canonical_kind, expanded_width
from .errors import ConfigError
from .frontend import ExtractorSpec, StemSpec

_KNOWN_KEYS = {
    "model": {"frontend", "in_channels", "experimental"},
    "stem": {"out_channels"},
    "extractor": {"widths", "blocks_per_stage", "expansion"},
    "tcn": {"block_kind", "stages", "channels", "kernel", "dropout", "expansion", "dw_kernel"},
    "classifier": {"num_classes"},
    "train": {"epochs", "base_lr", "weight_decay", "batch_size", "mixup_alpha",
              "crop", "flip", "variable_length", "crop_size", "decoupled_decay", "seed"},
    "toy": {"num_classes", "seq_len", "frame_size", "noise", "train_size",
            "val_size", "test_size", "seed"},
}


@dataclass(frozen=True)
class TCNConfig:
    block_kind: str = "baseline"
    stages: int = 4
    channels: tuple = (512, 512, 512, 512)
    kernel: int = 3
    dropout: float = 0.2
    expansion: float = None  # None -> the kind's default
    dw_kernel: int = STAR_DW_KERNEL


@dataclass(frozen=True)
class ClassifierConfig:
    num_classes: int = 500


@dataclass(frozen=True)
class ModelConfig:
    stem: StemSpec = None           # None in TCN-only mode
    extractor: ExtractorSpec = None  # None in TCN-only mode
    in_channels: int = 1
    experimental: bool = False
    tcn: TCNConfig = field(default_factory=TCNConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    @property
    def tcn_only(self):
        return self.extractor is None


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 80
    base_lr: float = 0.02
    weight_decay: float = 0.01
    batch_size: int = 32
    mixup_alpha: float = 0.4
    crop: bool = True
    flip: bool = True
    variable_length: bool = True
    crop_size: int = 88
    decoupled_decay: bool = False
    seed: int = 0


@dataclass(frozen=True)
class ToyDatasetSpec:
    num_classes: int = 10
    seq_len: int = 12
    frame_size: int = 8
    noise: float = 0.05
    train_size: int = 200
    val_size: int = 50
    test_size: int = 50
    seed: int = 0


def _parser():
    return configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True)


def _load_sections(text, overrides=()):
    cp = _parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form section.key=value")
        path, value = item.split("=", 1)
        if "." not in path:
            raise ConfigError(f"override path '{path}' needs a section, like tcn.stages")
        section, key = path.strip().rsplit(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value.strip())
    sections = {}
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        body = dict(cp.items(section))
        unknown = set(body) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
        sections[section] = body
    return sections


def _get(sections, section, key, default, cast):
    raw = sections.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key} = '{raw}' is not valid: {exc}") from exc


def _bool(raw):
    val = str(raw).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got '{raw}'")


def _int_list(raw):
    return tuple(int(part.strip()) for part in str(raw).split(",") if part.strip())


def _optional_float(raw):
    val = str(raw).strip().lower()
    return None if val in ("", "none", "default") else float(val)


def parse_config(text, overrides=()):
    """Parse and validate a model config; defaults fill every gap."""
    sections = _load_sections(text, overrides)

    frontend = _get(sections, "model", "frontend", True, _bool)
    in_channels = _get(sections, "model", "in_channels", 1, int)
    experimental = _get(sections, "model", "experimental", False, _bool)

    kind = canonical_kind(_get(sections, "tcn", "block_kind", "baseline", str))
    stages = _get(sections, "tcn", "stages", 4, int)
    if stages < 1:
        raise ConfigError("stages must be ≥ 1")
    channels = _get(sections, "tcn", "channels", (512,), _int_list)
    if len(channels) == 1:
        channels = channels * stages
    if len(channels) != stages:
        raise ConfigError(f"channels list has {len(channels)} entries for {stages} stages")
    if any(c < 1 for c in channels):
        raise ConfigError("channels must be ≥ 1")
    kernel = _get(sections, "tcn", "kernel", 3, int)
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigError(f"kernel must be odd and positive, got {kernel}")
    dropout = _get(sections, "tcn", "dropout", 0.2, float)
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"dropout must lie in [0, 1), got {dropout}")
    expansion = _get(sections, "tcn", "expansion", None, _optional_float)
    if expansion is not None and expansion <= 0:
        raise ConfigError(f"expansion must be positive, got {expansion}")
    dw_kernel = _get(sections, "tcn", "dw_kernel", STAR_DW_KERNEL, int)
    if dw_kernel < 1 or dw_kernel % 2 == 0:
        raise ConfigError(f"dw_kernel must be odd and positive, got {dw_kernel}")
    # surface non-integral expanded widths at parse time, per stage width
    eff_e = DEFAULT_EXPANSION.get(kind) if expansion is None else expansion
    if eff_e is not None:
        for c in channels:
            expanded_width(c, eff_e)

    num_classes = _get(sections, "classifier", "num_classes", 500, int)
    if num_classes < 2:
        raise ConfigError(f"num_classes must be ≥ 2, got {num_classes}")

    stem = extractor = None
    if frontend:
        if in_channels not in (1, 3):
            raise ConfigError(f"in_channels must be 1 or 3, got {in_channels}")
        stem_out = _get(sections, "stem", "out_channels", 32, int)
        if stem_out < 1:
            raise ConfigError("stem out_channels must be ≥ 1")
        stem = StemSpec(out_channels=stem_out)
        widths = _get(sections, "extractor", "widths", (64, 128, 256, 512), _int_list)
        if not widths or any(w < 1 for w in widths):
            raise ConfigError("extractor widths must be a nonempty list of positive ints")
        blocks_per_stage = _get(sections, "extractor", "blocks_per_stage", 1, int)
        if blocks_per_stage < 1:
            raise ConfigError("extractor blocks_per_stage must be ≥ 1")
        ext_expansion = _get(sections, "extractor", "expansion", 4.0, float)
        if ext_expansion <= 0:
            raise ConfigError("extractor expansion must be positive")
        extractor = ExtractorSpec(in_channels=stem_out, stage_widths=widths,
                                  blocks_per_stage=blocks_per_stage, expansion=ext_expansion)
    elif sections.get("stem") or sections.get("extractor"):
        raise ConfigError("stem/extractor sections present but model.frontend is false")

    return ModelConfig(
        stem=stem, extractor=extractor, in_channels=in_channels,
        experimental=experimental,
        tcn=TCNConfig(block_kind=kind, stages=stages, channels=channels,
                      kernel=kernel, dropout=dropout, expansion=expansion,
                      dw_kernel=dw_kernel),
        classifier=ClassifierConfig(num_classes=num_classes),
    )


def parse_train_config(text, overrides=()):
    sections = _load_sections(text, overrides)
    cfg = TrainConfig(
        epochs=_get(sections, "train", "epochs", 80, int),
        base_lr=_get(sections, "train", "base_lr", 0.02, float),
        weight_decay=_get(sections, "train", "weight_decay", 0.01, float),
        batch_size=_get(sections, "train", "batch_size", 32, int),
        mixup_alpha=_get(sections, "train", "mixup_alpha", 0.4, float),
        crop=_get(sections, "train", "crop", True, _bool),
        flip=_get(sections, "train", "flip", True, _bool),
        variable_length=_get(sections, "train", "variable_length", True, _bool),
        crop_size=_get(sections, "train", "crop_size", 88, int),
        decoupled_decay=_get(sections, "train", "decoupled_decay", False, _bool),
        seed=_get(sections, "train", "seed", 0, int),
    )
    if cfg.epochs < 1:
        raise ConfigError(f"epochs must be ≥ 1, got {cfg.epochs}")
    if cfg.base_lr < 0 or cfg.weight_decay < 0 or cfg.mixup_alpha < 0:
        raise ConfigError("rates must be nonnegative")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be ≥ 1")
    return cfg


def parse_toy_spec(text, overrides=()):
    sections = _load_sections(text, overrides)
    spec = ToyDatasetSpec(
        num_classes=_get(sections, "toy", "num_classes", 10, int),
        seq_len=_get(sections, "toy", "seq_len", 12, int),
        frame_size=_get(sections, "toy", "frame_size", 8, int),
        noise=_get(sections, "toy", "noise", 0.05, float),
        train_size=_get(sections, "toy", "train_size", 200, int),
        val_size=_get(sections, "toy", "val_size", 50, int),
        test_size=_get(sections, "toy", "test_size", 50, int),
        seed=_get(sections, "toy", "seed", 0, int),
    )
    if spec.num_classes < 2:
        raise ConfigError("toy num_classes must be ≥ 2")
    if spec.num_classes > spec.frame_size * spec.frame_size:
        raise ConfigError(
            f"{spec.num_classes} classes exceed the motif capacity of "
            f"{spec.frame_size}x{spec.frame_size} frames"
        )
    if spec.seq_len < 3:
        raise ConfigError("toy seq_len must be ≥ 3")
    if spec.noise < 0:
        raise ConfigError("toy noise must be nonnegative")
    if min(spec.train_size, spec.val_size, spec.test_size) < 1:
        raise ConfigError("every toy split needs at least one sample")
    return spec


def load_config_file(path, overrides=()):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return parse_config(text, overrides)


def config_to_dict(config):
    """Canonical nested dict; basis for hashing and describe output."""
    out = {
        "model": {
            "frontend": config.extractor is not None,
            "in_channels": config.in_channels,
            "experimental": config.experimental,
        },
        "tcn": {
            "block_kind": config.tcn.block_kind,
            "stages": config.tcn.stages,
            "channels": list(config.tcn.channels),
            "kernel": config.tcn.kernel,
            "dropout": config.tcn.dropout,
            "expansion": config.tcn.expansion,
            "dw_kernel": config.tcn.dw_kernel,
        },
        "classifier": {"num_classes": config.classifier.num_classes},
    }
    if config.extractor is not None:
        out["stem"] = {"out_channels": config.stem.out_channels}
        out["extractor"] = {
            "widths": list(config.extractor.stage_widths),
            "blocks_per_stage": config.extractor.blocks_per_stage,
            "expansion": config.extractor.expansion,
        }
    return out


def config_hash(config):
    blob = json.dumps(config_to_dict(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]
