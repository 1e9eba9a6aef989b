"""Config parsing: INI-style documents with dotted-path overrides.

Sections: [model] (frontend on/off),
[stem], [extractor], [tcn], [classifier], [train], [toy]. Every key has a
default; an empty document parses to the stock 4-stage, 512-channel
network with a 500-class head. ``--set tcn.stages=6`` style
overrides patch the document before validation, last one wins.

Every section is its frozen dataclass: a field is a key, with its name,
its default and, by the default's type, its parser; the writer emits the
same fields. Fields that hold another section are not keys.
``__post_init__`` holds the section's rules, so ``replace()`` and direct
construction are checked like parsing; [model]'s rules span its sections.
[model]'s one key, ``frontend``, is read by hand: it decides whether [stem]
and [extractor] exist, and the writer derives it from the extractor.
Numbers must be finite, ``%`` is literal, and [DEFAULT] is an unknown
section like any other.
"""
from __future__ import annotations

import configparser
import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .blocks import block_width, canonical_kind, expanded_width
from .errors import ConfigError, located
from .frontend import ExtractorSpec, StemSpec
from .layers import MAX_STAGES, PARAM_BUDGET_CAP


@dataclass(frozen=True)
class TCNConfig:
    block_kind: str = "baseline"
    stages: int = 4
    channels: int = 512  # every stage's width
    dropout: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "block_kind", canonical_kind(self.block_kind))
        if self.stages < 1:
            raise ConfigError("stages must be ≥ 1")
        if self.stages > MAX_STAGES:
            raise ConfigError(f"stages must be ≤ {MAX_STAGES}, got {self.stages}")
        if self.channels < 1:
            raise ConfigError("channels must be ≥ 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        block_width(self.block_kind, self.channels)  # the builder's width rule, at parse time


@dataclass(frozen=True)
class ClassifierConfig:
    num_classes: int = 500

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be ≥ 2, got {self.num_classes}")


@dataclass(frozen=True)
class ModelConfig:
    stem: StemSpec = None           # None in TCN-only mode
    extractor: ExtractorSpec = None  # None in TCN-only mode
    in_channels: ClassVar[int] = StemSpec.in_channels  # a clip's channels, with a frontend
    tcn: TCNConfig = field(default_factory=TCNConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self):
        if (self.stem is None) != (self.extractor is None):
            raise ConfigError("stem and extractor must both be set (frontend) or both be None (TCN only)")
        if self.extractor is not None:
            for cin, _ in self.extractor.bottlenecks(self.stem.out_channels):
                expanded_width(cin, self.extractor.expansion)
            if self.tcn.channels != self.extractor.out_dim:
                raise ConfigError(f"[tcn] channels {self.tcn.channels} must equal the extractor's "
                                  f"output width, widths[-1] = {self.extractor.out_dim}")


# lr_schedule holds one rate per epoch and `tempconv schedule` prints a line
# for each, so an unbounded count runs until the host kills it: 10^6 epochs
# took 248 MiB and 1.2 s, 10^8 ran out of memory, and 10^26 still ran after
# 60 s. At this bound `schedule` peaks at 55 MiB, against 34 MiB at the
# recipe's 80 epochs.
MAX_EPOCHS = 100_000


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 80
    crop_size: int = 88  # the edge of the square crop of every frame, in training and evaluation
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be ≥ 1, got {self.epochs}")
        if self.epochs > MAX_EPOCHS:
            raise ConfigError(f"epochs must be ≤ {MAX_EPOCHS:,}, got {self.epochs}")
        if self.crop_size < 1:
            raise ConfigError(f"crop_size must be ≥ 1, got {self.crop_size}")
        if self.seed < 0:
            raise ConfigError(f"train seed must be ≥ 0, got {self.seed}")


# Each toy sample adds float32 draws of N(0, noise²): at noise 1e38 some of
# them overflowed to inf, and gen-data wrote the dataset all the same. At
# this bound a draw would have to pass 340 σ to overflow.
MAX_TOY_NOISE = 1e36


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

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("toy num_classes must be ≥ 2")
        if self.frame_size < 1:
            raise ConfigError("toy frame_size must be ≥ 1")
        if self.num_classes > self.frame_size * self.frame_size:
            raise ConfigError(
                f"{self.num_classes} classes exceed the motif capacity of "
                f"{self.frame_size}x{self.frame_size} frames"
            )
        if self.seq_len < 3:
            raise ConfigError("toy seq_len must be ≥ 3")
        if not 0 <= self.noise <= MAX_TOY_NOISE:
            raise ConfigError(f"toy noise must lie in 0..{MAX_TOY_NOISE:g}, got {self.noise:g}")
        if min(self.train_size, self.val_size, self.test_size) < 1:
            raise ConfigError("every toy split needs at least one sample")
        if self.seed < 0:
            raise ConfigError(f"toy seed must be ≥ 0, got {self.seed}")
        # gen-data holds the motifs and every (1, T, S, S) sample of the three
        # splits at once: refuse a dataset past the budget before numpy is asked
        samples = self.train_size + self.val_size + self.test_size
        entries = (self.num_classes + samples * self.seq_len) * self.frame_size ** 2
        if entries > PARAM_BUDGET_CAP:
            raise ConfigError(f"toy dataset holds {entries:,} entries, over the "
                              f"{PARAM_BUDGET_CAP:,} budget cap")


_SECTIONS = {"stem": StemSpec, "extractor": ExtractorSpec, "tcn": TCNConfig,
             "classifier": ClassifierConfig, "train": TrainConfig, "toy": ToyDatasetSpec}


def _bool(raw):
    val = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
    if val is None:
        raise ValueError(f"expected a boolean, got '{raw}'")
    return val


def _float(raw):
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"expected a finite number, got {val}")
    return val


def _int_list(raw):
    """Comma-separated ints; an empty value is the empty list, which the section's rule refuses."""
    parts = str(raw).split(",") if str(raw).strip() else []
    if not all(part.strip() for part in parts):
        raise ValueError("a list entry is empty")
    return tuple(map(int, parts))


_CASTS = {bool: _bool, int: int, float: _float, str: str, tuple: _int_list}


# every key of every section, with the parser its field's default implies
_KNOWN_KEYS = {name: {f.name: _CASTS[type(f.default)] for f in fields(cls) if f.name not in _SECTIONS}
               for name, cls in {"model": ModelConfig, **_SECTIONS}.items()}
_KNOWN_KEYS["model"]["frontend"] = _bool


def _parsed(section, items):
    """A section's ``(key, raw)`` items as field values; an unknown name is refused first."""
    if section not in _KNOWN_KEYS:
        raise ConfigError(f"unknown config section [{section}]")
    unknown = {key for key, _ in items} - set(_KNOWN_KEYS[section])
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
    values = {}
    for key, raw in items:
        try:
            values[key] = _KNOWN_KEYS[section][key](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{section}] {key} = '{raw}' is not valid: {exc}") from exc
    return values


def _load_sections(text, overrides=(), source=None):
    """Each section's values, parsed as read, an override's in place of the
    document's, and ``rules(*sections)``: where a rule over those sections'
    values failed. Errors in ``text`` name ``source``, its file, if given;
    so does a broken rule, unless an override touched one of its sections."""
    # a default_section no header can spell: [DEFAULT] is then an ordinary,
    # unknown section instead of silently feeding every other section
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True,
                                   interpolation=None, default_section="\n")
    patches = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form section.key=value")
        path, value = item.split("=", 1)
        if "." not in path:
            raise ConfigError(f"override path '{path}' needs a section, like tcn.stages")
        section, key = path.strip().rsplit(".", 1)
        patches.setdefault(section, {})[cp.optionxform(key)] = value.strip()
    with located(source) if source else contextlib.nullcontext():
        try:
            cp.read_string(text, str(source or "<string>"))
        except configparser.Error as exc:
            raise ConfigError(f"malformed config document: {exc}") from exc
        sections = {section: _parsed(section, [(key, raw) for key, raw in cp.items(section)
                                               if key not in patches.get(section, {})])
                    for section in cp.sections()}
    for section, raws in patches.items():  # not in the file, so not located in it
        sections.setdefault(section, {}).update(_parsed(section, list(raws.items())))

    def rules(*names):
        in_file = source and not patches.keys() & set(names)
        return located(source) if in_file else contextlib.nullcontext()

    return sections, rules


def _write(section, spec):
    """A section's keys and values as a document holds them; tuples become lists."""
    values = {f.name: getattr(spec, f.name) for f in fields(spec) if f.name in _KNOWN_KEYS[section]}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def parse_config(text, overrides=(), source=None):
    """Parse and validate a model config; defaults fill every gap."""
    sections, rules = _load_sections(text, overrides, source)
    stem = extractor = None
    if sections.get("model", {}).get("frontend", True):
        with rules("stem"):
            stem = StemSpec(**sections.get("stem", {}))
        with rules("extractor"):
            extractor = ExtractorSpec(**sections.get("extractor", {}))
    elif sections.get("stem") or sections.get("extractor"):
        with rules("model", "stem", "extractor"):
            raise ConfigError("stem/extractor sections present but model.frontend is false")
    with rules("tcn"):
        tcn = TCNConfig(**sections.get("tcn", {}))
    with rules("classifier"):
        classifier = ClassifierConfig(**sections.get("classifier", {}))
    with rules("model", "stem", "extractor", "tcn"):
        return ModelConfig(stem=stem, extractor=extractor, tcn=tcn, classifier=classifier)


def parse_train_config(text, overrides=(), source=None):
    sections, rules = _load_sections(text, overrides, source)
    with rules("train"):
        return TrainConfig(**sections.get("train", {}))


def parse_toy_spec(text, overrides=(), source=None):
    sections, rules = _load_sections(text, overrides, source)
    with rules("toy"):
        return ToyDatasetSpec(**sections.get("toy", {}))


def read_config_text(path):
    """The text of a config document; non-UTF-8 bytes raise a ConfigError the caller locates."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc.reason} at byte {exc.start}") from None


def load_config_file(path, overrides=()):
    with located(path):
        text = read_config_text(path)
    return parse_config(text, overrides, path)


def config_to_dict(config):
    """Canonical nested dict; basis for hashing and describe output."""
    out = {"model": {"frontend": config.extractor is not None}}
    for section in ("tcn", "classifier", "stem", "extractor"):
        spec = getattr(config, section)
        if spec is not None:
            out[section] = _write(section, spec)
    return out


def config_hash(config):
    blob = json.dumps(config_to_dict(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]
