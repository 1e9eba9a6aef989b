"""Causal dilated temporal convolution networks with a lightweight block
zoo, analytic complexity auditing, and a desk-scale training harness, on
a minimal numpy tensor engine with reverse-mode gradients."""

from .errors import (TempconvError, ShapeError, NumericError, TapeError,
                     ConfigError, FormatError)
from .tensor import Tensor, GradTape
from .ops import ConvSpec
from .gradcheck import grad_check, GradCheckResult, block_suite
from .layers import (Module, Conv, Conv1d, Conv2d, Conv3d, BatchNorm, ConvNorm,
                     Dropout, Linear, Sequential)
from .blocks import BLOCK_KINDS, DEFAULT_EXPANSION, make_block, canonical_kind
from .frontend import (StemSpec, Stem, ExtractorSpec, ReferenceExtractor,
                       ClassifierHead)
from .config import (ModelConfig, TCNConfig, ClassifierConfig, TrainConfig,
                     ToyDatasetSpec, parse_config, parse_train_config,
                     parse_toy_spec, load_config_file, config_hash,
                     config_to_dict)
from .model import (Model, TCN, build_model, receptive_field, describe,
                    BUILD_VERSION, PARAM_BUDGET_CAP)
from .complexity import (ComplexityReport, ComplexityRow, audit, verify_fixture,
                         verify_report, emit_report, emit_verify, load_fixture)
from .train import (cosine_lr, lr_schedule, sgd_step, one_hot, train_loop,
                    evaluate, TrainResult)
from .augment import (augment, mixup, random_crop, center_crop,
                      horizontal_flip, variable_length)
from .toydata import ToyDataset
from . import lwt

__version__ = "0.1.0"

__all__ = [
    "TempconvError", "ShapeError", "NumericError", "TapeError", "ConfigError",
    "FormatError", "Tensor", "GradTape", "ConvSpec", "grad_check",
    "GradCheckResult", "block_suite", "Module", "Conv", "Conv1d", "Conv2d",
    "Conv3d", "BatchNorm", "ConvNorm", "Dropout", "Linear",
    "Sequential", "BLOCK_KINDS", "DEFAULT_EXPANSION",
    "make_block", "canonical_kind", "StemSpec", "Stem",
    "ExtractorSpec", "ReferenceExtractor", "ClassifierHead", "ModelConfig",
    "TCNConfig", "ClassifierConfig", "TrainConfig", "ToyDatasetSpec",
    "parse_config", "parse_train_config", "parse_toy_spec", "load_config_file",
    "config_hash", "config_to_dict", "Model", "TCN", "build_model",
    "receptive_field", "describe", "BUILD_VERSION",
    "PARAM_BUDGET_CAP", "ComplexityReport", "ComplexityRow", "audit",
    "verify_fixture", "verify_report",
    "emit_report", "emit_verify", "load_fixture", "cosine_lr", "lr_schedule",
    "sgd_step", "one_hot", "train_loop", "evaluate", "TrainResult", "augment",
    "mixup", "random_crop", "center_crop", "horizontal_flip",
    "variable_length", "ToyDataset", "lwt",
]
