"""Visual frontend: 3-D stem, per-frame feature extractor, classifier head.

The stem mixes a short temporal window (kernel 3, stride 1) while halving
both spatial axes; no pooling follows it. It is one ``layers.ConvNorm``,
and each extractor bottleneck three (expand, dw3×3, project). The
extractor then processes each frame independently (it never mixes time):
frames are folded into the batch axis, run through 2-D stages, spatially
pooled, and unfolded back to an (N, D, T) feature sequence. Any module with
the same mapping and an ``out_dim`` attribute can replace the reference
extractor.

No bottleneck mixes frames, so in eval with no tape each runs on tiles of
whole frames (``layers.eval_tiles``) with no halo: its expanded tensor
(27 MiB in the first bottleneck of a 1×29×88×88 clip) never exists whole.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from . import ops
from .blocks import expanded_width
from .errors import ConfigError, ShapeError
from .layers import MAX_STAGES, Conv2d, Conv3d, ConvNorm, Linear, Module, Sequential, eval_tiles


@dataclass(frozen=True)
class StemSpec:
    out_channels: int = 32
    in_channels: ClassVar[int] = 1
    # Stride 1 and ConvSpec's size-preserving padding, (1, 2, 2), keep T:
    # causality and receptive_field rely on the stem preserving temporal length.
    kernel: ClassVar[tuple] = (3, 5, 5)
    stride: ClassVar[tuple] = (1, 2, 2)

    def __post_init__(self):
        if self.out_channels < 1:
            raise ConfigError("stem out_channels must be ≥ 1")


class Stem(ConvNorm):
    """conv3d -> norm -> relu over (N, C, T, H, W); keeps T, halves H and W."""

    def __init__(self, spec=None):
        spec = spec if spec is not None else StemSpec()
        super().__init__(Conv3d(spec.in_channels, spec.out_channels, spec.kernel,
                                stride=spec.stride, bias=True), relu=True)
        self.spec = spec

    def _check(self, shape):
        c, t, h, w = shape
        if c != self.spec.in_channels:
            raise ShapeError(f"stem expects {self.spec.in_channels} input channels, got {c}")
        if t < self.spec.kernel[0]:
            raise ShapeError(f"need at least {self.spec.kernel[0]} frames, got {t}")
        if h % 2 or w % 2:
            raise ShapeError(f"spatial size must be even, got {h}x{w}")


@dataclass(frozen=True)
class ExtractorSpec:
    """Reference extractor layout: one downsampling bottleneck per width.

    The input width is the stem's, given when the bottlenecks are laid out.
    """

    widths: tuple = (64, 128, 256, 512)
    expansion: float = 4.0

    def __post_init__(self):
        if not self.widths or any(w < 1 for w in self.widths):
            raise ConfigError("extractor widths must be a nonempty list of positive ints")
        if len(self.widths) > MAX_STAGES:
            raise ConfigError(f"extractor widths must be ≤ {MAX_STAGES} stages, got {len(self.widths)}")
        if not 0 < self.expansion < math.inf:
            raise ConfigError("extractor expansion must be positive")

    @property
    def out_dim(self):
        return self.widths[-1]

    def bottlenecks(self, cin):
        """(in width, out width) of every bottleneck fed ``cin`` channels, in build order."""
        for width in self.widths:
            yield cin, width
            cin = width


class _SpatialBottleneck(Module):
    """2-D inverted bottleneck that halves H and W, so it has no residual.
    One body runs every mode: in eval with no tape, on tiles of frames."""

    def __init__(self, cin, cout, expansion):
        super().__init__()
        e = expanded_width(cin, expansion)
        self.body = Sequential(
            ConvNorm(Conv2d(cin, e, 1, bias=False), relu=True),
            ConvNorm(Conv2d(e, e, 3, stride=2, groups=e, bias=False), relu=True),
            ConvNorm(Conv2d(e, cout, 1, bias=False)),
        )

    def forward(self, x):
        expand, dw, _ = (unit.conv.spec for unit in self.body)
        sizes = x.shape[2:]
        expanded = expand.out_channels * (math.prod(sizes) + math.prod(dw.out_sizes(sizes)))
        return eval_tiles(x, 0, x.data.itemsize * expanded, self.body, self._body)

    def _body(self, x, folds):
        for unit, fold in zip(self.body, folds):
            x = unit(x, fold=fold)
        return x


class ReferenceExtractor(Module):
    """Stack of stride-2 2-D stages applied per frame, then spatial mean.

    In training mode the norm statistics are batch-wide, so exact frame
    independence holds in eval mode (the mode every extractor contract
    test uses).
    """

    def __init__(self, spec=None, in_channels=StemSpec.out_channels):
        super().__init__()
        self.spec = spec if spec is not None else ExtractorSpec()
        self.out_dim = self.spec.out_dim
        self.stages = Sequential(*(_SpatialBottleneck(cin, cout, self.spec.expansion)
                                   for cin, cout in self.spec.bottlenecks(in_channels)))

    def _check_spatial(self, sizes, sample):
        """Refuse the (H, W) ``sizes`` it is fed if they collapse to 1 before
        the last stage; the message names ``sample``, the (H, W) of the clip."""
        for stage, block in enumerate(list(self.stages)[:-1], 1):
            _, dw, _ = block.body  # the stage's downsampling unit
            sizes = dw.conv.spec.out_sizes(sizes)
            if min(sizes) <= 1:
                raise ShapeError(
                    f"spatial input {sample[0]}x{sample[1]} collapses before the final stage "
                    f"(stage {stage} of {len(self.stages)})"
                )

    def forward(self, x):
        if x.ndim != 5:
            raise ShapeError(f"extractor expects (N, C, T, H, W) input of rank 5, got rank {x.ndim}")
        n, c, t, h, w = x.shape
        # the (N·T, C, H, W) view of (N·T, H, W, C): a view of the stem's
        # channels-last output, a copy of any other layout (ops.reshape returns C order)
        frames = ops.moveaxis(ops.reshape(ops.moveaxis(x, 1, -1), (n * t, h, w, c)), 3, 1)
        pooled = ops.global_average_pool(self.stages(frames), axes=(2, 3))
        return ops.moveaxis(ops.reshape(pooled, (n, t, self.out_dim)), 1, 2)


class ClassifierHead(Module):
    """Masked temporal mean pool, then an affine map to class logits."""

    def __init__(self, in_dim, num_classes):
        super().__init__()
        self.in_dim = in_dim
        self.num_classes = num_classes
        self.fc = Linear(in_dim, num_classes, bias=True)

    def forward(self, x, valid_len=None):
        """x: (N, C, T); returns logits (N, num_classes)."""
        if x.ndim != 3:
            raise ShapeError(f"classifier head expects (N, C, T) input of rank 3, got rank {x.ndim}")
        return self.fc(ops.global_average_pool(x, axes=(2,), valid_len=valid_len))
