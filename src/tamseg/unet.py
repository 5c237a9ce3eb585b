"""U-Net backbone with optional cross-time attention insertion points.

One encoder-decoder backbone processes each frame of a sequence with shared
weights; at named insertion slots the per-frame feature stacks are exchanged
through the attention module before flowing on. Slot ``E{n}`` sits after
encoder level n's block (E{levels} is the bottleneck); slot ``D{n}`` sits in
the decoder at level n's resolution, after upsampling but before the skip
concatenation. The time-as-channel baseline (C2), the motion-aware variant
that needs no attention, is a configuration of the same backbone: the frames
fold into one volume with time as a leading axis, so every convolution has
rank 3 and pooling and upsampling use factor (1, 2, 2).
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass

import numpy as np

from .attention import (FeatureStack, ParameterSet, TamConfig, TamParams,
                        _filled, _uniform, tam_forward)
from .errors import ShapeError, ValidationError
from .tensor import (BatchNormState, Tensor, batch_norm, concat, conv_nd,
                     max_pool, relu, reshape, slice_axis, softmax,
                     upsample_nearest)

_SLOT_RE = re.compile(r"^([ED])([1-9][0-9]*)$")
FRAME_COUNTS = range(2, 6)  # how many frames a model takes


def valid_slots(levels: int) -> set[str]:
    """Slot names a backbone with ``levels`` levels can host."""
    enc = {f"E{n}" for n in range(1, levels + 1)}
    dec = {f"D{n}" for n in range(1, levels)}
    return enc | dec


@dataclass(frozen=True)
class BackboneConfig:
    """Architecture hyperparameters for one backbone instance."""

    spatial_rank: int = 2
    levels: int = 5
    channels: tuple[int, ...] = (16, 32, 64, 128, 256)
    in_channels: int = 1
    classes: int = 3
    insertion_set: frozenset[str] = frozenset()
    heads: int = 4
    d_embed: int | None = None

    def __post_init__(self):
        if self.spatial_rank not in (2, 3):
            raise ValidationError(f"spatial_rank must be 2 or 3, got {self.spatial_rank}")
        if self.levels < 2:
            raise ValidationError(f"need at least 2 levels, got {self.levels}")
        if len(self.channels) != self.levels:
            raise ValidationError(f"channels {self.channels} must list one width per "
                                  f"level ({self.levels})")
        if self.classes < 2:
            raise ValidationError("need at least 2 classes")
        allowed = valid_slots(self.levels)
        invalid = sorted(set(self.insertion_set) - allowed)
        if invalid:
            raise ValidationError(
                f"invalid insertion slot {', '.join(map(repr, invalid))} for a "
                f"{self.levels}-level backbone; valid slots: {sorted(allowed)}")
        object.__setattr__(self, "insertion_set", frozenset(self.insertion_set))

    def slot_channels(self, slot: str) -> int:
        kind, n = _SLOT_RE.match(slot).groups()
        return self.channels[int(n) - 1]

    def tam_config(self, slot: str) -> TamConfig:
        c = self.slot_channels(slot)
        return TamConfig(channels=c, d_embed=self.d_embed or c,
                         heads=self.heads, spatial_rank=self.spatial_rank)


class _ConvBN:
    """3^rank convolution (bias folded into the norm) + batch norm + ReLU."""

    def __init__(self, owner: ParameterSet, name: str, c_in: int, c_out: int,
                 rank: int, rng, dtype):
        kshape = (c_out, c_in) + (3,) * rank
        self.w = owner.param(f"{name}.w", _uniform(rng, kshape, c_in * 3 ** rank, dtype))
        self.gamma = owner.param(f"{name}.gamma", _filled(c_out, 1.0, dtype))
        self.beta = owner.param(f"{name}.beta", _filled(c_out, 0.0, dtype))
        self.state = owner.norm_state(f"{name}.", BatchNormState(c_out, dtype=dtype))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        y = conv_nd(x, self.w)
        return relu(batch_norm(y, self.gamma, self.beta, self.state, training))


class _Block:
    """Two stacked conv-norm-ReLU units, the repeating backbone element."""

    def __init__(self, owner: ParameterSet, name: str, c_in: int, c_out: int,
                 rank: int, rng, dtype):
        self.a = _ConvBN(owner, f"{name}.a", c_in, c_out, rank, rng, dtype)
        self.b = _ConvBN(owner, f"{name}.b", c_out, c_out, rank, rng, dtype)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return self.b(self.a(x, training), training)


def check_extent(config: BackboneConfig, spatial, error=ValidationError) -> None:
    """Raise ``error`` unless a ``config`` model accepts frames of this extent.

    The frame check and the cost walk share it, so the cost table never
    prices an input the model refuses. The frame count is not checked here.
    """
    if len(spatial) != config.spatial_rank:
        raise error(f"input extent {tuple(spatial)} has {len(spatial)} axes, "
                    f"config expects {config.spatial_rank}")
    divisor = 2 ** (config.levels - 1)
    for n in spatial:
        if n < 1:
            raise error(f"input extent {tuple(spatial)} has a non-positive axis")
        if n % divisor:
            raise error(f"spatial extent {n} not divisible by {divisor} "
                        f"(needed for {config.levels} levels)")


def check_time_conv(config: BackboneConfig) -> None:
    """The time-as-channel baseline's limits: 2D data, no insertion slots."""
    if config.spatial_rank != 2:
        raise ValidationError("time-as-channel baseline supports 2D data only")
    if config.insertion_set:
        raise ValidationError("time-as-channel baseline takes no insertion slots")


class _UNet(ParameterSet):
    """The one encoder-decoder: layer build, walk and frame validation.

    Every tensor and running stat is named as it is made, so the checkpoint
    names, their order and the arrays they hold come from one place
    (:class:`ParameterSet`). With ``FOLD_TIME`` the frames are stacked on a
    leading time axis into one volume: the walk carries a one-element feature
    list, every convolution gains a width-3 time dimension, pooling and
    upsampling act on space only, and the head's output is unstacked into
    per-frame maps.
    """

    FOLD_TIME = False

    def __init__(self, config: BackboneConfig, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.config = config
        ch = config.channels
        rank = config.spatial_rank + self.FOLD_TIME
        self.enc = [_Block(self, f"enc{lvl + 1}",
                           config.in_channels if lvl == 0 else ch[lvl - 1],
                           ch[lvl], rank, rng, dtype)
                    for lvl in range(config.levels)]
        self.dec = []
        for lvl in range(config.levels - 2, -1, -1):
            name = f"dec{lvl + 1}"
            up_w = self.param(f"{name}.up.w", _uniform(
                rng, (ch[lvl], ch[lvl + 1]) + (3,) * rank, ch[lvl + 1] * 3 ** rank,
                dtype))
            up_b = self.param(f"{name}.up.b", _filled(ch[lvl], 0.0, dtype))
            block = _Block(self, name, 2 * ch[lvl], ch[lvl], rank, rng, dtype)
            self.dec.append((lvl, up_w, up_b, block))
        self.head_w = self.param("head.w", _uniform(
            rng, (config.classes, ch[0]) + (1,) * rank, ch[0], dtype))
        self.head_b = self.param("head.b", _filled(config.classes, 0.0, dtype))
        self.tams = {}
        for slot in sorted(config.insertion_set):
            tam = self.tams[slot] = TamParams.initialize(config.tam_config(slot),
                                                         rng, dtype)
            for name, t in tam.params.items():
                self.param(f"tam.{slot}.{name}", t)
            self.norm_state(f"tam.{slot}.", tam.bn_state)

    # -- forward -------------------------------------------------------------

    def _validate_frames(self, frames: list[Tensor]) -> None:
        cfg = self.config
        if len(frames) not in FRAME_COUNTS:
            raise ValidationError(f"the backbone takes {FRAME_COUNTS[0]} to "
                                  f"{FRAME_COUNTS[-1]} frames, got {len(frames)}")
        shape = frames[0].shape
        for i, f in enumerate(frames):
            if f.ndim != cfg.spatial_rank + 1:
                raise ShapeError(f"frame {i} has rank {f.ndim}, expected "
                                 f"{cfg.spatial_rank + 1}")
            if f.shape != shape:
                raise ShapeError(f"frame {i} shape {f.shape} != frame 0 shape {shape}")
        if shape[0] != cfg.in_channels:
            raise ShapeError(f"frames have {shape[0]} channels, config expects "
                             f"{cfg.in_channels}")
        check_extent(cfg, shape[1:], ShapeError)

    def forward(self, frames: list[Tensor], training: bool = False) -> list[Tensor]:
        """Per-frame class probability maps, each (classes, *spatial)."""
        return [softmax(lg, axis=0) for lg in self.forward_logits(frames, training)]

    def forward_logits(self, frames: list[Tensor],
                       training: bool = False) -> list[Tensor]:
        self._validate_frames(frames)
        cfg = self.config
        shape = frames[0].shape
        if self.FOLD_TIME:
            feats = [concat([reshape(f, (shape[0], 1) + shape[1:]) for f in frames],
                            axis=1)]
            factor = (1,) + (2,) * cfg.spatial_rank
        else:
            feats = list(frames)
            factor = 2
        skips: dict[int, list[Tensor]] = {}
        for lvl in range(cfg.levels):
            if lvl > 0:
                feats = [max_pool(f, factor) for f in feats]
            feats = [self.enc[lvl](f, training) for f in feats]
            slot = f"E{lvl + 1}"
            if slot in self.tams:
                feats = tam_forward(FeatureStack(frames=feats), self.tams[slot],
                                    training).frames
            if lvl < cfg.levels - 1:
                skips[lvl] = feats
        x = feats
        for lvl, up_w, up_b, block in self.dec:
            x = [conv_nd(upsample_nearest(f, factor), up_w, up_b) for f in x]
            slot = f"D{lvl + 1}"
            if slot in self.tams:
                x = tam_forward(FeatureStack(frames=x), self.tams[slot],
                                training).frames
            x = [block(concat([skips[lvl][t], x[t]], axis=0), training)
                 for t in range(len(x))]
        logits = [conv_nd(f, self.head_w, self.head_b) for f in x]
        if not self.FOLD_TIME:
            return logits
        out_shape = (cfg.classes,) + shape[1:]
        return [reshape(slice_axis(logits[0], 1, i, i + 1), out_shape)
                for i in range(len(frames))]


# The benchmark tracer wraps ``forward`` on each of the two public classes, so
# they stay siblings: neither may inherit ``forward`` from the other.

class UNetBackbone(_UNet):
    """Per-frame segmentation backbone with optional cross-time exchange."""


class TimeConvUNet(_UNet):
    """Time-as-channel baseline (C2): time mixes in every layer, not at slots.

    2D data only: the convolution core handles at most three data axes.
    """

    FOLD_TIME = True

    def __init__(self, config: BackboneConfig, rng: np.random.Generator,
                 dtype=np.float32):
        check_time_conv(config)
        super().__init__(config, rng, dtype)


@dataclass(frozen=True)
class Configuration:
    """One named architecture variant from the insertion-point sweep."""

    slots: frozenset[str] = frozenset()
    time_conv: bool = False


CONFIGURATIONS: dict[str, Configuration] = {
    "C1": Configuration(),
    "C2": Configuration(time_conv=True),
    "C3": Configuration(frozenset({"E5"})),
    "C4": Configuration(frozenset({"E4", "E5"})),
    "C5": Configuration(frozenset({"E3", "E4", "E5"})),
    "C6": Configuration(frozenset({"E5", "D4"})),
    "C7": Configuration(frozenset({"E5", "D3", "D4"})),
    "C8": Configuration(frozenset({"E4", "E5", "D4"})),
    "C9": Configuration(frozenset({"E4", "E5", "D3", "D4"})),
    "C10": Configuration(frozenset({"E3", "E4", "E5", "D4"})),
    "C11": Configuration(frozenset({"E3", "E4", "E5", "D3", "D4"})),
}


def lookup_configuration(config_id: str) -> Configuration:
    if config_id not in CONFIGURATIONS:
        raise ValidationError(f"unknown configuration {config_id!r}; "
                              f"choose from {sorted(CONFIGURATIONS)}")
    return CONFIGURATIONS[config_id]


def resolve_configuration(config_id: str, base: BackboneConfig
                          ) -> tuple[type[_UNet], BackboneConfig]:
    """The model class and backbone config of the named configuration.

    ``base`` supplies the widths; the configuration supplies the insertion
    slots (none for the time-as-channel baseline).
    """
    entry = lookup_configuration(config_id)
    cls = TimeConvUNet if entry.time_conv else UNetBackbone
    return cls, dataclasses.replace(base, insertion_set=entry.slots)


def build_model(config_id: str, base: BackboneConfig, rng: np.random.Generator,
                dtype=np.float32) -> _UNet:
    """Instantiate the named configuration on top of ``base``'s widths."""
    cls, cfg = resolve_configuration(config_id, base)
    return cls(cfg, rng, dtype)
