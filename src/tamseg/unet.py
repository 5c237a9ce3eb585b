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

from .attention import FeatureStack, TamConfig, TamParams, _uniform, tam_forward
from .errors import ShapeError, ValidationError
from .tensor import (BatchNormState, Tensor, batch_norm, concat, conv_nd,
                     max_pool, relu, reshape, slice_axis, softmax,
                     upsample_nearest)

_SLOT_RE = re.compile(r"^([ED])([1-9][0-9]*)$")


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
        for slot in self.insertion_set:
            if not _SLOT_RE.match(slot) or slot not in allowed:
                raise ValidationError(
                    f"invalid insertion slot {slot!r} for a {self.levels}-level "
                    f"backbone; valid slots: {sorted(allowed)}")
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

    def __init__(self, c_in: int, c_out: int, rank: int, rng, dtype):
        kshape = (c_out, c_in) + (3,) * rank
        self.w = _uniform(rng, kshape, c_in * 3 ** rank, dtype)
        self.gamma = Tensor(np.ones(c_out, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)
        self.state = BatchNormState(c_out, dtype=dtype)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        y = conv_nd(x, self.w)
        return relu(batch_norm(y, self.gamma, self.beta, self.state, training))

    def tensors(self) -> dict[str, Tensor]:
        return {"w": self.w, "gamma": self.gamma, "beta": self.beta}


class _Block:
    """Two stacked conv-norm-ReLU units, the repeating backbone element."""

    def __init__(self, c_in: int, c_out: int, rank: int, rng, dtype):
        self.a = _ConvBN(c_in, c_out, rank, rng, dtype)
        self.b = _ConvBN(c_out, c_out, rank, rng, dtype)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return self.b(self.a(x, training), training)

    def tensors(self) -> dict[str, Tensor]:
        out = {f"a.{k}": v for k, v in self.a.tensors().items()}
        out.update({f"b.{k}": v for k, v in self.b.tensors().items()})
        return out

    def states(self) -> dict[str, BatchNormState]:
        return {"a": self.a.state, "b": self.b.state}


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
        if n % divisor:
            raise error(f"spatial extent {n} not divisible by {divisor} "
                        f"(needed for {config.levels} levels)")


def check_time_conv(config: BackboneConfig) -> None:
    """The time-as-channel baseline's limits: 2D data, no insertion slots."""
    if config.spatial_rank != 2:
        raise ValidationError("time-as-channel baseline supports 2D data only")
    if config.insertion_set:
        raise ValidationError("time-as-channel baseline takes no insertion slots")


class _UNet:
    """The one encoder-decoder: layer build, walk, plumbing and I/O.

    With ``FOLD_TIME`` the frames are stacked on a leading time axis into one
    volume: the walk carries a one-element feature list, every convolution
    gains a width-3 time dimension, pooling and upsampling act on space only,
    and the head's output is unstacked into per-frame maps.
    """

    FOLD_TIME = False

    def __init__(self, config: BackboneConfig, rng: np.random.Generator,
                 dtype=np.float32):
        self.config = config
        ch = config.channels
        rank = config.spatial_rank + self.FOLD_TIME
        self.enc = []
        for lvl in range(config.levels):
            c_in = config.in_channels if lvl == 0 else ch[lvl - 1]
            self.enc.append(_Block(c_in, ch[lvl], rank, rng, dtype))
        self.dec = []
        for lvl in range(config.levels - 2, -1, -1):
            up_w = _uniform(rng, (ch[lvl], ch[lvl + 1]) + (3,) * rank,
                            ch[lvl + 1] * 3 ** rank, dtype)
            up_b = Tensor(np.zeros(ch[lvl], dtype=dtype), requires_grad=True)
            block = _Block(2 * ch[lvl], ch[lvl], rank, rng, dtype)
            self.dec.append({"level": lvl, "up_w": up_w, "up_b": up_b,
                             "block": block})
        self.head_w = _uniform(rng, (config.classes, ch[0]) + (1,) * rank,
                               ch[0], dtype)
        self.head_b = Tensor(np.zeros(config.classes, dtype=dtype),
                             requires_grad=True)
        self.tams = {slot: TamParams.initialize(config.tam_config(slot), rng, dtype)
                     for slot in sorted(config.insertion_set)}

    # -- forward -------------------------------------------------------------

    def _validate_frames(self, frames: list[Tensor]) -> None:
        cfg = self.config
        if not 2 <= len(frames) <= 5:
            raise ValidationError(f"the backbone takes 2 to 5 frames, "
                                  f"got {len(frames)}")
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
        for stage in self.dec:
            lvl = stage["level"]
            x = [conv_nd(upsample_nearest(f, factor), stage["up_w"], stage["up_b"])
                 for f in x]
            slot = f"D{lvl + 1}"
            if slot in self.tams:
                x = tam_forward(FeatureStack(frames=x), self.tams[slot],
                                training).frames
            x = [stage["block"](concat([skips[lvl][t], x[t]], axis=0), training)
                 for t in range(len(x))]
        logits = [conv_nd(f, self.head_w, self.head_b) for f in x]
        if not self.FOLD_TIME:
            return logits
        out_shape = (cfg.classes,) + shape[1:]
        return [reshape(slice_axis(logits[0], 1, i, i + 1), out_shape)
                for i in range(len(frames))]

    # -- parameter plumbing ----------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for lvl, block in enumerate(self.enc):
            for k, v in block.tensors().items():
                out[f"enc{lvl + 1}.{k}"] = v
        for stage in self.dec:
            lvl = stage["level"] + 1
            out[f"dec{lvl}.up.w"] = stage["up_w"]
            out[f"dec{lvl}.up.b"] = stage["up_b"]
            for k, v in stage["block"].tensors().items():
                out[f"dec{lvl}.{k}"] = v
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        for slot, tam in self.tams.items():
            for k, v in tam.named_tensors().items():
                out[f"tam.{slot}.{k}"] = v
        return out

    def _named_states(self) -> dict[str, BatchNormState]:
        out: dict[str, BatchNormState] = {}
        for lvl, block in enumerate(self.enc):
            for k, st in block.states().items():
                out[f"enc{lvl + 1}.{k}"] = st
        for stage in self.dec:
            for k, st in stage["block"].states().items():
                out[f"dec{stage['level'] + 1}.{k}"] = st
        for slot, tam in self.tams.items():
            out[f"tam.{slot}"] = tam.bn_state
        return out

    def parameter_count(self) -> int:
        return sum(t.size for t in self.named_parameters().values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name, st in self._named_states().items():
            out[f"{name}.running_mean"] = st.running_mean.copy()
            out[f"{name}.running_var"] = st.running_var.copy()
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, st in self._named_states().items():
            st.running_mean[:] = arrays[f"{name}.running_mean"]
            st.running_var[:] = arrays[f"{name}.running_var"]

    def to_arrays(self) -> dict[str, np.ndarray]:
        out = {name: t.data.copy() for name, t in self.named_parameters().items()}
        out.update(self.state_arrays())
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, t in self.named_parameters().items():
            if name not in arrays:
                raise ValidationError(f"checkpoint is missing tensor {name!r}")
            if arrays[name].shape != t.shape:
                raise ShapeError(f"checkpoint tensor {name} has shape "
                                 f"{arrays[name].shape}, expected {t.shape}")
            t.data = np.ascontiguousarray(arrays[name], dtype=t.dtype)
        self.load_state_arrays(arrays)


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

    config_id: str
    slots: frozenset[str] = frozenset()
    time_conv: bool = False
    note: str = ""


CONFIGURATIONS: dict[str, Configuration] = {
    "C1": Configuration("C1", note="per-frame baseline, no temporal exchange"),
    "C2": Configuration("C2", time_conv=True,
                        note="time-as-channel convolutional baseline"),
    "C3": Configuration("C3", frozenset({"E5"})),
    "C4": Configuration("C4", frozenset({"E4", "E5"})),
    "C5": Configuration("C5", frozenset({"E3", "E4", "E5"})),
    "C6": Configuration("C6", frozenset({"E5", "D4"})),
    "C7": Configuration("C7", frozenset({"E5", "D3", "D4"})),
    "C8": Configuration("C8", frozenset({"E4", "E5", "D4"})),
    "C9": Configuration("C9", frozenset({"E4", "E5", "D3", "D4"})),
    "C10": Configuration("C10", frozenset({"E3", "E4", "E5", "D4"})),
    "C11": Configuration("C11", frozenset({"E3", "E4", "E5", "D3", "D4"})),
}


def list_configurations() -> list[Configuration]:
    return [CONFIGURATIONS[k] for k in sorted(CONFIGURATIONS,
                                              key=lambda s: int(s[1:]))]


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
