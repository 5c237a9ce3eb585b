"""Closed-form compute and parameter accounting for every architecture variant.

MACs are multiply-accumulates; FLOPs = 2 * MACs throughout. Convolution and
matrix-multiply work is the counted cost; pooling, normalization, activation,
and upsampling traffic appears in a separate informational elementwise column
and never enters the totals. The layer walk here mirrors the runtime models
exactly, so an instrumented forward pass must reproduce the MAC totals to the
digit (see ``tensor.count_macs``).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

from .attention import TamConfig
from .unet import (BackboneConfig, check_extent, check_frames, check_time_conv,
                   resolve_configuration)


@dataclass(frozen=True)
class CostRow:
    """One accounted layer application (already multiplied by frame/pair counts)."""

    name: str
    macs: int = 0
    params: int = 0
    elementwise: int = 0

    @property
    def flops(self) -> int:
        return 2 * self.macs


@dataclass
class CostReport:
    label: str
    rows: list[CostRow] = field(default_factory=list)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def total_flops(self) -> int:
        return 2 * self.total_macs

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_elementwise(self) -> int:
        return sum(r.elementwise for r in self.rows)

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"{self.label}\n")
        buf.write(f"{'layer':<38} {'MACs':>14} {'FLOPs':>14} {'params':>10} "
                  f"{'elemwise':>10}\n")
        for r in self.rows:
            buf.write(f"{r.name:<38} {r.macs:>14} {r.flops:>14} {r.params:>10} "
                      f"{r.elementwise:>10}\n")
        buf.write(f"{'total':<38} {self.total_macs:>14} {self.total_flops:>14} "
                  f"{self.total_params:>10} {self.total_elementwise:>10}\n")
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "rows": [{"name": r.name, "macs": r.macs, "flops": r.flops,
                      "params": r.params, "elementwise": r.elementwise}
                     for r in self.rows],
            "total_macs": self.total_macs,
            "total_flops": self.total_flops,
            "total_params": self.total_params,
            "total_elementwise": self.total_elementwise,
        }


def conv_cost(kernel, c_in: int, c_out: int, out_spatial,
              bias: bool = False) -> tuple[int, int]:
    """(MACs, params) of one convolution producing ``out_spatial``.

    MACs = prod(kernel) * c_in * c_out * prod(out_spatial); a bias adds
    c_out parameters and no MACs.
    """
    if isinstance(kernel, int):
        kernel = (kernel,) * len(tuple(out_spatial))
    k = math.prod(kernel)
    macs = k * c_in * c_out * math.prod(out_spatial)
    params = k * c_in * c_out + (c_out if bias else 0)
    return macs, params


def attention_pair_macs(n: int, d_embed: int) -> int:
    """MACs of one ordered frame pair's attention: logits plus weighted values.

    Splitting into heads does not change the sum: H * 2 * n^2 * (d/H).
    """
    return 2 * n * n * d_embed


def tam_rows(cfg: TamConfig, spatial, t: int, prefix: str = "tam") -> list[CostRow]:
    """Cost rows for one attention module applied to a T-frame stack.

    At T=1 the pair count is zero, leaving only the projection overhead.
    """
    n = math.prod(spatial)
    pairs = t * (t - 1)
    c, d = cfg.channels, cfg.d_embed
    one = (1,) * len(tuple(spatial))
    rows = []
    for name in ("w_q", "w_k", "w_v"):
        # the key map has no bias (attention.TamParams)
        macs, params = conv_cost(one, c, d, spatial, bias=name != "w_k")
        rows.append(CostRow(f"{prefix}.{name}", macs * t, params))
    rows.append(CostRow(f"{prefix}.attention",
                        attention_pair_macs(n, d) * pairs, 0))
    g_macs, g_params = conv_cost(one, d, d, spatial, bias=True)
    rows.append(CostRow(f"{prefix}.gate", g_macs * pairs, g_params,
                        elementwise=2 * d * n * pairs))
    r_macs, r_params = conv_cost(3, c + d, c, spatial, bias=False)
    rows.append(CostRow(f"{prefix}.fuse", r_macs * pairs, r_params))
    rows.append(CostRow(f"{prefix}.fuse_bn", 0, 2 * c,
                        elementwise=2 * c * n * pairs))
    o_macs, o_params = conv_cost(one, c, c, spatial, bias=False)
    rows.append(CostRow(f"{prefix}.w_o", o_macs * t, o_params))
    return rows


def backbone_rows(config: BackboneConfig, input_spatial, t: int,
                  fold_time: bool = False) -> list[CostRow]:
    """Cost rows of the backbone, mirroring its forward pass.

    Per frame, every layer runs once on each of the ``t`` frames. With
    ``fold_time`` (the time-as-channel baseline) every layer runs once on one
    volume whose leading axis is time. The model's own input checks run first.
    """
    check_frames(t)
    if fold_time:
        check_time_conv(config)
    check_extent(config, input_spatial)

    reps = 1 if fold_time else t  # applications of each layer

    def extent(lvl):
        s = tuple(n >> lvl for n in input_spatial)
        return (t,) + s if fold_time else s

    ch = config.channels
    rows = []
    for lvl in range(config.levels):
        s = extent(lvl)
        n = math.prod(s)
        c_in = config.in_channels if lvl == 0 else ch[lvl - 1]
        if lvl > 0:
            rows.append(CostRow(f"enc{lvl + 1}.pool", elementwise=reps * c_in
                                * math.prod(extent(lvl - 1))))
        for unit, ci in (("a", c_in), ("b", ch[lvl])):
            macs, params = conv_cost(3, ci, ch[lvl], s, bias=False)
            rows.append(CostRow(f"enc{lvl + 1}.{unit}.conv", macs * reps, params))
            rows.append(CostRow(f"enc{lvl + 1}.{unit}.bn_relu", 0, 2 * ch[lvl],
                                elementwise=3 * reps * ch[lvl] * n))
        slot = f"E{lvl + 1}"
        if slot in config.insertion_set:
            rows.extend(tam_rows(config.tam_config(slot), s, t,
                                 prefix=f"tam.{slot}"))
    for lvl in range(config.levels - 2, -1, -1):
        s = extent(lvl)
        n = math.prod(s)
        macs, params = conv_cost(3, ch[lvl + 1], ch[lvl], s, bias=True)
        rows.append(CostRow(f"dec{lvl + 1}.up.conv", macs * reps, params,
                            elementwise=reps * ch[lvl + 1] * n))
        slot = f"D{lvl + 1}"
        if slot in config.insertion_set:
            rows.extend(tam_rows(config.tam_config(slot), s, t,
                                 prefix=f"tam.{slot}"))
        for unit, ci in (("a", 2 * ch[lvl]), ("b", ch[lvl])):
            macs, params = conv_cost(3, ci, ch[lvl], s, bias=False)
            rows.append(CostRow(f"dec{lvl + 1}.{unit}.conv", macs * reps, params))
            rows.append(CostRow(f"dec{lvl + 1}.{unit}.bn_relu", 0, 2 * ch[lvl],
                                elementwise=3 * reps * ch[lvl] * n))
    macs, params = conv_cost(1, ch[0], config.classes, extent(0), bias=True)
    rows.append(CostRow("head.conv", macs * reps, params))
    return rows


def configuration_report(config_id: str, base: BackboneConfig, input_spatial,
                         t: int) -> CostReport:
    """Full cost report for one named configuration at the given scale."""
    cls, cfg = resolve_configuration(config_id, base)
    label = f"{config_id} @ input {tuple(input_spatial)}, T={t}"
    return CostReport(label, backbone_rows(cfg, input_spatial, t, cls.FOLD_TIME))


def compare_architectures(config_ids: list[str], reports: list[CostReport]) -> str:
    """Side-by-side totals of already priced configurations, cheapest first."""
    buf = io.StringIO()
    buf.write(f"{'config':<8} {'MACs':>16} {'FLOPs':>16} {'params':>12}\n")
    for cid, rep in sorted(zip(config_ids, reports), key=lambda p: p[1].total_flops):
        buf.write(f"{cid:<8} {rep.total_macs:>16} "
                  f"{rep.total_flops:>16} {rep.total_params:>12}\n")
    return buf.getvalue()
