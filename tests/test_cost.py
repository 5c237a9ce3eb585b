"""Closed-form cost accounting vs the instrumented runtime counter."""

import numpy as np
import pytest

from tamseg.attention import TamConfig, TamParams
from tamseg.costs import (CostRow, attention_pair_macs,
                          compare_architectures, configuration_report,
                          conv_cost, tam_rows, tam_vs_time_conv)
from tamseg.errors import ShapeError, ValidationError
from tamseg.tensor import Tensor, count_macs
from tamseg.unet import BackboneConfig, build_model

DESK = BackboneConfig(channels=(16, 32, 64, 128, 256))
DESK_INPUT = (64, 64)
# a full-size operating point for headline comparisons
FULL_SCALE = BackboneConfig(channels=(64, 128, 256, 512, 1024))
FULL_INPUT = (256, 256)
FULL_FRAMES = 2


class TestConvCost:
    def test_worked_example(self):
        # 3x3 kernel, 1->1 channels, 4x4 output: 9 multiplies per output pixel
        macs, params = conv_cost(3, 1, 1, (4, 4))
        assert macs == 144
        assert CostRow("x", macs=macs).flops == 288
        assert params == 9

    def test_rank_ratio_is_kernel_volume_ratio(self):
        # same channel and output volume: rank 3 costs exactly 3x at k=3
        m2, _ = conv_cost(3, 8, 8, (8, 8))
        m3, _ = conv_cost(3, 8, 8, (4, 4, 4))
        assert m3 == 3 * m2

    def test_pointwise_params(self):
        for c in (4, 16, 64):
            _, params = conv_cost(1, c, c, (8, 8), bias=True)
            assert params == c * c + c

    def test_bias_adds_no_macs(self):
        assert conv_cost(3, 2, 5, (6, 6), bias=True)[0] == \
            conv_cost(3, 2, 5, (6, 6), bias=False)[0]


def attention_row(d_embed, n, heads, t):
    """MACs of the attention row of one module over an n-position stack."""
    cfg = TamConfig(channels=4, d_embed=d_embed, heads=heads)
    rows = {r.name: r for r in tam_rows(cfg, (n, 1), t)}
    return rows["tam.attention"].macs


class TestAttentionCost:
    def test_pair_counts(self):
        d, n = 16, 64
        per_pair = attention_pair_macs(n, d)
        assert per_pair == 2 * n * n * d
        assert attention_row(d, n, 1, 2) == 2 * per_pair
        assert attention_row(d, n, 1, 4) == 12 * per_pair
        assert attention_row(d, n, 1, 4) == 6 * attention_row(d, n, 1, 2)

    def test_single_position(self):
        assert attention_row(8, 1, 1, 2) == 2 * 2 * 8

    def test_heads_do_not_change_total(self):
        assert attention_row(32, 16, 1, 3) == attention_row(32, 16, 4, 3)

    def test_degenerate_single_frame(self):
        assert attention_row(8, 16, 1, 1) == 0
        with pytest.raises(ValidationError):
            attention_row(8, 16, 1, 0)


class TestTamRows:
    def test_params_independent_of_spatial(self):
        cfg = TamConfig(channels=16, d_embed=16, heads=2)
        p_small = sum(r.params for r in tam_rows(cfg, (4, 4), 2))
        p_large = sum(r.params for r in tam_rows(cfg, (32, 32), 2))
        assert p_small == p_large

    def test_params_match_runtime_module(self):
        for c, d, heads in [(8, 8, 2), (16, 8, 1), (12, 24, 4)]:
            cfg = TamConfig(channels=c, d_embed=d, heads=heads)
            params = TamParams.initialize(cfg, np.random.default_rng(0))
            want = sum(r.params for r in tam_rows(cfg, (4, 4), 2))
            assert params.parameter_count() == want

    def test_single_frame_leaves_projection_overhead(self):
        cfg = TamConfig(channels=8, d_embed=8, heads=1)
        rows = {r.name: r for r in tam_rows(cfg, (4, 4), 1)}
        assert rows["tam.attention"].macs == 0
        assert rows["tam.gate"].macs == 0
        assert rows["tam.fuse"].macs == 0
        assert rows["tam.w_q"].macs > 0
        assert rows["tam.w_o"].macs > 0


class TestReportStructure:
    def test_totals_are_row_sums(self):
        rep = configuration_report("C3", DESK, DESK_INPUT, 2)
        assert rep.total_macs == sum(r.macs for r in rep.rows)
        assert rep.total_params == sum(r.params for r in rep.rows)
        assert rep.total_flops == 2 * rep.total_macs
        for r in rep.rows:
            assert r.flops == 2 * r.macs

    def test_text_and_json(self):
        rep = configuration_report("C1", DESK, DESK_INPUT, 2)
        text = rep.to_text()
        assert text.splitlines()[-1].startswith("total")
        d = rep.to_json_dict()
        assert d["total_flops"] == rep.total_flops
        assert len(d["rows"]) == len(rep.rows)

    def test_unknown_config(self):
        with pytest.raises(ValidationError):
            configuration_report("C99", DESK, DESK_INPUT, 2)

    def test_time_conv_requires_2d(self):
        with pytest.raises(ValidationError):
            configuration_report("C2", DESK, (16, 16, 16), 2)
        rank3 = BackboneConfig(spatial_rank=3, levels=3, channels=(4, 8, 16))
        with pytest.raises(ValidationError, match="2D data only"):
            configuration_report("C2", rank3, (16, 16, 16), 2)

    def test_prices_only_inputs_the_model_accepts(self):
        # the cost walk shares the backbone's input check: a base the model
        # refuses, or an input of the wrong rank, has no cost table
        rank3 = BackboneConfig(spatial_rank=3, levels=3, channels=(4, 8, 16))
        with pytest.raises(ValidationError):
            build_model("C2", rank3, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            configuration_report("C2", rank3, (16, 16), 2)
        rank2 = BackboneConfig(levels=3, channels=(4, 8, 16))
        with pytest.raises(ValidationError):
            configuration_report("C1", rank2, (16, 16, 16), 2)

    @pytest.mark.parametrize("extent", [(0, 0), (-16, -16), (16, 0)])
    def test_non_positive_extent(self, extent):
        # 0 and -16 divide by every pool product, so the divisibility check
        # alone priced them (0 and 31 948 800 MACs for C1 at the defaults)
        with pytest.raises(ValidationError, match="non-positive"):
            configuration_report("C1", BackboneConfig(), extent, 2)
        model = build_model("C1", BackboneConfig(levels=3, channels=(4, 8, 16)),
                            np.random.default_rng(0))
        frames = [Tensor(np.zeros((1,) + tuple(max(n, 0) for n in extent), np.float32))] * 2
        with pytest.raises(ShapeError, match="non-positive"):
            model.forward(frames)

    def test_extent_divisibility(self):
        base = BackboneConfig(levels=3, channels=(4, 8, 16))
        for cid in ("C1", "C2"):
            with pytest.raises(ValidationError, match="divisible by 4"):
                configuration_report(cid, base, (16, 18), 1)


class TestOrderings:
    def test_desk_scale_ordering(self):
        flops = {cid: configuration_report(cid, DESK, DESK_INPUT, 2).total_flops
                 for cid in ("C1", "C2", "C3")}
        assert flops["C1"] < flops["C3"] < flops["C2"]

    def test_full_scale_ordering(self):
        # same ordering holds at full size: plain 2D < 2D+attention < 3D conv
        flops = {cid: configuration_report(cid, FULL_SCALE, FULL_INPUT,
                                           FULL_FRAMES).total_flops
                 for cid in ("C1", "C2", "C3")}
        assert flops["C1"] < flops["C3"] < flops["C2"]

    def test_break_even_inequality(self):
        be = tam_vs_time_conv(2, 5)
        assert be == {"t_squared": 4, "conv_overhead_factor": 90,
                      "attention_cheaper": True}
        assert not tam_vs_time_conv(10, 5)["attention_cheaper"]

    def test_single_frame_tam_is_baseline_plus_projections(self):
        base = BackboneConfig(levels=3, channels=(4, 8, 16), heads=1)
        c1 = configuration_report("C1", base, (16, 16), 1)
        cfg = BackboneConfig(levels=3, channels=(4, 8, 16), heads=1,
                             insertion_set=frozenset({"E3"}))
        from tamseg.costs import backbone_rows
        rows = backbone_rows(cfg, (16, 16), 1)
        tam_macs = sum(r.macs for r in rows if r.name.startswith("tam."))
        overhead = sum(r.macs for r in tam_rows(cfg.tam_config("E3"),
                                                (4, 4), 1))
        assert sum(r.macs for r in rows) == c1.total_macs + tam_macs
        assert tam_macs == overhead

    def test_comparison_text_sorted(self):
        text = compare_architectures(["C2", "C1", "C3"], DESK, DESK_INPUT, 2)
        lines = [ln.split()[0] for ln in text.splitlines()[1:4]]
        assert lines == ["C1", "C3", "C2"]
        assert "T^2 = 4" in text


class TestCounterAgreement:
    # the closed-form walk must reproduce the instrumented counter exactly

    CASES = [
        ("C1", 2, (4, 8), (16, 16), 1, 2),
        ("C1", 3, (4, 8, 12), (16, 16), 1, 3),
        ("C2", 2, (4, 8), (16, 16), 1, 2),
        ("C2", 3, (4, 6, 8), (8, 8), 1, 3),
        ("C3", 5, (2, 4, 6, 8, 10), (32, 32), 1, 2),
        ("C4", 5, (2, 4, 6, 8, 12), (32, 32), 2, 2),
        ("C6", 5, (2, 4, 6, 8, 10), (32, 32), 1, 3),
        ("C11", 5, (4, 4, 8, 8, 8), (32, 32), 2, 2),
        ("C5", 5, (2, 2, 4, 4, 8), (32, 32), 1, 2),
        ("C9", 5, (2, 4, 4, 8, 8), (32, 32), 2, 2),
        ("C7", 5, (2, 4, 6, 8, 10), (32, 32), 1, 2),
        ("C8", 5, (2, 4, 4, 8, 8), (32, 32), 2, 3),
        ("C10", 5, (2, 2, 4, 4, 8), (32, 32), 1, 2),
        # the per-frame backbone on 3D frames
        ("C1", 3, (2, 4, 6), (8, 8, 8), 1, 2),
        ("C3", 5, (2, 2, 4, 4, 4), (16, 16, 16), 1, 2),
    ]

    @pytest.mark.parametrize("cid,levels,channels,size,heads,t", CASES)
    def test_forward_macs_match(self, cid, levels, channels, size, heads, t):
        base = BackboneConfig(spatial_rank=len(size), levels=levels,
                              channels=channels, heads=heads, classes=3)
        rng = np.random.default_rng(hash((cid, levels)) % 2**32)
        model = build_model(cid, base, rng)
        frames = [Tensor(rng.standard_normal((1,) + size).astype(np.float32))
                  for _ in range(t)]
        with count_macs() as counter:
            model.forward_logits(frames)
        want = configuration_report(cid, base, size, t).total_macs
        assert counter.total == want
