"""Acceptance gates for the whole package.

Each test is one gate; ``pytest -v tests/test_acceptance.py`` prints one
pass/fail line per gate. The gates lean on the oracle helpers from the
unit-test modules (straight-line attention recomputation, brute-force
surface distances) so a regression in either route fails loudly here.
"""

import math
import time
from pathlib import Path

import numpy as np

from tamseg.attention import FeatureStack, softmax, tam_forward
from tamseg.cli import main
from tamseg.costs import configuration_report
from tamseg.experiments import ExperimentConfig, make_dataset, run_cells
from tamseg.gradcheck import run_suite
from tamseg.losses import dice_ce_loss, loss_components, one_hot
from tamseg.metrics import SegmentationMask, dsc, hausdorff, masd
from tamseg.tensor import Tensor, count_macs
from tamseg.unet import CONFIGURATIONS, BackboneConfig, build_model

from test_attention import attention_logits, make_params, tam_oracle
from test_metrics import random_mask, surface_metrics_oracle


class TestGradients:
    def test_finite_difference_suites_pass_within_two_minutes(self):
        # every op, the attention module, and a small end-to-end net,
        # all in float64 against central differences at rel tol 1e-4
        t0 = time.monotonic()
        suites = {scope: run_suite(scope) for scope in ("ops", "tam", "end2end")}
        elapsed = time.monotonic() - t0
        failures = [(r.name, r.max_rel_error)
                    for results in suites.values()
                    for r in results if not r.passed]
        assert failures == []
        assert all(suites.values())
        assert elapsed < 120.0


class TestAttentionModule:
    def test_forward_matches_straight_line_recomputation(self):
        # independent per-pixel loops, nothing shared with the Tensor path
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cfg, params = make_params(rng, channels=8, d_embed=8, heads=2)
            frames_np = [rng.standard_normal((8, 4, 4)) for _ in range(2)]
            got = tam_forward(FeatureStack([Tensor(f) for f in frames_np]),
                              params, training=False)
            want = tam_oracle(frames_np, params.to_arrays(), cfg.heads)
            for g, w in zip(got.frames, want):
                worst = max(worst, float(np.max(np.abs(g.data - w))))
        assert worst < 1e-6

    def test_weights_normalize_shapes_hold_and_order_is_irrelevant(self):
        # softmax rows are convex weights over key positions
        rng = np.random.default_rng(41)
        for heads in (1, 2, 4, 8):
            cfg, params = make_params(rng, channels=8, d_embed=8, heads=heads)
            p = params.to_arrays()
            d, c = p["w_q"].shape[:2]
            width = d // heads
            fq, fk = rng.standard_normal((2, c, 16))
            q = p["w_q"].reshape(d, c) @ fq + p["b_q"][:, None]
            k = p["w_k"].reshape(d, c) @ fk
            for h in range(heads):
                sl = slice(h * width, (h + 1) * width)
                w = softmax(attention_logits(Tensor(q[sl]), Tensor(k[sl])),
                            axis=1)
                np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-6)

        for t in (2, 3, 5):
            for heads in (1, 2, 4, 8):
                rng = np.random.default_rng(100 * t + heads)
                cfg, params = make_params(rng, channels=8, d_embed=8,
                                          heads=heads)
                frames = [Tensor(rng.standard_normal((8, 4, 4)))
                          for _ in range(t)]
                out = tam_forward(FeatureStack(frames), params)
                assert len(out) == t
                assert all(f.shape == (8, 4, 4) for f in out.frames)

        # averaging over contributing frames is commutative
        rng = np.random.default_rng(7)
        cfg, params = make_params(rng)
        frames = [rng.standard_normal((8, 4, 4)) for _ in range(5)]
        base = tam_forward(
            FeatureStack([Tensor(f) for f in frames]), params).frames[0].data
        shuffled = [frames[0]] + [frames[i] for i in (3, 1, 4, 2)]
        moved = tam_forward(
            FeatureStack([Tensor(f) for f in shuffled]), params).frames[0].data
        rel = np.max(np.abs(base - moved) / (np.abs(base) + np.abs(moved)
                                             + 1e-8))
        assert rel < 1e-5


class TestMetricAndLossAnchors:
    def test_surface_metrics_match_brute_force_on_100_random_masks(self):
        rng = np.random.default_rng(2024)
        shapes = [(16, 16), (12, 14), (16, 16, 16), (10, 12, 14), (8, 8)]
        for case in range(100):
            shape = shapes[case % len(shapes)]
            spacing = tuple(float(s)
                            for s in rng.uniform(0.5, 2.5, len(shape)))
            a = random_mask(rng, shape, spacing)
            b = random_mask(rng, shape, spacing)
            hd_want, masd_want = surface_metrics_oracle(a, b, 1)
            inter = np.logical_and(a.labels == 1, b.labels == 1).sum()
            dsc_want = 2.0 * inter / ((a.labels == 1).sum()
                                      + (b.labels == 1).sum())
            assert hausdorff(a, b, 1) == hd_want
            assert masd(a, b, 1) == masd_want
            assert dsc(a, b, 1) == dsc_want

        # 3-4-5 triangle: single pixels at (0,0) and (3,4), 1 mm spacing
        pa = np.zeros((5, 6), np.int64)
        pb = np.zeros((5, 6), np.int64)
        pa[0, 0] = 1
        pb[3, 4] = 1
        a = SegmentationMask(pa, (1.0, 1.0))
        b = SegmentationMask(pb, (1.0, 1.0))
        assert hausdorff(a, b, 1) == 5.0
        assert masd(a, b, 1) == 5.0

    def test_loss_anchors(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=(12, 12))
        truth = one_hot(labels, 3, dtype=np.float64)
        assert dice_ce_loss(Tensor(truth.data.copy()), truth).item() < 1e-3

        # uniform two-class predictions: each pixel contributes -log(1/2)
        # exactly once across the class planes, so the CE terms sum to
        # ln 2 no matter how the true labels are balanced
        for labels in (np.indices((8, 8)).sum(axis=0) % 2,
                       (np.arange(64).reshape(8, 8) < 13).astype(np.int64)):
            truth = one_hot(labels, 2, dtype=np.float64)
            probs = Tensor(np.full((2, 8, 8), 0.5))
            comps = loss_components(probs, truth)
            assert abs(sum(comps["cross_entropy"]) - math.log(2)) < 1e-6


class TestCostModel:
    def test_flop_ordering_and_counter_agreement(self):
        desk = BackboneConfig()
        flops = {cid: configuration_report(cid, desk, (64, 64), 2).total_flops
                 for cid in ("C1", "C2", "C3")}
        assert flops["C1"] < flops["C3"] < flops["C2"]

        # closed-form table vs the instrumented matmul/conv counter
        rng = np.random.default_rng(77)
        ids = list(CONFIGURATIONS)
        for _ in range(10):
            cid = ids[rng.integers(len(ids))]
            channels = tuple(int(c) for c in 4 * rng.integers(1, 4, size=5))
            heads = int(rng.choice((1, 2, 4)))
            t = int(rng.integers(2, 4))
            size = (32, 32) if rng.integers(2) else (16, 16)
            base = BackboneConfig(levels=5, channels=channels, heads=heads,
                                  classes=3)
            model = build_model(cid, base, rng)
            frames = [Tensor(rng.standard_normal((1,) + size)
                             .astype(np.float32)) for _ in range(t)]
            with count_macs() as counter:
                model.forward_logits(frames)
            assert counter.total == configuration_report(
                cid, base, size, t).total_macs


def _tree_bytes(root):
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestEndToEnd:
    def test_cross_time_attention_beats_baseline_on_degraded_frames(self, tmp_path):
        # the annotated frames carry signal dropout; the in-between frame is
        # clean, so only a model that can look across time recovers it
        t0 = time.monotonic()
        make_dataset(tmp_path / "ds", seed=0, size=32, frames=3, tier="poor",
                     counts={"train": 8, "val": 2, "test": 4},
                     dropout_target="annotated")
        seeds = (0, 1, 2)
        cells = [ExperimentConfig(
                     config_id=cid, frames=t, heads=4, steps=200, lr=1e-3,
                     seed=seed, dataset=str(tmp_path / "ds"), tier="poor",
                     outdir=str(tmp_path / f"{cid}_s{seed}"), levels=5,
                     channels=(8, 16, 32, 64, 128), eval_every=25)
                 for cid, t in (("C1", 2), ("C4", 3)) for seed in seeds]
        scores = {}
        for cfg, result in zip(cells, run_cells(cells)):
            agg = result["aggregate"]["classes"]
            # every class counts: a class with no HD (None) fails the gate
            scores[cfg.config_id, cfg.seed] = (
                float(np.mean([v["dsc_mean"] for v in agg.values()])),
                float(np.mean([v["hd_mm_mean"] for v in agg.values()])))
        c1_dsc = np.mean([scores["C1", s][0] for s in seeds])
        c4_dsc = np.mean([scores["C4", s][0] for s in seeds])
        hd_wins = sum(scores["C4", s][1] < scores["C1", s][1] for s in seeds)
        assert c4_dsc >= c1_dsc
        assert hd_wins >= 2
        assert time.monotonic() - t0 < 1800.0

    def test_rerun_with_identical_flags_is_byte_identical(self, tmp_path):
        gen = ["gen", "--size", "32", "--t", "2", "--tier", "good",
               "--train-cases", "2", "--val-cases", "1", "--test-cases", "1",
               "--seed", "0"]
        assert main(gen + ["--out", str(tmp_path / "ds_a")]) == 0
        assert main(gen + ["--out", str(tmp_path / "ds_b")]) == 0
        assert _tree_bytes(tmp_path / "ds_a") == _tree_bytes(tmp_path / "ds_b")

        # config.json records --out, so a true rerun reuses the directory
        tr = ["train", "--dataset", str(tmp_path / "ds_a"), "--config", "C1",
              "--t", "2", "--levels", "2", "--channels", "4,8", "--heads",
              "1", "--steps", "4", "--eval-every", "2", "--seed", "0",
              "--quiet", "--out", str(tmp_path / "run")]
        assert main(tr) == 0
        first = _tree_bytes(tmp_path / "run")
        assert main(tr) == 0
        assert _tree_bytes(tmp_path / "run") == first

        ev = ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint_best"),
              "--dataset", str(tmp_path / "ds_a"), "--split", "test",
              "--out", str(tmp_path / "ev")]
        assert main(ev) == 0
        first = _tree_bytes(tmp_path / "ev")
        assert main(ev) == 0
        assert _tree_bytes(tmp_path / "ev") == first
