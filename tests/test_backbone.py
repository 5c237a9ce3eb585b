"""Backbone wiring: frame independence, slot coupling, and the config table."""

import numpy as np
import pytest

from tamseg.errors import ShapeError, ValidationError
from tamseg.tensor import Tensor
from tamseg.unet import (CONFIGURATIONS, BackboneConfig, TimeConvUNet,
                         UNetBackbone, build_model, list_configurations,
                         valid_slots)

SMALL = BackboneConfig(levels=3, channels=(4, 8, 16), heads=2)


def small_frames(rng, t=2, size=16, channels=1):
    return [Tensor(rng.standard_normal((channels, size, size)).astype(np.float32))
            for _ in range(t)]


class TestConfigValidation:
    def test_valid_slots(self):
        assert valid_slots(3) == {"E1", "E2", "E3", "D1", "D2"}
        assert "D5" not in valid_slots(5)
        assert "E5" in valid_slots(5)

    def test_channels_must_match_levels(self):
        with pytest.raises(ValidationError):
            BackboneConfig(levels=4, channels=(4, 8, 16))

    def test_unknown_slot_rejected(self):
        with pytest.raises(ValidationError, match="slot"):
            BackboneConfig(levels=3, channels=(4, 8, 16),
                           insertion_set=frozenset({"E5"}))
        with pytest.raises(ValidationError):
            BackboneConfig(insertion_set=frozenset({"D5"}))

    def test_slot_channels_and_d_embed(self):
        cfg = BackboneConfig(insertion_set=frozenset({"E5", "D4"}))
        assert cfg.slot_channels("E5") == 256
        assert cfg.slot_channels("D4") == 128
        assert cfg.tam_config("E5").d_embed == 256  # defaults to slot width
        cfg2 = BackboneConfig(insertion_set=frozenset({"E5"}), d_embed=64)
        assert cfg2.tam_config("E5").d_embed == 64


class TestModelClasses:
    def test_public_classes_are_siblings(self):
        # The benchmark tracer wraps ``forward`` on UNetBackbone and on
        # TimeConvUNet. If one inherited it from the other, every C2 forward
        # would be wrapped, and timed, twice.
        assert UNetBackbone is not TimeConvUNet
        assert not issubclass(UNetBackbone, TimeConvUNet)
        assert not issubclass(TimeConvUNet, UNetBackbone)


class TestConfigurationTable:
    def test_exact_insertion_sets(self):
        want = {
            "C1": set(), "C3": {"E5"}, "C4": {"E4", "E5"},
            "C5": {"E3", "E4", "E5"}, "C6": {"E5", "D4"},
            "C7": {"E5", "D3", "D4"}, "C8": {"E4", "E5", "D4"},
            "C9": {"E4", "E5", "D3", "D4"}, "C10": {"E3", "E4", "E5", "D4"},
            "C11": {"E3", "E4", "E5", "D3", "D4"},
        }
        for cid, slots in want.items():
            assert set(CONFIGURATIONS[cid].slots) == slots, cid
            assert not CONFIGURATIONS[cid].time_conv
        assert CONFIGURATIONS["C2"].time_conv
        assert not CONFIGURATIONS["C2"].slots

    def test_listing_is_ordered(self):
        ids = [c.config_id for c in list_configurations()]
        assert ids == [f"C{i}" for i in range(1, 12)]

    def test_build_model_types(self):
        rng = np.random.default_rng(0)
        assert isinstance(build_model("C1", SMALL, rng), UNetBackbone)
        assert isinstance(build_model("C2", SMALL, rng), TimeConvUNet)
        with pytest.raises(ValidationError):
            build_model("C99", SMALL, rng)


class TestForwardShapes:
    def test_logits_shape_contract(self):
        rng = np.random.default_rng(1)
        cfg = BackboneConfig(levels=3, channels=(4, 8, 16), classes=4)
        model = UNetBackbone(cfg, rng)
        out = model.forward_logits(small_frames(rng, t=2))
        assert [o.shape for o in out] == [(4, 16, 16)] * 2

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        model = UNetBackbone(SMALL, rng)
        probs = model.forward(small_frames(rng, t=3))
        for p in probs:
            np.testing.assert_allclose(p.data.sum(axis=0),
                                       np.ones((16, 16)), atol=1e-6)

    def test_extent_divisibility_enforced(self):
        rng = np.random.default_rng(3)
        model = UNetBackbone(SMALL, rng)
        with pytest.raises(ShapeError, match="divisible"):
            model.forward_logits(small_frames(rng, size=18))

    def test_channel_mismatch(self):
        rng = np.random.default_rng(4)
        model = UNetBackbone(SMALL, rng)
        with pytest.raises(ShapeError):
            model.forward_logits(small_frames(rng, channels=2))

    def test_frame_shape_mismatch(self):
        rng = np.random.default_rng(5)
        model = UNetBackbone(SMALL, rng)
        frames = small_frames(rng) + [Tensor(np.zeros((1, 32, 32), np.float32))]
        with pytest.raises(ShapeError):
            model.forward_logits(frames)

    def test_slots_require_two_frames(self):
        rng = np.random.default_rng(6)
        cfg = BackboneConfig(levels=3, channels=(4, 8, 16), heads=2,
                             insertion_set=frozenset({"E3"}))
        model = UNetBackbone(cfg, rng)
        with pytest.raises(ValidationError):
            model.forward_logits(small_frames(rng, t=1))

    @pytest.mark.parametrize("t", [1, 6])
    def test_frame_count_outside_contract(self, t):
        # the parallel-frame design is specified for 2 to 5 frames
        rng = np.random.default_rng(61)
        model = UNetBackbone(SMALL, rng)
        with pytest.raises(ValidationError, match="2 to 5"):
            model.forward_logits(small_frames(rng, t=t))


class TestFrameCoupling:
    @pytest.mark.parametrize("training", [False, True])
    def test_baseline_frames_are_independent(self, training):
        # no insertion slots: frame 0's logits are a pure function of frame 0
        rng = np.random.default_rng(7)
        model = UNetBackbone(SMALL, rng)
        f0, f1 = small_frames(rng)
        base = model.forward_logits([f0, f1], training)[0].data.copy()
        again = model.forward_logits([f0, small_frames(rng)[0]],
                                     training)[0].data
        np.testing.assert_array_equal(base, again)  # bitwise, not approx

    def test_slotted_frames_are_coupled(self):
        # training mode: batch-stat norm keeps features at scale, which is
        # what the attention sees during fitting. Fresh random frame rather
        # than a constant shift, which the first norm layer would absorb.
        rng = np.random.default_rng(8)
        cfg = BackboneConfig(levels=3, channels=(4, 8, 16), heads=2,
                             insertion_set=frozenset({"E3"}))
        model = UNetBackbone(cfg, rng)
        f0, f1 = small_frames(rng)
        base = model.forward_logits([f0, f1], training=True)[0].data.copy()
        again = model.forward_logits([f0, small_frames(rng)[0]],
                                     training=True)[0].data
        assert np.max(np.abs(base - again)) > 1e-6

    def test_decoder_slot_couples_too(self):
        rng = np.random.default_rng(9)
        cfg = BackboneConfig(levels=3, channels=(4, 8, 16), heads=2,
                             insertion_set=frozenset({"D2"}))
        model = UNetBackbone(cfg, rng)
        f0, f1 = small_frames(rng)
        base = model.forward_logits([f0, f1], training=True)[0].data.copy()
        again = model.forward_logits([f0, small_frames(rng)[0]],
                                     training=True)[0].data
        assert np.max(np.abs(base - again)) > 1e-6


class TestParameterCounts:
    def test_slot_monotonicity(self):
        # each added slot adds one module's parameters: C3 < C4 < C5
        base = BackboneConfig(levels=5, channels=(4, 8, 12, 16, 20), heads=1)
        rng = np.random.default_rng(10)
        counts = {cid: build_model(cid, base, rng).parameter_count()
                  for cid in ("C1", "C3", "C4", "C5")}
        assert counts["C1"] < counts["C3"] < counts["C4"] < counts["C5"]

    def test_time_conv_exceeds_2d_baseline(self):
        rng = np.random.default_rng(11)
        c1 = build_model("C1", SMALL, rng).parameter_count()
        c2 = build_model("C2", SMALL, rng).parameter_count()
        assert c2 > c1

    def test_count_matches_named_parameters(self):
        rng = np.random.default_rng(12)
        model = UNetBackbone(SMALL, rng)
        assert model.parameter_count() == sum(
            t.size for t in model.named_parameters().values())


class TestTimeConvBaseline:
    def test_shape_contract(self):
        rng = np.random.default_rng(13)
        model = TimeConvUNet(BackboneConfig(levels=3, channels=(4, 8, 16),
                                            classes=4), rng)
        out = model.forward_logits(small_frames(rng, t=2))
        assert [o.shape for o in out] == [(4, 16, 16)] * 2

    def test_rejects_3d_and_slots(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValidationError):
            TimeConvUNet(BackboneConfig(spatial_rank=3, levels=3,
                                        channels=(4, 8, 16)), rng)
        with pytest.raises(ValidationError):
            TimeConvUNet(BackboneConfig(levels=3, channels=(4, 8, 16), heads=2,
                                        insertion_set=frozenset({"E3"})), rng)

    def test_frame_count_outside_contract(self):
        rng = np.random.default_rng(62)
        model = TimeConvUNet(BackboneConfig(levels=3, channels=(4, 8, 16)), rng)
        with pytest.raises(ValidationError, match="2 to 5"):
            model.forward_logits(small_frames(rng, t=6))

    def test_frame_rank_checked(self):
        # C2 shares the backbone's frame check, so a wrong-rank frame is
        # refused before any convolution runs
        rng = np.random.default_rng(63)
        model = build_model("C2", SMALL, rng)
        frames = [Tensor(np.zeros((1, 1, 16, 16), np.float32))] * 2
        with pytest.raises(ShapeError, match="frame 0 has rank 4"):
            model.forward_logits(frames)

    def test_center_slice_kernels_reduce_to_2d(self):
        # zero every time-kernel slice except the center: the 3D model must
        # reproduce the plain 2D backbone frame for frame in eval mode
        cfg = BackboneConfig(levels=3, channels=(4, 8, 16))
        rng = np.random.default_rng(15)
        flat = UNetBackbone(cfg, rng, dtype=np.float64)
        cube = TimeConvUNet(cfg, np.random.default_rng(16), dtype=np.float64)

        flat_params = flat.named_parameters()
        for name, t3 in cube.named_parameters().items():
            t2 = flat_params[name]
            if t3.ndim == 5:
                w = np.zeros(t3.shape)
                center = (t3.shape[2] - 1) // 2
                w[:, :, center] = t2.data
                t3.data = w
            else:
                t3.data = t2.data.copy()
        cube.load_state_arrays(flat.state_arrays())

        rng_in = np.random.default_rng(17)
        frames = [Tensor(rng_in.standard_normal((1, 16, 16))) for _ in range(3)]
        got = cube.forward_logits(frames, training=False)
        want = flat.forward_logits(frames, training=False)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g.data, w.data, atol=1e-12)

    def test_time_mixing_exists(self):
        # with real (untrimmed) kernels the baseline couples frames
        rng = np.random.default_rng(18)
        model = TimeConvUNet(SMALL, rng)
        f0, f1 = small_frames(rng)
        base = model.forward_logits([f0, f1], training=True)[0].data.copy()
        again = model.forward_logits([f0, small_frames(rng)[0]],
                                     training=True)[0].data
        assert np.max(np.abs(base - again)) > 1e-6


class TestCheckpointing:
    @pytest.mark.parametrize("cid", ["C1", "C2", "C3"])
    def test_round_trip_preserves_outputs(self, cid):
        base = BackboneConfig(levels=5, channels=(2, 4, 6, 8, 10), heads=1)
        rng = np.random.default_rng(19)
        model = build_model(cid, base, rng)
        frames = small_frames(rng, t=2, size=32)
        before = model.forward_logits(frames)[0].data.copy()

        arrays = model.to_arrays()
        twin = build_model(cid, base, np.random.default_rng(999))
        twin.load_arrays(arrays)
        after = twin.forward_logits(frames)[0].data
        np.testing.assert_array_equal(before, after)

    def test_missing_tensor_rejected(self):
        rng = np.random.default_rng(20)
        model = UNetBackbone(SMALL, rng)
        arrays = model.to_arrays()
        del arrays["head.w"]
        with pytest.raises(ValidationError, match="head.w"):
            model.load_arrays(arrays)

    def test_named_parameters_cover_slots(self):
        rng = np.random.default_rng(21)
        cfg = BackboneConfig(levels=3, channels=(4, 8, 16), heads=2,
                             insertion_set=frozenset({"E3", "D2"}))
        names = set(UNetBackbone(cfg, rng).named_parameters())
        assert "tam.E3.w_q" in names
        assert "tam.D2.w_o" in names
        assert "enc1.a.w" in names
        assert "dec2.up.w" in names
