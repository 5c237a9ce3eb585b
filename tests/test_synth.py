"""Sequence generator: determinism, geometry, degradations, disk format."""

import numpy as np
import pytest

from tamseg.errors import ValidationError
from tamseg.synth import (BACKGROUND, CAVITY, WALL, QUALITY_TIERS,
                          SequenceSpec, generate, load_dataset, write_dataset)
from tamseg.tnsr import (read_array, read_bundle, read_json, write_array,
                         write_bundle, write_json)

SMALL = dict(extents=(32, 32), frames=3)


def cavity_measure(mask) -> int:
    """Cavity voxel count: area in 2D, volume in 3D."""
    return int(mask.region(CAVITY).sum())


class TestSpecValidation:
    def test_extent_floor(self):
        with pytest.raises(ValidationError, match="32"):
            SequenceSpec(extents=(16, 64))
        with pytest.raises(ValidationError):
            SequenceSpec(extents=(64,))

    def test_frame_bounds(self):
        with pytest.raises(ValidationError):
            SequenceSpec(frames=1, **{"extents": (32, 32)})
        with pytest.raises(ValidationError):
            SequenceSpec(frames=17, **{"extents": (32, 32)})
        SequenceSpec(frames=16, extents=(32, 32))  # boundary is legal

    def test_contraction_bounds(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValidationError):
                SequenceSpec(contraction=bad, **SMALL)

    def test_dropout_target_names(self):
        with pytest.raises(ValidationError):
            SequenceSpec(dropout_target="sometimes", **SMALL)

    def test_dropout_size_floor(self):
        # 0 used to fall back to the default size and -3 to drop nothing
        for bad in (0, -3):
            with pytest.raises(ValidationError, match="dropout_size"):
                SequenceSpec(dropout_size=bad, **SMALL)
        assert SequenceSpec(dropout_size=1, **SMALL).dropout_size == 1

    def test_default_spacing_matches_rank(self):
        assert SequenceSpec(**SMALL).spacing == (1.0, 1.0)
        assert SequenceSpec(extents=(32, 32, 32)).spacing == (1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            SequenceSpec(spacing=(1.0,), **SMALL)

    def test_tier_presets(self):
        assert SequenceSpec.for_tier("good", **SMALL).noise_sigma == \
            QUALITY_TIERS["good"]["noise_sigma"]
        poor = SequenceSpec.for_tier("poor", **SMALL)
        assert poor.dropout_patches == 4
        with pytest.raises(ValidationError):
            SequenceSpec.for_tier("terrible")

    def test_json_round_trip(self):
        spec = SequenceSpec(seed=7, extents=(32, 48), frames=4,
                            noise_sigma=0.2, dropout_patches=1,
                            dropout_target="all", spacing=(1.5, 0.8))
        assert SequenceSpec.from_json_dict(spec.to_json_dict()) == spec


class TestGeneration:
    def test_bitwise_determinism(self):
        spec = SequenceSpec.for_tier("poor", seed=3, **SMALL)
        a, b = generate(spec), generate(spec)
        for ia, ib in zip(a.images, b.images):
            np.testing.assert_array_equal(ia, ib)
        for ma, mb in zip(a.masks, b.masks):
            np.testing.assert_array_equal(ma.labels, mb.labels)

    def test_seeds_differ(self):
        a = generate(SequenceSpec(seed=0, **SMALL))
        b = generate(SequenceSpec(seed=1, **SMALL))
        assert not np.array_equal(a.images[0], b.images[0])

    def test_frame_count_and_annotation(self):
        sample = generate(SequenceSpec(frames=5, extents=(32, 32)))
        assert sample.frames == 5
        assert sample.annotated == (0, 4)

    def test_images_normalized(self):
        sample = generate(SequenceSpec.for_tier("poor", seed=1, **SMALL))
        for img in sample.images:
            assert img.dtype == np.float32
            assert img.min() >= 0.0 and img.max() <= 1.0

    @pytest.mark.parametrize("extents", [(64, 64), (32, 32, 32)])
    def test_labels_complete(self, extents):
        sample = generate(SequenceSpec(seed=2, extents=extents))
        for mask in sample.masks:
            present = set(np.unique(mask.labels))
            assert present == {BACKGROUND, CAVITY, WALL}

    @pytest.mark.parametrize("extents", [(64, 64), (32, 32, 32)])
    def test_wall_isolates_cavity(self, extents):
        # no cavity voxel may touch background (or the array edge) by a face
        sample = generate(SequenceSpec(seed=3, extents=extents, frames=4))
        for mask in sample.masks:
            padded = np.pad(mask.labels, 1, constant_values=BACKGROUND)
            cav = padded == CAVITY
            bg = padded == BACKGROUND
            for ax in range(padded.ndim):
                assert not np.any(cav & np.roll(bg, 1, axis=ax))
                assert not np.any(cav & np.roll(bg, -1, axis=ax))

    def test_cavity_shrinks_monotonically(self):
        sample = generate(SequenceSpec(seed=4, extents=(64, 64), frames=6))
        sizes = [cavity_measure(m) for m in sample.masks]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] > sizes[-1]

    @pytest.mark.parametrize("extents,frames", [((64, 64), 5),
                                                ((32, 32, 32), 3)])
    def test_contraction_fraction_reached(self, extents, frames):
        # last/first cavity measure tracks (1 - contraction) up to voxel
        # quantization; observed deviation stays under 2%, gate at 5%
        for seed in range(5):
            spec = SequenceSpec(seed=seed, extents=extents, frames=frames,
                                contraction=0.35)
            sample = generate(spec)
            ratio = (cavity_measure(sample.masks[-1])
                     / cavity_measure(sample.masks[0]))
            assert abs(ratio / 0.65 - 1.0) < 0.05


class TestDropout:
    def test_none_target_leaves_no_zeros(self):
        spec = SequenceSpec(seed=5, dropout_patches=4,
                            dropout_target="none", noise_sigma=0.3, **SMALL)
        for img in generate(spec).images:
            assert np.count_nonzero(img == 0.0) == 0

    def test_all_target_zeroes_patches(self):
        spec = SequenceSpec(seed=5, dropout_patches=2, dropout_size=6,
                            dropout_target="all", noise_sigma=0.3, **SMALL)
        for img in generate(spec).images:
            assert np.count_nonzero(img == 0.0) >= 36  # one full patch at least

    def test_annotated_target_hits_only_endpoints(self):
        spec = SequenceSpec(seed=6, frames=4, extents=(32, 32),
                            dropout_patches=3, dropout_target="annotated",
                            noise_sigma=0.2)
        sample = generate(spec)
        for t, img in enumerate(sample.images):
            zeros = np.count_nonzero(img == 0.0)
            if t in sample.annotated:
                assert zeros > 0
            else:
                assert zeros == 0

    def test_untargeted_frames_unchanged_by_targeting(self):
        # patch placement is drawn for every frame, so switching the target
        # set must not disturb the pixels of frames outside it
        base = dict(seed=7, frames=4, extents=(32, 32), dropout_patches=3,
                    noise_sigma=0.2)
        none = generate(SequenceSpec(dropout_target="none", **base))
        ann = generate(SequenceSpec(dropout_target="annotated", **base))
        unann = generate(SequenceSpec(dropout_target="unannotated", **base))
        for t in range(4):
            if t in (0, 3):
                np.testing.assert_array_equal(none.images[t], unann.images[t])
            else:
                np.testing.assert_array_equal(none.images[t], ann.images[t])

    def test_masks_ignore_degradation(self):
        base = dict(seed=8, **SMALL)
        clean = generate(SequenceSpec(noise_sigma=0.0, **base))
        noisy = generate(SequenceSpec.for_tier("poor", **base))
        for mc, mn in zip(clean.masks, noisy.masks):
            np.testing.assert_array_equal(mc.labels, mn.labels)


class TestDatasetOnDisk:
    def test_round_trip(self, tmp_path):
        splits = {
            "train": [SequenceSpec(seed=s, **SMALL) for s in range(2)],
            "test": [SequenceSpec(seed=9, spacing=(1 / 3, 0.7), **SMALL),
                     SequenceSpec(seed=4, extents=(32, 32, 32), frames=2,
                                  spacing=(2.0, 1.0, 0.3))],
        }
        write_dataset(tmp_path / "ds", splits)
        loaded = load_dataset(tmp_path / "ds")
        assert sorted(loaded) == ["test", "train"]
        assert len(loaded["train"]) == 2

        for spec, got in zip(splits["test"], loaded["test"]):
            want = generate(spec)
            assert got.annotated == want.annotated
            assert got.spec == spec
            for a, b in zip(got.images, want.images):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(got.masks, want.masks):
                np.testing.assert_array_equal(a.labels, b.labels)
                assert a.labels.dtype == np.uint8
                # exact: the spec is the one record of spacing
                assert a.spacing == spec.spacing

    def test_layout(self, tmp_path):
        specs = [SequenceSpec(**SMALL), SequenceSpec(seed=1, extents=(32, 40), frames=2)]
        write_dataset(tmp_path / "ds", {"val": specs[1:], "train": specs[:1]})
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [
            "frames.tnsr", "manifest.json", "masks.tnsr"]
        manifest = read_json(tmp_path / "ds" / "manifest.json")
        assert manifest["version"] == 2
        (case,) = manifest["splits"]["train"]
        assert sorted(case) == ["annotated", "id", "spec"]
        # split name, case, frame: train's 3 frames of 32x32, then val's 2 of 32x40
        want = [generate(spec) for spec in specs]
        for name, dtype, field in (("frames.tnsr", np.float32, "images"),
                                   ("masks.tnsr", np.uint8, "masks")):
            flat = read_array(tmp_path / "ds" / name)
            assert flat.dtype == dtype and flat.shape == (3 * 32 * 32 + 2 * 32 * 40,)
            arrays = [getattr(a, "labels", a) for sample in want
                      for a in getattr(sample, field)]
            np.testing.assert_array_equal(flat, np.concatenate([a.ravel() for a in arrays]))

    @pytest.mark.parametrize("manifest, match", [
        ({"format": "other"}, "synth dataset manifest"),
        ({"format": "synth-dataset", "version": 1, "splits": {}}, "version 1")])
    def test_rejects_foreign_manifest(self, tmp_path, manifest, match):
        (tmp_path / "ds").mkdir()
        write_json(tmp_path / "ds" / "manifest.json", manifest)
        with pytest.raises(ValidationError, match=match) as info:
            load_dataset(tmp_path / "ds")
        assert str(tmp_path / "ds") in str(info.value)

    def test_rerun_is_byte_identical(self, tmp_path):
        splits = {"train": [SequenceSpec(seed=1, **SMALL)]}
        write_dataset(tmp_path / "a", splits)
        write_dataset(tmp_path / "b", splits)
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()


class TestDatasetRewrite:
    """A dataset written over an earlier one replaces its three files."""

    def test_only_the_new_manifest_files_remain(self, tmp_path):
        root = tmp_path / "ds"
        write_dataset(root, {"train": [SequenceSpec(seed=s, **SMALL) for s in range(2)]})
        write_dataset(root, {"train": [SequenceSpec(seed=5, extents=(32, 32), frames=2)]})
        assert sorted(p.name for p in root.iterdir()) == [
            "frames.tnsr", "manifest.json", "masks.tnsr"]
        (sample,) = load_dataset(root)["train"]
        assert sample.spec.seed == 5 and sample.frames == 2


class TestForeignManifestRefused:
    """A directory whose manifest.json is not a synth dataset's is left alone."""

    @staticmethod
    def _refused(root):
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        with pytest.raises(ValidationError, match="manifest.json"):
            write_dataset(root, {"train": [SequenceSpec(seed=1, **SMALL)]})
        assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before

    def test_checkpoint_bundle_still_loads(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(2, 3)}
        write_bundle(tmp_path / "ck", arrays, {"step": 3})
        self._refused(tmp_path / "ck")
        loaded, meta = read_bundle(tmp_path / "ck")
        np.testing.assert_array_equal(loaded["w"], arrays["w"])
        assert meta == {"step": 3}

    @pytest.mark.parametrize("text", [
        "{not json", "[]", '{"format": "other"}',
        '{"format": "synth-dataset", "version": 1, "splits": {}}'])
    def test_unreadable_or_foreign_manifest(self, tmp_path, text):
        (tmp_path / "ds").mkdir()
        (tmp_path / "ds" / "manifest.json").write_text(text)
        self._refused(tmp_path / "ds")


class TestDatasetRejects:
    """Hand-edited copies of a written dataset fail with the case or file named."""

    @staticmethod
    def _rejects(tmp_path, change, match, where="train_001"):
        root = tmp_path / "ds"
        write_dataset(root, {"train": [SequenceSpec(seed=s, **SMALL)
                                       for s in range(2)]})
        manifest = read_json(root / "manifest.json")
        change(root, manifest["splits"]["train"][1])
        write_json(root / "manifest.json", manifest)
        with pytest.raises(ValidationError, match=match) as info:
            load_dataset(root)
        assert where in str(info.value)

    @pytest.mark.parametrize("key", ["spec", "annotated"])
    def test_missing_key(self, tmp_path, key):
        self._rejects(tmp_path, lambda root, case: case.pop(key), key)

    # two cases of three 32x32 frames: 6144 elements per payload
    @pytest.mark.parametrize("name, damage, match", [
        ("frames.tnsr", "cut_bytes", "payload size"),
        ("masks.tnsr", "cut_bytes", "payload size"),
        ("frames.tnsr", "one_short", "hold 6144 elements"),
        ("masks.tnsr", "one_long", "hold 6144 elements"),
        ("frames.tnsr", "spec_extents", "hold 6912 elements")])
    def test_truncated_file(self, tmp_path, name, damage, match):
        def change(root, case):
            path = root / name
            flat = read_array(path)
            if damage == "cut_bytes":
                path.write_bytes(path.read_bytes()[:-5])
            elif damage == "one_short":
                write_array(path, flat[:-1])
            elif damage == "one_long":
                write_array(path, np.append(flat, flat[:1]))
            else:
                case["spec"]["extents"] = [32, 40]
        self._rejects(tmp_path, change, match, name)

    def test_float_mask_rejected(self, tmp_path):
        # a cast to int would silently relabel 0.7 as 0 and 1.4 as 1
        def change(root, case):
            labels = read_array(root / "masks.tnsr").astype(np.float32)
            labels[:8] = 0.7
            labels[8:16] = 1.4
            write_array(root / "masks.tnsr", labels)
        self._rejects(tmp_path, change, "masks.tnsr holds float32", "masks.tnsr")

    def test_u8_frame_rejected(self, tmp_path):
        def change(root, case):
            write_array(root / "frames.tnsr", np.ones(6 * 32 * 32, np.uint8))
        self._rejects(tmp_path, change, "frames.tnsr holds uint8", "frames.tnsr")

    @pytest.mark.parametrize("key, value, match", [
        ("annotated", ["0"], "annotated"),
        ("spec", [64, 64], "sequence")])
    def test_entry_of_the_wrong_type(self, tmp_path, key, value, match):
        self._rejects(tmp_path, lambda root, case: case.update({key: value}), match)

    @pytest.mark.parametrize("key, value, match", [
        ("speckle", 0.5, "speckle"),
        ("spacing", ["a", "b"], "float"),
        ("spacing", [None, 1.0], "float"),
        ("dropout_size", 0, "dropout_size"),
        ("dropout_size", -3, "dropout_size")])
    def test_spec_refused(self, tmp_path, key, value, match):
        self._rejects(tmp_path, lambda root, case: case["spec"].update({key: value}),
                      match)

    def test_annotated_frame_outside_spec(self, tmp_path):
        self._rejects(tmp_path, lambda root, case: case.update(annotated=[0, 3]),
                      "annotated")
