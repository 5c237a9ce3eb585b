"""Round-trips and failure modes of the tensor file format and bundles."""

import numpy as np
import pytest

from tamseg.tnsr import (read_array, read_bundle, read_json, write_array,
                         write_bundle, write_json)


def _bundle(**manifest):
    """A version-2 bundle manifest of one 2-element tensor, with ``manifest`` changed."""
    return {"format": "tnsr-bundle", "version": 2, "tensors": [["a", [2]]], "meta": {},
            **manifest}


class TestArrayRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    def test_dtypes_survive(self, tmp_path, dtype):
        rng = np.random.default_rng(1)
        arr = (rng.integers(0, 200, size=(3, 5, 2)).astype(dtype)
               if dtype == np.uint8 else
               rng.normal(size=(3, 5, 2)).astype(dtype))
        path = tmp_path / "a.tnsr"
        write_array(path, arr)
        back = read_array(path)
        assert back.dtype == np.dtype(dtype)
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_scalar_and_1d(self, tmp_path):
        write_array(tmp_path / "s.tnsr", np.float64(3.25))
        assert read_array(tmp_path / "s.tnsr").shape == ()
        write_array(tmp_path / "v.tnsr", np.arange(4, dtype=np.float32))
        np.testing.assert_array_equal(read_array(tmp_path / "v.tnsr"),
                                      [0, 1, 2, 3])

    def test_rejects_unsupported_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_array(tmp_path / "x.tnsr", np.arange(3, dtype=np.int64))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.tnsr"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_array(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.tnsr"
        write_array(p, np.ones((4, 4), dtype=np.float32))
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="size"):
            read_array(p)

    @pytest.mark.parametrize("keep", [5, 7, 10])
    def test_truncated_header(self, tmp_path, keep):
        p = tmp_path / "h.tnsr"
        write_array(p, np.ones((4, 4), dtype=np.float32))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated TNSR header"):
            read_array(p)

    def test_write_is_atomic(self, tmp_path):
        # a failed write must never leave a half-written file behind
        p = tmp_path / "keep.tnsr"
        write_array(p, np.ones(3, dtype=np.float32))
        before = p.read_bytes()
        with pytest.raises(ValueError):
            write_array(p, np.arange(5, dtype=np.int32))
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]  # no stray temp files

    def test_big_endian_input_normalized(self, tmp_path):
        arr = np.arange(6, dtype=">f8").reshape(2, 3)
        write_array(tmp_path / "e.tnsr", arr)
        back = read_array(tmp_path / "e.tnsr")
        np.testing.assert_array_equal(back, arr.astype("<f8"))
        assert back.dtype.byteorder in ("=", "<")


class TestBundles:
    def test_bundle_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = {"enc1.w": rng.normal(size=(4, 1, 3, 3)).astype(np.float32),
                  "head.b": rng.normal(size=3).astype(np.float32)}
        meta = {"step": 17, "val_loss": 0.25}
        write_bundle(tmp_path / "ckpt", arrays, meta)
        back, got_meta = read_bundle(tmp_path / "ckpt")
        assert set(back) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(back[name], arrays[name])
        assert got_meta == meta

    def test_names_that_differ_only_in_a_slash_keep_their_arrays(self, tmp_path):
        arrays = {"a/b": np.zeros(2, dtype=np.float32),
                  "a_b": np.ones((1, 3), dtype=np.float32)}
        write_bundle(tmp_path / "b", arrays)
        back, _ = read_bundle(tmp_path / "b")
        assert sorted(back) == ["a/b", "a_b"]
        for name, want in arrays.items():
            assert back[name].shape == want.shape
            np.testing.assert_array_equal(back[name], want)

    def test_layout_is_a_manifest_and_one_payload(self, tmp_path):
        write_bundle(tmp_path / "b", {"w": np.ones((2, 3)), "b": np.zeros(0)}, {"k": 1})
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "manifest.json", "tensors.tnsr"]
        manifest = read_json(tmp_path / "b" / "manifest.json")
        assert manifest["version"] == 2
        assert manifest["tensors"] == [["b", [0]], ["w", [2, 3]]]
        flat = read_array(tmp_path / "b" / "tensors.tnsr")
        assert flat.shape == (6,) and flat.dtype == np.float64

    def test_mixed_dtypes_refused_before_any_file(self, tmp_path):
        with pytest.raises(ValueError, match="one dtype"):
            write_bundle(tmp_path / "b", {"a": np.zeros(2, np.float32),
                                          "b": np.zeros(2, np.float64)})
        assert not (tmp_path / "b").exists()

    def test_non_bundle_dir_rejected(self, tmp_path):
        write_json(tmp_path / "d" / "manifest.json", {"format": "other"})
        with pytest.raises(ValueError):
            read_bundle(tmp_path / "d")

    @pytest.mark.parametrize("manifest, payload, match", [
        (["tnsr-bundle"], 2, "not a TNSR bundle"),
        (_bundle(version=1, tensors={"a": "a.tnsr"}), 2, "version 1"),
        (_bundle(version=None), 2, "version None"),
        (_bundle(tensors={"a": "tensors.tnsr"}), 2, "tensors"),
        (_bundle(tensors=["a"]), 2, "tensors"),
        (_bundle(tensors=[["a", [2], "x"]]), 2, "tensors"),
        (_bundle(tensors=[[3, [2]]]), 2, "tensors"),
        (_bundle(tensors=[["a", 2]]), 2, "tensors"),
        (_bundle(tensors=[["a", [True, 2]]]), 2, "tensors"),
        (_bundle(tensors=[["a", [-1]]]), 2, "tensors"),
        (_bundle(tensors=[["a", [2.0]]]), 2, "tensors"),
        (_bundle(tensors=[["a", [1]], ["a", [1]]]), 2, "twice"),
        (_bundle(meta=[]), 2, "meta"),
        (_bundle(), 1, "hold 2 elements"),
        (_bundle(), 3, "hold 2 elements"),
        (_bundle(), "truncated", "payload size"),
    ])
    def test_hostile_manifest_types_rejected(self, tmp_path, manifest, payload, match):
        path = tmp_path / "d" / "tensors.tnsr"
        if payload == "truncated":
            write_array(path, np.zeros(2, dtype=np.float32))
            path.write_bytes(path.read_bytes()[:-1])
        else:
            write_array(path, np.zeros(payload, dtype=np.float32))
        write_json(tmp_path / "d" / "manifest.json", manifest)
        with pytest.raises(ValueError, match=match):
            read_bundle(tmp_path / "d")


class TestJson:
    def test_round_trip_and_key_order(self, tmp_path):
        p = tmp_path / "r.json"
        write_json(p, {"b": 1, "a": [1, 2], "nested": {"z": None}})
        assert read_json(p) == {"a": [1, 2], "b": 1, "nested": {"z": None}}
        text = p.read_text()
        assert text.index('"a"') < text.index('"b"')  # sorted keys, stable bytes

