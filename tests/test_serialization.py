"""Round-trips and failure modes of the tensor file format and bundles."""

import numpy as np
import pytest

from tamseg.tnsr import (read_array, read_bundle, read_json, write_array,
                         write_bundle, write_json)


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

    def test_bundle_name_sanitization(self, tmp_path):
        write_bundle(tmp_path / "b", {"a/b": np.zeros(1, dtype=np.float32)})
        arrays, _ = read_bundle(tmp_path / "b")
        assert "a/b" in arrays

    def test_non_bundle_dir_rejected(self, tmp_path):
        write_json(tmp_path / "d" / "manifest.json", {"format": "other"})
        with pytest.raises(ValueError):
            read_bundle(tmp_path / "d")

    @pytest.mark.parametrize("manifest", [
        ["tnsr-bundle"],
        {"format": "tnsr-bundle", "tensors": ["a"], "meta": {}},
        {"format": "tnsr-bundle", "tensors": {"a": 3}, "meta": {}},
        {"format": "tnsr-bundle", "tensors": {"a": "a.tnsr"}, "meta": []},
        {"format": "tnsr-bundle", "tensors": {"a": "../a.tnsr"}, "meta": {}},
        {"format": "tnsr-bundle", "tensors": {"a": "sub/a.tnsr"}, "meta": {}},
        {"format": "tnsr-bundle", "tensors": {"a": ".."}, "meta": {}},
    ])
    def test_hostile_manifest_types_rejected(self, tmp_path, manifest):
        write_array(tmp_path / "a.tnsr", np.zeros(1, dtype=np.float32))
        write_array(tmp_path / "d" / "sub" / "a.tnsr", np.zeros(1, dtype=np.float32))
        write_json(tmp_path / "d" / "manifest.json", manifest)
        with pytest.raises(ValueError):
            read_bundle(tmp_path / "d")


class TestJson:
    def test_round_trip_and_key_order(self, tmp_path):
        p = tmp_path / "r.json"
        write_json(p, {"b": 1, "a": [1, 2], "nested": {"z": None}})
        assert read_json(p) == {"a": [1, 2], "b": 1, "nested": {"z": None}}
        text = p.read_text()
        assert text.index('"a"') < text.index('"b"')  # sorted keys, stable bytes

