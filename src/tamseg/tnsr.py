"""The TNSR portable tensor file format and the bundle layout built on it.

A ``.tnsr`` file is: magic bytes ``TNSR``, u8 version (1), u8 dtype code
(0=float32, 1=float64, 2=uint8), u8 ndim, then ndim little-endian u32
extents, then the row-major little-endian payload. Checkpoints use it, and
so do synthetic datasets, for frames and for u8 label masks alike.

A *bundle* is a directory holding one ``.tnsr`` file per named array plus a
``manifest.json`` with the name->file map and arbitrary structured metadata.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

MAGIC = b"TNSR"
VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_KIND_TO_CODE = {("f", 4): 0, ("f", 8): 1, ("u", 1): 2}


def write_array(path: str | Path, arr: np.ndarray) -> None:
    """Write one array as a TNSR file (atomically: temp file then rename)."""
    # asarray keeps 0-d arrays 0-d; ascontiguousarray would make them (1,)
    arr = np.asarray(arr, order="C")
    code = _KIND_TO_CODE.get((arr.dtype.kind, arr.dtype.itemsize))
    if code is None:
        raise ValueError(f"TNSR cannot store dtype {arr.dtype}; use f32, f64, or u8")
    if arr.ndim > 255:
        raise ValueError("TNSR supports at most 255 dimensions")
    header = MAGIC + bytes([VERSION, code, arr.ndim])
    extents = np.asarray(arr.shape, dtype="<u4").tobytes()
    payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    _atomic_write_bytes(Path(path), header + extents + payload)


def read_array(path: str | Path) -> np.ndarray:
    """Read one TNSR file into a native-endian array."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a TNSR file (bad magic {raw[:4]!r})")
    if len(raw) < 7 or len(raw) < 7 + 4 * raw[6]:
        raise ValueError(f"{path}: truncated TNSR header")
    version, code, ndim = raw[4], raw[5], raw[6]
    if version != VERSION:
        raise ValueError(f"{path}: unsupported TNSR version {version}")
    if code not in _CODE_TO_DTYPE:
        raise ValueError(f"{path}: unknown dtype code {code}")
    offset = 7 + 4 * ndim
    extents = tuple(int(e) for e in np.frombuffer(raw, dtype="<u4", count=ndim,
                                                   offset=7))
    dtype = _CODE_TO_DTYPE[code]
    count = math.prod(extents)
    # checked before the payload is viewed, so a truncated file names itself
    if len(raw) != offset + count * dtype.itemsize:
        raise ValueError(f"{path}: payload size {len(raw) - offset} does not match "
                         f"extents {extents}")
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(extents)
    return np.asarray(arr.astype(arr.dtype.newbyteorder("="), copy=True), order="C")


def _atomic_write_bytes(path: Path, blob: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path):
    return json.loads(Path(path).read_text())


def write_bundle(directory: str | Path, arrays: dict[str, np.ndarray],
                 meta: dict | None = None) -> None:
    """Write named arrays plus metadata as a TNSR bundle directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in sorted(arrays):
        fname = name.replace("/", "_") + ".tnsr"
        write_array(directory / fname, arrays[name])
        files[name] = fname
    write_json(directory / "manifest.json",
               {"format": "tnsr-bundle", "version": VERSION,
                "tensors": files, "meta": meta or {}})


def read_bundle(directory: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a TNSR bundle back into (arrays, metadata).

    A manifest of the wrong JSON types, or one that names a tensor file
    other than a plain file name inside the bundle, raises ``ValueError``.
    """
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json")
    if not isinstance(manifest, dict) or manifest.get("format") != "tnsr-bundle":
        raise ValueError(f"{directory}: not a TNSR bundle")
    files, meta = manifest["tensors"], manifest.get("meta", {})
    if not isinstance(files, dict) or not all(isinstance(f, str) for f in files.values()):
        raise ValueError(f"{directory}: manifest 'tensors' is not an object of file names")
    if not isinstance(meta, dict):
        raise ValueError(f"{directory}: manifest 'meta' is not an object")
    for fname in files.values():
        if "/" in fname or fname in ("", ".", ".."):
            raise ValueError(f"{directory}: tensor file {fname!r} is not a plain "
                             "file name inside the bundle")
    arrays = {name: read_array(directory / fname) for name, fname in files.items()}
    return arrays, meta
