"""The TNSR portable tensor file format and the bundle layout built on it.

A ``.tnsr`` file is: magic bytes ``TNSR``, u8 version (1), u8 dtype code
(0=float32, 1=float64, 2=uint8), u8 ndim, then ndim little-endian u32
extents, then the row-major little-endian payload.

A *flat payload* is a 1-D ``.tnsr`` file holding the concatenation of
same-dtype arrays. Its reader supplies their order and shapes, so offsets
follow from the sizes and two arrays cannot overlap.

A *bundle* (a checkpoint) is a directory of two files: ``tensors.tnsr``,
the flat payload of its named arrays in sorted-name order, and
``manifest.json``: format ``tnsr-bundle``, version 2, ``tensors`` as
``[[name, extents], ...]`` in payload order, and structured ``meta``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

MAGIC = b"TNSR"
VERSION = 1
BUNDLE_VERSION = 2
BUNDLE_PAYLOAD = "tensors.tnsr"

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_KIND_TO_CODE = {("f", 4): 0, ("f", 8): 1, ("u", 1): 2}


def _header(dtype: np.dtype, shape: tuple[int, ...]) -> bytes:
    code = _KIND_TO_CODE.get((dtype.kind, dtype.itemsize))
    if code is None:
        raise ValueError(f"TNSR cannot store dtype {dtype}; use f32, f64, or u8")
    if len(shape) > 255:
        raise ValueError("TNSR supports at most 255 dimensions")
    return MAGIC + bytes([VERSION, code, len(shape)]) + np.asarray(shape, "<u4").tobytes()


def _payload(arr: np.ndarray) -> np.ndarray:
    """The row-major little-endian bytes of ``arr``; a view where it has them."""
    return np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).view(np.uint8)


def write_array(path: str | Path, arr: np.ndarray) -> None:
    """Write one array as a TNSR file (atomically: temp file then rename)."""
    arr = np.asarray(arr)
    _atomic_write(Path(path), [_header(arr.dtype, arr.shape), _payload(arr)])


def write_flat(path: str | Path, arrays, dtype) -> None:
    """Write ``arrays``, all of ``dtype``, as one flat payload, buffer by buffer.

    Their concatenation is never built in memory. An array of another dtype
    (in any byte order) raises ``ValueError`` before any file is written.
    """
    dtype = np.dtype(dtype)
    arrays = [np.asarray(a) for a in arrays]
    if any((a.dtype.kind, a.dtype.itemsize) != (dtype.kind, dtype.itemsize) for a in arrays):
        raise ValueError(f"{path}: a flat payload holds one dtype, here {dtype}")
    header = _header(dtype, (sum(arr.size for arr in arrays),))
    _atomic_write(Path(path), itertools.chain([header], map(_payload, arrays)))


def read_array(path: str | Path) -> np.ndarray:
    """Read one TNSR file into a native-endian array."""
    with open(path, "rb") as fh:
        head = fh.read(7)
        if head[:4] != MAGIC:
            raise ValueError(f"{path}: not a TNSR file (bad magic {head[:4]!r})")
        ndim = head[6] if len(head) == 7 else 0
        extents_raw = fh.read(4 * ndim)
        if len(head) < 7 or len(extents_raw) < 4 * ndim:
            raise ValueError(f"{path}: truncated TNSR header")
        if head[4] != VERSION:
            raise ValueError(f"{path}: unsupported TNSR version {head[4]}")
        dtype = _CODE_TO_DTYPE.get(head[5])
        if dtype is None:
            raise ValueError(f"{path}: unknown dtype code {head[5]}")
        extents = tuple(int(e) for e in np.frombuffer(extents_raw, dtype="<u4"))
        size = os.fstat(fh.fileno()).st_size - 7 - 4 * ndim
        # checked before the payload is allocated, so a truncated file names itself
        arr = np.empty(extents, dtype) if size == math.prod(extents) * dtype.itemsize else None
        if arr is None or fh.readinto(arr.reshape(-1).view(np.uint8)) != size:
            raise ValueError(f"{path}: payload size {size} does not match "
                             f"extents {extents}")
    return arr.astype(arr.dtype.newbyteorder("="), copy=False)


def read_flat(path: str | Path, shapes) -> list[np.ndarray]:
    """Split the flat payload at ``path`` into views of ``shapes``, in order.

    A payload that is not 1-D, or whose length is not the sum of the
    shapes' sizes, raises ``ValueError``.
    """
    flat = read_array(path)
    sizes = [math.prod(shape) for shape in shapes]
    if flat.ndim != 1 or flat.size != sum(sizes):
        raise ValueError(f"{path}: payload has shape {flat.shape}, its arrays "
                         f"hold {sum(sizes)} elements")
    return [flat[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, itertools.accumulate(sizes))]


def _atomic_write(path: Path, buffers) -> None:
    """Write ``buffers`` one after the other to a temp file, then rename it to ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for buf in buffers:
                fh.write(buf)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    _atomic_write(Path(path), [text.encode("utf-8")])


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path):
    return json.loads(Path(path).read_text())


def write_bundle(directory: str | Path, arrays: dict[str, np.ndarray],
                 meta: dict | None = None) -> None:
    """Write named arrays of one dtype plus metadata as a TNSR bundle directory."""
    directory = Path(directory)
    names = sorted(arrays)
    dtype = np.asarray(arrays[names[0]]).dtype if names else np.dtype("<f4")
    write_flat(directory / BUNDLE_PAYLOAD, [arrays[name] for name in names], dtype)
    write_json(directory / "manifest.json",
               {"format": "tnsr-bundle", "version": BUNDLE_VERSION,
                "tensors": [[name, list(np.shape(arrays[name]))] for name in names],
                "meta": meta or {}})


def read_bundle(directory: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a TNSR bundle back into (arrays, metadata).

    A manifest that is not a version-2 bundle's, lists a tensor twice or not
    as ``[name, extents]``, or whose sizes do not add up to the payload's
    length raises ``ValueError`` naming the directory or the payload.
    """
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json")
    if not isinstance(manifest, dict) or manifest.get("format") != "tnsr-bundle":
        raise ValueError(f"{directory}: not a TNSR bundle")
    if manifest.get("version") != BUNDLE_VERSION:
        raise ValueError(f"{directory}: bundle version {manifest.get('version')!r} is "
                         f"not supported; this reads version {BUNDLE_VERSION}")
    entries, meta = manifest.get("tensors"), manifest.get("meta", {})
    if not (isinstance(entries, list) and all(map(_is_entry, entries))):
        raise ValueError(f"{directory}: manifest 'tensors' is not a list of "
                         "[name, extents] pairs")
    names = [name for name, _ in entries]
    if len(set(names)) != len(names):
        raise ValueError(f"{directory}: manifest names a tensor twice")
    if not isinstance(meta, dict):
        raise ValueError(f"{directory}: manifest 'meta' is not an object")
    arrays = read_flat(directory / BUNDLE_PAYLOAD, [tuple(ext) for _, ext in entries])
    return dict(zip(names, arrays)), meta


def _is_entry(entry) -> bool:
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(n) is int and n >= 0 for n in entry[1]))
