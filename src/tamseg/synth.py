"""Synthetic contracting-cavity sequences with exact reference masks.

Each sequence shows an elliptical cavity (class 1) wrapped in a bright wall
(class 2) on a darker background (class 0), contracting monotonically from
the first frame (largest) to the last (smallest). Masks come straight from
the generating geometry, so they are exact by construction. Only the first
and last frames are annotated, mirroring data where intermediate frames
carry no labels. Degradations: multiplicative speckle noise and rectangular
signal-dropout patches, with presets from mild to severe.

On disk a dataset is a directory of three files. ``frames.tnsr`` and
``masks.tnsr`` are flat payloads (see ``tnsr``) of every frame's float32
image and u8 labels, in order of split name, case and frame. ``manifest.json``
(version 2) maps each split to its cases, each an ``id``, a ``spec`` and
the ``annotated`` frame ids. The spec is the one record of a frame's
extents and voxel spacing: a loaded frame takes its shape and its mask
its spacing from it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .metrics import SegmentationMask
from .tnsr import read_flat, read_json, write_flat, write_json

BACKGROUND, CAVITY, WALL = 0, 1, 2

# intensity levels before degradation
_BG_LEVEL = 0.15
_CAVITY_LEVEL = 0.05
_WALL_LEVEL = 0.85

QUALITY_TIERS = {
    "good": {"noise_sigma": 0.05, "dropout_patches": 0},
    "medium": {"noise_sigma": 0.15, "dropout_patches": 2},
    "poor": {"noise_sigma": 0.3, "dropout_patches": 4},
}

DROPOUT_TARGETS = ("unannotated", "annotated", "all", "none")

DATASET_VERSION = 2


@dataclass(frozen=True)
class SequenceSpec:
    """Everything needed to regenerate one sequence bit for bit."""

    seed: int = 0
    extents: tuple[int, ...] = (64, 64)
    frames: int = 3
    contraction: float = 0.35
    noise_sigma: float = 0.15
    dropout_patches: int = 0
    dropout_size: int | None = None
    dropout_target: str = "unannotated"
    spacing: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.extents) not in (2, 3):
            raise ValidationError(f"extents must be 2D or 3D, got {self.extents}")
        if any(n < 32 for n in self.extents):
            raise ValidationError(f"extents {self.extents} too small; need >= 32")
        if not 2 <= self.frames <= 16:
            raise ValidationError(f"frame count must be in [2, 16], got {self.frames}")
        if not 0.0 < self.contraction < 1.0:
            raise ValidationError(f"contraction must be in (0, 1), "
                                  f"got {self.contraction}")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
        if self.dropout_patches < 0:
            raise ValidationError("dropout_patches must be >= 0")
        if self.dropout_target not in DROPOUT_TARGETS:
            raise ValidationError(f"dropout_target {self.dropout_target!r} not in "
                                  f"{DROPOUT_TARGETS}")
        if self.spacing is None:
            object.__setattr__(self, "spacing", (1.0,) * len(self.extents))
        elif len(self.spacing) != len(self.extents):
            raise ValidationError("spacing must give one value per axis")

    @staticmethod
    def for_tier(tier: str, **overrides) -> "SequenceSpec":
        if tier not in QUALITY_TIERS:
            raise ValidationError(f"unknown quality tier {tier!r}; "
                                  f"choose from {sorted(QUALITY_TIERS)}")
        merged = dict(QUALITY_TIERS[tier])
        merged.update(overrides)
        return SequenceSpec(**merged)

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["extents"] = list(self.extents)
        d["spacing"] = list(self.spacing)
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "SequenceSpec":
        d = dict(d)
        d["extents"] = tuple(d["extents"])
        if d.get("spacing") is not None:
            d["spacing"] = tuple(float(s) for s in d["spacing"])
        return SequenceSpec(**d)


@dataclass
class SequenceSample:
    """One generated sequence: images, exact masks, and the annotated frame ids."""

    spec: SequenceSpec
    images: list[np.ndarray]
    masks: list[SegmentationMask]
    annotated: tuple[int, ...]

    @property
    def frames(self) -> int:
        return len(self.images)


def _ellipse_labels(extents, center, radii, wall_width) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in extents],
                        indexing="ij")
    inner = np.zeros(extents, dtype=np.float64)
    outer = np.zeros(extents, dtype=np.float64)
    for g, c, r in zip(grids, center, radii):
        inner += ((g - c) / r) ** 2
        outer += ((g - c) / (r + wall_width)) ** 2
    labels = np.full(extents, BACKGROUND, dtype=np.uint8)
    labels[outer <= 1.0] = WALL
    labels[inner <= 1.0] = CAVITY
    return labels


def generate(spec: SequenceSpec) -> SequenceSample:
    """Deterministically build one sequence from its spec."""
    rng = np.random.default_rng(spec.seed)
    rank = len(spec.extents)
    ext = np.asarray(spec.extents, dtype=np.float64)

    # cavity geometry at full expansion; wall width >= 2 voxels keeps the
    # ring face-connected so no cavity voxel ever touches background
    base_radii = ext * rng.uniform(0.18, 0.24, size=rank)
    wall_width = max(2.0, 0.06 * float(ext.min()))
    center0 = ext / 2.0 + rng.uniform(-0.05, 0.05, size=rank) * ext
    drift = rng.uniform(-0.03, 0.03, size=rank) * ext

    images: list[np.ndarray] = []
    masks: list[SegmentationMask] = []
    annotated = (0, spec.frames - 1)
    dropout_size = spec.dropout_size or max(4, int(ext.min()) // 8)

    for t in range(spec.frames):
        phase = t / (spec.frames - 1)
        scale = (1.0 - spec.contraction * phase) ** (1.0 / rank)
        radii = base_radii * scale
        center = center0 + drift * phase
        labels = _ellipse_labels(spec.extents, center, radii, wall_width)
        masks.append(SegmentationMask(labels=labels, spacing=spec.spacing))

        img = np.full(spec.extents, _BG_LEVEL, dtype=np.float64)
        img[labels == CAVITY] = _CAVITY_LEVEL
        img[labels == WALL] = _WALL_LEVEL
        if spec.noise_sigma > 0:
            speckle = np.clip(rng.standard_normal(spec.extents), -3.0, 3.0)
            img = img * (1.0 + spec.noise_sigma * speckle)
        affected = (spec.dropout_target == "all"
                    or (spec.dropout_target == "annotated" and t in annotated)
                    or (spec.dropout_target == "unannotated" and t not in annotated))
        # draw patch positions even on unaffected frames so the image stream
        # of one frame does not depend on which frames are targeted; patches
        # land in the central half, where the object sits
        for _ in range(spec.dropout_patches):
            corner = []
            for n in spec.extents:
                lo = n // 4
                hi = max(lo + 1, 3 * n // 4 - dropout_size)
                corner.append(int(rng.integers(lo, hi)))
            if affected:
                sl = tuple(slice(c, c + dropout_size) for c in corner)
                img[sl] = 0.0
        images.append(np.clip(img, 0.0, 1.0).astype(np.float32))

    return SequenceSample(spec=spec, images=images, masks=masks,
                          annotated=annotated)


# -- dataset on disk ------------------------------------------------------------


def write_dataset(root, splits: dict[str, list[SequenceSpec]]) -> None:
    """Write a dataset directory: ``frames.tnsr``, ``masks.tnsr`` and a manifest.

    ``splits`` maps split names (train/val/test) to the specs of their cases.
    Over an earlier dataset the three files are replaced and no other file
    is touched. A ``manifest.json`` in ``root`` that is not a version-2
    synth dataset's (a checkpoint bundle's, a version-1 dataset's, or one
    that is no JSON) raises :class:`ValidationError` before any file is
    written.
    """
    root = Path(root)
    if (root / "manifest.json").exists():
        _read_manifest(root)
    samples = {split: [generate(spec) for spec in splits[split]] for split in sorted(splits)}
    every = [sample for cases in samples.values() for sample in cases]
    write_flat(root / "frames.tnsr", [img for s in every for img in s.images], np.float32)
    write_flat(root / "masks.tnsr", [m.labels for s in every for m in s.masks], np.uint8)
    write_json(root / "manifest.json", {
        "format": "synth-dataset", "version": DATASET_VERSION,
        "splits": {split: [{"id": f"{split}_{i:03d}", "spec": s.spec.to_json_dict(),
                            "annotated": list(s.annotated)}
                           for i, s in enumerate(cases)]
                   for split, cases in samples.items()}})


def load_dataset(root) -> dict[str, list[SequenceSample]]:
    """Read a dataset directory back into memory.

    A manifest that is not a version-2 synth dataset's, or whose ``splits``
    is not an object of lists, raises :class:`ValidationError` naming the
    dataset; a case entry that is not an object, lacks a key, holds a spec
    ``SequenceSpec`` refuses or annotated frames outside its frames, names
    the case. A payload whose length is not the sum of its frames' sizes, or
    whose dtype is not float32 (frames) or u8 (masks), names the file: a
    cast would silently turn a u8 image or a fractional label into
    something else.
    """
    root = Path(root)
    splits = _read_manifest(root).get("splits")
    if not (isinstance(splits, dict) and all(isinstance(c, list) for c in splits.values())):
        raise ValidationError(f"dataset {root}: manifest 'splits' is not an object of lists")
    entries = {split: [_case_entry(root, case, f"{split} case {i}")
                       for i, case in enumerate(splits[split])]
               for split in sorted(splits)}
    shapes = [spec.extents for cases in entries.values() for spec, _ in cases
              for _ in range(spec.frames)]
    images = iter(_read_payload(root / "frames.tnsr", shapes, np.float32))
    labels = iter(_read_payload(root / "masks.tnsr", shapes, np.uint8))
    return {split: [SequenceSample(spec, list(islice(images, spec.frames)),
                                   [SegmentationMask(m.astype(np.int64), spec.spacing)
                                    for m in islice(labels, spec.frames)], annotated)
                    for spec, annotated in cases]
            for split, cases in entries.items()}


def _read_manifest(root: Path) -> dict:
    """The manifest in ``root``, unless it is not a version-2 synth dataset's."""
    try:
        manifest = read_json(root / "manifest.json")
    except ValueError as exc:
        raise ValidationError(f"dataset {root}: manifest.json is not JSON ({exc})") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "synth-dataset":
        raise ValidationError(f"{root}/manifest.json is not a synth dataset manifest")
    if manifest.get("version") != DATASET_VERSION:
        raise ValidationError(f"{root}/manifest.json is a version {manifest.get('version')!r} "
                              f"dataset's, not {DATASET_VERSION}; regenerate the dataset "
                              "with `tamseg gen` into a new directory")
    return manifest


def _case_entry(root: Path, case, position: str) -> tuple[SequenceSpec, tuple[int, ...]]:
    """The spec and annotated frame ids of one manifest case entry."""
    if not isinstance(case, dict):
        raise ValidationError(f"dataset {root}, {position}: manifest entry is not an object")
    where = f"dataset {root}, {case.get('id', position)}"
    try:
        spec = SequenceSpec.from_json_dict(case["spec"])
        annotated = tuple(case["annotated"])
    except KeyError as exc:
        raise ValidationError(f"{where}: manifest entry has no {exc} key") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    if any(not isinstance(i, int) or not 0 <= i < spec.frames for i in annotated):
        raise ValidationError(f"{where}: annotated frames {annotated} outside "
                              f"its {spec.frames} frames")
    return spec, annotated


def _read_payload(path: Path, shapes, dtype) -> list[np.ndarray]:
    try:
        arrays = read_flat(path, shapes)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if arrays and arrays[0].dtype != dtype:
        raise ValidationError(f"{path} holds {arrays[0].dtype}, expected {np.dtype(dtype)}")
    return arrays
