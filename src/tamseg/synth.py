"""Synthetic contracting-cavity sequences with exact reference masks.

Each sequence shows an elliptical cavity (class 1) wrapped in a bright wall
(class 2) on a darker background (class 0), contracting monotonically from
the first frame (largest) to the last (smallest). Masks come straight from
the generating geometry, so they are exact by construction. Only the first
and last frames are annotated, mirroring data where intermediate frames
carry no labels. Degradations: multiplicative speckle noise and rectangular
signal-dropout patches, with presets from mild to severe.

On disk a dataset is a directory with ``manifest.json`` and one
subdirectory per case holding ``frame_XX.tnsr`` (float32 image) and
``mask_XX.tnsr`` (u8 labels) for each frame. Each manifest case entry gives
its ``id``, its ``spec``, its ``frames`` and ``masks`` file lists and its
``annotated`` frame ids. The spec is the one record of voxel spacing: a
loaded mask takes its spacing from it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .metrics import SegmentationMask
from .tnsr import read_array, read_json, write_array, write_json

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
    """Write a dataset directory: one subdirectory per case plus a manifest.

    ``splits`` maps split names (train/val/test) to the specs of their cases.
    Over an earlier dataset, the files its synth manifest names that this one
    does not write are deleted once the new manifest is in place, if they
    resolve inside ``root``, and so are the case directories that leaves
    empty. No other file is touched. A ``manifest.json`` in ``root`` that is
    not a synth-dataset manifest (a checkpoint bundle's, say, or one that is
    no JSON) raises :class:`ValidationError` before any file is written.
    """
    root = Path(root)
    earlier = []
    if (root / "manifest.json").exists():
        try:
            found = read_json(root / "manifest.json")
        except (OSError, ValueError):
            found = None
        if not isinstance(found, dict) or found.get("format") != "synth-dataset":
            raise ValidationError(f"{root} holds a manifest.json that is not a synth "
                                  "dataset's; refusing to write over it")
        earlier = _manifest_files(found)
    root.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"format": "synth-dataset", "version": 1, "splits": {}}
    for split, specs in splits.items():
        cases = []
        for i, spec in enumerate(specs):
            case_id = f"{split}_{i:03d}"
            case_dir = root / case_id
            case_dir.mkdir(exist_ok=True)
            sample = generate(spec)
            frame_files, mask_files = [], []
            for t in range(sample.frames):
                f_name = f"frame_{t:02d}.tnsr"
                m_name = f"mask_{t:02d}.tnsr"
                write_array(case_dir / f_name, sample.images[t])
                write_array(case_dir / m_name, sample.masks[t].labels)
                frame_files.append(f"{case_id}/{f_name}")
                mask_files.append(f"{case_id}/{m_name}")
            cases.append({
                "id": case_id,
                "spec": spec.to_json_dict(),
                "frames": frame_files,
                "masks": mask_files,
                "annotated": list(sample.annotated),
            })
        manifest["splits"][split] = cases
    write_json(root / "manifest.json", manifest)
    if earlier:
        _delete_stale(root, earlier, _manifest_files(manifest))


def _delete_stale(root: Path, earlier: list[str], written: list[str]) -> None:
    """Delete the files named in ``earlier`` but not in ``written`` that lie inside ``root``.

    Then delete the directories those files leave empty. The manifest itself
    and anything outside ``root`` are never deleted.
    """
    top = root.resolve()
    kept = {(root / name).resolve() for name in written} | {top / "manifest.json"}
    stale = {path for path in ((root / name).resolve() for name in earlier)
             if top in path.parents and path not in kept}
    for path in stale:
        if path.is_file():
            path.unlink()
    for case_dir in sorted({path.parent for path in stale} - {top}, reverse=True):
        if case_dir.is_dir() and not any(case_dir.iterdir()):
            case_dir.rmdir()


def _manifest_files(manifest: dict) -> list[str]:
    """The frame and mask names a synth manifest lists."""
    splits = manifest.get("splits")
    names = []
    for cases in splits.values() if isinstance(splits, dict) else ():
        for case in cases if isinstance(cases, list) else ():
            for kind in ("frames", "masks"):
                files = case.get(kind) if isinstance(case, dict) else None
                if isinstance(files, list):
                    # a NUL byte is no path: resolving it would raise
                    names += [name for name in files
                              if isinstance(name, str) and "\0" not in name]
    return names


def load_dataset(root) -> dict[str, list[SequenceSample]]:
    """Read a dataset directory back into memory.

    A manifest that is not JSON, not an object, or whose ``splits`` is not
    an object of lists raises :class:`ValidationError` naming the dataset.
    A case whose manifest entry is not an object or lacks a key, whose spec
    ``SequenceSpec`` refuses, or whose entry or files do not fit its spec
    (file count, annotated frame ids, array shape, unreadable array), raises
    :class:`ValidationError` naming the case. So does a frame that is not
    float32 or a mask that is not u8, since a cast would silently turn a u8
    image or a fractional label into something else.
    """
    root = Path(root)
    try:
        manifest = read_json(root / "manifest.json")
    except ValueError as exc:
        raise ValidationError(f"dataset {root}: manifest.json is not JSON ({exc})") from exc
    if (not isinstance(manifest, dict) or manifest.get("format") != "synth-dataset"
            or "splits" not in manifest):
        raise ValidationError(f"{root} does not hold a synth dataset manifest")
    splits = manifest["splits"]
    if not (isinstance(splits, dict) and all(isinstance(c, list) for c in splits.values())):
        raise ValidationError(f"dataset {root}: manifest 'splits' is not an object of lists")
    return {split: [_load_case(root, case, f"{split} case {i}")
                    for i, case in enumerate(cases)]
            for split, cases in splits.items()}


def _load_case(root: Path, case, position: str) -> SequenceSample:
    if not isinstance(case, dict):
        raise ValidationError(f"dataset {root}, {position}: manifest entry is not an object")
    where = f"dataset {root}, {case.get('id', position)}"
    try:
        spec = SequenceSpec.from_json_dict(case["spec"])
        files = {"frames": case["frames"], "masks": case["masks"]}
        annotated = tuple(case["annotated"])
    except KeyError as exc:
        raise ValidationError(f"{where}: manifest entry has no {exc} key") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    for kind, names in files.items():
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ValidationError(f"{where}: {kind} is not a list of file names")
        if len(names) != spec.frames:
            raise ValidationError(f"{where}: lists {len(names)} {kind}, "
                                  f"its spec has {spec.frames}")
    if any(not isinstance(i, int) or not 0 <= i < spec.frames for i in annotated):
        raise ValidationError(f"{where}: annotated frames {annotated} outside "
                              f"its {spec.frames} frames")

    def read(name: str, dtype) -> np.ndarray:
        try:
            arr = read_array(root / name)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        if arr.shape != spec.extents:
            raise ValidationError(f"{where}: {name} has shape {arr.shape}, "
                                  f"its spec has extents {spec.extents}")
        if arr.dtype != dtype:
            raise ValidationError(f"{where}: {name} holds {arr.dtype}, "
                                  f"expected {np.dtype(dtype)}")
        return arr

    images = [read(f, np.float32) for f in files["frames"]]
    masks = [SegmentationMask(read(f, np.uint8).astype(np.int64), spec.spacing)
             for f in files["masks"]]
    return SequenceSample(spec=spec, images=images, masks=masks,
                          annotated=annotated)
