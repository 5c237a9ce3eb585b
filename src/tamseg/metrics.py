"""Overlap and surface-distance metrics on hard label masks.

Boundaries are voxels of a region with at least one face-adjacent neighbour
outside it; the array edge counts as outside, so a region touching the edge
has boundary there. Distances are Euclidean in millimetres under per-axis
voxel spacing. Hausdorff distance is the exact symmetric maximum (100th
percentile); MASD averages the two directed mean surface distances. Metrics
over an empty region are undefined and raise rather than defaulting to a
number.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import ShapeError, UndefinedMetricError, ValidationError


@dataclass
class SegmentationMask:
    """Integer label map plus physical voxel spacing in millimetres."""

    labels: np.ndarray
    spacing: tuple[float, ...]

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValidationError(f"labels must be integers, got {self.labels.dtype}")
        if self.labels.ndim not in (2, 3):
            raise ValidationError(f"expected a 2D or 3D mask, got rank {self.labels.ndim}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != self.labels.ndim:
            raise ShapeError(f"spacing {self.spacing} must give one value per axis "
                             f"({self.labels.ndim})")
        if any(s <= 0 for s in self.spacing):
            raise ValidationError(f"spacing must be positive, got {self.spacing}")
        if self.labels.size and self.labels.min() < 0:
            raise ValidationError("labels must be non-negative")

    def region(self, label: int) -> np.ndarray:
        return self.labels == label


def _check_comparable(a: SegmentationMask, b: SegmentationMask) -> None:
    if a.labels.shape != b.labels.shape:
        raise ShapeError(f"mask shapes differ: {a.labels.shape} vs {b.labels.shape}")
    if a.spacing != b.spacing:
        raise ValidationError(f"mask spacings differ: {a.spacing} vs {b.spacing}")


def dsc(a: SegmentationMask, b: SegmentationMask, label: int) -> float:
    """Dice overlap of one label. Both regions empty -> 1.0; exactly one -> 0.0."""
    _check_comparable(a, b)
    ra, rb = a.region(label), b.region(label)
    na, nb = int(ra.sum()), int(rb.sum())
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    inter = int(np.logical_and(ra, rb).sum())
    return 2.0 * inter / (na + nb)


def boundary_mask(region: np.ndarray) -> np.ndarray:
    """Voxels of ``region`` face-adjacent to outside (array edge included)."""
    region = np.asarray(region, dtype=bool)
    interior = ndimage.binary_erosion(
        region, structure=ndimage.generate_binary_structure(region.ndim, 1),
        border_value=0)
    return region & ~interior


def _pairwise_distance_mm(idx_a: np.ndarray, idx_b: np.ndarray,
                          spacing: tuple[float, ...]) -> np.ndarray:
    """Euclidean mm distances between index rows; the one distance formula
    shared by every metric path, so alternative implementations can agree
    bit for bit."""
    diffs = (idx_a.astype(np.float64) - idx_b.astype(np.float64))
    scaled = diffs * np.asarray(spacing, dtype=np.float64)
    return np.sqrt(np.sum(scaled * scaled, axis=-1))


def directed_surface_distances(src: np.ndarray, dst: np.ndarray,
                               spacing: tuple[float, ...]) -> np.ndarray:
    """Distance in mm from every boundary voxel of ``src`` to the nearest
    boundary voxel of ``dst``."""
    if not src.any() or not dst.any():
        raise UndefinedMetricError("surface distance over an empty boundary")
    edt_input = ~dst
    _, indices = ndimage.distance_transform_edt(
        edt_input, sampling=spacing, return_indices=True)
    src_idx = np.argwhere(src)
    nearest = np.stack([indices[d][tuple(src_idx.T)] for d in range(src.ndim)],
                       axis=1)
    return _pairwise_distance_mm(src_idx, nearest, spacing)


def _boundaries(a: SegmentationMask, b: SegmentationMask,
                label: int) -> tuple[np.ndarray, np.ndarray]:
    _check_comparable(a, b)
    ra, rb = a.region(label), b.region(label)
    if not ra.any() or not rb.any():
        raise UndefinedMetricError(
            f"label {label} is empty in {'both masks' if not (ra.any() or rb.any()) else 'one mask'}; "
            "surface metrics are undefined")
    return boundary_mask(ra), boundary_mask(rb)


def _surface_distances(a: SegmentationMask, b: SegmentationMask,
                      label: int) -> tuple[np.ndarray, np.ndarray]:
    """Directed boundary distances of one label in mm, a to b and b to a."""
    ba, bb = _boundaries(a, b, label)
    return (directed_surface_distances(ba, bb, a.spacing),
            directed_surface_distances(bb, ba, a.spacing))


def _hausdorff(d_ab: np.ndarray, d_ba: np.ndarray) -> float:
    return float(max(d_ab.max(), d_ba.max()))


def _masd(d_ab: np.ndarray, d_ba: np.ndarray) -> float:
    return float(0.5 * (d_ab.mean() + d_ba.mean()))


def hausdorff(a: SegmentationMask, b: SegmentationMask, label: int) -> float:
    """Symmetric maximum surface distance in mm (exact, no percentile trim)."""
    return _hausdorff(*_surface_distances(a, b, label))


def masd(a: SegmentationMask, b: SegmentationMask, label: int) -> float:
    """Mean of the two directed average surface distances, in mm."""
    return _masd(*_surface_distances(a, b, label))


# -- reporting ----------------------------------------------------------------


@dataclass
class MetricRow:
    """One (case, frame, label) evaluation. ``error`` marks undefined metrics."""

    case: str
    frame: int
    label: int
    dsc: float | None = None
    hd_mm: float | None = None
    masd_mm: float | None = None
    error: str = ""


@dataclass
class MetricReport:
    rows: list[MetricRow] = field(default_factory=list)

    def add_case(self, case: str, frame: int, pred: SegmentationMask,
                 truth: SegmentationMask, labels: list[int]) -> None:
        for label in labels:
            row = MetricRow(case=case, frame=frame, label=label)
            row.dsc = dsc(pred, truth, label)
            try:
                # one pair of distance transforms serves both surface metrics
                d_ab, d_ba = _surface_distances(pred, truth, label)
            except UndefinedMetricError as exc:
                row.error = str(exc)
            else:
                row.hd_mm, row.masd_mm = _hausdorff(d_ab, d_ba), _masd(d_ab, d_ba)
            self.rows.append(row)

    def aggregate(self) -> dict:
        """Per-class means over defined rows, with undefined counts kept visible."""
        out: dict = {"classes": {}, "rows": len(self.rows)}
        labels = sorted({r.label for r in self.rows})
        for label in labels:
            rows = [r for r in self.rows if r.label == label]
            defined = [r for r in rows if not r.error]
            entry = {
                "cases": len(rows),
                "undefined": len(rows) - len(defined),
                "dsc_mean": float(np.mean([r.dsc for r in rows]))
                if rows else None,
            }
            if defined:
                entry["hd_mm_mean"] = float(np.mean([r.hd_mm for r in defined]))
                entry["masd_mm_mean"] = float(np.mean([r.masd_mm for r in defined]))
            else:
                entry["hd_mm_mean"] = None
                entry["masd_mm_mean"] = None
            out["classes"][str(label)] = entry
        return out

    def sorted_rows(self) -> list[MetricRow]:
        return sorted(self.rows, key=lambda r: (r.case, r.frame, r.label))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["case", "frame", "class", "dsc", "hd_mm", "masd_mm",
                         "error"])
        for r in self.sorted_rows():
            writer.writerow([
                r.case, r.frame, r.label,
                "" if r.dsc is None else f"{r.dsc:.6f}",
                "" if r.hd_mm is None else f"{r.hd_mm:.6f}",
                "" if r.masd_mm is None else f"{r.masd_mm:.6f}",
                r.error])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "rows": [{"case": r.case, "frame": r.frame, "class": r.label,
                      "dsc": r.dsc, "hd_mm": r.hd_mm, "masd_mm": r.masd_mm,
                      "error": r.error}
                     for r in self.sorted_rows()],
            "aggregate": self.aggregate(),
        }


def ecdf(values: list[float]) -> list[tuple[float, float]]:
    """Empirical CDF points (value, fraction <= value), one per sorted sample."""
    vals = sorted(values)
    n = len(vals)
    return [(float(v), (i + 1) / n) for i, v in enumerate(vals)]


def ecdf_csv(values: list[float], name: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([name, "cumulative_fraction"])
    for v, frac in ecdf(values):
        writer.writerow([f"{v:.6f}", f"{frac:.6f}"])
    return buf.getvalue()

