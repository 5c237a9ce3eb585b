"""Overlap and surface-distance metrics on hard label masks.

Boundaries are voxels of a region with at least one face-adjacent neighbour
outside it; the array edge counts as outside, so a region touching the edge
has boundary there. Distances are Euclidean in millimetres under per-axis
voxel spacing. Hausdorff distance is the exact symmetric maximum (100th
percentile); MASD averages the two directed mean surface distances. Metrics
over an empty region are undefined and raise rather than defaulting to a
number.

Surface distances are exact minima over every pair of boundary voxels, in
numpy alone, so scoring a case never loads ``scipy.ndimage``.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import sys
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, UndefinedMetricError, ValidationError


def _lazy_module(name: str) -> types.ModuleType:
    """Module ``name``, run on its first attribute access (``importlib.util.LazyLoader``).

    Finding it imports its parent packages, so a missing package raises
    ``ImportError`` here. A module already imported is returned as it is.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# Kept only because perfbench/tracer.py rebinds this attribute at install();
# no metric reads it. Lazy, so importing this module does not load scipy.ndimage,
# and a missing scipy still fails the import.
ndimage = _lazy_module("scipy.ndimage")

# Boundary pairs per chunk of the all-pairs pass: 512 KiB per float64 matrix,
# two live at once. 2**18 and 2**20 pairs measured slower on 3D spheres.
SURFACE_CHUNK_PAIRS = 2 ** 16


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
    """Voxels of ``region`` face-adjacent to outside (array edge included):
    the region minus its erosion by the two face neighbours along each axis."""
    region = np.asarray(region, dtype=bool)
    padded = np.pad(region, 1)  # False: the array edge counts as outside
    interior = region.copy()
    for axis in range(region.ndim):
        for shift in (0, 2):
            window = [slice(1, -1)] * region.ndim
            window[axis] = slice(shift, shift + region.shape[axis])
            interior &= padded[tuple(window)]
    return region & ~interior


def _squared_distances_mm(pts_a: np.ndarray, pts_b: np.ndarray,
                          spacing: tuple[float, ...]) -> np.ndarray:
    """Squared mm distances from every row of ``pts_a`` to every row of
    ``pts_b`` (voxel indices as float64), shape ``(len(pts_a), len(pts_b))``.

    The one distance formula: ``((a - b) * s) ** 2`` per axis, added in axis
    order, which is how ``np.sum(..., axis=-1)`` adds the stacked terms.
    """
    def term(axis: int) -> np.ndarray:
        t = np.subtract.outer(pts_a[:, axis], pts_b[:, axis])
        t *= spacing[axis]
        t *= t
        return t

    total = term(0)
    for axis in range(1, len(spacing)):
        total += term(axis)
    return total


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
    """Directed boundary distances of one label in mm, a to b and b to a.

    One pass over every boundary pair, in chunks of a's boundary rows: a
    chunk's row minima are a's distances and its column minima fold into
    b's. Roots are taken of the minima; ``sqrt`` is correctly rounded and
    monotone, so that equals the minimum of the roots bit for bit.
    """
    ba, bb = _boundaries(a, b, label)
    pts_a = np.argwhere(ba).astype(np.float64)
    pts_b = np.argwhere(bb).astype(np.float64)
    sq_ab = np.empty(len(pts_a))
    sq_ba = np.full(len(pts_b), np.inf)
    rows = max(1, SURFACE_CHUNK_PAIRS // len(pts_b))
    for start in range(0, len(pts_a), rows):
        sq = _squared_distances_mm(pts_a[start:start + rows], pts_b, a.spacing)
        sq.min(axis=1, out=sq_ab[start:start + rows])
        np.minimum(sq_ba, sq.min(axis=0), out=sq_ba)
    return np.sqrt(sq_ab), np.sqrt(sq_ba)


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
                # one all-pairs pass serves both surface metrics
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

