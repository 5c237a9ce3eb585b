"""Surface metrics against a brute-force all-pairs oracle, plus reporting."""

import numpy as np
import pytest

from tamseg import metrics
from tamseg.errors import (ShapeError, UndefinedMetricError, ValidationError)
from tamseg.metrics import (MetricReport, SegmentationMask, boundary_mask,
                            dsc, ecdf, ecdf_csv, hausdorff, masd)


def boundary_oracle(region):
    # per-voxel neighbour scan; array edge counts as outside
    region = np.asarray(region, bool)
    out = np.zeros_like(region)
    shape = region.shape
    for idx in np.argwhere(region):
        exposed = False
        for ax in range(region.ndim):
            for step in (-1, 1):
                j = idx[ax] + step
                if j < 0 or j >= shape[ax]:
                    exposed = True
                else:
                    n = list(idx)
                    n[ax] = j
                    if not region[tuple(n)]:
                        exposed = True
        if exposed:
            out[tuple(idx)] = True
    return out


def surface_metrics_oracle(a, b, label):
    """Hausdorff and MASD by explicit min over every boundary pair."""
    ba = boundary_oracle(a.labels == label)
    bb = boundary_oracle(b.labels == label)
    sp = np.asarray(a.spacing, dtype=np.float64)
    ia = np.argwhere(ba).astype(np.float64)
    ib = np.argwhere(bb).astype(np.float64)
    d = np.sqrt((((ia[:, None, :] - ib[None, :, :]) * sp) ** 2).sum(axis=-1))
    d_ab = d.min(axis=1)
    d_ba = d.min(axis=0)
    hd = max(d_ab.max(), d_ba.max())
    ms = 0.5 * (d_ab.mean() + d_ba.mean())
    return float(hd), float(ms)


def assert_oracle_exact(a, b):
    hd_want, masd_want = surface_metrics_oracle(a, b, 1)
    assert hausdorff(a, b, 1) == hd_want
    assert masd(a, b, 1) == masd_want


def random_mask(rng, shape, spacing, p=0.3):
    labels = (rng.random(shape) < p).astype(np.int64)
    labels.flat[0] = 1  # keep label 1 nonempty
    return SegmentationMask(labels=labels, spacing=spacing)


class TestMaskValidation:
    def test_float_labels_rejected(self):
        with pytest.raises(ValidationError):
            SegmentationMask(labels=np.zeros((4, 4)), spacing=(1.0, 1.0))

    def test_rank_and_spacing_checks(self):
        with pytest.raises(ValidationError):
            SegmentationMask(labels=np.zeros(4, dtype=int), spacing=(1.0,))
        with pytest.raises(ShapeError):
            SegmentationMask(labels=np.zeros((4, 4), dtype=int),
                             spacing=(1.0,))
        with pytest.raises(ValidationError):
            SegmentationMask(labels=np.zeros((4, 4), dtype=int),
                             spacing=(1.0, 0.0))
        with pytest.raises(ValidationError):
            SegmentationMask(labels=-np.ones((4, 4), dtype=int),
                             spacing=(1.0, 1.0))


class TestDsc:
    def test_half_overlap(self):
        # pred rows 0-1 (8 px), truth rows 1-2 (8 px), overlap 4 px
        pred = np.zeros((4, 4), dtype=int)
        pred[0:2] = 1
        truth = np.zeros((4, 4), dtype=int)
        truth[1:3] = 1
        a = SegmentationMask(pred, (1.0, 1.0))
        b = SegmentationMask(truth, (1.0, 1.0))
        assert dsc(a, b, 1) == 2.0 * 4 / (8 + 8)

    def test_empty_conventions(self):
        z = SegmentationMask(np.zeros((4, 4), dtype=int), (1.0, 1.0))
        one = SegmentationMask(np.eye(4, dtype=int), (1.0, 1.0))
        assert dsc(z, z, 1) == 1.0
        assert dsc(z, one, 1) == 0.0
        assert dsc(one, z, 1) == 0.0

    def test_identity_and_symmetry(self):
        rng = np.random.default_rng(0)
        a = random_mask(rng, (8, 8), (1.0, 1.0))
        b = random_mask(rng, (8, 8), (1.0, 1.0))
        assert dsc(a, a, 1) == 1.0
        assert dsc(a, b, 1) == dsc(b, a, 1)

    def test_incomparable_masks(self):
        a = SegmentationMask(np.zeros((4, 4), dtype=int), (1.0, 1.0))
        b = SegmentationMask(np.zeros((5, 5), dtype=int), (1.0, 1.0))
        with pytest.raises(ShapeError):
            dsc(a, b, 1)
        c = SegmentationMask(np.zeros((4, 4), dtype=int), (2.0, 1.0))
        with pytest.raises(ValidationError):
            dsc(a, c, 1)


class TestBoundary:
    def test_solid_block_ring(self):
        region = np.zeros((8, 8), dtype=bool)
        region[2:6, 2:6] = True
        ring = boundary_mask(region)
        assert ring.sum() == 12  # 4x4 block: 16 - 4 interior
        assert not ring[3, 3]

    def test_edge_counts_as_outside(self):
        region = np.ones((4, 4), dtype=bool)
        ring = boundary_mask(region)
        assert ring.sum() == 12  # all but the 2x2 centre

    def test_single_voxel(self):
        region = np.zeros((5, 5), dtype=bool)
        region[2, 2] = True
        assert boundary_mask(region).sum() == 1

    def test_matches_neighbour_scan(self):
        rng = np.random.default_rng(1)
        for shape in [(10, 10), (6, 6, 6)]:
            region = rng.random(shape) < 0.4
            np.testing.assert_array_equal(boundary_mask(region),
                                          boundary_oracle(region))


class TestSurfaceDistances:
    def test_three_four_five(self):
        # single voxels at (0,0) and (3,4), unit spacing: distance 5 exactly
        a = np.zeros((6, 6), dtype=int)
        a[0, 0] = 1
        b = np.zeros((6, 6), dtype=int)
        b[3, 4] = 1
        ma = SegmentationMask(a, (1.0, 1.0))
        mb = SegmentationMask(b, (1.0, 1.0))
        assert hausdorff(ma, mb, 1) == 5.0
        assert masd(ma, mb, 1) == 5.0

    def test_anisotropic_spacing(self):
        # voxels (0,0) and (0,3) at (1,2) mm spacing: 3 steps of 2 mm
        a = np.zeros((4, 4), dtype=int)
        a[0, 0] = 1
        b = np.zeros((4, 4), dtype=int)
        b[0, 3] = 1
        ma = SegmentationMask(a, (1.0, 2.0))
        mb = SegmentationMask(b, (1.0, 2.0))
        assert hausdorff(ma, mb, 1) == 6.0

    def test_identical_masks_give_zero(self):
        rng = np.random.default_rng(2)
        m = random_mask(rng, (8, 8), (1.0, 1.0))
        assert hausdorff(m, m, 1) == 0.0
        assert masd(m, m, 1) == 0.0

    @pytest.mark.parametrize("shape,spacing", [
        ((12, 12), (1.0, 1.0)),
        ((12, 12), (0.7, 1.9)),
        ((8, 8, 8), (1.0, 1.0, 1.0)),
        ((8, 8, 8), (2.0, 1.5, 0.5)),
        ((7, 6, 5), (0.7, 1.9, 1.3)),
    ])
    def test_matches_brute_force(self, shape, spacing):
        rng = np.random.default_rng(3)
        for _ in range(15):
            a = random_mask(rng, shape, spacing)
            b = random_mask(rng, shape, spacing)
            assert_oracle_exact(a, b)

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.9, 1.3)])
    def test_edge_and_single_voxel_regions_match_brute_force(self, spacing):
        shape = (7, 6, 5)
        full = np.ones(shape, dtype=np.int64)  # boundary is the whole array surface
        slab = np.zeros(shape, dtype=np.int64)
        slab[:, :2] = 1  # touches five faces of the array
        corner = np.zeros(shape, dtype=np.int64)
        corner[-1, -1, -1] = 1
        centre = np.zeros(shape, dtype=np.int64)
        centre[3, 2, 2] = 1
        rng = np.random.default_rng(10)
        noise = (rng.random(shape) < 0.3).astype(np.int64)
        noise[0, 0, 0] = 1
        regions = [full, slab, corner, centre, noise]
        for la in regions:
            for lb in regions:
                assert_oracle_exact(SegmentationMask(la, spacing),
                                    SegmentationMask(lb, spacing))

    @pytest.mark.parametrize("chunk_pairs", [1, 7, 64])
    def test_boundary_spanning_several_chunks(self, monkeypatch, chunk_pairs):
        # 1 forces one boundary row per chunk; 7 and 64 leave a ragged last chunk
        monkeypatch.setattr(metrics, "SURFACE_CHUNK_PAIRS", chunk_pairs)
        rng = np.random.default_rng(11)
        for shape, spacing in [((12, 12), (0.7, 1.9)), ((7, 6, 5), (0.7, 1.9, 1.3))]:
            for _ in range(5):
                assert_oracle_exact(random_mask(rng, shape, spacing),
                                    random_mask(rng, shape, spacing))

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = random_mask(rng, (10, 10), (1.0, 1.0))
        b = random_mask(rng, (10, 10), (1.0, 1.0))
        assert hausdorff(a, b, 1) == hausdorff(b, a, 1)
        assert masd(a, b, 1) == masd(b, a, 1)

    def test_masd_bounded_by_hausdorff(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_mask(rng, (10, 10), (1.0, 1.0))
            b = random_mask(rng, (10, 10), (1.0, 1.0))
            assert masd(a, b, 1) <= hausdorff(a, b, 1) + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = random_mask(rng, (8, 8), (1.0, 1.0))
            b = random_mask(rng, (8, 8), (1.0, 1.0))
            c = random_mask(rng, (8, 8), (1.0, 1.0))
            assert (hausdorff(a, c, 1)
                    <= hausdorff(a, b, 1) + hausdorff(b, c, 1) + 1e-9)

    def test_spacing_scales_distances(self):
        rng = np.random.default_rng(7)
        a1 = random_mask(rng, (10, 10), (1.0, 1.0))
        b1 = random_mask(rng, (10, 10), (1.0, 1.0))
        a2 = SegmentationMask(a1.labels, (2.0, 2.0))
        b2 = SegmentationMask(b1.labels, (2.0, 2.0))
        np.testing.assert_allclose(hausdorff(a2, b2, 1),
                                   2.0 * hausdorff(a1, b1, 1), rtol=1e-12)

    def test_empty_region_is_undefined(self):
        z = SegmentationMask(np.zeros((4, 4), dtype=int), (1.0, 1.0))
        one = SegmentationMask(np.eye(4, dtype=int), (1.0, 1.0))
        for pair in [(z, one), (one, z), (z, z)]:
            with pytest.raises(UndefinedMetricError):
                hausdorff(*pair, 1)
            with pytest.raises(UndefinedMetricError):
                masd(*pair, 1)


class TestReporting:
    def make_report(self):
        rng = np.random.default_rng(8)
        report = MetricReport()
        pred = random_mask(rng, (8, 8), (1.0, 1.0))
        truth = random_mask(rng, (8, 8), (1.0, 1.0))
        # out-of-order insertion to exercise sorting
        report.add_case("case_b", 0, pred, truth, labels=[1])
        report.add_case("case_a", 1, pred, truth, labels=[1])
        report.add_case("case_a", 0, pred, truth, labels=[1])
        return report

    def test_rows_sorted_by_case_frame_label(self):
        report = self.make_report()
        keys = [(r.case, r.frame) for r in report.sorted_rows()]
        assert keys == [("case_a", 0), ("case_a", 1), ("case_b", 0)]
        lines = report.to_csv().splitlines()
        assert lines[0] == "case,frame,class,dsc,hd_mm,masd_mm,error"
        assert lines[1].startswith("case_a,0,1,")
        assert lines[3].startswith("case_b,0,1,")

    def test_rows_equal_brute_force(self):
        rng = np.random.default_rng(12)
        report = MetricReport()
        cases = {}
        for shape, spacing in [((12, 12), (0.7, 1.9)), ((7, 6, 5), (0.7, 1.9, 1.3))]:
            for _ in range(4):
                labels = [rng.integers(0, 3, shape) for _ in range(2)]
                for lab in labels:
                    lab.flat[:2] = [1, 2]  # both labels nonempty
                pred, truth = (SegmentationMask(lab, spacing) for lab in labels)
                name = f"case{len(cases)}"
                cases[name] = pred, truth
                report.add_case(name, 0, pred, truth, labels=[1, 2])
        for row in report.rows:
            pred, truth = cases[row.case]
            assert (row.hd_mm, row.masd_mm) == surface_metrics_oracle(pred, truth, row.label)
            assert row.dsc == dsc(pred, truth, row.label)
        assert len(report.rows) == 2 * len(cases)

    def test_undefined_label_recorded_not_raised(self):
        pred = SegmentationMask(np.zeros((6, 6), dtype=int), (1.0, 1.0))
        truth = SegmentationMask(np.eye(6, dtype=int), (1.0, 1.0))
        report = MetricReport()
        report.add_case("c", 0, pred, truth, labels=[1])
        row = report.rows[0]
        assert row.dsc == 0.0
        assert row.hd_mm is None and row.masd_mm is None
        assert row.error

    def test_aggregate_shape(self):
        report = self.make_report()
        pred = SegmentationMask(np.zeros((6, 6), dtype=int), (1.0, 1.0))
        truth = SegmentationMask(np.eye(6, dtype=int), (1.0, 1.0))
        report.add_case("case_c", 0, pred, truth, labels=[1])
        agg = report.aggregate()
        assert agg["rows"] == 4
        entry = agg["classes"]["1"]
        assert entry["cases"] == 4
        assert entry["undefined"] == 1
        # surface means skip the undefined row; dsc covers all rows
        defined = [r for r in report.rows if not r.error]
        np.testing.assert_allclose(entry["hd_mm_mean"],
                                   np.mean([r.hd_mm for r in defined]))
        np.testing.assert_allclose(entry["dsc_mean"],
                                   np.mean([r.dsc for r in report.rows]))

    def test_json_rows_match_csv_order(self):
        report = self.make_report()
        d = report.to_json_dict()
        assert [r["case"] for r in d["rows"]] == ["case_a", "case_a", "case_b"]
        assert set(d["rows"][0]) == {"case", "frame", "class", "dsc", "hd_mm",
                                     "masd_mm", "error"}


class TestEcdf:
    def test_points(self):
        pts = ecdf([3.0, 1.0, 2.0])
        assert pts == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_last_fraction_is_one(self):
        rng = np.random.default_rng(9)
        pts = ecdf(list(rng.random(17)))
        assert pts[-1][1] == 1.0
        fracs = [f for _, f in pts]
        assert fracs == sorted(fracs)

    def test_csv_header(self):
        lines = ecdf_csv([0.5], "dsc").splitlines()
        assert lines[0] == "dsc,cumulative_fraction"
        assert lines[1] == "0.500000,1.000000"
