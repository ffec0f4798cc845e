import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from elemrange.region import (
    RegionEmptyError,
    SupportRegion,
    cloud_supports,
    directions,
    hausdorff,
    hull_of_points,
    minkowski_sum,
    negate,
    region_from_supports,
)

from oracles import halfplane_grid_supports


def unit_square(m=8):
    # Square with corners (+-1, +-1): h(theta) = |cos| + |sin|.
    th = directions(m)
    return region_from_supports(np.abs(np.cos(th)) + np.abs(np.sin(th)))


def segment_region(a: complex, b: complex, m=8):
    return hull_of_points([a, b], m)


def disks_region(disks, m: int):
    """region_from_supports fed min_d (Re(z_d e^{-i theta}) + r_d): the
    outer m-gon of the intersection of the disks |w - z_d| <= r_d."""
    th = directions(m)
    h = np.min([z.real * np.cos(th) + z.imag * np.sin(th) + r for z, r in disks], axis=0)
    return region_from_supports(h)


def disk_region(z: complex, r: float, m=8):
    return disks_region([(z, r)], m)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: hull_of_points([1.0, np.inf * 1j], 8), "point cloud has non-finite entries"),
        (lambda: region_from_supports([1.0, 1.0, np.nan, 1.0]), "support samples must be finite"),
    ],
    ids=["point-cloud", "supports"],
)
def test_non_finite_inputs_are_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


class TestRegionFromSupports:
    def test_square_m4(self):
        reg = region_from_supports([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(reg.support, 1.0)
        got = sorted(map(tuple, np.round(reg.vertices, 9)))
        assert got == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_all_zero_is_point(self):
        reg = region_from_supports(np.zeros(8))
        assert np.allclose(reg.support, 0.0, atol=1e-11)
        assert reg.vertices.shape[0] == 1
        assert np.allclose(reg.vertices, 0.0, atol=1e-11)

    def test_horizontal_strip_sample(self):
        # h = (1, 0, -0.5, 0) bounds the segment 0.5 <= x <= 1, y = 0.
        samples = [1.0, 0.0, -0.5, 0.0]
        oracle = halfplane_grid_supports(samples)
        assert oracle is not None  # nonempty per the grid oracle
        reg = region_from_supports(samples)
        assert np.allclose(reg.support, samples, atol=1e-9)
        assert np.allclose(reg.support, oracle, atol=5e-3)
        xs = sorted(reg.vertices[:, 0])
        assert xs == pytest.approx([0.5, 1.0], abs=1e-9)
        assert np.abs(reg.vertices[:, 1]).max() <= 1e-9

    def test_empty_raises(self):
        with pytest.raises(RegionEmptyError):
            region_from_supports([-1.0, -1.0, -1.0, -1.0])

    def test_tightens_loose_samples(self):
        # Loosening one direction of a square: the neighbors at +-pi/4
        # (x + y <= 2, x - y <= 2) now bound the support at theta=0 by
        # their intersection (2, 0).
        th = directions(8)
        h = np.abs(np.cos(th)) + np.abs(np.sin(th))
        loose = h.copy()
        loose[0] = 5.0
        reg = region_from_supports(loose)
        expected = h.copy()
        expected[0] = 2.0
        assert np.allclose(reg.support, expected, atol=1e-9)

    def test_canonicalization_idempotent(self, rng):
        for _ in range(20):
            pts = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            reg = hull_of_points(pts, 16)
            again = region_from_supports(reg.support)
            assert np.abs(again.support - reg.support).max() <= 1e-12

    def test_needs_at_least_four_samples(self):
        with pytest.raises(ValueError):
            region_from_supports([1.0, 1.0])

    def test_rectangle_m64(self):
        # [0,1] x [-1,0]: sixteen grid lines meet at each corner.
        th = directions(64)
        h = np.maximum(np.cos(th), 0.0) + np.maximum(-np.sin(th), 0.0)
        reg = region_from_supports(h)
        got = sorted(map(tuple, np.round(reg.vertices, 12) + 0.0))
        assert got == [(0, -1), (0, 0), (1, -1), (1, 0)]
        assert np.abs(reg.support - h).max() <= 1e-15

    @pytest.mark.parametrize("width, proper", [(5e-8, True), (3e-8, False)])
    def test_degenerate_threshold_is_the_inscribed_radius(self, width, proper):
        # The rectangle [0,1] x [0,w] with a quarter disk of radius w on its
        # top-left corner: the inscribed radius is w/2, against 1e-8 * scale
        # = 2e-8, and the 180 arc vertices pull the vertex mean to within
        # 0.37 w of the boundary.
        arc = width * np.exp(1j * np.linspace(np.pi / 2, np.pi, 400))
        h = cloud_supports([*arc, 0, 1, 1 + 1j * width], 720)
        reg = region_from_supports(h)
        if proper:
            assert reg.vertices.shape[0] > 100
            assert np.abs(reg.support - h).max() <= 1e-15
        else:
            assert reg.vertices.shape[0] == 2
            assert np.abs(reg.support - h).max() <= 2 * width

    @pytest.mark.parametrize("m", [64, 720])
    def test_single_point_is_one_vertex(self, rng, m):
        p = complex(rng.standard_normal(), rng.standard_normal())
        h = cloud_supports([p], m)
        reg = region_from_supports(h)
        scale = 1.0 + np.abs(h).max()
        assert reg.vertices.shape == (1, 2)
        assert np.abs(reg.vertices[0] - [p.real, p.imag]).max() <= 1e-11 * scale
        assert np.abs(reg.support - h).max() <= 1e-11 * scale

    def test_matches_grid_oracle_random(self, rng):
        for _ in range(5):
            pts = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            h = cloud_supports(pts, 8)
            oracle = halfplane_grid_supports(h)
            reg = region_from_supports(h)
            assert np.abs(reg.support - oracle).max() <= 5e-3


class TestHausdorff:
    def test_identical_regions(self):
        sq = unit_square()
        assert hausdorff(sq, sq) == 0.0

    def test_concentric_disks(self):
        assert hausdorff(disk_region(0, 1), disk_region(0, 2)) == pytest.approx(1.0, abs=1e-9)

    def test_segment_vs_point(self):
        seg = segment_region(0, 1)
        point = hull_of_points([0], 8)
        assert hausdorff(seg, point) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_mismatched_grids(self):
        with pytest.raises(ValueError):
            hausdorff(unit_square(8), unit_square(16))

    def test_metric_axioms_on_random_hulls(self, rng):
        for _ in range(15):
            regs = [
                hull_of_points(rng.standard_normal(4) + 1j * rng.standard_normal(4), 16)
                for _ in range(3)
            ]
            a, b, c = regs
            assert hausdorff(a, b) == pytest.approx(hausdorff(b, a), abs=1e-12)
            assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12
            assert hausdorff(a, a) <= 1e-12


class TestMinkowski:
    def test_interval_rectangle(self):
        # [0,1] + (-[0,i]) is the rectangle [0,1] x [-1,0].
        seg_re = segment_region(0, 1)
        seg_im = segment_region(0, 1j)
        rect = minkowski_sum(seg_re, negate(seg_im))
        th = directions(8)
        expected = np.maximum(np.cos(th), 0.0) + np.maximum(-np.sin(th), 0.0)
        assert np.abs(rect.support - expected).max() <= 1e-12

    def test_zero_is_identity(self, rng):
        reg = hull_of_points(rng.standard_normal(5) + 1j * rng.standard_normal(5), 8)
        zero = hull_of_points([0], 8)
        out = minkowski_sum(reg, zero)
        assert np.array_equal(out.support, reg.support)

    def test_disk_radii_add(self):
        out = minkowski_sum(disk_region(0, 1), disk_region(0, 1))
        assert np.abs(out.support - disk_region(0, 2).support).max() <= 1e-12

    def test_support_additivity_exact(self, rng):
        a = hull_of_points(rng.standard_normal(4) + 1j * rng.standard_normal(4), 16)
        b = hull_of_points(rng.standard_normal(4) + 1j * rng.standard_normal(4), 16)
        out = minkowski_sum(a, b)
        assert np.array_equal(out.support, a.support + b.support)

    def test_rejects_mismatched_grids(self):
        with pytest.raises(ValueError):
            minkowski_sum(unit_square(8), unit_square(16))


class TestNegate:
    def test_segment(self):
        seg = segment_region(0, 1)
        out = negate(seg)
        assert np.abs(out.support - segment_region(-1, 0).support).max() <= 1e-12

    def test_disk_center_flips(self):
        out = negate(disk_region(1 + 2j, 0.5, m=8))
        assert np.abs(out.support - disk_region(-1 - 2j, 0.5, m=8).support).max() <= 1e-12

    def test_involution(self, rng):
        reg = hull_of_points(rng.standard_normal(5) + 1j * rng.standard_normal(5), 16)
        out = negate(negate(reg))
        assert np.array_equal(out.support, reg.support)

    def test_rejects_odd_grid(self):
        reg = region_from_supports(np.ones(9))
        with pytest.raises(ValueError):
            negate(reg)


class TestIntersectDisks:
    # Intersections of disks exercise region_from_supports's degenerate
    # paths: a zero-width segment, a lens, an empty family of halfplanes.
    def test_single_disk_supports(self):
        reg = disk_region(0, 1, m=16)
        assert np.allclose(reg.support, 1.0, atol=1e-12)

    def test_tangent_disks_shrink_to_origin(self):
        m = 64
        reg = disks_region([(-1, 1), (1, 1)], m)
        overshoot = 1.0 / np.cos(np.pi / m) - 1.0
        assert reg.support[0] <= overshoot + 1e-12
        # 0 lies in the true intersection; the outer approximation keeps it
        # up to the degenerate-polygon inflation noise.
        assert reg.contains([0 + 0j], slack=1e-10)

    def test_tangent_disks_keep_both_endpoints(self):
        # The outer 64-gons of the two disks meet in the zero-width segment
        # x = 0, |y| <= tan(pi/64).
        reg = disks_region([(-1, 1), (1, 1)], 64)
        assert reg.vertices.shape == (2, 2)
        ys = sorted(reg.vertices[:, 1])
        end = np.tan(np.pi / 64)
        assert ys == pytest.approx([-end, end], abs=1e-10)
        assert np.abs(reg.vertices[:, 0]).max() <= 1e-10

    def test_lens_keeps_common_point(self):
        m = 32
        reg = disks_region([(0, 1), (1, 1)], m)
        assert reg.support[0] == pytest.approx(1.0, abs=1e-12)
        assert reg.contains([1 + 0j], slack=1e-9)

    def test_monotone_in_family(self, rng):
        m = 16
        disks = [(complex(rng.normal(), rng.normal()), 2.0 + rng.uniform(0, 1))
                 for _ in range(4)]
        prev = disks_region(disks[:1], m)
        for j in range(2, 5):
            cur = disks_region(disks[:j], m)
            assert np.all(cur.support <= prev.support + 1e-12)
            prev = cur

    def test_disjoint_disks_empty(self):
        with pytest.raises(RegionEmptyError):
            disks_region([(-5, 1), (5, 1)], 16)


class TestHullOfPoints:
    def test_single_point(self):
        reg = hull_of_points([0.5 + 0.5j], 8)
        assert reg.vertices.shape[0] == 1
        th = directions(8)
        expected = 0.5 * np.cos(th) + 0.5 * np.sin(th)
        assert np.abs(reg.support - expected).max() <= 1e-15

    def test_unit_square_cloud(self):
        reg = hull_of_points([0, 1, 1j, 1 + 1j], 8)
        th = directions(8)
        expected = np.maximum(np.cos(th), 0) + np.maximum(np.sin(th), 0)
        assert np.abs(reg.support - expected).max() <= 1e-15

    def test_circle_samples(self):
        pts = np.exp(2j * np.pi * np.arange(100) / 100)
        reg = hull_of_points(pts, 32)
        assert np.all(reg.support <= 1.0 + 1e-12)
        assert np.all(reg.support >= np.cos(np.pi / 100) - 1e-12)

    def test_supports_are_exact_maxima(self, rng):
        pts = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        reg = hull_of_points(pts, 16)
        assert np.array_equal(reg.support, cloud_supports(pts, 16))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hull_of_points([], 8)


class TestSupportRegionType:
    def test_canonical_invariant(self, rng):
        # Stored supports equal the max over stored vertices.
        pts = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        reg = hull_of_points(pts, 16)
        d = np.column_stack([np.cos(reg.directions), np.sin(reg.directions)])
        recomputed = np.max(d @ reg.vertices.T, axis=1)
        assert np.abs(recomputed - reg.support).max() <= 1e-12

    def test_diameter_of_segment(self):
        assert segment_region(-1, 1).diameter() == pytest.approx(2.0, abs=1e-9)

    def test_contains_respects_slack(self):
        sq = unit_square()
        assert sq.contains([1 + 1j])
        assert not sq.contains([1.1 + 1j])
        assert sq.contains([1.1 + 1j], slack=0.2)


def _interior_point(d, h, guess):
    """guess if it lies strictly inside {x : d x <= h}, else the Chebyshev
    center when its inscribed ball is not negligible, else None."""
    scale = 1.0 + np.abs(h).max()
    if np.min(h - d @ guess) > 1e-6 * scale:
        return guess
    res = linprog([0.0, 0.0, -1.0], A_ub=np.column_stack([d, np.ones(len(h))]), b_ub=h,
                  bounds=[(None, None)] * 3, method="highs")
    return res.x[:2] if res.x[2] > 1e-6 * scale else None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    m=st.sampled_from([4, 5, 8, 16, 64, 720]),
    npts=st.one_of(st.sampled_from([1, 2]), st.integers(3, 12)),
    seed=st.integers(0, 2**32 - 1),
    loosen=st.booleans(),
)
def test_region_matches_halfspace_intersection(m, npts, seed, loosen):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal(npts) + 1j * rng.standard_normal(npts)
    h = cloud_supports(pts, m)
    if loosen:
        # Raised samples leave redundant constraints or a larger polygon.
        h = h + (rng.random(m) < 0.3) * rng.uniform(0.0, 2.0, m)
    scale = 1.0 + np.abs(h).max()
    d = np.column_stack([np.cos(directions(m)), np.sin(directions(m))])
    reg = region_from_supports(h)

    center = _interior_point(d, h, np.array([pts.real.mean(), pts.imag.mean()]))
    if center is not None:
        want = HalfspaceIntersection(np.column_stack([d, -h]), center).intersections
    elif not loosen:
        want = np.column_stack([pts.real, pts.imag])  # exact supports of a point or segment
    else:
        # A zero-width region between the cloud and the samples, collapsed
        # from a polygon inflated by 1e-12 * scale and at most 8 times as wide.
        assert reg.vertices.shape[0] <= 2
        assert np.all(reg.support <= h)
        assert np.all(reg.support >= cloud_supports(pts, m) - 1e-11 * scale)
        return
    assert np.abs(reg.support - np.max(d @ want.T, axis=1)).max() <= 1e-12 * scale
    u = np.column_stack([np.cos(directions(1024)), np.sin(directions(1024))])
    gap = np.max(u @ reg.vertices.T, axis=1) - np.max(u @ want.T, axis=1)
    assert np.abs(gap).max() <= 1e-9 * scale
