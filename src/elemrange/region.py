"""Compact convex planar sets represented by sampled support functions.

A region is stored as support values h_j on the uniform direction grid
theta_j = 2*pi*j/m together with the polygon obtained by intersecting the
halfplanes {Re(e^{-i theta_j} z) <= h_j}.  Regions are kept canonical:
each stored h_j equals the maximum of Re(e^{-i theta_j} v) over the
polygon vertices.  The grid sorts the halfplanes by angle, so one pass
over them builds the polygon (Preparata & Shamos, *Computational
Geometry*, 1985, sec. 7.2); point and segment regions, and samples
inconsistent by less than _EMPTY_TOL, are intersected again slightly
inflated and the polygon collapsed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

# Inscribed-ball radius below which (relative to the support scale) a
# region is treated as a point or segment: thinner slivers would make the
# polygon's vertex intersections ill-conditioned, while collapsing them
# costs at most the sliver width in support accuracy.
_DEGENERATE_TOL = 1e-8
# Relative infeasibility below which noisy-but-consistent samples are
# inflated instead of rejected as empty.
_EMPTY_TOL = 1e-9


class RegionEmptyError(ValueError):
    """The halfplane family has empty intersection (inconsistent samples)."""


def as_point_cloud(points) -> np.ndarray:
    """Validate a nonempty cloud of finite complex points."""
    p = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    if p.size == 0:
        raise ValueError("point cloud is empty")
    if not np.all(np.isfinite(p)):
        raise ValueError("point cloud has non-finite entries")
    return p


def directions(m: int) -> np.ndarray:
    """Angles theta_j = 2*pi*j/m of the uniform direction grid."""
    return 2.0 * np.pi * np.arange(m) / m


def _direction_matrix(m: int) -> np.ndarray:
    th = directions(m)
    return np.column_stack([np.cos(th), np.sin(th)])


@dataclass(frozen=True)
class SupportRegion:
    """Canonical sampled-support representation of a compact convex set.

    ``support[j]`` is the support value at theta_j = 2*pi*j/m and
    ``vertices`` is the (possibly degenerate) polygon of the halfplane
    intersection, counterclockwise, as an (V, 2) array of (x, y) rows.
    """

    support: np.ndarray
    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", np.asarray(self.support, dtype=float))
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))

    @property
    def m(self) -> int:
        return self.support.shape[0]

    @property
    def directions(self) -> np.ndarray:
        return directions(self.m)

    def diameter(self) -> float:
        """Largest width across the region: max_j (h_j + h_{j+m/2})."""
        h = self.support
        return float(np.max(h + np.roll(h, -(self.m // 2))))

    def contains(self, points, slack: float = 0.0) -> bool:
        """Whether every point satisfies all supporting halfplanes up to slack."""
        p = as_point_cloud(points)
        d = _direction_matrix(self.m)
        vals = d @ np.vstack([p.real, p.imag])
        return bool(np.all(vals <= self.support[:, None] + slack))


def _halfplane_polygon(c, s, h, slack):
    """Vertices of {x : c_j x + s_j y <= h_j}, the grid's halfplanes in
    angle order, or None when they bound no polygon with interior.

    A deque keeps the lines that bound the intersection so far, and each
    vertex is where two adjacent ones meet.  A line is dropped once a later
    one leaves it an edge shorter than slack: lines that only touch a
    corner would otherwise give spurious vertices where many lines meet.
    """
    m = len(h)

    def turn(i, j):  # sine of the turn from line i to line j
        return c[i] * s[j] - s[i] * c[j]

    def corner(i, j):
        det = turn(i, j)
        return (h[i] * s[j] - s[i] * h[j]) / det, (c[i] * h[j] - h[i] * c[j]) / det

    def short(p, k, sine):
        # Is the edge from corner p to line k, along a line at a turn of
        # the given sine from k, shorter than slack (or negative)?
        return h[k] - c[k] * p[0] - s[k] * p[1] < slack * sine

    lines, corners = deque(), deque()  # corners[i] joins lines[i], lines[i + 1]
    for k in range(m):
        while corners and short(corners[-1], k, turn(lines[-1], k)):
            lines.pop()
            corners.pop()
        while corners and short(corners[0], k, turn(k, lines[0])):
            lines.popleft()
            corners.popleft()
        if lines:
            # Adjacent edge normals of a set with interior turn by less
            # than half a circle, which also keeps corner's determinant
            # at least sin(2 pi / m).
            if 2 * (k - lines[-1]) >= m:
                return None
            corners.append(corner(lines[-1], k))
        lines.append(k)
    while len(corners) >= 2 and short(corners[-1], lines[0], turn(lines[-1], lines[0])):
        lines.pop()
        corners.pop()
    while len(corners) >= 2 and short(corners[0], lines[-1], turn(lines[-1], lines[0])):
        lines.popleft()
        corners.popleft()
    if len(lines) < 3 or 2 * (lines[0] + m - lines[-1]) >= m:
        return None
    return np.array([*corners, corner(lines[-1], lines[0])])


def _inside_by(d, h, verts) -> float:
    """Least slack of the vertex mean in {x : d x <= h}, -inf for None: a
    positive value bounds the inscribed-ball radius from below."""
    return -np.inf if verts is None else float(np.min(h - d @ verts.mean(axis=0)))


def _canonicalize(samples):
    h = np.asarray(samples, dtype=float)
    m = h.shape[0]
    if h.ndim != 1 or m < 4:
        raise ValueError("need at least 4 support samples on the uniform grid")
    if not np.all(np.isfinite(h)):
        raise ValueError("support samples must be finite")
    d = _direction_matrix(m)
    c, s = d[:, 0].tolist(), d[:, 1].tolist()
    scale = 1.0 + float(np.abs(h).max())
    tol = 1e-12 * scale

    def polygon(hh):
        return _halfplane_polygon(c, s, hh.tolist(), tol)

    verts = polygon(h)
    # Proper region: an inscribed ball of radius above deg, found around the
    # vertex mean of the polygon or of the polygon deflated by deg.
    deg = _DEGENERATE_TOL * scale
    if verts is None or (
        _inside_by(d, h, verts) <= deg and _inside_by(d, h - deg, polygon(h - deg)) <= 0
    ):
        # Point or segment: inflate away zero width or sub-tolerance
        # infeasibility until a polygon with interior appears, then keep its
        # two farthest vertices, or the mean of all of them when those two
        # lie within a few inflations of each other.
        for inflation in (tol, _EMPTY_TOL * scale):
            verts = polygon(h + inflation)
            if _inside_by(d, h + inflation, verts) > 0:
                break
        else:
            raise RegionEmptyError(
                "support samples bound an empty region, "
                f"even inflated by {_EMPTY_TOL:g} x scale"
            )
        dist = np.linalg.norm(verts[:, None] - verts[None], axis=-1)
        i, j = np.unravel_index(np.argmax(dist), dist.shape)
        if dist[i, j] <= 8 * inflation:
            verts = verts.mean(axis=0, keepdims=True)
        else:
            verts = verts[sorted((i, j))]
    h_canon = np.max(d @ verts.T, axis=1)
    return np.minimum(h, h_canon), verts


def region_from_supports(samples) -> SupportRegion:
    """Canonicalize raw support samples into a SupportRegion.

    Raises RegionEmptyError when the halfplane intersection is empty.  The
    stored support values are tightened to the polygon they bound, so
    applying this to an already canonical region returns it unchanged up
    to roundoff.
    """
    h, verts = _canonicalize(samples)
    return SupportRegion(h, verts)


def _trusted_region(h: np.ndarray) -> SupportRegion:
    """Region from samples known to be support values of a convex set.

    The stored supports are kept bit-exact; only the polygon is derived.
    """
    _, verts = _canonicalize(h)
    return SupportRegion(np.asarray(h, dtype=float), verts)


def _check_same_grid(a: SupportRegion, b: SupportRegion):
    if a.m != b.m:
        raise ValueError(f"direction grids differ: {a.m} vs {b.m}")


def hausdorff(a: SupportRegion, b: SupportRegion) -> float:
    """Hausdorff distance between convex regions on the same grid.

    For convex compact sets this equals the max support difference over
    directions, up to O((pi/m)^2 * diam) grid error.
    """
    _check_same_grid(a, b)
    return float(np.max(np.abs(a.support - b.support)))


def minkowski_sum(a: SupportRegion, b: SupportRegion) -> SupportRegion:
    """Minkowski sum; support values add coordinate-wise."""
    _check_same_grid(a, b)
    return _trusted_region(a.support + b.support)


def negate(a: SupportRegion) -> SupportRegion:
    """The reflected region -A; a grid rotation by half a turn (m even)."""
    if a.m % 2 != 0:
        raise ValueError("negate requires an even number of directions")
    h = np.roll(a.support, -(a.m // 2))
    return SupportRegion(h, -a.vertices[::-1])


def hull_of_points(points, m: int) -> SupportRegion:
    """Convex hull of a point cloud as a SupportRegion.

    Stored support values are the exact maxima of Re(e^{-i theta_j} p).
    """
    p = as_point_cloud(points)
    return _trusted_region(cloud_supports(p, m))


def cloud_supports(points, m: int) -> np.ndarray:
    """max_p Re(e^{-i theta_j} p) for each grid direction."""
    p = as_point_cloud(points)
    d = _direction_matrix(m)
    return np.max(d @ np.vstack([p.real, p.imag]), axis=1)
