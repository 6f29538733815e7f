"""BEV grid quantization, rotated-rectangle IoU and neighbour search.

Everything here is a pure function on immutable values. The BEV plane is the
ground plane seen from above; boxes live there as rotated rectangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial import cKDTree

# Cells whose fractional index lands within this distance of an integer are
# snapped up before flooring, so boundary coordinates quantize into the cell
# they start (exact-arithmetic floor semantics despite float division).
_SNAP = 1e-9

# Intersections with polygon area below this are treated as empty.
_AREA_EPS = 1e-12


class OutOfBoundsError(ValueError):
    """A coordinate or cell index fell outside its grid."""


def check_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and above zero."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def check_finite_fields(config) -> None:
    """Raise ValueError naming the first dataclass field that holds a non-finite float."""
    for field in fields(config):
        value = getattr(config, field.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise ValueError(f"{field.name} must be finite, got {value}")


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    wrapped = math.fmod(yaw + math.pi, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class GridSpec:
    """Rectangular BEV grid: extents in meters, cell sizes dx/dy in meters."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    dx: float
    dy: float

    def __post_init__(self) -> None:
        check_finite_fields(self)
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError(f"degenerate extents: {self}")
        if not (self.dx > 0.0 and self.dy > 0.0):
            raise ValueError(f"cell sizes must be positive: dx={self.dx}, dy={self.dy}")
        for extent, step, name in (
            (self.x_max - self.x_min, self.dx, "x"),
            (self.y_max - self.y_min, self.dy, "y"),
        ):
            cells = extent / step
            if abs(cells - round(cells)) > 1e-6 or round(cells) < 1:
                raise ValueError(
                    f"{name} extent {extent} is not a whole number of {step} m cells"
                )

    @property
    def nx(self) -> int:
        return round((self.x_max - self.x_min) / self.dx)

    @property
    def ny(self) -> int:
        return round((self.y_max - self.y_min) / self.dy)


@dataclass(frozen=True)
class BoxBEV:
    """Rotated rectangle on the ground plane. Yaw is wrapped to [-pi, pi)."""

    cx: float
    cy: float
    length: float
    width: float
    yaw: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cx) and math.isfinite(self.cy) and math.isfinite(self.yaw)):
            raise ValueError(f"box centre and yaw must be finite: {self}")
        if not (0.0 < self.length < math.inf and 0.0 < self.width < math.inf):
            raise ValueError(f"box sides must be finite and positive: {self}")
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))

    @property
    def area(self) -> float:
        return self.length * self.width

    def corners(self) -> list[tuple[float, float]]:
        """Corner coordinates counter-clockwise, starting at (+l/2, +w/2)."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        hl, hw = 0.5 * self.length, 0.5 * self.width
        return [
            (self.cx + c * dx - s * dy, self.cy + s * dx + c * dy)
            for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
        ]


@dataclass(frozen=True)
class Box3D:
    """Upright 3D box: center, sizes (length along heading), yaw about z."""

    cx: float
    cy: float
    cz: float
    length: float
    height: float
    width: float
    yaw: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cx) and math.isfinite(self.cy) and math.isfinite(self.cz)
                and math.isfinite(self.yaw)):
            raise ValueError(f"box centre and yaw must be finite: {self}")
        if not (0.0 < self.length < math.inf and 0.0 < self.height < math.inf
                and 0.0 < self.width < math.inf):
            raise ValueError(f"box sizes must be finite and positive: {self}")
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))

    def bev(self) -> BoxBEV:
        """Footprint of the box on the ground plane."""
        return BoxBEV(self.cx, self.cy, self.length, self.width, self.yaw)


def quantize_to_grid(x: float, y: float, grid: GridSpec) -> tuple[int, int]:
    """Map a metric BEV point to its integer cell indices (j, k).

    Floor semantics: j = floor((x - x_min) / dx), likewise for k. Points
    outside the half-open extents [x_min, x_max) x [y_min, y_max) raise
    OutOfBoundsError; there is no clamping.
    """
    if not (grid.x_min <= x < grid.x_max and grid.y_min <= y < grid.y_max):
        raise OutOfBoundsError(
            f"point ({x}, {y}) outside grid extents "
            f"[{grid.x_min}, {grid.x_max}) x [{grid.y_min}, {grid.y_max})"
        )
    j = int(math.floor((x - grid.x_min) / grid.dx + _SNAP))
    k = int(math.floor((y - grid.y_min) / grid.dy + _SNAP))
    # The snap can only overflow for in-range points sitting a float ulp
    # below the upper extent; those belong to the last cell.
    return min(j, grid.nx - 1), min(k, grid.ny - 1)


def cell_center(j: int, k: int, grid: GridSpec, midpoint: bool = False) -> tuple[float, float]:
    """Metric coordinates of cell (j, k).

    Defaults to the cell's origin corner (x_min + j*dx, y_min + k*dy), the
    convention the density weighting distance uses. With midpoint=True the
    geometric center of the cell is returned instead.
    """
    if not (0 <= j < grid.nx and 0 <= k < grid.ny):
        raise OutOfBoundsError(f"cell ({j}, {k}) outside {grid.nx}x{grid.ny} grid")
    shift = 0.5 if midpoint else 0.0
    return grid.x_min + (j + shift) * grid.dx, grid.y_min + (k + shift) * grid.dy


def _polygon_area(poly: list[tuple[float, float]]) -> float:
    """Signed shoelace area (positive for counter-clockwise winding)."""
    area = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return 0.5 * area


def _clip_polygon(
    subject: list[tuple[float, float]], clip: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a polygon against a convex CCW polygon."""
    output = subject
    n = len(clip)
    for i in range(n):
        if not output:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        input_poly = output
        output = []
        prev = input_poly[-1]
        prev_side = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for curr in input_poly:
            curr_side = ex * (curr[1] - ay) - ey * (curr[0] - ax)
            if curr_side >= 0.0:
                if prev_side < 0.0:
                    output.append(_intersect(prev, curr, prev_side, curr_side))
                output.append(curr)
            elif prev_side >= 0.0:
                output.append(_intersect(prev, curr, prev_side, curr_side))
            prev, prev_side = curr, curr_side
    return output


def _intersect(p, q, side_p, side_q) -> tuple[float, float]:
    t = side_p / (side_p - side_q)
    return p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])


def bev_iou(a: BoxBEV, b: BoxBEV) -> float:
    """Intersection-over-union of two rotated rectangles on the BEV plane.

    Exact convex polygon clipping; symmetric in its arguments (the pair is
    ordered canonically before clipping so swapped calls return identical
    bits). Overlap area below 1e-12 counts as disjoint.
    """
    if a == b:
        return 1.0
    # Canonical operand order makes the float result symmetric.
    if (b.cx, b.cy, b.length, b.width, b.yaw) < (a.cx, a.cy, a.length, a.width, a.yaw):
        a, b = b, a
    ra = 0.5 * math.hypot(a.length, a.width)
    rb = 0.5 * math.hypot(b.length, b.width)
    if math.hypot(a.cx - b.cx, a.cy - b.cy) >= ra + rb:
        return 0.0
    inter_poly = _clip_polygon(a.corners(), b.corners())
    if len(inter_poly) < 3:
        return 0.0
    inter = abs(_polygon_area(inter_poly))
    if inter < _AREA_EPS:
        return 0.0
    union = a.area + b.area - inter
    return inter / union


def pairs_within(a_xy, b_xy, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate index pairs (i, j) with points a_xy[i] and b_xy[j] near each other.

    a_xy and b_xy are sequences of (x, y) points. Every pair at most r apart
    is returned, and possibly pairs up to a relative 1e-9 beyond r: the tree
    rounds distances differently from the callers' exact tests, so callers
    re-test the candidates with their own rule. Pairs come sorted by (i, j).
    Passing one point set twice returns its self-pairs (i, i) too; passing
    the same object twice builds its tree only once.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"neighbour radius must be finite and >= 0, got {r}")
    a = np.reshape(np.asarray(a_xy, dtype=float), (-1, 2))
    b = a if b_xy is a_xy else np.reshape(np.asarray(b_xy, dtype=float), (-1, 2))
    bound = r * (1.0 + 1e-9)
    tree = cKDTree(a)
    other = tree if b is a else cKDTree(b)
    found = tree.sparse_distance_matrix(other, bound, output_type="ndarray")
    # The tree sums squares, which underflow to 0 for subnormal gaps, so it can
    # report a pair at any distance below ~1e-154 as within r; drop those.
    i, j = found["i"], found["j"]
    d = a[i] - b[j]
    keep = np.hypot(d[:, 0], d[:, 1]) <= bound
    i, j = i[keep], j[keep]
    order = np.lexsort((j, i))
    return i[order], j[order]
