"""Per-frame box columns, BEV grid quantization, rotated-rectangle IoU and neighbour search.

Everything here is a pure function on immutable values. The BEV plane is the
ground plane seen from above; boxes live there as rotated rectangles. A
Frame holds one frame's objects as arrays; every stage from the simulator
to the JSONL writers works on Frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .records import BoxBEV

# Cells whose fractional index lands within this distance of an integer are
# snapped up before flooring, so boundary coordinates quantize into the cell
# they start (exact-arithmetic floor semantics despite float division).
_SNAP = 1e-9

# Intersections with polygon area below this are treated as empty.
_AREA_EPS = 1e-12

# Signs of the half-length and half-width offsets of a box's corners,
# counter-clockwise from (+l/2, +w/2), as in BoxBEV.corners.
_CORNER_SIGNS = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])

# Up to this many (i, j) pairs, pairs_within tests every pair: that costs
# less than binning the points into cells.
_DENSE_PAIRS = 2048


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
            if not math.isfinite(cells):
                raise ValueError(f"{name} extent {extent} holds no finite number of {step} m cells")
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


# The columns of Frame.boxes: the box fields of a JSONL object, in file order.
BOX_FIELDS = ("cx", "cy", "cz", "l", "w", "h", "yaw")


def wrap_yaw(yaw: np.ndarray) -> np.ndarray:
    """records.normalize_yaw of every entry, bit for bit: fmod is exact in both."""
    wrapped = np.fmod(yaw + math.pi, 2.0 * math.pi)
    wrapped = np.where(wrapped < 0.0, wrapped + 2.0 * math.pi, wrapped)
    return wrapped - math.pi


@dataclass(frozen=True, eq=False)
class Frame:
    """One frame's objects as columns, row k for object k.

    ids (n,) int64 are unique; boxes (n, 7) float64 hold BOX_FIELDS, all
    finite, with positive sides and the yaw wrapped as Box3D wraps it.
    Detection frames also hold score (n,), offset (n, 3), newborn (n,) bool,
    rel (n, 2), NaN where the relationship is null or absent, and has_rel
    (n,) bool, true where the object carried a rel field. Tracker output
    frames hold a score only; offset-target frames hold offset, newborn and
    rel.
    """

    ids: np.ndarray
    boxes: np.ndarray
    score: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None
    newborn: Optional[np.ndarray] = None
    rel: Optional[np.ndarray] = None
    has_rel: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def empty(cls) -> "Frame":
        """A frame of no objects: ids and boxes only."""
        return cls(np.zeros(0, dtype=np.int64), np.zeros((0, 7)))


def footprints(boxes: np.ndarray) -> np.ndarray:
    """(n, 5) BEV rows (cx, cy, length, width, yaw) of (n, 7) Frame.boxes rows.

    The yaw is wrapped once more, as Box3D.bev() wraps it, so a row equals
    the fields of its Box3D's footprint.
    """
    rows = boxes[:, [0, 1, 3, 4, 6]]
    rows[:, 4] = wrap_yaw(rows[:, 4])
    return rows


def bev_fields(boxes) -> np.ndarray:
    """(n, 5) rows (cx, cy, length, width, yaw) of a sequence of BoxBEV."""
    return np.array([(b.cx, b.cy, b.length, b.width, b.yaw) for b in boxes], dtype=float).reshape(-1, 5)


def _corners(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corners and half-diagonals of (cx, cy, length, width, yaw) rows.

    corners[0] and corners[1] hold each box's four corner xs and ys, made by
    the same math.cos/math.sin values and the same operations, in the same
    order, as BoxBEV.corners, so their bits match.
    """
    cx, cy, length, width, yaw = fields.T[:, :, None]
    c = np.array(list(map(math.cos, yaw.ravel().tolist()))).reshape(-1, 1)
    s = np.array(list(map(math.sin, yaw.ravel().tolist()))).reshape(-1, 1)
    dx = 0.5 * length * _CORNER_SIGNS[0]
    dy = 0.5 * width * _CORNER_SIGNS[1]
    corners = np.stack((cx + c * dx - s * dy, cy + s * dx + c * dy))
    half_diagonal = 0.5 * np.array(list(map(math.hypot, length.ravel().tolist(), width.ravel().tolist())))
    return corners, half_diagonal.reshape(-1)


def _clip(polygon: np.ndarray, clip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of quads against convex counter-clockwise quads.

    polygon and clip are (2, n, 4) arrays of corner xs and ys. Returns the n
    clipped polygons as a (2, n, width) array whose row p holds count[p]
    vertices, in the order the scalar algorithm makes them: each clip edge
    keeps the vertices on its left (side >= 0) and puts an edge crossing
    before the vertex that ends the crossing edge. A step lays its
    candidates out as (crossing, vertex) per input vertex, and a stable sort
    of the emitted flags packs them to the front of each row.
    """
    n = polygon.shape[1]
    rows = np.arange(n)[:, None]
    count = np.full(n, 4)
    edge = clip[:, :, [1, 2, 3, 0]] - clip
    for e in range(4):
        d = polygon - clip[:, :, e, None]
        side = edge[0, :, e, None] * d[1] - edge[1, :, e, None] * d[0]
        k = np.arange(polygon.shape[2])
        prev = (k - 1) % count[:, None]
        prev_side, prev_point = side[rows, prev], polygon[:, rows, prev]
        t = prev_side / (prev_side - side)
        inside = side >= 0.0
        valid = k < count[:, None]
        candidates = np.empty((2, n, len(k), 2))
        candidates[..., 0] = prev_point + t * (polygon - prev_point)
        candidates[..., 1] = polygon
        emitted = np.empty((n, len(k), 2), dtype=bool)
        emitted[..., 0] = valid & (inside != (prev_side >= 0.0))
        emitted[..., 1] = valid & inside
        emitted = emitted.reshape(n, 2 * len(k))
        count = emitted.sum(axis=1)
        order = np.argsort(~emitted, axis=1, kind="stable")[:, : count.max(initial=0)]
        polygon = candidates.reshape(2, n, 2 * len(k))[:, rows, order]
    return polygon, count


def _shoelace(polygon: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Signed area of each row's polygon, its terms added in vertex order."""
    k = np.arange(polygon.shape[2])
    nxt = polygon[:, np.arange(len(count))[:, None], (k + 1) % np.maximum(count, 1)[:, None]]
    terms = np.where(k < count[:, None], polygon[0] * nxt[1] - nxt[0] * polygon[1], 0.0)
    # cumsum adds column after column, as the scalar loop does from 0.0.
    return 0.5 * np.cumsum(np.column_stack((np.zeros(len(count)), terms)), axis=1)[:, -1]


def bev_iou_pairs(fields_a: np.ndarray, fields_b: np.ndarray, i, j) -> np.ndarray:
    """Rotated BEV IoU of rectangles fields_a[i[k]] and fields_b[j[k]] for every k.

    fields_a and fields_b are (n, 5) rows (cx, cy, length, width, yaw), as
    bev_fields and footprints make them; i and j index them. Exact convex
    polygon clipping, run for all pairs at once. Equal boxes give exactly
    1.0. Each pair is ordered canonically (the box whose row is the smaller
    tuple is clipped against the other), so a swapped pair returns identical
    bits. Pairs whose centres are at least the sum of the half-diagonals
    apart, and overlaps below 1e-12 in area, give exactly 0.0.
    """
    fields = np.concatenate([np.reshape(fields_a, (-1, 5)), np.reshape(fields_b, (-1, 5))])
    corners, half = _corners(fields)
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp) + len(fields_a)
    a, b = fields[i], fields[j]
    iou = (a == b).all(axis=1).astype(float)
    dist = np.array(list(map(math.hypot, *(a[:, :2] - b[:, :2]).T.tolist())))
    live = np.flatnonzero((iou == 0.0) & (dist < half[i] + half[j]))
    if not len(live):
        return iou
    a, b = a[live], b[live]
    # Tuple order: the first field that differs decides.
    first = (a != b).argmax(axis=1)
    swap = (b < a)[np.arange(len(live)), first]
    lo = np.where(swap, j[live], i[live])
    hi = np.where(swap, i[live], j[live])
    with np.errstate(divide="ignore", invalid="ignore"):
        polygon, count = _clip(corners[:, lo], corners[:, hi])
        inter = np.abs(_shoelace(polygon, count))
    overlap = (count >= 3) & (inter >= _AREA_EPS)
    union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
    iou[live[overlap]] = inter[overlap] / union[overlap]
    return iou


def bev_iou(a: BoxBEV, b: BoxBEV) -> float:
    """Intersection-over-union of two rotated rectangles on the BEV plane.

    One pair through bev_iou_pairs: symmetric in its arguments to the bit,
    1.0 for equal boxes, and 0.0 for overlaps below 1e-12 in area.
    """
    return float(bev_iou_pairs(bev_fields([a]), bev_fields([b]), [0], [0])[0])


def pairs_within(a_xy, b_xy, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate index pairs (i, j) with points a_xy[i] and b_xy[j] near each other.

    a_xy and b_xy are sequences of finite (x, y) points. Returned are exactly
    the pairs whose np.hypot distance is at most r·(1 + 1e-9): every pair at
    most r apart and possibly a few up to that slack beyond, so callers
    re-test the candidates with their own rule. Pairs come sorted by (i, j).
    Passing one point set twice returns its self-pairs (i, i) too; passing
    the same object twice bins its points only once.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"neighbour radius must be finite and >= 0, got {r}")
    a = np.reshape(np.asarray(a_xy, dtype=float), (-1, 2))
    b = a if b_xy is a_xy else np.reshape(np.asarray(b_xy, dtype=float), (-1, 2))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("neighbour search needs finite coordinates")
    bound = r * (1.0 + 1e-9)
    if len(a) * len(b) <= _DENSE_PAIRS:
        d = a[:, None, :] - b[None, :, :]
        return np.nonzero(np.hypot(d[..., 0], d[..., 1]) <= bound)
    i, j = _cell_candidates(a, b, bound)
    d = a[i] - b[j]
    keep = np.hypot(d[:, 0], d[:, 1]) <= bound
    i, j = i[keep], j[keep]
    order = np.argsort(i * len(b) + j)
    return i[order], j[order]


def _cell_candidates(a: np.ndarray, b: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """A superset of the pairs of a and b at most bound apart, unsorted.

    Points are binned into square cells of side at least bound, so a pair
    within bound lies in the same or adjacent cells. The side carries a
    relative 1e-6 margin, far above the rounding of x / side, and grows with
    the coordinates' magnitude so that cell indices stay below 2**28; it is
    never below 2**-1000, where the margin would vanish in subnormal
    rounding. A larger cell only adds candidates. b's points are sorted by
    packed cell key x·width + y, so cells (x+dx, y-1..y+1) form one
    contiguous key range: three searchsorted ranges per point of a, asked in
    key order, which keeps the searches local.
    """
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    side = max(bound * (1.0 + 1e-6), scale * 2.0**-28, 2.0**-1000)
    cell_a = np.floor(a / side).astype(np.int64)
    cell_b = cell_a if b is a else np.floor(b / side).astype(np.int64)
    # Shifting the lowest index to 1, with one spare column above the
    # highest, keeps y - 1 and y + 1 inside their own x column.
    low = np.minimum(cell_a.min(axis=0), cell_b.min(axis=0)) - 1
    width = int(max(cell_a[:, 1].max(), cell_b[:, 1].max()) - low[1]) + 2
    key_a = (cell_a[:, 0] - low[0]) * width + (cell_a[:, 1] - low[1])
    key_b = key_a if b is a else (cell_b[:, 0] - low[0]) * width + (cell_b[:, 1] - low[1])
    by_key = np.argsort(key_b)
    sorted_keys = key_b[by_key]
    query = by_key if b is a else np.argsort(key_a)
    centre = key_a[query] + width * np.arange(-1, 2)[:, None]
    start = np.searchsorted(sorted_keys, centre - 1, side="left").ravel()
    count = np.searchsorted(sorted_keys, centre + 1, side="right").ravel() - start
    # Position k of the concatenated ranges is start[range] + (k - range offset).
    offset = np.repeat(start - (np.cumsum(count) - count), count)
    j = by_key[offset + np.arange(int(count.sum()))]
    i = np.repeat(np.tile(query, 3), count)
    return i, j
