"""Per-frame box columns, BEV grid quantization, rotated-rectangle IoU and neighbour search.

Everything here is a pure function on immutable values. The BEV plane is the
ground plane seen from above; boxes live there as rotated rectangles. A
Frame holds one frame's objects as arrays; every stage from the simulator
to the JSONL writers works on Frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

# Radius (meters) at which the crowding statistic and the simulator's
# crowding level are defined.
DENSITY_RADIUS = 2.0

# A cell index whose fraction lands within this distance of an integer is
# snapped up before flooring, so a coordinate on a cell boundary lands in the
# cell it starts (exact-arithmetic floor semantics despite float division).
# The one cell rule of BEV grids and voxel grids alike: see to_cells.
_SNAP = 1e-9

# Intersections with polygon area below this are treated as empty.
_AREA_EPS = 1e-12

# Signs of the half-length and half-width offsets of a box's corners,
# counter-clockwise from (+l/2, +w/2).
_CORNER_SIGNS = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])

# Up to this many (i, j) pairs, pairs_within tests every pair: that costs
# less than binning the points into cells.
_DENSE_PAIRS = 2048


class OutOfBoundsError(ValueError):
    """A coordinate or cell index fell outside its grid."""


class GridMismatchError(ValueError):
    """Dense grids passed to one operation do not share a GridSpec."""


def check_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and above zero."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def check_finite_fields(config) -> None:
    """Raise ValueError naming the first dataclass init field that holds a non-finite float."""
    for name in (f.name for f in fields(config) if f.init):
        value = getattr(config, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise ValueError(f"{name} must be finite, got {value}")


def distinct(values, return_inverse: bool = False, return_counts: bool = False):
    """The sorted distinct values of a 1-d array, as np.unique returns them.

    One sort and a neighbour mask: an argsort where the inverse is asked,
    one np.sort otherwise. With a flag set, returns a tuple: the distinct
    values, then, in this order, the inverse (the index of each input value
    among them) and each one's count. Equal values must compare equal, as
    integers do. Unlike np.unique, whose first call imports numpy.ma (about
    14 ms and 1.2 MB), it loads nothing.
    """
    values = np.asarray(values)
    if return_inverse:
        order = np.argsort(values)
        ordered = values[order]
    else:
        ordered = np.sort(values)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if not (return_inverse or return_counts):
        return ordered[first]
    starts = np.flatnonzero(first)
    result = (ordered[starts],)
    if return_inverse:
        inverse = np.empty(len(order), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        result += (inverse,)
    if return_counts:
        result += (np.diff(np.append(starts, len(first))),)
    return result


class Stacked:
    """Per-frame arrays of rows, stacked frame after frame.

    rows holds every part's rows in part order, start the row each part
    begins at and then the row count, and number each row's part number. A
    sequence of no parts stacks to `empty`, an array of no rows with the
    parts' row shape and dtype.
    """

    def __init__(self, parts: Sequence[np.ndarray], empty: np.ndarray):
        self.rows = np.concatenate([empty, *parts])
        self.start = np.cumsum([0, *map(len, parts)])
        self.number = np.repeat(np.arange(len(parts)), np.diff(self.start))

    def split(self, rows: np.ndarray) -> list[np.ndarray]:
        """rows, one for each stacked row, cut back into one array per part."""
        bounds = self.start.tolist()
        return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def _bounds(spec, axes: str) -> list[list[float]]:
    """The lows, the highs and the cell sizes of the named axes of a grid spec."""
    return [[getattr(spec, name.format(a)) for a in axes] for name in ("{}_min", "{}_max", "d{}")]


def cell_counts(spec, axes: str) -> tuple[int, ...]:
    """The cell count along each axis of a grid spec; ValueError unless the spec is valid.

    spec has the fields {a}_min, {a}_max and d{a} for each letter a of axes.
    Every field must be finite, every extent non-empty and every cell size
    positive, and each extent must hold a whole number of cells, at least
    one, within 1e-6. GridSpec ("xy") and sparsegrid.VoxelSpec ("xyz") both
    check themselves here.
    """
    check_finite_fields(spec)
    low, high, step = _bounds(spec, axes)
    if not all(h > lo for lo, h in zip(low, high)):
        raise ValueError(f"degenerate extents: {spec}")
    if not all(d > 0.0 for d in step):
        sizes = ", ".join(f"d{a}={d}" for a, d in zip(axes, step))
        raise ValueError(f"cell sizes must be positive: {sizes}")
    counts = []
    for a, lo, h, d in zip(axes, low, high, step):
        cells = (h - lo) / d
        if not math.isfinite(cells):
            raise ValueError(f"{a} extent {h - lo} holds no finite number of {d} m cells")
        if abs(cells - round(cells)) > 1e-6 or round(cells) < 1:
            raise ValueError(f"{a} extent {h - lo} is not a whole number of {d} m cells")
        counts.append(round(cells))
    return tuple(counts)


def to_cells(points, spec) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of points lie inside a grid spec's extents, and the cells of those rows.

    spec is a GridSpec or a sparsegrid.VoxelSpec of d axes (x, y, then z),
    and the first d columns of the (n, >= d) points hold their coordinates.
    A row is inside when low <= p < high on every axis. Its index on an
    axis is floor((p - low) / step + _SNAP), at most the last cell: the snap
    can carry a point an ulp below the upper extent onto the bound. Returns
    the (n,) bool mask and the (inside rows, d) int64 cells, in input order.

    Each axis is copied out once as a contiguous column, tested and binned in
    place, and its cells written to one column of the result (a transposed
    (d, rows) array): the same IEEE operations per element as on the whole
    (n, d) view, whatever the points' memory layout. On 20k voxel points,
    0.21 ms against 0.69 ms for six temporaries of the (n, 3) view (timeit,
    best of 5 x 200, 2-vCPU VM, numpy 2.4).
    """
    low, high, step = np.array(_bounds(spec, "xyz"[: len(spec.shape)]))
    points = np.asarray(points, dtype=np.float64)
    columns = np.empty((len(low), len(points)))
    inside = np.ones(len(points), dtype=bool)
    test = np.empty(len(points), dtype=bool)
    for axis, column in enumerate(columns):
        column[:] = points[:, axis]
        inside &= np.greater_equal(column, low[axis], out=test)
        inside &= np.less(column, high[axis], out=test)
    if not inside.all():
        columns = columns[:, inside]
    cells = np.empty(columns.shape, dtype=np.int64)
    for column, cell, lo, d, count in zip(columns, cells, low, step, spec.shape):
        column -= lo
        column /= d
        column += _SNAP
        np.floor(column, out=column)
        cell[:] = column
        np.minimum(cell, count - 1, out=cell)
    return inside, cells.T


@dataclass(frozen=True)
class GridSpec:
    """Rectangular BEV grid: extents in meters, cell sizes dx/dy in meters.

    shape (nx, ny) holds the cell counts cell_counts found, each below 2**63
    so that every cell index fits int64.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    dx: float
    dy: float
    shape: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = cell_counts(self, "xy")
        for axis, count in zip("xy", shape):
            if count >= 2**63:
                raise ValueError(
                    f"{axis} extent holds {count:.6g} cells, more than an int64 cell index can number"
                )
        object.__setattr__(self, "shape", shape)

    @property
    def nx(self) -> int:
        return self.shape[0]

    @property
    def ny(self) -> int:
        return self.shape[1]


@dataclass(frozen=True, eq=False)
class DenseGrid2D:
    """A dense nx-by-ny array of values laid over a BEV grid.

    values[j, k] corresponds to cell (j, k) of the grid; j indexes x, k
    indexes y.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != self.grid.shape:
            raise GridMismatchError(f"values shape {arr.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", arr)


def _off_grid(x, y, grid: GridSpec) -> OutOfBoundsError:
    extents = f"[{grid.x_min}, {grid.x_max}) x [{grid.y_min}, {grid.y_max})"
    return OutOfBoundsError(f"point ({x}, {y}) outside grid extents {extents}")


def grid_cells(xy: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The (n, 2) cells (j, k) of (n, 2) BEV points, each as quantize_to_grid gives it.

    A point outside the grid's half-open extents raises OutOfBoundsError,
    naming the first such point as quantize_to_grid does.
    """
    inside, cells = to_cells(xy, grid)
    if not inside.all():
        raise _off_grid(*xy[inside.argmin()].tolist(), grid)
    return cells


def quantize_to_grid(x: float, y: float, grid: GridSpec) -> tuple[int, int]:
    """Map a metric BEV point to its integer cell indices (j, k).

    Floor semantics: j = floor((x - x_min) / dx), likewise for k. Points
    outside the half-open extents [x_min, x_max) x [y_min, y_max) raise
    OutOfBoundsError; there is no clamping. The one-point case of to_cells.
    """
    inside, cells = to_cells([[x, y]], grid)
    if not inside[0]:
        raise _off_grid(x, y, grid)
    return tuple(cells[0].tolist())


def cell_points(j, k, grid: GridSpec, midpoint: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Metric x of each column index in j and y of each row index in k.

    Defaults to the cells' origin corners, x_min + j*dx and y_min + k*dy,
    the convention the density weighting distance uses. With midpoint=True
    the geometric centers are returned instead. Indices are not checked.
    """
    shift = 0.5 if midpoint else 0.0
    return grid.x_min + (np.asarray(j) + shift) * grid.dx, grid.y_min + (np.asarray(k) + shift) * grid.dy


def cell_center(j: int, k: int, grid: GridSpec, midpoint: bool = False) -> tuple[float, float]:
    """Metric coordinates of cell (j, k): cell_points of one cell on the grid."""
    if not (0 <= j < grid.nx and 0 <= k < grid.ny):
        raise OutOfBoundsError(f"cell ({j}, {k}) outside {grid.nx}x{grid.ny} grid")
    x, y = cell_points(j, k, grid, midpoint)
    return float(x), float(y)


# The columns of Frame.boxes: the box fields of a JSONL object, in file order.
BOX_FIELDS = ("cx", "cy", "cz", "l", "w", "h", "yaw")


def wrap_yaw(yaw: np.ndarray) -> np.ndarray:
    """Each angle wrapped into [-pi, pi): fmod(yaw + pi, 2 pi), plus 2 pi where negative, less pi.

    The one yaw wrap of the package. fmod is exact, so a scalar loop of the
    same three steps gives the same bits.
    """
    wrapped = np.fmod(yaw + math.pi, 2.0 * math.pi)
    wrapped = np.where(wrapped < 0.0, wrapped + 2.0 * math.pi, wrapped)
    return wrapped - math.pi


@dataclass(frozen=True, eq=False)
class Frame:
    """One frame's objects as columns, row k for object k.

    ids (n,) int64 are unique; boxes (n, 7) float64 hold BOX_FIELDS, valid
    as valid_boxes checks them, with each yaw wrapped by wrap_yaw.
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


def valid_boxes(boxes: np.ndarray) -> bool:
    """Whether every field of (n, 7) BOX_FIELDS rows is finite and every l, w and h positive."""
    return bool(np.isfinite(boxes).all() and (boxes[:, 3:6] > 0.0).all())


def footprints(boxes: np.ndarray) -> np.ndarray:
    """(n, 5) BEV rows (cx, cy, length, width, yaw) of (n, 7) Frame.boxes rows.

    The yaw is wrapped once more: wrapping a wrapped yaw can move it by an
    ulp, and the evaluator's IoUs, pinned by the golden digests, are taken
    on these twice-wrapped bits.
    """
    rows = boxes[:, [0, 1, 3, 4, 6]]
    rows[:, 4] = wrap_yaw(rows[:, 4])
    return rows


def _corners(fields: np.ndarray) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], np.ndarray]:
    """Corners and half-diagonals of (cx, cy, length, width, yaw) rows.

    Returns `place` and the half-diagonals. place(rows, centres) gives the
    corners of rows `rows` moved to the (m, 2) `centres`, a (2, m, 4) array
    of each box's four corner xs and ys, counter-clockwise from
    (+l/2, +w/2): x = cx + c·dx − s·dy and y = cy + s·dx + c·dy, with c and
    s from math.cos and math.sin, so a scalar loop of these operations
    gives the same bits. Each row's products are made once, for any centre.
    """
    _, _, length, width, yaw = fields.T[:, :, None]
    c = np.array(list(map(math.cos, yaw.ravel().tolist()))).reshape(-1, 1)
    s = np.array(list(map(math.sin, yaw.ravel().tolist()))).reshape(-1, 1)
    dx = 0.5 * length * _CORNER_SIGNS[0]
    dy = 0.5 * width * _CORNER_SIGNS[1]
    terms = np.stack((c * dx, s * dy, s * dx, c * dy))

    def place(rows: np.ndarray, centres: np.ndarray) -> np.ndarray:
        cdx, sdy, sdx, cdy = terms[:, rows]
        return np.stack((centres[:, :1] + cdx - sdy, centres[:, 1:] + sdx + cdy))

    half_diagonal = 0.5 * np.array(list(map(math.hypot, length.ravel().tolist(), width.ravel().tolist())))
    return place, half_diagonal.reshape(-1)


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
    footprints makes them; i and j index them. Exact convex
    polygon clipping, run for all pairs at once. Equal boxes give exactly
    1.0. Each pair is ordered canonically (the box whose row is the smaller
    tuple is clipped against the other), so a swapped pair returns identical
    bits. Pairs whose centres are at least the sum of the half-diagonals
    apart, and overlaps below 1e-12 in area, give exactly 0.0. A pair is
    clipped with its first box's centre at the origin and the other's at
    the difference of their centres, so a pair's IoU does not depend on
    where it lies: the same boxes give the same bits near the origin and
    1e15 m from it. Corner terms are made only for the rows some pair
    names, so a few pairs of a long field array cost no more than those of
    a short one. A clipped pair whose intersection area or union is beyond
    the float range raises ValueError.
    """
    rows_a, i = distinct(np.asarray(i, dtype=np.intp), return_inverse=True)
    rows_b, j = distinct(np.asarray(j, dtype=np.intp), return_inverse=True)
    fields_a, fields_b = np.reshape(fields_a, (-1, 5)), np.reshape(fields_b, (-1, 5))
    fields = np.concatenate([fields_a[rows_a], fields_b[rows_b]])
    place, half = _corners(fields)
    j = j + len(rows_a)
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        offset = fields[hi, :2] - fields[lo, :2]
        polygon, count = _clip(place(lo, np.zeros_like(offset)), place(hi, offset))
        inter = np.abs(_shoelace(polygon, count))
        union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
    finite = np.isfinite(inter) & np.isfinite(union)
    if not finite.all():
        k = finite.argmin()
        raise ValueError(f"BEV IoU of footprints {a[k].tolist()} and {b[k].tolist()} "
                         "overflows: its intersection or union is not finite")
    overlap = (count >= 3) & (inter >= _AREA_EPS)
    iou[live[overlap]] = inter[overlap] / union[overlap]
    return iou


def bev_iou_bounds(fields_a: np.ndarray, fields_b: np.ndarray, i, j) -> np.ndarray:
    """An upper bound on bev_iou_pairs(fields_a, fields_b, i, j), pair by pair, without clipping.

    In the frame of either rectangle, the intersection lies inside the box
    spanned by the overlaps of the two rectangles' extents along that
    frame's axes, so its area I is at most U, the smaller of those two
    boxes' areas, and IoU = I / (A + B - I) rises with I. U is raised by
    2**-32 times the square of the pair's largest coordinate plus
    half-diagonal, far above the rounding of bev_iou_pairs' corners and
    shoelace sum, which grows with the coordinates' magnitude; the bound is
    raised by a relative 2**-20 for its own rounding, and is inf where U
    reaches A + B - U or A + B - U is not finite, so a pair whose IoU
    overflows is kept, for bev_iou_pairs to reject.
    """
    fields_a, fields_b = np.reshape(fields_a, (-1, 5)), np.reshape(fields_b, (-1, 5))
    a, b = fields_a[i], fields_b[j]
    half_a, half_b = 0.5 * a[:, 2:4], 0.5 * b[:, 2:4]
    cos_a, sin_a, cos_b, sin_b = np.cos(a[:, 4]), np.sin(a[:, 4]), np.cos(b[:, 4]), np.sin(b[:, 4])
    # |cos| and |sin| of the angle between the rectangles' length axes.
    turn = np.abs(np.stack([cos_a * cos_b + sin_a * sin_b, sin_a * cos_b - cos_a * sin_b]))
    dx, dy = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        boxes = []
        for half, other, cos, sin, sign in ((half_a, half_b, cos_a, sin_a, 1.0),
                                            (half_b, half_a, cos_b, sin_b, -1.0)):
            # The other rectangle's centre and half-extents along this one's axes.
            centre = sign * np.stack([dx * cos + dy * sin, dy * cos - dx * sin])
            extent = np.stack([other[:, 0] * turn[0] + other[:, 1] * turn[1],
                               other[:, 0] * turn[1] + other[:, 1] * turn[0]])
            high = np.minimum(half.T, centre + extent)
            low = np.maximum(-half.T, centre - extent)
            boxes.append(np.prod(np.maximum(high - low, 0.0), axis=0))
        radius = np.maximum(np.hypot(*half_a.T), np.hypot(*half_b.T))
        scale = np.maximum(np.abs(a[:, :2]).max(axis=1), np.abs(b[:, :2]).max(axis=1)) + radius
        overlap = np.minimum(*boxes) + 2.0**-32 * scale * scale
        union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - overlap
        bound = np.where((union > 0.0) & (union < math.inf), overlap / union, math.inf)
    return bound * (1.0 + 2.0**-20)


def bev_iou(a, b) -> float:
    """Intersection-over-union of the BEV footprints of two boxes, each one BOX_FIELDS row.

    ValueError unless both rows pass valid_boxes. One pair through
    bev_iou_pairs, on the footprints the evaluator clips: symmetric in its
    arguments to the bit, 1.0 for equal boxes, and 0.0 for overlaps below
    1e-12 in area.
    """
    boxes = np.array([a, b], dtype=float)
    if boxes.shape != (2, 7) or not valid_boxes(boxes):
        raise ValueError(f"bev_iou needs two rows of {len(BOX_FIELDS)} finite box fields with "
                         f"positive sides, got {a!r} and {b!r}")
    rows = footprints(boxes)
    return float(bev_iou_pairs(rows, rows, [0], [1])[0])


def pairs_within(a_xy, b_xy, r: float, groups=None) -> tuple[np.ndarray, np.ndarray]:
    """Candidate index pairs (i, j) with points a_xy[i] and b_xy[j] near each other.

    a_xy and b_xy are sequences of finite (x, y) points. Returned are exactly
    the pairs whose np.hypot distance is at most r·(1 + 1e-9): every pair at
    most r apart and possibly a few up to that slack beyond, so callers
    re-test the candidates with their own rule. Pairs come sorted by (i, j).
    Passing one point set twice returns its self-pairs (i, i) too; passing
    the same object twice (and the same labels object twice) bins its
    points only once.

    groups, when given, is a pair (group_a, group_b) of integer labels, one
    per point of a_xy and of b_xy, such as frame numbers; only pairs whose
    points carry the same label are returned. One call so answers the
    queries of many frames whose points are stacked into one array.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"neighbour radius must be finite and >= 0, got {r}")
    a = np.reshape(np.asarray(a_xy, dtype=float), (-1, 2))
    same = b_xy is a_xy and (groups is None or groups[1] is groups[0])
    b = a if same else np.reshape(np.asarray(b_xy, dtype=float), (-1, 2))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("neighbour search needs finite coordinates")
    label_a = label_b = None
    if groups is not None:
        label_a = np.reshape(np.asarray(groups[0], dtype=np.int64), -1)
        label_b = label_a if same else np.reshape(np.asarray(groups[1], dtype=np.int64), -1)
        if (len(label_a), len(label_b)) != (len(a), len(b)):
            raise ValueError("neighbour search needs one group label per point")
    bound = r * (1.0 + 1e-9)
    # A distance beyond the float range is inf, which is not near.
    if len(a) * len(b) <= _DENSE_PAIRS:
        with np.errstate(over="ignore"):
            d = a[:, None, :] - b[None, :, :]
            near = np.hypot(d[..., 0], d[..., 1]) <= bound
        if label_a is not None:
            near &= label_a[:, None] == label_b[None, :]
        return np.nonzero(near)
    i, j = _cell_candidates(a, b, bound, label_a, label_b)
    with np.errstate(over="ignore"):
        d = a[i] - b[j]
        keep = np.hypot(d[:, 0], d[:, 1]) <= bound
    i, j = i[keep], j[keep]
    order = np.argsort(i * len(b) + j)
    return i[order], j[order]


def cell_side(bound: float, scale: float) -> float:
    """The side of square neighbour cells for pairs at most `bound` apart.

    Every side is at least bound, so a pair within bound lies in the same or
    adjacent cells. The side carries a relative 1e-6 margin, far above the
    rounding of x / side, and grows with `scale`, the largest coordinate
    magnitude binned, so that cell indices stay below 2**28; it is never below
    2**-1000, where the margin would vanish in subnormal rounding. A larger
    cell only adds candidates.
    """
    return max(bound * (1.0 + 1e-6), scale * 2.0**-28, 2.0**-1000)


def _cell_candidates(
    a: np.ndarray,
    b: np.ndarray,
    bound: float,
    label_a: Optional[np.ndarray],
    label_b: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """A superset of the same-label pairs of a and b at most bound apart, unsorted.

    Points are binned into square cells of side cell_side(bound, scale), so
    a pair within bound lies in the same or adjacent cells.

    A column is one x index of one label: labels are ranked, and each rank
    owns a band of x indices with a spare one on either side, so x - 1 and
    x + 1 stay inside their own label's band. b's points are sorted by the
    packed key column·width + y, so cells (x+dx, y-1..y+1) of one label form
    one contiguous key range: three searchsorted ranges per point of a,
    asked in key order, which keeps the searches local. Where that key
    could pass 2**62 (huge spans with many labels), b's distinct columns
    are ranked and the rank stands for the column; a column that holds no
    point of b then has no rank and gives no candidates.
    """
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    side = cell_side(bound, scale)
    cell_a = np.floor(a / side).astype(np.int64)
    cell_b = cell_a if b is a else np.floor(b / side).astype(np.int64)
    # Shifting the lowest index to 1, with one spare index above the
    # highest, keeps x ± 1 and y ± 1 inside their own band and column.
    low = np.minimum(cell_a.min(axis=0), cell_b.min(axis=0)) - 1
    band, width = (np.maximum(cell_a.max(axis=0), cell_b.max(axis=0)) - low + 2).tolist()
    column_a, row_a = cell_a[:, 0] - low[0], cell_a[:, 1] - low[1]
    column_b, row_b = (column_a, row_a) if b is a else (cell_b[:, 0] - low[0], cell_b[:, 1] - low[1])
    if label_a is not None:
        labels, rank = distinct(np.concatenate([label_a, label_b]), return_inverse=True)
        column_a = column_a + rank[: len(a)] * band
        column_b = column_a if b is a else column_b + rank[len(a):] * band
        band *= len(labels)
    ranked = band * width >= 2**62
    if ranked:
        columns, slot_b = distinct(column_b, return_inverse=True)
    else:
        slot_b = column_b
    key_b = slot_b * width + row_b
    by_key = np.argsort(key_b)
    sorted_keys = key_b[by_key]
    if b is a:
        query = by_key
    else:
        # Asked in key order; a column that b lacks sorts at its insertion rank.
        slot_a = np.searchsorted(columns, column_a) if ranked else column_a
        query = np.argsort(slot_a * width + row_a)
    # Each point of a asks for the column to its left, its own and the one
    # to its right.
    wanted = column_a[query] + np.arange(-1, 2)[:, None]
    slot = np.searchsorted(columns, wanted) if ranked else wanted
    centre = slot * width + row_a[query]
    start = np.searchsorted(sorted_keys, centre - 1, side="left")
    count = np.searchsorted(sorted_keys, centre + 1, side="right") - start
    if ranked:
        count[columns[np.minimum(slot, len(columns) - 1)] != wanted] = 0
    start, count = start.ravel(), count.ravel()
    # Position k of the concatenated ranges is start[range] + (k - range offset).
    offset = np.repeat(start - (np.cumsum(count) - count), count)
    j = by_key[offset + np.arange(int(count.sum()))]
    i = np.repeat(np.tile(query, 3), count)
    return i, j
