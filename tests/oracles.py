"""Reference implementations the fast code is checked against.

The JSONL text oracle builds one dict per object and one json.dumps per
frame; the writers in crowdmot.formats must give its bytes, and raise where
it does.

The box oracles are the scalar rules that geometry's array code must
reproduce bit for bit: normalize_yaw, the yaw wrap, and the corners of one
footprint. box_row builds one box as the BOX_FIELDS row a Frame holds.

The matching oracles, shared by the tracker, evaluator and acceptance tests,
enumerate every injective pairing of rows to columns whose pairs all pass
the gate, so they are meant for frames of a handful of objects. They read
one object at a time, as a GtObject or a Detection record; frame_of turns a
list of records into the Frame the code under test takes. The simulator oracles are the plain loops
the simulator's array code must reproduce bit for bit.

The per-frame oracles are the loops that evaluation and the offset targets
ran before they became one pass over a sequence: one neighbour query, one
IoU kernel call, one id join per frame. Each offset oracle returns the
results of the frames before the first frame that fails, and that frame's
error.

topology_report_by_stages is the voxelshapes table as it was first built:
from the stage grids, voxelize through the encoder chain and the fusion,
reading each row off a grid. stage_counts_by_coarsening counts the table's
stages as topology_report did before its one Z-order sort: one distinct of
the last stage's keys coarsened by one shift per stride.

The cell-rule oracles are the two copies of the rule that geometry.to_cells
replaced: the scalar quantize_to_grid, one point at a time, and the voxel
quantizer of sparsegrid, one axis at a time. ravel_order is the order of
the row-major keys sparsegrid used before its bit-field keys.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from crowdmot.evaluator import EvalCounts, SequenceMetrics, match_frame, mota, mtr_mlr
from crowdmot.geometry import (
    BOX_FIELDS,
    Frame,
    OutOfBoundsError,
    bev_iou,
    bev_iou_pairs,
    distinct,
    footprints,
    pairs_within,
)
from crowdmot.simulator import MIN_SEPARATION
from crowdmot.sparsegrid import (
    DEFAULT_WIDTHS,
    VoxelSpec,
    _coarsen,
    encoder_chain,
    fuse_hr,
    fuse_ms,
    voxelize,
)

# Totals this close to the best one count as ties.
TIE = 1e-12

# The snap of the cell-rule oracles: a fraction this close to an integer floors up.
SNAP = 1e-9


def normalize_yaw(yaw):
    """Wrap one angle into [-pi, pi): the scalar rule geometry.wrap_yaw must give bit for bit."""
    wrapped = math.fmod(yaw + math.pi, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def box_row(cx, cy, cz=0.85, l=0.6, w=0.6, h=1.7, yaw=0.0):
    """One box as a BOX_FIELDS row, its yaw wrapped as the JSONL readers wrap it; a pedestrian by default."""
    return (cx, cy, cz, l, w, h, normalize_yaw(yaw))


def footprint(box):
    """(cx, cy, length, width, yaw) of one BOX_FIELDS row, its yaw wrapped again as footprints wraps it."""
    cx, cy, _, length, width, _, yaw = box
    return cx, cy, length, width, normalize_yaw(yaw)


def corners(rect):
    """The corners of one (cx, cy, length, width, yaw) rectangle, counter-clockwise from (+l/2, +w/2).

    The per-box rule whose bits geometry._corners must give.
    """
    cx, cy, length, width, yaw = rect
    c, s = math.cos(yaw), math.sin(yaw)
    hl, hw = 0.5 * length, 0.5 * width
    return [
        (cx + c * dx - s * dy, cy + s * dx + c * dy)
        for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    ]


@dataclass(frozen=True)
class GtObject:
    """One annotated object: its id and its box, a BOX_FIELDS row."""

    instance_id: int
    box: tuple


@dataclass(frozen=True)
class Detection:
    """One detection: box (a BOX_FIELDS row), score and predicted motion offset (ox, oy, oz)."""

    box: tuple
    score: float
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)


def frame_of(objects) -> Frame:
    """The Frame of one frame's GtObjects, (id, box row) pairs or Detections.

    A detection's id is its index in the list, as in a detection file; its
    frame has no newborn flag and no rel. An empty list gives an empty frame
    with every detection column.
    """
    objects = list(objects)
    dets = not objects or isinstance(objects[0], Detection)
    if dets:
        ids, boxes = range(len(objects)), [d.box for d in objects]
    elif isinstance(objects[0], GtObject):
        ids, boxes = [o.instance_id for o in objects], [o.box for o in objects]
    else:
        ids, boxes = [k for k, _ in objects], [b for _, b in objects]
    frame = Frame(np.array(ids, dtype=np.int64).reshape(-1), np.array(boxes, dtype=float).reshape(-1, 7))
    if not dets:
        return frame
    n = len(objects)
    return Frame(
        frame.ids,
        frame.boxes,
        score=np.array([d.score for d in objects], dtype=float),
        offset=np.array([d.offset for d in objects], dtype=float).reshape(-1, 3),
        newborn=np.zeros(n, dtype=bool),
        rel=np.full((n, 2), np.nan),
        has_rel=np.zeros(n, dtype=bool),
    )


def _pairings(allowed):
    """Every injective set of (row, col) pairs drawn from the pairs in `allowed`.

    Rows are taken in turn, each left out or given a column no earlier row
    holds, so no set with a pair outside `allowed` is ever built.
    """
    cols_of = {}
    for row, col in allowed:
        cols_of.setdefault(row, []).append(col)
    rows = list(cols_of.items())

    def extend(at, used):
        if at == len(rows):
            yield ()
            return
        yield from extend(at + 1, used)
        row, cols = rows[at]
        for col in cols:
            if col not in used:
                for rest in extend(at + 1, used | {col}):
                    yield ((row, col),) + rest

    return (frozenset(pairs) for pairs in extend(0, frozenset()))


def exhaustive_assignment(dets, tracks, max_dist):
    """Most matches, then least total distance, over every gated det->track assignment.

    Each detection is shifted by its predicted offset, as associate shifts
    it. Returns the best set of (detection index, track id) pairs and whether
    it is unique: every other assignment with as many matches has a total
    more than TIE above it.
    """
    dists = {}
    for i, d in enumerate(dets):
        px, py = d.box[0] + d.offset[0], d.box[1] + d.offset[1]
        for tid, (cx, cy) in tracks:
            dist = math.hypot(cx - px, cy - py)
            if dist <= max_dist:
                dists[(i, tid)] = dist
    gated = [(len(pairs), sum(dists[p] for p in pairs), pairs) for pairs in _pairings(dists)]
    most = max(n for n, _, _ in gated)
    finalists = [(total, pairs) for n, total, pairs in gated if n == most]
    best_total, best_pairs = min(finalists, key=lambda c: c[0])
    unique = all(total > best_total + TIE for total, pairs in finalists if pairs != best_pairs)
    return set(best_pairs), unique


def iou_matrix(gt_boxes, pred_boxes):
    """Rotated BEV IoU of every (GT box, predicted box) pair, one bev_iou call each."""
    iou = np.zeros((len(gt_boxes), len(pred_boxes)))
    for i, g in enumerate(gt_boxes):
        for j, p in enumerate(pred_boxes):
            iou[i, j] = bev_iou(g, p)
    return iou


def exhaustive_iou_match(iou, threshold):
    """Max total IoU over every assignment of (row, column) pairs with IoU >= threshold.

    Returns the best pair set, its total, and whether it is unique: every
    other assignment has a total more than TIE below it.
    """
    allowed = [(i, j) for i, j in np.ndindex(iou.shape) if iou[i, j] >= threshold]
    scored = [(sum(iou[p] for p in pairs), pairs) for pairs in _pairings(allowed)]
    best_total, best_pairs = max(scored, key=lambda c: c[0])
    unique = all(total < best_total - TIE for total, pairs in scored if pairs != best_pairs)
    return best_pairs, best_total, unique


def too_close_to_any_placed(placed, cand):
    """The placement test by a scan over every placed point: any np.hypot below MIN_SEPARATION."""
    placed = np.reshape(np.asarray(placed, dtype=float), (-1, 2))
    # Far pairs near the float limit overflow to inf, which is not close.
    with np.errstate(over="ignore"):
        return len(placed) > 0 and bool(np.hypot(*(placed - cand).T).min() < MIN_SEPARATION)


def reflect_scalar(value, vel, lo, hi):
    """Bounce one coordinate off [lo, hi] up to four times, flipping its velocity, then clamp."""
    for _ in range(4):
        if value < lo:
            value, vel = 2.0 * lo - value, -vel
        elif value > hi:
            value, vel = 2.0 * hi - value, -vel
        else:
            break
    return min(max(value, lo), hi), vel


def repair_separation_by_pair_loop(pos, lo, hi):
    """Separation repair with each round's pushes made pair by pair, in ascending (a, b) order.

    The pushes of a round use the offsets taken at its start. Returns None
    where the simulator raises: pairs still too close after 32 rounds.
    """
    gap = MIN_SEPARATION * 1.01
    for _ in range(32):
        i, j = pairs_within(pos, pos, MIN_SEPARATION)
        i, j = i[i < j], j[i < j]
        diff = pos[i] - pos[j]
        dist = np.sqrt((diff**2).sum(axis=1))
        bad = dist < MIN_SEPARATION
        if not bad.any():
            return pos
        for a, b, d, delta in zip(i[bad], j[bad], dist[bad], diff[bad]):
            if d < 1e-12:
                direction = np.array([1.0, 0.0])
                d = 0.0
            else:
                direction = delta / d
            push = 0.5 * (gap - d)
            pos[a] += direction * push
            pos[b] -= direction * push
        np.clip(pos, lo, hi, out=pos)
    i, j = pairs_within(pos, pos, MIN_SEPARATION)
    d = pos[i[i < j]] - pos[j[i < j]]
    return None if (np.sqrt((d**2).sum(axis=1)) < MIN_SEPARATION).any() else pos


# Stands for a field an object does not have.
_ABSENT = object()


def _box_values(frame):
    return list(zip(BOX_FIELDS, frame.boxes.T.tolist()))


def _rel_values(frame):
    """Per object [rx, ry], or None where the relationship is undefined (rx is NaN)."""
    return [None if math.isnan(rx) else [rx, ry] for rx, ry in frame.rel.tolist()]


# Per JSONL writer, the (key, values) pairs of a frame's objects after the id,
# in key order, one value per object in row order; _ABSENT leaves a key out.
JSONL_FIELDS = {
    "scene": _box_values,
    "detections": lambda f: [
        *_box_values(f),
        ("score", f.score.tolist()),
        ("offset", f.offset.tolist()),
        ("newborn", [True if born else _ABSENT for born in f.newborn.tolist()]),
        ("rel", [rel if given else _ABSENT for rel, given in zip(_rel_values(f), f.has_rel.tolist())]),
    ],
    "trajectories": lambda f: [*_box_values(f), ("score", f.score.tolist())],
    "offsets": lambda f: [
        ("offset", f.offset.tolist()),
        ("newborn", f.newborn.tolist()),
        ("rel", _rel_values(f)),
    ],
}


def jsonl_text_by_dicts(kind, frames, timestamps):
    """The text the JSONL writer of kind writes: per frame one json.dumps of its objects' dicts.

    Objects go in ascending id order. A non-finite float raises json's
    ValueError, and a frame count unlike the timestamp count zip's.
    """
    lines = []
    for number, (timestamp, frame) in enumerate(zip(timestamps, frames, strict=True)):
        keys, columns = zip(("id", frame.ids.tolist()), *JSONL_FIELDS[kind](frame))
        rows = list(zip(*columns))
        objects = [
            {key: value for key, value in zip(keys, rows[k]) if value is not _ABSENT}
            for k in np.argsort(frame.ids, kind="stable").tolist()
        ]
        record = {"frame": number, "timestamp": timestamp, "objects": objects}
        lines.append(json.dumps(record, separators=(",", ":"), allow_nan=False))
    return "".join(line + "\n" for line in lines)


def evaluate_by_frames(gt_frames, pred_frames, cfg):
    """evaluate_sequence with each frame's IoUs found on their own.

    Per frame: one pairs_within call at the reach of that frame's boxes
    and one bev_iou_pairs call over its candidates, then match_frame on
    them; counts and coverages are summed as evaluate_sequence sums them.
    """
    counts = EvalCounts()
    prev_map, present, covered = {}, {}, {}
    for gts, preds in zip(gt_frames, pred_frames, strict=True):
        gt, pred = footprints(gts.boxes), footprints(preds.boxes)
        sides = np.concatenate([gt[:, 2:4], pred[:, 2:4]]).T.tolist()
        reach = max(map(math.hypot, *sides), default=0.0)
        i, j = pairs_within(gt[:, :2], pred[:, :2], reach)
        result = match_frame(gts, preds, prev_map, cfg, (i, j, bev_iou_pairs(gt, pred, i, j)))
        prev_map = result.prev_map
        counts += EvalCounts(ids=result.ids, fp=result.fp, fn=result.fn, p=len(gts))
        matched = {gid for gid, _ in result.matches}
        for gid in gts.ids.tolist():
            present[gid] = present.get(gid, 0) + 1
            covered[gid] = covered.get(gid, 0) + (gid in matched)
    coverages = {gid: covered[gid] / n for gid, n in present.items()}
    mtr, mlr = mtr_mlr(list(coverages.values()))
    return SequenceMetrics(counts=counts, mota=mota(counts), mtr=mtr, mlr=mlr, coverages=coverages)


def density_by_frames(frames, radius):
    """density_stats as a loop of frames, each with its own pairs_within call."""
    total = samples = 0
    for frame in frames:
        xy = frame.boxes[:, :2]
        i, j = pairs_within(xy, xy, radius)
        d = xy[i] - xy[j]
        total += int(np.count_nonzero((i != j) & (d[:, 0] ** 2 + d[:, 1] ** 2 < radius * radius)))
        samples += len(frame)
    return total / samples


def _repeated_id_error(frame):
    ids, counts = np.unique(frame.ids, return_counts=True)
    if (counts > 1).any():
        return ValueError(f"duplicate instance_id {ids[counts > 1][0].item()!r} in frame")
    return None


def motion_offsets_by_frames(frames):
    """Each frame's (offset, newborn) against the frame before it, by a dict of its ids.

    Returns the results of the frames before the first one that repeats an
    id or whose offset overflows, and that frame's ValueError (or None).
    """
    out, prev = [], Frame.empty()
    for frame in frames:
        error = _repeated_id_error(frame)
        if error is not None:
            return out, error
        row = dict(zip(prev.ids.tolist(), range(len(prev))))
        rows = np.array([row.get(key, -1) for key in frame.ids.tolist()], dtype=np.intp)
        newborn = rows < 0
        offset = np.zeros((len(frame), 3))
        with np.errstate(over="ignore"):
            offset[~newborn] = prev.boxes[rows[~newborn], :3] - frame.boxes[~newborn, :3]
        if not np.isfinite(offset).all():
            return out, ValueError("motion offset must be finite: a centre moved beyond the float range")
        out.append((offset, newborn))
        prev = frame
    return out, None


def relationship_offsets_by_frames(frames, radius):
    """Each frame's (n, 2) nearest-neighbour vectors from its own pairs_within call.

    Ties go to the smaller neighbour id, and an object with no neighbour
    within radius gets NaN. Returns the results of the frames before the
    first one that repeats an id, and that frame's ValueError (or None).
    """
    out = []
    for frame in frames:
        error = _repeated_id_error(frame)
        if error is not None:
            return out, error
        xy = frame.boxes[:, :2]
        i, j = pairs_within(xy, xy, radius)
        d = xy[j] - xy[i]
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        near = (i != j) & (d2 <= radius * radius)
        i, j, d, d2 = i[near], j[near], d[near], d2[near]
        order = np.lexsort((frame.ids[j], d2, i))
        first = order[np.unique(i[order], return_index=True)[1]]
        rel = np.full((len(frame), 2), np.nan)
        rel[i[first]] = d[first]
        out.append(rel)
    return out, None


def topology_report_by_stages(pc, spec=VoxelSpec(), topology="a", widths=DEFAULT_WIDTHS, width_ms=64):
    """sparsegrid.topology_report's rows, read off the stage grids of voxelize, encoder_chain and the fusion."""
    if topology not in ("a", "b", "c"):
        raise ValueError(f"topology must be 'a', 'b' or 'c', got {topology!r}")
    base = voxelize(pc, spec)
    sf1, sf2, sf3, sf4 = encoder_chain(base, widths)
    stages = [("input", base), ("SF1", sf1), ("SF2", sf2), ("SF3", sf3), ("SF4", sf4)]
    if topology == "a":
        stages.append(("output", sf4))
    elif topology == "b":
        stages.append(("output", fuse_hr(sf2, sf4)))
    else:
        stages.append(("output", fuse_ms(sf1, sf2, sf3, sf4, width=width_ms)))
    rows = [
        {
            "name": name,
            "stride": g.stride,
            "bev_resolution_m": g.spec.dx * g.stride,
            "shape": g.spec.strided_shape(g.stride),
            "occupied": len(g),
            "channels": g.channels,
        }
        for name, g in stages
    ]
    rows[-1]["dropped_points"] = base.n_dropped
    return rows


def stage_counts_by_coarsening(keys, bits):
    """The occupied cells at strides 1, 2, 4 and 8 of distinct keys, one distinct a stride."""
    occupied = [len(keys)]
    for _ in range(3):
        keys = distinct(_coarsen(keys, 1, bits))
        occupied.append(len(keys))
    return occupied


def quantize_scalar(x, y, grid):
    """quantize_to_grid on Python scalars: the extent test, the snapped floor, the clamp."""
    if not (grid.x_min <= x < grid.x_max and grid.y_min <= y < grid.y_max):
        raise OutOfBoundsError(
            f"point ({x}, {y}) outside grid extents "
            f"[{grid.x_min}, {grid.x_max}) x [{grid.y_min}, {grid.y_max})"
        )
    j = int(math.floor((x - grid.x_min) / grid.dx + SNAP))
    k = int(math.floor((y - grid.y_min) / grid.dy + SNAP))
    return min(j, grid.nx - 1), min(k, grid.ny - 1)


def quantize_voxels_by_axis(points, spec):
    """The (n, 5) points inside a VoxelSpec's extents and their (n, 3) stride-1 cells, axis by axis."""
    mins = np.array([spec.x_min, spec.y_min, spec.z_min])
    maxs = np.array([spec.x_max, spec.y_max, spec.z_max])
    deltas = np.array([spec.dx, spec.dy, spec.dz])
    inside = np.ones(len(points), dtype=bool)
    for axis in range(3):
        inside &= (points[:, axis] >= mins[axis]) & (points[:, axis] < maxs[axis])
    kept = points[inside]
    cells = np.floor((kept[:, :3] - mins) / deltas + SNAP).astype(np.int64)
    np.minimum(cells, np.array(spec.shape) - 1, out=cells)
    return kept, cells


def ravel_order(cells, shape):
    """The stable order of (n, 3) cells by their np.ravel_multi_index keys in shape.

    The keys (x*ny + y)*nz + z are Python ints, so no cell count overflows them.
    """
    _, ny, nz = shape
    keys = [(x * ny + y) * nz + z for x, y, z in cells.tolist()]
    return sorted(range(len(keys)), key=keys.__getitem__)
