"""Reference implementations the fast code is checked against.

The JSONL text oracle builds one dict per object and one json.dumps per
frame; the writers in crowdmot.formats must give its bytes, and raise where
it does.

The matching oracles, shared by the tracker, evaluator and acceptance tests,
enumerate every injective pairing of rows to columns, so they are meant for
frames of a handful of objects. They read one object at a time, as a
GtObject or a Detection record; frame_of turns a list of records into the
Frame the code under test takes. The simulator oracles are the plain loops
the simulator's array code must reproduce bit for bit.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from crowdmot.geometry import BOX_FIELDS, Frame, bev_iou, pairs_within
from crowdmot.records import Box3D
from crowdmot.simulator import MIN_SEPARATION

# Totals this close to the best one count as ties.
TIE = 1e-12


@dataclass(frozen=True)
class GtObject:
    """One annotated object: its id and its box."""

    instance_id: int
    box: Box3D


@dataclass(frozen=True)
class Detection:
    """One detection: box, score, predicted motion offset (ox, oy, oz) and frame number."""

    box: Box3D
    score: float
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    frame: int = 0


def frame_of(objects) -> Frame:
    """The Frame of one frame's GtObjects, (id, Box3D) pairs or Detections.

    A detection's id is its index in the list, as in a detection file; its
    frame has no newborn flag and no rel. An empty list gives an empty frame
    with every detection column. Detections of more than one frame raise
    ValueError: a Frame holds one frame.
    """
    objects = list(objects)
    dets = not objects or isinstance(objects[0], Detection)
    if dets:
        frames = {d.frame for d in objects}
        if len(frames) > 1:
            raise ValueError(f"detections span multiple frames: {sorted(frames)}")
        ids, boxes = range(len(objects)), [d.box for d in objects]
    elif isinstance(objects[0], GtObject):
        ids, boxes = [o.instance_id for o in objects], [o.box for o in objects]
    else:
        ids, boxes = [k for k, _ in objects], [b for _, b in objects]
    columns = np.array(
        [(b.cx, b.cy, b.cz, b.length, b.width, b.height, b.yaw) for b in boxes], dtype=float
    ).reshape(-1, 7)
    frame = Frame(np.array(ids, dtype=np.int64).reshape(-1), columns)
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


def _pairings(rows, cols):
    """Every injective set of (row, col) pairs, the empty one first."""
    for r in range(min(len(rows), len(cols)) + 1):
        for chosen in itertools.combinations(rows, r):
            for perm in itertools.permutations(cols, r):
                yield frozenset(zip(chosen, perm))


def exhaustive_assignment(dets, tracks, max_dist):
    """Most matches, then least total distance, over every gated det->track assignment.

    Each detection is shifted by its predicted offset, as associate shifts
    it. Returns the best set of (detection index, track id) pairs and whether
    it is unique: every other assignment with as many matches has a total
    more than TIE above it.
    """
    dists = {}
    for i, d in enumerate(dets):
        px, py = d.box.cx + d.offset[0], d.box.cy + d.offset[1]
        for tid, (cx, cy) in tracks:
            dist = math.hypot(cx - px, cy - py)
            if dist <= max_dist:
                dists[(i, tid)] = dist
    gated = [
        (len(pairs), sum(dists[p] for p in pairs), pairs)
        for pairs in _pairings(range(len(dets)), [tid for tid, _ in tracks])
        if all(p in dists for p in pairs)
    ]
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
            iou[i, j] = bev_iou(g.bev(), p.bev())
    return iou


def exhaustive_iou_match(iou, threshold):
    """Max total IoU over every assignment of (row, column) pairs with IoU >= threshold.

    Returns the best pair set, its total, and whether it is unique: every
    other assignment has a total more than TIE below it.
    """
    n, m = iou.shape
    scored = [
        (sum(iou[p] for p in pairs), pairs)
        for pairs in _pairings(range(n), range(m))
        if all(iou[p] >= threshold for p in pairs)
    ]
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
