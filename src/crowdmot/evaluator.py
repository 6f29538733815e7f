"""CLEAR-MOT evaluation with rotated BEV-IoU matching, plus crowd statistics.

Frame matching keeps still-valid pairings from earlier frames, then solves
the remaining ground-truth/prediction assignment for maximum total IoU, one
connected component of the above-threshold pairs at a time. Identity
switches count every change of the track id matched to a GT object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Box3D, bev_iou_pairs, check_positive, pairs_within
from .targets import GtObject
from .simulator import DENSITY_RADIUS, SceneSequence

# Coverage thresholds for mostly-tracked / mostly-lost trajectory counting.
MT_COVERAGE = 0.8
ML_COVERAGE = 0.2


class MetricUndefinedError(ValueError):
    """A metric was requested on inputs where it has no defined value."""


@dataclass(frozen=True)
class MatchConfig:
    """Matching threshold on rotated BEV IoU."""

    iou_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold {self.iou_threshold} outside (0, 1]")


@dataclass
class EvalCounts:
    """Accumulated CLEAR-MOT error counts over a sequence."""

    ids: int = 0
    fp: int = 0
    fn: int = 0
    p: int = 0

    def __iadd__(self, other: "EvalCounts") -> "EvalCounts":
        self.ids += other.ids
        self.fp += other.fp
        self.fn += other.fn
        self.p += other.p
        return self


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one frame; matches are (gt id, track id) sorted by gt id."""

    matches: list[tuple[Hashable, int]]
    fp: int
    fn: int
    ids: int
    prev_map: dict[Hashable, int]


def _iou_matrix(
    gt_boxes: list[Box3D], pred_boxes: list[Box3D]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse rotated BEV IoU: (i, j, iou) for every pair near enough to overlap.

    Pairs come sorted by (i, j); every pair left out has an IoU of exactly 0.
    """
    # IoU is 0 beyond the sum of the half-diagonals, at most twice the largest.
    reach = max((math.hypot(b.length, b.width) for b in gt_boxes + pred_boxes), default=0.0)
    gt_xy = [(b.cx, b.cy) for b in gt_boxes]
    pr_xy = [(b.cx, b.cy) for b in pred_boxes]
    i, j = pairs_within(gt_xy, pr_xy, reach)
    return i, j, bev_iou_pairs(gt_boxes, pred_boxes, i, j)


def _sorted_indices(ids: list) -> list[int]:
    """Positions of ids sorted by id, or by str(id) where ids do not compare."""
    try:
        return sorted(range(len(ids)), key=ids.__getitem__)
    except TypeError:
        return sorted(range(len(ids)), key=lambda k: str(ids[k]))


def _components(edges: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Split (row, column) edges into the connected components of their graph."""
    parent: dict = {}

    def root(node):
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for r, c in edges:
        parent[root(("r", r))] = root(("c", c))
    groups: dict = {}
    for r, c in edges:
        groups.setdefault(root(("r", r)), []).append((r, c))
    return list(groups.values())


def _best_matching(score: np.ndarray) -> list[tuple[int, int]]:
    """The tie rule on one component: rows and columns are in report order.

    score holds the component's IoUs, 0 where a pair is below the threshold.
    Among the matchings of maximal math.fsum total, return the one whose
    sorted pair list is lexicographically smallest. Rows are fixed in order:
    the matching ends where the pairs fixed so far already reach the maximum;
    otherwise each row takes the first column that still allows a maximal
    completion, and stays unmatched if none does. `witness` is a maximal
    matching that extends the fixed pairs, so its own column needs no solve.
    """
    rows, cols = linear_sum_assignment(score, maximize=True)
    best = math.fsum(score[rows, cols])
    witness = dict(zip(rows.tolist(), cols.tolist()))
    fixed: list[tuple[int, int]] = []
    taken: list[float] = []
    free = list(range(score.shape[1]))
    for r in range(score.shape[0]):
        if math.fsum(taken) == best:
            break
        for c in free:
            if score[r, c] == 0.0:
                continue
            rest = [k for k in free if k != c]
            if witness.get(r) != c:
                sub = score[r + 1:][:, rest]
                sub_rows, sub_cols = linear_sum_assignment(sub, maximize=True)
                if math.fsum([*taken, score[r, c], *sub[sub_rows, sub_cols]]) != best:
                    continue
                witness = {r + 1 + a: rest[b] for a, b in zip(sub_rows.tolist(), sub_cols.tolist())}
            fixed.append((r, c))
            taken.append(score[r, c])
            free = rest
            break
    return fixed


def match_frame(
    gts: list[GtObject],
    preds: list[tuple[int, Box3D]],
    prev_map: dict[Hashable, int],
    cfg: MatchConfig = MatchConfig(),
) -> MatchResult:
    """Match one frame's GT objects against predicted (track id, box) pairs.

    Pairings inherited from prev_map are kept when still above the IoU
    threshold; the rest are assigned for maximal total IoU among pairs that
    meet the threshold. Unmatched predictions are false positives, unmatched
    GT objects false negatives, and a GT object matched to a different track
    id than its previous one counts one identity switch.

    The assignment is solved separately on each connected component of the
    graph of free GT objects and predictions joined by above-threshold
    pairs; a component of one pair is matched directly. Ties are broken per
    component: among the matchings of maximal total IoU (summed with
    math.fsum), the one whose sorted (gt id, track id) list is
    lexicographically smallest wins.
    """
    gt_ids = [g.instance_id for g in gts]
    track_ids = [tid for tid, _ in preds]
    if len(set(gt_ids)) != len(gt_ids):
        raise ValueError("duplicate GT instance ids in frame")
    if len(set(track_ids)) != len(track_ids):
        raise ValueError("duplicate track ids in frame")

    gt_index, pred_index, iou = _iou_matrix([g.box for g in gts], [b for _, b in preds])
    keep = iou >= cfg.iou_threshold
    # The above-threshold pairs: (GT index, prediction index) -> IoU.
    score = dict(zip(zip(gt_index[keep].tolist(), pred_index[keep].tolist()), iou[keep].tolist()))
    track_col = {tid: j for j, tid in enumerate(track_ids)}

    matched: dict[Hashable, int] = {}
    used_cols: set[int] = set()
    for i in range(len(gts)):
        tid = prev_map.get(gt_ids[i])
        if tid is None or tid not in track_col:
            continue
        j = track_col[tid]
        if j not in used_cols and (i, j) in score:
            matched[gt_ids[i]] = tid
            used_cols.add(j)

    report_order = _sorted_indices(gt_ids)
    row_rank = {r: k for k, r in enumerate(report_order)}
    col_rank = {c: k for k, c in enumerate(_sorted_indices(track_ids))}
    free_edges = [
        (r, c) for r, c in score if gt_ids[r] not in matched and c not in used_cols
    ]
    for edges in _components(free_edges):
        if len(edges) == 1:
            pairs = edges
        else:
            rows = sorted({r for r, _ in edges}, key=row_rank.__getitem__)
            cols = sorted({c for _, c in edges}, key=col_rank.__getitem__)
            local = np.array([[score.get((r, c), 0.0) for c in cols] for r in rows])
            pairs = [(rows[a], cols[b]) for a, b in _best_matching(local)]
        for r, c in pairs:
            matched[gt_ids[r]] = track_ids[c]

    ids_count = sum(
        1
        for gid, tid in matched.items()
        if gid in prev_map and prev_map[gid] != tid
    )
    new_map = dict(prev_map)
    new_map.update(matched)
    return MatchResult(
        matches=[(gt_ids[r], matched[gt_ids[r]]) for r in report_order if gt_ids[r] in matched],
        fp=len(preds) - len(matched),
        fn=len(gts) - len(matched),
        ids=ids_count,
        prev_map=new_map,
    )


def mota(counts: EvalCounts) -> float:
    """Multi-object tracking accuracy: 1 - (IDS + FP + FN) / P."""
    if counts.p <= 0:
        raise MetricUndefinedError("MOTA undefined with zero GT boxes")
    return 1.0 - (counts.ids + counts.fp + counts.fn) / counts.p


def mtr_mlr(coverages: Sequence[float]) -> tuple[float, float]:
    """Mostly-tracked and mostly-lost trajectory ratios.

    A GT trajectory is mostly tracked when at least 80% of its frames are
    matched and mostly lost when at most 20% are.
    """
    if len(coverages) == 0:
        raise MetricUndefinedError("MTR/MLR undefined with no GT trajectories")
    n = len(coverages)
    mt = sum(1 for c in coverages if c >= MT_COVERAGE)
    ml = sum(1 for c in coverages if c <= ML_COVERAGE)
    return mt / n, ml / n


@dataclass
class SequenceMetrics:
    """All evaluation outputs for one sequence."""

    counts: EvalCounts
    mota: float
    mtr: float
    mlr: float
    coverages: dict[Hashable, float] = field(default_factory=dict)


def evaluate_sequence(
    gt_frames: Sequence[list[GtObject]],
    pred_frames: Sequence[list[tuple[int, Box3D]]],
    cfg: MatchConfig = MatchConfig(),
) -> SequenceMetrics:
    """Run frame-by-frame matching over a sequence and aggregate the metrics."""
    if len(gt_frames) != len(pred_frames):
        raise ValueError(
            f"sequence length mismatch: {len(gt_frames)} GT frames vs "
            f"{len(pred_frames)} prediction frames"
        )
    counts = EvalCounts()
    prev_map: dict[Hashable, int] = {}
    present: dict[Hashable, int] = {}
    covered: dict[Hashable, int] = {}
    for gts, preds in zip(gt_frames, pred_frames):
        result = match_frame(gts, preds, prev_map, cfg)
        prev_map = result.prev_map
        counts += EvalCounts(ids=result.ids, fp=result.fp, fn=result.fn, p=len(gts))
        matched_ids = {gid for gid, _ in result.matches}
        for g in gts:
            present[g.instance_id] = present.get(g.instance_id, 0) + 1
            if g.instance_id in matched_ids:
                covered[g.instance_id] = covered.get(g.instance_id, 0) + 1
    coverages = {gid: covered.get(gid, 0) / n for gid, n in present.items()}
    mtr, mlr = mtr_mlr(list(coverages.values()))
    return SequenceMetrics(
        counts=counts,
        mota=mota(counts),
        mtr=mtr,
        mlr=mlr,
        coverages=coverages,
    )


def aggregate(per_sequence: Sequence[SequenceMetrics]) -> SequenceMetrics:
    """Pool counts and trajectory coverages across sequences."""
    if not per_sequence:
        raise MetricUndefinedError("nothing to aggregate")
    counts = EvalCounts()
    coverages: list[float] = []
    for metrics in per_sequence:
        counts += metrics.counts
        coverages.extend(metrics.coverages.values())
    mtr, mlr = mtr_mlr(coverages)
    return SequenceMetrics(
        counts=counts,
        mota=mota(counts),
        mtr=mtr,
        mlr=mlr,
        coverages={i: c for i, c in enumerate(coverages)},
    )


def density_stats(scene: SceneSequence, radius: float = DENSITY_RADIUS) -> float:
    """Mean number of other pedestrians within `radius` of each pedestrian.

    Counted per pedestrian per frame with a strict distance comparison,
    excluding the pedestrian itself, then averaged over all pedestrian-frames.
    """
    check_positive("radius", radius)
    total = 0
    samples = 0
    for frame in scene.frames:
        xy = np.array([(o.box.cx, o.box.cy) for o in frame]).reshape(-1, 2)
        i, j = pairs_within(xy, xy, radius)
        d = xy[i] - xy[j]
        total += int(np.count_nonzero((i != j) & (d[:, 0] ** 2 + d[:, 1] ** 2 < radius * radius)))
        samples += len(frame)
    if samples == 0:
        raise MetricUndefinedError("density undefined for an empty scene")
    return total / samples
