"""CLEAR-MOT evaluation with rotated BEV-IoU matching, plus crowd statistics.

Frame matching keeps still-valid pairings from earlier frames, then solves
the remaining ground-truth/prediction assignment for maximum total IoU, one
connected component of the above-threshold pairs at a time. Identity
switches count every change of the track id matched to a GT object. GT and
predicted frames come as geometry.Frame columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

import numpy as np

from .geometry import (DENSITY_RADIUS, Frame, Stacked, bev_iou_bounds, bev_iou_pairs, check_positive,
                       footprints, pairs_within)

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


# Pairs per bev_iou_pairs call when a sequence is evaluated, which bounds
# the clipping arrays. On the README quick start (5,847 pairs) the evaluation's
# traced peak is 2.1 MB at 1024 pairs a batch and 5.8 MB at 4096, against
# 0.1 MB frame by frame; 1024 raised the benchmark's peak RSS by under 1 %.
_IOU_BATCH = 1024


def _iou_matrix(
    gt_boxes: np.ndarray, pred_boxes: np.ndarray, threshold: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse rotated BEV IoU of two frames' (n, 7) box rows.

    Returns (i, j, iou) sorted by (i, j). Every pair left out is below
    threshold; with threshold None, every pair left out has an IoU of
    exactly 0.
    """
    return _sequence_ious([gt_boxes], [pred_boxes], threshold)[0]


def _sequence_ious(
    gt_boxes: Sequence[np.ndarray], pred_boxes: Sequence[np.ndarray], threshold: Optional[float] = None
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """_iou_matrix of every frame's (n, 7) GT and predicted box rows, from one neighbour query.

    Every frame's boxes are stacked and labelled with their frame number;
    one grouped pairs_within call at the reach of the whole sequence finds
    the candidates, and bev_iou_pairs clips them _IOU_BATCH pairs at a
    time. A pair's IoU is the same bits in any batch, and a reach wider
    than a frame's own only adds pairs of IoU 0.0, which no threshold keeps.
    With a threshold, the candidates whose bev_iou_bounds is below it are
    dropped before clipping, in batches of the same size; in a dense crowd
    that is over half of them.
    """
    gt_rows = Stacked(gt_boxes, np.zeros((0, 7)))
    pred_rows = Stacked(pred_boxes, np.zeros((0, 7)))
    gt, pred = footprints(gt_rows.rows), footprints(pred_rows.rows)
    # IoU is 0 beyond the sum of the half-diagonals, at most twice the largest.
    sides = np.concatenate([gt[:, 2:4], pred[:, 2:4]]).T.tolist()
    reach = max(map(math.hypot, *sides), default=0.0)
    i, j = pairs_within(gt[:, :2], pred[:, :2], reach, (gt_rows.number, pred_rows.number))
    if threshold is not None:
        keep = np.concatenate([np.zeros(0, dtype=bool)] + [
            bev_iou_bounds(gt, pred, i[k:k + _IOU_BATCH], j[k:k + _IOU_BATCH]) >= threshold
            for k in range(0, len(i), _IOU_BATCH)
        ])
        i, j = i[keep], j[keep]
    iou = np.concatenate([np.zeros(0)] + [
        bev_iou_pairs(gt, pred, i[k:k + _IOU_BATCH], j[k:k + _IOU_BATCH])
        for k in range(0, len(i), _IOU_BATCH)
    ])
    # Pairs are sorted by i, and a frame's GT rows are contiguous.
    cut = np.searchsorted(i, gt_rows.start).tolist()
    return [
        (i[lo:hi] - gt_rows.start[f], j[lo:hi] - pred_rows.start[f], iou[lo:hi])
        for f, (lo, hi) in enumerate(zip(cut, cut[1:]))
    ]


def _sorted_indices(ids: list[int]) -> list[int]:
    """Positions of ids in ascending id order."""
    return sorted(range(len(ids)), key=ids.__getitem__)


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


def linear_sum_assignment(score) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a maximum-total assignment of a rectangular matrix.

    The contract of scipy.optimize.linear_sum_assignment(score, maximize=True)
    on finite entries: min(n, m) pairs, rows increasing, with maximal total.
    The optimum is exact: every float is a dyadic rational, so the entries
    are scaled by their common power of two to Python ints, negated, and
    solved by shortest augmenting paths (Jonker and Volgenant 1987, in the
    rectangular form of Crouse, IEEE TAES 2016) in integer arithmetic.
    """
    matrix = np.asarray(score, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix contains non-finite entries")
    transposed = matrix.shape[0] > matrix.shape[1]
    if transposed:
        matrix = matrix.T
    ratios = [x.as_integer_ratio() for x in matrix.ravel().tolist()]
    scale = max((q for _, q in ratios), default=1)
    flat = [-p * (scale // q) for p, q in ratios]
    n, m = matrix.shape
    cols = _shortest_augmenting_paths([flat[r * m:(r + 1) * m] for r in range(n)], m)
    rows = np.arange(n)
    cols = np.array(cols, dtype=np.intp)
    if transposed:
        order = np.argsort(cols)
        rows, cols = cols[order], rows[order]
    return rows, cols


def _shortest_augmenting_paths(cost: list[list[int]], m: int) -> list[int]:
    """Each row's column in a minimum-total assignment of n <= m rows.

    Rows are added one at a time; each takes the shortest augmenting path
    in reduced costs cost[i][j] - u[i] - v[j] (Dijkstra over the columns),
    and the dual potentials u, v are updated so that all reduced costs stay
    non-negative. Integer costs keep every step exact.
    """
    n = len(cost)
    u, v = [0] * n, [0] * m
    col4row, row4col = [-1] * n, [-1] * m
    for cur in range(n):
        shortest = [math.inf] * m
        path = [-1] * m
        remaining = list(range(m))
        seen_rows, seen_cols = [], []
        low, i, sink = 0, cur, -1
        while sink == -1:
            seen_rows.append(i)
            row, ui = cost[i], u[i]
            best, index = math.inf, -1
            for k, j in enumerate(remaining):
                r = low + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                # Prefer a free column on ties: the path ends sooner.
                if shortest[j] < best or (shortest[j] == best and row4col[j] == -1):
                    best, index = shortest[j], k
            low = best
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += low
        for i in seen_rows[1:]:
            u[i] += low - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= low - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _best_matching(score: np.ndarray) -> list[tuple[int, int]]:
    """The tie rule on one component: rows and columns are in report order.

    score holds the component's IoUs, 0 where a pair is below the threshold.
    Among the matchings of maximal math.fsum total, return the one whose
    sorted pair list is lexicographically smallest. Rows are fixed in order:
    the matching ends where the pairs fixed so far already reach the maximum;
    otherwise each row takes the first column that still allows a maximal
    completion, and stays unmatched if none does. `witness` is a maximal
    matching that extends the fixed pairs, so its own column needs no solve.
    linear_sum_assignment's optimum is exact, and math.fsum rounds an exact
    sum correctly, so `best` is the largest fsum total of any matching.
    """
    rows, cols = linear_sum_assignment(score)
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
                sub_rows, sub_cols = linear_sum_assignment(sub)
                if math.fsum([*taken, score[r, c], *sub[sub_rows, sub_cols]]) != best:
                    continue
                witness = {r + 1 + a: rest[b] for a, b in zip(sub_rows.tolist(), sub_cols.tolist())}
            fixed.append((r, c))
            taken.append(score[r, c])
            free = rest
            break
    return fixed


def match_frame(
    gts: Frame,
    preds: Frame,
    prev_map: dict[Hashable, int],
    cfg: MatchConfig = MatchConfig(),
    ious: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> MatchResult:
    """Match one frame's GT objects against its predicted tracks (ids are track ids).

    Pairings inherited from prev_map are kept when their IoU is at or
    above the threshold; the rest are assigned for maximal total IoU among
    pairs that meet the threshold. Unmatched predictions are false
    positives, unmatched GT objects false negatives, and a GT object matched
    to a different track id than its previous one counts one identity
    switch.

    The assignment is solved separately on each connected component of the
    graph of free GT objects and predictions joined by above-threshold
    pairs; a component of one pair is matched directly. Ties are broken per
    component: among the matchings of maximal total IoU (summed with
    math.fsum), the one whose sorted (gt id, track id) list is
    lexicographically smallest wins.

    ious is the frame's sparse IoU (i, j, iou) as _iou_matrix returns it,
    holding at least every pair at or above the threshold; when None, it is
    computed here.
    """
    gt_ids = gts.ids.tolist()
    track_ids = preds.ids.tolist()
    if len(set(gt_ids)) != len(gt_ids):
        raise ValueError("duplicate GT instance ids in frame")
    if len(set(track_ids)) != len(track_ids):
        raise ValueError("duplicate track ids in frame")

    if ious is None:
        ious = _iou_matrix(gts.boxes, preds.boxes, cfg.iou_threshold)
    gt_index, pred_index, iou = ious
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
    gt_frames: Sequence[Frame],
    pred_frames: Sequence[Frame],
    cfg: MatchConfig = MatchConfig(),
) -> SequenceMetrics:
    """Match a sequence frame by frame and aggregate the metrics.

    The IoUs of every frame come from one _sequence_ious pass; each frame
    is then matched by match_frame on its own slice of them.
    """
    if len(gt_frames) != len(pred_frames):
        raise ValueError(
            f"sequence length mismatch: {len(gt_frames)} GT frames vs "
            f"{len(pred_frames)} prediction frames"
        )
    counts = EvalCounts()
    prev_map: dict[Hashable, int] = {}
    present: dict[Hashable, int] = {}
    covered: dict[Hashable, int] = {}
    ious = _sequence_ious(
        [f.boxes for f in gt_frames], [f.boxes for f in pred_frames], cfg.iou_threshold
    )
    for gts, preds, frame_ious in zip(gt_frames, pred_frames, ious):
        result = match_frame(gts, preds, prev_map, cfg, frame_ious)
        prev_map = result.prev_map
        counts += EvalCounts(ids=result.ids, fp=result.fp, fn=result.fn, p=len(gts))
        matched_ids = {gid for gid, _ in result.matches}
        for gid in gts.ids.tolist():
            present[gid] = present.get(gid, 0) + 1
            if gid in matched_ids:
                covered[gid] = covered.get(gid, 0) + 1
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


def density_stats(frames: Sequence[Frame], radius: float = DENSITY_RADIUS) -> float:
    """Mean number of other pedestrians within `radius` of each pedestrian.

    Counted per pedestrian per frame with a strict distance comparison,
    excluding the pedestrian itself, then averaged over all pedestrian-frames.
    """
    check_positive("radius", radius)
    stacked = Stacked([frame.boxes[:, :2] for frame in frames], np.zeros((0, 2)))
    xy, number = stacked.rows, stacked.number
    if len(xy) == 0:
        raise MetricUndefinedError("density undefined for an empty scene")
    # One query over all frames: a pair counts only within its own frame.
    i, j = pairs_within(xy, xy, radius, (number, number))
    d = xy[i] - xy[j]
    total = int(np.count_nonzero((i != j) & (d[:, 0] ** 2 + d[:, 1] ** 2 < radius * radius)))
    return total / len(xy)
