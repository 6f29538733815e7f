"""CLEAR-MOT evaluation with rotated BEV-IoU matching, plus crowd statistics.

Frame matching keeps still-valid pairings from earlier frames, then solves
the remaining ground-truth/prediction assignment for maximum total IoU.
Identity switches count every change of the track id matched to a GT object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Box3D, bev_iou, check_positive, pairs_within
from .targets import GtObject
from .simulator import DENSITY_RADIUS, SceneSequence

# Coverage thresholds for mostly-tracked / mostly-lost trajectory counting.
MT_COVERAGE = 0.8
ML_COVERAGE = 0.2

# Tiny index-based cost perturbation so exact-tie assignments resolve toward
# lexicographically smaller (gt, pred) pairs, deterministically.
_TIE_EPS = 1e-12


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
    """Outcome of matching one frame."""

    matches: list[tuple[Hashable, int]]
    fp: int
    fn: int
    ids: int
    prev_map: dict[Hashable, int]


def _iou_matrix(gt_boxes: list[Box3D], pred_boxes: list[Box3D]) -> np.ndarray:
    """Pairwise rotated BEV IoU; pairs too far apart to overlap stay exact zeros."""
    iou = np.zeros((len(gt_boxes), len(pred_boxes)))
    gt_bev = [b.bev() for b in gt_boxes]
    pr_bev = [b.bev() for b in pred_boxes]
    # bev_iou is 0 beyond the sum of the half-diagonals, at most twice the largest.
    reach = max((math.hypot(b.length, b.width) for b in gt_bev + pr_bev), default=0.0)
    gt_xy = [(b.cx, b.cy) for b in gt_bev]
    pr_xy = [(b.cx, b.cy) for b in pr_bev]
    for i, j in zip(*pairs_within(gt_xy, pr_xy, reach)):
        iou[i, j] = bev_iou(gt_bev[i], pr_bev[j])
    return iou


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
    """
    gt_ids = [g.instance_id for g in gts]
    track_ids = [tid for tid, _ in preds]
    if len(set(gt_ids)) != len(gt_ids):
        raise ValueError("duplicate GT instance ids in frame")
    if len(set(track_ids)) != len(track_ids):
        raise ValueError("duplicate track ids in frame")

    iou = _iou_matrix([g.box for g in gts], [b for _, b in preds])
    track_col = {tid: j for j, tid in enumerate(track_ids)}

    matched: dict[Hashable, int] = {}
    used_cols: set[int] = set()
    for i in range(len(gts)):
        tid = prev_map.get(gt_ids[i])
        if tid is None or tid not in track_col:
            continue
        j = track_col[tid]
        if j not in used_cols and iou[i, j] >= cfg.iou_threshold:
            matched[gt_ids[i]] = tid
            used_cols.add(j)

    free_rows = [i for i in range(len(gts)) if gt_ids[i] not in matched]
    free_cols = [j for j in range(len(preds)) if j not in used_cols]
    if free_rows and free_cols:
        scores = iou[np.ix_(free_rows, free_cols)].copy()
        scores[scores < cfg.iou_threshold] = 0.0
        cost = -scores + _TIE_EPS * (
            np.arange(len(free_rows))[:, None] * len(free_cols)
            + np.arange(len(free_cols))[None, :]
        )
        rows, cols = linear_sum_assignment(cost)
        for r, c in zip(rows, cols):
            if scores[r, c] >= cfg.iou_threshold:
                matched[gt_ids[free_rows[r]]] = track_ids[free_cols[c]]

    ids_count = sum(
        1
        for gid, tid in matched.items()
        if gid in prev_map and prev_map[gid] != tid
    )
    new_map = dict(prev_map)
    new_map.update(matched)
    try:
        matches = sorted(matched.items())
    except TypeError:
        matches = sorted(matched.items(), key=lambda kv: str(kv[0]))
    return MatchResult(
        matches=matches,
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
