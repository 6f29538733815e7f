"""CLEAR-MOT matching, metric arithmetic, and the density statistic."""

import itertools
import math

import numpy as np
import pytest

from crowdmot.evaluator import (
    EvalCounts,
    MetricUndefinedError,
    aggregate,
    density_stats,
    evaluate_sequence,
    match_frame,
    mota,
    mtr_mlr,
)
from crowdmot.geometry import Box3D, bev_iou
from crowdmot.simulator import SceneSequence
from crowdmot.targets import GtObject


def box(x, y, l=0.6, w=0.6, yaw=0.0):
    return Box3D(cx=x, cy=y, cz=0.85, length=l, height=1.7, width=w, yaw=yaw)


def gt(instance_id, x, y, frame=0, **kw):
    return GtObject(instance_id=instance_id, box=box(x, y, **kw), frame=frame)


def brute_force_match(gt_boxes, pred_boxes, threshold):
    """Exhaustive max-total-IoU matching over pairs meeting the threshold."""
    iou = np.zeros((len(gt_boxes), len(pred_boxes)))
    for i, g in enumerate(gt_boxes):
        for j, p in enumerate(pred_boxes):
            iou[i, j] = bev_iou(g.bev(), p.bev())
    feasible = {
        (i, j)
        for i in range(len(gt_boxes))
        for j in range(len(pred_boxes))
        if iou[i, j] >= threshold
    }
    best_total, best_pairs, unique = 0.0, frozenset(), True
    cols = list(range(len(pred_boxes)))
    for r in range(min(len(gt_boxes), len(pred_boxes)) + 1):
        for rows in itertools.combinations(range(len(gt_boxes)), r):
            for perm in itertools.permutations(cols, r):
                pairs = frozenset(zip(rows, perm))
                if not pairs <= feasible:
                    continue
                total = sum(iou[p] for p in pairs)
                if total > best_total + 1e-12:
                    best_total, best_pairs, unique = total, pairs, True
                elif abs(total - best_total) <= 1e-12 and pairs != best_pairs:
                    unique = False
    return best_pairs, best_total, unique


class TestMatchFrame:
    def test_identical_predictions(self):
        gts = [gt(i, 2.0 * i, 0.0) for i in range(4)]
        preds = [(100 + i, box(2.0 * i, 0.0)) for i in range(4)]
        result = match_frame(gts, preds, {})
        assert result.fp == 0 and result.fn == 0 and result.ids == 0
        assert result.matches == [(i, 100 + i) for i in range(4)]

    def test_no_predictions(self):
        result = match_frame([gt(0, 0, 0), gt(1, 3, 0)], [], {})
        assert result.fn == 2 and result.fp == 0

    def test_identity_switch_counted(self):
        gts = [gt(0, 0.0, 0.0)]
        first = match_frame(gts, [(7, box(0.0, 0.0))], {})
        assert first.ids == 0
        second = match_frame(gts, [(8, box(0.0, 0.0))], first.prev_map)
        assert second.ids == 1
        assert second.prev_map[0] == 8

    def test_rematch_after_gap_is_not_a_switch(self):
        gts = [gt(0, 0.0, 0.0)]
        first = match_frame(gts, [(7, box(0.0, 0.0))], {})
        missed = match_frame(gts, [], first.prev_map)
        assert missed.fn == 1 and missed.prev_map[0] == 7
        third = match_frame(gts, [(7, box(0.0, 0.0))], missed.prev_map)
        assert third.ids == 0

    def test_previous_pairing_retained_over_higher_iou(self):
        # Track 7 still overlaps its GT above threshold, so it is kept even
        # though track 9 now has higher IoU.
        gts = [gt(0, 0.0, 0.0)]
        prev = {0: 7}
        preds = [(9, box(0.0, 0.0)), (7, box(0.15, 0.0))]  # IoUs 1.0 and 0.6
        result = match_frame(gts, preds, prev)
        assert result.matches == [(0, 7)]
        assert result.ids == 0 and result.fp == 1

    def test_below_threshold_pairs_never_match(self):
        result = match_frame([gt(0, 0.0, 0.0)], [(1, box(0.5, 0.5))], {})
        assert result.fn == 1 and result.fp == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            match_frame([gt(0, 0, 0), gt(0, 1, 0)], [], {})
        with pytest.raises(ValueError):
            match_frame([], [(1, box(0, 0)), (1, box(1, 1))], {})

    def test_matches_brute_force_on_random_frames(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n_gt, n_pr = rng.integers(0, 6), rng.integers(0, 6)
            centers = rng.uniform(-4, 4, size=(max(n_gt, 1), 2))
            gts = [gt(i, *centers[i % len(centers)] + rng.normal(0, 1.5, 2)) for i in range(n_gt)]
            preds = [
                (j, box(*(centers[j % len(centers)] + rng.normal(0, 0.12, 2))))
                for j in range(n_pr)
            ]
            result = match_frame(gts, preds, {})
            oracle_pairs, oracle_total, unique = brute_force_match(
                [g.box for g in gts], [b for _, b in preds], 0.5
            )
            got = {(gts.index(next(g for g in gts if g.instance_id == gid)), tid) for gid, tid in result.matches}
            assert len(got) == len(oracle_pairs)
            if unique:
                assert got == set(oracle_pairs)

    def test_prediction_order_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            centers = rng.uniform(-5, 5, size=(n, 2))
            gts = [gt(i, *c) for i, c in enumerate(centers)]
            preds = [
                (j, box(*(centers[j] + rng.normal(0, 0.1, 2))))
                for j in range(n)
            ]
            base = match_frame(gts, preds, {})
            perm = [preds[i] for i in rng.permutation(n)]
            permuted = match_frame(gts, perm, {})
            assert (base.fp, base.fn, base.ids) == (permuted.fp, permuted.fn, permuted.ids)
            assert base.matches == permuted.matches


class TestMota:
    def test_perfect(self):
        assert mota(EvalCounts(ids=0, fp=0, fn=0, p=10)) == 1.0

    def test_arithmetic_fixture(self):
        assert mota(EvalCounts(ids=1, fp=1, fn=2, p=10)) == pytest.approx(0.6, abs=0)

    def test_can_be_negative(self):
        assert mota(EvalCounts(ids=5, fp=5, fn=5, p=10)) == -0.5

    def test_undefined_without_gt(self):
        with pytest.raises(MetricUndefinedError):
            mota(EvalCounts(p=0))

    def test_monotone_under_fp_injection(self):
        base = EvalCounts(ids=0, fp=0, fn=3, p=50)
        values = [
            mota(EvalCounts(ids=0, fp=fp, fn=base.fn, p=base.p)) for fp in range(0, 30, 5)
        ]
        assert values == sorted(values, reverse=True)


class TestMtrMlr:
    def test_all_tracked(self):
        assert mtr_mlr([1.0, 1.0, 0.9]) == (1.0, 0.0)

    def test_none_tracked(self):
        assert mtr_mlr([0.0, 0.1]) == (0.0, 1.0)

    def test_threshold_counting(self):
        mtr, mlr = mtr_mlr([1.0, 0.5, 0.1])
        assert (mtr, mlr) == (pytest.approx(1 / 3), pytest.approx(1 / 3))

    def test_boundaries_inclusive(self):
        assert mtr_mlr([0.8, 0.2]) == (0.5, 0.5)

    def test_sum_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            cov = rng.uniform(0, 1, rng.integers(1, 20)).tolist()
            mtr, mlr = mtr_mlr(cov)
            assert mtr + mlr <= 1.0 + 1e-12

    def test_undefined_on_empty(self):
        with pytest.raises(MetricUndefinedError):
            mtr_mlr([])


class TestEvaluateSequence:
    def test_perfect_tracking(self):
        frames = [[gt(i, i * 2.0, 0.1 * f, frame=f) for i in range(3)] for f in range(5)]
        preds = [[(i, g.box) for i, g in enumerate(fr)] for fr in frames]
        metrics = evaluate_sequence(frames, preds)
        assert metrics.mota == 1.0
        assert (metrics.mtr, metrics.mlr) == (1.0, 0.0)
        assert metrics.counts.p == 15

    def test_coverage_drives_mtr_mlr(self):
        frames = [[gt(0, 0.0, 0.0, frame=f), gt(1, 5.0, 0.0, frame=f)] for f in range(10)]
        preds = []
        for f in range(10):
            frame_preds = [(0, box(0.0, 0.0))]
            if f == 0:
                frame_preds.append((1, box(5.0, 0.0)))
            preds.append(frame_preds)
        metrics = evaluate_sequence(frames, preds)
        assert metrics.coverages[0] == 1.0
        assert metrics.coverages[1] == pytest.approx(0.1)
        assert (metrics.mtr, metrics.mlr) == (0.5, 0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_sequence([[]], [[], []])

    def test_aggregate_pools_counts(self):
        frames = [[gt(0, 0.0, 0.0)]]
        good = evaluate_sequence(frames, [[(0, box(0.0, 0.0))]])
        bad = evaluate_sequence(frames, [[]])
        total = aggregate([good, bad])
        assert total.counts.p == 2 and total.counts.fn == 1
        assert total.mota == 0.5


class TestDensityStats:
    def scene(self, frames):
        return SceneSequence(frames, [float(i) for i in range(len(frames))])

    def test_single_pedestrian(self):
        assert density_stats(self.scene([[gt(0, 0, 0)]])) == 0.0

    def test_three_mutually_close(self):
        frame = [gt(0, 0.0, 0.0), gt(1, 1.0, 0.0), gt(2, 0.5, 0.8)]
        assert density_stats(self.scene([frame])) == 2.0

    def test_strict_radius(self):
        frame = [gt(0, 0.0, 0.0), gt(1, 2.0, 0.0)]
        assert density_stats(self.scene([frame]), radius=2.0) == 0.0

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-10, 10, size=(15, 2))
        angle, tx, ty = 0.7, 4.0, -2.0
        c, s = math.cos(angle), math.sin(angle)
        moved = [
            (c * x - s * y + tx, s * x + c * y + ty) for x, y in pts
        ]
        a = self.scene([[gt(i, x, y) for i, (x, y) in enumerate(pts)]])
        b = self.scene([[gt(i, x, y) for i, (x, y) in enumerate(moved)]])
        assert density_stats(a) == density_stats(b)

    def test_undefined_on_empty(self):
        with pytest.raises(MetricUndefinedError):
            density_stats(self.scene([[], []]))
