"""CLEAR-MOT matching, metric arithmetic, and the density statistic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from oracles import GtObject, exhaustive_iou_match, frame_of, iou_matrix
from oracles import box_row as box
from scipy.optimize import linear_sum_assignment as scipy_assignment

from crowdmot.evaluator import (
    EvalCounts,
    MatchConfig,
    MetricUndefinedError,
    _iou_matrix,
    _sequence_ious,
    aggregate,
    density_stats,
    evaluate_sequence,
    match_frame,
    linear_sum_assignment,
    mota,
    mtr_mlr,
)
from crowdmot.geometry import bev_iou, bev_iou_bounds, bev_iou_pairs, footprints


def gt(instance_id, x, y, **kw):
    return GtObject(instance_id=instance_id, box=box(x, y, **kw))


def match(gts, preds, prev_map, cfg=MatchConfig()):
    """match_frame on a frame of GtObjects and one of (track id, box row) pairs."""
    return match_frame(frame_of(gts), frame_of(preds), prev_map, cfg)


def evaluate(gt_frames, pred_frames):
    """evaluate_sequence on per-frame GtObjects and (track id, box row) pairs."""
    return evaluate_sequence([frame_of(f) for f in gt_frames], [frame_of(f) for f in pred_frames])


class TestMatchFrame:
    def test_identical_predictions(self):
        gts = [gt(i, 2.0 * i, 0.0) for i in range(4)]
        preds = [(100 + i, box(2.0 * i, 0.0)) for i in range(4)]
        result = match(gts, preds, {})
        assert result.fp == 0 and result.fn == 0 and result.ids == 0
        assert result.matches == [(i, 100 + i) for i in range(4)]

    def test_no_predictions(self):
        result = match([gt(0, 0, 0), gt(1, 3, 0)], [], {})
        assert result.fn == 2 and result.fp == 0

    def test_identity_switch_counted(self):
        gts = [gt(0, 0.0, 0.0)]
        first = match(gts, [(7, box(0.0, 0.0))], {})
        assert first.ids == 0
        second = match(gts, [(8, box(0.0, 0.0))], first.prev_map)
        assert second.ids == 1
        assert second.prev_map[0] == 8

    def test_rematch_after_gap_is_not_a_switch(self):
        gts = [gt(0, 0.0, 0.0)]
        first = match(gts, [(7, box(0.0, 0.0))], {})
        missed = match(gts, [], first.prev_map)
        assert missed.fn == 1 and missed.prev_map[0] == 7
        third = match(gts, [(7, box(0.0, 0.0))], missed.prev_map)
        assert third.ids == 0

    def test_previous_pairing_retained_over_higher_iou(self):
        # Track 7 still overlaps its GT above threshold, so it is kept even
        # though track 9 now has higher IoU.
        gts = [gt(0, 0.0, 0.0)]
        prev = {0: 7}
        preds = [(9, box(0.0, 0.0)), (7, box(0.15, 0.0))]  # IoUs 1.0 and 0.6
        result = match(gts, preds, prev)
        assert result.matches == [(0, 7)]
        assert result.ids == 0 and result.fp == 1

    def test_carried_pairing_at_exactly_the_threshold_is_kept(self):
        # Track 7's IoU with its GT is the threshold itself, so the pairing
        # carries over: no switch to track 9, whose IoU is 1.0.
        threshold = bev_iou(box(0.0, 0.0), box(0.3, 0.0))
        cfg = MatchConfig(iou_threshold=threshold)
        result = match([gt(0, 0.0, 0.0)], [(9, box(0.0, 0.0)), (7, box(0.3, 0.0))], {0: 7}, cfg)
        assert result.matches == [(0, 7)]
        assert result.ids == 0 and result.fp == 1
        metrics = evaluate_sequence(
            [frame_of([gt(0, 0.0, 0.0)])] * 2,
            [frame_of([(7, box(0.0, 0.0))]), frame_of([(9, box(0.0, 0.0)), (7, box(0.3, 0.0))])],
            cfg,
        )
        assert (metrics.counts.ids, metrics.counts.fp, metrics.counts.fn) == (0, 1, 0)

    def test_below_threshold_pairs_never_match(self):
        result = match([gt(0, 0.0, 0.0)], [(1, box(0.5, 0.5))], {})
        assert result.fn == 1 and result.fp == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            match([gt(0, 0, 0), gt(0, 1, 0)], [], {})
        with pytest.raises(ValueError):
            match([], [(1, box(0, 0)), (1, box(1, 1))], {})

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
            result = match(gts, preds, {})
            iou = iou_matrix([g.box for g in gts], [b for _, b in preds])
            oracle_pairs, oracle_total, unique = exhaustive_iou_match(iou, 0.5)
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
            base = match(gts, preds, {})
            perm = [preds[i] for i in rng.permutation(n)]
            permuted = match(gts, perm, {})
            assert (base.fp, base.fn, base.ids) == (permuted.fp, permuted.fn, permuted.ids)
            assert base.matches == permuted.matches


def tie_rule_match(gts, preds, threshold):
    """Exhaustive oracle of the documented rule, with no earlier pairings.

    Split the above-threshold (gt id, track id) pairs into connected
    components; in each, enumerate every matching, keep those of maximal
    math.fsum total, and take the lexicographically smallest sorted list.
    """
    score = {
        (g.instance_id, tid): bev_iou(g.box, b)
        for g in gts
        for tid, b in preds
    }
    edges = {pair: v for pair, v in score.items() if v >= threshold}
    component = {}
    for g, t in edges:  # merge labels until every edge joins one component
        a, b = component.setdefault(("g", g), ("g", g)), component.setdefault(("t", t), ("t", t))
        for node, label in list(component.items()):
            if label == b:
                component[node] = a
    result = []
    for label in set(component.values()):
        local = [e for e in edges if component[("g", e[0])] == label]
        rows = sorted({g for g, _ in local})

        def matchings(k, used):
            """Every matching of rows[k:] that avoids the used track ids."""
            if k == len(rows):
                yield []
                return
            for rest in matchings(k + 1, used):
                yield rest
            for g, t in local:
                if g == rows[k] and t not in used:
                    for rest in matchings(k + 1, used | {t}):
                        yield [(g, t)] + rest

        best_total, best = -1.0, None
        for chosen in matchings(0, frozenset()):
            total = math.fsum(edges[e] for e in chosen)
            if total > best_total or (total == best_total and chosen < best):
                best_total, best = total, chosen
        result += best
    return sorted(result)


_SPOT = st.sampled_from([-0.3, 0.0, 0.2, 0.3, 0.45])
_POOL_BOX = st.builds(
    lambda x, y, yaw, length: box(x, y, l=length, yaw=yaw),
    _SPOT, _SPOT, st.sampled_from([0.0, 0.4, math.pi / 4]), st.sampled_from([0.6, 0.9]),
)


class TestTieRule:
    def test_identical_boxes_pair_up_in_id_order(self):
        gts = [gt(1, 0.0, 0.0), gt(0, 0.0, 0.0)]
        preds = [(11, box(0.0, 0.0)), (10, box(0.0, 0.0))]
        assert match(gts, preds, {}).matches == [(0, 10), (1, 11)]

    def test_a_pair_the_fsum_cannot_see_stays_unmatched(self):
        # GT 1 and track 11 are 1000 m squares overlapping on a sliver one ulp
        # wide: their IoU, about 6e-17, is below half an ulp of the total 1.0,
        # so the matchings with and without them tie, and the shorter sorted
        # list is the smaller.
        width = 1000.0 - math.nextafter(1000.0, 0.0)
        gts = [gt(0, 0.0, 0.0), gt(1, 0.0, 0.0, l=1000.0, w=1000.0)]
        preds = [(10, box(0.0, 0.0)), (11, box(1000.0 - width, 0.0, l=1000.0, w=1000.0))]
        sliver = bev_iou(gts[1].box, preds[1][1])
        assert 0.0 < sliver and 1.0 + sliver == 1.0
        result = match(gts, preds, {}, MatchConfig(1e-20))
        assert result.matches == [(0, 10)] == tie_rule_match(gts, preds, 1e-20)

    @settings(max_examples=300, deadline=None)
    @given(
        pool=st.lists(_POOL_BOX, min_size=1, max_size=4),
        gt_picks=st.lists(st.integers(0, 3), max_size=5),
        pred_picks=st.lists(st.integers(0, 3), max_size=5),
        gt_ids=st.permutations(range(5)),
        threshold=st.one_of(st.sampled_from([0.05, 0.1, 0.3, 0.5]), st.floats(0.05, 1.0)),
    )
    # Two identical GT boxes (ids 0, 1) and two identical predictions (10, 11).
    @example(pool=[box(0.0, 0.0)], gt_picks=[0, 0], pred_picks=[0, 0],
             gt_ids=[0, 1, 2, 3, 4], threshold=0.5)
    def test_matches_exhaustive_oracle(self, pool, gt_picks, pred_picks, gt_ids, threshold):
        gts = [GtObject(gt_ids[k], pool[p % len(pool)]) for k, p in enumerate(gt_picks)]
        preds = [(10 + 7 * k % 5, pool[p % len(pool)]) for k, p in enumerate(pred_picks)]
        result = match(gts, preds, {}, MatchConfig(threshold))
        assert result.matches == tie_rule_match(gts, preds, threshold)


def exact_best_total(matrix):
    """Exhaustive maximum over complete matchings of the smaller side, in exact rationals.

    A dynamic program over the subsets of used columns: row k of the (n <= m)
    matrix takes one column not in the subset.
    """
    if matrix.shape[0] > matrix.shape[1]:
        matrix = matrix.T
    n, m = matrix.shape
    best = {0: Fraction(0)}
    for k in range(n):
        step = {}
        for used, total in best.items():
            for c in range(m):
                if not used >> c & 1:
                    key, value = used | 1 << c, total + Fraction(float(matrix[k, c]))
                    step[key] = max(step.get(key, value), value)
        best = step
    return max(best.values())


# IoU-like entries: exact zeros, one, 6e-17 slivers and values a few ulps
# apart, so that near-ties a float solver could misorder are common.
_ENTRY = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 6e-17, 1e-300]),
    st.floats(0.0, 1.0),
    st.builds(
        lambda x, k: x + k * math.ulp(x), st.sampled_from([0.3, 0.7, 1 / 3]), st.integers(-3, 3)
    ),
)


class TestLinearSumAssignment:
    @settings(max_examples=200, deadline=None)
    @given(
        matrix=arrays(
            float, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7), elements=_ENTRY
        ),
    )
    # One 6e-17 sliver against a total of 1.0, and two entries one ulp apart.
    @example(matrix=np.array([[1.0, 0.0], [0.0, 6e-17]]))
    @example(matrix=np.array([[0.3, 0.3 + 2**-54], [0.3 + 2**-54, 0.3]]))
    def test_exact_optimum_against_exhaustive_and_scipy(self, matrix):
        rows, cols = linear_sum_assignment(matrix)
        assert len(rows) == len(cols) == min(matrix.shape)
        assert rows.tolist() == sorted(set(rows.tolist())) and len(set(cols.tolist())) == len(cols)
        total = sum(map(Fraction, matrix[rows, cols].tolist()), Fraction(0))
        assert total == exact_best_total(matrix)
        ref_rows, ref_cols = scipy_assignment(matrix, maximize=True)
        assert len(ref_rows) == len(rows)
        reference = sum(map(Fraction, matrix[ref_rows, ref_cols].tolist()), Fraction(0))
        assert total >= reference

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            linear_sum_assignment(np.array([[0.5, math.nan]]))


def dense_match(gts, preds, prev_map, threshold):
    """The whole-frame reference: kept pairings, then one dense assignment."""
    i, j = np.divmod(np.arange(len(gts) * len(preds)), max(len(preds), 1))
    iou = bev_iou_pairs(footprints(frame_of(gts).boxes), footprints(frame_of(preds).boxes), i, j)
    iou = iou.reshape(len(gts), len(preds))
    col = {tid: j for j, (tid, _) in enumerate(preds)}
    matched, used = {}, set()
    for i, g in enumerate(gts):
        j = col.get(prev_map.get(g.instance_id))
        if j is not None and j not in used and iou[i, j] >= threshold:
            matched[g.instance_id] = preds[j][0]
            used.add(j)
    rows = [i for i, g in enumerate(gts) if g.instance_id not in matched]
    cols = [j for j in range(len(preds)) if j not in used]
    score = iou[np.ix_(rows, cols)]
    score[score < threshold] = 0.0
    r, c = scipy_assignment(score, maximize=True)
    chosen = [(a, b) for a, b in zip(r, c) if score[a, b] > 0.0]
    # Unique by a margin: dropping any chosen pair costs more than rounding.
    best = score[r, c].sum()
    for a, b in chosen:
        without = score.copy()
        without[a, b] = -1.0
        r2, c2 = scipy_assignment(without, maximize=True)
        if without[r2, c2].clip(0.0).sum() > best - 1e-9:
            return None
    for a, b in chosen:
        matched[gts[rows[a]].instance_id] = preds[cols[b]][0]
    return sorted(matched.items())


class TestComponentSplit:
    def test_matches_dense_assignment_on_crowded_frames(self):
        rng = np.random.default_rng(21)
        compared = 0
        for _ in range(40):
            n = int(rng.integers(20, 60))
            centres = rng.uniform(-3.0, 3.0, size=(n, 2))
            gts = [gt(i, *c, yaw=rng.uniform(-3, 3)) for i, c in enumerate(centres)]
            preds = [
                (int(t), box(*(centres[k] + rng.normal(0, 0.2, 2)), yaw=rng.uniform(-3, 3)))
                for t, k in zip(rng.permutation(n + 5)[:n], rng.permutation(n))
                if rng.uniform() > 0.1
            ]
            prev_map = {i: preds[k][0] for i, k in enumerate(rng.integers(0, len(preds), 5))}
            threshold = float(rng.choice([0.05, 0.2, 0.5]))
            expected = dense_match(gts, preds, prev_map, threshold)
            if expected is None:
                continue
            compared += 1
            assert match(gts, preds, prev_map, MatchConfig(threshold)).matches == expected
        assert compared >= 30


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
        frames = [[gt(i, i * 2.0, 0.1 * f) for i in range(3)] for f in range(5)]
        preds = [[(i, g.box) for i, g in enumerate(fr)] for fr in frames]
        metrics = evaluate(frames, preds)
        assert metrics.mota == 1.0
        assert (metrics.mtr, metrics.mlr) == (1.0, 0.0)
        assert metrics.counts.p == 15

    def test_coverage_drives_mtr_mlr(self):
        frames = [[gt(0, 0.0, 0.0), gt(1, 5.0, 0.0)] for _ in range(10)]
        preds = []
        for f in range(10):
            frame_preds = [(0, box(0.0, 0.0))]
            if f == 0:
                frame_preds.append((1, box(5.0, 0.0)))
            preds.append(frame_preds)
        metrics = evaluate(frames, preds)
        assert metrics.coverages[0] == 1.0
        assert metrics.coverages[1] == pytest.approx(0.1)
        assert (metrics.mtr, metrics.mlr) == (0.5, 0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate([[]], [[], []])

    def test_aggregate_pools_counts(self):
        frames = [[gt(0, 0.0, 0.0)]]
        good = evaluate(frames, [[(0, box(0.0, 0.0))]])
        bad = evaluate(frames, [[]])
        total = aggregate([good, bad])
        assert total.counts.p == 2 and total.counts.fn == 1
        assert total.mota == 0.5


_SIDE = st.sampled_from([0.6, 0.9, 2.0]) | st.floats(0.01, 4.0)
_YAW = st.sampled_from([0.0, math.pi / 4, math.pi / 2, -3.0]) | st.floats(-math.pi, math.pi)
# How far short of touching a shifted prediction stops.
_SHORT = st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, -1e-9])


@st.composite
def _gate_pair(draw):
    """A GT box and a prediction near it, as (x, y, l, w, yaw) each.

    The prediction has the GT's centre, or is shifted along the GT's length
    axis until their edges nearly touch, or along its diagonal until their
    circumscribed discs nearly touch, or by up to 1.5 m either way; its
    sides and yaw are the GT's or drawn anew.
    """
    l, w, yaw = draw(_SIDE), draw(_SIDE), draw(_YAW)
    same = draw(st.booleans())
    l2, w2 = (l, w) if same else (draw(_SIDE), draw(_SIDE))
    yaw2 = yaw if same or draw(st.booleans()) else draw(_YAW)
    mode = draw(st.sampled_from(["centre", "edge", "disc", "free"]))
    if mode == "centre":
        dx = dy = 0.0
    elif mode == "free":
        dx, dy = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))
    else:
        short = draw(_SHORT)
        if mode == "edge":
            reach, angle = 0.5 * (l + l2) - short, yaw
        else:
            reach = 0.5 * (math.hypot(l, w) + math.hypot(l2, w2)) - short
            angle = yaw + math.atan2(w, l)
        dx, dy = reach * math.cos(angle), reach * math.sin(angle)
    return (0.0, 0.0, l, w, yaw), (dx, dy, l2, w2, yaw2)


class TestThresholdGate:
    """Dropping candidates by bev_iou_bounds keeps every pair at or above the threshold, to the bit."""

    @settings(max_examples=250, deadline=None)
    @given(
        frames=st.lists(st.lists(_gate_pair(), min_size=1, max_size=4), min_size=1, max_size=3),
        spacing=st.sampled_from([0.0, 0.7, 20.0]),
        base=st.sampled_from([0.0, 95.3, -4.1e6, 2.0**40]),
        threshold=st.sampled_from([5e-324, 1e-300, 1e-12, 1e-6, 0.5, 1.0 - 2**-52, 1.0])
        | st.floats(1e-12, 1.0),
    )
    def test_gated_and_ungated_agree(self, frames, spacing, base, threshold):
        gt_frames, pred_frames = [], []
        for pairs in frames:
            # Pair k sits spacing * k from base: apart, or crowding each other.
            rows = [
                [box(base + spacing * k + x, base + y, l=l, w=w, yaw=yaw) for x, y, l, w, yaw in pair]
                for k, pair in enumerate(pairs)
            ]
            gt_frames.append(frame_of([GtObject(k, g) for k, (g, _) in enumerate(rows)]))
            pred_frames.append(frame_of([(50 - k, p) for k, (_, p) in enumerate(rows)]))
        gt_boxes, pred_boxes = [f.boxes for f in gt_frames], [f.boxes for f in pred_frames]
        ungated = _sequence_ious(gt_boxes, pred_boxes)
        gated = _sequence_ious(gt_boxes, pred_boxes, threshold)
        cfg = MatchConfig(threshold)
        for gts, preds, (i, j, iou), kept in zip(gt_frames, pred_frames, ungated, gated):
            bound = bev_iou_bounds(footprints(gts.boxes), footprints(preds.boxes), i, j)
            assert (bound >= iou).all()
            above = iou >= threshold
            kept_above = kept[2] >= threshold
            for full, part in zip((i, j, iou), kept):
                assert full[above].tobytes() == part[kept_above].tobytes()
            expected = match_frame(gts, preds, {}, cfg, (i, j, iou))
            assert match_frame(gts, preds, {}, cfg, kept) == expected
            assert match_frame(gts, preds, {}, cfg) == expected

    @pytest.mark.parametrize(
        "side, gt_xy, pred_xy, yaw",
        [(1e154, (0.0, 0.0), (1.0, 0.0), 0.0), (1e308, (0.0, 0.0), (1.0, 0.0), 0.0),
         (0.6, (1e200, 1e200), (1e200, 1e200), 0.05)],
        ids=["union-overflows", "sides-overflow", "far-from-origin"],
    )
    def test_a_pair_whose_iou_overflows_is_kept_and_rejected(self, side, gt_xy, pred_xy, yaw):
        # A + B - U, the areas or the clipped area are beyond the float range.
        gts = frame_of([gt(0, *gt_xy, l=side, w=side)])
        preds = frame_of([(0, box(*pred_xy, l=side, w=side, yaw=yaw))])
        bound = bev_iou_bounds(footprints(gts.boxes), footprints(preds.boxes), [0], [0])
        assert bound.tolist() == [math.inf]
        for threshold in (None, 0.5, 1.0):
            with pytest.raises(ValueError, match="overflows: its intersection or union is not finite"):
                _sequence_ious([gts.boxes], [preds.boxes], threshold)

    def test_crowded_frame_drops_candidates(self):
        # A 0.6 m box shifted 0.3 m along its length keeps an IoU of 1/3.
        gts = frame_of([gt(0, 0.0, 0.0), gt(1, 5.0, 0.0)])
        preds = frame_of([(0, box(0.3, 0.0)), (1, box(5.0, 0.0))])
        assert [len(part) for part in _iou_matrix(gts.boxes, preds.boxes)] == [2, 2, 2]
        i, j, iou = _iou_matrix(gts.boxes, preds.boxes, 0.5)
        assert (i.tolist(), j.tolist(), iou.tolist()) == ([1], [1], [1.0])


class TestDensityStats:
    def scene(self, frames):
        return [frame_of(f) for f in frames]

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
