"""Greedy association and track lifecycle."""

import math

import numpy as np
import pytest
from oracles import Detection, box_row, exhaustive_assignment, frame_of

from crowdmot.tracker import (
    TrackerConfig,
    TrackerState,
    associate,
    run_sequence,
    step,
)

CFG = TrackerConfig()


def det(x, y, score=0.9, ox=0.0, oy=0.0):
    return Detection(box=box_row(x, y), score=score, offset=(ox, oy, 0.0))


class TestAssociate:
    def test_no_tracks(self):
        result = associate(frame_of([det(0, 0), det(1, 1)]), [], CFG)
        assert result == [(0, None), (1, None)]

    def test_exact_offset_match(self):
        d = det(2.0, 0.0, ox=-1.0)  # was at (1, 0) in the previous frame
        assert associate(frame_of([d]), [(7, (1.0, 0.0))], CFG) == [(0, 7)]

    def test_gate_excludes_far_tracks(self):
        d = det(0.0, 0.0)
        assert associate(frame_of([d]), [(3, (0.0, 1.5))], CFG) == [(0, None)]

    def test_crossing_objects_keep_identities(self):
        # Two pedestrians swap positions between frames; exact offsets
        # point each detection back to its own track.
        d1 = det(1.0, 0.0, score=0.9, ox=-1.0)
        d2 = det(0.0, 0.0, score=0.8, ox=1.0)
        tracks = [(0, (0.0, 0.0)), (1, (1.0, 0.0))]
        result = dict(associate(frame_of([d1, d2]), tracks, CFG))
        assert result == {0: 0, 1: 1}
        oracle, unique = exhaustive_assignment([d1, d2], tracks, CFG.max_match_dist)
        assert unique and {(i, t) for i, t in result.items()} == oracle

    def test_score_order_not_input_order(self):
        # Both detections within gate of a single track; the higher score wins
        # even when it comes later in the list.
        d_low = det(0.3, 0.0, score=0.5)
        d_high = det(0.2, 0.0, score=0.9)
        result = dict(associate(frame_of([d_low, d_high]), [(0, (0.0, 0.0))], CFG))
        assert result == {0: None, 1: 0}

    def test_equal_scores_tie_break_by_index(self):
        d1 = det(0.3, 0.0, score=0.8)
        d2 = det(0.2, 0.0, score=0.8)
        result = dict(associate(frame_of([d1, d2]), [(0, (0.0, 0.0))], CFG))
        assert result == {0: 0, 1: None}

    def test_distance_tie_break_by_track_id(self):
        d = det(0.0, 0.0)
        result = dict(associate(frame_of([d]), [(5, (0.5, 0.0)), (2, (-0.5, 0.0))], CFG))
        assert result == {0: 2}

    def test_never_matches_beyond_gate(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            dets = [
                det(rng.uniform(-3, 3), rng.uniform(-3, 3), score=rng.uniform(0.1, 1.0))
                for _ in range(rng.integers(0, 5))
            ]
            tracks = [
                (tid, (rng.uniform(-3, 3), rng.uniform(-3, 3)))
                for tid in range(rng.integers(0, 5))
            ]
            for i, tid in associate(frame_of(dets), tracks, CFG):
                if tid is not None:
                    px = dets[i].box[0] + dets[i].offset[0]
                    py = dets[i].box[1] + dets[i].offset[1]
                    cx, cy = dict(tracks)[tid]
                    assert math.hypot(cx - px, cy - py) <= CFG.max_match_dist


class TestStep:
    def test_births_require_min_score(self):
        state = TrackerState()
        out = step(state, frame_of([det(0, 0, score=0.29), det(2, 2, score=0.31)]), CFG, frame=0)
        assert len(out) == 1 and len(state.live) == 1

    def test_all_tracks_retire_after_silence(self):
        state = TrackerState()
        step(state, frame_of([det(0, 0)]), CFG, frame=0)
        for frame in range(1, CFG.max_age + 2):
            step(state, frame_of([]), CFG, frame=frame)
        assert not state.live and len(state.dead) == 1

    def test_constant_detection_builds_one_track(self):
        state = TrackerState()
        for frame in range(10):
            out = step(state, frame_of([det(0, 0)]), CFG, frame=frame)
            assert out.ids.tolist() == [0]
        assert len(state.live) == 1 and not state.dead

    def test_gap_of_max_age_keeps_identity(self):
        state = TrackerState()
        step(state, frame_of([det(0, 0)]), CFG, frame=0)
        for frame in range(1, 1 + CFG.max_age):
            step(state, frame_of([]), CFG, frame=frame)
        out = step(state, frame_of([det(0.1, 0.0)]), CFG, frame=CFG.max_age + 1)
        assert out.ids.tolist() == [0] and len(state.live) == 1 and not state.dead

    def test_gap_beyond_max_age_assigns_new_identity(self):
        state = TrackerState()
        step(state, frame_of([det(0, 0)]), CFG, frame=0)
        for frame in range(1, 2 + CFG.max_age):
            step(state, frame_of([]), CFG, frame=frame)
        assert not state.live
        out = step(state, frame_of([det(0.1, 0.0)]), CFG, frame=CFG.max_age + 2)
        assert out.ids.tolist() == [1]

    def test_out_of_order_frame_rejected(self):
        state = TrackerState()
        step(state, frame_of([det(0, 0)]), CFG, frame=0)
        with pytest.raises(ValueError):
            step(state, frame_of([det(0, 0)]), CFG, frame=0)


class TestConfig:
    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5, math.inf, math.nan])
    def test_birth_score_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match="birth_score_min at most 1"):
            TrackerConfig(birth_score_min=value)

    def test_birth_score_of_one_accepted(self):
        assert TrackerConfig(birth_score_min=1.0).birth_score_min == 1.0


class TestRunSequence:
    def test_empty_sequence(self):
        assert run_sequence([], CFG) == []

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        frames = [
            [
                det(rng.uniform(-5, 5), rng.uniform(-5, 5), score=rng.uniform(0.3, 1.0))
                for _ in range(6)
            ]
            for f in range(15)
        ]
        a = run_sequence([frame_of(f) for f in frames], CFG)
        b = run_sequence([frame_of(f) for f in frames], CFG)
        assert len(a) == len(b) == 15
        for x, y in zip(a, b):
            assert x.ids.tobytes() == y.ids.tobytes()
            assert x.boxes.tobytes() == y.boxes.tobytes()
            assert x.score.tobytes() == y.score.tobytes()

    def test_track_ids_unique_and_never_reused(self):
        rng = np.random.default_rng(2)
        frames = [
            [
                det(rng.uniform(-20, 20), rng.uniform(-20, 20), score=rng.uniform(0.3, 1.0))
                for _ in range(rng.integers(0, 8))
            ]
            for f in range(30)
        ]
        outputs = run_sequence([frame_of(f) for f in frames], CFG)
        last_seen = {}
        for frame, out in enumerate(outputs):
            ids = out.ids.tolist()
            assert ids == sorted(set(ids))  # one box per track and frame
            for tid in ids:
                # An id once retired (unseen for more than max_age frames) never returns.
                assert frame - last_seen.get(tid, frame) <= CFG.max_age + 1
                last_seen[tid] = frame
        # Ids are handed out in order, from 0, with no gaps.
        assert sorted(last_seen) == list(range(len(last_seen)))

    def test_permuting_equal_scores_keeps_matches(self):
        # Well-separated tracks, detections near their own track: the matched
        # (det position, track) pairs must not depend on list order.
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            centers = _spread_points(rng, n, min_dist=2.5)
            tracks = [(tid, tuple(c)) for tid, c in enumerate(centers)]
            dets = [
                det(c[0] + rng.uniform(-0.2, 0.2), c[1] + rng.uniform(-0.2, 0.2), score=0.7)
                for c in centers
            ]
            base = {
                (dets[i].box[0], tid)
                for i, tid in associate(frame_of(dets), tracks, CFG)
                if tid is not None
            }
            perm = rng.permutation(n)
            shuffled = [dets[i] for i in perm]
            permuted = {
                (shuffled[i].box[0], tid)
                for i, tid in associate(frame_of(shuffled), tracks, CFG)
                if tid is not None
            }
            assert base == permuted


def _spread_points(rng, n, min_dist, span=10.0):
    points = []
    while len(points) < n:
        cand = rng.uniform(-span, span, 2)
        if all(np.hypot(*(cand - p)) >= min_dist for p in points):
            points.append(cand)
    return points
