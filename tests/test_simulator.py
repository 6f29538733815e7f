"""Scene generation, density control, and detection corruption."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdmot import simulator
from crowdmot.evaluator import density_stats
from crowdmot.formats import write_scene_jsonl
from crowdmot.geometry import Frame, pairs_within, wrap_yaw
from crowdmot.simulator import (
    InfeasibleSceneError,
    MIN_SEPARATION,
    NoiseConfig,
    SimConfig,
    _CellIndex,
    _density_model,
    _reflect,
    _repair_separation,
    corrupt,
    density_sweep,
    gen_scene,
    solve_cluster_params,
)
from crowdmot.targets import make_motion_offsets, make_relationship_offsets
from oracles import reflect_scalar, repair_separation_by_pair_loop, too_close_to_any_placed

AREA = (-60.0, 60.0, -40.0, 40.0)


def same_frames(a, b):
    """Whether two lists of Frames hold the same bits in every column."""
    def bits(frame):
        return [None if column is None else column.tobytes() for column in vars(frame).values()]

    return [bits(f) for f in a] == [bits(f) for f in b]


def small_cfg(**kw):
    base = dict(n_pedestrians=25, n_frames=40, area=AREA, target_density2=2.0, seed=0)
    base.update(kw)
    return SimConfig(**base)


class TestClusterSolver:
    def test_sizes_sum_to_population(self):
        sizes, sigma = solve_cluster_params(small_cfg(target_density2=3.0))
        assert sum(sizes) == 25 and sigma > 0

    def test_closed_form_monotone_in_sigma(self):
        d = [_density_model([5] * 8, 9600.0)(s) for s in (0.3, 0.8, 2.0, 10.0)]
        assert d == sorted(d, reverse=True)

    def test_unreachable_density_raises(self):
        with pytest.raises(InfeasibleSceneError):
            solve_cluster_params(small_cfg(n_pedestrians=3, target_density2=8.0))

    def test_below_uniform_floor_raises(self):
        cfg = SimConfig(
            n_pedestrians=200,
            n_frames=10,
            area=(-15.0, 15.0, -15.0, 15.0),
            target_density2=0.2,
            seed=0,
        )
        with pytest.raises(InfeasibleSceneError):
            solve_cluster_params(cfg)

    def test_overpacked_area_raises(self):
        cfg = SimConfig(
            n_pedestrians=400,
            n_frames=10,
            area=(-5.0, 5.0, -5.0, 5.0),
            target_density2=5.0,
            seed=0,
        )
        with pytest.raises(InfeasibleSceneError):
            gen_scene(cfg)


class TestGenScene:
    def test_zero_pedestrians(self):
        frames, timestamps = gen_scene(small_cfg(n_pedestrians=0, target_density2=0.0))
        assert len(frames) == len(timestamps) == 40 and all(not len(f) for f in frames)

    def test_deterministic_per_seed(self):
        a = gen_scene(small_cfg(seed=5))
        b = gen_scene(small_cfg(seed=5))
        assert a[1] == b[1]
        assert same_frames(a[0], b[0])

    def test_different_seeds_differ(self):
        a, _ = gen_scene(small_cfg(seed=5))
        b, _ = gen_scene(small_cfg(seed=6))
        assert any(fa.boxes.tobytes() != fb.boxes.tobytes() for fa, fb in zip(a, b))

    def test_ids_persistent_and_unique(self):
        frames, _ = gen_scene(small_cfg())
        for frame in frames:
            # Ids 0, 1, ... in order: unique, and the same in every frame.
            assert frame.ids.tolist() == list(range(25))

    def test_minimum_separation_every_frame(self):
        frames, _ = gen_scene(small_cfg(target_density2=4.0, n_pedestrians=40))
        for frame in frames:
            for a, b in itertools.combinations(frame.boxes.tolist(), 2):
                d = math.hypot(a[0] - b[0], a[1] - b[1])
                assert d >= MIN_SEPARATION

    def test_pedestrians_stay_inside_area(self):
        frames, _ = gen_scene(small_cfg(n_frames=80))
        x_min, x_max, y_min, y_max = AREA
        for frame in frames:
            for cx, cy, *_ in frame.boxes.tolist():
                assert x_min < cx < x_max
                assert y_min < cy < y_max

    def test_timestamps_follow_frame_rate(self):
        _, timestamps = gen_scene(small_cfg(frame_rate=5.0))
        assert timestamps[1] - timestamps[0] == pytest.approx(0.2)

    def test_boxes_are_valid_and_yaws_are_wrapped_headings(self):
        frames, _ = gen_scene(small_cfg(n_frames=5))
        for frame in frames:
            boxes = frame.boxes
            assert np.isfinite(boxes).all() and (boxes[:, 3:6] > 0.0).all()
            assert (boxes[:, 2] == boxes[:, 5] / 2.0).all()
            assert ((-math.pi <= boxes[:, 6]) & (boxes[:, 6] <= math.pi)).all()

    def test_density_near_target(self):
        measured = np.mean(
            [density_stats(gen_scene(small_cfg(seed=s))[0]) for s in range(8)]
        )
        assert measured == pytest.approx(2.0, rel=0.15)


class TestRepairSeparation:
    LO, HI = np.array([-10.0, -10.0]), np.array([10.0, 10.0])

    def test_coincident_pair_splits_along_x(self):
        pos = _repair_separation(np.zeros((2, 2)), self.LO, self.HI)
        half_gap = 0.5 * MIN_SEPARATION * 1.01
        assert pos.tolist() == [[half_gap, 0.0], [-half_gap, 0.0]]

    def test_pushes_use_offsets_from_the_start_of_the_round(self):
        # Pedestrian 1 is too close to both others; its second push must use
        # its position before the first push, so the two pushes stay axis-aligned.
        pos = np.array([[0.0, 0.0], [0.25, 0.0], [0.25, 0.25]])
        push = 0.5 * (MIN_SEPARATION * 1.01 - 0.25)
        pos = _repair_separation(pos, self.LO, self.HI)
        expected = [[-push, 0.0], [0.25 + push, -push], [0.25, 0.25 + push]]
        np.testing.assert_allclose(pos, expected, rtol=0, atol=1e-12)

    def test_no_pair_left_closer_than_minimum(self):
        pos = np.random.default_rng(3).uniform(-1.5, 1.5, (60, 2))
        pos = _repair_separation(pos, self.LO, self.HI)
        for a, b in itertools.combinations(pos, 2):
            assert math.hypot(*(a - b)) >= MIN_SEPARATION

    def test_overpacked_cluster_raises_after_last_round(self, monkeypatch):
        searches = []
        pairs_within = simulator.pairs_within

        def counting(a_xy, b_xy, r):
            searches.append(r)
            return pairs_within(a_xy, b_xy, r)

        monkeypatch.setattr(simulator, "pairs_within", counting)
        # 20 pedestrians cannot keep 0.3 m apart inside a 0.5 m square.
        pos = np.random.default_rng(4).uniform(0.0, 0.5, (20, 2))
        with pytest.raises(InfeasibleSceneError, match="separation"):
            _repair_separation(pos, np.zeros(2), np.full(2, 0.5))
        assert len(searches) == 33

    @pytest.mark.parametrize("n, spread", [(40, 0.1), (40, 0.15), (30, 0.2), (30, 0.6), (40, 0.3)])
    def test_matches_the_pair_loop_bit_for_bit(self, n, spread):
        # Tight clusters, so pedestrians sit in several close pairs at once
        # and their pushes accumulate; one pair is coincident. The last
        # cluster keeps pushing pairs back together for all 32 rounds.
        pos = np.random.default_rng(5).normal(0.0, spread, (n, 2))
        pos[1] = pos[0]
        expected = repair_separation_by_pair_loop(pos.copy(), self.LO, self.HI)
        if expected is None:
            with pytest.raises(InfeasibleSceneError):
                _repair_separation(pos, self.LO, self.HI)
        else:
            assert _repair_separation(pos, self.LO, self.HI).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8)), min_size=1, max_size=25),
        copies=st.lists(st.integers(0, 24), max_size=4),
        wall=st.sampled_from([0.5, 1.0, 10.0]),
        base=st.sampled_from([0.0, 1e300]),
    )
    # Near 1e300 a push along x rounds to nothing: a coincident pair stays
    # coincident through all 32 rounds.
    @example(points=[(0.0, 0.0)], copies=[0], wall=10.0, base=1e300)
    def test_matches_the_pair_loop_on_drawn_scenes(self, points, copies, wall, base):
        # Points may start outside the walls, and copies make coincident pairs.
        pos = np.array(points + [points[k % len(points)] for k in copies])
        pos[:, 0] += base
        lo, hi = np.array([base - wall, -wall]), np.array([base + wall, wall])
        expected = repair_separation_by_pair_loop(pos.copy(), lo, hi)
        searches = []

        def counting(a_xy, b_xy, r):
            searches.append(r)
            return pairs_within(a_xy, b_xy, r)

        with mock.patch.object(simulator, "pairs_within", counting):
            if expected is None:
                with pytest.raises(InfeasibleSceneError):
                    _repair_separation(pos, lo, hi)
                assert len(searches) == 33
            else:
                assert _repair_separation(pos, lo, hi).tobytes() == expected.tobytes()


# Coordinates around bases where x / MIN_SEPARATION loses the cell: near
# 1.5e15 a float's spacing is most of a cell, near +-1e300 x / 0.3 has no
# fraction left, and 1.7e308 / 0.3 overflows.
_BASES = st.sampled_from([0.0, -7.3, 1.5e15, -3e15, 1e300, -1e300, 1.7e308])
_SHIFTS = st.sampled_from([0.0, MIN_SEPARATION, -MIN_SEPARATION, 0.18, 0.24, -0.24]) | st.floats(
    -1.0, 1.0
)


class TestCellIndex:
    @staticmethod
    def check(placed, cands):
        points = np.reshape(np.array(placed, dtype=float), (-1, 2))
        cands = np.reshape(np.array(cands, dtype=float), (-1, 2))
        index = _CellIndex(points, float(np.abs(np.vstack([points, cands])).max(initial=0.0)))
        # As in placement: each point is asked about before it is added.
        for k, point in enumerate(points):
            assert index.too_close(point) == too_close_to_any_placed(points[:k], point)
            index.add(k)
        for cand in cands:
            assert index.too_close(cand) == too_close_to_any_placed(points, cand)

    def test_pairs_exactly_min_separation_apart_are_not_too_close(self):
        self.check(
            [(0.0, 0.0), (5.0, 5.0)],
            [(MIN_SEPARATION, 0.0), (0.0, -MIN_SEPARATION), (0.18, 0.24), (5.0, 5.2999)],
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_a_scan_over_every_placed_point(self, data):
        bases = data.draw(st.lists(st.tuples(_BASES, _BASES), min_size=1, max_size=3))
        point = st.tuples(st.sampled_from(bases), _SHIFTS, _SHIFTS).map(
            lambda p: (p[0][0] + p[1], p[0][1] + p[2])
        )
        placed = data.draw(st.lists(point, max_size=30))
        shifted = [
            (x + dx, y + dy)
            for x, y in placed
            for dx, dy in ((MIN_SEPARATION, 0.0), (0.0, -MIN_SEPARATION), (0.18, 0.24))
        ]
        self.check(placed, data.draw(st.lists(point, max_size=10)) + shifted)


class TestReflect:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_bounces_bit_for_bit(self, data):
        wall = st.floats(-50.0, 50.0)
        lo = np.array(data.draw(st.tuples(wall, wall)))
        hi = np.array(data.draw(st.tuples(wall, wall)))
        coord = st.floats(-300.0, 300.0) | st.sampled_from([0.0, -0.0])
        value = np.array(data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6)))
        vel = np.array(data.draw(
            st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                     min_size=len(value), max_size=len(value))
        ))
        expected = [
            [reflect_scalar(v, w, lo[axis], hi[axis]) for axis, (v, w) in enumerate(zip(vs, ws))]
            for vs, ws in zip(value, vel)
        ]
        _reflect(value, vel, lo, hi)
        assert value.tobytes() == np.array([[v for v, _ in row] for row in expected]).tobytes()
        assert vel.tobytes() == np.array([[w for _, w in row] for row in expected]).tobytes()


class TestCorrupt:
    def test_zero_noise_is_identity_with_exact_offsets(self):
        frames, _ = gen_scene(small_cfg())
        dets = corrupt(frames, NoiseConfig(seed=1))
        prev = Frame.empty()
        for gt, det in zip(frames, dets, strict=True):
            offset, newborn = make_motion_offsets(gt, prev)
            assert det.ids.tolist() == list(range(len(gt)))
            # The GT boxes, their yaws wrapped once more.
            assert det.boxes[:, :6].tobytes() == gt.boxes[:, :6].tobytes()
            assert det.boxes[:, 6].tobytes() == wrap_yaw(gt.boxes[:, 6]).tobytes()
            assert det.offset.tobytes() == offset.tobytes()
            assert det.newborn.tolist() == newborn.tolist()
            prev = gt

    def test_all_missed(self):
        frames, _ = gen_scene(small_cfg())
        dets = corrupt(frames, NoiseConfig(p_miss=1.0, seed=1))
        assert all(not len(d) for d in dets)

    def test_position_jitter_statistics(self):
        frames, _ = gen_scene(small_cfg(n_pedestrians=40, n_frames=30))
        dets = corrupt(frames, NoiseConfig(pos_sigma=0.1, seed=2))
        errors = np.concatenate([d.boxes[:, :2] - f.boxes[:, :2] for f, d in zip(frames, dets)])
        assert errors.shape[0] >= 1000
        assert np.abs(errors.mean(axis=0)).max() < 0.02
        assert np.std(errors[:, 0]) == pytest.approx(0.1, rel=0.15)

    def test_clutter_rate(self):
        frames, _ = gen_scene(small_cfg(n_frames=120))
        dets = corrupt(frames, NoiseConfig(clutter_rate=3.0, seed=3))
        clutter_per_frame = np.mean([len(d) for d in dets]) - 25
        assert clutter_per_frame == pytest.approx(3.0, rel=0.25)
        assert all(d.newborn[25:].all() for d in dets)

    def test_deterministic(self):
        frames, _ = gen_scene(small_cfg())
        noise = NoiseConfig(pos_sigma=0.2, p_miss=0.1, clutter_rate=1.0, seed=9)
        a = corrupt(frames, noise)
        b = corrupt(frames, noise)
        assert same_frames(a, b)

    def test_emit_rel_attaches_relationships(self):
        frames, _ = gen_scene(small_cfg(target_density2=3.5, n_pedestrians=30))
        dets = corrupt(frames, NoiseConfig(emit_rel=True, seed=4))
        assert all(d.has_rel.all() for d in dets)
        assert any((~np.isnan(d.rel[:, 0])).any() for d in dets)
        for gt, det in zip(frames, dets):
            want = make_relationship_offsets(gt)
            assert det.rel.tobytes() == want.tobytes()
        plain = corrupt(frames, NoiseConfig(seed=4))
        assert not any(d.has_rel.any() for d in plain)

    def test_ids_follow_gt_id_order(self):
        frames, _ = gen_scene(small_cfg(n_frames=3))
        reversed_frames = [Frame(f.ids[::-1], f.boxes[::-1]) for f in frames]
        noise = NoiseConfig(pos_sigma=0.1, p_miss=0.2, clutter_rate=1.0, emit_rel=True, seed=6)
        assert same_frames(corrupt(reversed_frames, noise), corrupt(frames, noise))

    def test_detection_yaws_are_wrapped(self):
        # A GT yaw of exactly +pi, which wrap_yaw leaves alone only in [-pi, pi), becomes -pi.
        gt = Frame(np.array([0, 1]), np.array([[0.0, 0.0, 0.8, 0.6, 0.6, 1.7, math.pi],
                                               [5.0, 0.0, 0.8, 0.6, 0.6, 1.7, 0.5]]))
        (det,) = corrupt([gt], NoiseConfig(seed=1))
        assert det.boxes[:, 6].tolist() == [-math.pi, 0.5]

    def test_scores_clip_as_python_min_max(self):
        # mean -0.0 and sigma 0.0 make every raw score -0.0 or 0.0: max(0.0, x)
        # keeps 0.0 for both, where np.clip would keep -0.0. Huge sigmas clip to 0 or 1.
        frames, _ = gen_scene(small_cfg(n_frames=2))
        dets = corrupt(frames, NoiseConfig(score_true_mean=-0.0, score_true_sigma=0.0, seed=1))
        assert {s.hex() for d in dets for s in d.score.tolist()} == {(0.0).hex()}
        dets = corrupt(frames, NoiseConfig(score_true_sigma=1e308, seed=1))
        assert {s for d in dets for s in d.score.tolist()} == {0.0, 1.0}

    @pytest.mark.parametrize("field", ["pos_sigma", "offset_sigma"])
    def test_overflowing_noise_names_its_field(self, field):
        frames, _ = gen_scene(small_cfg(n_frames=2))
        with pytest.raises(ValueError, match=f"^{field} 1e\\+308 "):
            corrupt(frames, NoiseConfig(**{field: 1e308}, seed=1))


class TestDensitySweep:
    def test_single_density(self):
        scenes = density_sweep(small_cfg(), [1.5])
        assert len(scenes) == 1 and len(scenes[0][0]) == 40

    def test_measured_density_non_decreasing(self):
        scenes = density_sweep(small_cfg(n_pedestrians=40), [0.7, 2.0, 3.8])
        measured = [density_stats(frames) for frames, _ in scenes]
        assert measured == sorted(measured)

    def test_deterministic(self):
        a = density_sweep(small_cfg(), [1.0, 2.0])
        b = density_sweep(small_cfg(), [1.0, 2.0])
        for (fa, _), (fb, _) in zip(a, b):
            assert same_frames(fa, fb)


class TestSceneSequence:
    """A scene's frames and timestamps pair up, and its frame times increase."""

    def test_rejects_noninc_timestamps(self):
        # Times i * (1 / frame_rate) that overflow to inf, or 0 * inf = NaN, do not increase.
        for frame_rate, n_frames in [(1e-308, 3), (5e-324, 2), (5e-324, 1)]:
            with pytest.raises(ValueError, match="frame_rate"):
                small_cfg(frame_rate=frame_rate, n_frames=n_frames)
        # The last time just below the float limit is accepted.
        assert small_cfg(frame_rate=1e-308, n_frames=2).frame_rate == 1e-308

    def test_rejects_length_mismatch(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        with pytest.raises(ValueError):
            write_scene_jsonl(path, [Frame.empty()], [0.0, 0.1])
        assert not path.exists()
