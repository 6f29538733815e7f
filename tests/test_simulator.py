"""Scene generation, density control, and detection corruption."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdmot import simulator
from crowdmot.evaluator import density_stats
from crowdmot.geometry import to_frame
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
from crowdmot.records import SceneSequence
from crowdmot.targets import make_motion_offsets
from oracles import reflect_scalar, repair_separation_by_pair_loop, too_close_to_any_placed

AREA = (-60.0, 60.0, -40.0, 40.0)


def frames_of(scene):
    return [to_frame(f) for f in scene.frames]


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
        scene = gen_scene(small_cfg(n_pedestrians=0, target_density2=0.0))
        assert len(scene) == 40 and all(not f for f in scene.frames)

    def test_deterministic_per_seed(self):
        a = gen_scene(small_cfg(seed=5))
        b = gen_scene(small_cfg(seed=5))
        assert a.timestamps == b.timestamps
        for fa, fb in zip(a.frames, b.frames):
            assert fa == fb

    def test_different_seeds_differ(self):
        a = gen_scene(small_cfg(seed=5))
        b = gen_scene(small_cfg(seed=6))
        assert any(fa != fb for fa, fb in zip(a.frames, b.frames))

    def test_ids_persistent_and_unique(self):
        scene = gen_scene(small_cfg())
        first = {o.instance_id for o in scene.frames[0]}
        for frame in scene.frames:
            ids = [o.instance_id for o in frame]
            assert len(ids) == len(set(ids))
            assert set(ids) == first

    def test_minimum_separation_every_frame(self):
        scene = gen_scene(small_cfg(target_density2=4.0, n_pedestrians=40))
        for frame in scene.frames:
            for a, b in itertools.combinations(frame, 2):
                d = math.hypot(a.box.cx - b.box.cx, a.box.cy - b.box.cy)
                assert d >= MIN_SEPARATION

    def test_pedestrians_stay_inside_area(self):
        scene = gen_scene(small_cfg(n_frames=80))
        x_min, x_max, y_min, y_max = AREA
        for frame in scene.frames:
            for o in frame:
                assert x_min < o.box.cx < x_max
                assert y_min < o.box.cy < y_max

    def test_timestamps_follow_frame_rate(self):
        scene = gen_scene(small_cfg(frame_rate=5.0))
        assert scene.timestamps[1] - scene.timestamps[0] == pytest.approx(0.2)

    def test_density_near_target(self):
        measured = np.mean(
            [density_stats(frames_of(gen_scene(small_cfg(seed=s)))) for s in range(8)]
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
        scene = gen_scene(small_cfg())
        dets = corrupt(scene, NoiseConfig(seed=1))
        prev = []
        for objs, frame_dets in zip(scene.frames, dets):
            objs = sorted(objs, key=lambda o: o.instance_id)
            offsets = make_motion_offsets(objs, prev)
            assert len(frame_dets) == len(objs)
            for o, d in zip(objs, frame_dets):
                assert d.box == o.box
                truth = offsets[o.instance_id]
                assert (d.offset.ox, d.offset.oy, d.offset.oz) == (
                    truth.ox,
                    truth.oy,
                    truth.oz,
                )
                assert d.offset.newborn == truth.newborn
            prev = objs

    def test_all_missed(self):
        scene = gen_scene(small_cfg())
        dets = corrupt(scene, NoiseConfig(p_miss=1.0, seed=1))
        assert all(not d for d in dets)

    def test_position_jitter_statistics(self):
        scene = gen_scene(small_cfg(n_pedestrians=40, n_frames=30))
        dets = corrupt(scene, NoiseConfig(pos_sigma=0.1, seed=2))
        errors = []
        for objs, frame_dets in zip(scene.frames, dets):
            for o, d in zip(sorted(objs, key=lambda o: o.instance_id), frame_dets):
                errors.append((d.box.cx - o.box.cx, d.box.cy - o.box.cy))
        errors = np.array(errors)
        assert errors.shape[0] >= 1000
        assert np.abs(errors.mean(axis=0)).max() < 0.02
        assert np.std(errors[:, 0]) == pytest.approx(0.1, rel=0.15)

    def test_clutter_rate(self):
        scene = gen_scene(small_cfg(n_frames=120))
        dets = corrupt(scene, NoiseConfig(clutter_rate=3.0, seed=3))
        clutter_per_frame = np.mean([len(d) for d in dets]) - 25
        assert clutter_per_frame == pytest.approx(3.0, rel=0.25)

    def test_deterministic(self):
        scene = gen_scene(small_cfg())
        noise = NoiseConfig(pos_sigma=0.2, p_miss=0.1, clutter_rate=1.0, seed=9)
        a = corrupt(scene, noise)
        b = corrupt(scene, noise)
        assert a == b

    def test_emit_rel_attaches_relationships(self):
        scene = gen_scene(small_cfg(target_density2=3.5, n_pedestrians=30))
        dets = corrupt(scene, NoiseConfig(emit_rel=True, seed=4))
        flat = [d for frame in dets for d in frame]
        assert all(d.relationship is not None for d in flat)
        assert any(d.relationship.defined for d in flat)
        plain = corrupt(scene, NoiseConfig(seed=4))
        assert all(d.relationship is None for f in plain for d in f)


class TestDensitySweep:
    def test_single_density(self):
        scenes = density_sweep(small_cfg(), [1.5])
        assert len(scenes) == 1 and len(scenes[0]) == 40

    def test_measured_density_non_decreasing(self):
        scenes = density_sweep(small_cfg(n_pedestrians=40), [0.7, 2.0, 3.8])
        measured = [density_stats(frames_of(s)) for s in scenes]
        assert measured == sorted(measured)

    def test_deterministic(self):
        a = density_sweep(small_cfg(), [1.0, 2.0])
        b = density_sweep(small_cfg(), [1.0, 2.0])
        for sa, sb in zip(a, b):
            assert sa.frames == sb.frames


class TestSceneSequence:
    def test_rejects_noninc_timestamps(self):
        with pytest.raises(ValueError):
            SceneSequence([[], []], [0.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SceneSequence([[]], [0.0, 0.1])
