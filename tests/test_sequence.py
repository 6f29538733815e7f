"""Sequence-wide kernels against the per-frame loops they replaced, and how often they run.

evaluate_sequence, density_stats and the offset targets each answer a whole
sequence with one neighbour query or one id join. The per-frame oracles in
tests/oracles.py are the loops that ran before; hypothesis checks the two
give the same bits, and the same error for the same first frame. The call
counts below fail if a kernel goes back to one call per frame.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    density_by_frames,
    evaluate_by_frames,
    motion_offsets_by_frames,
    relationship_offsets_by_frames,
)

import crowdmot.cli
import crowdmot.evaluator
import crowdmot.simulator
import crowdmot.targets
from crowdmot.cli import main
from crowdmot.evaluator import MatchConfig, MetricUndefinedError, density_stats, evaluate_sequence
from crowdmot.formats import write_scene_jsonl
from crowdmot.geometry import Frame
from crowdmot.simulator import NoiseConfig, SimConfig, corrupt, gen_scene
from crowdmot.targets import FrameError, motion_offsets, relationship_offsets

# Centres on a quarter-metre lattice make overlaps, equal boxes and exact
# ties common; sides and yaws come from short lists for the same reason.
_CENTRE = st.integers(-6, 6).map(lambda k: k * 0.25)
_SIDE = st.sampled_from([0.5, 0.6, 1.0, 1.5])
_YAW = st.sampled_from([0.0, 0.5, -1.25, math.pi / 4])


@st.composite
def frame_boxes(draw, max_size=6):
    """One frame of unique ids in 0..9 and boxes on the lattice."""
    ids = draw(st.lists(st.integers(0, 9), unique=True, max_size=max_size))
    rows = [
        (draw(_CENTRE), draw(_CENTRE), 0.85, draw(_SIDE), draw(_SIDE), 1.7, draw(_YAW)) for _ in ids
    ]
    return Frame(np.array(ids, dtype=np.int64), np.array(rows, dtype=float).reshape(-1, 7))


@st.composite
def sequences(draw):
    """GT and predicted frames of one sequence: some frames empty, some with no predictions."""
    n = draw(st.integers(1, 6))
    return [draw(frame_boxes()) for _ in range(n)], [draw(frame_boxes()) for _ in range(n)]


def assert_same_metrics(got, want):
    assert got.counts == want.counts
    assert list(got.coverages.items()) == list(want.coverages.items())
    for name in ("mota", "mtr", "mlr"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


def empty_frames(n):
    return [Frame.empty() for _ in range(n)]


def box_frame(ids, centres_and_sides):
    """A frame of axis-aligned squares: (cx, side) per object, all at cy = 0."""
    rows = [(cx, 0.0, 0.85, side, side, 1.7, 0.0) for cx, side in centres_and_sides]
    return Frame(np.array(ids, dtype=np.int64), np.array(rows, dtype=float).reshape(-1, 7))


class TestEvaluateSequence:
    @settings(max_examples=150, deadline=None)
    @given(seq=sequences(), threshold=st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    @example(seq=(empty_frames(3), empty_frames(3)), threshold=0.5)
    # Two 1.5 m squares 1.25 m apart overlap by IoU 0.09: a pair near the
    # edge of the reach, which the threshold of 0.05 keeps.
    @example(seq=([box_frame([4], [(0.0, 1.5)])], [box_frame([7], [(1.25, 1.5)])]), threshold=0.05)
    def test_matches_the_per_frame_loop(self, seq, threshold):
        gt_frames, pred_frames = seq
        cfg = MatchConfig(iou_threshold=threshold)
        try:
            want = evaluate_by_frames(gt_frames, pred_frames, cfg)
        except MetricUndefinedError as exc:
            with pytest.raises(MetricUndefinedError, match=str(exc)):
                evaluate_sequence(gt_frames, pred_frames, cfg)
            return
        assert_same_metrics(evaluate_sequence(gt_frames, pred_frames, cfg), want)

    @settings(max_examples=100, deadline=None)
    @given(seq=sequences(), radius=st.sampled_from([0.25, 1.0, 2.0, 5.0]))
    def test_density_matches_the_per_frame_loop(self, seq, radius):
        frames = seq[0]
        if not sum(map(len, frames)):
            with pytest.raises(MetricUndefinedError):
                density_stats(frames, radius)
            return
        assert repr(density_stats(frames, radius)) == repr(density_by_frames(frames, radius))

    def test_one_frame_without_predictions(self):
        gts = Frame(np.array([3]), np.array([[0.0, 0.0, 0.85, 0.6, 0.6, 1.7, 0.0]]))
        got = evaluate_sequence([gts], [Frame.empty()])
        assert_same_metrics(got, evaluate_by_frames([gts], [Frame.empty()], MatchConfig()))
        assert got.counts.fn == 1 and got.coverages == {3: 0.0}


def offset_frames(max_frames=6):
    """Frames for the offset targets: ids may repeat within a frame; centres may be huge."""
    centre = st.one_of(
        st.integers(-6, 6).map(float), st.floats(-10.0, 10.0), st.sampled_from([1.7e308, -1.7e308])
    )
    ids = st.one_of(
        st.lists(st.integers(0, 6), unique=True, max_size=6), st.lists(st.integers(0, 6), max_size=6)
    )

    def frame(draw_ids):
        return st.tuples(*[st.tuples(centre, centre, centre) for _ in draw_ids]).map(
            lambda xyz: Frame(
                np.array(draw_ids, dtype=np.int64),
                np.array([(*c, 0.6, 0.6, 1.7, 0.0) for c in xyz], dtype=float).reshape(-1, 7),
            )
        )

    return st.lists(ids.flatmap(frame), max_size=max_frames)


def bits(results):
    """The bytes of every array of per-frame results, a tuple of arrays or one array a frame."""
    return [tuple(np.asarray(a).tobytes() for a in (r if isinstance(r, tuple) else (r,))) for r in results]


def assert_same_results(kernel, oracle, frames):
    """kernel(frames) gives oracle's arrays, or raises its error for its first bad frame."""
    want, error = oracle(frames)
    if error is None:
        assert bits(kernel(frames)) == bits(want)
        return
    with pytest.raises(FrameError) as raised:
        kernel(frames)
    assert str(raised.value) == str(error)
    assert raised.value.frame == len(want)
    assert bits(kernel(frames[: len(want)])) == bits(want)


def box_rows(n, x):
    return np.array([[x, 0.0, 0.0, 0.6, 0.6, 1.7, 0.0]] * n).reshape(-1, 7)


class TestOffsets:
    @settings(max_examples=200, deadline=None)
    @given(frames=offset_frames())
    def test_motion_matches_the_per_frame_join(self, frames):
        assert_same_results(motion_offsets, motion_offsets_by_frames, frames)

    @settings(max_examples=200, deadline=None)
    @given(frames=offset_frames(), radius=st.sampled_from([0.5, 1.0, 3.0, 20.0]))
    def test_relationship_matches_the_per_frame_query(self, frames, radius):
        assert_same_results(
            lambda fs: relationship_offsets(fs, radius),
            lambda fs: relationship_offsets_by_frames(fs, radius),
            frames,
        )

    def test_the_first_bad_frame_names_the_error(self):
        def frame(ids, x):
            return Frame(np.array(ids, dtype=np.int64), box_rows(len(ids), x))

        far, back, repeat = frame([0], 1.7e308), frame([0], -1.7e308), frame([1, 1], 0.0)
        with pytest.raises(FrameError, match="motion offset must be finite") as raised:
            motion_offsets([far, back, repeat])
        assert raised.value.frame == 1
        with pytest.raises(FrameError, match="duplicate instance_id 1") as raised:
            motion_offsets([far, repeat, back])
        assert raised.value.frame == 1
        # A frame that both repeats an id and overflows names the repeat.
        both = Frame(np.array([0, 1, 1]), box_rows(3, -1.7e308))
        with pytest.raises(FrameError, match="duplicate instance_id 1") as raised:
            motion_offsets([far, both])
        assert raised.value.frame == 1

    def test_corrupt_raises_a_bad_gt_frame_at_its_turn(self):
        # Frame 0 draws and fails its noise check before frame 1's repeated id is reached.
        far = Frame(np.arange(20), box_rows(20, 1.7e308))
        repeat = Frame(np.array([1, 1]), box_rows(2, 0.0))
        overflow = "pos_sigma 1e[+]308 makes a detection centre overflow in frame 0"
        with pytest.raises(ValueError, match=overflow):
            corrupt([far, repeat], NoiseConfig(pos_sigma=1e308))
        with pytest.raises(FrameError, match="duplicate instance_id 1"):
            corrupt([far, repeat], NoiseConfig())


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def long_scene():
    """100 frames of 30 pedestrians, their detections as tracks, and the scene's timestamps."""
    frames, timestamps = gen_scene(
        SimConfig(n_pedestrians=30, n_frames=100, area=(-30.0, 30.0, -20.0, 20.0), seed=3)
    )
    dets = corrupt(frames, NoiseConfig(pos_sigma=0.1, p_miss=0.05, clutter_rate=1.0, seed=4))
    return frames, [Frame(d.ids, d.boxes) for d in dets], timestamps


class TestOneCallPerSequence:
    """A return to one kernel call per frame fails here."""

    def test_evaluate_sequence_clips_in_batches(self, long_scene, monkeypatch):
        gt_frames, pred_frames, _ = long_scene
        clips = counting(monkeypatch, crowdmot.evaluator, "bev_iou_pairs")
        queries = counting(monkeypatch, crowdmot.evaluator, "pairs_within")
        evaluate_sequence(gt_frames, pred_frames)
        pairs = sum(len(args[2]) for args in clips)
        assert pairs > crowdmot.evaluator._IOU_BATCH
        assert len(clips) <= math.ceil(pairs / crowdmot.evaluator._IOU_BATCH)
        assert len(queries) == 1

    def test_density_stats_makes_one_query(self, long_scene, monkeypatch):
        queries = counting(monkeypatch, crowdmot.evaluator, "pairs_within")
        density_stats(long_scene[0])
        assert len(queries) == 1

    def test_corrupt_makes_one_join(self, long_scene, monkeypatch):
        joins = counting(monkeypatch, crowdmot.simulator, "motion_offsets")
        queries = counting(monkeypatch, crowdmot.targets, "pairs_within")
        corrupt(long_scene[0], NoiseConfig(emit_rel=True))
        assert len(joins) == 1 and len(queries) == 1

    def test_targets_makes_one_join_and_one_query(self, long_scene, tmp_path, monkeypatch):
        frames, _, timestamps = long_scene
        write_scene_jsonl(tmp_path / "gt.jsonl", frames, timestamps)
        joins = counting(monkeypatch, crowdmot.cli, "motion_offsets")
        queries = counting(monkeypatch, crowdmot.targets, "pairs_within")
        # 60 x 40 cells a frame: below the work size of the worker pool.
        rc = main(["targets", "--gt", str(tmp_path / "gt.jsonl"), "--out", str(tmp_path / "out"),
                   "--grid", "1.0,1.0", "--extent=-30,30,-20,20"])
        assert rc == 0
        assert len(joins) == 1 and len(queries) == 1
