"""Tracking-by-detection with offset-compensated greedy association.

Each detection predicts its own displacement back to the previous frame;
association shifts the detection by that offset and matches it to the
nearest live track center. No motion model is run on the tracks themselves.
Detections come in, and tracks go out, as one geometry.Frame per frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import Frame, pairs_within


@dataclass(frozen=True)
class TrackerConfig:
    """Lifecycle and gating parameters (engineering defaults, all tunable)."""

    max_match_dist: float = 1.0
    max_age: int = 3
    birth_score_min: float = 0.3

    def __post_init__(self) -> None:
        # Scores lie in [0, 1], so a birth score above 1 would birth no track.
        ok = 0 < self.max_match_dist < math.inf and self.max_age > 0 and 0 < self.birth_score_min <= 1
        if not ok:
            raise ValueError(
                f"tracker values must be positive, max_match_dist finite, birth_score_min at most 1: {self}"
            )


@dataclass
class TrackerState:
    """Mutable per-sequence tracking state. Single writer, one sequence.

    live maps each live track id to its last matched (cx, cy) centre and
    frame; dead lists the retired track ids in retirement order.
    """

    live: dict[int, tuple[tuple[float, float], int]] = field(default_factory=dict)
    dead: list[int] = field(default_factory=list)
    next_id: int = 0
    frame: int = -1


def associate(
    dets: Frame,
    tracks: list[tuple[int, tuple[float, float]]],
    cfg: TrackerConfig,
) -> list[tuple[int, Optional[int]]]:
    """Greedily match a frame's detections to track centers.

    Detections are processed in descending score order (ties: lower index
    first). Each detection is shifted by its predicted offset to where it
    should have been in the previous frame and takes the nearest unclaimed
    track within max_match_dist (distance ties: lower track id). Returns one
    (detection index, track id or None) pair per detection, in input order.
    """
    shifted = dets.boxes[:, :2] + dets.offset[:, :2]
    near = [[] for _ in range(len(dets))]
    for i, j in zip(*pairs_within(shifted, [c for _, c in tracks], cfg.max_match_dist)):
        near[i].append(tracks[j])
    shifted = shifted.tolist()
    assigned: list[Optional[int]] = [None] * len(dets)
    claimed: set[int] = set()
    # A stable sort of the negated scores: descending score, ties by index.
    for i in np.argsort(-dets.score, kind="stable").tolist():
        px, py = shifted[i]
        free = [(math.hypot(cx - px, cy - py), t) for t, (cx, cy) in near[i] if t not in claimed]
        dist, tid = min(free, default=(math.inf, None))
        if dist <= cfg.max_match_dist:
            assigned[i] = tid
            claimed.add(tid)
    return list(enumerate(assigned))


def step(
    state: TrackerState,
    dets: Frame,
    cfg: TrackerConfig,
    frame: Optional[int] = None,
) -> Frame:
    """Advance the tracker by one frame, by default the one after the last.

    Matched detections extend their trajectories; unmatched ones above the
    birth score spawn new tracks; tracks unmatched for more than max_age
    frames are retired afterwards. Returns this frame's track outputs, the
    ids and scores of each output box, sorted by track id. Frames must
    arrive in increasing order.
    """
    if frame is None:
        frame = state.frame + 1
    if frame <= state.frame:
        raise ValueError(f"frame {frame} not after last processed frame {state.frame}")

    track_centers = [(tid, state.live[tid][0]) for tid in sorted(state.live)]
    centers = dets.boxes[:, :2].tolist()
    scores = dets.score.tolist()
    outputs = []
    for i, tid in associate(dets, track_centers, cfg):
        if tid is None:
            if scores[i] < cfg.birth_score_min:
                continue
            tid = state.next_id
            state.next_id += 1
        state.live[tid] = (tuple(centers[i]), frame)
        outputs.append((tid, i))

    for tid in [t for t, (_, last) in state.live.items() if frame - last > cfg.max_age]:
        del state.live[tid]
        state.dead.append(tid)

    state.frame = frame
    outputs.sort()
    ids = np.array([tid for tid, _ in outputs], dtype=np.int64)
    rows = np.array([i for _, i in outputs], dtype=np.intp)
    return Frame(ids, dets.boxes[rows], score=dets.score[rows])


def run_sequence(frames: list[Frame], cfg: TrackerConfig = TrackerConfig()) -> list[Frame]:
    """Track a whole sequence of per-frame detections.

    Frame i of the sequence is frame index i. Returns each frame's track
    outputs, as step returns them; a track id is never reused, so the ids
    of one id across frames form its trajectory. Deterministic in its inputs.
    """
    state = TrackerState()
    return [step(state, dets, cfg, frame=i) for i, dets in enumerate(frames)]
