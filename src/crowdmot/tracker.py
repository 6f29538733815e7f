"""Tracking-by-detection with offset-compensated greedy association.

Each detection predicts its own displacement back to the previous frame;
association shifts the detection by that offset and matches it to the
nearest live track center. No motion model is run on the tracks themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .geometry import pairs_within
from .records import Box3D, Detection, Trajectory


@dataclass(frozen=True)
class TrackerConfig:
    """Lifecycle and gating parameters (engineering defaults, all tunable)."""

    max_match_dist: float = 1.0
    max_age: int = 3
    birth_score_min: float = 0.3

    def __post_init__(self) -> None:
        ok = 0 < self.max_match_dist < math.inf and self.max_age > 0 and self.birth_score_min > 0
        if not ok:
            raise ValueError(f"tracker values must be positive, max_match_dist finite: {self}")


@dataclass
class TrackerState:
    """Mutable per-sequence tracking state. Single writer, one sequence."""

    live: dict[int, Trajectory] = field(default_factory=dict)
    dead: list[Trajectory] = field(default_factory=list)
    next_id: int = 0
    frame: int = -1


def associate(
    dets: list[Detection],
    tracks: list[tuple[int, tuple[float, float]]],
    cfg: TrackerConfig,
) -> list[tuple[int, Optional[int]]]:
    """Greedily match detections to track centers.

    Detections are processed in descending score order (ties: lower index
    first). Each detection is shifted by its predicted offset to where it
    should have been in the previous frame and takes the nearest unclaimed
    track within max_match_dist (distance ties: lower track id). Returns one
    (detection index, track id or None) pair per detection, in input order.
    """
    frames = {d.frame for d in dets}
    if len(frames) > 1:
        raise ValueError(f"detections span multiple frames: {sorted(frames)}")
    shifted = [(d.box.cx + d.offset.ox, d.box.cy + d.offset.oy) for d in dets]
    near = [[] for _ in dets]
    for i, j in zip(*pairs_within(shifted, [c for _, c in tracks], cfg.max_match_dist)):
        near[i].append(tracks[j])
    assigned: list[Optional[int]] = [None] * len(dets)
    claimed: set[int] = set()
    for i in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)):
        px, py = shifted[i]
        free = [(math.hypot(cx - px, cy - py), t) for t, (cx, cy) in near[i] if t not in claimed]
        dist, tid = min(free, default=(math.inf, None))
        if dist <= cfg.max_match_dist:
            assigned[i] = tid
            claimed.add(tid)
    return list(enumerate(assigned))


def step(
    state: TrackerState,
    dets: list[Detection],
    cfg: TrackerConfig,
    frame: Optional[int] = None,
) -> list[tuple[int, Box3D]]:
    """Advance the tracker by one frame.

    Matched detections extend their trajectories; unmatched ones above the
    birth score spawn new tracks; tracks unmatched for more than max_age
    frames are retired afterwards. Returns this frame's (track id, box)
    outputs sorted by track id. Frames must arrive in increasing order.
    """
    if frame is None:
        frame = dets[0].frame if dets else state.frame + 1
    if frame <= state.frame:
        raise ValueError(f"frame {frame} not after last processed frame {state.frame}")
    for det in dets:
        if det.frame != frame:
            raise ValueError(f"detection frame {det.frame} != step frame {frame}")

    track_centers = [(tid, state.live[tid].last_center) for tid in sorted(state.live)]
    outputs = []
    for i, tid in associate(dets, track_centers, cfg):
        det = dets[i]
        if tid is not None:
            traj = state.live[tid]
            traj.entries.append((frame, det.box, det.score))
            traj.last_matched_frame = frame
            outputs.append((tid, det.box))
        elif det.score >= cfg.birth_score_min:
            new_id = state.next_id
            state.next_id += 1
            state.live[new_id] = Trajectory(
                track_id=new_id,
                entries=[(frame, det.box, det.score)],
                last_matched_frame=frame,
            )
            outputs.append((new_id, det.box))

    for tid in [t for t in state.live if frame - state.live[t].last_matched_frame > cfg.max_age]:
        state.dead.append(state.live.pop(tid))

    state.frame = frame
    return sorted(outputs, key=lambda out: out[0])


def run_sequence(
    frames: list[list[Detection]], cfg: TrackerConfig = TrackerConfig()
) -> list[Trajectory]:
    """Track a whole sequence of per-frame detection lists.

    Frame i of the sequence is frame index i. Returns all trajectories,
    live and retired, sorted by track id. Deterministic in its inputs.
    """
    state = TrackerState()
    for i, dets in enumerate(frames):
        step(state, dets, cfg, frame=i)
    trajectories = list(state.live.values()) + state.dead
    return sorted(trajectories, key=lambda t: t.track_id)
