"""Synthetic crowded-pedestrian scenes and detector-noise corruption.

Scenes are generated by a parent-offspring cluster process whose parameters
are solved against a closed-form expected-neighbor-count model, so the
crowding level (mean neighbor count within 2 m) is controllable. Pedestrians
move with piecewise-constant velocities: cluster anchors wander the area and
members hold loosely around their anchor, which keeps the crowding level
roughly stationary over the sequence. Everything is deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import (DENSITY_RADIUS, Frame, Stacked, cell_side, check_finite_fields, distinct,
                       pairs_within, wrap_yaw)
from .targets import FrameError, motion_offsets, relationship_offsets

# Hard floor on pedestrian center separation, held in every frame.
MIN_SEPARATION = 0.3

# Nominal pedestrian box (length, width, height) with +-10% per-axis jitter.
BOX_PRIOR = (0.6, 0.6, 1.7)
BOX_JITTER = 0.1

# Cluster-solver knobs: preferred/maximal per-pair capture probability and
# the sigma search bracket for the bisection.
_Q_PREF = 0.75
_Q_MAX = 0.97
_SIGMA_LO = 0.18
_SIGMA_HI = 200.0

# Relative (member-to-anchor) motion: speed noise and hard cap, m/s.
_REL_SPEED_SIGMA = 0.05
_REL_SPEED_CAP = 0.3

# Pedestrians are kept this far inside the area; cluster anchors keep a
# larger margin so member spreads rarely clip the walls.
_WALL_INSET = 0.3


class InfeasibleSceneError(ValueError):
    """The requested density/area/count combination cannot be generated."""


@dataclass(frozen=True)
class SimConfig:
    """Scene-generation parameters. `area` is (x_min, x_max, y_min, y_max)."""

    n_pedestrians: int
    n_frames: int
    area: tuple[float, float, float, float] = (-96.0, 96.0, -48.0, 48.0)
    target_density2: float = 1.0
    speed_min: float = 0.5
    speed_max: float = 1.5
    frame_rate: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_finite_fields(self)
        x_min, x_max, y_min, y_max = self.area
        width, height = x_max - x_min, y_max - y_min
        if width <= 0 or height <= 0:
            raise ValueError(f"degenerate area {self.area}")
        if not math.isfinite(width * height):
            raise ValueError(f"area {self.area} is too large: width times height must be finite")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_pedestrians < 0 or self.n_frames <= 0:
            raise ValueError("n_pedestrians must be >= 0 and n_frames positive")
        if self.target_density2 < 0:
            raise ValueError("target_density2 must be non-negative")
        if not (0 < self.speed_min <= self.speed_max):
            raise ValueError("need 0 < speed_min <= speed_max")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        # Frame i is at i * (1 / frame_rate) seconds: the last time must be
        # finite, and so must 1 / frame_rate, since 0 * inf is NaN.
        if not math.isfinite((self.n_frames - 1) * (1.0 / self.frame_rate)):
            raise ValueError(
                f"frame_rate {self.frame_rate!r} is too small for {self.n_frames} frames: "
                "every frame time must be finite"
            )


@dataclass(frozen=True)
class NoiseConfig:
    """Detector-corruption parameters applied on top of a GT scene."""

    pos_sigma: float = 0.0
    offset_sigma: float = 0.0
    p_miss: float = 0.0
    clutter_rate: float = 0.0
    score_true_mean: float = 0.9
    score_true_sigma: float = 0.05
    score_clutter_mean: float = 0.3
    score_clutter_sigma: float = 0.1
    emit_rel: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        check_finite_fields(self)
        if not 0.0 <= self.p_miss <= 1.0:
            raise ValueError(f"p_miss {self.p_miss} outside [0, 1]")
        for name in ("pos_sigma", "offset_sigma", "clutter_rate", "score_true_sigma",
                     "score_clutter_sigma", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


def _capture_prob(sigma: float) -> float:
    """Probability that two members of one cluster are within DENSITY_RADIUS."""
    r2 = DENSITY_RADIUS * DENSITY_RADIUS
    return 1.0 - math.exp(-r2 / (4.0 * sigma * sigma))


def _density_model(sizes: list[int], area_m2: float) -> Callable[[float], float]:
    """Closed-form mean neighbor count within DENSITY_RADIUS, as a function of
    the cluster spread sigma, for clusters of `sizes`.

    Two members of one cluster are separated by a Gaussian with per-axis std
    sigma*sqrt(2), so each cluster mate is within the radius with probability
    _capture_prob(sigma); pedestrians from other clusters contribute like a
    uniform process. The terms that do not depend on sigma are summed once.
    """
    n = sum(sizes)
    pairs_per_member = sum(s * (s - 1) for s in sizes) / n
    mean_own = sum(s * s for s in sizes) / n
    r2 = DENSITY_RADIUS * DENSITY_RADIUS
    cross = (n - mean_own) * math.pi * r2 / area_m2
    return lambda sigma: pairs_per_member * _capture_prob(sigma) + cross


def solve_cluster_params(cfg: SimConfig) -> tuple[list[int], float]:
    """Choose cluster sizes and spread hitting cfg.target_density2.

    Picks the smallest cluster size whose per-pair capture probability stays
    below _Q_MAX, then bisects on the Gaussian spread until the closed-form
    expected neighbor count meets the target. Raises InfeasibleSceneError
    when no parameters can reach the target.
    """
    n = cfg.n_pedestrians
    x_min, x_max, y_min, y_max = cfg.area
    area_m2 = (x_max - x_min) * (y_max - y_min)
    if n * (2.0 * MIN_SEPARATION) ** 2 > 0.5 * area_m2:
        raise InfeasibleSceneError(
            f"{n} pedestrians with {MIN_SEPARATION} m separation cannot fit "
            f"a {area_m2:.6g} m^2 area"
        )
    csr = (n - 1) * math.pi * DENSITY_RADIUS**2 / area_m2 if n > 1 else 0.0
    target = cfg.target_density2
    if target < 0.9 * csr:
        raise InfeasibleSceneError(
            f"target_density2={target} is below the uniform-placement floor "
            f"{csr:.6g} for {n} pedestrians in {area_m2:.6g} m^2; "
            "enlarge the area or reduce n_pedestrians"
        )

    gap = target - csr
    if n <= 1 or gap <= 0.02:
        return [1] * n, _SIGMA_HI

    m = max(2, math.ceil(1.0 + gap / _Q_PREF))
    if gap / (m - 1) > _Q_MAX:
        m = math.ceil(1.0 + gap / _Q_MAX)
    if m > n:
        raise InfeasibleSceneError(
            f"target_density2={target} needs clusters of {m} pedestrians but "
            f"only n_pedestrians={n} are available"
        )

    n_clusters = math.ceil(n / m)
    sizes = [n // n_clusters] * n_clusters
    for i in range(n - sum(sizes)):
        sizes[i] += 1

    expected_density = _density_model(sizes, area_m2)
    lo, hi = _SIGMA_LO, _SIGMA_HI
    if expected_density(lo) < target:
        raise InfeasibleSceneError(
            f"target_density2={target} unreachable even at minimal cluster spread"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if expected_density(mid) >= target:
            lo = mid
        else:
            hi = mid
    return sizes, 0.5 * (lo + hi)


def _reflect(value: np.ndarray, vel: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Bounce (n, 2) coordinates off the [lo, hi] walls in place, flipping their velocities.

    Each coordinate is reflected up to four times, lo checked before hi, then
    clamped with Python's min/max rule: it is kept unless strictly outside.
    """
    for _ in range(4):
        below = value < lo
        above = ~below & (value > hi)
        out = below | above
        if not out.any():
            break
        for wall, side in ((lo, below), (hi, above)):
            rows, axes = np.nonzero(side)
            value[rows, axes] = 2.0 * wall[axes] - value[rows, axes]
        np.negative(vel, out=vel, where=out)
    np.copyto(value, lo, where=lo > value)
    np.copyto(value, hi, where=hi < value)


def _repair_separation(pos: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Push pedestrian pairs apart until every pair is >= MIN_SEPARATION.

    Each round pushes every close pair in ascending (a, b) order, using the
    offsets taken at the start of the round; 32 rounds push, the last checks.

    The first round queries every pedestrian. A pair's distance changes only
    when one of its rows moves, so each later round queries only the rows
    that the previous round's pushes or wall clip moved, and takes that
    round's close pairs as candidates too: near 1e300 a push can round to
    nothing and leave its pair as close as before.
    """
    gap = MIN_SEPARATION * 1.01
    n = len(pos)
    # Rows the first round's clip moves, pushed or not.
    outside = ((pos < lo) | (pos > hi)).any(axis=1)
    close = None
    for round_ in range(33):
        if close is None:
            i, j = pairs_within(pos, pos, MIN_SEPARATION)
        else:
            query = np.flatnonzero(moved)
            k, b = pairs_within(pos[query], pos, MIN_SEPARATION)
            a = query[k]
            # Pair keys a * n + b, sorted, without repeats.
            key = np.concatenate([np.minimum(a, b) * n + np.maximum(a, b), close])
            i, j = np.divmod(distinct(key), n)
        i, j = i[i < j], j[i < j]
        diff = pos[i] - pos[j]
        dist = np.sqrt((diff**2).sum(axis=1))
        bad = dist < MIN_SEPARATION
        if not bad.any():
            return pos
        if round_ == 32:
            raise InfeasibleSceneError(
                "could not maintain minimum pedestrian separation; "
                "the scene is too densely packed for the area"
            )
        d, delta = dist[bad], diff[bad]
        # Coincident pairs split along a fixed direction.
        coincident = d < 1e-12
        d[coincident] = 0.0
        direction = delta / np.where(coincident, 1.0, d)[:, None]
        direction[coincident] = (1.0, 0.0)
        step = direction * (0.5 * (gap - d))[:, None]
        # One in-order add over a, b, a, b, ... with +step, -step: each
        # coordinate sums its pushes in the same order as a loop over the pairs.
        rows = np.column_stack([i[bad], j[bad]]).ravel()
        close = i[bad] * n + j[bad]
        before = pos[rows]
        np.add.at(pos, rows, np.stack([step, -step], axis=1).reshape(-1, 2))
        np.clip(pos, lo, hi, out=pos)
        moved = outside
        moved[rows[(pos[rows] != before).any(axis=1)]] = True
        outside = np.zeros(n, dtype=bool)


# Kernel width (m) of the smooth neighbor count used by placement calibration.
_SOFT_W = 0.25


def _soft_kernel(d: np.ndarray) -> np.ndarray:
    z = (d - DENSITY_RADIUS) / _SOFT_W
    return 1.0 / (1.0 + np.exp(np.clip(z, -60.0, 60.0)))


def _soft_within_density(
    pos: np.ndarray, i: np.ndarray, j: np.ndarray, self_pair: np.ndarray
) -> float:
    """Smooth within-cluster neighbor count: a sigmoid ramp at the radius.

    Used only for placement calibration; the sharp count would park marginal
    pairs exactly on the radius, where any subsequent motion loses them.
    Cross-cluster pairs are excluded because anchor placement, not member
    spread, determines them: (i, j) are the within-cluster pairs in row-major
    order and self_pair marks i == j. Self-pairs are kept at infinite
    distance (their kernel is about 8.8e-27, not 0): the calibration
    bisection depends on the exact bits of this sum.
    """
    d2 = ((pos[i] - pos[j]) ** 2).sum(axis=1)
    d2[self_pair] = np.inf
    return float(_soft_kernel(np.sqrt(d2)).sum() / pos.shape[0])


def _soft_capture(sigma: float) -> float:
    """Model expectation of the smooth kernel for one within-cluster pair.

    The pair distance is Rayleigh with scale sigma*sqrt(2); integrated
    numerically against the kernel.
    """
    s2 = 2.0 * sigma * sigma
    upper = DENSITY_RADIUS + 12.0 * _SOFT_W + 8.0 * sigma
    d = np.linspace(1e-6, upper, 4096)
    pdf = d / s2 * np.exp(-(d * d) / (2.0 * s2))
    return float(np.trapezoid(_soft_kernel(d) * pdf, d))


def _calibrate_spread(
    anchors: np.ndarray,
    cluster_of: np.ndarray,
    offsets: np.ndarray,
    sizes: list[int],
    sigma_c: float,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Rescale member offsets until the placed layout matches the solver model.

    Separation thinning, wall truncation and mixed cluster sizes all pull the
    realized spread away from the solved Gaussian; a deterministic bisection
    on a radial scale factor pins the placed smooth neighbor count to its
    closed-form expectation, so the hard count inherits the solver accuracy.
    """
    n = sum(sizes)
    pairs_per_member = sum(s * (s - 1) for s in sizes) / n
    goal = pairs_per_member * _soft_capture(sigma_c)
    # The within-cluster pairs do not depend on the scale being bisected.
    i, j = np.nonzero(cluster_of[:, None] == cluster_of[None, :])
    self_pair = i == j

    def placed(beta: float) -> np.ndarray:
        pos = anchors[cluster_of] + beta * offsets
        np.clip(pos, lo, hi, out=pos)
        return _repair_separation(pos, lo, hi)

    def density(beta: float) -> float:
        try:
            return _soft_within_density(placed(beta), i, j, self_pair)
        except InfeasibleSceneError:
            return math.inf

    b_lo, b_hi = 0.5, 2.5
    if density(b_lo) < goal:
        return placed(b_lo)
    if density(b_hi) > goal:
        return placed(b_hi)
    for _ in range(24):
        mid = 0.5 * (b_lo + b_hi)
        if density(mid) >= goal:
            b_lo = mid
        else:
            b_hi = mid
    return placed(0.5 * (b_lo + b_hi))


class _CellIndex:
    """Placed points binned into square cells, for the separation test of a candidate.

    A point closer than MIN_SEPARATION to a candidate lies in the candidate's
    cell or one of the eight around it, so too_close tests those cells' points
    alone, with the same np.hypot rule as a scan over every placed point. The
    cell side is geometry.cell_side's, for `scale` the largest coordinate
    magnitude that will be added or asked. `points` is the caller's (n, 2)
    array, filled in before each index is added.
    """

    def __init__(self, points: np.ndarray, scale: float) -> None:
        self.points = points
        self.side = cell_side(MIN_SEPARATION, scale)
        self.cells: dict[tuple[int, int], list[int]] = {}

    def _cell(self, x: float, y: float) -> tuple[int, int]:
        return math.floor(x / self.side), math.floor(y / self.side)

    def add(self, k: int) -> None:
        x, y = self.points[k].tolist()
        self.cells.setdefault(self._cell(x, y), []).append(k)

    def too_close(self, cand: np.ndarray) -> bool:
        """Whether any added point has np.hypot distance below MIN_SEPARATION."""
        cx, cy = self._cell(*cand.tolist())
        near = [
            k
            for gx in (cx - 1, cx, cx + 1)
            for gy in (cy - 1, cy, cy + 1)
            for k in self.cells.get((gx, gy), ())
        ]
        return bool(near) and np.hypot(*(self.points[near] - cand).T).min() < MIN_SEPARATION


def gen_scene(cfg: SimConfig) -> tuple[list[Frame], list[float]]:
    """Generate a ground-truth pedestrian sequence: per frame, the Frame of
    pedestrians 0, 1, ... in id order, and the frame timestamps.

    A box's yaw is its heading, math.atan2 of its velocity, wrapped by
    wrap_yaw.
    """
    x_min, x_max, y_min, y_max = cfg.area
    dt = 1.0 / cfg.frame_rate
    timestamps = [i * dt for i in range(cfg.n_frames)]
    if cfg.n_pedestrians == 0:
        return [Frame.empty() for _ in range(cfg.n_frames)], timestamps

    sizes, sigma_c = solve_cluster_params(cfg)
    rng = np.random.default_rng([cfg.seed, 0xC0FFEE])

    lo = np.array([x_min + _WALL_INSET, y_min + _WALL_INSET])
    hi = np.array([x_max - _WALL_INSET, y_max - _WALL_INSET])
    uniform_mode = sigma_c >= 0.5 * _SIGMA_HI
    if uniform_mode:
        margin = 2.0 * _WALL_INSET
        for axis, low, high in (("x", x_min, x_max), ("y", y_min, y_max)):
            if low + margin > high - margin:
                raise InfeasibleSceneError(
                    f"area {axis}_min..{axis}_max = {low!r}..{high!r} spans {high - low:.6g} m; "
                    f"uniform placement keeps {margin} m margins inside both walls, "
                    f"so the span must be at least {2.0 * margin} m"
                )
    else:
        margin = min(min(2.0 * sigma_c + 0.5, 0.25 * (x_max - x_min)), 0.25 * (y_max - y_min))
    anchor_lo = np.array([x_min + margin, y_min + margin])
    anchor_hi = np.array([x_max - margin, y_max - margin])

    # Placement: uniform cluster anchors, Gaussian member offsets, rejection
    # against the separation floor and the walls. When the solver asked for
    # no clustering, members sit on their own uniformly drawn anchors.
    anchors = rng.uniform(anchor_lo, anchor_hi, size=(len(sizes), 2))
    positions = np.zeros((cfg.n_pedestrians, 2))
    homes = np.zeros_like(positions)
    cluster_of = np.repeat(np.arange(len(sizes)), sizes)
    # Only candidates inside [lo, hi] reach the index.
    index = _CellIndex(positions, float(np.abs(np.concatenate([lo, hi])).max()))
    (lo_x, lo_y), (hi_x, hi_y) = lo.tolist(), hi.tolist()
    placed = 0
    for ci, size in enumerate(sizes):
        for _ in range(size):
            for _ in range(2000):
                if uniform_mode:
                    anchors[ci] = rng.uniform(anchor_lo, anchor_hi)
                    offset = np.zeros(2)
                else:
                    offset = rng.normal(0.0, sigma_c, 2)
                cand = anchors[ci] + offset
                x, y = cand.tolist()
                if not (lo_x <= x <= hi_x and lo_y <= y <= hi_y):
                    continue
                if index.too_close(cand):
                    continue
                break
            else:
                raise InfeasibleSceneError(
                    f"could not place pedestrian {placed} with "
                    f"{MIN_SEPARATION} m separation (cluster spread {sigma_c:.2f} m)"
                )
            positions[placed] = cand
            homes[placed] = offset
            index.add(placed)
            placed += 1

    if not uniform_mode and cfg.n_pedestrians > 1:
        positions = _calibrate_spread(anchors, cluster_of, homes, sizes, sigma_c, lo, hi)
        homes = positions - anchors[cluster_of]

    sizes_lwh = np.stack(
        [
            prior * rng.uniform(1.0 - BOX_JITTER, 1.0 + BOX_JITTER, cfg.n_pedestrians)
            for prior in BOX_PRIOR
        ],
        axis=1,
    )
    # Per pedestrian the box columns cz, l, w, h: fixed over the sequence.
    shape = np.column_stack([sizes_lwh[:, 2] / 2.0, sizes_lwh])
    ids = np.arange(cfg.n_pedestrians, dtype=np.int64)

    # Motion state: per-cluster anchor velocity, per-member relative velocity,
    # each piecewise constant with its own resample clock (2-5 s segments).
    # Only the due clocks draw, in ascending index order.
    anchor_vel = np.zeros((len(sizes), 2))
    anchor_heading = rng.uniform(-math.pi, math.pi, len(sizes))
    anchor_clock = np.zeros(len(sizes))
    rel = positions - anchors[cluster_of]
    rel_vel = np.zeros((cfg.n_pedestrians, 2))
    member_clock = np.zeros(cfg.n_pedestrians)

    frames: list[Frame] = []
    for fi in range(cfg.n_frames):
        for ci in np.flatnonzero(anchor_clock <= 0.0).tolist():
            anchor_clock[ci] = rng.uniform(2.0, 5.0)
            heading = float(anchor_heading[ci])
            if fi > 0:
                heading = anchor_heading[ci] = float(wrap_yaw(heading + rng.uniform(-1.2, 1.2)))
            speed = rng.uniform(cfg.speed_min, cfg.speed_max)
            anchor_vel[ci] = (speed * math.cos(heading), speed * math.sin(heading))
        due = np.flatnonzero(member_clock <= 0.0)
        if due.size:
            clocks = np.empty(due.size)
            kicks = np.empty((due.size, 2))
            for k in range(due.size):
                clocks[k] = rng.uniform(2.0, 5.0)
                kicks[k] = rng.normal(0.0, _REL_SPEED_SIGMA, 2)
            member_clock[due] = clocks
            vel = (homes[due] - rel[due]) / clocks[:, None] + kicks
            speed = np.hypot(vel[:, 0], vel[:, 1])
            fast = speed > _REL_SPEED_CAP
            vel[fast] *= (_REL_SPEED_CAP / speed[fast])[:, None]
            rel_vel[due] = vel

        if fi > 0:
            anchors += anchor_vel * dt
            _reflect(anchors, anchor_vel, anchor_lo, anchor_hi)
            rel += rel_vel * dt
            positions = anchors[cluster_of] + rel
            np.clip(positions, lo, hi, out=positions)
            positions = _repair_separation(positions, lo, hi)
            rel = positions - anchors[cluster_of]

        anchor_clock -= dt
        member_clock -= dt

        vel = anchor_vel[cluster_of] + rel_vel
        heading = np.array(list(map(math.atan2, vel[:, 1].tolist(), vel[:, 0].tolist())))
        frames.append(Frame(ids, np.column_stack([positions, shape, wrap_yaw(heading)])))

    return frames, timestamps


def _clip_score(score: np.ndarray) -> np.ndarray:
    """min(1.0, max(0.0, s)) of every entry s: unlike np.clip, -0.0 gives 0.0."""
    score = np.where(score > 0.0, score, 0.0)
    return np.where(score < 1.0, score, 1.0)


def corrupt(frames: list[Frame], noise: NoiseConfig) -> list[Frame]:
    """Turn GT frames into noisy detection frames.

    Boxes are jittered, dropped, and mixed with uniform clutter; each kept
    detection carries its true inter-frame displacement plus offset noise
    as the predicted motion offset. A detection's id is its index in its
    frame: the kept objects in GT id order, then the clutter. With all-zero
    noise the detections are the GT boxes with exact offsets. Noise that
    carries a box centre or an offset beyond the float range raises
    ValueError naming pos_sigma or offset_sigma.
    """
    rng = np.random.default_rng([noise.seed, 0xD1CE])
    # Clutter is spawned over the bounding extent of the scene, padded a little.
    xy = Stacked([f.boxes[:, :2] for f in frames], np.zeros((0, 2))).rows
    if len(xy):
        cl_lo, cl_hi = (xy.min(axis=0) - 2.0).tolist(), (xy.max(axis=0) + 2.0).tolist()
    else:
        cl_lo, cl_hi = (-10.0, -10.0), (10.0, 10.0)

    orders = [np.argsort(f.ids, kind="stable") for f in frames]
    gts = [Frame(f.ids[order], f.boxes[order]) for f, order in zip(frames, orders)]
    try:
        motion, failure = motion_offsets(gts), None
    except FrameError as exc:
        # Raised at the bad frame's turn, after the frames before it have
        # drawn and passed their own checks, as a frame-by-frame loop would.
        motion, failure = motion_offsets(gts[: exc.frame]), exc
    rels = relationship_offsets(gts[: len(motion)]) if noise.emit_rel else None
    out: list[Frame] = []
    for fi, gt in enumerate(gts):
        if fi == len(motion):
            raise failure
        true_offset, newborn = motion[fi]
        # Per object, whether or not it is missed: one uniform, then three
        # normals of jitter, three of offset noise and one of score. One
        # call of seven draws the same variates as calls of 3, 3 and 1.
        miss_u = np.empty(len(gt))
        normals = np.empty((len(gt), 7))
        for k in range(len(gt)):
            miss_u[k] = rng.uniform()
            normals[k] = rng.standard_normal(7)
        kept = miss_u >= noise.p_miss
        n_kept = int(kept.sum())
        n_clutter = int(rng.poisson(noise.clutter_rate))
        rows = []
        for _ in range(n_clutter):
            cx = rng.uniform(cl_lo[0], cl_hi[0])
            cy = rng.uniform(cl_lo[1], cl_hi[1])
            length, width, height = [
                p * rng.uniform(1.0 - BOX_JITTER, 1.0 + BOX_JITTER) for p in BOX_PRIOR
            ]
            yaw = rng.uniform(-math.pi, math.pi)
            # Three normals of offset noise and one of score, as for objects.
            rows.append((cx, cy, height / 2.0, length, width, height, yaw,
                         *rng.standard_normal(4).tolist()))
        # Per clutter box: its seven box columns, three offset normals, one score normal.
        clutter = np.array(rows).reshape(-1, 11)

        with np.errstate(over="ignore"):
            boxes = np.concatenate([gt.boxes[kept], clutter[:, :7]])
            boxes[:n_kept, :3] += normals[kept, :3] * noise.pos_sigma
            offset = np.concatenate([
                true_offset[kept] + normals[kept, 3:6] * noise.offset_sigma,
                clutter[:, 7:10] * noise.offset_sigma,
            ])
            score = np.concatenate([
                noise.score_true_mean + normals[kept, 6] * noise.score_true_sigma,
                noise.score_clutter_mean + clutter[:, 10] * noise.score_clutter_sigma,
            ])
        if not np.isfinite(boxes).all():
            raise ValueError(
                f"pos_sigma {noise.pos_sigma!r} makes a detection centre overflow in frame {fi}"
            )
        if not np.isfinite(offset).all():
            raise ValueError(
                f"offset_sigma {noise.offset_sigma!r} makes a motion offset overflow in frame {fi}"
            )
        boxes[:, 6] = wrap_yaw(boxes[:, 6])
        rel = np.full((len(boxes), 2), np.nan)
        if noise.emit_rel:
            rel[:n_kept] = rels[fi][kept]
        out.append(Frame(
            ids=np.arange(len(boxes), dtype=np.int64),
            boxes=boxes,
            score=_clip_score(score),
            offset=offset,
            newborn=np.concatenate([newborn[kept], np.ones(n_clutter, dtype=bool)]),
            rel=rel,
            has_rel=np.full(len(boxes), noise.emit_rel),
        ))
    return out


def density_sweep(
    base: SimConfig, densities: list[float]
) -> list[tuple[list[Frame], list[float]]]:
    """One gen_scene result per density target, with per-target seeds derived from base."""
    scenes = []
    for i, density in enumerate(densities):
        seed = int(np.random.SeedSequence([base.seed, i]).generate_state(1)[0])
        scenes.append(gen_scene(replace(base, target_density2=density, seed=seed)))
    return scenes
