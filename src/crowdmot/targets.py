"""Ground-truth training targets for BEV pedestrian detection.

Builds center heatmaps, density-aware loss weights, inter-frame motion
offsets and nearest-neighbor relationship offsets from the geometry.Frame of
one frame's annotated objects, and evaluates the density-weighted focal loss
with its analytic gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import (DenseGrid2D, Frame, GridMismatchError, GridSpec, Stacked, cell_points, check_positive,
                       distinct, grid_cells, pairs_within)

# Predicted probabilities are clamped into [EPS, 1-EPS] before the loss.
PROB_EPS = 1e-7

DEFAULT_NEIGHBOR_RADIUS = 3.0

# exp(-x) is exactly 0.0 in float64 for every x >= 746, so the heatmap kernel
# vanishes beyond sqrt(746) * sigma cells.
_EXP_UNDERFLOW = math.sqrt(746.0)


class FrameError(ValueError):
    """One frame of a sequence cannot give its targets; `frame` is its position in the sequence."""

    def __init__(self, message: str, frame: int):
        super().__init__(message)
        self.frame = frame

    def __reduce__(self):
        # ValueError's own reduce rebuilds from args alone, which lack `frame`.
        return type(self), (self.args[0], self.frame)


@dataclass(frozen=True)
class LossParams:
    """Focal-loss exponents and target-shaping parameters.

    alpha/gamma are the focal exponents; sigma is the Gaussian spread of the
    heatmap in cell units; th is the density-weight radius in meters;
    weight_floor is the minimum effective per-cell weight.
    """

    alpha: float = 2.0
    gamma: float = 4.0
    weight_floor: float = 1.0
    sigma: float = 1.0
    th: float = 2.0

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.gamma < 0 or self.weight_floor < 0:
            raise ValueError("alpha, gamma and weight_floor must be non-negative")
        check_positive("sigma", self.sigma)
        check_positive("th", self.th)


def _first_repeat(ids: np.ndarray, number: np.ndarray, order: np.ndarray) -> Optional[FrameError]:
    """The error naming the smallest repeated id of the first frame that repeats an instance id.

    ids and number hold each row's id and frame number, and order sorts the
    rows by (id, frame number). None when no frame repeats an id.
    """
    ids, number = ids[order], number[order]
    at = np.flatnonzero((ids[1:] == ids[:-1]) & (number[1:] == number[:-1]))
    if not len(at):
        return None
    first = at[np.lexsort((ids[at], number[at]))[0]]
    return FrameError(f"duplicate instance_id {ids[first].item()!r} in frame", int(number[first]))


def make_heatmap(
    frame: Frame,
    grid: GridSpec,
    sigma: float = 1.0,
    combine: str = "max",
) -> DenseGrid2D:
    """Render the ground-truth center heatmap for one frame.

    Each object contributes exp(-((j-j*)^2 + (k-k*)^2) / sigma^2) around its
    quantized cell (j*, k*), with sigma measured in cells. Contributions are
    combined per cell with `max` (default; centers are exactly 1 and values
    stay in [0, 1]) or `sum` (the literal additive form, which can exceed 1
    where objects are adjacent).

    The kernel is exactly 0.0 once the exponent passes 746, so each object is
    stamped only on the cells within ceil(sqrt(746) * sigma) + 1 of its own;
    the cells beyond would add 0.0, which neither combine rule can notice.

    sigma must be finite, positive and large enough that 1/sigma^2 is finite
    (above about 7.46e-155); a smaller one raises ValueError.
    """
    if combine not in ("max", "sum"):
        raise ValueError(f"combine must be 'max' or 'sum', got {combine!r}")
    check_positive("sigma", sigma)
    # A smaller sigma would make the stamp centre exp(-0 * inf), which is NaN,
    # or divide by zero.
    if not (sigma * sigma > 0.0 and math.isfinite(1.0 / (sigma * sigma))):
        raise ValueError(
            f"sigma must be above about 7.46e-155 (1/sigma^2 finite), got {sigma!r}"
        )
    heat = np.zeros((grid.nx, grid.ny))
    if not len(frame):
        return DenseGrid2D(grid, heat)
    # The stamp holds the kernel at every offset an object can reach on this
    # grid; the reach is capped at the grid size first, so a huge sigma cannot
    # overflow the ceil.
    reach = math.ceil(min(_EXP_UNDERFLOW * sigma, max(grid.nx, grid.ny))) + 1
    rj, rk = min(reach, grid.nx - 1), min(reach, grid.ny - 1)
    dj = np.arange(-rj, rj + 1, dtype=np.float64)[:, None]
    dk = np.arange(-rk, rk + 1, dtype=np.float64)[None, :]
    # Near the sigma floor the exponents of far cells overflow to -inf, and
    # exp takes them to 0.0, the kernel's value there.
    with np.errstate(over="ignore"):
        stamp = np.exp(-(dj**2 + dk**2) * (1.0 / (sigma * sigma)))
    for j_star, k_star in grid_cells(frame.boxes[:, :2], grid).tolist():
        j0, j1 = max(j_star - rj, 0), min(j_star + rj + 1, grid.nx)
        k0, k1 = max(k_star - rk, 0), min(k_star + rk + 1, grid.ny)
        window = heat[j0:j1, k0:k1]
        kernel = stamp[j0 - j_star + rj : j1 - j_star + rj, k0 - k_star + rk : k1 - k_star + rk]
        if combine == "max":
            np.maximum(window, kernel, out=window)
        else:
            window += kernel
    return DenseGrid2D(grid, heat)


def make_daw(
    frame: Frame,
    grid: GridSpec,
    th: float = 2.0,
    midpoint: bool = False,
) -> DenseGrid2D:
    """Density-aware spatial weights: per cell, the number of objects nearby.

    w[j, k] counts objects whose BEV distance from the cell point
    (x_min + j*dx, y_min + k*dy) is strictly below th meters. The cell point
    is the origin corner by default, the cell midpoint with midpoint=True.

    Cell points more than ceil(th/dx) + 1 columns or ceil(th/dy) + 1 rows
    from an object's cell lie more than half a cell beyond th from it, so
    each object is tested only on that window.
    """
    check_positive("th", th)
    weights = np.zeros((grid.nx, grid.ny))
    if not len(frame):
        return DenseGrid2D(grid, weights)
    gx, gy = cell_points(np.arange(grid.nx), np.arange(grid.ny), grid, midpoint)
    th2 = th * th
    # Capped at the grid size, so a huge th cannot overflow the ceil.
    rj = math.ceil(min(th / grid.dx, grid.nx)) + 1
    rk = math.ceil(min(th / grid.dy, grid.ny)) + 1
    # Also validates that every object is on the grid, like the heatmap path.
    cells = grid_cells(frame.boxes[:, :2], grid)
    for (x, y), (j, k) in zip(frame.boxes[:, :2].tolist(), cells.tolist()):
        sj, sk = slice(max(j - rj, 0), j + rj + 1), slice(max(k - rk, 0), k + rk + 1)
        d2 = (gx[sj, None] - x) ** 2 + (gy[None, sk] - y) ** 2
        weights[sj, sk] += d2 < th2
    return DenseGrid2D(grid, weights)


def focal_daw_loss(
    pred: DenseGrid2D,
    gt: DenseGrid2D,
    weights: DenseGrid2D,
    params: LossParams = LossParams(),
) -> tuple[float, DenseGrid2D]:
    """Density-weighted focal loss and its per-cell gradient.

    At cells where the target heatmap is exactly 1 the penalty is
    -w * (1-p)^alpha * log(p); elsewhere it is
    -w * (1-c)^gamma * p^alpha * log(1-p), with w = max(weight, weight_floor).
    The total is normalized by the number of target-1 cells (floor 1).
    Predictions are clamped to [1e-7, 1 - 1e-7] first; the gradient is the
    exact derivative of the normalized total with respect to the clamped
    prediction. With all weights equal to 1 this is the plain focal loss.
    """
    if not (pred.grid == gt.grid == weights.grid):
        raise GridMismatchError("pred, gt and weights must share one GridSpec")
    p = np.clip(pred.values, PROB_EPS, 1.0 - PROB_EPS)
    c = gt.values
    w = np.maximum(weights.values, params.weight_floor)
    pos = c == 1.0

    log_p = np.log(p)
    log_1p = np.log1p(-p)
    one_m_p = 1.0 - p
    alpha, gamma = params.alpha, params.gamma

    pos_term = -w * one_m_p**alpha * log_p
    neg_term = -w * (1.0 - c) ** gamma * p**alpha * log_1p
    terms = np.where(pos, pos_term, neg_term)

    pos_grad = w * (alpha * one_m_p ** (alpha - 1.0) * log_p - one_m_p**alpha / p)
    neg_grad = -w * (1.0 - c) ** gamma * (
        alpha * p ** (alpha - 1.0) * log_1p - p**alpha / one_m_p
    )
    grad = np.where(pos, pos_grad, neg_grad)

    norm = max(1, int(np.count_nonzero(pos)))
    loss = float(np.sum(terms) / norm)
    return loss, DenseGrid2D(pred.grid, grad / norm)


def motion_offsets(frames: Sequence[Frame]) -> list[tuple[np.ndarray, np.ndarray]]:
    """make_motion_offsets of every frame against the one before it, from one join.

    The first frame is taken against an empty frame, so all its objects are
    newborn. Every frame's rows are sorted together by (id, frame number),
    so an object's previous row, if any, sorts just before it. Raises the
    error of the first frame that repeats an id or whose offset overflows,
    as a frame-by-frame loop would, as a FrameError that holds its number.
    """
    stacked = Stacked([f.boxes for f in frames], np.zeros((0, 7)))
    ids = Stacked([f.ids for f in frames], np.zeros(0, dtype=np.int64)).rows
    boxes, number = stacked.rows, stacked.number
    order = np.lexsort((number, ids))
    repeat = _first_repeat(ids, number, order)
    follows = (ids[order[1:]] == ids[order[:-1]]) & (number[order[1:]] == number[order[:-1]] + 1)
    prev = np.full(len(ids), -1)
    prev[order[1:][follows]] = order[:-1][follows]
    newborn = prev < 0
    offset = np.zeros((len(ids), 3))
    with np.errstate(over="ignore"):
        offset[~newborn] = boxes[prev[~newborn], :3] - boxes[~newborn, :3]
    # Rows of frames after a repeat may be joined wrongly, but those frames
    # are never reached: the repeat is raised first.
    overflow = number[~np.isfinite(offset).all(axis=1)]
    if repeat is not None and repeat.frame <= overflow.min(initial=repeat.frame):
        raise repeat
    if len(overflow):
        raise FrameError(
            "motion offset must be finite: a centre moved beyond the float range", int(overflow.min())
        )
    return list(zip(stacked.split(offset), stacked.split(newborn)))


def make_motion_offsets(curr: Frame, prev: Frame) -> tuple[np.ndarray, np.ndarray]:
    """Per-object displacement from the current frame back to the previous one.

    Returns the (n, 3) offsets (previous centre minus current centre) and
    the (n,) newborn flags, row k for curr's object k. Objects absent from
    the previous frame get a zero offset flagged newborn, so downstream
    arrays stay aligned with the current frame. An offset that overflows
    raises ValueError. One frame of motion_offsets.
    """
    # A frame-by-frame loop has checked prev as the current frame already;
    # here curr's repeats are named before prev's.
    repeat = _first_repeat(curr.ids, np.zeros(len(curr), dtype=np.int64), np.argsort(curr.ids))
    if repeat is not None:
        raise repeat
    return motion_offsets([prev, curr])[1]


def relationship_offsets(
    frames: Sequence[Frame], radius: float = DEFAULT_NEIGHBOR_RADIUS
) -> list[np.ndarray]:
    """make_relationship_offsets of every frame, from one neighbour query over them all."""
    stacked = Stacked([f.boxes for f in frames], np.zeros((0, 7)))
    ids = Stacked([f.ids for f in frames], np.zeros(0, dtype=np.int64)).rows
    boxes, number = stacked.rows, stacked.number
    repeat = _first_repeat(ids, number, np.lexsort((number, ids)))
    if repeat is not None:
        raise repeat
    check_positive("radius", radius)
    xy = boxes[:, :2]
    i, j = pairs_within(xy, xy, radius, (number, number))
    d = xy[j] - xy[i]
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    near = (i != j) & (d2 <= radius * radius)
    i, j, d, d2 = i[near], j[near], d[near], d2[near]
    # Sorted by object, then by (d2, neighbour id): each object's first pair wins.
    order = np.lexsort((ids[j], d2, i))
    counts = distinct(i[order], return_counts=True)[1]
    first = order[np.cumsum(counts) - counts]
    rel = np.full((len(ids), 2), np.nan)
    rel[i[first]] = d[first]
    return stacked.split(rel)


def make_relationship_offsets(frame: Frame, radius: float = DEFAULT_NEIGHBOR_RADIUS) -> np.ndarray:
    """BEV vector from each object to its nearest neighbor within `radius`.

    Returns (n, 2) rows (rx, ry), row k for the frame's object k. The
    neighbor minimizes squared BEV distance; exact ties go to the smallest
    instance id. Objects with no neighbor in range get a NaN row (masked,
    not regressed to zero). One frame of relationship_offsets.
    """
    return relationship_offsets([frame], radius)[0]
