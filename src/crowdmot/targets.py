"""Ground-truth training targets for BEV pedestrian detection.

Builds center heatmaps, density-aware loss weights, inter-frame motion
offsets and nearest-neighbor relationship offsets from annotated objects,
and evaluates the density-weighted focal loss with its analytic gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from .geometry import GridSpec, check_positive, pairs_within, quantize_to_grid
from .records import GtObject, MotionOffset, RelationshipOffset

# Predicted probabilities are clamped into [EPS, 1-EPS] before the loss.
PROB_EPS = 1e-7

DEFAULT_NEIGHBOR_RADIUS = 3.0

# exp(-x) is exactly 0.0 in float64 for every x >= 746, so the heatmap kernel
# vanishes beyond sqrt(746) * sigma cells.
_EXP_UNDERFLOW = math.sqrt(746.0)


class GridMismatchError(ValueError):
    """Dense grids passed to one operation do not share a GridSpec."""


@dataclass(frozen=True, eq=False)
class DenseGrid2D:
    """A dense nx-by-ny array of values laid over a BEV grid.

    values[j, k] corresponds to cell (j, k) of the grid; j indexes x, k
    indexes y.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (self.grid.nx, self.grid.ny):
            raise GridMismatchError(
                f"values shape {arr.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        object.__setattr__(self, "values", arr)


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


def _check_unique_ids(objects: Iterable[GtObject]) -> None:
    seen = set()
    for obj in objects:
        if obj.instance_id in seen:
            raise ValueError(f"duplicate instance_id {obj.instance_id!r} in frame")
        seen.add(obj.instance_id)


def make_heatmap(
    objects: list[GtObject],
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
    if not objects:
        return DenseGrid2D(grid, heat)
    # The stamp holds the kernel at every offset an object can reach on this
    # grid; the reach is capped at the grid size first, so a huge sigma cannot
    # overflow the ceil.
    reach = math.ceil(min(_EXP_UNDERFLOW * sigma, max(grid.nx, grid.ny))) + 1
    rj, rk = min(reach, grid.nx - 1), min(reach, grid.ny - 1)
    dj = np.arange(-rj, rj + 1, dtype=np.float64)[:, None]
    dk = np.arange(-rk, rk + 1, dtype=np.float64)[None, :]
    stamp = np.exp(-(dj**2 + dk**2) * (1.0 / (sigma * sigma)))
    for obj in objects:
        j_star, k_star = quantize_to_grid(obj.box.cx, obj.box.cy, grid)
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
    objects: list[GtObject],
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
    if not objects:
        return DenseGrid2D(grid, weights)
    shift = 0.5 if midpoint else 0.0
    gx = grid.x_min + (np.arange(grid.nx) + shift) * grid.dx
    gy = grid.y_min + (np.arange(grid.ny) + shift) * grid.dy
    th2 = th * th
    # Capped at the grid size, so a huge th cannot overflow the ceil.
    rj = math.ceil(min(th / grid.dx, grid.nx)) + 1
    rk = math.ceil(min(th / grid.dy, grid.ny)) + 1
    for obj in objects:
        # Also validates the object is on the grid, like the heatmap path.
        j, k = quantize_to_grid(obj.box.cx, obj.box.cy, grid)
        sj, sk = slice(max(j - rj, 0), j + rj + 1), slice(max(k - rk, 0), k + rk + 1)
        d2 = (gx[sj, None] - obj.box.cx) ** 2 + (gy[None, sk] - obj.box.cy) ** 2
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


def make_motion_offsets(
    curr: list[GtObject], prev: list[GtObject]
) -> dict[Hashable, MotionOffset]:
    """Per-object displacement from the current frame back to the previous one.

    Objects absent from the previous frame get a zero offset flagged newborn,
    so downstream arrays stay aligned with the current frame.
    """
    _check_unique_ids(curr)
    _check_unique_ids(prev)
    prev_pos = {o.instance_id: o.box for o in prev}
    offsets: dict[Hashable, MotionOffset] = {}
    for obj in curr:
        before = prev_pos.get(obj.instance_id)
        if before is None:
            offsets[obj.instance_id] = MotionOffset(0.0, 0.0, 0.0, newborn=True)
        else:
            offsets[obj.instance_id] = MotionOffset(
                before.cx - obj.box.cx,
                before.cy - obj.box.cy,
                before.cz - obj.box.cz,
            )
    return offsets


def make_relationship_offsets(
    objects: list[GtObject], radius: float = DEFAULT_NEIGHBOR_RADIUS
) -> dict[Hashable, RelationshipOffset]:
    """BEV vector from each object to its nearest neighbor within `radius`.

    The neighbor minimizes squared BEV distance; exact ties go to the
    smallest instance_id. Objects with no neighbor in range get an undefined
    offset (masked, not regressed to zero).
    """
    _check_unique_ids(objects)
    check_positive("radius", radius)
    xy = [(o.box.cx, o.box.cy) for o in objects]
    near = [[] for _ in objects]
    for i, j in zip(*pairs_within(xy, xy, radius)):
        rx, ry = xy[j][0] - xy[i][0], xy[j][1] - xy[i][1]
        d2 = rx * rx + ry * ry
        if i != j and d2 <= radius * radius:
            near[i].append((d2, objects[j].instance_id, rx, ry))
    result = {o.instance_id: RelationshipOffset.undefined() for o in objects}
    for obj, found in zip(objects, near):
        if found:
            _, _, rx, ry = min(found)
            result[obj.instance_id] = RelationshipOffset(rx, ry, True)
    return result
