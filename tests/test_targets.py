"""Heatmap/weight targets, the weighted focal loss, and offset targets."""

import math

import numpy as np
import pytest

from oracles import GtObject, frame_of

from crowdmot.geometry import GridSpec, OutOfBoundsError, quantize_to_grid
from crowdmot.records import Box3D
from crowdmot.targets import (
    DenseGrid2D,
    GridMismatchError,
    LossParams,
    focal_daw_loss,
    make_daw,
    make_heatmap,
    make_motion_offsets,
    make_relationship_offsets,
)

GRID = GridSpec(-8.0, 8.0, -8.0, 8.0, 0.5, 0.5)


def ped(instance_id, x, y, z=0.85):
    return GtObject(
        instance_id=instance_id,
        box=Box3D(cx=x, cy=y, cz=z, length=0.6, height=1.7, width=0.6),
    )


def plain_focal_loss(pred, gt, alpha=2.0, gamma=4.0):
    """Unweighted focal loss oracle, written directly from the formula."""
    p = np.clip(pred, 1e-7, 1.0 - 1e-7)
    pos = gt == 1.0
    pos_term = -((1.0 - p) ** alpha) * np.log(p)
    neg_term = -((1.0 - gt) ** gamma) * p**alpha * np.log1p(-p)
    total = np.where(pos, pos_term, neg_term).sum()
    return float(total / max(1, int(pos.sum())))


class TestHeatmap:
    def test_empty_scene_is_zero(self):
        heat = make_heatmap(frame_of([]), GRID)
        assert not heat.values.any()

    def test_single_object_center_and_neighbors(self):
        sigma = 1.3
        heat = make_heatmap(frame_of([ped(0, 1.2, -0.7)]), GRID, sigma=sigma)
        j, k = 18, 14  # floor((1.2+8)/0.5), floor((-0.7+8)/0.5)
        assert heat.values[j, k] == 1.0
        for dj, dk in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert heat.values[j + dj, k + dk] == pytest.approx(
                math.exp(-1.0 / sigma**2), abs=1e-15
            )

    def test_two_objects_same_cell_equals_one_object(self):
        one = make_heatmap(frame_of([ped(0, 1.2, -0.7)]), GRID)
        two = make_heatmap(frame_of([ped(0, 1.2, -0.7), ped(1, 1.21, -0.69)]), GRID)
        np.testing.assert_array_equal(one.values, two.values)

    def test_sum_mode_exceeds_max_mode_for_adjacent_objects(self):
        objs = [ped(0, 0.0, 0.0), ped(1, 0.5, 0.0)]
        mx = make_heatmap(frame_of(objs), GRID, combine="max")
        sm = make_heatmap(frame_of(objs), GRID, combine="sum")
        assert sm.values.max() > 1.0
        assert mx.values.max() == 1.0
        assert (sm.values >= mx.values - 1e-15).all()

    def test_values_bounded_with_exact_peaks(self):
        rng = np.random.default_rng(0)
        objs = [ped(i, rng.uniform(-7, 7), rng.uniform(-7, 7)) for i in range(25)]
        heat = make_heatmap(frame_of(objs), GRID, sigma=2.0)
        assert heat.values.min() >= 0.0 and heat.values.max() == 1.0
        peak_cells = {
            (int((o.box.cx + 8) / 0.5), int((o.box.cy + 8) / 0.5)) for o in objs
        }
        assert int((heat.values == 1.0).sum()) == len(peak_cells)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-300, 7.458340731200206e-155])
    def test_sigma_whose_inverse_square_overflows_raises(self, sigma):
        # 1/sigma^2 would be inf (a NaN centre) or a division by zero.
        for objects in ([], [ped(0, 1.2, -0.7)]):
            with pytest.raises(ValueError, match="sigma"):
                make_heatmap(frame_of(objects), GRID, sigma=sigma)

    def test_object_outside_grid_raises(self):
        with pytest.raises(OutOfBoundsError):
            make_heatmap(frame_of([ped(0, 100.0, 0.0)]), GRID)


class TestDaw:
    def test_no_objects(self):
        assert not make_daw(frame_of([]), GRID).values.any()

    def test_two_coincident_objects_double_weight(self):
        daw = make_daw(frame_of([ped(0, 0.25, 0.25), ped(1, 0.25, 0.25)]), GRID, th=2.0)
        assert set(np.unique(daw.values)) == {0.0, 2.0}

    def test_distance_measured_from_cell_origin(self):
        # Object at a cell origin: that cell is at distance 0, and a cell
        # exactly th away along x must be excluded by the strict comparison.
        daw = make_daw(frame_of([ped(0, 0.0, 0.0)]), GRID, th=1.0)
        assert daw.values[16, 16] == 1.0  # origin (0.0, 0.0)
        assert daw.values[18, 16] == 0.0  # origin (1.0, 0.0), dist == th
        assert daw.values[17, 16] == 1.0  # origin (0.5, 0.0)

    def test_integer_valued(self):
        rng = np.random.default_rng(1)
        objs = [ped(i, rng.uniform(-7, 7), rng.uniform(-7, 7)) for i in range(12)]
        daw = make_daw(frame_of(objs), GRID)
        assert (daw.values == np.round(daw.values)).all()

    def test_monotone_in_objects(self):
        rng = np.random.default_rng(2)
        objs = [ped(i, rng.uniform(-7, 7), rng.uniform(-7, 7)) for i in range(10)]
        prev = make_daw(frame_of(objs[:5]), GRID).values
        full = make_daw(frame_of(objs), GRID).values
        assert (full >= prev).all()

    def test_weights_peak_where_objects_crowd(self):
        crowd = [ped(i, -4.0 + 0.4 * i, -4.0) for i in range(5)]
        loner = [ped(9, 5.0, 5.0)]
        daw = make_daw(frame_of(crowd + loner), GRID, th=2.0)
        crowd_peak = daw.values[: GRID.nx // 2, : GRID.ny // 2].max()
        loner_peak = daw.values[GRID.nx // 2 :, GRID.ny // 2 :].max()
        assert crowd_peak >= 4.0 > loner_peak == 1.0


def _edge_objects(grid, rng, n_random=6):
    """Objects on the first and last cell, on every grid corner, and inside."""
    x_last = np.nextafter(grid.x_max, -math.inf)
    y_last = np.nextafter(grid.y_max, -math.inf)
    points = [
        (grid.x_min, grid.y_min),
        (x_last, y_last),
        (grid.x_min, y_last),
        (x_last, grid.y_min),
        (grid.x_min, 0.5 * (grid.y_min + grid.y_max)),
        (0.5 * (grid.x_min + grid.x_max), y_last),
    ]
    points += [
        (rng.uniform(grid.x_min, grid.x_max), rng.uniform(grid.y_min, grid.y_max))
        for _ in range(n_random)
    ]
    return [ped(i, float(x), float(y)) for i, (x, y) in enumerate(points)]


class TestWindowedStencils:
    """The windowed stencils equal the full-grid expressions bit for bit."""

    HEAT_GRID = GridSpec(-50.0, 50.0, -40.0, 40.0, 0.5, 0.5)
    # dx != dy, and neither divides the radii below.
    DAW_GRID = GridSpec(-3.0, 4.5, -2.1, 2.1, 0.3, 0.7)

    @staticmethod
    def full_grid_heatmap(objects, grid, sigma, combine):
        heat = np.zeros((grid.nx, grid.ny))
        jj = np.arange(grid.nx, dtype=np.float64)[:, None]
        kk = np.arange(grid.ny, dtype=np.float64)[None, :]
        inv_s2 = 1.0 / (sigma * sigma)
        for obj in objects:
            j, k = quantize_to_grid(obj.box.cx, obj.box.cy, grid)
            # Near the sigma floor the exponent overflows to -inf, which exp takes to 0.0.
            with np.errstate(over="ignore"):
                kernel = np.exp(-((jj - j) ** 2 + (kk - k) ** 2) * inv_s2)
            heat = np.maximum(heat, kernel) if combine == "max" else heat + kernel
        return heat

    @staticmethod
    def full_grid_daw(objects, grid, th, midpoint):
        shift = 0.5 if midpoint else 0.0
        gx = grid.x_min + (np.arange(grid.nx) + shift) * grid.dx
        gy = grid.y_min + (np.arange(grid.ny) + shift) * grid.dy
        weights = np.zeros((grid.nx, grid.ny))
        for obj in objects:
            d2 = (gx[:, None] - obj.box.cx) ** 2 + (gy[None, :] - obj.box.cy) ** 2
            weights += d2 < th * th
        return weights

    @pytest.mark.parametrize("combine", ["max", "sum"])
    @pytest.mark.parametrize("sigma", [7.458340731200208e-155, 0.05, 0.3, 1.7, 40.0, 1e308])
    def test_heatmap_matches_full_grid(self, sigma, combine):
        grid = self.HEAT_GRID
        objs = _edge_objects(grid, np.random.default_rng(7))
        got = make_heatmap(frame_of(objs), grid, sigma=sigma, combine=combine).values
        want = self.full_grid_heatmap(objs, grid, sigma, combine)
        assert got.tobytes() == want.tobytes()

    def test_heatmap_window_larger_than_a_narrow_grid(self):
        grid = GridSpec(0.0, 0.5, -4.0, 4.0, 0.5, 0.5)  # a 1 x 16 grid
        objs = _edge_objects(grid, np.random.default_rng(8), n_random=2)
        for sigma in (0.3, 1.7, 40.0, 1e308):
            got = make_heatmap(frame_of(objs), grid, sigma=sigma, combine="sum").values
            want = self.full_grid_heatmap(objs, grid, sigma, "sum")
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("midpoint", [False, True])
    @pytest.mark.parametrize("th", [0.05, 0.3, 0.7, 1.15, 2.0, 9.0, 1e308])
    def test_daw_matches_full_grid(self, th, midpoint):
        grid = self.DAW_GRID
        objs = _edge_objects(grid, np.random.default_rng(9), n_random=20)
        got = make_daw(frame_of(objs), grid, th=th, midpoint=midpoint).values
        want = self.full_grid_daw(objs, grid, th, midpoint)
        assert got.tobytes() == want.tobytes()


class TestFocalDawLoss:
    def test_single_positive_cell_value(self):
        grid = GridSpec(0.0, 0.5, 0.0, 0.5, 0.5, 0.5)
        pred = DenseGrid2D(grid, np.array([[0.5]]))
        gt = DenseGrid2D(grid, np.array([[1.0]]))
        w = DenseGrid2D(grid, np.array([[1.0]]))
        loss, _ = focal_daw_loss(pred, gt, w)
        assert loss == pytest.approx(0.25 * math.log(2.0), abs=1e-15)

    def test_perfect_prediction_is_nearly_zero(self):
        objs = [ped(0, 0.0, 0.0)]
        gt = make_heatmap(frame_of(objs), GRID)
        pred = DenseGrid2D(GRID, np.where(gt.values == 1.0, 1.0, 0.0))
        w = make_daw(frame_of(objs), GRID)
        loss, _ = focal_daw_loss(pred, gt, w)
        assert 0.0 <= loss < 1e-10

    def test_reduces_to_plain_focal_loss_with_unit_weights(self):
        rng = np.random.default_rng(3)
        objs = [ped(i, rng.uniform(-7, 7), rng.uniform(-7, 7)) for i in range(8)]
        gt = make_heatmap(frame_of(objs), GRID)
        pred = DenseGrid2D(GRID, rng.uniform(0.02, 0.98, gt.values.shape))
        ones = DenseGrid2D(GRID, np.ones_like(gt.values))
        loss, _ = focal_daw_loss(pred, gt, ones, LossParams(weight_floor=1.0))
        assert loss == plain_focal_loss(pred.values, gt.values)

    def test_loss_linear_in_weights(self):
        rng = np.random.default_rng(4)
        objs = [ped(i, rng.uniform(-7, 7), rng.uniform(-7, 7)) for i in range(6)]
        gt = make_heatmap(frame_of(objs), GRID)
        pred = DenseGrid2D(GRID, rng.uniform(0.05, 0.95, gt.values.shape))
        w = make_daw(frame_of(objs), GRID)
        params = LossParams(weight_floor=0.0)
        loss1, grad1 = focal_daw_loss(pred, gt, w, params)
        loss2, grad2 = focal_daw_loss(pred, gt, DenseGrid2D(GRID, 2 * w.values), params)
        assert loss2 == pytest.approx(2 * loss1, rel=1e-12)
        np.testing.assert_allclose(grad2.values, 2 * grad1.values, rtol=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            objs = [ped(i, rng.uniform(-7, 7), rng.uniform(-7, 7)) for i in range(5)]
            gt = make_heatmap(frame_of(objs), GRID)
            pred = DenseGrid2D(GRID, rng.uniform(0.01, 0.99, gt.values.shape))
            loss, _ = focal_daw_loss(pred, gt, make_daw(frame_of(objs), GRID))
            assert loss >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        objs = [ped(i, rng.uniform(-7, 7), rng.uniform(-7, 7)) for i in range(6)]
        gt = make_heatmap(frame_of(objs), GRID)
        w = make_daw(frame_of(objs), GRID)
        pred_values = rng.uniform(0.05, 0.95, gt.values.shape)
        _, grad = focal_daw_loss(DenseGrid2D(GRID, pred_values), gt, w)
        cells = [tuple(c) for c in rng.integers(0, GRID.nx, size=(30, 2))]
        cells += [tuple(np.argwhere(gt.values == 1.0)[0])]
        for j, k in cells:
            up, down = pred_values.copy(), pred_values.copy()
            up[j, k] += h
            down[j, k] -= h
            lu, _ = focal_daw_loss(DenseGrid2D(GRID, up), gt, w)
            ld, _ = focal_daw_loss(DenseGrid2D(GRID, down), gt, w)
            fd = (lu - ld) / (2 * h)
            assert abs(fd - grad.values[j, k]) <= 1e-4 * max(abs(fd), abs(grad.values[j, k]))

    def test_grid_mismatch_raises(self):
        other = GridSpec(-8.0, 8.0, -8.0, 8.0, 1.0, 1.0)
        pred = DenseGrid2D(GRID, np.full((GRID.nx, GRID.ny), 0.5))
        gt = DenseGrid2D(GRID, np.zeros((GRID.nx, GRID.ny)))
        w = DenseGrid2D(other, np.ones((other.nx, other.ny)))
        with pytest.raises(GridMismatchError):
            focal_daw_loss(pred, gt, w)


class TestMotionOffsets:
    def test_stationary(self):
        curr = frame_of([ped(0, 1.0, 2.0)])
        prev = frame_of([ped(0, 1.0, 2.0)])
        offset, newborn = make_motion_offsets(curr, prev)
        assert offset.tolist() == [[0.0, 0.0, 0.0]] and newborn.tolist() == [False]

    def test_sign_convention(self):
        curr = frame_of([ped(0, 2.0, 0.0)])
        prev = frame_of([ped(0, 1.0, 0.0)])
        offset, newborn = make_motion_offsets(curr, prev)
        assert offset.tolist() == [[-1.0, 0.0, 0.0]]
        assert newborn.tolist() == [False]

    def test_newborn(self):
        offset, newborn = make_motion_offsets(frame_of([ped(7, 0.0, 0.0)]), frame_of([]))
        assert offset.tolist() == [[0.0, 0.0, 0.0]] and newborn.tolist() == [True]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make_motion_offsets(frame_of([ped(0, 0, 0), ped(0, 1, 1)]), frame_of([]))

    def test_rows_follow_the_current_frame(self):
        curr = frame_of([ped(5, 1.0, 0.0), ped(2, 0.0, 3.0), ped(9, 0.0, 0.0)])
        prev = frame_of([ped(2, 0.5, 3.0), ped(5, 0.0, 0.0)])
        offset, newborn = make_motion_offsets(curr, prev)
        assert offset.tolist() == [[-1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert newborn.tolist() == [False, False, True]

    def test_overflowing_offset_raises(self):
        curr, prev = frame_of([ped(0, 1e308, 0.0)]), frame_of([ped(0, -1e308, 0.0)])
        with pytest.raises(ValueError, match="motion offset must be finite"):
            make_motion_offsets(curr, prev)


def relationships(objects, radius=3.0):
    """make_relationship_offsets of GtObjects by id: (rx, ry), or None where undefined."""
    rel = make_relationship_offsets(frame_of(objects), radius)
    return {
        o.instance_id: None if math.isnan(rx) else (rx, ry)
        for o, (rx, ry) in zip(objects, rel.tolist())
    }


def brute_force_relationships(objects, radius=3.0):
    """Independent O(n^2) scan with the same tie rule (smallest id wins).

    Returns instance_id -> (neighbor id, rx, ry), or None when isolated.
    """
    out = {}
    for a in objects:
        best = None
        for b in objects:
            if b.instance_id == a.instance_id:
                continue
            d2 = (b.box.cx - a.box.cx) ** 2 + (b.box.cy - a.box.cy) ** 2
            key = (d2, b.instance_id)
            if best is None or key < best[0]:
                best = (key, b)
        if best is not None and best[0][0] <= radius * radius:
            b = best[1]
            out[a.instance_id] = (
                b.instance_id,
                b.box.cx - a.box.cx,
                b.box.cy - a.box.cy,
            )
        else:
            out[a.instance_id] = None
    return out


class TestRelationshipOffsets:
    def test_three_on_a_line(self):
        objs = [ped(0, 0.0, 0.0), ped(1, 1.0, 0.0), ped(2, 3.0, 0.0)]
        rel = relationships(objs)
        assert rel == {0: (1.0, 0.0), 1: (-1.0, 0.0), 2: (-2.0, 0.0)}

    def test_isolated_pedestrian_undefined(self):
        rel = relationships([ped(0, 0.0, 0.0), ped(1, 10.0, 0.0)])
        assert rel == {0: None, 1: None}
        rows = make_relationship_offsets(frame_of([ped(0, 0.0, 0.0), ped(1, 10.0, 0.0)]))
        assert np.isnan(rows).all()

    def test_gate_is_inclusive_at_radius(self):
        rel = relationships([ped(0, 0.0, 0.0), ped(1, 3.0, 0.0)])
        assert rel[0] == (3.0, 0.0)

    def test_tie_breaks_to_smallest_id(self):
        objs = [ped(5, 0.0, 0.0), ped(2, 1.0, 0.0), ped(9, -1.0, 0.0)]
        rel = relationships(objs)
        # ids 2 and 9 are equidistant from id 5; 2 wins.
        assert rel[5] == (1.0, 0.0)

    def test_matches_brute_force_on_random_scene(self):
        rng = np.random.default_rng(7)
        objs = [ped(i, rng.uniform(-10, 10), rng.uniform(-10, 10)) for i in range(20)]
        rel = relationships(objs)
        expect = brute_force_relationships(objs)
        for oid, truth in expect.items():
            if truth is None:
                assert rel[oid] is None
            else:
                assert rel[oid] == truth[1:]

    def test_mutual_nearest_antisymmetry(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(50):
            objs = [ped(i, rng.uniform(-6, 6), rng.uniform(-6, 6)) for i in range(12)]
            rel = relationships(objs)
            expect = brute_force_relationships(objs)
            for oid, truth in expect.items():
                if truth is None:
                    continue
                partner = expect[truth[0]]
                if partner is not None and partner[0] == oid:
                    (ax, ay), (bx, by) = rel[oid], rel[truth[0]]
                    assert (bx, by) == (-ax, -ay)
                    checked += 1
        assert checked > 100
