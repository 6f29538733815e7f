"""Grid quantization and rotated-IoU behavior, including a raster oracle."""

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import box_row, corners, footprint, normalize_yaw, quantize_scalar, quantize_voxels_by_axis
from scipy.spatial import cKDTree

from crowdmot.geometry import (
    BOX_FIELDS,
    GridSpec,
    OutOfBoundsError,
    bev_iou,
    bev_iou_pairs,
    cell_center,
    cell_points,
    distinct,
    footprints,
    grid_cells,
    pairs_within,
    quantize_to_grid,
    to_cells,
    valid_boxes,
    wrap_yaw,
)
from crowdmot.formats import read_scene_jsonl
from crowdmot.sparsegrid import VoxelSpec

GRID = GridSpec(-96.0, 96.0, -48.0, 48.0, 0.6, 0.6)


def raster_iou(a: tuple, b: tuple, cells: int = 1400) -> float:
    """Rasterized IoU oracle of two box rows: point-in-box tests on a fine regular pixel grid."""
    a, b = footprint(a), footprint(b)
    points = np.array(corners(a) + corners(b))
    lo, hi = points.min(axis=0), points.max(axis=0)
    xs = np.linspace(lo[0], hi[0], cells)
    ys = np.linspace(lo[1], hi[1], cells)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")

    def inside(rect: tuple) -> np.ndarray:
        cx, cy, length, width, yaw = rect
        c, s = math.cos(yaw), math.sin(yaw)
        dx, dy = gx - cx, gy - cy
        u = c * dx + s * dy
        v = -s * dx + c * dy
        return (np.abs(u) <= length / 2) & (np.abs(v) <= width / 2)

    in_a, in_b = inside(a), inside(b)
    union = (in_a | in_b).sum()
    return float((in_a & in_b).sum() / union) if union else 0.0


def scalar_iou(a: tuple, b: tuple) -> float:
    """Bit oracle: rotated IoU of two box rows' footprints by per-pair Sutherland-Hodgman clipping.

    The kernel must return these bits: the same canonical operand order,
    early zero beyond the half-diagonals, corners relative to the first
    box's centre, vertex order and 1e-12 area floor.
    """
    a, b = footprint(a), footprint(b)
    if a == b:
        return 1.0
    if b < a:
        a, b = b, a
    ra = 0.5 * math.hypot(a[2], a[3])
    rb = 0.5 * math.hypot(b[2], b[3])
    if math.hypot(a[0] - b[0], a[1] - b[1]) >= ra + rb:
        return 0.0
    # The pair is clipped with a's centre at the origin.
    output = corners((0.0, 0.0, *a[2:]))
    clip = corners((b[0] - a[0], b[1] - a[1], *b[2:]))
    for k in range(4):
        if not output:
            break
        ax, ay = clip[k]
        bx, by = clip[(k + 1) % 4]
        ex, ey = bx - ax, by - ay
        polygon, output = output, []
        prev = polygon[-1]
        prev_side = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for curr in polygon:
            curr_side = ex * (curr[1] - ay) - ey * (curr[0] - ax)
            if (curr_side >= 0.0) != (prev_side >= 0.0):
                t = prev_side / (prev_side - curr_side)
                output.append((prev[0] + t * (curr[0] - prev[0]), prev[1] + t * (curr[1] - prev[1])))
            if curr_side >= 0.0:
                output.append(curr)
            prev, prev_side = curr, curr_side
    if len(output) < 3:
        return 0.0
    area = 0.0
    for k, (x0, y0) in enumerate(output):
        x1, y1 = output[(k + 1) % len(output)]
        area += x0 * y1 - x1 * y0
    inter = abs(0.5 * area)
    if inter < 1e-12:
        return 0.0
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


class TestGridSpec:
    def test_cell_counts(self):
        assert (GRID.nx, GRID.ny) == (320, 160)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, 0.0, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, -0.1, 0.1)

    def test_rejects_non_divisible_extent(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.03, 0.0, 1.0, 0.1, 0.1)

    @pytest.mark.parametrize("field", ["x_min", "x_max", "y_min", "y_max", "dx", "dy"])
    def test_rejects_non_finite_naming_the_field(self, field):
        values = {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0, "dx": 0.5, "dy": 0.5}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
            GridSpec(**{**values, field: math.inf})

    @pytest.mark.parametrize(
        "values, message",
        [
            ((0.0, 2.0**63, 0.0, 1.0, 1.0, 1.0), "x extent holds 9.22337e+18 cells"),
            ((-60.0, 60.0, -40.0, 40.0, 0.5, 1e-300), "y extent holds 8e+301 cells"),
        ],
    )
    def test_rejects_a_cell_count_past_int64_naming_the_axis(self, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, more than an int64 cell index"):
            GridSpec(*values)

    def test_accepts_the_largest_int64_cell_count_a_float_extent_gives(self):
        assert GridSpec(0.0, 2.0**63 - 1024, 0.0, 1.0, 1.0, 1.0).shape == (2**63 - 1024, 1)


class TestQuantize:
    def test_lower_corner(self):
        assert quantize_to_grid(GRID.x_min, GRID.y_min, GRID) == (0, 0)

    def test_origin_cell(self):
        assert quantize_to_grid(0.0, 0.0, GRID) == (160, 80)

    def test_half_cell_stays_in_first_cell(self):
        j, k = quantize_to_grid(GRID.x_min + GRID.dx / 2, GRID.y_min, GRID)
        assert (j, k) == (0, 0)

    def test_out_of_range_raises(self):
        with pytest.raises(OutOfBoundsError):
            quantize_to_grid(GRID.x_max, 0.0, GRID)
        with pytest.raises(OutOfBoundsError):
            quantize_to_grid(0.0, GRID.y_min - 1e-9, GRID)

    def test_round_trip_error_below_cell_size(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = rng.uniform(GRID.x_min, GRID.x_max - 1e-9)
            y = rng.uniform(GRID.y_min, GRID.y_max - 1e-9)
            j, k = quantize_to_grid(x, y, GRID)
            cx, cy = cell_center(j, k, GRID)
            assert 0.0 <= x - cx < GRID.dx
            assert 0.0 <= y - cy < GRID.dy


def _edge_coordinates(low, high, step, count):
    """Coordinates on and around one axis of a grid: its extents, an ulp inside and
    outside them, cell boundaries, non-finite values and any float near the axis."""
    last = np.nextafter(high, -math.inf)
    return st.one_of(
        st.sampled_from([low, last, high, np.nextafter(low, -math.inf), np.nextafter(high, math.inf)]),
        st.integers(0, count).map(lambda j: low + j * step),
        st.sampled_from([math.inf, -math.inf, math.nan]),
        st.floats(low - 3.0 * step, high + 3.0 * step, allow_nan=False),
    )


@st.composite
def grids(draw):
    steps = st.sampled_from([0.075, 0.1, 0.2, 0.25, 0.5, 0.6, 1.0, 3.0])
    dx, dy = draw(steps), draw(steps)
    nx, ny = draw(st.integers(1, 400)), draw(st.integers(1, 400))
    x_min, y_min = draw(st.integers(-4000, 4000)) * 0.125, draw(st.integers(-4000, 4000)) * 0.125
    return GridSpec(x_min, x_min + nx * dx, y_min, y_min + ny * dy, dx, dy)


@st.composite
def grid_points(draw):
    grid = draw(grids())
    xs = _edge_coordinates(grid.x_min, grid.x_max, grid.dx, grid.nx)
    ys = _edge_coordinates(grid.y_min, grid.y_max, grid.dy, grid.ny)
    return grid, draw(st.lists(st.tuples(xs, ys), max_size=12))


class TestCellRule:
    """to_cells is the one cell rule; quantize_to_grid and grid_cells are its BEV calls."""

    @settings(max_examples=300, deadline=None)
    @given(grid_points())
    @example((GRID, [(GRID.x_min, GRID.y_min), (np.nextafter(GRID.x_max, 0.0), 0.0), (GRID.x_max, 0.0)]))
    def test_vector_mapping_matches_the_scalar_rule_point_by_point(self, case):
        grid, points = case
        inside, cells = to_cells(np.array(points, dtype=float).reshape(-1, 2), grid)
        expected, kept = [], []
        for x, y in points:
            try:
                expected.append(quantize_scalar(x, y, grid))
            except OutOfBoundsError as exc:
                with pytest.raises(OutOfBoundsError) as raised:
                    quantize_to_grid(x, y, grid)
                assert str(raised.value) == str(exc)
                kept.append(False)
            else:
                assert quantize_to_grid(x, y, grid) == expected[-1]
                kept.append(True)
        assert inside.tolist() == kept
        assert cells.tolist() == [list(cell) for cell in expected]
        assert cells.dtype == np.int64 and cells.shape == (len(expected), 2)

    @settings(max_examples=100, deadline=None)
    @given(grid_points())
    def test_grid_cells_names_the_first_point_off_the_grid(self, case):
        grid, points = case
        xy = np.array(points, dtype=float).reshape(-1, 2)
        outside = []
        for x, y in xy.tolist():
            try:
                quantize_scalar(x, y, grid)
            except OutOfBoundsError as exc:
                outside.append(str(exc))
        if outside:
            with pytest.raises(OutOfBoundsError) as raised:
                grid_cells(xy, grid)
            assert str(raised.value) == outside[0]
        else:
            assert grid_cells(xy, grid).tolist() == to_cells(xy, grid)[1].tolist()

    @settings(max_examples=200, deadline=None)
    @given(grids(), st.lists(st.tuples(st.integers(-2000, 2000), st.integers(-2000, 2000)), max_size=8))
    def test_integer_coordinates_keep_the_scalar_result_and_error_text(self, grid, points):
        for x, y in points:
            try:
                expected = quantize_scalar(x, y, grid)
            except OutOfBoundsError as exc:
                with pytest.raises(OutOfBoundsError) as raised:
                    quantize_to_grid(x, y, grid)
                assert str(raised.value) == str(exc)
            else:
                assert quantize_to_grid(x, y, grid) == expected

    def test_integer_error_text(self):
        with pytest.raises(OutOfBoundsError) as raised:
            quantize_to_grid(96, 0, GRID)
        assert str(raised.value) == "point (96, 0) outside grid extents [-96.0, 96.0) x [-48.0, 48.0)"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_voxels_keep_the_rows_and_cells_of_the_axis_by_axis_rule(self, data):
        spec = data.draw(st.sampled_from([VoxelSpec(), VoxelSpec(0.0, 3.0, -1.0, 1.0, 0.0, 0.6, 0.1, 0.25, 0.2)]))
        axes = [
            _edge_coordinates(low, high, step, count)
            for low, high, step, count in zip(
                (spec.x_min, spec.y_min, spec.z_min), (spec.x_max, spec.y_max, spec.z_max),
                (spec.dx, spec.dy, spec.dz), spec.shape,
            )
        ]
        xyz = data.draw(st.lists(st.tuples(*axes), max_size=30))
        points = np.column_stack([np.array(xyz).reshape(-1, 3), np.ones((len(xyz), 2))])
        kept, cells = quantize_voxels_by_axis(points, spec)
        inside, found = to_cells(points, spec)
        assert points[inside].tolist() == kept.tolist()
        assert found.tolist() == cells.tolist()


class TestCellCenter:
    def test_origin_convention(self):
        assert cell_center(0, 0, GRID) == (GRID.x_min, GRID.y_min)

    def test_inverse_of_quantize_example(self):
        x, y = cell_center(160, 80, GRID)
        assert abs(x) < 1e-12 and abs(y) < 1e-12

    def test_midpoint_variant(self):
        x, y = cell_center(0, 0, GRID, midpoint=True)
        assert x == pytest.approx(GRID.x_min + 0.3)
        assert y == pytest.approx(GRID.y_min + 0.3)

    def test_index_out_of_range(self):
        with pytest.raises(OutOfBoundsError):
            cell_center(GRID.nx, 0, GRID)

    @pytest.mark.parametrize("midpoint", [False, True])
    def test_every_cell_is_its_cell_points_entry(self, midpoint):
        xs, ys = cell_points(np.arange(GRID.nx), np.arange(GRID.ny), GRID, midpoint)
        for j, k in ((0, 0), (GRID.nx - 1, GRID.ny - 1), (7, 113), (200, 3)):
            assert cell_center(j, k, GRID, midpoint) == (xs[j], ys[k])


class TestYawNormalization:
    def test_wraps_into_range(self):
        for yaw in (-7.0, -math.pi, 0.0, 3.5, math.pi, 9.0):
            wrapped = float(wrap_yaw(yaw))
            assert -math.pi <= wrapped < math.pi
            assert math.isclose(
                math.fmod(wrapped - yaw, 2 * math.pi), 0.0, abs_tol=1e-9
            ) or math.isclose(abs(math.fmod(wrapped - yaw, 2 * math.pi)), 2 * math.pi, abs_tol=1e-9)

    @pytest.mark.parametrize("ints", [False, True], ids=["bulk", "object-by-object"])
    def test_boxes_are_wrapped_when_read(self, tmp_path, ints):
        # An int field sends the frame to the object-by-object decoder.
        objects = [{"id": k, "cx": 0 if ints else 0.0, "cy": 0.0, "cz": 0.0, "l": 1.0, "w": 1.0,
                    "h": 1.0, "yaw": yaw} for k, yaw in enumerate((math.pi, 4 * math.pi))]
        path = tmp_path / "gt.jsonl"
        path.write_text(json.dumps({"frame": 0, "timestamp": 0.0, "objects": objects}) + "\n")
        [frame], _ = read_scene_jsonl(path)
        assert frame.boxes[0, 6] == -math.pi
        assert frame.boxes[1, 6] == pytest.approx(0.0)


class TestBoxesRejectNonFinite:
    BOX = dict(zip(BOX_FIELDS, box_row(0.0, 0.0)))
    BAD = [(field, value) for field in BOX_FIELDS for value in (math.nan, math.inf, -math.inf)]
    BAD += [(field, value) for field in ("l", "w", "h") for value in (0.0, -0.0, -1.0)]

    def bad(self, field, value):
        return tuple({**self.BOX, field: value}.values())

    @pytest.mark.parametrize("field, value", BAD)
    def test_valid_boxes(self, field, value):
        good = tuple(self.BOX.values())
        assert valid_boxes(np.array([good, good])) and not valid_boxes(np.array([good, self.bad(field, value)]))

    @pytest.mark.parametrize("field, value", BAD)
    def test_bev_iou(self, field, value):
        with pytest.raises(ValueError, match="finite box fields with positive sides"):
            bev_iou(tuple(self.BOX.values()), self.bad(field, value))


class TestBevIou:
    def test_identical_boxes(self):
        box = _box(3.0, -2.0, 0.8, 0.5, 0.7)
        assert bev_iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert bev_iou(_box(0, 0, 1, 1, 0), _box(100, 0, 1, 1, 0)) == 0.0

    def test_half_offset_squares(self):
        a = _box(0.0, 0.0, 1.0, 1.0, 0.0)
        b = _box(0.5, 0.0, 1.0, 1.0, 0.0)
        assert bev_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = _random_box(rng)
            b = _random_box(rng)
            assert bev_iou(a, b) == bev_iou(b, a)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = _random_box(rng)
            b = _random_box(rng)
            angle = rng.uniform(-math.pi, math.pi)
            tx, ty = rng.uniform(-50, 50, 2)
            assert bev_iou(_rigid(a, angle, tx, ty), _rigid(b, angle, tx, ty)) == pytest.approx(
                bev_iou(a, b), abs=1e-9
            )

    def test_axis_aligned_matches_formula_and_raster(self):
        rng = np.random.default_rng(7)
        for i in range(200):
            a = _random_box(rng, yaw=0.0)
            b = _random_box(rng, yaw=0.0)
            (ax, ay, _, al, aw, _, _), (bx, by, _, bl, bw, _, _) = a, b
            ix = max(0.0, min(ax + al / 2, bx + bl / 2) - max(ax - al / 2, bx - bl / 2))
            iy = max(0.0, min(ay + aw / 2, by + bw / 2) - max(ay - aw / 2, by - bw / 2))
            inter = ix * iy
            expected = inter / (al * aw + bl * bw - inter) if inter > 0 else 0.0
            assert bev_iou(a, b) == pytest.approx(expected, abs=1e-12)
            if i < 10 and inter > 0:
                assert bev_iou(a, b) == pytest.approx(raster_iou(a, b), abs=1e-3)

    def test_rotated_against_raster_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            a = _random_box(rng)
            b = _box(
                a[0] + rng.uniform(-1.0, 1.0),
                a[1] + rng.uniform(-1.0, 1.0),
                rng.uniform(0.5, 2.0),
                rng.uniform(0.5, 2.0),
                rng.uniform(-math.pi, math.pi),
            )
            assert bev_iou(a, b) == pytest.approx(raster_iou(a, b), abs=2e-3)

    def test_degenerate_touching_edges(self):
        a = _box(0.0, 0.0, 1.0, 1.0, 0.0)
        b = _box(1.0, 0.0, 1.0, 1.0, 0.0)
        assert bev_iou(a, b) == 0.0


def _diamond(cx: float, side: float) -> tuple:
    """A square turned by 45 degrees: its corners lie on the x axis."""
    return _box(cx, 0.0, side, side, math.pi / 4)


class TestBevIouPairs:
    """The batched kernel returns the bits of the per-pair scalar oracle."""

    @staticmethod
    def assert_bits(a_boxes, b_boxes):
        k = np.arange(len(a_boxes))
        expected = np.array([scalar_iou(a, b) for a, b in zip(a_boxes, b_boxes)])
        a, b = footprints(np.array(a_boxes)), footprints(np.array(b_boxes))
        assert bev_iou_pairs(a, b, k, k).tobytes() == expected.tobytes()
        assert bev_iou_pairs(b, a, k, k).tobytes() == expected.tobytes()
        return expected

    def test_random_pairs(self):
        rng = np.random.default_rng(11)
        a = [_random_box(rng) for _ in range(3000)]
        b = [
            _box(box[0] + rng.normal(0, 1.0), box[1] + rng.normal(0, 1.0),
                   rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), rng.uniform(-4, 4))
            for box in a
        ]
        iou = self.assert_bits(a, b)
        assert np.count_nonzero(iou) > 1000

    def test_sizes_from_a_millimetre_to_a_kilometre(self):
        rng = np.random.default_rng(12)
        a, b = [], []
        for _ in range(1500):
            scale = 10.0 ** rng.uniform(-3, 3)
            centre = rng.uniform(-100, 100, 2)
            a.append(_box(*centre, *(scale * rng.uniform(0.3, 3.0, 2)), rng.uniform(-4, 4)))
            b.append(_box(*(centre + scale * rng.normal(0, 0.8, 2)),
                            *(scale * rng.uniform(0.3, 3.0, 2)), rng.uniform(-4, 4)))
        iou = self.assert_bits(a, b)
        assert np.count_nonzero(iou) > 500

    def test_special_pairs(self):
        square = _box(2.0, -1.0, 1.0, 1.0, 0.0)
        pairs = [
            (square, square),  # identical
            (square, _box(2.0, -1.0, 1.0, 1.0, 0.0)),  # equal, not the same object
            (square, _box(2.0, -1.0, 0.5, 2.0, 0.3)),  # coincident centres
            (square, _box(2.0, -1.0, 1.0, 1.0, math.pi / 2)),  # same footprint, other yaw
            (square, _box(3.0, -1.0, 1.0, 1.0, 0.0)),  # edges touch
            (square, _box(3.0, 0.0, 1.0, 1.0, 0.0)),  # corners touch
            (square, _box(2.5, -1.0, 1.0, 1.0, 0.0)),  # half offset
            (_box(0.0, 0.0, 2.0, 1.0, math.pi), _box(0.1, 0.0, 2.0, 1.0, -math.pi)),
            (_box(0.0, 0.0, 2.0, 1.0, math.nextafter(math.pi, 0.0)),
             _box(0.0, 0.1, 2.0, 1.0, -math.pi)),  # yaws at +-pi
            (square, _box(2.1, -0.9, 0.3, 0.2, 0.7)),  # nested
            (_box(2.1, -0.9, 0.3, 0.2, 0.7), square),  # nested, other order
            (_box(0.0, 0.0, 1e-3, 1e-3, 0.2), _box(2e-4, 0.0, 1e-3, 1e-3, -0.2)),
            (_box(0.0, 0.0, 1e3, 1e3, 0.2), _box(200.0, 0.0, 1e3, 1e3, -0.2)),
        ]
        iou = self.assert_bits([p[0] for p in pairs], [p[1] for p in pairs])
        assert iou[0] == iou[1] == iou[3] == 1.0
        assert iou[4] == iou[5] == 0.0
        assert 0.0 < iou[9] == iou[10] < 1.0

    def test_just_inside_and_outside_the_half_diagonals(self):
        # Two diamonds whose corners meet on the x axis at distance ra + rb.
        a, b = [], []
        for side in (0.5, 1.0, 3.0):
            reach = math.hypot(side, side)
            gap = reach
            for step in range(-3, 4):
                shifted = gap
                for _ in range(abs(step)):
                    shifted = math.nextafter(shifted, math.inf if step > 0 else 0.0)
                for overlap in (0.0, 1e-7, 1e-5):
                    a.append(_diamond(0.0, side))
                    b.append(_diamond(shifted - overlap, side))
        iou = self.assert_bits(a, b)
        assert iou.max() > 0.0

    def test_scalar_call_is_the_kernel(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b = _random_box(rng), _random_box(rng)
            assert bev_iou(a, b) == scalar_iou(a, b)

    def test_footprints_are_the_scalar_footprints(self):
        rng = np.random.default_rng(14)
        boxes = [
            (*rng.uniform(-2, 2, 3), *rng.uniform(0.3, 2.0, 3), rng.uniform(-7, 7))
            for _ in range(200)
        ]
        rows = footprints(np.array(boxes))
        assert rows.tobytes() == np.array([footprint(b) for b in boxes]).tobytes()

    def test_empty(self):
        assert bev_iou_pairs(np.zeros((0, 5)), np.zeros((0, 5)), [], []).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(
        # Any float, or a multiple of 0.25 m, which a 0.25 m shift keeps exact.
        c=st.one_of(st.floats(-1e15, 1e15), st.integers(-4 * 10**15, 4 * 10**15).map(lambda k: k / 4)),
        shift=st.sampled_from([0.0, 0.25]),
        yaw=st.floats(-math.pi, math.pi),
    )
    # 0.6 m pedestrians, yaws 0 and 0.05: far from the origin their corners
    # once rounded to an IoU of 0.767 at 3e7 and 0.0 at 1e8.
    @example(c=3e7, shift=0.0, yaw=0.05)
    @example(c=1e8, shift=0.0, yaw=0.05)
    @example(c=1e15, shift=0.0, yaw=0.05)
    @example(c=-1e15, shift=0.25, yaw=0.05)
    def test_a_pair_far_from_the_origin_has_its_iou_at_the_origin(self, c, shift, yaw):
        # Where c + shift is exact, both pairs are the same boxes, moved.
        assume((c + shift) - c == shift)

        def iou(x):
            return bev_iou(_box(x + shift, x, 0.6, 0.6, yaw), _box(x, x, 0.6, 0.6, 0.0))

        assert iou(c) == iou(0.0)


# Around every multiple of pi the wrap has its rounding edges, and
# nextafter(-pi, -inf) is the input that normalize_yaw sends to +pi.
_YAW_EDGES = [
    math.nextafter(k * math.pi, direction)
    for k in range(-4, 5)
    for direction in (-math.inf, 0.0, math.inf)
] + [k * math.pi for k in range(-4, 5)] + [-0.0, 0.0, 1e300, -1e300, 5e-324]


class TestWrapYaw:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    def test_is_normalize_yaw_bit_for_bit(self, yaws):
        yaws = yaws + _YAW_EDGES
        got = wrap_yaw(np.array(yaws))
        expected = np.array([normalize_yaw(y) for y in yaws])
        assert got.tobytes() == expected.tobytes()


# Whole-metre coordinates make duplicates and exact distances common; the
# wide and subnormal ranges test the cell size's growth and floor. Up to 60
# points a side puts a query on both sides of the dense cut-off of 2048 pairs.
_COORD = st.one_of(
    st.integers(-6, 6).map(float),
    st.floats(-10.0, 10.0),
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),
)
_POINTS = st.lists(st.tuples(_COORD, _COORD), max_size=60)
_RADIUS = st.one_of(
    st.integers(0, 6).map(float),
    st.floats(0.0, 20.0),
    st.floats(0.0, 1e-300),
    st.floats(0.0, 1e300),
)


class TestPairsWithin:
    @settings(max_examples=200, deadline=None)
    @given(a=_POINTS, b=_POINTS, r=_RADIUS, same=st.booleans())
    @example(a=[], b=[(0.0, 0.0)], r=1.0, same=False)
    @example(a=[(0.0, 0.0)], b=[], r=1.0, same=False)
    @example(a=[(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)], b=[], r=0.0, same=True)
    @example(a=[(0.0, 0.0)], b=[(3.0, 4.0)], r=5.0, same=False)
    @example(a=[(0.0, 0.0), (3.0, 4.0)], b=[], r=5.0, same=True)
    # A subnormal gap squares to 0, so a squared-distance test alone would
    # report it at r=0.
    @example(a=[(0.0, 0.0)], b=[(0.0, 2.2250738585e-313)], r=0.0, same=False)
    # 50 x 50 points: past the dense cut-off, with exact distances at r.
    @example(a=[(float(k % 7), float(k // 7)) for k in range(50)], b=[], r=1.0, same=True)
    @example(a=[(1e300, -1e300), (-1e300, 1e300)] * 30, b=[(1e300, 1e300)] * 40, r=0.0, same=False)
    # Neighbours 0.5 apart across a 2e12 span: the cell side grows with it.
    @example(a=[(k * 4e10, -k * 4e10) for k in range(-25, 25)],
             b=[(k * 4e10 + 0.5, -k * 4e10) for k in range(-25, 25)], r=1.0, same=False)
    def test_against_brute_force(self, a, b, r, same):
        if same:
            b = a
        i, j = pairs_within(a, b, r)
        got = list(zip(i.tolist(), j.tolist()))

        def dist(p, q):
            return math.hypot(a[p][0] - b[q][0], a[p][1] - b[q][1])

        brute = {(p, q) for p in range(len(a)) for q in range(len(b)) if dist(p, q) <= r}
        assert brute <= set(got)
        assert all(dist(p, q) <= r * (1 + 1e-9) for p, q in got)
        assert got == sorted(set(got))
        # The k-d tree search this replaced, re-tested with np.hypot as it
        # was: every pair it found is still found. Its squared distances
        # overflow beyond about 1e154, so it is asked only below that.
        if a and b and max(abs(c) for p in a + b for c in p) < 1e150 and r < 1e150:
            bound = r * (1.0 + 1e-9)
            found = cKDTree(np.array(a)).sparse_distance_matrix(
                cKDTree(np.array(b)), bound, output_type="ndarray"
            )
            d = np.array(a)[found["i"]] - np.array(b)[found["j"]]
            keep = np.hypot(d[:, 0], d[:, 1]) <= bound
            assert set(zip(found["i"][keep].tolist(), found["j"][keep].tolist())) <= set(got)

    def test_rejects_non_finite_points(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                pairs_within([(0.0, bad)], [(0.0, 0.0)], 1.0)
            with pytest.raises(ValueError, match="finite"):
                pairs_within([(0.0, 0.0)] * 60, [(bad, 0.0)] * 60, 1.0)

    @pytest.mark.parametrize("r", [-1.0, math.nan, math.inf])
    def test_rejects_bad_radius(self, r):
        with pytest.raises(ValueError, match="radius"):
            pairs_within([(0.0, 0.0)], [(0.0, 0.0)], r)


def brute_pairs(a, b, r, label_a, label_b):
    """Sorted (i, j) with equal labels and np.hypot(a[i] - b[j]) <= r·(1 + 1e-9), point by point."""
    a, b = np.reshape(np.asarray(a, dtype=float), (-1, 2)), np.reshape(np.asarray(b, dtype=float), (-1, 2))
    pairs = []
    for p in range(len(a)):
        same = np.flatnonzero(label_b == label_a[p])
        with np.errstate(over="ignore"):
            d = a[p] - b[same]
            pairs += [(p, q) for q in same[np.hypot(d[:, 0], d[:, 1]) <= r * (1.0 + 1e-9)].tolist()]
    return pairs


# Small labels repeat often; huge ones are sparse, and in no order.
_LABEL = st.one_of(st.integers(0, 3), st.integers(-(2**62), 2**62))
# Differences of coordinates near the float limit overflow to inf.
_LABELLED_COORD = _COORD | st.sampled_from([1.7e308, -1.7e308])
_LABELLED = st.lists(st.tuples(_LABELLED_COORD, _LABELLED_COORD, _LABEL), max_size=60)


class TestPairsWithinGroups:
    @settings(max_examples=200, deadline=None)
    @given(a=_LABELLED, b=_LABELLED, r=_RADIUS, same=st.booleans())
    @example(a=[(0.0, 0.0, 5), (0.0, 0.0, 5), (0.0, 0.0, 9)], b=[(0.0, 0.0, 9)], r=0.0, same=False)
    @example(a=[(float(k % 7), float(k // 7), k % 3) for k in range(50)], b=[], r=1.0, same=True)
    @example(a=[(1e300, -1e300, k) for k in range(30)] + [(-1e300, 1e300, k) for k in range(30)],
             b=[(1e300, -1e300, k) for k in range(0, 60, 2)] * 2, r=0.0, same=False)
    # One label in all, on the dense path and on the cell path.
    @example(a=[(0.0, 0.0, -3), (0.1, 0.0, -3)], b=[(0.0, 0.05, -3)], r=0.2, same=False)
    @example(a=[(0.5 * (k % 9), 0.5 * (k // 9), 2**40) for k in range(60)],
             b=[(float(k % 6), -0.25 * k, 2**40) for k in range(60)], r=0.75, same=False)
    def test_against_brute_force(self, a, b, r, same):
        if same:
            b = a
        a_xy, label_a = [p[:2] for p in a], np.array([p[2] for p in a], dtype=np.int64)
        b_xy, label_b = ([p[:2] for p in b], np.array([p[2] for p in b], dtype=np.int64))
        if same:
            b_xy, label_b = a_xy, label_a
        i, j = pairs_within(a_xy, b_xy, r, (label_a, label_b))
        assert list(zip(i.tolist(), j.tolist())) == brute_pairs(a_xy, b_xy, r, label_a, label_b)
        # Without labels: exactly the pairs within r·(1 + 1e-9), as one label gives them.
        i, j = pairs_within(a_xy, b_xy, r)
        one = np.zeros(len(a_xy), dtype=np.int64), np.zeros(len(b_xy), dtype=np.int64)
        assert list(zip(i.tolist(), j.tolist())) == brute_pairs(a_xy, b_xy, r, *one)

    @pytest.mark.parametrize("same", [False, True])
    def test_thousands_of_labels_at_the_cell_scale_cap(self, same):
        # Coordinates up to 1e300 set the cell side to 1e300 * 2**-28, so a
        # label's band of x cells is 2**29 wide; 2,000 labels times the y
        # span would pass int64 if packed directly into one key.
        rng = np.random.default_rng(11)
        labels = rng.integers(-(2**40), 2**40, 2000)
        a = rng.uniform(-1e300, 1e300, (3000, 2))
        a[:500] = a[500:1000]  # coincident points
        label_a = rng.choice(labels, 3000)
        pick = rng.integers(0, 3000, 3000)
        b = a[pick] + rng.normal(0.0, 4e291, (3000, 2)) * (rng.uniform(size=(3000, 1)) < 0.5)
        # Most of b shares its source point's label; the rest sit at the same
        # place under another label and must not pair.
        label_b = np.where(rng.uniform(size=3000) < 0.8, label_a[pick], rng.choice(labels, 3000))
        if same:
            b, label_b = a, label_a
        r = 1e292
        i, j = pairs_within(a, b, r, (label_a, label_b))
        got = list(zip(i.tolist(), j.tolist()))
        assert got == brute_pairs(a, b, r, label_a, label_b)
        assert len(got) > 2000

    def test_packed_keys_do_not_wrap(self):
        # Cells of side 2**972: x spans 2**28 cells and y 2**29 with the
        # spares, so label rank 128 would start 2**64 keys past rank 0, and a
        # key that wrapped would pair the two coincident points below.
        side = 2.0**972
        corner = [((2**28 - 3) * side, (2**28 - 3) * side)]
        points = [(0.0, -(2.0**1000))] * 2 + corner * 198
        labels = np.arange(200)
        i, j = pairs_within(points, points, 0.0, (labels, labels))
        assert i.tolist() == j.tolist() == list(range(200))

    def test_rejects_a_label_count_unlike_the_point_count(self):
        with pytest.raises(ValueError, match="label"):
            pairs_within([(0.0, 0.0)], [(0.0, 0.0)], 1.0, ([0, 1], [0]))


INT64 = np.iinfo(np.int64)


class TestDistinct:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(-3, 3),
                st.integers(INT64.min, INT64.max),
                st.sampled_from([INT64.min, INT64.min + 1, INT64.max]),
            ),
            max_size=40,
        ),
        inverse=st.booleans(),
        counts=st.booleans(),
        dtype=st.sampled_from(["int64", "int32", "uint64"]),
    )
    @example(values=[], inverse=True, counts=True, dtype="int64")
    @example(values=[7], inverse=True, counts=True, dtype="int64")
    @example(values=[-2] * 9, inverse=True, counts=True, dtype="int64")
    @example(values=[INT64.max, INT64.min, INT64.max], inverse=True, counts=True, dtype="int64")
    # uint64 values at and above 2**63 (negative values wrap there), of a
    # narrow span and of the full one.
    @example(values=[-1, -3, -1, -2], inverse=True, counts=True, dtype="uint64")
    @example(values=[-1, INT64.min, 0, -1], inverse=True, counts=True, dtype="uint64")
    @example(values=[2**31 - 1, -(2**31), 0, -(2**31)], inverse=True, counts=False, dtype="int32")
    # Spans just below and at 2**59, and of 2**61 up from INT64.min.
    @example(values=[-7, 2**59 - 8, -7, 0, 1], inverse=True, counts=True, dtype="int64")
    @example(values=[-7, 2**59 - 7, -7, 0, 1], inverse=True, counts=True, dtype="int64")
    @example(values=[INT64.min + 2**61 - 1, INT64.min], inverse=True, counts=True, dtype="int64")
    @example(values=[INT64.min + 2**61, INT64.min], inverse=True, counts=True, dtype="int64")
    def test_matches_np_unique(self, values, inverse, counts, dtype):
        # Python ints wrap into the narrower or unsigned dtype.
        values = np.array(values, dtype=np.int64).astype(dtype)
        expected = np.unique(values, return_inverse=inverse, return_counts=counts)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = distinct(values, return_inverse=inverse, return_counts=counts)
        # The inverse comes from an argsort; without it one np.sort serves.
        assert argsort.called == inverse
        if not (inverse or counts):
            expected, got = (expected,), (got,)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist()


def _box(cx: float, cy: float, length: float, width: float, yaw: float = 0.0) -> tuple:
    """A box row of the given footprint."""
    return box_row(cx, cy, l=length, w=width, yaw=yaw)


def _random_box(rng: np.random.Generator, yaw: float | None = None) -> tuple:
    return _box(
        cx=rng.uniform(-5, 5),
        cy=rng.uniform(-5, 5),
        length=rng.uniform(0.3, 3.0),
        width=rng.uniform(0.3, 3.0),
        yaw=rng.uniform(-math.pi, math.pi) if yaw is None else yaw,
    )


def _rigid(box: tuple, angle: float, tx: float, ty: float) -> tuple:
    c, s = math.cos(angle), math.sin(angle)
    return _box(
        cx=c * box[0] - s * box[1] + tx,
        cy=s * box[0] + c * box[1] + ty,
        length=box[3],
        width=box[4],
        yaw=box[6] + angle,
    )
