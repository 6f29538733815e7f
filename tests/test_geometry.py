"""Grid quantization and rotated-IoU behavior, including a raster oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdmot.geometry import (
    Box3D,
    BoxBEV,
    GridSpec,
    OutOfBoundsError,
    bev_iou,
    bev_iou_pairs,
    cell_center,
    normalize_yaw,
    pairs_within,
    quantize_to_grid,
)

GRID = GridSpec(-96.0, 96.0, -48.0, 48.0, 0.6, 0.6)


def raster_iou(a: BoxBEV, b: BoxBEV, cells: int = 1400) -> float:
    """Rasterized IoU oracle: point-in-box tests on a fine regular pixel grid."""
    corners = np.array(a.corners() + b.corners())
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    xs = np.linspace(lo[0], hi[0], cells)
    ys = np.linspace(lo[1], hi[1], cells)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")

    def inside(box: BoxBEV) -> np.ndarray:
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        dx, dy = gx - box.cx, gy - box.cy
        u = c * dx + s * dy
        v = -s * dx + c * dy
        return (np.abs(u) <= box.length / 2) & (np.abs(v) <= box.width / 2)

    in_a, in_b = inside(a), inside(b)
    union = (in_a | in_b).sum()
    return float((in_a & in_b).sum() / union) if union else 0.0


def scalar_iou(a: BoxBEV, b: BoxBEV) -> float:
    """Bit oracle: rotated IoU by per-pair Sutherland-Hodgman clipping in floats.

    The kernel must return these bits: the same canonical operand order,
    early zero beyond the half-diagonals, vertex order and 1e-12 area floor.
    """
    if a == b:
        return 1.0
    if (b.cx, b.cy, b.length, b.width, b.yaw) < (a.cx, a.cy, a.length, a.width, a.yaw):
        a, b = b, a
    ra = 0.5 * math.hypot(a.length, a.width)
    rb = 0.5 * math.hypot(b.length, b.width)
    if math.hypot(a.cx - b.cx, a.cy - b.cy) >= ra + rb:
        return 0.0
    output = a.corners()
    clip = b.corners()
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
    return inter / (a.area + b.area - inter)


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


class TestYawNormalization:
    def test_wraps_into_range(self):
        for yaw in (-7.0, -math.pi, 0.0, 3.5, math.pi, 9.0):
            wrapped = normalize_yaw(yaw)
            assert -math.pi <= wrapped < math.pi
            assert math.isclose(
                math.fmod(wrapped - yaw, 2 * math.pi), 0.0, abs_tol=1e-9
            ) or math.isclose(abs(math.fmod(wrapped - yaw, 2 * math.pi)), 2 * math.pi, abs_tol=1e-9)

    def test_box_normalizes_at_construction(self):
        box = BoxBEV(0, 0, 1, 1, yaw=math.pi)
        assert box.yaw == -math.pi
        assert Box3D(0, 0, 0, 1, 1, 1, yaw=4 * math.pi).yaw == pytest.approx(0.0)


class TestBoxesRejectNonFinite:
    BOX3D = {
        "cx": 0.0, "cy": 0.0, "cz": 0.8, "length": 0.6, "height": 1.7, "width": 0.6, "yaw": 0.0
    }
    BOXBEV = {"cx": 0.0, "cy": 0.0, "length": 0.6, "width": 0.6, "yaw": 0.0}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", list(BOX3D))
    def test_box3d(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            Box3D(**{**self.BOX3D, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", list(BOXBEV))
    def test_box_bev(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            BoxBEV(**{**self.BOXBEV, field: value})


class TestBevIou:
    def test_identical_boxes(self):
        box = BoxBEV(3.0, -2.0, 0.8, 0.5, 0.7)
        assert bev_iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert bev_iou(BoxBEV(0, 0, 1, 1, 0), BoxBEV(100, 0, 1, 1, 0)) == 0.0

    def test_half_offset_squares(self):
        a = BoxBEV(0.0, 0.0, 1.0, 1.0, 0.0)
        b = BoxBEV(0.5, 0.0, 1.0, 1.0, 0.0)
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
            ix = max(
                0.0,
                min(a.cx + a.length / 2, b.cx + b.length / 2)
                - max(a.cx - a.length / 2, b.cx - b.length / 2),
            )
            iy = max(
                0.0,
                min(a.cy + a.width / 2, b.cy + b.width / 2)
                - max(a.cy - a.width / 2, b.cy - b.width / 2),
            )
            inter = ix * iy
            expected = inter / (a.area + b.area - inter) if inter > 0 else 0.0
            assert bev_iou(a, b) == pytest.approx(expected, abs=1e-12)
            if i < 10 and inter > 0:
                assert bev_iou(a, b) == pytest.approx(raster_iou(a, b), abs=1e-3)

    def test_rotated_against_raster_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            a = _random_box(rng)
            b = BoxBEV(
                a.cx + rng.uniform(-1.0, 1.0),
                a.cy + rng.uniform(-1.0, 1.0),
                rng.uniform(0.5, 2.0),
                rng.uniform(0.5, 2.0),
                rng.uniform(-math.pi, math.pi),
            )
            assert bev_iou(a, b) == pytest.approx(raster_iou(a, b), abs=2e-3)

    def test_degenerate_touching_edges(self):
        a = BoxBEV(0.0, 0.0, 1.0, 1.0, 0.0)
        b = BoxBEV(1.0, 0.0, 1.0, 1.0, 0.0)
        assert bev_iou(a, b) == 0.0


def _diamond(cx: float, side: float) -> BoxBEV:
    """A square turned by 45 degrees: its corners lie on the x axis."""
    return BoxBEV(cx, 0.0, side, side, math.pi / 4)


class TestBevIouPairs:
    """The batched kernel returns the bits of the per-pair scalar oracle."""

    @staticmethod
    def assert_bits(a_boxes, b_boxes):
        k = np.arange(len(a_boxes))
        expected = np.array([scalar_iou(a, b) for a, b in zip(a_boxes, b_boxes)])
        assert bev_iou_pairs(a_boxes, b_boxes, k, k).tobytes() == expected.tobytes()
        assert bev_iou_pairs(b_boxes, a_boxes, k, k).tobytes() == expected.tobytes()
        return expected

    def test_random_pairs(self):
        rng = np.random.default_rng(11)
        a = [_random_box(rng) for _ in range(3000)]
        b = [
            BoxBEV(box.cx + rng.normal(0, 1.0), box.cy + rng.normal(0, 1.0),
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
            a.append(BoxBEV(*centre, *(scale * rng.uniform(0.3, 3.0, 2)), rng.uniform(-4, 4)))
            b.append(BoxBEV(*(centre + scale * rng.normal(0, 0.8, 2)),
                            *(scale * rng.uniform(0.3, 3.0, 2)), rng.uniform(-4, 4)))
        iou = self.assert_bits(a, b)
        assert np.count_nonzero(iou) > 500

    def test_special_pairs(self):
        square = BoxBEV(2.0, -1.0, 1.0, 1.0, 0.0)
        pairs = [
            (square, square),  # identical
            (square, BoxBEV(2.0, -1.0, 1.0, 1.0, 0.0)),  # equal, not the same object
            (square, BoxBEV(2.0, -1.0, 0.5, 2.0, 0.3)),  # coincident centres
            (square, BoxBEV(2.0, -1.0, 1.0, 1.0, math.pi / 2)),  # same footprint, other yaw
            (square, BoxBEV(3.0, -1.0, 1.0, 1.0, 0.0)),  # edges touch
            (square, BoxBEV(3.0, 0.0, 1.0, 1.0, 0.0)),  # corners touch
            (square, BoxBEV(2.5, -1.0, 1.0, 1.0, 0.0)),  # half offset
            (BoxBEV(0.0, 0.0, 2.0, 1.0, math.pi), BoxBEV(0.1, 0.0, 2.0, 1.0, -math.pi)),
            (BoxBEV(0.0, 0.0, 2.0, 1.0, math.nextafter(math.pi, 0.0)),
             BoxBEV(0.0, 0.1, 2.0, 1.0, -math.pi)),  # yaws at +-pi
            (square, BoxBEV(2.1, -0.9, 0.3, 0.2, 0.7)),  # nested
            (BoxBEV(2.1, -0.9, 0.3, 0.2, 0.7), square),  # nested, other order
            (BoxBEV(0.0, 0.0, 1e-3, 1e-3, 0.2), BoxBEV(2e-4, 0.0, 1e-3, 1e-3, -0.2)),
            (BoxBEV(0.0, 0.0, 1e3, 1e3, 0.2), BoxBEV(200.0, 0.0, 1e3, 1e3, -0.2)),
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

    def test_box3d_stands_for_its_footprint(self):
        rng = np.random.default_rng(14)
        boxes = [
            Box3D(*rng.uniform(-2, 2, 3), *rng.uniform(0.3, 2.0, 3), rng.uniform(-7, 7))
            for _ in range(200)
        ]
        i, j = np.divmod(np.arange(200 * 200), 200)
        footprints = [b.bev() for b in boxes]
        assert (bev_iou_pairs(boxes, boxes, i, j).tobytes()
                == bev_iou_pairs(footprints, footprints, i, j).tobytes())

    def test_empty(self):
        assert bev_iou_pairs([], [], [], []).shape == (0,)


# Whole-metre coordinates make duplicates and exact distances common; sets of
# more than 16 points split the tree into several leaves.
_COORD = st.one_of(st.integers(-6, 6).map(float), st.floats(-10.0, 10.0))
_POINTS = st.lists(st.tuples(_COORD, _COORD), max_size=40)
_RADIUS = st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 20.0))


class TestPairsWithin:
    @settings(max_examples=200, deadline=None)
    @given(a=_POINTS, b=_POINTS, r=_RADIUS, same=st.booleans())
    @example(a=[], b=[(0.0, 0.0)], r=1.0, same=False)
    @example(a=[(0.0, 0.0)], b=[], r=1.0, same=False)
    @example(a=[(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)], b=[], r=0.0, same=True)
    @example(a=[(0.0, 0.0)], b=[(3.0, 4.0)], r=5.0, same=False)
    @example(a=[(0.0, 0.0), (3.0, 4.0)], b=[], r=5.0, same=True)
    # A subnormal gap squares to 0, so the tree alone would report it at r=0.
    @example(a=[(0.0, 0.0)], b=[(0.0, 2.2250738585e-313)], r=0.0, same=False)
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

    @pytest.mark.parametrize("r", [-1.0, math.nan, math.inf])
    def test_rejects_bad_radius(self, r):
        with pytest.raises(ValueError, match="radius"):
            pairs_within([(0.0, 0.0)], [(0.0, 0.0)], r)


def _random_box(rng: np.random.Generator, yaw: float | None = None) -> BoxBEV:
    return BoxBEV(
        cx=rng.uniform(-5, 5),
        cy=rng.uniform(-5, 5),
        length=rng.uniform(0.3, 3.0),
        width=rng.uniform(0.3, 3.0),
        yaw=rng.uniform(-math.pi, math.pi) if yaw is None else yaw,
    )


def _rigid(box: BoxBEV, angle: float, tx: float, ty: float) -> BoxBEV:
    c, s = math.cos(angle), math.sin(angle)
    return BoxBEV(
        cx=c * box.cx - s * box.cy + tx,
        cy=s * box.cx + c * box.cy + ty,
        length=box.length,
        width=box.width,
        yaw=box.yaw + angle,
    )
