"""Voxelization, stride algebra, and the fusion topologies."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    ravel_order,
    stage_counts_by_coarsening,
    topology_report_by_features,
    voxelize_eagerly,
)
from scipy.sparse import csr_array

from crowdmot.geometry import GridSpec, distinct, to_cells
from crowdmot.sparsegrid import (
    DEFAULT_WIDTHS,
    ChannelMap,
    PointCloud,
    SparseGrid,
    VoxelSpec,
    downsample,
    encoder_chain,
    fuse_hr,
    _coarsen,
    _pack,
    _pool,
    _stage_counts,
    _unpack,
    fuse_ms,
    topology_report,
    voxelize,
)

SPEC = VoxelSpec()


def cloud(rows):
    return PointCloud(np.array(rows, dtype=float))


def grid_of(stride, channels, cells):
    """A SparseGrid at `stride` from {coord: feature vector}."""
    keys = sorted(cells)
    coords = np.array(keys, dtype=np.int64).reshape(-1, 3)
    features = np.array([cells[k] for k in keys], dtype=float).reshape(len(keys), channels)
    return SparseGrid(SPEC, stride, coords, features)


def random_cloud(rng, n=400):
    pts = np.column_stack(
        [
            rng.uniform(-90, 90, n),
            rng.uniform(-45, 45, n),
            rng.uniform(-4.5, 2.5, n),
            rng.uniform(0, 1, n),
            rng.integers(0, 2, n).astype(float),
        ]
    )
    return PointCloud(pts)


class TestVoxelSpec:
    def test_default_dense_bound(self):
        assert SPEC.shape == (2560, 1280, 40)

    def test_strided_shapes(self):
        assert SPEC.strided_shape(8) == (320, 160, 5)

    def test_non_divisible_extent_rejected(self):
        with pytest.raises(ValueError):
            VoxelSpec(x_min=0.0, x_max=1.0, dx=0.3)

    @pytest.mark.parametrize(
        "field, value",
        [("x_min", -math.inf), ("x_max", math.inf), ("y_min", math.nan), ("y_max", math.inf),
         ("z_min", -math.inf), ("z_max", math.nan), ("dx", math.nan), ("dy", math.inf), ("dz", -math.inf)],
    )
    def test_non_finite_field_is_a_value_error_naming_it(self, field, value):
        with pytest.raises(ValueError) as raised:
            VoxelSpec(**{field: value})
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"{field} must be finite, got {value}"

    @pytest.mark.parametrize(
        "x, y",
        [
            ((0.0, 1.0, 0.3), (0.0, 1.0, 0.5)),
            ((0.0, 1.0000005, 1.0), (-2.0, 2.0, 0.5)),
            ((0.0, 1.00001, 1.0), (0.0, 1.0, 0.5)),
            ((1.0, 1.0, 0.5), (0.0, 1.0, 0.5)),
            ((0.0, 1.0, -0.5), (0.0, 1.0, 0.5)),
            ((0.0, 1e308, 1e-300), (0.0, 1.0, 0.5)),
            ((-96.0, 96.0, 0.075), (-48.0, 48.0, 0.075)),
        ],
    )
    def test_the_x_and_y_axes_follow_the_grid_spec_rule(self, x, y):
        # The same cell counts, or the same error up to the spec's own fields.
        def outcome(make):
            try:
                return make().shape[:2]
            except ValueError as exc:
                return str(exc).split(":")[0]

        voxels = outcome(lambda: VoxelSpec(x[0], x[1], y[0], y[1], 0.0, 0.2, x[2], y[2], 0.2))
        assert voxels == outcome(lambda: GridSpec(x[0], x[1], y[0], y[1], x[2], y[2]))

    def test_key_field_widths(self):
        assert SPEC.bits == (12, 11, 6)

    @pytest.mark.parametrize(
        "shape, message",
        [
            # 64 bits whose cell product reaches 2**63, which np.ravel_multi_index
            # rejected too.
            ((2**22, 2**21, 2**21), "voxel keys need 64 bits (x 22, y 21, z 21) for 4194304x2097152x2097152 cells"),
            # 65 bits although the cell product stays below 2**63.
            ((2**22 + 1, 2**21 + 1, 2**19 + 1), "voxel keys need 65 bits (x 23, y 22, z 20)"),
            ((2**64, 1, 1), "voxel keys need 64 bits (x 64, y 0, z 0)"),
        ],
    )
    def test_keys_wider_than_63_bits_are_rejected(self, shape, message):
        with pytest.raises(ValueError, match=re.escape(message) + ".*more than 63"):
            unit_spec(shape)

    def test_a_63_bit_spec_voxelizes_its_last_cell(self):
        # Its cell product is 2**63, which np.ravel_multi_index rejected.
        spec = unit_spec((2**21, 2**21, 2**21))
        assert sum(spec.bits) == 63
        last = 2**21 - 1
        grid = voxelize(cloud([[last + 0.5] * 3 + [0.25, 1.0], [0.5] * 3 + [0.75, 0.0]]), spec)
        assert grid.coords.tolist() == [[0, 0, 0], [last] * 3]
        assert grid.keys.tolist() == [0, 2**63 - 1]
        assert downsample(grid, ChannelMap.identity(3)).coords.tolist() == [[0, 0, 0], [last // 2] * 3]


def unit_spec(shape):
    """A VoxelSpec of 1 m cells from the origin, with `shape` cells."""
    nx, ny, nz = shape
    return VoxelSpec(0.0, float(nx), 0.0, float(ny), 0.0, float(nz), 1.0, 1.0, 1.0)


@st.composite
def key_shapes(draw):
    """Cell counts whose key fields take (bx, by, bz) bits, at most 63 together."""
    widths = draw(st.tuples(*[st.integers(0, 53)] * 3).filter(lambda w: sum(w) <= 63))
    return tuple(draw(st.integers(2 ** (w - 1) + 1, 2**w)) if w else 1 for w in widths)


class TestKeyRule:
    @settings(max_examples=200, deadline=None)
    @given(shape=key_shapes(), n=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
    @example(shape=(2**21, 2**21, 2**21), n=50, seed=0)  # exactly 63 bits
    @example(shape=(2**63, 1, 1), n=50, seed=0)  # 63 bits in one field
    @example(shape=(1, 1, 1), n=3, seed=0)  # no bits at all
    @example(shape=(2560, 1280, 40), n=50, seed=0)  # the default spec
    def test_keys_order_unpack_and_coarsen_as_coordinates_do(self, shape, n, seed):
        spec = unit_spec(shape)
        assert spec.shape == shape
        assert spec.bits == tuple((c - 1).bit_length() for c in shape)
        rng = np.random.default_rng(seed)
        last = [c - 1 for c in shape]
        # The first and the last cell of every axis, then random cells, drawn
        # as uint64 since int64 draws cannot reach 2**63 - 1.
        corners = np.array(list(itertools.product(*[(0, c) for c in last])), dtype=np.int64)
        drawn = np.column_stack([rng.integers(0, c, n, np.uint64, endpoint=True) for c in last])
        cells = np.vstack([corners, drawn.astype(np.int64)])
        keys = _pack(cells, spec.bits)
        assert keys.dtype == np.int64 and (keys >= 0).all()
        assert _unpack(keys, spec.bits).tolist() == cells.tolist()
        order = ravel_order(cells, shape)
        assert np.argsort(keys, kind="stable").tolist() == order
        if math.prod(shape) < 2**63:
            assert np.argsort(np.ravel_multi_index(cells.T, shape), kind="stable").tolist() == order
        for k in range(4):
            coarse = _coarsen(keys, k, spec.bits)
            assert _unpack(coarse, spec.bits).tolist() == (cells // 2**k).tolist()
            assert coarse.tolist() == _pack(cells // 2**k, spec.bits).tolist()


class TestStageCounts:
    @settings(max_examples=300, deadline=None)
    @given(
        shape=key_shapes(),
        n=st.integers(0, 200),
        spread=st.sampled_from([2, 9, 40, 2**62]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(2560, 1280, 40), n=200, spread=9, seed=0)  # the default spec, 29 bits
    @example(shape=(2560, 1280, 1), n=200, spread=9, seed=1)  # z extents of 1 to 4 cells
    @example(shape=(2560, 1280, 2), n=200, spread=9, seed=2)
    @example(shape=(2560, 1280, 3), n=200, spread=9, seed=3)
    @example(shape=(2560, 1280, 4), n=200, spread=9, seed=4)
    @example(shape=(2**20, 2**10, 2**4), n=200, spread=9, seed=5)  # 34 bits, past 32
    @example(shape=(2**29, 2**33, 2), n=200, spread=9, seed=6)  # 63 bits, a 1-bit z
    @example(shape=(2**29, 2**33, 2), n=200, spread=2**62, seed=7)
    @example(shape=(2560, 1280, 40), n=0, spread=9, seed=0)  # an empty cloud
    @example(shape=(2**29, 2**33, 2), n=1, spread=9, seed=0)  # one voxel
    def test_counts_are_those_of_one_coarsening_a_stride(self, shape, n, spread, seed):
        # Clusters of cells `spread` wide, so that many share a parent.
        rng = np.random.default_rng(seed)
        last = np.array(shape, dtype=np.uint64) - 1
        corner = np.column_stack([rng.integers(0, c, 4, np.uint64, endpoint=True) for c in last])
        offsets = rng.integers(0, spread, (n, 3), np.uint64)
        cells = np.minimum(corner[rng.integers(0, 4, n)] + offsets, last).astype(np.int64)
        spec = unit_spec(shape)
        keys = distinct(_pack(cells, spec.bits))
        expected = stage_counts_by_coarsening(keys, spec.bits)
        assert expected == [len({tuple(c) for c in (cells >> k).tolist()}) for k in range(4)]
        # Any order of the keys gives the same counts.
        assert _stage_counts(rng.permutation(keys), spec.bits) == expected


class TestPointCloud:
    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 3)))

    def test_time_flag_enforced(self):
        bad = np.zeros((1, 5))
        bad[0, 4] = 0.5
        with pytest.raises(ValueError):
            PointCloud(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 2, 3])
    def test_non_finite_values_rejected(self, value, column):
        pts = np.zeros((3, 5))
        pts[1, column] = value
        with pytest.raises(ValueError, match="point 1 has a non-finite value"):
            PointCloud(pts)

    def test_two_frame_merge(self):
        curr = np.array([[0.0, 0.0, 0.0, 0.5]])
        prev = np.array([[1.0, 1.0, 0.0, 0.7], [2.0, 2.0, 0.0, 0.1]])
        pc = PointCloud.from_two_frames(curr, prev)
        assert len(pc) == 3
        assert pc.points[0, 4] == 0.0
        assert (pc.points[1:, 4] == 1.0).all()


class TestSparseGrid:
    def test_channels_and_length_follow_the_arrays(self):
        grid = grid_of(2, 4, {(1, 2, 3): np.ones(4), (0, 5, 1): np.zeros(4)})
        assert len(grid) == 2 and grid.channels == 4
        assert grid.coords.tolist() == [[0, 5, 1], [1, 2, 3]]
        assert grid.occupancy == {(0, 5, 1), (1, 2, 3)}

    @pytest.mark.parametrize("coord", [(-1, 0, 0), (1280, 0, 0), (0, 640, 0), (0, 0, 20)])
    def test_out_of_bound_coordinate_rejected(self, coord):
        # The stride-2 bound is 1280x640x20.
        with pytest.raises(ValueError, match="outside 1280x640x20 bound"):
            SparseGrid(SPEC, 2, np.array([coord]), np.zeros((1, 3)))

    def test_unsorted_coordinates_rejected(self):
        coords = np.array([[0, 0, 1], [0, 0, 0]])
        with pytest.raises(ValueError, match="sorted"):
            SparseGrid(SPEC, 1, coords, np.zeros((2, 3)))

    def test_duplicate_coordinates_rejected(self):
        coords = np.array([[4, 5, 6], [4, 5, 6]])
        with pytest.raises(ValueError, match="unique"):
            SparseGrid(SPEC, 1, coords, np.zeros((2, 3)))

    def test_feature_row_count_mismatch_rejected(self):
        coords = np.array([[0, 0, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match=r"features have shape \(3, 3\), expected \(2, C\)"):
            SparseGrid(SPEC, 1, coords, np.zeros((3, 3)))

    def test_non_integer_coordinates_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            SparseGrid(SPEC, 1, np.zeros((1, 3)), np.zeros((1, 3)))

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            grid_of(3, 3, {})


class TestPool:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 300),
        side=st.integers(1, 12),
        channels=st.sampled_from([1, 2, 3, 16, 64]),
        factor=st.sampled_from([1, 2, 8]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Every row in one cell: 300 rows deep.
    @example(n=300, side=1, channels=3, factor=1, seed=0)
    def test_sums_match_the_sparse_indicator_product(self, n, side, channels, factor, seed):
        # The pooled sums are the bits of a (cells x rows) indicator matrix
        # times the features: each cell's rows added in input order from 0.0,
        # which -0.0, NaN and mixed magnitudes would expose.
        rng = np.random.default_rng(seed)
        coords = rng.integers(0, side, (n, 3))
        features = rng.standard_normal((n, channels)) * 10.0 ** rng.integers(-8, 9, (n, channels))
        features[rng.random(features.shape) < 0.1] = -0.0
        features[rng.random(features.shape) < 0.02] = np.nan
        bound = SPEC.strided_shape(factor)
        pooled, means = _pool(_pack(coords, SPEC.bits), features, factor.bit_length() - 1, SPEC.bits)
        keys, inverse = np.unique(
            np.ravel_multi_index((coords // factor).T, bound), return_inverse=True
        )
        indicator = csr_array((np.ones(n), (inverse, np.arange(n))), shape=(len(keys), n))
        counts = np.bincount(inverse, minlength=len(keys))
        assert _unpack(pooled, SPEC.bits).tolist() == np.column_stack(np.unravel_index(keys, bound)).tolist()
        assert means.tobytes() == ((indicator @ features) / counts[:, None]).tobytes()


class TestVoxelize:
    def test_origin_point_lands_in_expected_voxel(self):
        grid = voxelize(cloud([[0.0, 0.0, 0.0, 0.5, 0.0]]), SPEC)
        assert grid.occupancy == {(1280, 640, 25)}
        assert grid.stride == 1 and grid.channels == 3

    @pytest.mark.parametrize("layout", ["fortran", "row-strided"])
    def test_point_layout_changes_no_cell_key_or_feature_bit(self, layout):
        rng = np.random.default_rng(5)
        n = 600
        # Some points fall outside the x extent, so rows are dropped too.
        points = np.column_stack([
            rng.uniform(-100, 100, n), rng.uniform(-45, 45, n), rng.uniform(-4.5, 2.5, n),
            rng.standard_normal(n), rng.integers(0, 2, n),
        ])
        if layout == "fortran":
            view = np.asfortranarray(points)
        else:
            # Every other row of a larger array; the rows between are NaN.
            view = np.full((2 * n, 5), np.nan)[::2]
            view[:] = points
        assert not PointCloud(view).points.flags.c_contiguous
        inside, cells = to_cells(view, SPEC)
        assert 0 < inside.sum() < n
        expected_inside, expected_cells = to_cells(points, SPEC)
        assert inside.tolist() == expected_inside.tolist()
        assert cells.dtype == np.int64 and cells.tolist() == expected_cells.tolist()
        grid, expected = voxelize(PointCloud(view), SPEC), voxelize(PointCloud(points), SPEC)
        assert grid.keys.tobytes() == expected.keys.tobytes()
        assert grid.coords.tolist() == expected.coords.tolist()
        assert grid.features.tobytes() == expected.features.tobytes()
        assert grid.n_dropped == expected.n_dropped == n - inside.sum()

    def test_count_and_means(self):
        grid = voxelize(
            cloud(
                [
                    [0.01, 0.01, 0.01, 0.0, 0.0],
                    [0.02, 0.02, 0.02, 1.0, 1.0],
                ]
            ),
            SPEC,
        )
        assert grid.coords.tolist() == [[1280, 640, 25]]
        feat = grid.features[0]
        assert feat[0] == 2.0
        assert feat[1] == 0.5
        assert feat[2] == 0.5

    def test_outside_points_dropped_and_counted(self):
        grid = voxelize(
            cloud(
                [
                    [0.0, 0.0, 0.0, 0.5, 0.0],
                    [500.0, 0.0, 0.0, 0.5, 0.0],
                    [0.0, 0.0, 3.0, 0.5, 0.0],  # z == z_max is outside
                ]
            ),
            SPEC,
        )
        assert len(grid) == 1 and grid.n_dropped == 2

    def test_every_point_round_trips_into_its_voxel(self):
        rng = np.random.default_rng(0)
        pc = random_cloud(rng)
        grid = voxelize(pc, SPEC)
        occupied = grid.occupancy
        for x, y, z, _, _ in pc.points:
            ix = int((x - SPEC.x_min) / SPEC.dx + 1e-9)
            iy = int((y - SPEC.y_min) / SPEC.dy + 1e-9)
            iz = int((z - SPEC.z_min) / SPEC.dz + 1e-9)
            assert (ix, iy, iz) in occupied
            assert SPEC.x_min + ix * SPEC.dx <= x + 1e-9
            assert x < SPEC.x_min + (ix + 1) * SPEC.dx + 1e-9

    def test_counts_conserve_points(self):
        rng = np.random.default_rng(1)
        pc = random_cloud(rng, n=700)
        grid = voxelize(pc, SPEC)
        assert grid.features[:, 0].sum() + grid.n_dropped == 700

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pc = random_cloud(rng)
        a, b = voxelize(pc, SPEC), voxelize(pc, SPEC)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.features, b.features)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 300),
        side=st.integers(1, 12),
        outside_share=st.sampled_from([0.0, 0.2, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=0, side=1, outside_share=0.0, seed=0)  # the empty cloud
    @example(n=300, side=1, outside_share=0.2, seed=0)  # about 240 points in one voxel
    def test_means_match_the_sparse_indicator_product(self, n, side, outside_share, seed):
        # Each voxel's points are added in input order from 0.0, the bits of
        # a (voxels x kept points) indicator matrix times the two channels;
        # a pairwise sum over more than 8 points, -0.0 intensities and mixed
        # magnitudes would each expose another order.
        rng = np.random.default_rng(seed)
        mins = np.array([SPEC.x_min, SPEC.y_min, SPEC.z_min])
        maxs = np.array([SPEC.x_max, SPEC.y_max, SPEC.z_max])
        cells = np.array(SPEC.shape) // 2 + rng.integers(0, side, (n, 3))
        xyz = mins + (cells + 0.5) * np.array([SPEC.dx, SPEC.dy, SPEC.dz])
        # An outside point sits below the lower extent or on the upper one
        # of one axis; the upper extent itself is outside.
        outside = rng.random(n) < outside_share
        axis = rng.integers(0, 3, n)
        xyz[outside, axis[outside]] = np.where(
            rng.random(n) < 0.5, mins[axis] - 0.01, maxs[axis]
        )[outside]
        intensity = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        intensity[rng.random(n) < 0.2] = -0.0
        points = np.column_stack([xyz, intensity, rng.integers(0, 2, n)])
        grid = voxelize(PointCloud(points), SPEC)
        kept = points[~outside]
        keys, inverse = np.unique(
            np.ravel_multi_index(cells[~outside].T, SPEC.shape), return_inverse=True
        )
        counts = np.bincount(inverse, minlength=len(keys))
        indicator = csr_array(
            (np.ones(len(kept)), (inverse, np.arange(len(kept)))), shape=(len(keys), len(kept))
        )
        expected = np.column_stack([counts, (indicator @ kept[:, 3:]) / counts[:, None]])
        assert grid.n_dropped == outside.sum()
        assert grid.coords.tolist() == np.column_stack(np.unravel_index(keys, SPEC.shape)).tolist()
        assert grid.features.tobytes() == expected.tobytes()

    def test_intensity_sum_past_the_float_range_gives_the_sum_of_the_shares(self):
        # 1.7e308 + 1.7e308 overflows; 1.7e308 / 2 + 1.7e308 / 2 does not. A
        # voxel whose sum stays finite keeps the plain sum over the count.
        pc = cloud([
            [0.01, 0.01, 0.01, 1.7e308, 0.0],
            [0.02, 0.02, 0.02, 1.7e308, 1.0],
            [1.01, 0.01, 0.01, 0.1, 0.0],
            [1.02, 0.01, 0.01, 0.2, 0.0],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = voxelize(pc, SPEC)
            rows = topology_report(pc, SPEC, "c")
        assert grid.features.tolist() == [[2.0, 1.7e308, 0.5], [2.0, (0.1 + 0.2) / 2, 0.0]]
        assert rows[0]["occupied"] == 2


def bits_of(array):
    return array.dtype, array.shape, array.tobytes()


class TestLazyVoxelGrid:
    """voxelize finds only the keys; its grid builds coords and features on first read."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(0, 200),
        side=st.integers(1, 6),
        outside_share=st.sampled_from([0.0, 0.3, 1.0]),
        hot=st.booleans(),
        order=st.sampled_from(["features", "coords", "keys"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=0, side=1, outside_share=0.0, hot=False, order="features", seed=0)  # the empty cloud
    @example(n=1, side=1, outside_share=0.0, hot=False, order="coords", seed=0)  # one point
    @example(n=2, side=1, outside_share=0.0, hot=True, order="features", seed=0)  # only the overflow
    def test_fields_match_the_eager_oracle_in_any_read_order(self, n, side, outside_share, hot, order, seed):
        # Points fall into few voxels, so most voxels hold several; some lie
        # outside the extents. With hot, the first two points share a voxel
        # and intensities of 1.7e308, whose sum passes the float range.
        rng = np.random.default_rng(seed)
        mins = np.array([SPEC.x_min, SPEC.y_min, SPEC.z_min])
        cells = np.array(SPEC.shape) // 2 + rng.integers(0, side, (n, 3))
        cells[:2] = cells[:1]
        xyz = mins + (cells + rng.uniform(0.1, 0.9, (n, 3))) * np.array([SPEC.dx, SPEC.dy, SPEC.dz])
        outside = rng.random(n) < outside_share
        outside[:2] &= not hot
        xyz[outside, 0] = SPEC.x_max + rng.uniform(0.0, 5.0, outside.sum())
        intensity = rng.standard_normal(n)
        intensity[:2] = 1.7e308 if hot else intensity[:2]
        pc = PointCloud(np.column_stack([xyz, intensity, rng.integers(0, 2, n)]))
        grid, expected = voxelize(pc, SPEC), voxelize_eagerly(pc, SPEC)
        assert grid.n_dropped == expected.n_dropped == outside.sum()
        assert bits_of(grid.keys) == bits_of(expected.keys) and len(grid) == len(expected)
        if order == "keys":
            assert "coords" not in vars(grid) and "features" not in vars(grid)
        names = {"features": ("features", "coords"), "coords": ("coords", "features"), "keys": ()}[order]
        for name in names:
            first = getattr(grid, name)
            assert bits_of(first) == bits_of(getattr(expected, name))
            assert getattr(grid, name) is first
        # The two hot points' sum overflows, yet every mean stays finite.
        assert np.isfinite(expected.features).all()


class TestDownsample:
    def test_coordinate_halving(self):
        grid = grid_of(1, 3, {(3, 3, 3): np.ones(3)})
        out = downsample(grid, ChannelMap.identity(3))
        assert out.occupancy == {(1, 1, 1)}
        assert out.stride == 2

    def test_occupancy_never_increases(self):
        rng = np.random.default_rng(3)
        grid = voxelize(random_cloud(rng), SPEC)
        mix = ChannelMap.identity(3)
        while grid.stride < 8:
            out = downsample(grid, mix)
            assert len(out) <= len(grid)
            grid = out

    def test_feature_is_mapped_child_average(self):
        mix = ChannelMap.seeded(3, 5, seed=1)
        grid = grid_of(
            1,
            3,
            {(0, 0, 0): np.array([1.0, 0.0, 0.0]), (1, 1, 1): np.array([3.0, 1.0, 0.0])},
        )
        out = downsample(grid, mix)
        assert out.coords.tolist() == [[0, 0, 0]]
        np.testing.assert_allclose(out.features[0], mix.apply(np.array([2.0, 0.5, 0.0])))
        assert out.channels == 5

    def test_stride_overflow_rejected(self):
        grid = grid_of(8, 3, {})
        with pytest.raises(ValueError):
            downsample(grid, ChannelMap.identity(3))

    def test_resolution_tracks_stride(self):
        grid = grid_of(1, 3, {})
        for _ in range(3):
            grid = downsample(grid, ChannelMap.identity(3))
        assert grid.stride == 8
        assert grid.resolution == (0.6, 0.6, 1.6)


class TestEncoderChain:
    def test_strides_widths_resolutions(self):
        rng = np.random.default_rng(4)
        sf1, sf2, sf3, sf4 = encoder_chain(voxelize(random_cloud(rng), SPEC))
        assert [g.stride for g in (sf1, sf2, sf3, sf4)] == [1, 2, 4, 8]
        assert [g.channels for g in (sf1, sf2, sf3, sf4)] == [16, 32, 64, 128]
        assert sf4.resolution[0] == pytest.approx(0.6)
        assert sf4.bev_shape == (320, 160)


class TestFuseHr:
    def chain(self, seed=5):
        rng = np.random.default_rng(seed)
        return encoder_chain(voxelize(random_cloud(rng), SPEC))

    def test_output_resolution_and_bound(self):
        _, sf2, _, sf4 = self.chain()
        fused = fuse_hr(sf2, sf4)
        assert fused.stride == 4
        assert fused.resolution[0] == pytest.approx(0.3)
        assert fused.bev_shape == (640, 320)
        assert fused.channels == sf2.channels + sf4.channels

    def test_empty_inputs(self):
        empty2 = grid_of(2, 32, {})
        empty8 = grid_of(8, 128, {})
        assert len(fuse_hr(empty2, empty8)) == 0

    def test_missing_stride8_cells_read_as_zeros(self):
        _, sf2, _, _ = self.chain()
        fused = fuse_hr(sf2, grid_of(8, 128, {}))
        pooled = downsample(sf2, ChannelMap.identity(sf2.channels))
        np.testing.assert_array_equal(fused.coords, pooled.coords)
        np.testing.assert_array_equal(fused.features[:, : sf2.channels], pooled.features)
        assert (fused.features[:, sf2.channels :] == 0).all()

    def test_occupancy_is_pooled_sf2_footprint(self):
        _, sf2, _, sf4 = self.chain()
        fused = fuse_hr(sf2, sf4)
        pooled = downsample(sf2, ChannelMap.identity(sf2.channels))
        assert fused.occupancy == pooled.occupancy

    def test_stride_mismatch_rejected(self):
        _, sf2, sf3, _ = self.chain()
        with pytest.raises(ValueError):
            fuse_hr(sf2, sf3)


class TestFuseMs:
    def chain(self, seed=6):
        rng = np.random.default_rng(seed)
        return encoder_chain(voxelize(random_cloud(rng), SPEC))

    def test_single_voxel_propagates_to_one_cell(self):
        base = voxelize(cloud([[0.0, 0.0, 0.0, 0.5, 0.0]]), SPEC)
        fused = fuse_ms(*encoder_chain(base))
        assert fused.occupancy == {(320, 160, 6)}
        assert fused.stride == 4

    def test_channel_count_is_configured_width(self):
        sf1, sf2, sf3, sf4 = self.chain()
        assert fuse_ms(sf1, sf2, sf3, sf4, width=48).channels == 48
        empty = fuse_ms(
            grid_of(1, 16, {}),
            grid_of(2, 32, {}),
            grid_of(4, 64, {}),
            grid_of(8, 128, {}),
            width=48,
        )
        assert empty.channels == 48 and len(empty) == 0

    def test_occupancy_superset_of_fuse_hr(self):
        sf1, sf2, sf3, sf4 = self.chain()
        ms = fuse_ms(sf1, sf2, sf3, sf4)
        hr = fuse_hr(sf2, sf4)
        assert ms.occupancy >= hr.occupancy

    def test_deterministic(self):
        sf1, sf2, sf3, sf4 = self.chain()
        a = fuse_ms(sf1, sf2, sf3, sf4)
        b = fuse_ms(sf1, sf2, sf3, sf4)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.features, b.features)

    def test_wrong_strides_rejected(self):
        sf1, sf2, sf3, sf4 = self.chain()
        with pytest.raises(ValueError):
            fuse_ms(sf2, sf2, sf3, sf4)


class TestOccupancyPurity:
    def test_occupancy_ignores_feature_values(self):
        # Same occupied cells with different feature values must produce the
        # same occupancy through the chain and both fusions.
        rng = np.random.default_rng(9)
        coords = {
            (int(x), int(y), int(z))
            for x, y, z in zip(
                rng.integers(0, 2000, 60), rng.integers(0, 1000, 60), rng.integers(0, 40, 60)
            )
        }
        grids = [
            grid_of(1, 3, {c: rng.uniform(0, 9, 3) for c in coords})
            for _ in range(2)
        ]
        outputs = []
        for g in grids:
            sf1, sf2, sf3, sf4 = encoder_chain(g)
            outputs.append(
                (
                    sf4.occupancy,
                    fuse_hr(sf2, sf4).occupancy,
                    fuse_ms(sf1, sf2, sf3, sf4).occupancy,
                )
            )
        assert outputs[0] == outputs[1]


LOWER = np.array([SPEC.x_min, SPEC.y_min, SPEC.z_min])
UPPER = np.array([SPEC.x_max, SPEC.y_max, SPEC.z_max])
# Per axis: the lower extent (kept), an ulp below the upper one (kept, its
# snapped index clamped into the last cell), the upper one (dropped), the middle.
EDGES = np.stack([LOWER, np.nextafter(UPPER, -np.inf), UPPER, (LOWER + UPPER) / 2])


@st.composite
def report_clouds(draw):
    """A cluster whose parents pool many children, points in and past the extents, edge points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cluster, n_spread = draw(st.integers(0, 60)), draw(st.integers(0, 20))
    spread = draw(st.sampled_from([0.05, 0.3, 1.0]))
    cluster = rng.uniform(LOWER, UPPER) + rng.uniform(0.0, spread, (n_cluster, 3))
    scattered = rng.uniform(LOWER - 10.0, UPPER + 10.0, (n_spread, 3))
    picks = draw(st.lists(st.tuples(*[st.integers(0, len(EDGES) - 1)] * 3), max_size=6))
    edge = EDGES[np.array(picks, dtype=np.intp).reshape(-1, 3), np.arange(3)]
    xyz = np.vstack([cluster, scattered, edge])
    return PointCloud(np.column_stack([
        xyz, rng.uniform(0.0, 1.0, len(xyz)), rng.integers(0, 2, len(xyz)).astype(float),
    ]))


class TestTopologyReport:
    @settings(max_examples=150, deadline=None)
    @given(
        pc=report_clouds(),
        topology=st.sampled_from("abc"),
        widths=st.tuples(*[st.integers(0, 8)] * 4),
        width_ms=st.integers(0, 8),
        seed=st.integers(0, 2**16),
    )
    @example(pc=cloud(np.zeros((0, 5))), topology="c", widths=(1, 2, 3, 4), width_ms=5, seed=0)
    @example(pc=cloud([[500.0, 0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 3.0, 0.5, 1.0]]),
             topology="b", widths=(1, 2, 3, 4), width_ms=5, seed=0)
    def test_rows_are_those_of_the_feature_grids(self, pc, topology, widths, width_ms, seed):
        # The report builds no feature; the oracle reads each row off the
        # grids of the whole feature algebra, under any seed.
        assert topology_report(pc, SPEC, topology, widths, width_ms) == topology_report_by_features(
            pc, SPEC, topology, widths, width_ms, seed
        )

    @pytest.mark.parametrize("topology", ["a", "b", "c"])
    @pytest.mark.parametrize(
        "widths, width_ms, message",
        [
            ((-16, 32, 64, 128), 64, r"widths\[0\] must be a non-negative integer, got -16"),
            ((16, 32, 64, 2.0), 64, r"widths\[3\] must be a non-negative integer, got 2.0"),
            (DEFAULT_WIDTHS, -1, "width_ms must be a non-negative integer, got -1"),
            (DEFAULT_WIDTHS, 64.0, "width_ms must be a non-negative integer, got 64.0"),
            ((16, 32, 64), 64, "widths must hold 4 stage widths, got 3"),
        ],
    )
    def test_negative_or_non_integer_widths_rejected(self, topology, widths, width_ms, message):
        with pytest.raises(ValueError, match=message):
            topology_report(cloud([[0.0, 0.0, 0.0, 0.5, 0.0]]), SPEC, topology, widths, width_ms)

    def test_rows_for_each_topology(self):
        rng = np.random.default_rng(7)
        pc = random_cloud(rng)
        for topology, res in (("a", 0.6), ("b", 0.3), ("c", 0.3)):
            rows = topology_report(pc, SPEC, topology=topology)
            assert rows[0]["name"] == "input" and rows[-1]["name"] == "output"
            assert rows[-1]["bev_resolution_m"] == pytest.approx(res)

    def test_unknown_topology_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            topology_report(random_cloud(rng), SPEC, topology="x")
