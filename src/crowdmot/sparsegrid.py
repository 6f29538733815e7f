"""Sparse voxel grids and the resolution algebra of the point-cloud encoder.

Models the encoder's shape/occupancy behavior without any learned weights:
voxelization of a (two-frame) point cloud, stride-doubling downsamples, and
the two high-resolution fusion topologies. Feature transforms are fixed
seeded matrices standing in for convolution kernels, so every operation is
a deterministic function of its inputs.

A grid stores only its occupied cells, as an (n, 3) int64 coordinate array
sorted by key and an (n, C) float64 feature array (the coordinate-list
layout of Minkowski Engine). A cell's key packs its indices as bit fields,
x << (by + bz) | y << bz | z, with the field widths (bx, by, bz) of the
stride-1 shape (VoxelSpec.bits), so every stride shares one layout and key
order is (x, y, z) lexicographic order. A cell's parent at a stride 2**k
coarser is then the key with each field shifted right by k (`_coarsen`).
Voxels follow the one cell rule of geometry, as the BEV target grids do:
VoxelSpec checks its extents with `cell_counts`, and `voxelize` maps points
to voxels with `to_cells`, dropping those outside, then sums the points'
two channels into their voxels with `np.add.at` in input order. The grid
stages pool rows onto coarser cells by a per-depth plan (`_Pooling`: on
120k rows x 64 channels it took 24 ms, `np.add.at` 95 ms) or join rows by
key (`np.searchsorted`), each planned from keys alone, so one plan serves
every feature array of the same cells. No dense volume is built.

`topology_report`, the table `voxelshapes` prints, voxelizes once and then
counts every stage from one sort of the cells' Z-order keys
(`_stage_counts`): a stage's cells depend on no feature, and its channels
only on the widths. `voxelize` finds only the distinct keys up front; its
grid's coordinates and features are built on first read, so the table
builds neither. The feature path (`voxelize`,
`encoder_chain`, `downsample`, `fuse_hr`, `fuse_ms`) is library API, its
values pinned by tests/test_sparsegrid_values.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np

from .geometry import cell_counts, distinct, to_cells

VALID_STRIDES = (1, 2, 4, 8)

# Default feature widths for the four encoder stages.
DEFAULT_WIDTHS = (16, 32, 64, 128)


@dataclass(frozen=True)
class VoxelSpec:
    """3D voxel grid geometry: metric extents and per-axis cell sizes.

    Checked by geometry.cell_counts, as GridSpec is; shape (nx, ny, nz) is
    the dense voxel-count bound at stride 1 that it found, and bits the
    widths of the x, y and z key fields that hold indices below it. A shape
    whose fields need more than 63 bits is rejected, so keys fit int64.
    """

    x_min: float = -96.0
    x_max: float = 96.0
    y_min: float = -48.0
    y_max: float = 48.0
    z_min: float = -5.0
    z_max: float = 3.0
    dx: float = 0.075
    dy: float = 0.075
    dz: float = 0.20
    shape: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    bits: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = cell_counts(self, "xyz")
        bits = tuple((n - 1).bit_length() for n in shape)
        if sum(bits) > 63:
            fields = ", ".join(f"{a} {b}" for a, b in zip("xyz", bits))
            raise ValueError(
                f"voxel keys need {sum(bits)} bits ({fields}) for "
                f"{'x'.join(map(str, shape))} cells, more than 63"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "bits", bits)

    def strided_shape(self, stride: int) -> tuple[int, int, int]:
        nx, ny, nz = self.shape
        return (-(-nx // stride), -(-ny // stride), -(-nz // stride))


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Points as an (n, 5) array of x, y, z, intensity, time_flag."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 5:
            raise ValueError(f"points must be (n, 5), got {pts.shape}")
        if not np.isfinite(pts).all():
            bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
            raise ValueError(f"point {bad} has a non-finite value: {pts[bad].tolist()}")
        flag = pts[:, 4]
        if not ((flag == 0.0) | (flag == 1.0)).all():
            raise ValueError("time_flag channel must be 0 or 1")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_two_frames(cls, current: np.ndarray, previous: np.ndarray) -> "PointCloud":
        """Concatenate two (n, 4) x/y/z/intensity frames with time flags 0 and 1."""
        curr = np.asarray(current, dtype=np.float64)
        prev = np.asarray(previous, dtype=np.float64)
        stacked = []
        for arr, flag in ((curr, 0.0), (prev, 1.0)):
            if arr.ndim != 2 or arr.shape[1] != 4:
                raise ValueError(f"each frame must be (n, 4), got {arr.shape}")
            stacked.append(np.hstack([arr, np.full((arr.shape[0], 1), flag)]))
        return cls(np.vstack(stacked))


@dataclass(frozen=True, eq=False)
class SparseGrid:
    """Occupied voxels only, as a coordinate array and a feature array.

    `coords` is an (n, 3) int64 array of cell indices at `stride`, each
    inside the strided bound. Its rows are sorted by strictly increasing
    key (`_pack` with spec.bits), that is (x, y, z) lexicographic order, and
    `keys` holds those keys. Row i of the (n, C) float64 `features` belongs
    to the cell coords[i], and `channels` is C. The constructor checks the
    coordinates it is given; grids this module builds from keys it sorted
    itself come from `_of_keys`, which does not re-check them and unpacks
    `coords` on first read.
    """

    spec: VoxelSpec
    stride: int
    coords: np.ndarray
    features: np.ndarray
    n_dropped: int = 0
    keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.stride not in VALID_STRIDES:
            raise ValueError(f"stride must be one of {VALID_STRIDES}, got {self.stride}")
        coords = np.asarray(self.coords)
        if coords.ndim != 2 or coords.shape[1] != 3 or coords.dtype.kind not in "iu":
            raise ValueError(f"coords must be (n, 3) integers, got {coords.dtype}{coords.shape}")
        coords = coords.astype(np.int64, copy=False)
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != len(coords):
            raise ValueError(f"features have shape {features.shape}, expected ({len(coords)}, C)")
        bound = self.spec.strided_shape(self.stride)
        outside = (coords < 0) | (coords >= bound)
        if outside.any():
            coord = tuple(coords[outside.any(axis=1)][0].tolist())
            raise ValueError(f"coordinate {coord} outside {'x'.join(map(str, bound))} bound")
        keys = _pack(coords, self.spec.bits)
        if (np.diff(keys) <= 0).any():
            raise ValueError("coordinates must be unique and sorted by packed key")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "keys", keys)

    @classmethod
    def _of_keys(cls, spec: VoxelSpec, stride: int, keys: np.ndarray,
                 features: np.ndarray | Callable[[], np.ndarray], n_dropped: int) -> "SparseGrid":
        """The grid of strictly increasing keys, not re-checked.

        `coords` is unpacked from the keys on first read. `features` is the
        array, or a function of no arguments that builds it on first read.
        """
        grid = object.__new__(cls)
        build = {"coords": partial(_unpack, keys, spec.bits)}
        if callable(features):
            build["features"] = features
        else:
            object.__setattr__(grid, "features", features)
        for name, value in (("spec", spec), ("stride", stride), ("n_dropped", n_dropped),
                            ("keys", keys), ("_build", build)):
            object.__setattr__(grid, name, value)
        return grid

    def __getattr__(self, name: str):
        # Only a field _of_keys left unbuilt gets here: built once, then kept.
        builds = self.__dict__.get("_build", {})
        if name not in builds:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = builds[name]()
        object.__setattr__(self, name, value)
        del builds[name]
        return value

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    @property
    def occupancy(self) -> set[tuple[int, int, int]]:
        return set(map(tuple, self.coords.tolist()))

    @property
    def resolution(self) -> tuple[float, float, float]:
        """Metric size of one cell at this stride."""
        return (
            self.spec.dx * self.stride,
            self.spec.dy * self.stride,
            self.spec.dz * self.stride,
        )

    @property
    def bev_shape(self) -> tuple[int, int]:
        nx, ny, _ = self.spec.strided_shape(self.stride)
        return nx, ny


@dataclass(frozen=True, eq=False)
class ChannelMap:
    """Fixed linear feature transform standing in for a learned kernel."""

    weights: np.ndarray

    @classmethod
    def seeded(cls, n_in: int, n_out: int, seed: int = 0) -> "ChannelMap":
        rng = np.random.default_rng([seed, n_in, n_out])
        return cls(rng.standard_normal((n_out, n_in)) / math.sqrt(n_in))

    @classmethod
    def identity(cls, n: int) -> "ChannelMap":
        return cls(np.eye(n))

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Map one feature vector, or each row of an (n, n_in) feature array."""
        return features @ self.weights.T


def _pack(coords: np.ndarray, bits: tuple[int, int, int]) -> np.ndarray:
    """Keys x << (by + bz) | y << bz | z of (n, 3) int64 cells whose indices fit `bits`."""
    _, by, bz = bits
    return (coords[:, 0] << (by + bz)) | (coords[:, 1] << bz) | coords[:, 2]


def _unpack(keys: np.ndarray, bits: tuple[int, int, int]) -> np.ndarray:
    """The (n, 3) cells of int64 keys, _pack's inverse."""
    _, by, bz = bits
    coords = np.empty((len(keys), 3), dtype=np.int64)
    np.right_shift(keys, by + bz, out=coords[:, 0])
    np.bitwise_and(keys >> bz, (1 << by) - 1, out=coords[:, 1])
    np.bitwise_and(keys, (1 << bz) - 1, out=coords[:, 2])
    return coords


def _coarsen(keys: np.ndarray, k: int, bits: tuple[int, int, int]) -> np.ndarray:
    """The keys of the cells `cells >> k`, the parents 2**k times coarser.

    Clearing each field's low k bits and shifting the whole key right by k
    moves each field's kept bits down k places, still inside that field.
    """
    _, by, bz = bits
    low = [(1 << min(k, width)) - 1 for width in bits]
    cleared = low[0] << (by + bz) | low[1] << bz | low[2]
    return (keys & ~cleared) >> k


def _stage_counts(keys: np.ndarray, bits: tuple[int, int, int]) -> list[int]:
    """The occupied cells at strides 1, 2, 4 and 8 of the cells of distinct keys `keys`.

    One sort of Z-order (Morton) keys. A woven key keeps each field's bits
    above its low l = min(width, 3) in the `_pack` layout, and puts the low
    bits below them, interleaved by `_weave_table`: bit 2 of every field
    above bit 1 above bit 0. A cell's parent 2**k times coarser is its woven
    key shifted right past the bits of levels 0 to k - 1. A shift keeps the
    sorted order, so each stride counts the sorted neighbours whose shifted
    keys differ.
    """
    bx, by, bz = bits
    low = tuple(min(width, 3) for width in bits)
    lx, ly, lz = low
    # Every field keeps its width, so woven keys fit sum(bits) bits as keys
    # do. Where that is 32 bits or fewer they sort as uint32: 43 against
    # 103 µs as int64 for the 18,672 keys of the 20k-point benchmark cloud.
    dtype = np.uint32 if sum(bits) <= 32 else np.int64
    keys = keys.astype(dtype)
    # The fields' low bits, as the table's index x << (ly + lz) | y << lz | z.
    # One gather from the table costs less than moving the nine bits one at
    # a time: stage counting took 136 against 197 µs that way on the 18,672
    # keys above.
    index = keys >> (by + bz - ly - lz) & ((1 << lx) - 1) << (ly + lz)
    index |= keys >> (bz - lz) & ((1 << ly) - 1) << lz
    index |= keys & (1 << lz) - 1
    woven = _weave_table(low, dtype).take(index)
    # Above them, the high bits: x's stay in place, y's move up lx, z's lx + ly.
    woven |= keys & ((1 << bx) - (1 << lx)) << (by + bz)
    woven |= (keys & ((1 << by) - (1 << ly)) << bz) << lx
    woven |= (keys & (1 << bz) - (1 << lz)) << (lx + ly)
    woven.sort()
    # Sorted neighbours have different parents at stride 2**k where their
    # XOR reaches the bits above levels 0 to k - 1.
    changes = woven[1:] ^ woven[:-1]
    occupied = [len(keys)]
    for k in (1, 2, 3):
        shift = sum(min(k, l) for l in low)
        occupied.append(min(len(keys), 1) + int(np.count_nonzero(changes >= 1 << shift)))
    return occupied


@cache
def _weave_table(low: tuple[int, int, int], dtype: type) -> np.ndarray:
    """The interleaved low bits of each index x << (ly + lz) | y << lz | z, low = (lx, ly, lz).

    Level j holds bit j of each field wider than j, x's above y's above z's,
    and the levels are stacked from j = 0 at the bottom up.
    """
    index = np.arange(1 << sum(low), dtype=dtype)
    table = np.zeros_like(index)
    lx, ly, lz = low
    place = 0
    for j in range(3):
        for width, offset in ((lz, 0), (ly, lz), (lx, ly + lz)):
            if j < width:
                table |= (index >> (offset + j) & 1) << place
                place += 1
    table.flags.writeable = False
    return table


class _Pooling:
    """How rows with keys `keys` fall into their parents `_coarsen(keys, k)`.

    `keys` are the occupied coarse cells' keys in increasing order, `counts`
    their row counts, and `rank[c]` the row of cell c in `ranked_means`.
    Made from keys alone, so one pooling averages every feature array of
    those rows.
    """

    def __init__(self, keys: np.ndarray, k: int, bits: tuple[int, int, int]):
        self.keys, inverse, self.counts = distinct(
            _coarsen(keys, k, bits), return_inverse=True, return_counts=True
        )
        # Rank cells deepest first, so the cells that have a d-th row form a
        # prefix of the ranks. Rows are grouped by cell rank, in input order
        # within a cell, then split by depth (a row's place in its cell):
        # slice d holds the d-th row of each cell that has one, in rank order.
        by_count = np.argsort(-self.counts, kind="stable")
        self.rank = np.empty_like(by_count)
        self.rank[by_count] = np.arange(len(by_count))
        rank = self.rank[inverse]
        by_rank = np.argsort(rank, kind="stable")
        ranked_counts = self.counts[by_count]
        self._ranked_counts = ranked_counts[:, None]
        depth = np.arange(len(by_rank)) - (np.cumsum(ranked_counts) - ranked_counts)[rank[by_rank]]
        rows = by_rank[np.argsort(depth, kind="stable")]
        self._slices = np.split(rows, np.cumsum(np.bincount(depth))[:-1])

    def ranked_means(self, features: np.ndarray) -> np.ndarray:
        """Each coarse cell's mean feature row, the cell of rank r in row r.

        A cell's rows are added in input order, starting from 0.0: the
        order, and so the bits, of a sparse (cells x rows) indicator matrix
        times `features`. One vectorised add per depth keeps that order.
        """
        first, *deeper = self._slices
        sums = features[first]
        sums += 0.0
        for rows in deeper:
            sums[: len(rows)] += features[rows]
        sums /= self._ranked_counts
        return sums


def _pool(
    keys: np.ndarray, features: np.ndarray, k: int, bits: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-pool feature rows with keys `keys` onto their parents `_coarsen(keys, k)`.

    Returns the occupied coarse keys in increasing order and each cell's
    mean feature row.
    """
    pooling = _Pooling(keys, k, bits)
    return pooling.keys, pooling.ranked_means(features)[pooling.rank]


class _Join:
    """Reads a grid's feature rows at the cells of `keys`, given at `stride`.

    A searchsorted join on keys: a grid at `stride` or coarser gives each
    cell the row of its ancestor; a finer grid is first mean-pooled to
    `stride` by `pooling`, its _Pooling at that stride. Cells the source
    lacks get zero rows. The join depends only on the keys, so calling it
    reads any feature array of the grid's rows. Where `grid` is at `stride`
    and `keys` are exactly its keys, the call returns the feature array it
    was given, not a copy.
    """

    def __init__(self, grid: SparseGrid, stride: int, keys: np.ndarray,
                 pooling: _Pooling | None = None):
        self.pooling = pooling
        if pooling is not None:
            source = pooling.keys
        else:
            source = grid.keys
            keys = _coarsen(keys, grid.stride.bit_length() - stride.bit_length(), grid.spec.bits)
        self._rows = self._missing = None
        if not np.array_equal(source, keys):
            self._rows = np.minimum(np.searchsorted(source, keys), max(len(source) - 1, 0))
            if len(source):
                missing = source[self._rows] != keys
                self._missing = missing if missing.any() else None
        if pooling is not None and len(source):
            # Pooled rows come in the pooling's rank order.
            self._rows = pooling.rank if self._rows is None else pooling.rank[self._rows]

    def __call__(self, features: np.ndarray) -> np.ndarray:
        if self.pooling is not None:
            features = self.pooling.ranked_means(features)
        if self._rows is None:
            return features
        if not len(features):
            return np.zeros((len(self._rows), features.shape[1]))
        rows = features[self._rows]
        if self._missing is not None:
            rows[self._missing] = 0.0
        return rows


def voxelize(pc: PointCloud, spec: VoxelSpec = VoxelSpec()) -> SparseGrid:
    """Bucket points into stride-1 voxels.

    Each occupied voxel's feature is (point count, mean intensity, mean
    time_flag): its points summed with np.add.at in input order from 0.0,
    the bits of the (voxels x points) indicator product, over the count. A
    voxel whose intensities sum past the float range instead gets the sum
    of its points' shares x / count, added in input order, so its mean is
    finite wherever that sum is; numpy's overflow warning is not raised.
    Points outside the extents are dropped and counted in the grid's
    n_dropped. Cells come from to_cells and keys from one distinct; the
    features are built (_voxel_features) on the grid's first read of them.
    """
    inside, cells = to_cells(pc.points, spec)
    packed = _pack(cells, spec.bits)
    features = partial(_voxel_features, pc.points, inside, packed)
    return SparseGrid._of_keys(spec, 1, distinct(packed), features, len(pc) - len(packed))


def _voxel_features(points: np.ndarray, inside: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """voxelize's features of the points inside, whose voxel keys are `packed`."""
    kept = points if inside.all() else points[inside]
    keys, inverse, counts = distinct(packed, return_inverse=True, return_counts=True)
    features = np.empty((len(keys), 3))
    features[:, 0] = counts
    sums = np.zeros((2, len(keys)))
    with np.errstate(over="ignore"):
        np.add.at(sums[0], inverse, kept[:, 3])
        np.add.at(sums[1], inverse, kept[:, 4])
        np.divide(sums, counts, out=features[:, 1:].T)
        # Time flags are 0 or 1, so only an intensity sum can pass the float range.
        overflowed = np.isinf(sums[0])
        if overflowed.any():
            rows = overflowed[inverse]
            shares = np.zeros(len(keys))
            np.add.at(shares, inverse[rows], kept[rows, 3] / counts[inverse[rows]])
            features[overflowed, 1] = shares[overflowed]
    return features


def downsample(grid: SparseGrid, mix: ChannelMap) -> SparseGrid:
    """Halve the spatial resolution (double the stride).

    Parent occupancy is the union of child occupancies; each parent feature
    is the channel map applied to the average of its occupied children.
    """
    if grid.stride > 4:
        raise ValueError(f"stride {grid.stride} cannot be downsampled further")
    if mix.n_in != grid.channels:
        raise ValueError(f"channel map expects {mix.n_in} channels, grid has {grid.channels}")
    keys, means = _pool(grid.keys, grid.features, 1, grid.spec.bits)
    return SparseGrid._of_keys(grid.spec, grid.stride * 2, keys, mix.apply(means), grid.n_dropped)


def fuse_hr(sf2: SparseGrid, sf4: SparseGrid) -> SparseGrid:
    """Fuse the second-stage and final-stage features at stride 4 (0.3 m BEV).

    The stride-2 input is pooled down one step and the stride-8 input is
    replicated up one step; features are concatenated channel-wise on the
    pooled stride-2 footprint.
    """
    if sf2.stride != 2 or sf4.stride != 8:
        raise ValueError(
            f"fuse_hr expects strides (2, 8), got ({sf2.stride}, {sf4.stride})"
        )
    if sf2.spec != sf4.spec:
        raise ValueError("inputs use different voxel specs")
    keys, pooled = _pool(sf2.keys, sf2.features, 1, sf2.spec.bits)
    features = np.hstack([pooled, _Join(sf4, 4, keys)(sf4.features)])
    return SparseGrid._of_keys(sf2.spec, 4, keys, features, sf2.n_dropped)


def fuse_ms(
    sf1: SparseGrid,
    sf2: SparseGrid,
    sf3: SparseGrid,
    sf4: SparseGrid,
    width: int = 64,
    seed: int = 0,
) -> SparseGrid:
    """Multi-scale fusion of all four encoder stages at stride 4.

    Every stage is projected to a common width, then two exchange rounds run:
    each round resamples every scale onto every other scale's native
    occupancy, sums the contributions, and applies a per-scale channel map.
    The exchanged features are finally resampled to stride 4, concatenated,
    and projected back to `width` channels.
    """
    grids = [sf1, sf2, sf3, sf4]
    strides = [g.stride for g in grids]
    if strides != [1, 2, 4, 8]:
        raise ValueError(f"fuse_ms expects strides [1, 2, 4, 8], got {strides}")
    if len({g.spec for g in grids}) != 1:
        raise ValueError("inputs use different voxel specs")

    spec = sf1.spec
    # Every finer level's pooling onto every coarser stride, and every
    # level's join onto every level's cells, are made once: the joins serve
    # both rounds, the poolings the output step too. Level l is at stride
    # 2**l, so pooling level s onto level t coarsens its keys by t - s.
    pools = {
        (source, target): _Pooling(grids[source].keys, target - source, spec.bits)
        for target in range(4)
        for source in range(target)
    }
    joins = [
        [_Join(g, strides[target], grids[target].keys, pools.get((source, target)))
         for source, g in enumerate(grids)]
        for target in range(4)
    ]

    features = [
        ChannelMap.seeded(g.channels, width, seed=seed * 101 + level).apply(g.features)
        for level, g in enumerate(grids)
    ]
    for rnd in range(2):
        features = [
            ChannelMap.seeded(width, width, seed=seed * 101 + 10 * (rnd + 1) + level).apply(
                sum(join(f) for join, f in zip(joins[level], features))
            )
            for level in range(4)
        ]

    keys = distinct(np.concatenate([_coarsen(g.keys, 2 - level, spec.bits)
                                    for level, g in enumerate(grids[:3])]))
    out_map = ChannelMap.seeded(4 * width, width, seed=seed * 101 + 97)
    stacked = np.hstack([
        _Join(g, 4, keys, pools.get((level, 2)))(f)
        for level, (g, f) in enumerate(zip(grids, features))
    ])
    return SparseGrid._of_keys(spec, 4, keys, out_map.apply(stacked), sf1.n_dropped)


def encoder_chain(
    base: SparseGrid,
    widths: tuple[int, int, int, int] = DEFAULT_WIDTHS,
    seed: int = 0,
) -> tuple[SparseGrid, SparseGrid, SparseGrid, SparseGrid]:
    """Build the four encoder stages SF1..SF4 from a stride-1 grid.

    SF1 keeps stride 1 at widths[0] channels; each later stage halves the
    resolution and changes width, ending at stride 8 (0.6 m BEV cells).
    """
    if base.stride != 1:
        raise ValueError("encoder chain starts from a stride-1 grid")
    stem = ChannelMap.seeded(base.channels, widths[0], seed=seed * 101 + 50)
    sf1 = SparseGrid._of_keys(base.spec, 1, base.keys, stem.apply(base.features), base.n_dropped)
    sf2 = downsample(sf1, ChannelMap.seeded(widths[0], widths[1], seed=seed * 101 + 51))
    sf3 = downsample(sf2, ChannelMap.seeded(widths[1], widths[2], seed=seed * 101 + 52))
    sf4 = downsample(sf3, ChannelMap.seeded(widths[2], widths[3], seed=seed * 101 + 53))
    return sf1, sf2, sf3, sf4


def topology_report(
    pc: PointCloud,
    spec: VoxelSpec = VoxelSpec(),
    topology: str = "a",
    widths: tuple[int, int, int, int] = DEFAULT_WIDTHS,
    width_ms: int = 64,
) -> list[dict]:
    """Stride/resolution/occupancy table for one encoder topology.

    Topology 'a' is the plain downsampling chain ending at 0.6 m, 'b' fuses
    the stride-2 and stride-8 stages to 0.3 m, and 'c' is the multi-scale
    variant, also at 0.3 m. Returns one row per stage plus the output row,
    the rows that voxelize, encoder_chain and the fusion's grids give; only
    voxelize runs, and `_stage_counts` counts every stride's cells from one
    sort of its keys woven into Z order.
    """
    if topology not in ("a", "b", "c"):
        raise ValueError(f"topology must be 'a', 'b' or 'c', got {topology!r}")
    if len(widths) != 4:
        raise ValueError(f"widths must hold 4 stage widths, got {len(widths)}")
    named = [(f"widths[{k}]", width) for k, width in enumerate(widths)] + [("width_ms", width_ms)]
    for name, width in named:
        if not isinstance(width, (int, np.integer)) or width < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {width!r}")
    base = voxelize(pc, spec)
    occupied = _stage_counts(base.keys, spec.bits)
    rows = [_row(spec, "input", 1, occupied[0], 3)] + [
        _row(spec, f"SF{level + 1}", stride, count, int(width))
        for level, (stride, count, width) in enumerate(zip(VALID_STRIDES, occupied, widths))
    ]
    # Topology a outputs SF4 itself. fuse_hr pools SF2 by 2, which gives
    # SF3's cells; fuse_ms's footprint is SF1/4 | SF2/2 | SF3, and each of
    # those is SF3's cells too. So b and c both output SF3's cells.
    if topology == "a":
        rows.append(_row(spec, "output", 8, occupied[3], int(widths[3])))
    else:
        channels = widths[1] + widths[3] if topology == "b" else width_ms
        rows.append(_row(spec, "output", 4, occupied[2], int(channels)))
    rows[-1]["dropped_points"] = base.n_dropped
    return rows


def _row(spec: VoxelSpec, name: str, stride: int, occupied: int, channels: int) -> dict:
    return {
        "name": name,
        "stride": stride,
        "bev_resolution_m": spec.dx * stride,
        "shape": spec.strided_shape(stride),
        "occupied": occupied,
        "channels": channels,
    }
