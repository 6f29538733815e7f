"""Sparse voxel grids and the resolution algebra of the point-cloud encoder.

Models the encoder's shapes and occupancy without any learned weights:
voxelization of a (two-frame) point cloud, stride-doubling downsamples, and
the two high-resolution fusion topologies. A stage is the set of cells it
occupies and the number of channels it carries. No feature value is
computed: a stage's cells depend on no feature, and its channels only on
the widths.

A grid stores only its occupied cells, as sorted int64 keys (the
coordinate list of Minkowski Engine, without its feature rows). A cell's
key packs its indices as bit fields, x << (by + bz) | y << bz | z, with the
field widths (bx, by, bz) of the stride-1 shape (VoxelSpec.bits), so every
stride shares one layout and key order is (x, y, z) lexicographic order. A
cell's parent at a stride 2**k coarser is then the key with each field
shifted right by k (`_coarsen`), and a stage's cells are the distinct
parents of its input's cells. Voxels follow the one cell rule of geometry,
as the BEV target grids do: VoxelSpec checks its extents with
`cell_counts`, and `voxelize` maps points to voxels with `to_cells`,
dropping those outside. No dense volume is built.

`topology_report`, the table `voxelshapes` prints, voxelizes once and then
counts every stage from one sort of the cells' Z-order keys
(`_stage_counts`), without building the stage grids that `encoder_chain`,
`downsample`, `fuse_hr` and `fuse_ms` build; the tests check its rows
against those grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

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
    """Occupied voxels only, as sorted cell keys, and a channel count.

    `keys` holds the int64 keys (`_pack` with spec.bits) of the occupied
    cells at `stride`, each inside the strided bound, in strictly increasing
    order, that is (x, y, z) lexicographic order. `coords` unpacks them into
    an (n, 3) int64 array of cell indices when read. `channels` is the
    stage's feature width. The constructor checks the stride and the channel
    count and takes the keys as given; `from_coords` builds a grid from
    caller-given cells and checks them.
    """

    spec: VoxelSpec
    stride: int
    keys: np.ndarray
    channels: int
    n_dropped: int = 0

    def __post_init__(self) -> None:
        if self.stride not in VALID_STRIDES:
            raise ValueError(f"stride must be one of {VALID_STRIDES}, got {self.stride}")
        if not isinstance(self.channels, (int, np.integer)) or self.channels < 0:
            raise ValueError(f"channels must be a non-negative integer, got {self.channels!r}")

    @classmethod
    def from_coords(cls, spec: VoxelSpec, stride: int, coords, channels: int,
                    n_dropped: int = 0) -> "SparseGrid":
        """The grid of (n, 3) integer cells, each inside the bound at `stride`, unique and sorted by key."""
        coords = np.asarray(coords)
        if coords.ndim != 2 or coords.shape[1] != 3 or coords.dtype.kind not in "iu":
            raise ValueError(f"coords must be (n, 3) integers, got {coords.dtype}{coords.shape}")
        coords = coords.astype(np.int64, copy=False)
        # The keys of cells outside the bound are meaningless, but those are rejected.
        grid = cls(spec, stride, _pack(coords, spec.bits), channels, n_dropped)
        bound = spec.strided_shape(stride)
        outside = (coords < 0) | (coords >= bound)
        if outside.any():
            coord = tuple(coords[outside.any(axis=1)][0].tolist())
            raise ValueError(f"coordinate {coord} outside {'x'.join(map(str, bound))} bound")
        if (np.diff(grid.keys) <= 0).any():
            raise ValueError("coordinates must be unique and sorted by packed key")
        return grid

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def coords(self) -> np.ndarray:
        return _unpack(self.keys, self.spec.bits)

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


def voxelize(pc: PointCloud, spec: VoxelSpec = VoxelSpec()) -> SparseGrid:
    """Bucket points into stride-1 voxels.

    The grid's keys are the distinct keys of the points' cells (to_cells,
    then one distinct), and its 3 channels are the width of a voxel's
    (point count, mean intensity, mean time_flag) feature. Points outside
    the extents are dropped and counted in the grid's n_dropped.
    """
    _, cells = to_cells(pc.points, spec)
    return SparseGrid(spec, 1, distinct(_pack(cells, spec.bits)), 3, len(pc) - len(cells))


def downsample(grid: SparseGrid, width: int) -> SparseGrid:
    """Halve the spatial resolution (double the stride), to `width` channels.

    Parent occupancy is the union of child occupancies: the distinct keys
    of the children's parents.
    """
    if grid.stride > 4:
        raise ValueError(f"stride {grid.stride} cannot be downsampled further")
    keys = distinct(_coarsen(grid.keys, 1, grid.spec.bits))
    return SparseGrid(grid.spec, grid.stride * 2, keys, width, grid.n_dropped)


def fuse_hr(sf2: SparseGrid, sf4: SparseGrid) -> SparseGrid:
    """Fuse the second-stage and final-stage grids at stride 4 (0.3 m BEV).

    The stride-2 input is pooled down one step and the stride-8 input is
    replicated up onto its cells, so the output occupies the pooled stride-2
    footprint and carries the channels of both inputs side by side.
    """
    if sf2.stride != 2 or sf4.stride != 8:
        raise ValueError(f"fuse_hr expects strides (2, 8), got ({sf2.stride}, {sf4.stride})")
    if sf2.spec != sf4.spec:
        raise ValueError("inputs use different voxel specs")
    return downsample(sf2, sf2.channels + sf4.channels)


def fuse_ms(sf1: SparseGrid, sf2: SparseGrid, sf3: SparseGrid, sf4: SparseGrid,
            width: int = 64) -> SparseGrid:
    """Multi-scale fusion of all four encoder stages at stride 4.

    Every stage exchanges its channels with every other scale, then each is
    resampled to stride 4 and the stack is projected to `width` channels.
    The output occupies the union of SF1, SF2 and SF3 pooled to stride 4;
    SF4 is replicated up onto those cells and adds none.
    """
    grids = [sf1, sf2, sf3, sf4]
    strides = [g.stride for g in grids]
    if strides != [1, 2, 4, 8]:
        raise ValueError(f"fuse_ms expects strides [1, 2, 4, 8], got {strides}")
    if len({g.spec for g in grids}) != 1:
        raise ValueError("inputs use different voxel specs")
    spec = sf1.spec
    keys = distinct(np.concatenate([_coarsen(g.keys, 2 - level, spec.bits)
                                    for level, g in enumerate(grids[:3])]))
    return SparseGrid(spec, 4, keys, width, sf1.n_dropped)


def encoder_chain(base: SparseGrid, widths: tuple[int, int, int, int] = DEFAULT_WIDTHS
                  ) -> tuple[SparseGrid, SparseGrid, SparseGrid, SparseGrid]:
    """Build the four encoder stages SF1..SF4 from a stride-1 grid.

    SF1 keeps stride 1 at widths[0] channels; each later stage halves the
    resolution and changes width, ending at stride 8 (0.6 m BEV cells).
    """
    if base.stride != 1:
        raise ValueError("encoder chain starts from a stride-1 grid")
    sf1 = SparseGrid(base.spec, 1, base.keys, widths[0], base.n_dropped)
    sf2 = downsample(sf1, widths[1])
    sf3 = downsample(sf2, widths[2])
    sf4 = downsample(sf3, widths[3])
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
