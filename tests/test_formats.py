"""Round-trips and schema validation for the on-disk formats."""

import dataclasses
import hashlib
import json
import math
import os
import stat
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import frame_of, jsonl_text_by_dicts

from crowdmot import formats
from crowdmot.formats import (
    FormatError,
    atomic_write_text,
    read_detections_jsonl,
    read_grid,
    read_scene_jsonl,
    read_trajectories_jsonl,
    write_detections_jsonl,
    write_grid,
    write_offsets_jsonl,
    write_pgm,
    write_scene_jsonl,
    write_trajectories_jsonl,
)
from crowdmot.geometry import Frame, GridSpec
from crowdmot.simulator import NoiseConfig, SimConfig, corrupt, gen_scene
from crowdmot.targets import DenseGrid2D
from crowdmot.tracker import TrackerConfig, run_sequence


@pytest.fixture()
def scene():
    return gen_scene(
        SimConfig(
            n_pedestrians=12,
            n_frames=8,
            area=(-30.0, 30.0, -20.0, 20.0),
            target_density2=2.0,
            seed=0,
        )
    )


class TestSceneJsonl:
    def test_round_trip(self, scene, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_scene_jsonl(path, *scene)
        frames, timestamps = read_scene_jsonl(path)
        assert timestamps == scene[1]
        for a, b in zip(scene[0], frames, strict=True):
            assert_same(a, b)

    def test_objects_are_written_in_id_order(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        boxes = np.array([[float(k), 0.0, 0.8, 0.6, 0.5, 1.7, 0.1] for k in range(3)])
        write_scene_jsonl(path, [Frame(np.array([7, -2, 3]), boxes)], [0.0])
        line = json.loads(path.read_text())
        assert [(o["id"], o["cx"]) for o in line["objects"]] == [(-2, 1.0), (3, 2.0), (7, 0.0)]
        assert list(line["objects"][0]) == ["id", "cx", "cy", "cz", "l", "w", "h", "yaw"]

    def test_crlf_line_endings_read_as_lf(self, scene, tmp_path):
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        write_scene_jsonl(lf, *scene)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        (a, a_times), (b, b_times) = read_scene_jsonl(lf), read_scene_jsonl(crlf)
        assert a_times == b_times
        assert [(f.ids.tobytes(), f.boxes.tobytes()) for f in a] == [
            (f.ids.tobytes(), f.boxes.tobytes()) for f in b
        ]
        crlf.write_bytes(b'{"frame":0,"timestamp":0.0,"objects":[]}\r\n\r\n{nope}\r\n')
        with pytest.raises(FormatError, match="crlf.jsonl:3: invalid JSON"):
            read_scene_jsonl(crlf)

    def test_out_of_order_frames_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"frame":0,"timestamp":0.0,"objects":[]}\n'
            '{"frame":2,"timestamp":0.2,"objects":[]}\n'
        )
        with pytest.raises(FormatError):
            read_scene_jsonl(path)

    def test_missing_field_diagnoses_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"frame":0,"objects":[]}\n')
        with pytest.raises(FormatError, match="timestamp"):
            read_scene_jsonl(path)

    def test_invalid_json_diagnoses_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope}\n")
        with pytest.raises(FormatError, match="bad.jsonl:1"):
            read_scene_jsonl(path)


class TestDetectionsJsonl:
    def test_round_trip_with_relationships(self, scene, tmp_path):
        frames, times = scene
        dets = corrupt(frames, NoiseConfig(pos_sigma=0.05, clutter_rate=0.5, emit_rel=True, seed=2))
        path = tmp_path / "det.jsonl"
        write_detections_jsonl(path, dets, times)
        loaded, timestamps = read_detections_jsonl(path)
        assert timestamps == times
        for a, b in zip(dets, loaded, strict=True):
            assert_same(a, b)

    def test_newborn_and_rel_are_written_only_where_given(self, tmp_path):
        path = tmp_path / "det.jsonl"
        frame = Frame(
            np.array([2, 0, 1]),
            np.tile([1.0, 0.0, 0.8, 0.6, 0.5, 1.7, 0.1], (3, 1)),
            score=np.array([0.5, 0.25, 1.0]),
            offset=np.array([[0.0, -0.0, 1.0], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0]]),
            newborn=np.array([True, False, False]),
            rel=np.array([[np.nan, np.nan], [0.5, -1.0], [np.nan, np.nan]]),
            has_rel=np.array([True, True, False]),
        )
        write_detections_jsonl(path, [frame], [0.0])
        objects = json.loads(path.read_text())["objects"]
        tails = [{k: v for k, v in o.items() if k not in ("cx", "cy", "cz", "l", "w", "h", "yaw")}
                 for o in objects]
        assert tails == [
            {"id": 0, "score": 0.25, "offset": [0.5, 0.5, 0.5], "rel": [0.5, -1.0]},
            {"id": 1, "score": 1.0, "offset": [0.0, 0.0, 0.0]},
            {"id": 2, "score": 0.5, "offset": [0.0, -0.0, 1.0], "newborn": True, "rel": None},
        ]
        assert '"offset":[0.0,-0.0,1.0]' in path.read_text()

    def test_detection_requires_score_and_offset(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text(
            '{"frame":0,"timestamp":0.0,"objects":[{"id":0,"cx":0,"cy":0,"cz":0.8,'
            '"l":0.6,"w":0.6,"h":1.7,"yaw":0.0}]}\n'
        )
        with pytest.raises(FormatError, match="score"):
            read_detections_jsonl(path)

    @pytest.mark.parametrize("n_frames", [1, 3])
    def test_frame_count_must_match_timestamps(self, tmp_path, n_frames):
        path = tmp_path / "det.jsonl"
        with pytest.raises(ValueError, match="zip"):
            write_detections_jsonl(path, [frame_of([])] * n_frames, [0.0, 0.1])
        assert not path.exists()

    def test_non_finite_number_is_not_written(self, tmp_path):
        path = tmp_path / "det.jsonl"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_detections_jsonl(path, [frame_of([])], [float("nan")])
        assert not path.exists()


class TestOffsetsJsonl:
    def test_every_object_has_rel_null_where_undefined(self, tmp_path):
        path = tmp_path / "offsets.jsonl"
        frame = Frame(
            np.array([1, 0]),
            np.tile([1.0, 0.0, 0.8, 0.6, 0.5, 1.7, 0.1], (2, 1)),
            offset=np.array([[0.5, -0.0, 0.0], [0.0, 0.0, 0.0]]),
            newborn=np.array([False, True]),
            rel=np.array([[0.25, -1.0], [np.nan, np.nan]]),
        )
        write_offsets_jsonl(path, [frame], [0.0])
        assert json.loads(path.read_text())["objects"] == [
            {"id": 0, "offset": [0.0, 0.0, 0.0], "newborn": True, "rel": None},
            {"id": 1, "offset": [0.5, -0.0, 0.0], "newborn": False, "rel": [0.25, -1.0]},
        ]


class TestTrajectoriesJsonl:
    def test_round_trip_through_tracker(self, scene, tmp_path):
        gt, times = scene
        tracks = run_sequence(corrupt(gt, NoiseConfig(seed=1)), TrackerConfig())
        path = tmp_path / "traj.jsonl"
        write_trajectories_jsonl(path, tracks, times)
        frames, timestamps = read_trajectories_jsonl(path)
        assert timestamps == times
        assert sum(len(f) for f in frames) > 0
        for written, read in zip(tracks, frames, strict=True):
            assert written.ids.tobytes() == read.ids.tobytes()
            assert written.boxes.tobytes() == read.boxes.tobytes()


class TestGridFiles:
    def test_grid_round_trip_exact(self, tmp_path):
        grid = GridSpec(-3.0, 3.0, -1.5, 1.5, 0.5, 0.5)
        rng = np.random.default_rng(0)
        dense = DenseGrid2D(grid, rng.uniform(0, 3, (grid.nx, grid.ny)))
        path = tmp_path / "x.grid"
        write_grid(path, dense)
        loaded = read_grid(path)
        assert loaded.grid == grid
        np.testing.assert_array_equal(loaded.values, dense.values)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.grid"
        path.write_text("2 2 0.5 0.5 0.0 0.0\n1.0 2.0\n")
        with pytest.raises(FormatError):
            read_grid(path)

    def test_pgm_shape_and_range(self, tmp_path):
        grid = GridSpec(0.0, 2.0, 0.0, 1.0, 0.5, 0.5)
        dense = DenseGrid2D(grid, np.array([[0.0, 1.0], [0.25, 0.5], [0.75, 1.0], [0.1, 0.0]]))
        path = tmp_path / "x.pgm"
        write_pgm(path, dense)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "4 2"
        values = [int(v) for row in lines[3:] for v in row.split()]
        assert len(values) == 8 and max(values) == 255 and min(values) >= 0


def per_value_grid_text(dense):
    spec = dense.grid
    header = f"{spec.nx} {spec.ny} {spec.dx!r} {spec.dy!r} {spec.x_min!r} {spec.y_min!r}"
    rows = [" ".join(repr(float(v)) for v in row) for row in dense.values]
    return "\n".join([header, *rows]) + "\n"


def per_value_pgm_text(dense):
    values = dense.values
    peak = float(values.max())
    scaled = np.zeros_like(values, dtype=np.int64)
    if peak > 0:
        # A subnormal peak overflows a negative cell's ratio to -inf, which clips to 0.
        with np.errstate(over="ignore"):
            scaled = np.clip(np.round(values / peak * 255.0), 0, 255).astype(np.int64)
    nx, ny = scaled.shape
    rows = [" ".join(str(v) for v in scaled[:, k]) for k in range(ny - 1, -1, -1)]
    return f"P2\n{nx} {ny}\n255\n" + "\n".join(rows) + "\n"


TINY = float(np.nextafter(0.0, 1.0))  # the smallest subnormal


class TestWritersMatchPerValueText:
    """The table-driven writers emit exactly the per-value repr/str text."""

    CASES = {
        "signed_zeros": (
            GridSpec(0.0, 1.5, 0.0, 1.0, 0.5, 0.5),
            [[-0.0, 0.0], [0.0, -0.0], [-0.0, 1.0]],
        ),
        "subnormals": (GridSpec(0.0, 1.0, 0.0, 1.0, 0.5, 0.5), [[TINY, -TINY], [0.0, -0.0]]),
        "extremes": (
            GridSpec(0.0, 1.0, 0.0, 1.5, 0.5, 0.5),
            [[float("nan"), 1e300, -1e-300], [-float("nan"), 0.1 + 0.2, 1e-300]],
        ),
        "one_row": (
            GridSpec(0.0, 0.5, 0.0, 3.5, 0.5, 0.5),
            [[0.25, 1.0, 0.25, 0.0, 0.5, 0.75, 1.0]],
        ),
        "one_column": (
            GridSpec(0.0, 3.5, 0.0, 0.5, 0.5, 0.5),
            [[0.25], [1.0], [0.25], [0.0], [0.5], [0.75], [1.0]],
        ),
        "all_zero": (GridSpec(-1.0, 1.0, -0.5, 0.5, 0.5, 0.5), np.zeros((4, 2))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_write_grid(self, tmp_path, case):
        spec, values = self.CASES[case]
        dense = DenseGrid2D(spec, np.array(values, dtype=np.float64))
        write_grid(tmp_path / "x.grid", dense)
        assert (tmp_path / "x.grid").read_text() == per_value_grid_text(dense)

    @pytest.mark.parametrize(
        "case", ["signed_zeros", "subnormals", "one_row", "one_column", "all_zero"]
    )
    def test_write_pgm(self, tmp_path, case):
        spec, values = self.CASES[case]
        dense = DenseGrid2D(spec, np.array(values, dtype=np.float64))
        write_pgm(tmp_path / "x.pgm", dense)
        assert (tmp_path / "x.pgm").read_text() == per_value_pgm_text(dense)

    def test_pgm_of_a_random_grid(self, tmp_path):
        spec = GridSpec(-3.0, 3.0, -1.5, 1.5, 0.25, 0.5)
        dense = DenseGrid2D(spec, np.random.default_rng(3).uniform(0, 7, (spec.nx, spec.ny)))
        write_pgm(tmp_path / "x.pgm", dense)
        assert (tmp_path / "x.pgm").read_text() == per_value_pgm_text(dense)

    def test_grid_of_a_non_contiguous_array(self, tmp_path):
        spec = GridSpec(0.0, 1.0, 0.0, 1.5, 0.5, 0.5)
        values = np.arange(6.0).reshape(3, 2).T * -0.5
        dense = DenseGrid2D(spec, values)
        write_grid(tmp_path / "x.grid", dense)
        assert (tmp_path / "x.grid").read_text() == per_value_grid_text(dense)


class TestGridReprMemo:
    """write_grid's memo of float texts changes no byte, cold, warm or absent."""

    VALUES = [[0.0, -0.0, TINY, 1e-317], [-1e-317, 2.2250738585072009e-308, -TINY, 1.0], [0.0] * 4]

    def test_same_bytes_with_cold_warm_and_no_memo(self, tmp_path):
        dense = DenseGrid2D(GridSpec(0.0, 1.5, 0.0, 2.0, 0.5, 0.5), np.array(self.VALUES))
        memo = {}
        digests = [
            write_grid(tmp_path / "none.grid", dense),
            write_grid(tmp_path / "cold.grid", dense, memo),
            write_grid(tmp_path / "warm.grid", dense, memo),
        ]
        texts = {name: (tmp_path / f"{name}.grid").read_bytes() for name in ("none", "cold", "warm")}
        assert len(set(digests)) == 1 and len(set(texts.values())) == 1
        assert texts["none"].decode() == per_value_grid_text(dense)
        # Keyed on bit patterns: 0.0 and -0.0 are two entries.
        assert memo[0] == "0.0" and memo[1 << 63] == "-0.0"

    def test_a_memo_holding_zero_still_writes_minus_zero(self, tmp_path):
        memo = {}
        spec = GridSpec(0.0, 0.5, 0.0, 1.0, 0.5, 0.5)
        write_grid(tmp_path / "zero.grid", DenseGrid2D(spec, np.array([[0.0, 1e-317]])), memo)
        write_grid(tmp_path / "minus.grid", DenseGrid2D(spec, np.array([[-0.0, 1e-317]])), memo)
        assert (tmp_path / "minus.grid").read_text().splitlines()[1] == "-0.0 1e-317"


SUBNORMALS = st.sampled_from([TINY, 3 * TINY, 2.2250738585072009e-308])
_TABLE_VALUES = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0]) | SUBNORMALS | SUBNORMALS.map(
    lambda v: -v
)


class TestReprTable:
    """_repr_table's argsort path (mostly distinct values) and searchsorted path agree."""

    @staticmethod
    def check(values):
        """The table and codes of values, checked against np.unique of the bit patterns."""
        table, codes = formats._repr_table(values)
        patterns, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        assert table.tolist() == list(map(repr, patterns.view(np.float64).tolist()))
        assert codes.tolist() == inverse.reshape(values.shape).tolist()
        return table, codes

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_TABLE_VALUES, min_size=1, max_size=40))
    @example(values=[0.0, -0.0, TINY, -TINY])
    @example(values=[-0.0] * 9)
    @example(values=[float(k) for k in range(30)])
    def test_both_paths_give_the_same_table_and_codes(self, values):
        values = np.array(values)
        table, codes = self.check(values)
        # Five copies hold at most a fifth of their values distinct, so they
        # take the searchsorted path; values over a quarter distinct take the
        # argsort path.
        tiled_table, tiled_codes = self.check(np.tile(values, 5).reshape(5, -1))
        assert tiled_table.tolist() == table.tolist()
        assert tiled_codes.tolist() == [codes.tolist()] * 5


@st.composite
def sparse_grids(draw):
    """Small grids, mostly one fill value per row with a few cells set.

    Rows are all 0.0, all -0.0 or sparse, or, in a negative grid, filled with
    a negative value so that no cell is 0.0; values include subnormals.
    """
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    values = st.floats(allow_nan=False, allow_infinity=False) | SUBNORMALS | SUBNORMALS.map(
        lambda v: -v
    )
    negative = draw(st.booleans())
    if negative:
        values = values.map(lambda v: -abs(v) or -TINY)
    fills = values if negative else st.sampled_from([0.0, -0.0])
    rows = []
    for _ in range(nx):
        row = [draw(fills)] * ny
        for k in draw(st.lists(st.integers(0, ny - 1), max_size=3)):
            row[k] = draw(values)
        rows.append(row)
    return np.array(rows, dtype=np.float64)


class TestWritersOnSparseGrids:
    """Both writers against the per-value oracles, on grids with shared rows.

    The grid writer also runs with one memo kept warm across all examples.
    """

    MEMO: dict = {}

    @settings(max_examples=300, deadline=None)
    @given(values=sparse_grids())
    @example(values=np.zeros((1, 5)))
    @example(values=np.full((5, 1), -0.0))
    @example(values=np.array([[-0.0, -0.0], [0.0, 0.0], [-TINY, 0.0]]))
    @example(values=np.array([[-1.0, -1.0, -1.0], [-1.0, -TINY, -1.0]]))
    def test_match_per_value_text(self, values):
        nx, ny = values.shape
        dense = DenseGrid2D(GridSpec(0.0, 0.5 * nx, 0.0, 0.5 * ny, 0.5, 0.5), values)
        with tempfile.TemporaryDirectory() as tmp:
            write_grid(Path(tmp) / "x.grid", dense)
            write_grid(Path(tmp) / "memo.grid", dense, self.MEMO)
            write_pgm(Path(tmp) / "x.pgm", dense)
            assert (Path(tmp) / "x.grid").read_text() == per_value_grid_text(dense)
            assert (Path(tmp) / "memo.grid").read_text() == per_value_grid_text(dense)
            assert (Path(tmp) / "x.pgm").read_text() == per_value_pgm_text(dense)


# The bulk reader against the per-object decoder. A frame goes through both:
# the readers as they are, and the readers with the bulk check switched off,
# so that every frame is decoded object by object. They must agree on every
# bit of every column, or raise the same message.

OVERFLOW = "overflow-marker"  # written as the JSON number 1e400, which reads as inf
LARGEST_INT = int(sys.float_info.max)
READERS = {
    "gt": read_scene_jsonl,
    "det": read_detections_jsonl,
    "traj": read_trajectories_jsonl,
}
BOX_KEYS = ("cx", "cy", "cz", "l", "w", "h", "yaw")
# Values that may take the place of any field: ints in and out of float
# range, bools, non-numbers, lists of the wrong length or content.
ODD_VALUES = [
    0, 1, -1, LARGEST_INT, LARGEST_INT + 1, -LARGEST_INT - 1, 2**63, -2**63 - 1, True, False,
    None, "1.5", OVERFLOW, -0.0, 0.0, 1.5, -1.0, 5e-324, math.pi, -math.pi,
    [], [0.0], [0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1], [0.0, OVERFLOW], [True, 0.0, 0.0],
    [0.0, 0.0, OVERFLOW],
]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_YAW = st.one_of(
    _FINITE,
    st.sampled_from([-0.0, math.pi, -math.pi, math.nextafter(-math.pi, -math.inf),
                     math.nextafter(math.pi, math.inf), 3 * math.pi]),
)
_SIDE = st.floats(min_value=5e-324, allow_infinity=False)


@st.composite
def jsonl_objects(draw, kind):
    """A frame's objects of one kind, valid or with a few fields made odd or dropped."""
    objects = []
    for k in range(draw(st.integers(0, 4))):
        obj = {"id": draw(st.integers(0, 5)) if draw(st.integers(0, 9)) == 0 else k}
        for key in BOX_KEYS:
            obj[key] = draw(_SIDE if key in ("l", "w", "h") else _YAW if key == "yaw" else _FINITE)
        if kind != "gt":
            obj["score"] = draw(st.floats(0.0, 1.0))
        if kind == "det":
            obj["offset"] = draw(st.lists(_FINITE, min_size=3, max_size=3))
            newborn = draw(st.sampled_from(["absent", True, False]))
            if newborn != "absent":
                obj["newborn"] = newborn
            rel = draw(st.one_of(st.just("absent"), st.none(), st.lists(_FINITE, min_size=2, max_size=2)))
            if rel != "absent":
                obj["rel"] = rel
        objects.append(obj)
    for _ in range(draw(st.integers(0, 2)) if objects else 0):
        obj = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(sorted(obj) + ["newborn", "rel"]))
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(st.sampled_from(ODD_VALUES))
    return objects


def jsonl_line(objects):
    line = json.dumps({"frame": 0, "timestamp": 0.0, "objects": objects})
    return line.replace(f'"{OVERFLOW}"', "1e400")


def read_frame(reader, path):
    """The one frame the file holds, or the message the reader raised."""
    try:
        frames, _ = reader(path)
    except FormatError as exc:
        return str(exc)
    return frames[0]


def read_one_by_one(reader, path):
    def never(objects):
        return None

    with mock.patch.object(formats, "_box_columns", never), \
            mock.patch.object(formats, "_detection_columns", never):
        return read_frame(reader, path)


def assert_same(bulk, one_by_one):
    if isinstance(bulk, str) or isinstance(one_by_one, str):
        assert bulk == one_by_one
        return
    for field in dataclasses.fields(Frame):
        a, b = getattr(bulk, field.name), getattr(one_by_one, field.name)
        if a is None or b is None:
            assert a is b, field.name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name


def bulk_and_one_by_one(kind, objects):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.jsonl"
        path.write_text(jsonl_line(objects) + "\n")
        reader = READERS[kind]
        return read_frame(reader, path), read_one_by_one(reader, path)


DET = {"id": 0, "cx": 1.0, "cy": -2.0, "cz": 0.8, "l": 0.6, "w": 0.5, "h": 1.7, "yaw": 0.3,
       "score": 0.9, "offset": [0.1, -0.2, 0.0], "newborn": False, "rel": [0.5, 0.5]}


class TestBulkReader:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_object_decoder(self, data):
        kind = data.draw(st.sampled_from(sorted(READERS)))
        objects = data.draw(jsonl_objects(kind))
        assert_same(*bulk_and_one_by_one(kind, objects))

    @pytest.mark.parametrize(
        "change, bulk_passes",
        [
            ({"cx": -0.0, "yaw": -0.0}, True),
            ({"yaw": math.pi}, True),
            ({"yaw": -math.pi}, True),
            ({"yaw": math.nextafter(-math.pi, -math.inf)}, True),
            ({"cx": OVERFLOW}, False),
            ({"l": -1.0}, False),
            ({"w": 0.0}, False),
            ({"h": -0.0}, False),
            ({"offset": [0.0, OVERFLOW, 0.0]}, False),
            ({"rel": [OVERFLOW, 0.0]}, False),
            ({"cy": LARGEST_INT}, False),
            ({"cy": LARGEST_INT + 1}, False),
            ({"l": True}, False),
            ({"score": False}, False),
            ({"h": None}, False),
            ({"rel": None}, True),
            ({"rel": [0.5]}, False),
            ({"rel": [0.5, 0.5, 0.5]}, False),
            ({"newborn": 1}, False),
            ({"newborn": True}, True),
            ({"score": 1.5}, False),
            ({"score": -0.0}, True),
            ({"score": 1}, False),
            ({"offset": [0.0, 0.0]}, False),
            ({"id": 2**63}, False),
            ({"id": True}, False),
        ],
    )
    def test_explicit_cases(self, change, bulk_passes):
        objects = [dict(DET, **change), dict(DET, id=1)]
        bulk, one_by_one = bulk_and_one_by_one("det", objects)
        assert_same(bulk, one_by_one)
        decoded = json.loads(jsonl_line(objects))["objects"]
        assert (formats._detection_columns(decoded) is not None) == bulk_passes

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("drop", ["id", "cx", "yaw", "score", "offset", "newborn", "rel"])
    def test_missing_key(self, kind, drop):
        objects = [DET, {k: v for k, v in dict(DET, id=1).items() if k != drop}]
        assert_same(*bulk_and_one_by_one(kind, objects))

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_duplicate_id(self, kind):
        bulk, one_by_one = bulk_and_one_by_one(kind, [DET, DET])
        assert bulk == one_by_one and bulk.endswith(": duplicate id 0")

    def test_rel_absent_null_and_given_in_one_frame(self):
        objects = [DET, dict(DET, id=1, rel=None), {k: v for k, v in DET.items() if k != "rel"}]
        objects[2]["id"] = 2
        bulk, one_by_one = bulk_and_one_by_one("det", objects)
        assert_same(bulk, one_by_one)
        assert bulk.has_rel.tolist() == [True, True, False]
        assert not np.isnan(bulk.rel[0]).any() and np.isnan(bulk.rel[1:]).all()

    def test_int_fields_take_the_per_object_path_and_are_accepted(self):
        objects = [dict(DET, cx=1, score=1, offset=[0, 0, 0])]
        bulk, one_by_one = bulk_and_one_by_one("det", objects)
        assert_same(bulk, one_by_one)
        assert bulk.boxes[0, 0] == 1.0 and bulk.score.tolist() == [1.0]


class TestReaderDigests:
    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize(
        "ending", ["\n", "\r\n\n  \n", ""], ids=["newline", "crlf-blank-lines", "no-newline"]
    )
    def test_a_reader_hashes_every_byte_of_the_file(self, tmp_path, kind, ending):
        second = json.dumps({"frame": 1, "timestamp": 0.1, "objects": [DET]})
        data = (jsonl_line([DET]) + ending + "\n" + second + ending).encode()
        path = tmp_path / "in.jsonl"
        path.write_bytes(data)
        digest = hashlib.sha256()
        frames, _ = READERS[kind](path, digest)
        assert len(frames) == 2 and digest.hexdigest() == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("name", ["points.npy", "points.npz"])
    def test_read_npy_hashes_the_file_it_read(self, tmp_path, name):
        path = tmp_path / name
        values = np.arange(12.0).reshape(4, 3)
        with open(path, "wb") as handle:
            (np.save if name.endswith(".npy") else np.savez)(handle, values)
        digest = hashlib.sha256()
        array = formats.read_npy(path, digest)
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
        if name.endswith(".npz"):
            assert array is None
        else:
            assert array.tobytes() == values.tobytes() and not array.flags.writeable


# The JSONL writers against the dict + json.dumps oracle, byte for byte.

WRITERS = {
    "scene": write_scene_jsonl,
    "detections": write_detections_jsonl,
    "trajectories": write_trajectories_jsonl,
    "offsets": write_offsets_jsonl,
}
# The columns, besides ids and boxes, that each writer's frames carry in the pipeline.
CARRIED = {
    "scene": (),
    "detections": ("score", "offset", "newborn", "rel", "has_rel"),
    "trajectories": ("score",),
    "offsets": ("offset", "newborn", "rel"),
}
EDGE_FLOATS = [
    -0.0, 0.0, TINY, -TINY, 2.2250738585072009e-308, 1e308, -1e308, sys.float_info.max,
    0.1 + 0.2, 1.0, -1.5, 1e16, 1e-7, 123456789.0,
]


def carried(frame, kind):
    """frame with only the columns a frame of kind carries."""
    dropped = set(CARRIED["detections"]) - set(CARRIED[kind])
    return dataclasses.replace(frame, **{name: None for name in dropped})


@st.composite
def writer_frames(draw):
    """Detection-column frames and their timestamps, the floats drawn from a few values.

    Every float comes from a small pool of edge and random values, so values
    repeat within and across frames and columns. Ids are unique, unsorted
    and span int64. Each rel row is undefined (NaN), defined, null with an
    infinite ry, or, where has_rel is not set, infinite: the detection
    writer leaves it out and the offsets writer rejects it.
    """
    pool = draw(st.lists(st.sampled_from(EDGE_FLOATS) | _FINITE, min_size=1, max_size=6))
    value = st.sampled_from(pool) | st.sampled_from(EDGE_FLOATS) | _FINITE

    def floats(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(value, min_size=size, max_size=size)), dtype=float).reshape(shape)

    frames = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 5))
        ids = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n, unique=True))
        has_rel = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        rel = floats(n, 2)
        for k in range(n):
            kinds = ["undefined", "defined", "null"] + ([] if has_rel[k] else ["infinite"])
            rel[k] = {"undefined": [math.nan, math.nan], "defined": rel[k],
                      "null": [math.nan, math.inf], "infinite": [math.inf, -math.inf]}[
                draw(st.sampled_from(kinds))]
        frames.append(Frame(
            np.array(ids, dtype=np.int64).reshape(-1), floats(n, 7), score=floats(n),
            offset=floats(n, 3),
            newborn=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
            rel=rel, has_rel=has_rel,
        ))
    return frames, draw(st.lists(value, min_size=len(frames), max_size=len(frames)))


class TestJsonlWritersMatchDictText:
    """Each JSONL writer writes the bytes of one json.dumps per frame of per-object dicts."""

    @settings(max_examples=60, deadline=None)
    @given(data=writer_frames())
    @example(data=([], []))
    @example(data=([frame_of([]), frame_of([])], [0.0, -0.0]))
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_match_the_dict_oracle(self, kind, data):
        frames, timestamps = data
        frames = [carried(frame, kind) for frame in frames]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.jsonl"
            try:
                expected = jsonl_text_by_dicts(kind, frames, timestamps)
            except ValueError:
                with pytest.raises(ValueError, match="JSON compliant"):
                    WRITERS[kind](path, frames, timestamps)
                assert not any(Path(tmp).iterdir())
                return
            digest = WRITERS[kind](path, frames, timestamps)
            assert path.read_text() == expected
            assert digest == hashlib.sha256(expected.encode()).hexdigest()

    WRITTEN = {
        "scene": ["boxes", "timestamp"],
        "trajectories": ["boxes", "score", "timestamp"],
        "detections": ["boxes", "score", "offset", "rx", "ry", "timestamp"],
        "offsets": ["offset", "rx", "ry", "timestamp"],
    }

    @pytest.mark.parametrize(
        "kind, column, bad",
        [
            (kind, column, bad)
            for kind, columns in WRITTEN.items()
            for column in columns
            for bad in (math.nan, math.inf, -math.inf)
            if not (column == "rx" and math.isnan(bad))  # a NaN rx writes rel as null
        ],
    )
    def test_non_finite_written_float_raises_and_writes_nothing(self, tmp_path, kind, column, bad):
        n = 3
        frame = Frame(
            np.array([2, 0, 1]), np.tile([1.0, 0.0, 0.8, 0.6, 0.5, 1.7, 0.1], (n, 1)),
            score=np.full(n, 0.5), offset=np.zeros((n, 3)), newborn=np.zeros(n, dtype=bool),
            rel=np.full((n, 2), 0.25), has_rel=np.ones(n, dtype=bool),
        )
        timestamps = [0.0, 0.1]
        if column == "timestamp":
            timestamps[1] = bad
        elif column in ("rx", "ry"):
            frame.rel[1, ["rx", "ry"].index(column)] = bad
        else:
            getattr(frame, column).reshape(n, -1)[1, -1] = bad
        frames = [carried(frame_of([]), kind), carried(frame, kind)]
        with pytest.raises(ValueError, match="JSON compliant"):
            jsonl_text_by_dicts(kind, frames, timestamps)
        with pytest.raises(ValueError, match="JSON compliant"):
            WRITERS[kind](tmp_path / "out.jsonl", frames, timestamps)
        assert list(tmp_path.iterdir()) == []


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_output_mode_follows_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "out.txt", "text\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_a_failed_rename_leaves_no_temporary_file(self, tmp_path):
        with mock.patch.object(formats.os, "replace", side_effect=OSError("disk gone")):
            with pytest.raises(OSError, match="disk gone"):
                atomic_write_text(tmp_path / "out.txt", "text\n")
        assert list(tmp_path.iterdir()) == []
