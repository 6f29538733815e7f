"""Round-trips and schema validation for the on-disk formats."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdmot.formats import (
    FormatError,
    read_detections_jsonl,
    read_grid,
    read_scene_jsonl,
    read_trajectories_jsonl,
    write_detections_jsonl,
    write_grid,
    write_pgm,
    write_scene_jsonl,
    write_trajectories_jsonl,
)
from crowdmot.geometry import GridSpec
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
        write_scene_jsonl(path, scene)
        loaded = read_scene_jsonl(path)
        assert loaded.timestamps == scene.timestamps
        for a, b in zip(scene.frames, loaded.frames):
            assert sorted(a, key=lambda o: o.instance_id) == list(b)

    def test_crlf_line_endings_read_as_lf(self, scene, tmp_path):
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        write_scene_jsonl(lf, scene)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = read_scene_jsonl(lf), read_scene_jsonl(crlf)
        assert (a.frames, a.timestamps) == (b.frames, b.timestamps)
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
        dets = corrupt(scene, NoiseConfig(pos_sigma=0.05, clutter_rate=0.5, emit_rel=True, seed=2))
        path = tmp_path / "det.jsonl"
        write_detections_jsonl(path, dets, scene.timestamps)
        loaded, timestamps = read_detections_jsonl(path)
        assert timestamps == scene.timestamps
        assert loaded == dets

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
            write_detections_jsonl(path, [[]] * n_frames, [0.0, 0.1])
        assert not path.exists()

    def test_non_finite_number_is_not_written(self, tmp_path):
        path = tmp_path / "det.jsonl"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_detections_jsonl(path, [[]], [float("nan")])
        assert not path.exists()


class TestTrajectoriesJsonl:
    def test_round_trip_through_tracker(self, scene, tmp_path):
        dets = corrupt(scene, NoiseConfig(seed=1))
        trajectories = run_sequence(dets, TrackerConfig())
        path = tmp_path / "traj.jsonl"
        write_trajectories_jsonl(path, trajectories, scene.timestamps)
        frames, timestamps = read_trajectories_jsonl(path)
        assert timestamps == scene.timestamps
        total = sum(len(f) for f in frames)
        assert total == sum(len(t.entries) for t in trajectories)
        boxes = {(f, tid): box for f, fr in enumerate(frames) for tid, box in fr}
        for t in trajectories:
            for frame, box, _ in t.entries:
                assert boxes[(frame, t.track_id)] == box


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


SUBNORMALS = st.sampled_from([TINY, 3 * TINY, 2.2250738585072009e-308])


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
    """Both writers against the per-value oracles, on grids with shared rows."""

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
            write_pgm(Path(tmp) / "x.pgm", dense)
            assert (Path(tmp) / "x.grid").read_text() == per_value_grid_text(dense)
            assert (Path(tmp) / "x.pgm").read_text() == per_value_pgm_text(dense)
