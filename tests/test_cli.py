"""Command-line pipelines: outputs, manifests, determinism, diagnostics."""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdmot.cli import main
from crowdmot.formats import read_grid, sha256_file

CONFIG = """\
[sim]
n_pedestrians = 10
n_frames = 6
x_min = -30
x_max = 30
y_min = -20
y_max = 20
target_density2 = 2.5
seed = 4

[noise]
pos_sigma = 0.05
p_miss = 0.05
clutter_rate = 0.5
seed = 5
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "scene.ini"
    path.write_text(CONFIG)
    return path


@pytest.fixture()
def gen_dir(tmp_path, config_path):
    out = tmp_path / "gen"
    assert main(["gen", "--config", str(config_path), "--out", str(out)]) == 0
    return out


def digest_dir(path):
    return {p.name: sha256_file(p) for p in sorted(path.iterdir()) if p.is_file()}


class TestGen:
    def test_produces_outputs_and_manifest(self, gen_dir):
        assert (gen_dir / "gt.jsonl").read_text().count("\n") == 6
        assert (gen_dir / "det.jsonl").exists()
        manifest = json.loads((gen_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["config"]["sim"]["n_pedestrians"] == 10
        assert manifest["config"]["noise"]["pos_sigma"] == 0.05
        assert len(manifest["outputs"]) == 2

    def test_rerun_is_byte_identical(self, tmp_path, config_path, gen_dir):
        other = tmp_path / "gen2"
        assert main(["gen", "--config", str(config_path), "--out", str(other)]) == 0
        assert digest_dir(gen_dir) == digest_dir(other)

    def test_seed_flag_changes_outputs(self, tmp_path, config_path, gen_dir):
        other = tmp_path / "gen3"
        assert main(["gen", "--config", str(config_path), "--out", str(other), "--seed", "99"]) == 0
        assert digest_dir(gen_dir)["gt.jsonl"] != digest_dir(other)["gt.jsonl"]

    def test_readme_quick_start_config_runs_verbatim(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        config = tmp_path / "scene.ini"
        config.write_text(block)
        out = tmp_path / "gen"
        assert main(["gen", "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["sim"]["target_density2"] == 3.8
        assert manifest["config"]["noise"]["clutter_rate"] == 1.0

    def test_missing_required_field_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sim]\nn_pedestrians = 5\n")
        rc = main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc != 0
        assert "n_frames" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unparseable_field_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sim]\nn_pedestrians = many\nn_frames = 5\n")
        rc = main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc != 0
        err = capsys.readouterr().err
        assert "n_pedestrians" in err and "many" in err


    @pytest.mark.parametrize(
        "text, message",
        [
            ("[sim]\nseed = 1\nseed = 2\n", "option 'seed' in section 'sim' already exists"),
            ("seed = 1\n[sim]\n", "File contains no section headers."),
        ],
        ids=["repeated-key", "no-section-header"],
    )
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        out = tmp_path / "o"
        assert main(["gen", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()


class TestTargets:
    def test_empty_frame_yields_zero_heatmap(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"frame":0,"timestamp":0.0,"objects":[]}\n')
        out = tmp_path / "targets"
        rc = main(
            ["targets", "--gt", str(gt), "--out", str(out), "--grid", "0.5,0.5",
             "--extent=-5,5,-5,5"]
        )
        assert rc == 0
        heat = read_grid(out / "heatmap_0000.grid")
        assert not heat.values.any()

    def test_single_object_peak_and_offsets(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(
            '{"frame":0,"timestamp":0.0,"objects":[{"id":3,"cx":1.0,"cy":-1.0,"cz":0.8,'
            '"l":0.6,"w":0.6,"h":1.7,"yaw":0.0}]}\n'
        )
        out = tmp_path / "targets"
        rc = main(
            ["targets", "--gt", str(gt), "--out", str(out), "--grid", "0.5,0.5",
             "--extent=-5,5,-5,5", "--dump-pgm"]
        )
        assert rc == 0
        heat = read_grid(out / "heatmap_0000.grid")
        assert heat.values.max() == 1.0
        weights = read_grid(out / "weights_0000.grid")
        assert weights.values.max() == 1.0
        assert (out / "heatmap_0000.pgm").exists()
        offsets = json.loads((out / "offsets.jsonl").read_text())
        obj = offsets["objects"][0]
        assert obj["id"] == 3 and obj["newborn"] is True and obj["rel"] is None

    def test_full_pipeline_targets(self, gen_dir, tmp_path):
        out = tmp_path / "targets"
        rc = main(
            ["targets", "--gt", str(gen_dir / "gt.jsonl"), "--out", str(out),
             "--grid", "0.5,0.5", "--extent=-30,30,-20,20"]
        )
        assert rc == 0
        assert len(list(out.glob("heatmap_*.grid"))) == 6
        assert len(list(out.glob("weights_*.grid"))) == 6

    def test_object_outside_grid_leaves_no_partial_outputs(self, gen_dir, tmp_path, capsys):
        out = tmp_path / "targets"
        rc = main(
            ["targets", "--gt", str(gen_dir / "gt.jsonl"), "--out", str(out),
             "--grid", "0.5,0.5", "--extent=-5,5,-5,5"]
        )
        assert rc != 0
        assert not out.exists()

    def test_quiet_env_silences_stdout(self, gen_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CROWDMOT_LOG", "quiet")
        out = tmp_path / "density"
        assert main(["density", "--gt", str(gen_dir / "gt.jsonl"), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert (out / "density.txt").exists()


class TestTrackAndEval:
    def test_empty_detections_give_empty_trajectories(self, tmp_path):
        det = tmp_path / "det.jsonl"
        det.write_text('{"frame":0,"timestamp":0.0,"objects":[]}\n')
        out = tmp_path / "trk"
        assert main(["track", "--det", str(det), "--out", str(out)]) == 0
        assert (out / "traj.jsonl").read_text() == '{"frame":0,"timestamp":0.0,"objects":[]}\n'

    def test_zero_noise_pipeline_reaches_perfect_mota(self, tmp_path):
        config = tmp_path / "clean.ini"
        config.write_text(
            "[sim]\nn_pedestrians = 8\nn_frames = 10\nx_min = -30\nx_max = 30\n"
            "y_min = -20\ny_max = 20\ntarget_density2 = 2.0\nseed = 1\n"
        )
        gen_out = tmp_path / "gen"
        assert main(["gen", "--config", str(config), "--out", str(gen_out)]) == 0
        trk_out = tmp_path / "trk"
        assert main(["track", "--det", str(gen_out / "det.jsonl"), "--out", str(trk_out)]) == 0
        traj_lines = (trk_out / "traj.jsonl").read_text().splitlines()
        ids = {o["id"] for line in traj_lines for o in json.loads(line)["objects"]}
        assert len(ids) == 8
        eval_out = tmp_path / "eval"
        rc = main(
            ["eval", "--gt", str(gen_out / "gt.jsonl"), "--traj", str(trk_out / "traj.jsonl"),
             "--out", str(eval_out)]
        )
        assert rc == 0
        report = (eval_out / "report.txt").read_text()
        assert "MOTA 1.0" in report
        assert "density@2.0m" in report

    def test_eval_arithmetic_fixture(self, tmp_path):
        # Two GT objects over five frames (P=10). Track 0 covers object 0 but
        # changes id at frame 2 (IDS=1); object 1 is missed twice (FN=2); one
        # far-away box is a false positive (FP=1). MOTA = 1 - 4/10 = 0.6.
        gt_lines, tr_lines = [], []
        for f in range(5):
            gt_lines.append(json.dumps({
                "frame": f, "timestamp": float(f), "objects": [
                    {"id": 0, "cx": 0.0, "cy": 0.0, "cz": 0.8, "l": 0.6, "w": 0.6, "h": 1.7, "yaw": 0.0},
                    {"id": 1, "cx": 5.0, "cy": 0.0, "cz": 0.8, "l": 0.6, "w": 0.6, "h": 1.7, "yaw": 0.0},
                ]}))
            objs = [{"id": 10 if f < 2 else 11, "cx": 0.0, "cy": 0.0, "cz": 0.8,
                     "l": 0.6, "w": 0.6, "h": 1.7, "yaw": 0.0, "score": 0.9}]
            if f < 3:
                objs.append({"id": 20, "cx": 5.0, "cy": 0.0, "cz": 0.8,
                             "l": 0.6, "w": 0.6, "h": 1.7, "yaw": 0.0, "score": 0.9})
            if f == 0:
                objs.append({"id": 30, "cx": 15.0, "cy": 5.0, "cz": 0.8,
                             "l": 0.6, "w": 0.6, "h": 1.7, "yaw": 0.0, "score": 0.9})
            tr_lines.append(json.dumps({"frame": f, "timestamp": float(f), "objects": objs}))
        gt = tmp_path / "gt.jsonl"
        tr = tmp_path / "traj.jsonl"
        gt.write_text("\n".join(gt_lines) + "\n")
        tr.write_text("\n".join(tr_lines) + "\n")
        out = tmp_path / "eval"
        assert main(["eval", "--gt", str(gt), "--traj", str(tr), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "MOTA 0.6" in report
        assert "IDS 1" in report and "FP 1" in report and "FN 2" in report

    def test_mismatched_gt_traj_counts_fail(self, tmp_path, gen_dir, capsys):
        rc = main(
            ["eval", "--gt", str(gen_dir / "gt.jsonl"), str(gen_dir / "gt.jsonl"),
             "--traj", str(gen_dir / "gt.jsonl"), "--out", str(tmp_path / "e")]
        )
        assert rc != 0

    def test_missing_input_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["track", "--det", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        assert rc != 0


class TestDensity:
    def test_reports_value(self, gen_dir, tmp_path, capsys):
        out = tmp_path / "density"
        rc = main(["density", "--gt", str(gen_dir / "gt.jsonl"), "--out", str(out)])
        assert rc == 0
        text = (out / "density.txt").read_text()
        assert text.startswith("density@2.0m ")
        assert float(text.split()[1]) > 0

    def test_custom_radius(self, gen_dir, tmp_path):
        out = tmp_path / "density"
        rc = main(["density", "--gt", str(gen_dir / "gt.jsonl"), "--out", str(out), "--radius", "4.0"])
        assert rc == 0
        assert "density@4.0m" in (out / "density.txt").read_text()

    def test_single_pedestrian_is_zero(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(
            '{"frame":0,"timestamp":0.0,"objects":[{"id":0,"cx":0.0,"cy":0.0,"cz":0.8,'
            '"l":0.6,"w":0.6,"h":1.7,"yaw":0.0}]}\n'
        )
        out = tmp_path / "density"
        assert main(["density", "--gt", str(gt), "--out", str(out)]) == 0
        assert "density@2.0m 0.0" in (out / "density.txt").read_text()

    def test_empty_scene_fails_cleanly(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"frame":0,"timestamp":0.0,"objects":[]}\n')
        rc = main(["density", "--gt", str(gt), "--out", str(tmp_path / "o")])
        assert rc != 0
        assert not (tmp_path / "o").exists()

    def test_weights_dump_reflects_crowding(self, tmp_path):
        # A clustered scene must put its largest density weights where the
        # cluster sits and leave empty regions at zero.
        objs = [
            {"id": i, "cx": -10.0 + 0.5 * i, "cy": -10.0, "cz": 0.8,
             "l": 0.6, "w": 0.6, "h": 1.7, "yaw": 0.0}
            for i in range(6)
        ]
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps({"frame": 0, "timestamp": 0.0, "objects": objs}) + "\n")
        out = tmp_path / "targets"
        rc = main(
            ["targets", "--gt", str(gt), "--out", str(out), "--grid", "1.0,1.0",
             "--extent=-20,20,-20,20"]
        )
        assert rc == 0
        weights = read_grid(out / "weights_0000.grid")
        crowd_region = weights.values[:20, :20]
        empty_region = weights.values[25:, 25:]
        assert crowd_region.max() >= 4.0
        assert not empty_region.any()


class TestRejectedRadii:
    """Neighbour radii, spreads and gates must be finite and positive."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("density", "--radius", "nan"),
            ("eval", "--radius", "nan"),
            ("track", "--max-match-dist", "nan"),
            ("track", "--max-match-dist", "inf"),
            ("track", "--birth-score-min", "nan"),
            ("targets", "--rel-radius", "-1"),
            ("targets", "--rel-radius", "nan"),
            ("targets", "--sigma", "nan"),
            ("targets", "--th", "nan"),
        ],
    )
    def test_fails_with_one_line_and_no_outputs(
        self, gen_dir, tmp_path, capsys, command, flag, value
    ):
        gt, det = str(gen_dir / "gt.jsonl"), str(gen_dir / "det.jsonl")
        traj = tmp_path / "track" / "traj.jsonl"
        assert main(["track", "--det", det, "--out", str(traj.parent)]) == 0
        inputs = {
            "density": ["--gt", gt],
            "eval": ["--gt", gt, "--traj", str(traj)],
            "track": ["--det", det],
            "targets": ["--gt", gt, "--grid", "0.5,0.5", "--extent=-30,30,-20,20"],
        }[command]
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, *inputs, "--out", str(out), f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestNonFiniteSettings:
    """A non-finite config or grid value is named, exit 2, no outputs."""

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("sim", "speed_max", "inf"),
            ("sim", "frame_rate", "inf"),
            ("sim", "target_density2", "nan"),
            ("noise", "pos_sigma", "nan"),
        ],
    )
    def test_gen_config(self, tmp_path, capsys, section, field, value):
        config = tmp_path / "scene.ini"
        text = re.sub(rf"^{field} = .*\n", "", CONFIG, flags=re.M)
        config.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{field} = {value}\n"))
        out = tmp_path / "out"
        assert main(["gen", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {field} must be finite, got {value}\n"
        assert not out.exists()

    def test_targets_extent(self, tmp_path, capsys, gen_dir):
        out = tmp_path / "out"
        argv = ["targets", "--gt", str(gen_dir / "gt.jsonl"), "--out", str(out)]
        assert main([*argv, "--extent=-inf,inf,-20,20"]) == 2
        assert capsys.readouterr().err == "error: x_min must be finite, got -inf\n"
        assert not out.exists()


class TestMalformedJsonl:
    """Every malformed line ends in one path:line error, exit 2, no outputs."""

    GOOD = '{"frame":0,"timestamp":0.0,"objects":[]}'
    BOX = '"cx":1.0,"cy":0.0,"cz":0.8,"l":0.6,"w":0.6,"h":1.7,"yaw":0.0'
    GT = '{"id":0,' + BOX + '}'
    DET = '{"id":0,' + BOX + ',"score":0.9,"offset":[0.0,0.0,0.0],"rel":null}'

    def fails(self, tmp_path, capsys, command, line, message):
        path = tmp_path / "in.jsonl"
        path.write_text(self.GOOD + "\n" + line + "\n")
        inputs = {
            "density": ["--gt", str(path)],
            "eval": ["--gt", str(path), "--traj", str(path)],
            "targets": ["--gt", str(path), "--grid", "0.5,0.5", "--extent=-5,5,-5,5"],
            "track": ["--det", str(path)],
        }[command]
        out = tmp_path / "out"
        assert main([command, *inputs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["density", "track"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("5", "record is not a JSON object"),
            ('[{"frame":1}]', "record is not a JSON object"),
            ('{"frame":1,"timestamp":NaN,"objects":[]}', "non-finite number NaN"),
            ('{"frame":1,"timestamp":Infinity,"objects":[]}', "non-finite number Infinity"),
            ('{"frame":1,"timestamp":0.1,"objects":[{"cx":-Infinity}]}', "non-finite number -Infinity"),
            ('{"frame":1,"timestamp":0.1,"objects":{"id":0}}', "'objects' is not a list"),
            ('{"frame":1,"timestamp":0.1,"objects":[5]}', "an entry of 'objects' is not an object"),
            ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply"),
        ],
        ids=["number", "array", "nan", "infinity", "minus-infinity", "objects-dict", "entry-number",
             "deep-nesting"],
    )
    def test_fails_with_one_line_and_no_outputs(self, tmp_path, capsys, command, line, message):
        self.fails(tmp_path, capsys, command, line, message)

    @pytest.mark.parametrize("command", ["targets", "density", "eval"])
    @pytest.mark.parametrize(
        "frame, objects, message",
        [
            ('1,"timestamp":1e999', [GT], "'timestamp' must be a finite number, got inf"),
            ('"0","timestamp":0.1', [GT], "'frame' must be an integer, got '0'"),
            ('1,"timestamp":0.0', [GT], "timestamp 0.0 is not after 0.0"),
            ('1,"timestamp":0.1', [GT.replace('"cx":1.0', '"cx":"1.5"')],
             "'cx' must be a finite number, got '1.5'"),
            ('1,"timestamp":0.1', [GT.replace('"cx":1.0', '"cx":true')],
             "'cx' must be a finite number, got True"),
            ('1,"timestamp":0.1', [GT.replace('"cx":1.0', '"cx":null')],
             "'cx' must be a finite number, got None"),
            ('1,"timestamp":0.1', [GT.replace('"cx":1.0,', '')], "missing field 'cx'"),
            ('1,"timestamp":0.1', [GT.replace('"id":0', '"id":1.7')],
             "'id' must be an integer, got 1.7"),
            ('1,"timestamp":0.1', [GT.replace('"id":0', '"id":"abc"')],
             "'id' must be an integer, got 'abc'"),
            ('1,"timestamp":0.1', [GT.replace('"l":0.6', '"l":-1')],
             "box sizes must be finite and positive: Box3D(cx=1.0, cy=0.0, cz=0.8, "
             "length=-1.0, height=1.7, width=0.6, yaw=0.0)"),
            ('1,"timestamp":0.1', [GT, GT], "duplicate id 0"),
        ],
        ids=["timestamp-overflow", "frame-string", "timestamp-repeated", "cx-string", "cx-bool",
             "cx-null", "cx-missing", "id-float", "id-string", "length-negative", "id-repeated"],
    )
    def test_gt_field_fails(self, tmp_path, capsys, command, frame, objects, message):
        line = f'{{"frame":{frame},"objects":[{",".join(objects)}]}}'
        self.fails(tmp_path, capsys, command, line, message)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"offset":[0.0,0.0,0.0]', '"offset":[0,0]',
             "'offset' must be a list of 3 finite numbers, got [0, 0]"),
            ('"offset":[0.0,0.0,0.0]', '"offset":3',
             "'offset' must be a list of 3 finite numbers, got 3"),
            ('"rel":null', '"rel":[0]', "'rel' must be a list of 2 finite numbers, got [0]"),
            ('"rel":null', '"rel":[0,1e999]',
             "'rel' must be a list of 2 finite numbers, got [0, inf]"),
            ('"rel":null', '"newborn":1', "'newborn' must be true or false, got 1"),
            ('"score":0.9', '"score":"x"', "'score' must be a finite number, got 'x'"),
            ('"score":0.9', '"score":1.5', "score 1.5 outside [0, 1]"),
            ('"cx":1.0', '"cx":1e999', "'cx' must be a finite number, got inf"),
        ],
        ids=["offset-short", "offset-number", "rel-short", "rel-overflow", "newborn-number",
             "score-string", "score-range", "cx-overflow"],
    )
    def test_detection_field_fails(self, tmp_path, capsys, old, new, message):
        line = '{"frame":1,"timestamp":0.1,"objects":[' + self.DET.replace(old, new) + "]}"
        self.fails(tmp_path, capsys, "track", line, message)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """A valid gen output and its trajectories, shared by the corruption examples."""
    root = tmp_path_factory.mktemp("clean")
    (root / "scene.ini").write_text(CONFIG)
    gen, trk = root / "gen", root / "trk"
    assert main(["gen", "--config", str(root / "scene.ini"), "--out", str(gen)]) == 0
    assert main(["track", "--det", str(gen / "det.jsonl"), "--out", str(trk)]) == 0
    return root


DROP = object()
OVERFLOW = "overflow-placeholder"  # written as the JSON number 1e999, which reads as inf
REPLACEMENTS = ["x", None, True, [1.0], OVERFLOW, DROP]
BOX_FIELDS = ["id", "cx", "cy", "cz", "l", "w", "h", "yaw"]


class TestCorruptedGenOutput:
    """Any one required field of a gen output made invalid ends in one path:line error."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_fails_with_one_line_and_no_outputs(self, clean_run, data):
        kind = data.draw(st.sampled_from(["gt", "det"]))
        lines = (clean_run / "gen" / f"{kind}.jsonl").read_text().splitlines()
        line_no = data.draw(st.integers(1, len(lines)))
        record = json.loads(lines[line_no - 1])
        target = record
        fields = ["frame", "timestamp", "objects"]
        if record["objects"] and data.draw(st.booleans()):
            target = data.draw(st.sampled_from(record["objects"]))
            fields = BOX_FIELDS + (["score", "offset"] if kind == "det" else [])
        field = data.draw(st.sampled_from(fields))
        floats = [1.5] if field in ("id", "frame") else []
        value = data.draw(st.sampled_from(REPLACEMENTS + floats))
        if value is DROP:
            del target[field]
        else:
            target[field] = value
        lines[line_no - 1] = json.dumps(record).replace(f'"{OVERFLOW}"', "1e999")
        commands = {
            "gt": [
                ["density"],
                ["targets", "--grid", "0.5,0.5", "--extent=-30,30,-20,20"],
                ["eval", "--traj", str(clean_run / "trk" / "traj.jsonl")],
            ],
            "det": [["track"]],
        }[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.jsonl"
            path.write_text("\n".join(lines) + "\n")
            flag = "--det" if kind == "det" else "--gt"
            for command, *rest in commands:
                out = Path(tmp) / "out"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    assert main([command, flag, str(path), *rest, "--out", str(out)]) == 2
                assert err.getvalue().startswith(f"error: {path}:{line_no}: ")
                assert err.getvalue().count("\n") == 1
                assert not out.exists()


class TestVoxelshapes:
    @pytest.fixture()
    def points_file(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = np.column_stack(
            [rng.uniform(-50, 50, 300), rng.uniform(-30, 30, 300), rng.uniform(-3, 2, 300),
             rng.uniform(0, 1, 300)]
        )
        path = tmp_path / "points.npy"
        np.save(path, pts)
        return path

    def test_table_contents(self, points_file, tmp_path):
        out = tmp_path / "vox"
        rc = main(["voxelshapes", "--points", str(points_file), "--out", str(out), "--topology", "b"])
        assert rc == 0
        table = (out / "voxelshapes.txt").read_text()
        assert "2560x1280x40" in table
        assert "0.300" in table and "0.600" in table
        assert "dropped_points 0" in table

    def test_rerun_identical(self, points_file, tmp_path):
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        for out in (out1, out2):
            assert main(["voxelshapes", "--points", str(points_file), "--out", str(out), "--topology", "c"]) == 0
        assert digest_dir(out1) == digest_dir(out2)

    def test_bad_shape_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.npy"
        np.save(path, np.zeros((4, 7)))
        rc = main(["voxelshapes", "--points", str(path), "--out", str(tmp_path / "o")])
        assert rc != 0

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.npy"
        np.save(path, np.zeros((0, 3)))
        out = tmp_path / "vox"
        assert main(["voxelshapes", "--points", str(path), "--out", str(out)]) == 0
        table = (out / "voxelshapes.txt").read_text()
        assert "input         1      0.075      2560x1280x40         0" in table

    def test_single_point(self, tmp_path):
        path = tmp_path / "one.npy"
        np.save(path, np.array([[0.0, 0.0, 0.0]]))
        out = tmp_path / "vox"
        assert main(["voxelshapes", "--points", str(path), "--out", str(out)]) == 0
        lines = (out / "voxelshapes.txt").read_text().splitlines()
        occupied = [int(line.split()[4]) for line in lines[1:7]]
        assert occupied == [1, 1, 1, 1, 1, 1]


class TestConsoleEntrypoint:
    def test_module_invocation(self, tmp_path, config_path):
        out = tmp_path / "sub"
        result = subprocess.run(
            [sys.executable, "-m", "crowdmot.cli", "gen", "--config", str(config_path),
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (out / "manifest.json").exists()
