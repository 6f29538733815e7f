"""Command-line pipelines: outputs, manifests, determinism, diagnostics."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdmot.cli
from crowdmot import sparsegrid
from crowdmot.cli import main
from crowdmot.evaluator import MatchConfig
from crowdmot.formats import read_grid, sha256_file
from crowdmot.geometry import DENSITY_RADIUS
from crowdmot.simulator import NoiseConfig, SimConfig
from crowdmot.tracker import TrackerConfig
from test_golden import CONFIG as GOLDEN_CONFIG
from test_golden import GOLDEN, GOLDEN_GRIDS

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
            ("[sim]\nn_pedestrians = 5\nn_frames = 2\n[nosie]\np_miss = 0.5\n",
             "unknown section [nosie]: a gen config holds [sim] and optional [noise]"),
            ("[sim]\nn_pedestrians = 5\nn_frames = 2\n[noise]\n[extra]\n", "unknown section [extra]"),
            ("[DEFAULT]\nseed = 3\n[sim]\nn_pedestrians = 5\nn_frames = 2\n",
             "[DEFAULT] must be empty: its fields would reach every section"),
            ("[DEFAULT]\np_miss = 0.5\n[sim]\nn_pedestrians = 5\nn_frames = 2\n[noise]\n",
             "[DEFAULT] must be empty"),
        ],
        ids=["repeated-key", "no-section-header", "misspelt-noise", "extra-section", "default-into-sim",
             "default-into-noise"],
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

    def test_object_on_the_upper_extent_is_named_with_its_frame(self, tmp_path, capsys):
        # x = x_max lies outside the half-open extent [x_min, x_max); frame 4's
        # object is off the grid too, but frame 3 comes first.
        box = '"cz":0.8,"l":0.6,"w":0.6,"h":1.7,"yaw":0.0'
        lines = []
        for number in range(5):
            objects = [f'{{"id":2,"cx":1.0,"cy":-1.0,{box}}}']
            if number >= 3:
                objects.append(f'{{"id":{9 + number},"cx":5.0,"cy":2.5,{box}}}')
            lines.append(f'{{"frame":{number},"timestamp":{number}.0,"objects":[{",".join(objects)}]}}\n')
        gt = tmp_path / "gt.jsonl"
        gt.write_text("".join(lines))
        out = tmp_path / "targets"
        argv = ["targets", "--gt", str(gt), "--out", str(out), "--grid", "0.5,0.5", "--extent=-5,5,-5,5"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: frame 3, object 12: point (5.0, 2.5) outside grid extents [-5.0, 5.0) x [-5.0, 5.0)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--sigma", "--th"])
    def test_huge_spread_covers_the_whole_grid(self, gen_dir, tmp_path, flag):
        out = tmp_path / "targets"
        rc = main(
            ["targets", "--gt", str(gen_dir / "gt.jsonl"), "--out", str(out),
             "--grid", "0.5,0.5", "--extent=-30,30,-20,20", "--dump-pgm", f"{flag}=1e308"]
        )
        assert rc == 0
        assert not any("nan" in path.read_text() for path in out.iterdir())
        n_objects = len(json.loads((gen_dir / "gt.jsonl").read_text().splitlines()[0])["objects"])
        if flag == "--sigma":
            assert (read_grid(out / "heatmap_0000.grid").values == 1.0).all()
        else:
            assert (read_grid(out / "weights_0000.grid").values == n_objects).all()

    def test_calls_in_one_process_write_the_bytes_of_fresh_processes(self, gen_dir, tmp_path):
        # Each call formats its grid values through its own memo, so a second
        # call with another --sigma writes what a fresh interpreter writes.
        flags = ["--gt", str(gen_dir / "gt.jsonl"), "--grid", "0.5,0.5", "--extent=-30,30,-20,20"]
        for sigma in ("1.0", "0.7"):
            assert main(["targets", *flags, "--sigma", sigma, "--out", str(tmp_path / f"in-{sigma}")]) == 0
        for sigma in ("1.0", "0.7"):
            fresh = tmp_path / f"fresh-{sigma}"
            result = subprocess.run(
                [sys.executable, "-m", "crowdmot.cli", "targets", *flags, "--sigma", sigma, "--out", str(fresh)],
                capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            assert digest_dir(tmp_path / f"in-{sigma}") == digest_dir(fresh)
        assert digest_dir(tmp_path / "in-1.0") != digest_dir(tmp_path / "in-0.7")

    def test_quiet_env_silences_stdout(self, gen_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CROWDMOT_LOG", "quiet")
        out = tmp_path / "density"
        assert main(["density", "--gt", str(gen_dir / "gt.jsonl"), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert (out / "density.txt").exists()


TWELVE_FRAMES = CONFIG.replace("n_pedestrians = 10", "n_pedestrians = 40").replace(
    "n_frames = 6", "n_frames = 12"
)


class TestTargetsWorkers:
    """`targets` on forked workers: same bytes as in one process, clean failures, no leftovers."""

    @staticmethod
    def cpus(monkeypatch, n, pool):
        """n usable CPUs; with pool, a work size any frame reaches. Returns the fork count."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        if pool:
            monkeypatch.setattr(crowdmot.cli, "_PARALLEL_MIN_CELLS", 0)
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        return forks

    @staticmethod
    def forbid_fork(monkeypatch):
        def refuse():
            raise AssertionError("a process was started")

        monkeypatch.setattr(os, "fork", refuse)

    @staticmethod
    def run(gt, out, *flags):
        return main(["targets", "--gt", str(gt), "--out", str(out), *flags])

    @pytest.mark.parametrize("config", [GOLDEN_CONFIG, TWELVE_FRAMES], ids=["golden", "twelve-frames"])
    def test_pool_writes_the_bytes_of_one_process(self, tmp_path, monkeypatch, config):
        # The targets flags of tests/test_golden.py.
        flags = ["--extent=-30,30,-20,20", "--grid", "0.5,0.5", "--dump-pgm"]
        (tmp_path / "scene.ini").write_text(config)
        assert main(["gen", "--config", str(tmp_path / "scene.ini"), "--out", str(tmp_path / "gen")]) == 0
        gt = tmp_path / "gen" / "gt.jsonl"
        with monkeypatch.context() as patch:
            forks = self.cpus(patch, 2, pool=True)
            assert self.run(gt, tmp_path / "pool", *flags) == 0
            assert len(forks) == 2
            assert multiprocessing.active_children() == []
        with monkeypatch.context() as patch:
            self.cpus(patch, 1, pool=True)
            self.forbid_fork(patch)
            assert self.run(gt, tmp_path / "serial", *flags) == 0
        pool, serial = tmp_path / "pool", tmp_path / "serial"
        names = sorted(p.name for p in serial.iterdir())
        assert sorted(p.name for p in pool.iterdir()) == names
        assert "manifest.json" in names
        for name in names:
            assert (pool / name).read_bytes() == (serial / name).read_bytes(), name
        if config is GOLDEN_CONFIG:
            grids = sorted([*pool.glob("heatmap_*"), *pool.glob("weights_*")])
            listing = "".join(f"{path.name} {sha256_file(path)}\n" for path in grids)
            assert hashlib.sha256(listing.encode()).hexdigest() == GOLDEN_GRIDS
            assert sha256_file(pool / "offsets.jsonl") == GOLDEN["targets/offsets.jsonl"]

    def test_zero_frames_start_no_pool(self, tmp_path, monkeypatch):
        gt = tmp_path / "gt.jsonl"
        gt.write_text("")
        self.cpus(monkeypatch, 2, pool=True)
        self.forbid_fork(monkeypatch)
        assert self.run(gt, tmp_path / "out") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert list(manifest["outputs"]) == ["offsets.jsonl"]

    @pytest.mark.parametrize("case", ["one-cpu", "below-work-size", "other-thread"])
    def test_no_process_is_started(self, gen_dir, tmp_path, monkeypatch, case):
        self.cpus(monkeypatch, 1 if case == "one-cpu" else 2, pool=case != "below-work-size")
        self.forbid_fork(monkeypatch)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(30,))
        if case == "other-thread":
            thread.start()
        try:
            assert self.run(gen_dir / "gt.jsonl", tmp_path / "out", "--dump-pgm") == 0
        finally:
            stop.set()
            if case == "other-thread":
                thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(list((tmp_path / "out").glob("*.pgm"))) == 12

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_os_error_in_a_frame_is_one_line_and_no_manifest(
        self, gen_dir, tmp_path, capsys, monkeypatch, n_cpus
    ):
        flags = ["--grid", "0.5,0.5", "--extent=-30,30,-20,20"]
        clean = tmp_path / "clean"
        assert self.run(gen_dir / "gt.jsonl", clean, *flags) == 0
        out = tmp_path / "out"
        (out / "heatmap_0002.grid").mkdir(parents=True)
        forks = self.cpus(monkeypatch, n_cpus, pool=True)
        assert self.run(gen_dir / "gt.jsonl", out, *flags) == 2
        assert len(forks) == (0 if n_cpus == 1 else 2)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "heatmap_0002.grid" in err
        assert multiprocessing.active_children() == []
        assert not (out / "manifest.json").exists()
        # Every file left behind is whole: a clean run's bytes, and no temporary file.
        left = [p for p in out.iterdir() if p.is_file()]
        assert left
        for path in left:
            assert path.read_bytes() == (clean / path.name).read_bytes(), path.name

    def test_dead_worker_is_one_line_and_no_manifest(self, gen_dir, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def die_in_a_worker(frame, grid, sigma):
            if os.getpid() == parent:
                raise AssertionError("frames ran in the parent process")
            os._exit(3)

        monkeypatch.setattr(crowdmot.targets, "make_heatmap", die_in_a_worker)
        self.cpus(monkeypatch, 2, pool=True)
        out = tmp_path / "out"
        assert self.run(gen_dir / "gt.jsonl", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: targets worker died: ") and err.count("\n") == 1
        assert multiprocessing.active_children() == []
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("case", ["success", "os-error", "dead-worker"])
    def test_no_child_is_left(self, gen_dir, tmp_path, monkeypatch, case):
        # multiprocessing.active_children() cannot see a child forked with
        # os.fork; waitpid sees every child of this process.
        parent = os.getpid()

        def die_in_a_worker(frame, grid, sigma):
            if os.getpid() == parent:
                raise AssertionError("frames ran in the parent process")
            os._exit(3)

        out = tmp_path / "out"
        if case == "os-error":
            (out / "heatmap_0002.grid").mkdir(parents=True)
        if case == "dead-worker":
            monkeypatch.setattr(crowdmot.targets, "make_heatmap", die_in_a_worker)
        forks = self.cpus(monkeypatch, 2, pool=True)
        assert self.run(gen_dir / "gt.jsonl", out) == (0 if case == "success" else 2)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_job_that_cannot_be_pickled_runs_on_the_workers(self):
        # The workers inherit the job, so a closure works; a pool that pickled
        # it hung here, so the pool runs in a subprocess with a timeout.
        code = (
            "import os\n"
            "import crowdmot.cli as cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "tag, out = 'frame', cli._Output('unused', 'targets')\n"
            "def job(number, frame):\n"
            "    out.digests[number] = f'{tag} {number} {frame} {os.getpid() != parent}'\n"
            "parent = os.getpid()\n"
            "cli._map_frames(job, list('abcdefghij'), cli._PARALLEL_MIN_CELLS, out)\n"
            "print([out.digests[number] for number in range(10)], len(forks))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        expected = [f"frame {n} {c} True" for n, c in enumerate("abcdefghij")]
        assert result.stdout.splitlines()[-1] == f"{expected} 2"

    def test_each_frame_runs_once_on_more_workers_than_cpus(self, tmp_path):
        # Each worker takes every workers-th frame: a frame run twice or
        # skipped shows in the log each frame appends to.
        code = (
            "import os, sys\n"
            "import crowdmot.cli as cli\n"
            "out = cli._Output('unused', 'targets')\n"
            "def job(number, frame):\n"
            "    fd = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND | os.O_CREAT)\n"
            "    os.write(fd, b'%d\\n' % number)\n"
            "    os.close(fd)\n"
            "    out.digests[number] = frame\n"
            "frames = list(range(500))\n"
            "cli._fork_map(job, frames, len(os.sched_getaffinity(0)) + 2, out)\n"
            "print([out.digests[number] for number in range(500)] == frames)\n"
        )
        log = tmp_path / "log"
        result = subprocess.run(
            [sys.executable, "-c", code, str(log)], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "True"
        assert sorted(map(int, log.read_text().split())) == list(range(500))

    def test_an_exception_that_cannot_be_pickled_keeps_its_kind_and_message(self):
        class Unpicklable(OSError):
            def __reduce__(self):
                raise TypeError("not picklable")

        def job(number, frame):
            if frame == 7:
                raise Unpicklable(f"frame {frame} failed")
            if frame == 3:
                raise ValueError("an earlier frame failed")
            return frame

        out = crowdmot.cli._Output("unused", "targets")
        with pytest.raises(ValueError, match="^an earlier frame failed$"):
            crowdmot.cli._fork_map(job, list(range(10)), 2, out)
        with pytest.raises(OSError, match="^Unpicklable: frame 7 failed$"):
            crowdmot.cli._fork_map(job, [*range(3), *range(4, 10)], 2, out)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_lowest_failed_frame_wins_when_its_worker_answers_last(self):
        # Worker 1 holds frame 1 and answers after worker 0 has answered the
        # failure of frame 4.
        def job(number, frame):
            if number == 1:
                time.sleep(0.5)
                raise ValueError("frame 1 failed")
            if number == 4:
                raise OSError("frame 4 failed")

        with pytest.raises(ValueError, match="^frame 1 failed$"):
            crowdmot.cli._fork_map(job, list(range(10)), 2, crowdmot.cli._Output("unused", "targets"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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

    def test_repeated_gt_and_traj_flags_evaluate_every_pair(self, config_path, tmp_path):
        gts, trajs = [], []
        for seed in ("3", "4"):
            gen, trk = tmp_path / f"gen-{seed}", tmp_path / f"trk-{seed}"
            assert main(["gen", "--config", str(config_path), "--seed", seed, "--out", str(gen)]) == 0
            assert main(["track", "--det", str(gen / "det.jsonl"), "--out", str(trk)]) == 0
            gts.append(str(gen / "gt.jsonl"))
            trajs.append(str(trk / "traj.jsonl"))
        assert main(["eval", "--gt", *gts, "--traj", *trajs, "--out", str(tmp_path / "one")]) == 0
        repeated = ["--gt", gts[0], "--traj", trajs[0], "--gt", gts[1], "--traj", trajs[1]]
        assert main(["eval", *repeated, "--out", str(tmp_path / "repeated")]) == 0
        report = (tmp_path / "one" / "report.txt").read_text()
        assert report.count("sequence: ") == 2
        assert (tmp_path / "repeated" / "report.txt").read_text() == report

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

    def test_trajectories_of_another_sequence_are_rejected(self, tmp_path, gen_dir, capsys):
        # The same scene at 5 frames a second: as many frames, other timestamps.
        config = tmp_path / "slow.ini"
        config.write_text(CONFIG.replace("seed = 4", "seed = 4\nframe_rate = 5"))
        other, trk = tmp_path / "other", tmp_path / "trk"
        assert main(["gen", "--config", str(config), "--out", str(other)]) == 0
        assert main(["track", "--det", str(other / "det.jsonl"), "--out", str(trk)]) == 0
        capsys.readouterr()
        gt, traj, out = gen_dir / "gt.jsonl", trk / "traj.jsonl", tmp_path / "eval"
        assert main(["eval", "--gt", str(gt), "--traj", str(traj), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: trajectories {traj} are not of the sequence in {gt}: "
            "they differ first at frame 1 (timestamp 0.2, GT 0.1)\n"
        )
        assert not out.exists()

    def test_trajectories_of_another_seed_at_the_same_frame_rate_are_rejected(
        self, tmp_path, gen_dir, capsys
    ):
        # Another seed: as many frames at the same frame rate, so the same
        # timestamps; only the manifests tell the two scenes apart.
        config = tmp_path / "other.ini"
        config.write_text(CONFIG.replace("seed = 4", "seed = 7"))
        other, trk = tmp_path / "other", tmp_path / "trk"
        assert main(["gen", "--config", str(config), "--out", str(other)]) == 0
        assert main(["track", "--det", str(other / "det.jsonl"), "--out", str(trk)]) == 0
        capsys.readouterr()
        gt, traj, out = gen_dir / "gt.jsonl", trk / "traj.jsonl", tmp_path / "eval"
        assert main(["eval", "--gt", str(gt), "--traj", str(traj), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: trajectories {traj} were tracked from {other / 'det.jsonl'}, ")
        assert err.count("\n") == 1
        assert not out.exists()
        # Tracked again from the scene's own detections, they are scored.
        assert main(["track", "--det", str(gen_dir / "det.jsonl"), "--out", str(trk)]) == 0
        assert main(["eval", "--gt", str(gt), "--traj", str(traj), "--out", str(out)]) == 0

    def test_trajectories_with_fewer_frames_are_rejected(self, tmp_path, gen_dir, capsys):
        traj = tmp_path / "traj.jsonl"
        traj.write_text('{"frame":0,"timestamp":0.0,"objects":[]}\n')
        gt, out = gen_dir / "gt.jsonl", tmp_path / "eval"
        assert main(["eval", "--gt", str(gt), "--traj", str(traj), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: trajectories {traj} are not of the sequence in {gt}: "
            "they differ first at frame 1 (1 frames, GT 6)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "side, gt_xy, traj_xy, yaw",
        [(1e154, (0.0, 0.0), (1.0, 0.0), 0.0), (1e308, (0.0, 0.0), (1.0, 0.0), 0.0),
         (0.6, (1e200, 1e200), (1e200, 1e200), 0.05)],
        ids=["union-overflows", "sides-overflow", "far-from-origin"],
    )
    def test_a_pair_whose_iou_overflows_fails_with_one_line(
        self, tmp_path, capsys, side, gt_xy, traj_xy, yaw
    ):
        def write(name, xy, **fields):
            box = {"id": 0, "cx": xy[0], "cy": xy[1], "cz": 0.8, "l": side, "w": side, "h": 1.7, **fields}
            path = tmp_path / name
            path.write_text(json.dumps({"frame": 0, "timestamp": 0.0, "objects": [box]}) + "\n")
            return str(path)

        gt, traj = write("gt.jsonl", gt_xy, yaw=0.0), write("traj.jsonl", traj_xy, yaw=yaw, score=0.9)
        out = tmp_path / "eval"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--gt", gt, "--traj", traj, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BEV IoU of footprints [") and err.count("\n") == 1
        assert err.endswith(" overflows: its intersection or union is not finite\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "targets", "track", "eval", "density", "voxelshapes"])
def test_manifest_digests_match_the_files(tmp_path, config_path, gen_dir, command):
    """Output digests come from the writers; each must equal a hash of the file on disk."""
    points = tmp_path / "points.npy"
    np.save(points, np.random.default_rng(0).uniform(-20.0, 20.0, (500, 3)))
    trk = tmp_path / "trk"
    assert main(["track", "--det", str(gen_dir / "det.jsonl"), "--out", str(trk)]) == 0
    gt = str(gen_dir / "gt.jsonl")
    argv = {
        "gen": ["--config", str(config_path)],
        "targets": ["--gt", gt, "--grid", "0.5,0.5", "--extent=-30,30,-20,20", "--dump-pgm"],
        "track": ["--det", str(gen_dir / "det.jsonl")],
        "eval": ["--gt", gt, "--traj", str(trk / "traj.jsonl")],
        "density": ["--gt", gt],
        "voxelshapes": ["--points", str(points)],
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert set(manifest["outputs"]) == files - {"manifest.json"}
    for name, digest in manifest["outputs"].items():
        assert digest == sha256_file(out / name), name
    for name, digest in manifest["inputs"].items():
        assert digest == sha256_file(Path(name)), name


@pytest.mark.parametrize("command", ["targets", "track", "eval", "density", "voxelshapes"])
def test_each_input_is_read_once_and_its_digest_is_that_of_its_bytes(
    tmp_path, gen_dir, monkeypatch, command
):
    """A command opens each input file once: the manifest's digest is of the bytes it decoded."""
    points = tmp_path / "points.npy"
    np.save(points, np.random.default_rng(0).uniform(-20.0, 20.0, (500, 3)))
    trk = tmp_path / "trk"
    assert main(["track", "--det", str(gen_dir / "det.jsonl"), "--out", str(trk)]) == 0
    gt, det, traj = gen_dir / "gt.jsonl", gen_dir / "det.jsonl", trk / "traj.jsonl"
    argv, inputs = {
        "targets": (["--gt", str(gt), "--grid", "0.5,0.5", "--extent=-30,30,-20,20"], [gt]),
        "track": (["--det", str(det)], [det]),
        "eval": (["--gt", str(gt), "--traj", str(traj)], [gt, traj]),
        "density": (["--gt", str(gt)], [gt]),
        "voxelshapes": (["--points", str(points)], [points]),
    }[command]
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr("builtins.open", counting_open)
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 0
    monkeypatch.undo()
    assert [opened.count(path) for path in inputs] == [1] * len(inputs)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in inputs}


def test_manifest_keys_each_input_by_its_normalised_path(tmp_path, gen_dir):
    raw = f"{tmp_path}/./gen//gt.jsonl"
    assert str(Path(raw)) != raw
    out = tmp_path / "density"
    assert main(["density", "--gt", raw, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {str(gen_dir / "gt.jsonl"): sha256_file(gen_dir / "gt.jsonl")}


def test_two_calls_build_one_parser_tree(tmp_path, gen_dir, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    crowdmot.cli._build_parser.cache_clear()
    for name in ("a", "b"):
        assert main(["density", "--gt", str(gen_dir / "gt.jsonl"), "--out", str(tmp_path / name)]) == 0
    commands = ("gen", "targets", "track", "eval", "density", "voxelshapes")
    assert built == ["crowdmot", *(f"crowdmot {command}" for command in commands)]
    assert (tmp_path / "a" / "density.txt").read_bytes() == (tmp_path / "b" / "density.txt").read_bytes()


def tree_state(root):
    """Every path under root, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("case", ["gt-is-directory", "out-is-file", "out-under-file"])
def test_os_error_fails_with_one_line_and_writes_nothing(tmp_path, capsys, case):
    config = tmp_path / "scene.ini"
    config.write_text(CONFIG)
    gt = tmp_path / "gt.jsonl"
    gt.write_text(
        '{"frame":0,"timestamp":0.0,"objects":[{"id":0,"cx":0.0,"cy":0.0,"cz":0.8,'
        '"l":0.6,"w":0.6,"h":1.7,"yaw":0.0}]}\n'
    )
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    argv = {
        "gt-is-directory": ["density", "--gt", str(tmp_path), "--out", str(tmp_path / "out")],
        "out-is-file": ["gen", "--config", str(config), "--out", str(blocker)],
        "out-under-file": ["density", "--gt", str(gt), "--out", str(blocker / "sub")],
    }[case]
    before = tree_state(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert tree_state(tmp_path) == before


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
            ("track", "--birth-score-min", "inf"),
            ("track", "--birth-score-min", "1.5"),
            ("targets", "--rel-radius", "-1"),
            ("targets", "--rel-radius", "nan"),
            ("targets", "--sigma", "nan"),
            ("targets", "--sigma", "1e-160"),
            ("targets", "--sigma", "1e-300"),
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


class TestFlagLists:
    """A comma-separated flag value of the wrong length, with a non-number or of too many cells.

    Each ends in one line and exit code 2.
    """

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--grid", "0.5", "--grid expects two comma-separated values, got '0.5'"),
            ("--extent", "-30,30,-20", "--extent expects x_min,x_max,y_min,y_max, got '-30,30,-20'"),
            ("--grid", "0.5,x", "--grid: cannot parse '0.5,x'"),
            ("--extent", "-30,30,-20,y", "--extent: cannot parse '-30,30,-20,y'"),
            ("--grid", "1e-300,1e-300",
             "x extent holds 1.92e+302 cells, more than an int64 cell index can number"),
        ],
    )
    def test_fails_with_the_flag_and_its_value(self, gen_dir, tmp_path, capsys, flag, value, message):
        out = tmp_path / "out"
        argv = ["targets", "--gt", str(gen_dir / "gt.jsonl"), "--out", str(out)]
        assert main([*argv, f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
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

    @pytest.mark.parametrize(
        "extent, grid, message",
        [
            ("-1e308,1e308,-2,2", "0.5,0.5", "x extent inf holds no finite number of 0.5 m cells"),
            ("-2,2,-1e308,1e308", "0.5,0.5", "y extent inf holds no finite number of 0.5 m cells"),
            ("0,1e308,-2,2", "1e-300,0.5", "x extent 1e+308 holds no finite number of 1e-300 m cells"),
        ],
    )
    def test_targets_extent_of_no_finite_cell_count(self, tmp_path, capsys, gen_dir, extent, grid,
                                                    message):
        out = tmp_path / "out"
        argv = ["targets", "--gt", str(gen_dir / "gt.jsonl"), "--out", str(out), "--grid", grid]
        assert main([*argv, f"--extent={extent}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestRejectedGenConfig:
    """A gen config the simulator cannot honour: one line naming the cause, exit 2, no outputs.

    Warnings are turned into errors, so a RuntimeWarning on the way fails too.
    """

    @staticmethod
    def run(tmp_path, capsys, text, *flags):
        config = tmp_path / "scene.ini"
        config.write_bytes(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gen", "--config", str(config), "--out", str(out), *flags]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "np.float64" not in err
        return err

    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("sim", {"x_min": "-1e308", "x_max": "1e308"},
             "area (-1e+308, 1e+308, -20.0, 20.0) is too large"),
            ("sim", {"seed": "-1"}, "seed must be non-negative, got -1\n"),
            ("noise", {"seed": "-1"}, "seed must be non-negative, got -1\n"),
            ("noise", {"score_true_sigma": "-0.1"},
             "score_true_sigma must be non-negative, got -0.1\n"),
            ("noise", {"score_clutter_sigma": "-0.1"},
             "score_clutter_sigma must be non-negative, got -0.1\n"),
            ("noise", {"offset_sigma": "1e308"},
             "error: offset_sigma 1e+308 makes a motion offset overflow in frame 0\n"),
            ("noise", {"pos_sigma": "1e308"},
             "error: pos_sigma 1e+308 makes a detection centre overflow in frame 1\n"),
            ("sim", {"frame_rate": "1e-308", "n_frames": "3"},
             "error: frame_rate 1e-308 is too small for 3 frames: every frame time must be finite\n"),
            ("sim", {"frame_rate": "5e-324", "n_frames": "2"},
             "error: frame_rate 5e-324 is too small for 2 frames: every frame time must be finite\n"),
        ],
        ids=["area-overflow", "sim-seed", "noise-seed", "score-true-sigma", "score-clutter-sigma",
             "offset-sigma-overflow", "pos-sigma-overflow", "frame-times-overflow",
             "frame-interval-overflow"],
    )
    def test_fails_with_one_line_and_no_outputs(self, tmp_path, capsys, section, values, message):
        # The section's own lines for these fields are replaced.
        head, header, tail = CONFIG.partition(f"[{section}]\n")
        body, sep, rest = tail.partition("\n[")
        lines = [
            line for line in body.splitlines(keepends=True) if line.split(" = ")[0] not in values
        ]
        lines += [f"{field} = {value}\n" for field, value in values.items()]
        text = head + header + "".join(lines) + sep + rest
        assert message in self.run(tmp_path, capsys, text.encode())

    def test_negative_seed_flag_names_the_seed(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, CONFIG.encode(), "--seed", "-1")
        assert err == "error: seed must be non-negative, got -1\n"

    def test_thin_uniform_area_names_the_span_and_margins(self, tmp_path, capsys):
        text = CONFIG.replace("n_pedestrians = 10", "n_pedestrians = 5")
        text = text.replace("x_min = -30\nx_max = 30", "x_min = -10\nx_max = 10")
        text = text.replace("y_min = -20\ny_max = 20", "y_min = 0\ny_max = 1")
        err = self.run(tmp_path, capsys, text.encode())
        assert err == (
            "error: area y_min..y_max = 0.0..1.0 spans 1 m; uniform placement keeps 0.6 m "
            "margins inside both walls, so the span must be at least 1.2 m\n"
        )

    def test_huge_area_prints_short_numbers(self, tmp_path, capsys):
        text = CONFIG.replace("x_min = -30\nx_max = 30", "x_min = -1e200\nx_max = 1e200")
        text = text.replace("y_min = -20\ny_max = 20", "y_min = 0\ny_max = 10")
        text = text.replace("target_density2 = 2.5", "target_density2 = 0")
        err = self.run(tmp_path, capsys, text.encode())
        assert err == (
            "error: target_density2=0.0 is below the uniform-placement floor 5.65487e-200 "
            "for 10 pedestrians in 2e+201 m^2; enlarge the area or reduce n_pedestrians\n"
        )

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, CONFIG.encode().replace(b"seed = 4", b"seed = 4 ; \xff"))
        path = tmp_path / "scene.ini"
        assert err.startswith(f"error: {path}: not UTF-8: ") and "0xff" in err


# The required [sim] fields, set in every INI below.
REQUIRED = {"n_pedestrians": 5, "n_frames": 2}
AREA = ("x_min", "x_max", "y_min", "y_max")
CONFIG_FIELDS = [("sim", field) for field in dataclasses.fields(SimConfig)] + [
    ("noise", field) for field in dataclasses.fields(NoiseConfig)
]


def default_echo() -> dict:
    """The manifest echo of an INI holding only the required fields: every other value is its default."""
    sim = dataclasses.asdict(SimConfig(**REQUIRED))
    sim.update(zip(AREA, sim.pop("area")))
    return {"sim": sim, "noise": {**dataclasses.asdict(NoiseConfig()), "seed": 1}}


def ini_text(sections: dict) -> str:
    text = ""
    for section, values in sections.items():
        text += f"[{section}]\n" + "".join(f"{key} = {str(value).lower()}\n" for key, value in values.items())
    return text


class TestGenConfigFollowsTheConfigTypes:
    """Each [sim] and [noise] field takes its type and default from SimConfig and NoiseConfig."""

    @pytest.mark.parametrize(
        "section, field", CONFIG_FIELDS, ids=[f"{section}-{field.name}" for section, field in CONFIG_FIELDS]
    )
    def test_a_field_set_alone_reaches_the_config_and_the_echo(self, tmp_path, section, field):
        echo = default_echo()
        if field.name == "area":
            value = (-40.0, 40.0, -20.0, 20.0)
            given = dict(zip(AREA, value))
        else:
            default = echo[section][field.name]
            kind = {"int": int, "float": float, "bool": bool}[field.type]
            value = not default if kind is bool else default + 2 if kind is int else default / 2 + 0.125
            assert type(value) is kind and value != default
            given = {field.name: value}
        sections = {"sim": dict(REQUIRED), "noise": {}}
        sections[section].update(given)
        config = tmp_path / "scene.ini"
        config.write_text(ini_text(sections))
        sim, noise, _ = crowdmot.cli.load_gen_config(config, None)
        assert getattr(sim if section == "sim" else noise, field.name) == value
        out = tmp_path / "gen"
        assert main(["gen", "--config", str(config), "--out", str(out)]) == 0
        echo[section].update(given)
        assert json.loads((out / "manifest.json").read_text())["config"] == echo

    def test_an_ini_of_the_required_fields_echoes_every_default(self, tmp_path):
        config = tmp_path / "scene.ini"
        config.write_text(ini_text({"sim": REQUIRED}))
        sim, noise, _ = crowdmot.cli.load_gen_config(config, None)
        assert (sim, noise) == (SimConfig(**REQUIRED), NoiseConfig(seed=1))
        out = tmp_path / "gen"
        assert main(["gen", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"] == default_echo()

    def test_track_eval_and_density_flags_default_to_their_owners(self, gen_dir, tmp_path):
        numbers = itertools.count()

        def config(*argv):
            out = tmp_path / f"out{next(numbers)}"
            assert main([*argv, "--out", str(out)]) == 0
            return json.loads((out / "manifest.json").read_text())["config"]

        det, gt = str(gen_dir / "det.jsonl"), str(gen_dir / "gt.jsonl")
        traj = tmp_path / "track" / "traj.jsonl"
        assert main(["track", "--det", det, "--out", str(traj.parent)]) == 0
        tracked = dataclasses.asdict(TrackerConfig())
        assert config("track", "--det", det) == tracked
        assert config("track", "--det", det, "--max-age", "4") == {**tracked, "max_age": 4}
        evaluated = {**dataclasses.asdict(MatchConfig()), "density_radius": DENSITY_RADIUS}
        assert config("eval", "--gt", gt, "--traj", str(traj)) == evaluated
        assert config("eval", "--gt", gt, "--traj", str(traj), "--iou-th", "0.25", "--radius", "3") == {
            "iou_threshold": 0.25, "density_radius": 3.0
        }
        assert config("density", "--gt", gt) == {"radius": DENSITY_RADIUS}


class TestMalformedJsonl:
    """Every malformed line ends in one path:line error, exit 2, no outputs."""

    GOOD = '{"frame":0,"timestamp":0.0,"objects":[]}'
    BOX = '"cx":1.0,"cy":0.0,"cz":0.8,"l":0.6,"w":0.6,"h":1.7,"yaw":0.0'
    GT = '{"id":0,' + BOX + '}'
    DET = '{"id":0,' + BOX + ',"score":0.9,"offset":[0.0,0.0,0.0],"rel":null}'

    def fails(self, tmp_path, capsys, command, line, message):
        path = tmp_path / "in.jsonl"
        line = line if isinstance(line, bytes) else line.encode()
        path.write_bytes(self.GOOD.encode() + b"\n" + line + b"\n")
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
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
        ids=["number", "array", "nan", "infinity", "minus-infinity", "objects-dict", "entry-number",
             "deep-nesting", "not-utf-8"],
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
             "'l' must be positive, got -1.0"),
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

    def test_seed_flag_is_gone(self, points_file, tmp_path, capsys):
        out = tmp_path / "vox"
        with pytest.raises(SystemExit) as exit_info:
            main(["voxelshapes", "--points", str(points_file), "--out", str(out), "--seed", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()
        assert main(["voxelshapes", "--points", str(points_file), "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert list(config) == ["topology", "widths"]

    def test_bad_shape_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.npy"
        np.save(path, np.zeros((4, 7)))
        rc = main(["voxelshapes", "--points", str(path), "--out", str(tmp_path / "o")])
        assert rc != 0

    @pytest.mark.parametrize(
        "name, write, message",
        [
            ("points.npz", lambda path: np.savez(path, points=np.zeros((4, 3))),
             "is an archive of arrays, not one .npy array"),
            ("points.npy", lambda path: path.write_bytes(b""), "cannot load point file"),
            ("points.npy", lambda path: np.save(path, np.ones((4, 3), dtype=complex)),
             "points must be integers or floats, got dtype complex128"),
        ],
        ids=["npz", "empty", "complex"],
    )
    def test_unreadable_point_file_rejected(self, tmp_path, capsys, name, write, message):
        path = tmp_path / name
        write(path)
        out = tmp_path / "o"
        assert main(["voxelshapes", "--points", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_point_rejected(self, tmp_path, capsys, value):
        pts = np.random.default_rng(0).uniform(-10, 10, (100, 3))
        pts[37, 2] = value
        path = tmp_path / "bad.npy"
        np.save(path, pts)
        out = tmp_path / "o"
        assert main(["voxelshapes", "--points", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: point 37 has a non-finite value")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.npy"
        np.save(path, np.zeros((0, 3)))
        out = tmp_path / "vox"
        assert main(["voxelshapes", "--points", str(path), "--out", str(out)]) == 0
        table = (out / "voxelshapes.txt").read_text()
        assert "input         1      0.075      2560x1280x40         0" in table

    def test_fortran_ordered_points_give_the_same_table(self, tmp_path):
        # np.load keeps a file's Fortran order; five columns are not padded,
        # so the points reach voxelize in that layout.
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(-100, 100, 500), rng.uniform(-50, 50, 500),
                               rng.uniform(-6, 4, 500), rng.uniform(0, 1, 500),
                               rng.integers(0, 2, 500)])
        tables = []
        for name, layout in (("c", np.ascontiguousarray), ("fortran", np.asfortranarray)):
            path = tmp_path / f"{name}.npy"
            np.save(path, layout(pts))
            assert np.load(path).flags.f_contiguous == (name == "fortran")
            out = tmp_path / f"vox_{name}"
            assert main(["voxelshapes", "--points", str(path), "--out", str(out), "--topology", "c"]) == 0
            tables.append((out / "voxelshapes.txt").read_bytes())
        assert b"dropped_points 0" not in tables[0]
        assert tables[1] == tables[0]

    @pytest.mark.parametrize("topology", ["a", "b", "c"])
    def test_huge_intensities_print_no_warning(self, tmp_path, topology):
        # Two points of intensity 1.7e308 in one voxel: voxelize averages
        # their shares, not their sum, which would overflow.
        path = tmp_path / "hot.npy"
        np.save(path, np.array([[0.01, 0.01, 0.01, 1.7e308], [0.02, 0.02, 0.02, 1.7e308]]))
        out = tmp_path / "vox"
        result = subprocess.run(
            [sys.executable, "-m", "crowdmot.cli", "voxelshapes", "--points", str(path),
             "--out", str(out), "--topology", topology],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        lines = (out / "voxelshapes.txt").read_text().splitlines()
        assert [int(line.split()[4]) for line in lines[1:7]] == [1] * 6

    # Each point file below gives the table of its values saved as a C-order
    # float64 .npy file, or the one-line error named; {path} stands for it.
    LOADER_CASES = {
        "v1.0": lambda path, pts: np.save(path, pts),
        "v2.0": lambda path, pts: _write_npy(path, pts, (2, 0)),
        "v3.0": lambda path, pts: _write_npy(path, pts, (3, 0)),
        "big-endian f8": lambda path, pts: np.save(path, pts.astype(">f8")),
        "f4": lambda path, pts: np.save(path, pts.astype("<f4")),
        "int64": lambda path, pts: np.save(path, np.round(pts).astype(np.int64)),
        "fortran": lambda path, pts: np.save(path, np.asfortranarray(pts)),
        "fortran, 3 columns": lambda path, pts: np.save(path, np.asfortranarray(pts[:, :3])),
        "trailing bytes": lambda path, pts: (np.save(path, pts), _append(path, b"trailing bytes")),
        "truncated body": (
            lambda path, pts: path.write_bytes(_npy_header(pts.shape) + pts.tobytes()[:-8]),
            "cannot load point file {path}: Failed to read all data for array. Expected (400, 5) = "
            "2000 elements, could only read 1999 elements. (file seems not fully written?)",
        ),
        "negative dimension": (
            lambda path, pts: path.write_bytes(_npy_header((-3, 5)) + pts[:2].tobytes()),
            "cannot load point file {path}: shape (-3, 5) has a negative dimension",
        ),
        "huge header": (
            lambda path, pts: path.write_bytes(_npy_header((10**12, 5)) + pts[:2].tobytes()),
            "cannot load point file {path}: Failed to read all data for array. Expected "
            "(1000000000000, 5) = 5000000000000 elements, could only read 10 elements. "
            "(file seems not fully written?)",
        ),
        "object array": (
            lambda path, pts: np.save(path, pts.astype(object), allow_pickle=True),
            "cannot load point file {path}: Object arrays cannot be loaded when allow_pickle=False",
        ),
        "complex": (
            lambda path, pts: np.save(path, pts.astype(complex)),
            "points must be integers or floats, got dtype complex128",
        ),
        "npz": (
            lambda path, pts: _write_npz(path, points=pts),
            "{path} is an archive of arrays, not one .npy array",
        ),
        "empty file": (
            lambda path, pts: path.write_bytes(b""), "cannot load point file {path}: No data left in file"
        ),
        "directory": (
            lambda path, pts: path.mkdir(),
            "cannot load point file {path}: [Errno 21] Is a directory: '{path}'",
        ),
    }

    @pytest.mark.parametrize("case", sorted(LOADER_CASES))
    def test_point_file_loader_matrix(self, tmp_path, capsys, case):
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(-100, 100, 400), rng.uniform(-50, 50, 400),
                               rng.uniform(-6, 4, 400), rng.uniform(0, 1, 400), rng.integers(0, 2, 400)])
        write, message = self.LOADER_CASES[case], None
        if isinstance(write, tuple):
            write, message = write
        path, out = tmp_path / "points.npy", tmp_path / "vox"
        write(path, pts)
        code = main(["voxelshapes", "--points", str(path), "--out", str(out), "--topology", "c"])
        err = capsys.readouterr().err
        if message is not None:
            assert (code, err) == (2, f"error: {message.format(path=path)}\n")
            assert not out.exists()
            return
        assert (code, err) == (0, "")
        values = np.load(path)
        np.save(tmp_path / "plain.npy", np.ascontiguousarray(values, dtype=np.float64))
        plain = tmp_path / "plain"
        assert main(["voxelshapes", "--points", str(tmp_path / "plain.npy"), "--out", str(plain),
                     "--topology", "c"]) == 0
        table = (out / "voxelshapes.txt").read_bytes()
        assert table == (plain / "voxelshapes.txt").read_bytes() and b"dropped_points 0\n" not in table

    def test_loaded_points_are_a_read_only_view_of_the_bytes_read(self, tmp_path, monkeypatch):
        path = tmp_path / "points.npy"
        rng = np.random.default_rng(0)
        np.save(path, np.column_stack([rng.uniform(-20.0, 20.0, (50, 4)), rng.integers(0, 2, 50)]))
        seen = []
        report = sparsegrid.topology_report
        monkeypatch.setattr(sparsegrid, "topology_report",
                            lambda pc, *args, **kwargs: seen.append(pc.points) or report(pc, *args, **kwargs))
        assert main(["voxelshapes", "--points", str(path), "--out", str(tmp_path / "vox")]) == 0
        [points] = seen
        assert not points.flags.writeable and isinstance(points.base, bytes)
        assert points.tobytes() == np.load(path).tobytes()

    def test_single_point(self, tmp_path):
        path = tmp_path / "one.npy"
        np.save(path, np.array([[0.0, 0.0, 0.0]]))
        out = tmp_path / "vox"
        assert main(["voxelshapes", "--points", str(path), "--out", str(out)]) == 0
        lines = (out / "voxelshapes.txt").read_text().splitlines()
        occupied = [int(line.split()[4]) for line in lines[1:7]]
        assert occupied == [1, 1, 1, 1, 1, 1]


def _npy_header(shape):
    """A version 1.0 .npy header for a C-order little-endian float64 array of `shape`."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return header.getvalue()


def _write_npy(path, values, version):
    with open(path, "wb") as handle:
        np.lib.format.write_array(handle, values, version=version)


def _write_npz(path, **arrays):
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _append(path, data):
    with open(path, "ab") as handle:
        handle.write(data)


class TestConsoleEntrypoint:
    def test_help_imports_no_scipy(self):
        # The runtime is numpy-only; scipy is a test oracle and must stay out
        # of every CLI call's import time.
        code = (
            "import sys\n"
            "from crowdmot.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_import_loads_no_process_pool(self):
        # The targets pool imports its modules when it starts, so no other
        # CLI call pays their import time.
        code = (
            "import sys\n"
            "import crowdmot.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'\n"
            "             or m.startswith('concurrent.futures')))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_commands_load_no_masked_arrays(self, tmp_path, config_path):
        # np.unique's first call without flags imports numpy.ma, about 14 ms
        # and 1.2 MB; the commands find distinct values with geometry.distinct.
        np.save(tmp_path / "cloud.npy", np.random.default_rng(0).uniform(-20.0, 20.0, (500, 3)))
        gen, run = tmp_path / "gen", tmp_path / "run"
        calls = [
            ["gen", "--config", str(config_path), "--out", str(gen)],
            ["targets", "--gt", str(gen / "gt.jsonl"), "--out", str(run / "targets"),
             "--grid", "0.5,0.5", "--extent=-30,30,-20,20"],
            ["track", "--det", str(gen / "det.jsonl"), "--out", str(run / "track")],
            ["eval", "--gt", str(gen / "gt.jsonl"), "--traj", str(run / "track" / "traj.jsonl"),
             "--out", str(run / "eval")],
            ["density", "--gt", str(gen / "gt.jsonl"), "--out", str(run / "density")],
        ] + [
            ["voxelshapes", "--points", str(tmp_path / "cloud.npy"), "--out", str(run / t),
             "--topology", t]
            for t in "abc"
        ]
        code = (
            "import json, sys\n"
            "from crowdmot.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(calls)], capture_output=True, text=True,
            env={**os.environ, "CROWDMOT_LOG": "quiet"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == f"{[0] * len(calls)} False"

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
