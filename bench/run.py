"""crowdmot benchmark: closed-loop workloads driven through ``crowdmot.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload quickstart --seed 0 --seconds 40 --trace 0

The seed determines every input file (INI configs, a ``.npy`` point cloud);
the program sees only those files. One pass runs the workload's CLI calls one
after another in this process, and passes repeat until ``--seconds`` is used
up. Every pass is checked: exit codes, manifest digests, byte-identical
reruns, at the default seed the pinned reference digests, and per-stage
checks of the output values. A call that fails any of them counts as failed.

Around every call the benchmark times a fixed calibration loop that does not
use crowdmot, and ``pipeline_rel`` is a pass's wall time divided by the mean of
its calibration times. The machine's speed drifts with the load of other
tenants; the ratio removes most of that drift and keeps the program's own
changes of speed. ``setup_s`` is scaled the same way.

The first pass is a warm-up: it is checked and gives ``peak_rss_mb``, but runs
no calibration loop and is not timed into ``pipeline_rel``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics of ``spans.py``. The last
line of stdout is the result object; the line before it records the source,
the host and the sample counts. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
SETUP_PROBES = 3
# What calibrate() returns on an idle 2-vCPU machine; setup_s is reported at
# this speed.
CAL_REFERENCE_S = 0.0085
END_TO_END = (("setup_s", "s"), ("pipeline_rel", "x"), ("peak_rss_mb", "MB"))


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """Input files made from a seed, and the CLI calls of one pass (stage, argv)."""

    name: str
    inputs: Callable[[int], dict]
    calls: tuple


def _ini(sim: dict, noise: dict) -> bytes:
    lines = ["[sim]", *(f"{k} = {v}" for k, v in sim.items()), "", "[noise]"]
    lines += [f"{k} = {v}" for k, v in noise.items()]
    return ("\n".join(lines) + "\n").encode()


def _quickstart_inputs(seed: int) -> dict:
    # The README quick-start config. Its inline "; ..." comments are left out:
    # the config parser rejects them.
    sim = dict(n_pedestrians=30, n_frames=100, x_min=-60, x_max=60, y_min=-40, y_max=40,
               target_density2=3.8, seed=seed)
    noise = dict(pos_sigma=0.1, p_miss=0.05, clutter_rate=1.0, seed=seed + 1)
    return {"scene.ini": _ini(sim, noise)}


def _crowd_inputs(seed: int) -> dict:
    sim = dict(n_pedestrians=1000, n_frames=6, target_density2=3.0, seed=seed)
    noise = dict(pos_sigma=0.1, p_miss=0.05, clutter_rate=1.0, seed=seed + 1)
    return {"crowd.ini": _ini(sim, noise)}


def _polar(rng, n: int, r_min: float, r_max: float) -> np.ndarray:
    r = rng.uniform(r_min, r_max, n)
    theta = rng.uniform(-math.pi, math.pi, n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def _voxel_inputs(seed: int) -> dict:
    """A two-frame sweep around a sensor at the origin, 10k points per frame.

    Half the points are ground returns, denser near the sensor; half lie on
    the surfaces of 120 walking pedestrian cylinders. The previous frame sees
    the pedestrians 0.1 s earlier.
    """
    rng = np.random.default_rng([seed, 0x5CA1])
    n_frame, n_peds = 10_000, 120
    centers = _polar(rng, n_peds, 5.0, 40.0)
    velocity = rng.normal(0.0, 1.0, (n_peds, 2))
    frames = []
    for flag, dt in ((0.0, 0.0), (1.0, -0.1)):
        n_ground = n_frame // 2
        n_body = n_frame - n_ground
        ground = _polar(rng, n_ground, 3.0, 45.0)
        ground_z = rng.normal(-1.8, 0.02, n_ground)
        who = rng.integers(0, n_peds, n_body)
        angle = rng.uniform(-math.pi, math.pi, n_body)
        body = centers[who] + velocity[who] * dt
        body += 0.25 * np.column_stack([np.cos(angle), np.sin(angle)])
        body_z = rng.uniform(-1.8, -0.1, n_body)
        xy = np.vstack([ground, body])
        z = np.concatenate([ground_z, body_z])
        intensity = rng.uniform(0.0, 1.0, n_frame)
        frames.append(np.column_stack([xy, z, intensity, np.full(n_frame, flag)]))
    buffer = io.BytesIO()
    np.save(buffer, np.vstack(frames))
    return {"cloud.npy": buffer.getvalue()}


WORKLOADS = {
    "quickstart": Workload("quickstart", _quickstart_inputs, (
        ("gen", ("gen", "--config", "scene.ini", "--out", "run/gen")),
        ("targets", ("targets", "--gt", "run/gen/gt.jsonl", "--out", "run/targets",
                     "--grid", "0.5,0.5", "--extent=-60,60,-40,40", "--dump-pgm")),
        ("track", ("track", "--det", "run/gen/det.jsonl", "--out", "run/track")),
        ("eval", ("eval", "--gt", "run/gen/gt.jsonl", "--traj", "run/track/traj.jsonl",
                  "--out", "run/eval")),
        ("density", ("density", "--gt", "run/gen/gt.jsonl", "--out", "run/density")),
    )),
    "crowd": Workload("crowd", _crowd_inputs, (
        ("gen", ("gen", "--config", "crowd.ini", "--out", "run/gen")),
        ("track", ("track", "--det", "run/gen/det.jsonl", "--out", "run/track")),
        ("eval", ("eval", "--gt", "run/gen/gt.jsonl", "--traj", "run/track/traj.jsonl",
                  "--out", "run/eval")),
        ("density", ("density", "--gt", "run/gen/gt.jsonl", "--out", "run/density")),
    )),
    "voxel": Workload("voxel", _voxel_inputs, tuple(
        (f"voxel_{t}", ("voxelshapes", "--points", "cloud.npy", "--out", f"run/vox_{t}",
                        "--topology", t))
        for t in "abc"
    )),
}


def write_inputs(workload: Workload, seed: int, where: Path) -> None:
    for name, data in workload.inputs(seed).items():
        (where / name).write_bytes(data)


# -------------------------------------------------------------- calibration

# Fixed inputs of the calibration loop, made once per process.
_CAL_RNG = np.random.default_rng(0xCA1)
_CAL_GRID = _CAL_RNG.random((40, 240))
_CAL_XY = _CAL_RNG.uniform(-50.0, 50.0, (400, 2))
_CAL_YS, _CAL_XS = np.mgrid[0:160, 0:240]


def _cal_text() -> None:  # float formatting, as in grid writing
    text = io.StringIO()
    for row in _CAL_GRID:
        text.write(" ".join(f"{v:.6g}" for v in row))
        text.write("\n")


def _cal_loop() -> None:  # a Python loop over a small dict, as in tracking and simulation
    table, acc = {}, 0.0
    for i in range(40_000):
        acc = acc * 0.999 + (i % 7) * 0.5
        table[i & 511] = acc


def _cal_sparse() -> None:  # a dict of small feature vectors pooled to a coarser grid
    steps = np.arange(20_000, dtype=np.int64)[:, None] * np.array([7919, 104729, 1299709])
    cells = {tuple(c): np.full(4, 0.5) for c in (steps % np.array([800, 400, 40])).tolist()}
    groups: dict = {}
    for (x, y, z), feature in cells.items():
        groups.setdefault((x >> 1, y >> 1, z >> 1), []).append(feature)
    {coord: np.mean(features, axis=0) for coord, features in groups.items()}


def _cal_scatter() -> None:  # scattered reads over 16 MB
    values = np.arange(2_000_000, dtype=np.float64)
    float(values[(np.arange(500_000, dtype=np.int64) * 2654435761) % len(values)].sum())


def _cal_pairs() -> None:  # an all-pairs distance matrix, as in association and density
    d2 = ((_CAL_XY[:, None, :] - _CAL_XY[None, :, :]) ** 2).sum(axis=2)
    int((d2 < 4.0).sum())


def _cal_heat() -> None:  # Gaussian stamps on a 160 x 240 grid, as in heatmaps
    heat = np.zeros(_CAL_XS.shape)
    for cx, cy in _CAL_XY[:20] + 60.0:
        heat = np.maximum(heat, np.exp(-((_CAL_XS - cx) ** 2 + (_CAL_YS - cy) ** 2) / 8.0))


CAL_PARTS = (_cal_text, _cal_loop, _cal_sparse, _cal_scatter, _cal_pairs, _cal_heat)


def calibrate() -> float:
    """Geometric mean of the seconds each part of a fixed work mix takes.

    The parts are the kinds of work crowdmot does, without crowdmot; together
    they take about 60 ms on an idle 2-vCPU machine. The geometric mean
    weighs each kind of work equally, whatever its length, and one part hit
    by a pause moves it little. The parts' buffers raise the process's peak
    memory, so the warm-up pass, which gives ``peak_rss_mb``, does not run it.
    """
    logs = 0.0
    for part in CAL_PARTS:
        start = perf_counter()
        part()
        logs += math.log(perf_counter() - start)
    return math.exp(logs / len(CAL_PARTS))


# ------------------------------------------------------------------- passes


@dataclass
class Pass:
    """One execution of a workload's calls: wall times, exit codes, check failures."""

    traced: bool
    seconds: list
    codes: list
    calibration: list = field(default_factory=list)  # before the first call, after each
    total_s: float = 0.0
    peak_rss_mb: float = 0.0  # of the benchmark process, at the end of the pass
    errors: dict = field(default_factory=dict)  # call index -> [messages]
    digests: list = field(default_factory=list)  # call index -> {path: sha256}
    output_bytes: int = 0

    @property
    def relative(self) -> float:
        """Wall time of the calls in units of the calibration loop's time."""
        return self.total_s / statistics.mean(self.calibration)


def _call(argv: tuple) -> int:
    from crowdmot import cli

    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call; keep measuring the rest
        traceback.print_exc()
        return -1


def run_pass(workload: Workload, tracer: Optional[spans.Tracer] = None,
             calibrated: bool = True) -> Pass:
    """Run every call of the workload in the current directory, into ``run/``.

    When ``calibrated``, the calibration loop runs before the first call and
    after each call, outside the timed calls and outside any span.
    """
    shutil.rmtree("run", ignore_errors=True)
    gc.collect()  # start every pass from the same heap state
    result = Pass(traced=tracer is not None, seconds=[], codes=[])
    if calibrated:
        result.calibration.append(calibrate())
    for stage, argv in workload.calls:
        span = tracer.open(f"cli.{stage}") if tracer else None
        t = perf_counter()
        result.codes.append(_call(argv))
        result.seconds.append(perf_counter() - t)
        if span:
            tracer.close(span)
        if calibrated:
            result.calibration.append(calibrate())
    result.total_s = sum(result.seconds)
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


# ------------------------------------------------------------------- checks


def _sha256(path: Path) -> str:
    # Not crowdmot.formats.sha256_file: the checks must not rely on the code
    # under test, and that function is probed in traced passes.
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _flag(argv: tuple, name: str) -> str:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    raise KeyError(name)


def _flag_values(argv: tuple, name: str) -> list:
    start = argv.index(name) + 1
    end = next((i for i in range(start, len(argv)) if argv[i].startswith("--")), len(argv))
    return list(argv[start:end])


def _is_grid(path: str) -> bool:
    name = Path(path).name
    return name.startswith(("heatmap_", "weights_")) and not name.endswith(".pgm")


def check_manifest(out: str) -> tuple[dict, list]:
    """Digests of the manifest and every file it lists; errors where they disagree.

    The manifest and the files it lists are the determinism contract: a rerun
    must reproduce all of them byte for byte.
    """
    manifest_path = Path(out) / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        return {}, [f"{manifest_path}: unreadable ({exc})"]
    if not isinstance(manifest, dict):
        return {}, [f"{manifest_path}: not a JSON object"]
    digests = {str(manifest_path): _sha256(manifest_path)}
    errors = []
    for rel, want in sorted(manifest.get("outputs", {}).items()):
        path = Path(out) / rel
        if not path.is_file():
            errors.append(f"{path}: listed in the manifest but missing")
            continue
        digests[str(path)] = got = _sha256(path)
        if got != want:
            errors.append(f"{path}: digest does not match the manifest")
    for name, want in sorted(manifest.get("inputs", {}).items()):
        if not Path(name).is_file() or _sha256(Path(name)) != want:
            errors.append(f"{manifest_path}: input {name} does not match its digest")
    if not manifest.get("outputs"):
        errors.append(f"{manifest_path}: lists no outputs")
    return digests, errors


def load_grid(path: Path) -> np.ndarray:
    """Grid values from a text ``.grid`` file (header line, then rows) or a ``.npy``.

    Read here rather than with ``crowdmot.formats.read_grid`` so that a change
    of the program's grid format is checked against the pinned values.
    """
    if path.suffix == ".npy":
        return np.load(path)
    with open(path) as handle:
        header = handle.readline().split()
        values = np.array(handle.read().split(), dtype=np.float64)
    return values.reshape(int(header[0]), int(header[1]))


def grid_digest(values: np.ndarray) -> str:
    data = np.ascontiguousarray(values, dtype="<f8")
    shape = "x".join(str(n) for n in data.shape).encode()
    return hashlib.sha256(shape + b"\0" + data.tobytes()).hexdigest()


def _jsonl(path: str) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _sim_size(config: str) -> tuple[int, int]:
    parser = configparser.ConfigParser()
    parser.read(config)
    return int(parser["sim"]["n_pedestrians"]), int(parser["sim"]["n_frames"])


def _check_gen(argv: tuple, grids: Optional[dict]) -> list:
    n_peds, n_frames = _sim_size(_flag(argv, "--config"))
    out = _flag(argv, "--out")
    gt, det = _jsonl(f"{out}/gt.jsonl"), _jsonl(f"{out}/det.jsonl")
    errors = []
    if len(gt) != n_frames or len(det) != n_frames:
        errors.append(f"{out}: {len(gt)} GT and {len(det)} detection frames, want {n_frames}")
    if any(len(rec["objects"]) != n_peds for rec in gt):
        errors.append(f"{out}/gt.jsonl: a frame does not hold {n_peds} pedestrians")
    return errors


def _check_targets(argv: tuple, grids: Optional[dict]) -> list:
    out = Path(_flag(argv, "--out"))
    n_frames = len(_jsonl(_flag(argv, "--gt")))
    x_min, x_max, y_min, y_max = (float(v) for v in _flag(argv, "--extent").split(","))
    dx, dy = (float(v) for v in _flag(argv, "--grid").split(","))
    shape = (round((x_max - x_min) / dx), round((y_max - y_min) / dy))
    files = {p.name.split(".")[0]: p for p in out.iterdir() if _is_grid(p.name)}
    errors = []
    if len(_jsonl(out / "offsets.jsonl")) != n_frames:
        errors.append(f"{out}/offsets.jsonl: want {n_frames} frames")
    for frame in range(n_frames):
        for kind in ("heatmap", "weights"):
            stem = f"{kind}_{frame:04d}"
            if stem not in files:
                errors.append(f"{out}/{stem}: grid missing")
                continue
            if "--dump-pgm" in argv and not (out / f"{stem}.pgm").is_file():
                errors.append(f"{out}/{stem}.pgm: missing")
            values = load_grid(files[stem])
            if values.shape != shape:
                errors.append(f"{files[stem]}: shape {values.shape}, want {shape}")
            elif kind == "heatmap" and not (values.min() >= 0.0 and values.max() == 1.0):
                errors.append(f"{files[stem]}: heatmap values outside [0, 1] or no peak of 1")
            elif kind == "weights" and not (
                values.min() >= 0.0 and values.max() >= 1.0 and (values == np.round(values)).all()
            ):
                errors.append(f"{files[stem]}: weights are not non-negative counts")
            key = str(out / stem)
            if grids is not None and grids.get(key) != grid_digest(values):
                errors.append(f"{files[stem]}: values differ from the reference")
    return errors


def _check_track(argv: tuple, grids: Optional[dict]) -> list:
    out = _flag(argv, "--out")
    traj, det = _jsonl(f"{out}/traj.jsonl"), _jsonl(_flag(argv, "--det"))
    errors = []
    if len(traj) != len(det):
        errors.append(f"{out}/traj.jsonl: {len(traj)} frames, want {len(det)}")
    for rec in traj:
        ids = [obj["id"] for obj in rec["objects"]]
        if len(ids) != len(set(ids)):
            errors.append(f"{out}/traj.jsonl: frame {rec['frame']} repeats a track id")
            break
    return errors


def _check_eval(argv: tuple, grids: Optional[dict]) -> list:
    out = _flag(argv, "--out")
    lines = Path(f"{out}/report.txt").read_text().splitlines()
    errors = []
    for line in lines:
        if line.startswith("  "):
            value = float(line.split()[-1])
            if not math.isfinite(value):
                errors.append(f"{out}/report.txt: non-finite value in {line.strip()!r}")
    total = sum(len(rec["objects"]) for gt in _flag_values(argv, "--gt") for rec in _jsonl(gt))
    aggregate = lines[lines.index("aggregate:") + 1:] if "aggregate:" in lines else []
    if f"  P {total}" not in aggregate:
        errors.append(f"{out}/report.txt: aggregate P is not the {total} GT boxes")
    return errors


def _density(gt_path: str, radius: float) -> float:
    total = samples = 0
    for rec in _jsonl(gt_path):
        xs = np.array([obj["cx"] for obj in rec["objects"]])
        ys = np.array([obj["cy"] for obj in rec["objects"]])
        d2 = (xs[:, None] - xs[None, :]) ** 2 + (ys[:, None] - ys[None, :]) ** 2
        total += int((d2 < radius * radius).sum()) - len(xs)
        samples += len(xs)
    return total / samples


def _check_density(argv: tuple, grids: Optional[dict]) -> list:
    out = _flag(argv, "--out")
    radius = 2.0  # the CLI default; no workload passes --radius
    want = f"density@{radius}m {_density(_flag(argv, '--gt'), radius)!r}\n"
    if Path(f"{out}/density.txt").read_text() != want:
        return [f"{out}/density.txt: differs from the recomputed {want.strip()!r}"]
    return []


def _check_voxel(argv: tuple, grids: Optional[dict]) -> list:
    """The input row must match an independent count of occupied voxels.

    The extents and voxel sizes are those of the CLI's default VoxelSpec.
    """
    out = _flag(argv, "--out")
    rows = {line.split()[0]: line.split() for line in Path(f"{out}/voxelshapes.txt").read_text().splitlines()}
    points = np.load(_flag(argv, "--points"))[:, :3]
    lo, hi = np.array([-96.0, -48.0, -5.0]), np.array([96.0, 48.0, 3.0])
    inside = ((points >= lo) & (points < hi)).all(axis=1)
    cells = np.floor((points[inside] - lo) / np.array([0.075, 0.075, 0.2]) + 1e-9)
    occupied = len(np.unique(cells.astype(np.int64), axis=0))
    errors = []
    if set(rows) != {"stage", "input", "SF1", "SF2", "SF3", "SF4", "output", "dropped_points"}:
        errors.append(f"{out}/voxelshapes.txt: unexpected rows {sorted(rows)}")
    elif int(rows["input"][4]) != occupied or int(rows["dropped_points"][1]) != int((~inside).sum()):
        errors.append(f"{out}/voxelshapes.txt: input row is not {occupied} occupied voxels")
    return errors


STAGE_CHECKS = {
    "gen": _check_gen,
    "targets": _check_targets,
    "track": _check_track,
    "eval": _check_eval,
    "density": _check_density,
    "voxel_a": _check_voxel,
    "voxel_b": _check_voxel,
    "voxel_c": _check_voxel,
}


def check_pass(workload: Workload, done: Pass, first: Optional[Pass], reference: Optional[dict]) -> None:
    """Fill ``done.errors`` and ``done.digests``.

    Every pass: exit codes, manifests, and byte identity with the first pass.
    The first pass also gets the per-stage value checks and, when a reference
    is given, the pinned digests: every listed output except the grids by its
    bytes, the grids by their values.
    """
    for i, (stage, argv) in enumerate(workload.calls):
        errors = []
        if done.codes[i] != 0:
            errors.append(f"{stage}: exit code {done.codes[i]}")
        digests, manifest_errors = check_manifest(_flag(argv, "--out"))
        errors += manifest_errors
        done.digests.append(digests)
        if first is not None:
            if digests != first.digests[i]:
                changed = sorted(set(digests.items()) ^ set(first.digests[i].items()))
                errors.append(f"{stage}: rerun is not byte-identical ({changed[0][0]} ...)")
        elif not errors:
            if reference is not None:
                for path, want in reference["files"].items():
                    if Path(path).parent == Path(_flag(argv, "--out")) and digests.get(path) != want:
                        errors.append(f"{path}: differs from the reference digest")
            try:
                errors += STAGE_CHECKS[stage](argv, reference["grids"] if reference else None)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors.append(f"{stage}: output check could not read the outputs ({exc!r})")
        done.output_bytes += sum(Path(p).stat().st_size for p in digests)
        if errors:
            done.errors[i] = errors


def reference_for(workload: Workload) -> dict:
    """Digests of one pass at the default seed, in the layout of ``reference.json``."""
    run_pass(workload)
    files, grids = {}, {}
    for _, argv in workload.calls:
        out = _flag(argv, "--out")
        digests, errors = check_manifest(out)
        if errors:
            raise RuntimeError(errors)
        for path in digests:
            if Path(path).name == "manifest.json":
                continue
            if _is_grid(path):
                grids[str(Path(path).with_suffix(""))] = grid_digest(load_grid(Path(path)))
            else:
                files[path] = digests[path]
    return {"files": dict(sorted(files.items())), "grids": dict(sorted(grids.items()))}


def write_reference() -> None:
    """Pin the outputs of every workload at the default seed into ``reference.json``."""
    _import_crowdmot()
    os.environ["CROWDMOT_LOG"] = "quiet"
    pinned = {}
    for name, workload in WORKLOADS.items():
        with _workdir(workload, DEFAULT_SEED):
            pinned[name] = reference_for(workload)
    REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------------ metrics


def measure_setup(n: int = SETUP_PROBES) -> list[tuple[float, float]]:
    """(import seconds, calibration seconds) of n fresh interpreters.

    Each imports ``crowdmot.cli`` and then runs the calibration loop twice, so
    the loop's buffers stay out of this process's peak memory.
    """
    code = (
        "import sys, time; t = time.perf_counter(); import crowdmot.cli; "
        "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); import run; "
        "print(repr(t), repr((run.calibrate() + run.calibrate()) / 2))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), CROWDMOT_LOG="quiet")
    probes = []
    for _ in range(n):
        done = subprocess.run(
            [sys.executable, "-c", code, str(BENCH_DIR)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, calibration = done.stdout.strip().splitlines()[-1].split()
        probes.append((float(seconds), float(calibration)))
    return probes


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def stage_seconds(workload: Workload, passes: list) -> dict:
    """Per stage, the median over passes of the time summed over its calls."""
    out = {}
    for stage in dict.fromkeys(stage for stage, _ in workload.calls):
        sums = [
            sum(s for (st, _), s in zip(workload.calls, p.seconds) if st == stage)
            for p in passes
        ]
        out[stage] = _median(sums)
    return out


def end_to_end_result(setup: list, warmup: Pass, untraced: list) -> tuple[dict, dict]:
    """Set-up time, the timed passes' ratio, and peak memory after the warm-up pass.

    ``setup`` holds the (import, calibration) seconds of each set-up probe;
    ``setup_s`` is the import time scaled to the machine speed at which the
    calibration loop takes ``CAL_REFERENCE_S``. The warm-up pass runs no
    calibration loop, so its peak memory is the program's and the
    benchmark's, without the loop's buffers.
    """
    metrics = {
        "setup_s": _median([s * CAL_REFERENCE_S / cal for s, cal in setup]),
        "pipeline_rel": _median([p.relative for p in untraced]),
        "peak_rss_mb": warmup.peak_rss_mb,
    }
    samples = {"setup_s": len(setup), "pipeline_rel": len(untraced), "peak_rss_mb": 1}
    return metrics, samples


def layer_result(workload: Workload, tracer: spans.Tracer, absent: list,
                 untraced: list, traced: list) -> tuple[dict, dict]:
    metrics, samples = spans.summarize(tracer, absent)
    walls = stage_seconds(workload, untraced)
    for stage in spans.STAGES:
        metrics[f"cli.{stage}.wall_s"] = walls.get(stage, 0.0)
        samples[f"cli.{stage}.wall_s"] = len(untraced) if stage in walls else 0
    metrics["trace.overhead_s"] = (
        _median([p.total_s for p in traced]) - _median([p.total_s for p in untraced])
    )
    metrics["pipeline_s"] = _median([p.total_s for p in untraced])
    samples["pipeline_s"] = len(untraced)
    metrics["output_mb"] = untraced[0].output_bytes / 1e6
    return metrics, samples


def _source() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = done.stdout.strip() or None
        except OSError:
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _host() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# --------------------------------------------------------------------- main


@contextlib.contextmanager
def _workdir(workload: Workload, seed: int):
    """A fresh directory for one run, with its inputs written; it is the cwd inside."""
    path = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    write_inputs(workload, seed, path)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path, ignore_errors=True)


def _import_crowdmot() -> None:
    if not (SRC / "crowdmot" / "cli.py").is_file():
        raise RuntimeError(f"no crowdmot sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crowdmot.cli

    if Path(crowdmot.cli.__file__).resolve().parent != (SRC / "crowdmot").resolve():
        raise RuntimeError(f"crowdmot was imported from {crowdmot.cli.__file__}, not {SRC}")


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[list, spans.Tracer, list]:
    """Run passes until the time is used up.

    The first pass is a warm-up without calibration loops; after it, traced
    runs alternate traced and untraced passes. There are always at least two
    passes, three in a traced run, so that each kind is measured.
    """
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[workload.name]
    tracer = spans.Tracer()
    absent: list = []
    passes: list = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t = perf_counter()
        if traced:
            tracer.pass_id = len(passes)
            installed = spans.Installed(tracer)
            absent = installed.absent
            try:
                done = run_pass(workload, tracer)
            finally:
                installed.remove()
        else:
            done = run_pass(workload, calibrated=bool(passes))
        check_pass(workload, done, passes[0] if passes else None, reference)
        passes.append(done)
        cost = perf_counter() - t
        if len(passes) >= (3 if trace else 2) and perf_counter() - start + cost > seconds:
            return passes, tracer, absent


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        _import_crowdmot()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.environ["CROWDMOT_LOG"] = "quiet"
    workload = WORKLOADS[args.workload]

    setup = [] if args.trace else measure_setup()
    with _workdir(workload, args.seed):
        passes, tracer, absent = measure(workload, args.seed, args.seconds, bool(args.trace))
    warmup = passes[0]
    untraced = [p for p in passes[1:] if not p.traced]
    traced = [p for p in passes if p.traced]

    if args.trace:
        metrics, samples = layer_result(workload, tracer, absent, untraced, traced)
        units = {name: unit for name, unit, _ in spans.layer_metrics()}
        WORK.mkdir(parents=True, exist_ok=True)
        with open(WORK / f"spans-{workload.name}-s{args.seed}.jsonl", "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    else:
        metrics, samples = end_to_end_result(setup, warmup, untraced)
        units = dict(END_TO_END)

    attempted = sum(len(p.codes) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    errors = [msg for p in passes for msgs in p.errors.values() for msg in msgs]
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "statistic": "median over passes; step and match_frame also p50 and p90 over calls",
        "passes": {"warmup": 1, "untraced": len(untraced), "traced": len(traced)},
        "pass_s": [round(p.total_s, 4) for p in passes],
        "pass_rel": [round(p.relative, 2) for p in untraced],
        "pass_peak_rss_mb": [round(p.peak_rss_mb, 2) for p in passes],
        "samples": samples,
        "stage_s": stage_seconds(workload, untraced),
        "pipeline_s": _median([p.total_s for p in untraced]),
        "calibration_s": _median([c for p in untraced for c in p.calibration]),
        "setup_import_s": _median([s for s, _ in setup]),
        "setup_calibration_s": _median([cal for _, cal in setup]),
        "absent": absent,
        "errors": errors[:20],
        "source": _source(),
        "host": _host(),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
