"""Command-line pipelines: generate, targets, track, eval, density, voxelshapes.

Every command validates its inputs up front, computes in memory, then writes
its files plus a manifest.json recording the resolved configuration, seeds,
and content digests of all inputs and outputs. `main` hands each command one
_Output, the one writer of its output files and its manifest: inputs are
hashed from disk; each output's digest is the one its writer computed from
the bytes it wrote. Reruns with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial
from pathlib import Path
from typing import Callable

# Each of these stays unexecuted until a command reads one of its attributes,
# so a call loads only the modules its subcommand uses (see the package).
from . import __version__, evaluator, formats, geometry, simulator, sparsegrid, targets, tracker


def __getattr__(name: str):
    # crowdmot.cli.gen_scene stays readable until the benchmark's own test
    # (bench/test_bench.py) reads crowdmot.simulator.gen_scene instead. Each
    # read looks it up again, so a wrapper later set on simulator is returned.
    if name == "gen_scene":
        return simulator.gen_scene
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    """A config file or flag failed validation."""


def _say(text: str) -> None:
    """Informational stdout, silenced by CROWDMOT_LOG=quiet."""
    if os.environ.get("CROWDMOT_LOG", "info").lower() != "quiet":
        print(text)


def _ini_fields(config_type) -> dict[str, tuple[str, object]]:
    """INI field -> (type, default) for each field of a config dataclass, in field order.

    The type is the field's annotation ("int", "float" or "bool"), and the
    default is None for a required field. SimConfig.area is read as the four
    float fields x_min, x_max, y_min and y_max.
    """
    import dataclasses

    fields = {}
    for field in dataclasses.fields(config_type):
        if field.name == "area":
            fields.update(zip(("x_min", "x_max", "y_min", "y_max"), (("float", v) for v in field.default)))
        else:
            fields[field.name] = (field.type, None if field.default is dataclasses.MISSING else field.default)
    return fields


def _parse_section(parser: "configparser.ConfigParser", section: str, fields: dict) -> dict:
    values = {}
    present = parser[section] if parser.has_section(section) else {}
    for key in present:
        if key not in fields:
            raise ConfigError(f"[{section}] unknown field {key!r}")
    for key, (kind, default) in fields.items():
        if key in present:
            raw = present[key]
            try:
                if kind == "bool":
                    if raw.lower() not in ("true", "false", "0", "1"):
                        raise ValueError(raw)
                    values[key] = raw.lower() in ("true", "1")
                else:
                    values[key] = {"int": int, "float": float}[kind](raw)
            except ValueError:
                raise ConfigError(f"[{section}] field {key!r}: cannot parse {raw!r} as {kind}") from None
        elif default is None:
            raise ConfigError(f"[{section}] missing required field {key!r}")
        else:
            values[key] = default
    return values


def load_gen_config(
    path: Path, seed_override: int | None
) -> tuple[simulator.SimConfig, simulator.NoiseConfig, dict]:
    """Parse a gen config file into sim/noise configs plus a full echo dict.

    The file holds [sim] and optionally [noise], and nothing else. Each of
    their fields takes its type and default from SimConfig and NoiseConfig,
    except [noise] seed: its default is 1, not NoiseConfig's 0, the one
    value this module owns.
    """
    import configparser
    import dataclasses

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        # Some of these messages span lines; the error stays one line.
        raise ConfigError(" ".join(str(exc).split())) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if not parser.has_section("sim"):
        raise ConfigError("missing required section [sim]")
    extra = next((name for name in parser.sections() if name not in ("sim", "noise")), None)
    if extra is not None:
        raise ConfigError(f"unknown section [{extra}]: a gen config holds [sim] and optional [noise]")
    if parser.defaults():
        raise ConfigError("[DEFAULT] must be empty: its fields would reach every section")
    sim_values = _parse_section(parser, "sim", _ini_fields(simulator.SimConfig))
    noise_values = _parse_section(parser, "noise", {**_ini_fields(simulator.NoiseConfig), "seed": ("int", 1)})
    if seed_override is not None:
        sim_values["seed"] = seed_override
        noise_values["seed"] = seed_override + 1
    # The [sim] fields that SimConfig lacks are those of its area, in order.
    own = {field.name for field in dataclasses.fields(simulator.SimConfig)}
    try:
        sim = simulator.SimConfig(
            area=tuple(value for key, value in sim_values.items() if key not in own),
            **{key: value for key, value in sim_values.items() if key in own},
        )
        noise = simulator.NoiseConfig(**noise_values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return sim, noise, {"sim": sim_values, "noise": noise_values}


class _Output:
    """One command's --out directory: the one writer of its files and its manifest.

    write() puts a file under the directory and keeps the digest its writer
    computed from the bytes it wrote. done() writes manifest.json and prints
    the command's summary: inputs are hashed from disk, keyed str(Path(arg)),
    and outputs are keyed by their path relative to the directory, so reruns
    into different directories stay byte-identical.
    """

    MANIFEST = "manifest.json"

    def __init__(self, root: str, command: str) -> None:
        self.root = Path(root)
        self.command = command
        self.digests: dict[Path, str] = {}

    def write(self, name: str, writer: Callable[..., str], *args) -> Path:
        """writer(path, *args) for path `name` under the directory; returns the path."""
        path = self.root / name
        self.digests[path] = writer(path, *args)
        return path

    def done(self, config: dict, inputs: list[str], summary: str) -> int:
        """Write manifest.json, print `summary` through _say, and return the exit code 0."""
        manifest = {
            "tool": "crowdmot",
            "version": __version__,
            "command": self.command,
            "config": config,
            "inputs": {str(Path(p)): formats.sha256_file(Path(p)) for p in inputs},
            "outputs": {str(p.relative_to(self.root)): digest for p, digest in self.digests.items()},
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        formats.atomic_write_text(self.root / self.MANIFEST, text)
        _say(summary)
        return 0


def _parse_floats(raw: str, flag: str, count: int, expects: str) -> tuple[float, ...]:
    """The `count` comma-separated floats of a flag's value; `expects` describes them."""
    parts = raw.split(",")
    if len(parts) != count:
        raise ConfigError(f"{flag} expects {expects}, got {raw!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse {raw!r}") from None


def cmd_gen(args: argparse.Namespace, out: _Output) -> int:
    sim, noise, echo = load_gen_config(Path(args.config), args.seed)
    frames, timestamps = simulator.gen_scene(sim)
    dets = simulator.corrupt(frames, noise)
    gt_path = out.write("gt.jsonl", formats.write_scene_jsonl, frames, timestamps)
    det_path = out.write("det.jsonl", formats.write_detections_jsonl, dets, timestamps)
    return out.done(echo, [args.config], f"wrote {gt_path} and {det_path}")


# Grid cells (frames x nx x ny) below which `targets` builds every frame in
# this process. Starting and stopping two forked workers costs about 10 ms:
# median of 15 calls with a trivial job on the quick start's 100 frames, 2-CPU
# VM, 8-12 ms over three processes (the first call in a process 19-27 ms).
# The break-even sizes below were measured with the process pool used before,
# which cost 20-26 ms a call there; the threshold was kept as it was.
# Measured on a 2-CPU VM, median of 11 alternating in-process calls on the
# quick-start scene at 240 x 160 cells a frame: 8 frames (307,200 cells) took
# 72 ms serial against 85 ms on the pool, 10 frames (384,000) 85 ms on both,
# 12 frames (460,800) 90 against 76 ms; with --dump-pgm the pool broke even
# at 6 frames (230,400). Smaller grids break even at fewer cells (16 frames of
# 60 x 40, 38,400), as each frame also pays a fixed cost per file.
_PARALLEL_MIN_CELLS = 400_000


def _check_on_grid(frames: list[geometry.Frame], grid: geometry.GridSpec) -> None:
    """Raise OutOfBoundsError naming the first frame and object off the grid's extents."""
    import numpy as np

    xy = geometry.Stacked([frame.boxes[:, :2] for frame in frames], np.zeros((0, 2)))
    try:
        geometry.grid_cells(xy.rows, grid)
    except geometry.OutOfBoundsError as exc:
        # Only a bad input gets here: find the frame and object the error names.
        row = int(geometry.to_cells(xy.rows, grid)[0].argmin())
        number = int(xy.number[row])
        key = frames[number].ids[row - xy.start[number]].item()
        raise geometry.OutOfBoundsError(f"frame {number}, object {key}: {exc}") from None


def _frame_targets(
    number: int, frame: geometry.Frame, out: _Output, grid: geometry.GridSpec, sigma: float, th: float,
    dump_pgm: bool, reprs: dict[int, str],
) -> None:
    """Write frame `number`'s heatmap and weight grids through `out`, and their PGMs with dump_pgm.

    reprs is the write_grid memo of float texts the frames share.
    """
    heat = targets.make_heatmap(frame, grid, sigma=sigma)
    daw = targets.make_daw(frame, grid, th=th)
    for stem, values in ((f"heatmap_{number:04d}", heat), (f"weights_{number:04d}", daw)):
        out.write(f"{stem}.grid", formats.write_grid, values, reprs)
        if dump_pgm:
            out.write(f"{stem}.pgm", formats.write_pgm, values)


_Job = Callable[[int, "geometry.Frame"], None]


def _map_frames(job: _Job, frames: list[geometry.Frame], cells: int, out: _Output) -> None:
    """job(number, frame) for each frame, where each job writes its files through `out`.

    The frames run in this process, in order, when it may use one CPU, when
    they hold fewer than _PARALLEL_MIN_CELLS grid cells in all (`cells` a
    frame), or when the process runs other threads, whose locks a forked
    child would inherit held. Otherwise they run on min(CPUs, frames) forked
    children (_fork_map), which inherit the loaded modules and the job
    itself, so nothing is imported or pickled to start them. The jobs write
    the same files either way, and out.digests ends up holding all of them.
    """
    import threading

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(frames))
    if workers < 2 or len(frames) * cells < _PARALLEL_MIN_CELLS or threading.active_count() > 1:
        for number, frame in enumerate(frames):
            job(number, frame)
    else:
        _fork_map(job, frames, workers, out)


def _fork_map(job: _Job, frames: list[geometry.Frame], workers: int, out: _Output) -> None:
    """job(number, frame) for each frame on `workers` forked children; their digests join out.digests.

    Child k runs frames k, k + workers, ... in order (_serve) and answers
    once on its own pipe. This process reads each answer to end of file and
    reaps each child. Once every child has ended it raises the exception of
    the lowest failed frame; a child that ended without an answer is an
    OSError. No child outlives this call: any still running on the way out
    is killed and reaped.
    """
    import pickle
    import signal

    children = {}  # pid -> read end of its answer pipe
    try:
        for first in range(workers):
            read, write = os.pipe()
            answer = open(read, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(job, frames, range(first, len(frames), workers), out, write)
            except BaseException:
                answer.close()
                raise
            finally:
                os.close(write)
            children[pid] = answer
        failures = []  # (frame number, exception); a dead child sorts after every frame
        for pid, answer in list(children.items()):
            with answer:
                data = answer.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                how = f"exited with code {status}" if status > 0 else f"was killed by signal {-status}"
                failures.append((len(frames), OSError(f"targets worker died: process {pid} {how}")))
                continue
            digests, failed = pickle.loads(data)
            out.digests.update(digests)
            if failed is not None:
                failures.append(failed)
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
    finally:
        for pid, answer in children.items():
            answer.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(job: _Job, frames: list[geometry.Frame], numbers: range, out: _Output, answer: int) -> None:
    """A forked child's life: run frames `numbers` in order until one fails, answer once, and exit.

    The answer is one pickle of (digests, failed): the digests out recorded
    in this child, and None or (number, exception) of the frame that raised.
    An exception that cannot cross in a pickle crosses as _portable's
    stand-in. The child ends in os._exit, never returning into the caller's
    frames; its status is 0 only once the whole answer is written.
    """
    status = 1
    try:
        import pickle

        out.digests.clear()
        failed = None
        for number in numbers:
            try:
                job(number, frames[number])
            except Exception as exc:
                failed = (number, _portable(exc))
                break
        with open(answer, "wb") as pipe:
            pickle.dump((out.digests, failed), pipe)
        status = 0
    finally:
        os._exit(status)


def _portable(exc: Exception) -> Exception:
    """exc if it survives a pickle round trip, else a stand-in holding its type name and message.

    The stand-in is an OSError for an OSError, a ValueError for a ValueError
    and a RuntimeError otherwise, so `main` reports it as it would exc.
    """
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        kind = (
            OSError if isinstance(exc, OSError) else ValueError if isinstance(exc, ValueError) else RuntimeError
        )
        return kind(f"{type(exc).__name__}: {exc}")


def cmd_targets(args: argparse.Namespace, out: _Output) -> int:
    from dataclasses import replace

    geometry.check_positive("--sigma", args.sigma)
    geometry.check_positive("--th", args.th)
    geometry.check_positive("--rel-radius", args.rel_radius)
    dx, dy = _parse_floats(args.grid, "--grid", 2, "two comma-separated values")
    x_min, x_max, y_min, y_max = _parse_floats(args.extent, "--extent", 4, "x_min,x_max,y_min,y_max")
    try:
        grid = geometry.GridSpec(x_min, x_max, y_min, y_max, dx, dy)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    frames, timestamps = formats.read_scene_jsonl(Path(args.gt))
    # Validate every object against the grid and build every offset target
    # before writing anything, so a bad late frame cannot leave partial
    # outputs behind.
    _check_on_grid(frames, grid)
    motion = targets.motion_offsets(frames)
    rels = targets.relationship_offsets(frames, radius=args.rel_radius)
    offsets = [
        replace(frame, offset=offset, newborn=newborn, rel=rel)
        for frame, (offset, newborn), rel in zip(frames, motion, rels)
    ]
    # One table of float texts for all the frames one process runs: the
    # heatmaps repeat the same stencil values in every frame. Each forked
    # worker fills its own copy over all the frames it takes.
    job = partial(
        _frame_targets, out=out, grid=grid, sigma=args.sigma, th=args.th, dump_pgm=args.dump_pgm, reprs={}
    )
    _map_frames(job, frames, grid.nx * grid.ny, out)
    out.write("offsets.jsonl", formats.write_offsets_jsonl, offsets, timestamps)
    config = {
        "grid": {"dx": dx, "dy": dy, "x_min": x_min, "x_max": x_max, "y_min": y_min, "y_max": y_max},
        "sigma": args.sigma,
        "th": args.th,
        "rel_radius": args.rel_radius,
        "dump_pgm": bool(args.dump_pgm),
    }
    return out.done(config, [args.gt], f"wrote targets for {len(frames)} frames to {out.root}")


def _given(args: argparse.Namespace, config_type):
    """config_type built from the flags given for its fields; the others keep its defaults."""
    import dataclasses

    fields = dataclasses.fields(config_type)
    return config_type(**{field.name: getattr(args, field.name) for field in fields if hasattr(args, field.name)})


def cmd_track(args: argparse.Namespace, out: _Output) -> int:
    from dataclasses import asdict

    cfg = _given(args, tracker.TrackerConfig)
    det_frames, timestamps = formats.read_detections_jsonl(Path(args.det))
    tracks = tracker.run_sequence(det_frames, cfg)
    traj_path = out.write("traj.jsonl", formats.write_trajectories_jsonl, tracks, timestamps)
    n_tracks = len(set().union(*(f.ids.tolist() for f in tracks)))
    return out.done(asdict(cfg), [args.det], f"wrote {n_tracks} trajectories to {traj_path}")


def cmd_eval(args: argparse.Namespace, out: _Output) -> int:
    from dataclasses import asdict

    if len(args.gt) != len(args.traj):
        raise ConfigError(
            f"need one --traj per --gt, got {len(args.gt)} vs {len(args.traj)}"
        )
    cfg = _given(args, evaluator.MatchConfig)
    radius = getattr(args, "radius", evaluator.DENSITY_RADIUS)
    per_seq = []
    densities = []
    lines = []
    for gt_path, traj_path in zip(args.gt, args.traj):
        gt_frames, gt_times = formats.read_scene_jsonl(Path(gt_path))
        pred_frames, pred_times = formats.read_trajectories_jsonl(Path(traj_path))
        _check_same_sequence(gt_path, gt_times, traj_path, pred_times)
        _check_tracked_from_scene(gt_path, traj_path)
        metrics = evaluator.evaluate_sequence(gt_frames, pred_frames, cfg)
        density = evaluator.density_stats(gt_frames, radius=radius)
        samples = sum(len(f) for f in gt_frames)
        per_seq.append(metrics)
        densities.append((density, samples))
        lines.append(f"sequence: gt={gt_path} traj={traj_path}")
        lines += _metric_lines(metrics, density, radius)
    total = evaluator.aggregate(per_seq)
    pooled_density = sum(d * s for d, s in densities) / sum(s for _, s in densities)
    lines.append("aggregate:")
    lines += _metric_lines(total, pooled_density, radius)
    report = "\n".join(lines) + "\n"
    out.write("report.txt", formats.atomic_write_text, report)
    config = {**asdict(cfg), "density_radius": radius}
    return out.done(config, args.gt + args.traj, report.rstrip("\n"))


def _check_same_sequence(gt_path: str, gt_times: list, traj_path: str, traj_times: list) -> None:
    """Raise ConfigError unless the trajectory file has the GT file's frame timestamps."""
    if gt_times == traj_times:
        return
    pairs = list(zip(gt_times, traj_times))
    k = next((k for k, (a, b) in enumerate(pairs) if a != b), len(pairs))
    if k < len(pairs):
        detail = f"timestamp {traj_times[k]!r}, GT {gt_times[k]!r}"
    else:
        detail = f"{len(traj_times)} frames, GT {len(gt_times)}"
    raise ConfigError(
        f"trajectories {traj_path} are not of the sequence in {gt_path}: "
        f"they differ first at frame {k} ({detail})"
    )


def _manifest_beside(path: str, command: str) -> dict | None:
    """The manifest.json in path's directory, if `command` wrote it with path's file among its outputs."""
    try:
        manifest = json.loads((Path(path).parent / _Output.MANIFEST).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or manifest.get("command") != command:
        return None
    outputs = manifest.get("outputs")
    return manifest if isinstance(outputs, dict) and Path(path).name in outputs else None


def _check_tracked_from_scene(gt_path: str, traj_path: str) -> None:
    """Raise ConfigError if the manifests show the trajectories tracked from another scene's detections.

    Two gen runs with as many frames at one frame rate write the same
    timestamps, so _check_same_sequence cannot tell their outputs apart.
    When a gen manifest sits beside the GT and a track manifest beside the
    trajectories, the track input's digest must be that of gen's det.jsonl.
    """
    gen, track = _manifest_beside(gt_path, "gen"), _manifest_beside(traj_path, "track")
    if gen is None or track is None:
        return
    detections = gen["outputs"].get("det.jsonl")
    tracked = track.get("inputs")
    if not isinstance(tracked, dict) or len(tracked) != 1 or detections is None:
        return
    [(det_path, digest)] = tracked.items()
    if digest != detections:
        raise ConfigError(
            f"trajectories {traj_path} were tracked from {det_path}, whose digest is not that of "
            f"the det.jsonl written with {gt_path} (manifests: sha256 {digest}, gen {detections})"
        )


def _metric_lines(metrics, density: float, radius: float) -> list[str]:
    c = metrics.counts
    return [
        f"  P {c.p}",
        f"  FP {c.fp}",
        f"  FN {c.fn}",
        f"  IDS {c.ids}",
        f"  MOTA {metrics.mota!r}",
        f"  MTR {metrics.mtr!r}",
        f"  MLR {metrics.mlr!r}",
        f"  gt_trajectories {len(metrics.coverages)}",
        f"  density@{radius}m {density!r}",
    ]


def cmd_density(args: argparse.Namespace, out: _Output) -> int:
    radius = getattr(args, "radius", evaluator.DENSITY_RADIUS)
    frames, _ = formats.read_scene_jsonl(Path(args.gt))
    density = evaluator.density_stats(frames, radius=radius)
    text = f"density@{radius}m {density!r}\n"
    out.write("density.txt", formats.atomic_write_text, text)
    return out.done({"radius": radius}, [args.gt], text.rstrip("\n"))


def cmd_voxelshapes(args: argparse.Namespace, out: _Output) -> int:
    import numpy as np

    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    try:
        raw = np.load(args.points)
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigError(f"cannot load point file {args.points}: {exc}") from None
    if not isinstance(raw, np.ndarray):
        raw.close()
        raise ConfigError(f"{args.points} is an archive of arrays, not one .npy array")
    if raw.dtype.kind not in "iuf":
        raise ConfigError(f"points must be integers or floats, got dtype {raw.dtype}")
    if raw.ndim != 2 or raw.shape[1] not in (3, 4, 5):
        raise ConfigError(f"points must be (n, 3|4|5), got {raw.shape}")
    if raw.shape[1] < 5:
        pad = np.zeros((raw.shape[0], 5 - raw.shape[1]))
        raw = np.hstack([raw, pad])
    pc = sparsegrid.PointCloud(raw)
    rows = sparsegrid.topology_report(
        pc, sparsegrid.VoxelSpec(), topology=args.topology, widths=sparsegrid.DEFAULT_WIDTHS
    )
    lines = [f"{'stage':<8}{'stride':>7}{'bev_res_m':>11}{'shape':>18}{'occupied':>10}{'channels':>10}"]
    for row in rows:
        shape = "x".join(str(s) for s in row["shape"])
        lines.append(
            f"{row['name']:<8}{row['stride']:>7}{row['bev_resolution_m']:>11.3f}"
            f"{shape:>18}{row['occupied']:>10}{row['channels']:>10}"
        )
    lines.append(f"dropped_points {rows[-1]['dropped_points']}")
    text = "\n".join(lines) + "\n"
    out.write("voxelshapes.txt", formats.atomic_write_text, text)
    config = {"topology": args.topology, "seed": args.seed, "widths": list(sparsegrid.DEFAULT_WIDTHS)}
    return out.done(config, [args.points], text.rstrip("\n"))


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call only; importing this module builds none."""
    parser = argparse.ArgumentParser(
        prog="crowdmot",
        description="Crowded-pedestrian 3D MOT workbench: simulate, build targets, track, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"crowdmot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic GT scene and noisy detections")
    p.add_argument("--config", required=True, help="INI config with [sim] and optional [noise]")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seeds")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("targets", help="dump heatmap/weight grids and offset targets for a GT file")
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", default="0.6,0.6", help="dx,dy in meters")
    p.add_argument("--extent", default="-96,96,-48,48", help="x_min,x_max,y_min,y_max")
    p.add_argument("--sigma", type=float, default=1.0, help="heatmap spread in cells")
    p.add_argument("--th", type=float, default=2.0, help="density weight radius in meters")
    p.add_argument("--rel-radius", type=float, default=3.0, help="neighbor gate in meters")
    p.add_argument("--dump-pgm", action="store_true")
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("track", help="link a detection file into trajectories")
    p.add_argument("--det", required=True)
    p.add_argument("--out", required=True)
    # These flags and those of eval and density default to argparse.SUPPRESS:
    # one not given leaves its value to its owner, a config type (_given) or
    # evaluator.DENSITY_RADIUS.
    p.add_argument("--max-match-dist", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-age", type=int, default=argparse.SUPPRESS)
    p.add_argument("--birth-score-min", type=float, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="CLEAR-MOT metrics for trajectories against GT")
    p.add_argument("--gt", required=True, nargs="+", action="extend")
    p.add_argument("--traj", required=True, nargs="+", action="extend")
    p.add_argument("--out", required=True)
    p.add_argument("--iou-th", type=float, default=argparse.SUPPRESS, dest="iou_threshold", metavar="IOU_TH")
    p.add_argument("--radius", type=float, default=argparse.SUPPRESS, help="density statistic radius")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("density", help="crowding statistic of a GT file")
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--radius", type=float, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("voxelshapes", help="stride/resolution/occupancy table for a point cloud")
    p.add_argument("--points", required=True, help=".npy array of shape (n, 3|4|5)")
    p.add_argument("--out", required=True)
    p.add_argument("--topology", choices=("a", "b", "c"), default="a")
    p.add_argument(
        "--seed", type=int, default=0,
        help="recorded in the manifest; the table holds no feature, so it changes no byte of it",
    )
    p.set_defaults(func=cmd_voxelshapes)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, _Output(args.out, args.command))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
