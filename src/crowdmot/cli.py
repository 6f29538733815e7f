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

# Names this module once imported from those modules, still readable as
# crowdmot.cli.<name>. Each read looks the name up on its module again and
# caches nothing, so a wrapper later set on the module is what it returns.
_REEXPORTS = {
    "evaluator": ("MatchConfig", "aggregate", "density_stats", "evaluate_sequence"),
    "formats": (
        "atomic_write_text",
        "read_detections_jsonl",
        "read_scene_jsonl",
        "read_trajectories_jsonl",
        "sha256_file",
        "write_detections_jsonl",
        "write_grid",
        "write_offsets_jsonl",
        "write_pgm",
        "write_scene_jsonl",
        "write_trajectories_jsonl",
    ),
    "geometry": ("Frame", "GridSpec", "OutOfBoundsError", "check_positive", "quantize_to_grid"),
    "simulator": ("NoiseConfig", "SimConfig", "corrupt", "gen_scene"),
    "sparsegrid": ("DEFAULT_WIDTHS", "PointCloud", "VoxelSpec", "topology_report"),
    "targets": ("make_daw", "make_heatmap", "motion_offsets", "relationship_offsets"),
    "tracker": ("TrackerConfig", "run_sequence"),
}
_OWNER = {name: module for module, names in _REEXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    """A config file or flag failed validation."""


def _say(text: str) -> None:
    """Informational stdout, silenced by CROWDMOT_LOG=quiet."""
    if os.environ.get("CROWDMOT_LOG", "info").lower() != "quiet":
        print(text)


_SIM_FIELDS = {
    "n_pedestrians": (int, None),
    "n_frames": (int, None),
    "x_min": (float, -96.0),
    "x_max": (float, 96.0),
    "y_min": (float, -48.0),
    "y_max": (float, 48.0),
    "target_density2": (float, 1.0),
    "speed_min": (float, 0.5),
    "speed_max": (float, 1.5),
    "frame_rate": (float, 10.0),
    "seed": (int, 0),
}

_NOISE_FIELDS = {
    "pos_sigma": (float, 0.0),
    "offset_sigma": (float, 0.0),
    "p_miss": (float, 0.0),
    "clutter_rate": (float, 0.0),
    "score_true_mean": (float, 0.9),
    "score_true_sigma": (float, 0.05),
    "score_clutter_mean": (float, 0.3),
    "score_clutter_sigma": (float, 0.1),
    "emit_rel": (bool, False),
    "seed": (int, 1),
}


def _parse_section(parser: "configparser.ConfigParser", section: str, fields: dict) -> dict:
    values = {}
    present = parser[section] if parser.has_section(section) else {}
    for key in present:
        if key not in fields:
            raise ConfigError(f"[{section}] unknown field {key!r}")
    for key, (cast, default) in fields.items():
        if key in present:
            raw = present[key]
            try:
                if cast is bool:
                    if raw.lower() not in ("true", "false", "0", "1"):
                        raise ValueError(raw)
                    values[key] = raw.lower() in ("true", "1")
                else:
                    values[key] = cast(raw)
            except ValueError:
                raise ConfigError(
                    f"[{section}] field {key!r}: cannot parse {raw!r} as {cast.__name__}"
                ) from None
        elif default is None:
            raise ConfigError(f"[{section}] missing required field {key!r}")
        else:
            values[key] = default
    return values


def load_gen_config(
    path: Path, seed_override: int | None
) -> tuple[simulator.SimConfig, simulator.NoiseConfig, dict]:
    """Parse a gen config file into sim/noise configs plus a full echo dict."""
    import configparser

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
    sim_values = _parse_section(parser, "sim", _SIM_FIELDS)
    noise_values = _parse_section(parser, "noise", _NOISE_FIELDS)
    if seed_override is not None:
        sim_values["seed"] = seed_override
        noise_values["seed"] = seed_override + 1
    try:
        sim = simulator.SimConfig(
            n_pedestrians=sim_values["n_pedestrians"],
            n_frames=sim_values["n_frames"],
            area=(
                sim_values["x_min"],
                sim_values["x_max"],
                sim_values["y_min"],
                sim_values["y_max"],
            ),
            target_density2=sim_values["target_density2"],
            speed_min=sim_values["speed_min"],
            speed_max=sim_values["speed_max"],
            frame_rate=sim_values["frame_rate"],
            seed=sim_values["seed"],
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
    number: int, frame: geometry.Frame, out: Path, grid: geometry.GridSpec, sigma: float, th: float,
    dump_pgm: bool, reprs: dict[int, str],
) -> dict[Path, str]:
    """Write frame `number`'s heatmap and weight grids, and their PGMs with dump_pgm.

    reprs is the write_grid memo of float texts the frames share. Returns
    {path: digest} of the files written.
    """
    heat = targets.make_heatmap(frame, grid, sigma=sigma)
    daw = targets.make_daw(frame, grid, th=th)
    heat_path = out / f"heatmap_{number:04d}.grid"
    daw_path = out / f"weights_{number:04d}.grid"
    outputs = {
        heat_path: formats.write_grid(heat_path, heat, reprs),
        daw_path: formats.write_grid(daw_path, daw, reprs),
    }
    if dump_pgm:
        for src, dst in ((heat, heat_path), (daw, daw_path)):
            pgm = dst.with_suffix(".pgm")
            outputs[pgm] = formats.write_pgm(pgm, src)
    return outputs


_Job = Callable[[int, "geometry.Frame"], dict[Path, str]]


def _map_frames(job: _Job, frames: list[geometry.Frame], cells: int) -> list[dict[Path, str]]:
    """[job(number, frame) for each frame], in frame order.

    The frames run in this process when it may use one CPU, when they hold
    fewer than _PARALLEL_MIN_CELLS grid cells in all (`cells` a frame), or
    when the process runs other threads, whose locks a forked child would
    inherit held. Otherwise they run on min(CPUs, frames) forked children
    (_fork_map), which inherit the loaded modules and the job itself, so
    nothing is imported or pickled to start them. The jobs write the same
    files either way.
    """
    import threading

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(frames))
    if workers < 2 or len(frames) * cells < _PARALLEL_MIN_CELLS or threading.active_count() > 1:
        return list(map(job, range(len(frames)), frames))
    # Four chunks a worker: 1 to 50 frames a chunk took the same time on
    # the quick start's 100 frames.
    return _fork_map(job, frames, max(1, len(frames) // (4 * workers)), workers)


def _fork_map(job: _Job, frames: list[geometry.Frame], size: int, workers: int) -> list[dict[Path, str]]:
    """[job(number, frame) for each frame] on `workers` forked children, in frame order.

    Chunk k holds frames k * size to (k + 1) * size - 1. Before the first
    fork every chunk's number goes into one pipe as 4 bytes and its write
    end is closed, so each 4-byte read a child makes gets one whole number
    or end of file. There are fewer than 8 chunks a worker, under 32 bytes, well
    inside a pipe's buffer. A child takes chunks until end of file, so a
    slow child takes fewer, and answers once on its own pipe (_serve).

    This process reads each answer to end of file and reaps each child. Once
    every child has ended it raises the exception of the lowest failed
    frame; a child that ended without an answer is an OSError. No child
    outlives this call: any still running on the way out is killed and reaped.
    """
    import pickle
    import signal

    tasks, feed = os.pipe()
    children: dict[int, int | None] = {}  # pid -> read end of its answer pipe, None once closed
    try:
        with open(feed, "wb") as writer:
            writer.write(b"".join(k.to_bytes(4, "little") for k in range(-(-len(frames) // size))))
        for _ in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(job, frames, size, tasks, write)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            children[pid] = read
        outputs: list = [None] * len(frames)
        failures = []  # (frame number, exception); a dead child sorts after every frame
        for pid in list(children):
            answer = _read_to_end(children[pid])
            os.close(children[pid])
            children[pid] = None
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                how = f"exited with code {status}" if status > 0 else f"was killed by signal {-status}"
                failures.append((len(frames), OSError(f"targets worker died: process {pid} {how}")))
                continue
            done, failed = pickle.loads(answer)
            for number, written in done:
                outputs[number] = written
            if failed is not None:
                failures.append(failed)
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return outputs
    finally:
        os.close(tasks)
        for pid, read in children.items():
            if read is not None:
                os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(job: _Job, frames: list[geometry.Frame], size: int, tasks: int, answer: int) -> None:
    """A forked child's life: run chunks until end of file, answer once, and exit.

    The answer is one pickle of (done, failed): done lists (number, outputs)
    of the frames run, failed is None or (number, exception) of the first
    frame that raised. After a failure the child empties the chunk pipe, so
    the other children stop after their current chunk. An exception that
    cannot cross in a pickle crosses as _portable's stand-in. The child ends
    in os._exit, never returning into the caller's frames; its status is 0
    only once the whole answer is written.
    """
    status = 1
    try:
        import pickle

        done, failed = [], None
        while failed is None and (word := os.read(tasks, 4)):
            start = int.from_bytes(word, "little") * size
            for number in range(start, min(start + size, len(frames))):
                try:
                    done.append((number, job(number, frames[number])))
                except Exception as exc:
                    failed = (number, _portable(exc))
                    while os.read(tasks, 1 << 16):
                        pass
                    break
        data = memoryview(pickle.dumps((done, failed)))
        while data:
            data = data[os.write(answer, data):]
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


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


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
    # worker fills its own copy over all the chunks it takes.
    job = partial(
        _frame_targets, out=out.root, grid=grid, sigma=args.sigma, th=args.th, dump_pgm=args.dump_pgm,
        reprs={},
    )
    for written in _map_frames(job, frames, grid.nx * grid.ny):
        out.digests.update(written)
    out.write("offsets.jsonl", formats.write_offsets_jsonl, offsets, timestamps)
    config = {
        "grid": {"dx": dx, "dy": dy, "x_min": x_min, "x_max": x_max, "y_min": y_min, "y_max": y_max},
        "sigma": args.sigma,
        "th": args.th,
        "rel_radius": args.rel_radius,
        "dump_pgm": bool(args.dump_pgm),
    }
    return out.done(config, [args.gt], f"wrote targets for {len(frames)} frames to {out.root}")


def cmd_track(args: argparse.Namespace, out: _Output) -> int:
    cfg = tracker.TrackerConfig(
        max_match_dist=args.max_match_dist,
        max_age=args.max_age,
        birth_score_min=args.birth_score_min,
    )
    det_frames, timestamps = formats.read_detections_jsonl(Path(args.det))
    tracks = tracker.run_sequence(det_frames, cfg)
    traj_path = out.write("traj.jsonl", formats.write_trajectories_jsonl, tracks, timestamps)
    config = {
        "max_match_dist": cfg.max_match_dist,
        "max_age": cfg.max_age,
        "birth_score_min": cfg.birth_score_min,
    }
    n_tracks = len(set().union(*(f.ids.tolist() for f in tracks)))
    return out.done(config, [args.det], f"wrote {n_tracks} trajectories to {traj_path}")


def cmd_eval(args: argparse.Namespace, out: _Output) -> int:
    if len(args.gt) != len(args.traj):
        raise ConfigError(
            f"need one --traj per --gt, got {len(args.gt)} vs {len(args.traj)}"
        )
    cfg = evaluator.MatchConfig(iou_threshold=args.iou_th)
    per_seq = []
    densities = []
    lines = []
    for gt_path, traj_path in zip(args.gt, args.traj):
        gt_frames, gt_times = formats.read_scene_jsonl(Path(gt_path))
        pred_frames, pred_times = formats.read_trajectories_jsonl(Path(traj_path))
        _check_same_sequence(gt_path, gt_times, traj_path, pred_times)
        _check_tracked_from_scene(gt_path, traj_path)
        metrics = evaluator.evaluate_sequence(gt_frames, pred_frames, cfg)
        density = evaluator.density_stats(gt_frames, radius=args.radius)
        samples = sum(len(f) for f in gt_frames)
        per_seq.append(metrics)
        densities.append((density, samples))
        lines.append(f"sequence: gt={gt_path} traj={traj_path}")
        lines += _metric_lines(metrics, density, args.radius)
    total = evaluator.aggregate(per_seq)
    pooled_density = sum(d * s for d, s in densities) / sum(s for _, s in densities)
    lines.append("aggregate:")
    lines += _metric_lines(total, pooled_density, args.radius)
    report = "\n".join(lines) + "\n"
    out.write("report.txt", formats.atomic_write_text, report)
    config = {"iou_threshold": cfg.iou_threshold, "density_radius": args.radius}
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
    frames, _ = formats.read_scene_jsonl(Path(args.gt))
    density = evaluator.density_stats(frames, radius=args.radius)
    text = f"density@{args.radius}m {density!r}\n"
    out.write("density.txt", formats.atomic_write_text, text)
    return out.done({"radius": args.radius}, [args.gt], text.rstrip("\n"))


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
    p.add_argument("--max-match-dist", type=float, default=1.0)
    p.add_argument("--max-age", type=int, default=3)
    p.add_argument("--birth-score-min", type=float, default=0.3)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="CLEAR-MOT metrics for trajectories against GT")
    p.add_argument("--gt", required=True, nargs="+")
    p.add_argument("--traj", required=True, nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--iou-th", type=float, default=0.5)
    p.add_argument("--radius", type=float, default=2.0, help="density statistic radius")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("density", help="crowding statistic of a GT file")
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--radius", type=float, default=2.0)
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
