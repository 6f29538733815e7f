"""Command-line pipelines: generate, targets, track, eval, density, voxelshapes.

Every command validates its inputs up front, computes in memory, then writes
its files plus a manifest.json recording the resolved configuration, seeds,
and content digests of all inputs and outputs. Inputs are hashed from disk;
each output's digest is the one its writer computed from the bytes it wrote.
Reruns with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import threading
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .evaluator import MatchConfig, aggregate, density_stats, evaluate_sequence
from .formats import (
    atomic_write_text,
    read_detections_jsonl,
    read_scene_jsonl,
    read_trajectories_jsonl,
    sha256_file,
    write_detections_jsonl,
    write_grid,
    write_offsets_jsonl,
    write_pgm,
    write_scene_jsonl,
    write_trajectories_jsonl,
)
from .geometry import Frame, GridSpec, OutOfBoundsError, check_positive, quantize_to_grid
from .simulator import NoiseConfig, SimConfig, corrupt, gen_scene
from .sparsegrid import DEFAULT_WIDTHS, PointCloud, VoxelSpec, topology_report
from .targets import make_daw, make_heatmap, motion_offsets, relationship_offsets
from .tracker import TrackerConfig, run_sequence


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


def _parse_section(parser: configparser.ConfigParser, section: str, fields: dict) -> dict:
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


def load_gen_config(path: Path, seed_override: int | None) -> tuple[SimConfig, NoiseConfig, dict]:
    """Parse a gen config file into sim/noise configs plus a full echo dict."""
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
        sim = SimConfig(
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
        noise = NoiseConfig(**noise_values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return sim, noise, {"sim": sim_values, "noise": noise_values}


def _write_manifest(
    out_dir: Path, command: str, config: dict, inputs: list[Path], outputs: dict[Path, str]
) -> None:
    """manifest.json: inputs hashed from disk, outputs with the digests their writers returned."""
    # Output paths are stored relative to the manifest so reruns into
    # different directories stay byte-identical.
    manifest = {
        "tool": "crowdmot",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {str(p.relative_to(out_dir)): digest for p, digest in outputs.items()},
    }
    atomic_write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_pair(raw: str, flag: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{flag} expects two comma-separated values, got {raw!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse {raw!r}") from None


def _parse_extent(raw: str) -> tuple[float, float, float, float]:
    parts = raw.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--extent expects x_min,x_max,y_min,y_max, got {raw!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise ConfigError(f"--extent: cannot parse {raw!r}") from None


def cmd_gen(args: argparse.Namespace) -> int:
    sim, noise, echo = load_gen_config(Path(args.config), args.seed)
    frames, timestamps = gen_scene(sim)
    dets = corrupt(frames, noise)
    out = Path(args.out)
    gt_path, det_path = out / "gt.jsonl", out / "det.jsonl"
    outputs = {
        gt_path: write_scene_jsonl(gt_path, frames, timestamps),
        det_path: write_detections_jsonl(det_path, dets, timestamps),
    }
    _write_manifest(out, "gen", echo, [Path(args.config)], outputs)
    _say(f"wrote {gt_path} and {det_path}")
    return 0


# Grid cells (frames x nx x ny) below which `targets` builds every frame in
# this process. Starting and stopping two forked workers costs about 30 ms.
# Measured on a 2-CPU VM, median of 11 alternating in-process calls on the
# quick-start scene at 240 x 160 cells a frame: 8 frames (307,200 cells) took
# 72 ms serial against 85 ms on the pool, 10 frames (384,000) 85 ms on both,
# 12 frames (460,800) 90 against 76 ms; with --dump-pgm the pool broke even
# at 6 frames (230,400). Smaller grids break even at fewer cells (16 frames of
# 60 x 40, 38,400), as each frame also pays a fixed cost per file.
_PARALLEL_MIN_CELLS = 400_000


def _check_on_grid(frames: list[Frame], grid: GridSpec) -> None:
    """Raise OutOfBoundsError naming the first frame and object off the grid's extents."""
    xy = np.concatenate([np.zeros((0, 2)), *(frame.boxes[:, :2] for frame in frames)])
    x, y = xy[:, 0], xy[:, 1]
    if ((grid.x_min <= x) & (x < grid.x_max) & (grid.y_min <= y) & (y < grid.y_max)).all():
        return
    # Only a bad input gets here: find the object to name, as quantize_to_grid words it.
    for number, frame in enumerate(frames):
        for key, (x, y) in zip(frame.ids.tolist(), frame.boxes[:, :2].tolist()):
            try:
                quantize_to_grid(x, y, grid)
            except OutOfBoundsError as exc:
                raise OutOfBoundsError(f"frame {number}, object {key}: {exc}") from None


def _frame_targets(
    number: int, frame: Frame, out: Path, grid: GridSpec, sigma: float, th: float, dump_pgm: bool,
    reprs: dict[int, str],
) -> dict[Path, str]:
    """Write frame `number`'s heatmap and weight grids, and their PGMs with dump_pgm.

    reprs is the write_grid memo of float texts the frames share. Returns
    {path: digest} of the files written.
    """
    heat = make_heatmap(frame, grid, sigma=sigma)
    daw = make_daw(frame, grid, th=th)
    heat_path = out / f"heatmap_{number:04d}.grid"
    daw_path = out / f"weights_{number:04d}.grid"
    outputs = {heat_path: write_grid(heat_path, heat, reprs), daw_path: write_grid(daw_path, daw, reprs)}
    if dump_pgm:
        for src, dst in ((heat, heat_path), (daw, daw_path)):
            pgm = dst.with_suffix(".pgm")
            outputs[pgm] = write_pgm(pgm, src)
    return outputs


def _map_frames(
    job: Callable[[int, Frame], dict[Path, str]], frames: list[Frame], cells: int
) -> list[dict[Path, str]]:
    """[job(number, frame) for each frame], in frame order.

    The frames run in this process when it may use one CPU, when they hold
    fewer than _PARALLEL_MIN_CELLS grid cells in all (`cells` a frame), or
    when the process runs other threads, whose locks a forked child would
    inherit held. Otherwise they run on min(CPUs, frames) forked workers,
    which inherit the loaded modules and pay no import. The jobs write the
    same files either way. A job's exception is raised here once the running
    jobs have ended, and the queued ones are dropped; a worker that dies is
    an OSError.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(frames))
    if workers < 2 or len(frames) * cells < _PARALLEL_MIN_CELLS or threading.active_count() > 1:
        return list(map(job, range(len(frames)), frames))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        # Four chunks a worker: 1 to 50 frames a chunk took the same time on
        # the quick start's 100 frames.
        chunksize = max(1, len(frames) // (4 * workers))
        return list(pool.map(job, range(len(frames)), frames, chunksize=chunksize))
    except BrokenProcessPool as exc:
        raise OSError(f"targets worker died: {exc}") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def cmd_targets(args: argparse.Namespace) -> int:
    check_positive("--sigma", args.sigma)
    check_positive("--th", args.th)
    check_positive("--rel-radius", args.rel_radius)
    dx, dy = _parse_pair(args.grid, "--grid")
    x_min, x_max, y_min, y_max = _parse_extent(args.extent)
    try:
        grid = GridSpec(x_min, x_max, y_min, y_max, dx, dy)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    frames, timestamps = read_scene_jsonl(Path(args.gt))
    # Validate every object against the grid and build every offset target
    # before writing anything, so a bad late frame cannot leave partial
    # outputs behind.
    _check_on_grid(frames, grid)
    motion = motion_offsets(frames)
    rels = relationship_offsets(frames, radius=args.rel_radius)
    offsets = [
        replace(frame, offset=offset, newborn=newborn, rel=rel)
        for frame, (offset, newborn), rel in zip(frames, motion, rels)
    ]
    out = Path(args.out)
    # One table of float texts for all the frames one process runs: the
    # heatmaps repeat the same stencil values in every frame. On the pool,
    # each chunk of frames unpickles its own empty copy and fills that.
    job = partial(
        _frame_targets, out=out, grid=grid, sigma=args.sigma, th=args.th, dump_pgm=args.dump_pgm,
        reprs={},
    )
    outputs = {}
    for written in _map_frames(job, frames, grid.nx * grid.ny):
        outputs.update(written)
    offsets_path = out / "offsets.jsonl"
    outputs[offsets_path] = write_offsets_jsonl(offsets_path, offsets, timestamps)
    config = {
        "grid": {"dx": dx, "dy": dy, "x_min": x_min, "x_max": x_max, "y_min": y_min, "y_max": y_max},
        "sigma": args.sigma,
        "th": args.th,
        "rel_radius": args.rel_radius,
        "dump_pgm": bool(args.dump_pgm),
    }
    _write_manifest(out, "targets", config, [Path(args.gt)], outputs)
    _say(f"wrote targets for {len(frames)} frames to {out}")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    cfg = TrackerConfig(
        max_match_dist=args.max_match_dist,
        max_age=args.max_age,
        birth_score_min=args.birth_score_min,
    )
    det_frames, timestamps = read_detections_jsonl(Path(args.det))
    tracks = run_sequence(det_frames, cfg)
    out = Path(args.out)
    traj_path = out / "traj.jsonl"
    digest = write_trajectories_jsonl(traj_path, tracks, timestamps)
    config = {
        "max_match_dist": cfg.max_match_dist,
        "max_age": cfg.max_age,
        "birth_score_min": cfg.birth_score_min,
    }
    _write_manifest(out, "track", config, [Path(args.det)], {traj_path: digest})
    n_tracks = len(set().union(*(f.ids.tolist() for f in tracks)))
    _say(f"wrote {n_tracks} trajectories to {traj_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if len(args.gt) != len(args.traj):
        raise ConfigError(
            f"need one --traj per --gt, got {len(args.gt)} vs {len(args.traj)}"
        )
    cfg = MatchConfig(iou_threshold=args.iou_th)
    per_seq = []
    densities = []
    lines = []
    for gt_path, traj_path in zip(args.gt, args.traj):
        gt_frames, gt_times = read_scene_jsonl(Path(gt_path))
        pred_frames, pred_times = read_trajectories_jsonl(Path(traj_path))
        _check_same_sequence(gt_path, gt_times, traj_path, pred_times)
        _check_tracked_from_scene(gt_path, traj_path)
        metrics = evaluate_sequence(gt_frames, pred_frames, cfg)
        density = density_stats(gt_frames, radius=args.radius)
        samples = sum(len(f) for f in gt_frames)
        per_seq.append(metrics)
        densities.append((density, samples))
        lines.append(f"sequence: gt={gt_path} traj={traj_path}")
        lines += _metric_lines(metrics, density, args.radius)
    total = aggregate(per_seq)
    pooled_density = sum(d * s for d, s in densities) / sum(s for _, s in densities)
    lines.append("aggregate:")
    lines += _metric_lines(total, pooled_density, args.radius)
    report = "\n".join(lines) + "\n"
    out = Path(args.out)
    report_path = out / "report.txt"
    digest = atomic_write_text(report_path, report)
    config = {"iou_threshold": cfg.iou_threshold, "density_radius": args.radius}
    inputs = [Path(p) for p in args.gt] + [Path(p) for p in args.traj]
    _write_manifest(out, "eval", config, inputs, {report_path: digest})
    _say(report.rstrip("\n"))
    return 0


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
        manifest = json.loads((Path(path).parent / "manifest.json").read_text(encoding="utf-8"))
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


def cmd_density(args: argparse.Namespace) -> int:
    frames, _ = read_scene_jsonl(Path(args.gt))
    density = density_stats(frames, radius=args.radius)
    text = f"density@{args.radius}m {density!r}\n"
    out = Path(args.out)
    density_path = out / "density.txt"
    digest = atomic_write_text(density_path, text)
    _write_manifest(out, "density", {"radius": args.radius}, [Path(args.gt)], {density_path: digest})
    _say(text.rstrip("\n"))
    return 0


def cmd_voxelshapes(args: argparse.Namespace) -> int:
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
    pc = PointCloud(raw)
    rows = topology_report(pc, VoxelSpec(), topology=args.topology, widths=DEFAULT_WIDTHS)
    lines = [f"{'stage':<8}{'stride':>7}{'bev_res_m':>11}{'shape':>18}{'occupied':>10}{'channels':>10}"]
    for row in rows:
        shape = "x".join(str(s) for s in row["shape"])
        lines.append(
            f"{row['name']:<8}{row['stride']:>7}{row['bev_resolution_m']:>11.3f}"
            f"{shape:>18}{row['occupied']:>10}{row['channels']:>10}"
        )
    lines.append(f"dropped_points {rows[-1]['dropped_points']}")
    text = "\n".join(lines) + "\n"
    out = Path(args.out)
    table_path = out / "voxelshapes.txt"
    digest = atomic_write_text(table_path, text)
    config = {"topology": args.topology, "seed": args.seed, "widths": list(DEFAULT_WIDTHS)}
    _write_manifest(out, "voxelshapes", config, [Path(args.points)], {table_path: digest})
    _say(text.rstrip("\n"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
