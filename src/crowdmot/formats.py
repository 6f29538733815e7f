"""Stable on-disk formats: per-frame JSONL, portable dense grids, PGM dumps.

One JSON object per line holds one frame:
    {"frame": int, "timestamp": float, "objects": [{...}]}
GT objects carry {id, cx, cy, cz, l, w, h, yaw}; detections additionally
carry score, offset [ox, oy, oz], optionally newborn and rel ([rx, ry] or
null when no neighbor is in range); trajectory objects carry score and use
the track id as id. For detection records the id is the within-frame index.

Grid files are plain text: a header line "nx ny dx dy x_min y_min" followed
by nx rows of ny values (row j lists cells (j, 0..ny-1)).

All writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from .geometry import Box3D, GridSpec
from .simulator import SceneSequence
from .targets import DenseGrid2D, GtObject, MotionOffset, RelationshipOffset
from .tracker import Detection, Trajectory


class FormatError(ValueError):
    """A file does not follow the expected schema."""


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _box_fields(box: Box3D) -> dict:
    return {
        "cx": box.cx,
        "cy": box.cy,
        "cz": box.cz,
        "l": box.length,
        "w": box.width,
        "h": box.height,
        "yaw": box.yaw,
    }


def _box_from_fields(rec: dict, where: str) -> Box3D:
    try:
        return Box3D(
            cx=float(rec["cx"]),
            cy=float(rec["cy"]),
            cz=float(rec["cz"]),
            length=float(rec["l"]),
            height=float(rec["h"]),
            width=float(rec["w"]),
            yaw=float(rec["yaw"]),
        )
    except KeyError as exc:
        raise FormatError(f"{where}: missing box field {exc.args[0]!r}") from None


def _frame_line(frame: int, timestamp: float, objects: list[dict]) -> str:
    return json.dumps(
        {"frame": frame, "timestamp": timestamp, "objects": objects},
        separators=(",", ":"),
        allow_nan=False,
    )


def write_scene_jsonl(path: Path, scene: SceneSequence) -> None:
    lines = []
    for frame, (objs, ts) in enumerate(zip(scene.frames, scene.timestamps)):
        objects = [
            {"id": int(o.instance_id), **_box_fields(o.box)}
            for o in sorted(objs, key=lambda o: o.instance_id)
        ]
        lines.append(_frame_line(frame, ts, objects))
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def read_scene_jsonl(path: Path) -> SceneSequence:
    frames: list[list[GtObject]] = []
    timestamps: list[float] = []
    for line_no, rec in _read_records(path):
        objs = []
        for obj in rec["objects"]:
            if "id" not in obj:
                raise FormatError(f"{path}:{line_no}: object without id")
            objs.append(
                GtObject(
                    instance_id=int(obj["id"]),
                    box=_box_from_fields(obj, f"{path}:{line_no}"),
                    frame=int(rec["frame"]),
                )
            )
        frames.append(objs)
        timestamps.append(float(rec["timestamp"]))
    return SceneSequence(frames, timestamps, _frame_rate_of(timestamps))


def write_detections_jsonl(
    path: Path, det_frames: list[list[Detection]], timestamps: list[float]
) -> None:
    if len(det_frames) != len(timestamps):
        raise ValueError("detection frames and timestamps length mismatch")
    lines = []
    for frame, (dets, ts) in enumerate(zip(det_frames, timestamps)):
        objects = []
        for i, det in enumerate(dets):
            obj = {
                "id": i,
                **_box_fields(det.box),
                "score": det.score,
                "offset": list(det.offset.as_tuple()),
            }
            if det.offset.newborn:
                obj["newborn"] = True
            if det.relationship is not None:
                obj["rel"] = (
                    [det.relationship.rx, det.relationship.ry]
                    if det.relationship.defined
                    else None
                )
            objects.append(obj)
        lines.append(_frame_line(frame, ts, objects))
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def read_detections_jsonl(path: Path) -> tuple[list[list[Detection]], list[float]]:
    det_frames: list[list[Detection]] = []
    timestamps: list[float] = []
    for line_no, rec in _read_records(path):
        frame = int(rec["frame"])
        dets = []
        for obj in rec["objects"]:
            where = f"{path}:{line_no}"
            for need in ("score", "offset"):
                if need not in obj:
                    raise FormatError(f"{where}: detection missing field {need!r}")
            ox, oy, oz = (float(v) for v in obj["offset"])
            rel = None
            if "rel" in obj:
                rel = (
                    RelationshipOffset(float(obj["rel"][0]), float(obj["rel"][1]), True)
                    if obj["rel"] is not None
                    else RelationshipOffset.undefined()
                )
            dets.append(
                Detection(
                    box=_box_from_fields(obj, where),
                    score=float(obj["score"]),
                    offset=MotionOffset(ox, oy, oz, newborn=bool(obj.get("newborn", False))),
                    frame=frame,
                    relationship=rel,
                )
            )
        det_frames.append(dets)
        timestamps.append(float(rec["timestamp"]))
    return det_frames, timestamps


def write_trajectories_jsonl(
    path: Path, trajectories: list[Trajectory], timestamps: list[float]
) -> None:
    per_frame: dict[int, list[dict]] = {i: [] for i in range(len(timestamps))}
    for traj in trajectories:
        for frame, box, score in traj.entries:
            if frame not in per_frame:
                raise ValueError(f"trajectory frame {frame} outside sequence")
            per_frame[frame].append(
                {"id": traj.track_id, **_box_fields(box), "score": score}
            )
    lines = []
    for frame in range(len(timestamps)):
        objects = sorted(per_frame[frame], key=lambda o: o["id"])
        lines.append(_frame_line(frame, timestamps[frame], objects))
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def read_trajectories_jsonl(path: Path) -> tuple[list[list[tuple[int, Box3D]]], list[float]]:
    """Per-frame (track id, box) lists, as the evaluator consumes them."""
    frames: list[list[tuple[int, Box3D]]] = []
    timestamps: list[float] = []
    for line_no, rec in _read_records(path):
        preds = []
        for obj in rec["objects"]:
            if "id" not in obj:
                raise FormatError(f"{path}:{line_no}: object without id")
            preds.append((int(obj["id"]), _box_from_fields(obj, f"{path}:{line_no}")))
        frames.append(preds)
        timestamps.append(float(rec["timestamp"]))
    return frames, timestamps


def _reject_constant(name: str):
    raise FormatError(f"non-finite number {name}")


# One strict decoder for every line: the NaN and Infinity tokens are not JSON.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _read_records(path: Path) -> Iterable[tuple[int, dict]]:
    last_frame = -1
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = _DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from None
            except FormatError as exc:
                raise FormatError(f"{path}:{line_no}: {exc}") from None
            if not isinstance(rec, dict):
                raise FormatError(f"{path}:{line_no}: record is not a JSON object")
            for need in ("frame", "timestamp", "objects"):
                if need not in rec:
                    raise FormatError(f"{path}:{line_no}: missing field {need!r}")
            if not isinstance(rec["objects"], list):
                raise FormatError(f"{path}:{line_no}: 'objects' is not a list")
            if not all(isinstance(obj, dict) for obj in rec["objects"]):
                raise FormatError(f"{path}:{line_no}: an entry of 'objects' is not an object")
            if int(rec["frame"]) != last_frame + 1:
                raise FormatError(
                    f"{path}:{line_no}: frame {rec['frame']} out of order "
                    f"(expected {last_frame + 1})"
                )
            last_frame = int(rec["frame"])
            yield line_no, rec


def _frame_rate_of(timestamps: list[float]) -> float:
    if len(timestamps) < 2:
        return 1.0
    diffs = np.diff(timestamps)
    return float(1.0 / np.median(diffs))


def write_grid(path: Path, grid: DenseGrid2D) -> None:
    spec = grid.grid
    header = f"{spec.nx} {spec.ny} {spec.dx!r} {spec.dy!r} {spec.x_min!r} {spec.y_min!r}"
    # repr each distinct value once. The table is keyed on the bit pattern, not
    # on float equality, which would merge -0.0 with 0.0.
    bits = np.ascontiguousarray(grid.values).view(np.uint64)
    distinct, index = np.unique(bits, return_inverse=True)
    table = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    rows = [" ".join(row) for row in table[index.reshape(bits.shape)].tolist()]
    atomic_write_text(path, "\n".join([header, *rows]) + "\n")


def read_grid(path: Path) -> DenseGrid2D:
    with open(path) as handle:
        header = handle.readline().split()
        if len(header) != 6:
            raise FormatError(f"{path}: bad grid header")
        nx, ny = int(header[0]), int(header[1])
        dx, dy, x_min, y_min = (float(v) for v in header[2:])
        values = np.loadtxt(handle, ndmin=2)
    if values.shape != (nx, ny):
        raise FormatError(f"{path}: grid body {values.shape} does not match header")
    spec = GridSpec(x_min, x_min + nx * dx, y_min, y_min + ny * dy, dx, dy)
    return DenseGrid2D(spec, values)


_PGM_LEVELS = np.array([str(level) for level in range(256)], dtype=object)


def write_pgm(path: Path, grid: DenseGrid2D) -> None:
    """Grayscale dump: values scaled so the grid maximum maps to 255."""
    values = grid.values
    peak = float(values.max()) if values.size else 0.0
    scaled = np.zeros_like(values, dtype=np.int64)
    if peak > 0:
        scaled = np.clip(np.round(values / peak * 255.0), 0, 255).astype(np.int64)
    # PGM rows scan y from top; emit k-major so the image is ny rows of nx.
    rows = [" ".join(row) for row in _PGM_LEVELS[scaled[:, ::-1].T].tolist()]
    text = f"P2\n{scaled.shape[0]} {scaled.shape[1]}\n255\n" + "\n".join(rows) + "\n"
    atomic_write_text(path, text)
