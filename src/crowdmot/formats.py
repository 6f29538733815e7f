"""Stable on-disk formats: per-frame JSONL, portable dense grids, PGM dumps.

One JSON object per line holds one frame:
    {"frame": int, "timestamp": float, "objects": [{...}]}
GT objects carry {id, cx, cy, cz, l, w, h, yaw}; detections additionally
carry score, offset [ox, oy, oz], optionally newborn and rel ([rx, ry] or
null when no neighbor is in range); trajectory objects carry score and use
the track id as id. For detection records the id is the within-frame index.
Offset-target objects carry {id, offset [ox, oy, oz], newborn, rel}.

Frames are numbered 0, 1, ... with strictly increasing timestamps; every
number is finite, ids are integers unique within their frame, and objects
are written in ascending id order. Every JSONL file is written through
_write_frames, and every JSONL reader goes through _read_frames.

Grid files are plain text: a header line "nx ny dx dy x_min y_min" followed
by nx rows of ny values (row j lists cells (j, 0..ny-1)).

All writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from operator import itemgetter
from pathlib import Path
from typing import Callable, Hashable, Iterable

import numpy as np

from .geometry import GridSpec
from .records import (
    Box3D, Detection, GtObject, MotionOffset, RelationshipOffset, SceneSequence, Trajectory,
)
from .targets import DenseGrid2D


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


def _rel_field(rel: RelationshipOffset) -> list[float] | None:
    return [rel.rx, rel.ry] if rel.defined else None


def _frame_line(frame: int, timestamp: float, objects: list[dict]) -> str:
    return json.dumps(
        {"frame": frame, "timestamp": timestamp, "objects": objects},
        separators=(",", ":"),
        allow_nan=False,
    )


def _write_frames(path: Path, timestamps: list[float], frames: Iterable[list[dict]]) -> None:
    """One line per frame, each frame's objects in ascending id order."""
    lines = [
        _frame_line(frame, ts, sorted(objects, key=itemgetter("id")))
        for frame, (ts, objects) in enumerate(zip(timestamps, frames, strict=True))
    ]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def write_scene_jsonl(path: Path, scene: SceneSequence) -> None:
    frames = (
        [{"id": int(o.instance_id), **_box_fields(o.box)} for o in objs] for objs in scene.frames
    )
    _write_frames(path, scene.timestamps, frames)


def _detection_record(index: int, det: Detection) -> dict:
    obj = {
        "id": index,
        **_box_fields(det.box),
        "score": det.score,
        "offset": list(det.offset.as_tuple()),
    }
    if det.offset.newborn:
        obj["newborn"] = True
    if det.relationship is not None:
        obj["rel"] = _rel_field(det.relationship)
    return obj


def write_detections_jsonl(
    path: Path, det_frames: list[list[Detection]], timestamps: list[float]
) -> None:
    frames = ([_detection_record(i, det) for i, det in enumerate(dets)] for dets in det_frames)
    _write_frames(path, timestamps, frames)


def write_trajectories_jsonl(
    path: Path, trajectories: list[Trajectory], timestamps: list[float]
) -> None:
    frames: list[list[dict]] = [[] for _ in timestamps]
    for traj in trajectories:
        for frame, box, score in traj.entries:
            if not 0 <= frame < len(frames):
                raise ValueError(f"trajectory frame {frame} outside sequence")
            frames[frame].append({"id": traj.track_id, **_box_fields(box), "score": score})
    _write_frames(path, timestamps, frames)


def write_offsets_jsonl(
    path: Path,
    timestamps: list[float],
    offsets: Iterable[tuple[dict[Hashable, MotionOffset], dict[Hashable, RelationshipOffset]]],
) -> None:
    """Offset targets: per frame, the motion and relationship offsets by instance id."""
    frames = (
        [
            {"id": int(key), "offset": list(off.as_tuple()), "newborn": off.newborn,
             "rel": _rel_field(rels[key])}
            for key, off in motion.items()
        ]
        for motion, rels in offsets
    )
    _write_frames(path, timestamps, frames)


_LARGEST = sys.float_info.max


def _number(obj: dict | list, key: str | int) -> float:
    """obj[key] as a float; it must be a finite JSON number, not a bool."""
    value = obj[key]
    if type(value) in (float, int) and -_LARGEST <= value <= _LARGEST:
        return float(value)
    raise FormatError(f"{key!r} must be a finite number, got {value!r}")


def _integer(obj: dict, key: str) -> int:
    """obj[key]; it must be a JSON integer, not a bool."""
    value = obj[key]
    if type(value) is int:
        return value
    raise FormatError(f"{key!r} must be an integer, got {value!r}")


def _numbers(obj: dict, key: str, n: int) -> list[float]:
    """obj[key] as floats; it must be a list of n finite JSON numbers."""
    value = obj[key]
    if type(value) is list and len(value) == n:
        try:
            return [_number(value, i) for i in range(n)]
        except FormatError:
            pass
    raise FormatError(f"{key!r} must be a list of {n} finite numbers, got {value!r}")


def _box(obj: dict) -> Box3D:
    return Box3D(
        cx=_number(obj, "cx"),
        cy=_number(obj, "cy"),
        cz=_number(obj, "cz"),
        length=_number(obj, "l"),
        height=_number(obj, "h"),
        width=_number(obj, "w"),
        yaw=_number(obj, "yaw"),
    )


def _read_frames(path: Path, decode: Callable[[int, dict, int], object]) -> tuple[list, list]:
    """Per-frame decode(id, object, frame) values and the frame timestamps.

    Frames must be numbered 0, 1, ... in order with strictly increasing
    timestamps, and each object needs an integer id unique within its frame.
    """
    frames: list[list] = []
    timestamps: list[float] = []
    for line_no, rec in _read_records(path):
        try:
            frame = _integer(rec, "frame")
            if frame != len(frames):
                raise FormatError(f"frame {frame} out of order (expected {len(frames)})")
            timestamp = _number(rec, "timestamp")
            if timestamps and timestamp <= timestamps[-1]:
                raise FormatError(f"timestamp {timestamp!r} is not after {timestamps[-1]!r}")
            objects = rec["objects"]
            if type(objects) is not list:
                raise FormatError("'objects' is not a list")
            values, ids = [], set()
            for obj in objects:
                if type(obj) is not dict:
                    raise FormatError("an entry of 'objects' is not an object")
                key = _integer(obj, "id")
                if key in ids:
                    raise FormatError(f"duplicate id {key}")
                ids.add(key)
                values.append(decode(key, obj, frame))
        except KeyError as exc:
            raise FormatError(f"{path}:{line_no}: missing field {exc.args[0]!r}") from None
        except ValueError as exc:
            raise FormatError(f"{path}:{line_no}: {exc}") from None
        frames.append(values)
        timestamps.append(timestamp)
    return frames, timestamps


def read_scene_jsonl(path: Path) -> SceneSequence:
    frames, timestamps = _read_frames(
        path, lambda key, obj, frame: GtObject(instance_id=key, box=_box(obj))
    )
    return SceneSequence(frames, timestamps)


def _detection(key: int, obj: dict, frame: int) -> Detection:
    newborn = obj.get("newborn", False)
    if type(newborn) is not bool:
        raise FormatError(f"'newborn' must be true or false, got {newborn!r}")
    relationship = None
    if "rel" in obj:
        relationship = (
            RelationshipOffset.undefined()
            if obj["rel"] is None
            else RelationshipOffset(*_numbers(obj, "rel", 2), True)
        )
    return Detection(
        box=_box(obj),
        score=_number(obj, "score"),
        offset=MotionOffset(*_numbers(obj, "offset", 3), newborn=newborn),
        frame=frame,
        relationship=relationship,
    )


def read_detections_jsonl(path: Path) -> tuple[list[list[Detection]], list[float]]:
    return _read_frames(path, _detection)


def read_trajectories_jsonl(path: Path) -> tuple[list[list[tuple[int, Box3D]]], list[float]]:
    """Per-frame (track id, box) lists, as the evaluator consumes them."""
    return _read_frames(path, lambda key, obj, frame: (key, _box(obj)))


def _reject_constant(name: str):
    raise FormatError(f"non-finite number {name}")


# One strict decoder for every line: the NaN and Infinity tokens are not JSON.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _read_records(path: Path) -> Iterable[tuple[int, dict]]:
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                rec = _DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from None
            except ValueError as exc:
                raise FormatError(f"{path}:{line_no}: {exc}") from None
            except RecursionError:
                raise FormatError(f"{path}:{line_no}: JSON nested too deeply") from None
            if type(rec) is not dict:
                raise FormatError(f"{path}:{line_no}: record is not a JSON object")
            yield line_no, rec


def _rows(table: np.ndarray, codes: np.ndarray) -> list[str]:
    """Each row of codes as its table entries joined by spaces.

    Only rows holding a non-zero code are gathered and joined; every other
    row is all code 0 and shares one string built once.
    """
    rows = [" ".join([table[0]] * codes.shape[1])] * codes.shape[0]
    busy = np.flatnonzero(codes.any(axis=1))
    for i, row in zip(busy.tolist(), table[codes[busy]].tolist()):
        rows[i] = " ".join(row)
    return rows


def write_grid(path: Path, grid: DenseGrid2D) -> None:
    spec = grid.grid
    header = f"{spec.nx} {spec.ny} {spec.dx!r} {spec.dy!r} {spec.x_min!r} {spec.y_min!r}"
    # repr each distinct value once. The table is keyed on the bit pattern, not
    # on float equality, which would merge -0.0 with 0.0; sorted, so code 0 is
    # the smallest pattern, whatever value it stands for. One sort and a
    # neighbour mask build it several times faster than np.unique does.
    bits = np.ascontiguousarray(grid.values).view(np.uint64)
    ordered = np.sort(bits, axis=None)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    table = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    rows = _rows(table, np.searchsorted(distinct, bits))
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
    peak = float(values.max())
    # PGM rows scan y from top; emit k-major so the image is ny rows of nx.
    image = np.ascontiguousarray(values[:, ::-1].T)
    levels = np.zeros(image.shape, dtype=np.int64)
    if peak > 0:
        levels = np.clip(np.round(image / peak * 255.0), 0, 255).astype(np.int64)
    header = f"P2\n{values.shape[0]} {values.shape[1]}\n255"
    atomic_write_text(path, "\n".join([header, *_rows(_PGM_LEVELS, levels)]) + "\n")
