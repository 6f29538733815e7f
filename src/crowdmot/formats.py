"""Stable on-disk formats: per-frame JSONL, portable dense grids, PGM dumps.

One JSON object per line holds one frame:
    {"frame": int, "timestamp": float, "objects": [{...}]}
GT objects carry {id, cx, cy, cz, l, w, h, yaw}; detections additionally
carry score, offset [ox, oy, oz], optionally newborn and rel ([rx, ry] or
null when no neighbor is in range); trajectory objects carry score and use
the track id as id. For detections the id is the within-frame index.
Offset-target objects carry {id, offset [ox, oy, oz], newborn, rel}.

Frames are numbered 0, 1, ... with strictly increasing timestamps; every
number is finite, ids are integers unique within their frame that fit in 64
bits, and objects are written in ascending id order. Every JSONL file is
written through _write_frames, and every JSONL reader goes through
_read_frames, which returns one geometry.Frame of columns per line. A
reader given a hashlib object updates it with every byte it read, so a
caller gets the file's digest without reading it again; so does read_npy,
the reader of a .npy array.

A writer builds no per-object dicts and calls no json.dumps. It gathers
every float the file writes (timestamps, box columns, scores, offsets and
each defined rel), checks them all finite, and makes one table of their
distinct bit patterns and reprs (_repr_table, which write_grid shares):
about half the floats of a file repeat, as a pedestrian's l, w and h do in
every frame. Each object's row is a % template filled in with table texts,
and its tail string holds newborn and rel where the object writes them.
The bytes are those json.dumps(..., separators=(",", ":"),
allow_nan=False) writes, and a float it would reject raises the same
ValueError before anything is written.

A reader checks each frame in bulk: the fields are gathered with
itemgetter, every number must be a JSON float (an int anywhere sends the
frame down the slow path), and the finiteness, side, score and id checks
run on the gathered lists and arrays. A frame that fails any of them is
decoded again object by object (_box, _detection), which raises the error
of the first bad field, or accepts a frame that only held ints. So the
per-object decoder is the error path and the oracle of the bulk one, and
both give the same bits.

Grid files are plain text: a header line "nx ny dx dy x_min y_min" followed
by nx rows of ny values (row j lists cells (j, 0..ny-1)).

All writes go through a temp file and an atomic rename, and every writer
returns the SHA-256 of the bytes it wrote.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import sys
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

import numpy as np
from numpy.lib import format as npy_format

from .geometry import BOX_FIELDS, DenseGrid2D, Frame, GridSpec, valid_boxes, wrap_yaw


class FormatError(ValueError):
    """A file does not follow the expected schema."""


def atomic_write_text(path: Path, text: str) -> str:
    """Write text as UTF-8 through a temp file and a rename; the SHA-256 of its bytes.

    The temp file is created as open() creates a file, with mode 0o666 less
    the umask, so the output gets the permissions of any new file; its
    random name is taken only if no file has it.
    """
    data = text.encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    """The SHA-256 of a file that no reader hashed as it read it."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# The first bytes of a zip archive, as np.savez writes one (an empty one has the second).
_ZIP_PREFIXES = (b"PK\x03\x04", b"PK\x05\x06")


def read_npy(path: Path, digest=None) -> Optional[np.ndarray]:
    """The one array of a .npy file, or None where the file is a zip archive (an .npz).

    The file is read once, and digest, a hashlib object, is updated with its
    bytes. The array is a read-only view of those bytes: nothing is copied.
    The magic string and the header are read with numpy.lib.format's
    readers. Version 3.0 headers are read as 2.0 ones: the two differ only
    in decoding the header as UTF-8 rather than latin-1, which changes only
    the non-ASCII field names of a structured dtype. A shape with a negative
    dimension, or more elements than the bytes after the header hold, is a
    FormatError before anything is allocated; bytes past the elements are
    ignored, as np.load ignores them.
    """
    data = path.read_bytes()
    if digest is not None:
        digest.update(data)
    if data.startswith(_ZIP_PREFIXES):
        return None
    if not data:
        raise FormatError("No data left in file")
    stream = io.BytesIO(data)
    version = npy_format.read_magic(stream)
    if version not in ((1, 0), (2, 0), (3, 0)):
        raise FormatError(f"we only support format version (1,0), (2,0), and (3,0), not {version}")
    read_header = npy_format.read_array_header_1_0 if version == (1, 0) else npy_format.read_array_header_2_0
    shape, fortran_order, dtype = read_header(stream)
    if dtype.hasobject:
        raise FormatError("Object arrays cannot be loaded when allow_pickle=False")
    if any(n < 0 for n in shape):
        raise FormatError(f"shape {shape} has a negative dimension")
    count, start = math.prod(shape), stream.tell()
    if count * dtype.itemsize > len(data) - start:
        present = (len(data) - start) // dtype.itemsize
        raise FormatError(
            f"Failed to read all data for array. Expected {shape} = {count} elements, "
            f"could only read {present} elements. (file seems not fully written?)"
        )
    return np.ndarray(shape, dtype, buffer=data, offset=start, order="F" if fortran_order else "C")


def _repr_table(
    values: np.ndarray, memo: Optional[dict[int, str]] = None
) -> tuple[np.ndarray, np.ndarray]:
    """The repr of each distinct value in values, and each value's index into that table.

    values must not be empty. The table is keyed on the bit pattern, not on
    float equality, which would merge -0.0 with 0.0; sorted, so index 0 is
    the smallest pattern, whatever value it stands for. One sort and a
    neighbour mask build it several times faster than np.unique does.
    Where over a quarter of the values are distinct, as in a JSONL file's
    floats, each value's index comes from an argsort and a running count of
    the mask, about three times faster there than np.searchsorted; mostly
    repeated values, as in a grid of zeros, keep np.searchsorted, about
    five times faster there.
    memo, when given, maps bit patterns to their reprs: patterns it holds
    are not formatted again, and the ones formatted here are added to it.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    ordered = np.sort(bits, axis=None)
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    distinct = ordered[first]
    if 4 * len(distinct) > bits.size:
        # The codes take the sorted copy's buffer: this path then holds no
        # more memory at once than the searchsorted one.
        codes = ordered.view(np.intp).reshape(bits.shape)
        rank = np.cumsum(first, dtype=np.intp)
        rank -= 1
        np.put(codes, np.argsort(bits, axis=None), rank)
    else:
        codes = np.searchsorted(distinct, bits)
    if memo is None:
        texts = list(map(repr, distinct.view(np.float64).tolist()))
    else:
        patterns = distinct.tolist()
        new = np.array([p for p in patterns if p not in memo], dtype=np.uint64)
        memo.update(zip(new.tolist(), map(repr, new.view(np.float64).tolist())))
        texts = list(map(memo.__getitem__, patterns))
    return np.array(texts, dtype=object), codes


# The text of each float column in an object's row, a %s for each float.
_COLUMN_TEXT = {"boxes": "".join(',"%s":%%s' % key for key in BOX_FIELDS), "score": ',"score":%s',
                "offset": ',"offset":[%s,%s,%s]'}


def _write_frames(path: Path, frames: Iterable[Frame], timestamps: list[float], columns: tuple,
                  newborn: tuple[str, str] = ("", ""), rel: str = "never") -> str:
    """One line per frame: per object, in ascending id order, its id, columns, newborn and rel.

    columns name Frame float columns (keys of _COLUMN_TEXT). newborn is the
    text of a false and of a true flag. rel says which objects write their
    rel: "never", "given" (where has_rel is set) or "always"; a rel is
    written [rx, ry], or null where rx is NaN.
    """
    pairs = list(zip(timestamps, frames, strict=True))
    return atomic_write_text(path, "".join(_frame_lines(pairs, columns, newborn, rel)))


def _frame_lines(pairs: list, columns: tuple, newborn: tuple[str, str], rel: str) -> Iterator[str]:
    """The lines of _write_frames, each object's row filled in from a template.

    A generator, so that the row texts are freed before the lines are joined.
    """
    if not pairs:
        return
    stamps, rows = _row_fields(pairs, columns, newborn, rel)
    row = '{"id":%d' + "".join(_COLUMN_TEXT[name] for name in columns) + "%s}"
    for number, (stamp, (_, frame)) in enumerate(zip(stamps, pairs)):
        text = ",".join(map(row.__mod__, islice(rows, len(frame))))
        yield '{"frame":%d,"timestamp":%s,"objects":[%s]}\n' % (number, stamp, text)


def _row_fields(pairs: list, columns: tuple, newborn: tuple[str, str], rel: str) -> tuple:
    """The timestamp texts, and per object in write order what fills its row.

    The row fields are the id, the texts of the floats of columns, and a
    tail: the newborn and rel text. Every float to be written is checked
    finite, and then its text is looked up in one _repr_table of them all.
    """
    orders = [np.argsort(frame.ids, kind="stable") for _, frame in pairs]
    objects = Frame(**{name: np.concatenate([getattr(f, name)[k] for (_, f), k in zip(pairs, orders)])
                       for name in vars(Frame.empty())
                       if all(getattr(f, name) is not None for _, f in pairs)})
    values = np.column_stack([getattr(objects, name) for name in columns])
    has_rel = objects.has_rel if rel == "given" else np.full(len(objects), rel == "always")
    rels = objects.rel[has_rel] if has_rel.any() else np.zeros((0, 2))
    defined = ~np.isnan(rels[:, 0])
    floats = np.concatenate([[t for t, _ in pairs], values.ravel(), rels[defined].ravel()])
    if not np.isfinite(floats).all():
        raise ValueError("Out of range float values are not JSON compliant")
    text = np.take(*_repr_table(floats))
    stamps, cells, rx_ry = np.split(text, [len(pairs), len(pairs) + values.size])
    flags = objects.newborn if newborn[1] else np.zeros(len(objects), dtype=bool)
    tails = np.array(newborn, dtype=object)[flags.astype(np.intp)]
    written = np.full(len(rels), ',"rel":null', dtype=object)
    written[defined] = ',"rel":[' + rx_ry[0::2] + "," + rx_ry[1::2] + "]"
    tails[has_rel] += written
    cells = cells.reshape(values.shape).T.tolist()
    return stamps.tolist(), zip(objects.ids.tolist(), *cells, tails.tolist())


def write_scene_jsonl(path: Path, frames: list[Frame], timestamps: list[float]) -> str:
    """GT frames: per object its id and box."""
    return _write_frames(path, frames, timestamps, ("boxes",))


def write_detections_jsonl(path: Path, frames: list[Frame], timestamps: list[float]) -> str:
    """Detection frames: per object its id, box, score, offset, newborn if true, and rel if given."""
    newborn = ("", ',"newborn":true')
    return _write_frames(path, frames, timestamps, ("boxes", "score", "offset"), newborn, "given")


def write_trajectories_jsonl(path: Path, frames: list[Frame], timestamps: list[float]) -> str:
    """The tracker's output frames: per object its track id, box and score."""
    return _write_frames(path, frames, timestamps, ("boxes", "score"))


def write_offsets_jsonl(path: Path, frames: list[Frame], timestamps: list[float]) -> str:
    """Offset-target frames: per object its id, offset, newborn flag and rel, null where undefined."""
    newborn = (',"newborn":false', ',"newborn":true')
    return _write_frames(path, frames, timestamps, ("offset",), newborn, "always")


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


def _box(obj: dict) -> list[float]:
    """obj's box fields in BOX_FIELDS order, its yaw wrapped; the first bad field raises.

    Fields are read in the order cx, cy, cz, l, h, w, yaw, each a finite
    number, and then l, h and w must be positive.
    """
    box = {key: _number(obj, key) for key in ("cx", "cy", "cz", "l", "h", "w", "yaw")}
    for key in ("l", "h", "w"):
        if not box[key] > 0.0:
            raise FormatError(f"{key!r} must be positive, got {box[key]!r}")
    box["yaw"] = float(wrap_yaw(box["yaw"]))
    return [box[key] for key in BOX_FIELDS]


# Stands for a rel field a detection does not have: absent is not null.
_ABSENT = object()
_INT64 = 2**63
_IDS = itemgetter("id")
_BOXES = itemgetter(*BOX_FIELDS)
_SCORES = itemgetter("score")
_OFFSETS = itemgetter("offset")


def _only(values: Iterable, kind: type) -> bool:
    """Whether every value is exactly of type kind (a bool is not an int)."""
    return set(map(type, values)) <= {kind}


def _box_columns(objects: list) -> Optional[Frame]:
    """The Frame of a frame's GT or trajectory objects, or None where the bulk check fails.

    Passes only when every id is an int, unique and within 64 bits, every
    box field is a float, all finite, and every side is positive: what _box
    accepts, less the frames that hold an int field.
    """
    try:
        ids = list(map(_IDS, objects))
        rows = list(map(_BOXES, objects))
    except (KeyError, TypeError):
        return None
    if not (_only(ids, int) and _only(chain.from_iterable(rows), float)):
        return None
    if len(set(ids)) != len(ids) or not all(-_INT64 <= key < _INT64 for key in ids):
        return None
    boxes = np.array(rows, dtype=float).reshape(-1, 7)
    if not valid_boxes(boxes):
        return None
    boxes[:, 6] = wrap_yaw(boxes[:, 6])
    return Frame(np.array(ids, dtype=np.int64), boxes)


def _detection_columns(objects: list) -> Optional[Frame]:
    """The Frame of a frame's detections, or None where the bulk check fails.

    Besides _box_columns' checks: scores are floats in [0, 1], newborn flags
    bools, offsets lists of 3 finite floats, and each rel null, absent or a
    list of 2 finite floats: what _detection accepts, less the int fields.
    """
    frame = _box_columns(objects)
    if frame is None:
        return None
    try:
        scores = list(map(_SCORES, objects))
        offsets = list(map(_OFFSETS, objects))
    except KeyError:
        return None
    newborn = [obj.get("newborn", False) for obj in objects]
    rels = [obj.get("rel", _ABSENT) for obj in objects]
    defined = [rel is not None and rel is not _ABSENT for rel in rels]
    given = [rel for rel, ok in zip(rels, defined) if ok]
    if not (_only(scores, float) and _only(newborn, bool) and _only(offsets + given, list)):
        return None
    if set(map(len, offsets)) - {3} or set(map(len, given)) - {2}:
        return None
    if not _only(chain.from_iterable(offsets + given), float):
        return None
    score = np.array(scores, dtype=float)
    offset = np.array(offsets, dtype=float).reshape(-1, 3)
    defined = np.array(defined, dtype=bool)
    rel = np.full((len(objects), 2), np.nan)
    rel[defined] = np.array(given, dtype=float).reshape(-1, 2)
    in_range = (score >= 0.0) & (score <= 1.0)
    if not (in_range.all() and np.isfinite(offset).all() and np.isfinite(rel[defined]).all()):
        return None
    return dataclasses.replace(
        frame,
        score=score,
        offset=offset,
        newborn=np.array(newborn, dtype=bool),
        rel=rel,
        has_rel=np.array([rel is not _ABSENT for rel in rels], dtype=bool),
    )


def _decode(objects: list, decode: Callable[[dict], object]) -> tuple[np.ndarray, list]:
    """The ids and decode(object) of each object, one by one: the first bad field raises."""
    values, ids = [], {}
    for obj in objects:
        if type(obj) is not dict:
            raise FormatError("an entry of 'objects' is not an object")
        key = _integer(obj, "id")
        if key in ids:
            raise FormatError(f"duplicate id {key}")
        ids[key] = None
        values.append(decode(obj))
    for key in ids:
        if not -_INT64 <= key < _INT64:
            raise FormatError(f"id {key} does not fit in 64 bits")
    return np.array(list(ids), dtype=np.int64), values


def _boxes_one_by_one(objects: list) -> Frame:
    ids, boxes = _decode(objects, _box)
    return Frame(ids, np.array(boxes, dtype=float).reshape(-1, 7))


def _detections_one_by_one(objects: list) -> Frame:
    ids, rows = _decode(objects, _detection)
    boxes, score, offset, newborn, rel, has_rel = list(zip(*rows)) or [()] * 6
    return Frame(
        ids,
        np.array(boxes, dtype=float).reshape(-1, 7),
        np.array(score, dtype=float),
        np.array(offset, dtype=float).reshape(-1, 3),
        np.array(newborn, dtype=bool),
        np.array(rel, dtype=float).reshape(-1, 2),
        np.array(has_rel, dtype=bool),
    )


def _read_frames(
    path: Path,
    columns: Callable[[list], Optional[Frame]],
    one_by_one: Callable[[list], Frame],
    digest=None,
) -> tuple[list[Frame], list[float]]:
    """One Frame per line and the frame timestamps.

    Frames must be numbered 0, 1, ... in order with strictly increasing
    timestamps, and each object needs an integer id unique within its frame.
    columns(objects) checks and gathers a frame in bulk; where it returns
    None, one_by_one(objects) decodes the frame object by object. digest,
    a hashlib object, is updated with the file's bytes (_read_records).
    """
    frames: list[Frame] = []
    timestamps: list[float] = []
    for line_no, rec in _read_records(path, digest):
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
            values = columns(objects)
            if values is None:
                values = one_by_one(objects)
        except KeyError as exc:
            raise FormatError(f"{path}:{line_no}: missing field {exc.args[0]!r}") from None
        except ValueError as exc:
            raise FormatError(f"{path}:{line_no}: {exc}") from None
        frames.append(values)
        timestamps.append(timestamp)
    return frames, timestamps


def read_scene_jsonl(path: Path, digest=None) -> tuple[list[Frame], list[float]]:
    """Per-frame GT columns and the frame timestamps."""
    return _read_frames(path, _box_columns, _boxes_one_by_one, digest)


def _detection(obj: dict) -> tuple:
    """(box, score, offset, newborn, rel, has_rel) of a detection; rel is NaN where null or absent."""
    newborn = obj.get("newborn", False)
    if type(newborn) is not bool:
        raise FormatError(f"'newborn' must be true or false, got {newborn!r}")
    rel = [math.nan, math.nan]
    if obj.get("rel") is not None:
        rel = _numbers(obj, "rel", 2)
    box = _box(obj)
    score = _number(obj, "score")
    offset = _numbers(obj, "offset", 3)
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score} outside [0, 1]")
    return box, score, offset, newborn, rel, "rel" in obj


def read_detections_jsonl(path: Path, digest=None) -> tuple[list[Frame], list[float]]:
    """Per-frame detection columns (ids as in the file) and the frame timestamps."""
    return _read_frames(path, _detection_columns, _detections_one_by_one, digest)


def read_trajectories_jsonl(path: Path, digest=None) -> tuple[list[Frame], list[float]]:
    """Per-frame (track id, box) columns, as the evaluator consumes them; scores are not read."""
    return _read_frames(path, _box_columns, _boxes_one_by_one, digest)


def _reject_constant(name: str):
    raise FormatError(f"non-finite number {name}")


# One strict decoder for every line: the NaN and Infinity tokens are not JSON.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _read_records(path: Path, digest=None) -> Iterable[tuple[int, dict]]:
    """(line number, record) of each non-blank line; digest is updated with every line's bytes."""
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if digest is not None:
                digest.update(line)
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


def write_grid(path: Path, grid: DenseGrid2D, memo: Optional[dict[int, str]] = None) -> str:
    """Write a grid file; memo, a dict of bit pattern -> repr, is read and filled as _repr_table's."""
    spec = grid.grid
    header = f"{spec.nx} {spec.ny} {spec.dx!r} {spec.dy!r} {spec.x_min!r} {spec.y_min!r}"
    return atomic_write_text(path, "\n".join([header, *_rows(*_repr_table(grid.values, memo))]) + "\n")


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


def write_pgm(path: Path, grid: DenseGrid2D) -> str:
    """Grayscale dump: values scaled so the grid maximum maps to 255."""
    values = grid.values
    peak = float(values.max())
    # PGM rows scan y from top; emit k-major so the image is ny rows of nx.
    image = np.ascontiguousarray(values[:, ::-1].T)
    # A subnormal peak can overflow a negative cell's ratio to -inf, level 0.
    with np.errstate(over="ignore"):
        scaled = np.round(image / peak * 255.0) if peak > 0 else np.zeros(image.shape)
    levels = np.clip(scaled, 0, 255).astype(np.int64)
    header = f"P2\n{values.shape[0]} {values.shape[1]}\n255"
    return atomic_write_text(path, "\n".join([header, *_rows(_PGM_LEVELS, levels)]) + "\n")
