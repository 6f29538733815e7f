"""Value types shared by the pipeline stages: boxes, GT objects, offsets,
detections and scenes.

Everything here is a plain dataclass built on the standard library alone, so
every other module can import it without loading an algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional

# Radius (meters) at which the crowding target is defined.
DENSITY_RADIUS = 2.0


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    wrapped = math.fmod(yaw + math.pi, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class BoxBEV:
    """Rotated rectangle on the ground plane. Yaw is wrapped to [-pi, pi)."""

    cx: float
    cy: float
    length: float
    width: float
    yaw: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cx) and math.isfinite(self.cy) and math.isfinite(self.yaw)):
            raise ValueError(f"box centre and yaw must be finite: {self}")
        if not (0.0 < self.length < math.inf and 0.0 < self.width < math.inf):
            raise ValueError(f"box sides must be finite and positive: {self}")
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))

    @property
    def area(self) -> float:
        return self.length * self.width

    def corners(self) -> list[tuple[float, float]]:
        """Corner coordinates counter-clockwise, starting at (+l/2, +w/2)."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        hl, hw = 0.5 * self.length, 0.5 * self.width
        return [
            (self.cx + c * dx - s * dy, self.cy + s * dx + c * dy)
            for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
        ]


@dataclass(frozen=True)
class Box3D:
    """Upright 3D box: center, sizes (length along heading), yaw about z."""

    cx: float
    cy: float
    cz: float
    length: float
    height: float
    width: float
    yaw: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cx) and math.isfinite(self.cy) and math.isfinite(self.cz)
                and math.isfinite(self.yaw)):
            raise ValueError(f"box centre and yaw must be finite: {self}")
        if not (0.0 < self.length < math.inf and 0.0 < self.height < math.inf
                and 0.0 < self.width < math.inf):
            raise ValueError(f"box sizes must be finite and positive: {self}")
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))

    def bev(self) -> BoxBEV:
        """Footprint of the box on the ground plane."""
        return BoxBEV(self.cx, self.cy, self.length, self.width, self.yaw)


@dataclass(frozen=True)
class GtObject:
    """One annotated object in one frame."""

    instance_id: Hashable
    box: Box3D


@dataclass(frozen=True)
class MotionOffset:
    """Displacement from an object's current position to its previous one."""

    ox: float
    oy: float
    oz: float
    newborn: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ox) and math.isfinite(self.oy) and math.isfinite(self.oz)):
            raise ValueError(f"motion offset must be finite: {self}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.ox, self.oy, self.oz)


@dataclass(frozen=True)
class RelationshipOffset:
    """BEV vector from an object to its nearest neighbor, if one is in range."""

    rx: float
    ry: float
    defined: bool

    @classmethod
    def undefined(cls) -> "RelationshipOffset":
        return cls(0.0, 0.0, False)


@dataclass(frozen=True)
class Detection:
    """One detector output: box, confidence, predicted offsets."""

    box: Box3D
    score: float
    offset: MotionOffset
    frame: int
    relationship: Optional[RelationshipOffset] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class SceneSequence:
    """Ground-truth frames with persistent instance ids and timestamps."""

    frames: list[list[GtObject]]
    timestamps: list[float]

    def __post_init__(self) -> None:
        if len(self.frames) != len(self.timestamps):
            raise ValueError("frames and timestamps length mismatch")
        for t0, t1 in zip(self.timestamps, self.timestamps[1:]):
            if t1 <= t0:
                raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frames)
