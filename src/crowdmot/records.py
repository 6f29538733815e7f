"""Value types shared by the pipeline stages: one-object boxes and the yaw wrap.

Everything here is a plain dataclass built on the standard library alone, so
every other module can import it without loading an algorithm. Frames of
many objects are geometry.Frame columns; Box3D is the one-object view, whose
checks give the JSONL reader's per-object error messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
