"""Discretized one-dimensional phase spaces: the interval [0,1] and the circle R/Z.

A Space fixes the kind and the uniform grid resolution. Grid sizes are powers
of two so that every refinement/coarsening stays on nested grids.
"""

from __future__ import annotations

import numpy as np

from .errors import SpaceMismatch

INTERVAL = "interval"
CIRCLE = "circle"

_MIN_GRID = 16


class Space:
    __slots__ = ("kind", "grid_size")

    def __init__(self, kind: str, grid_size: int):
        if kind not in (INTERVAL, CIRCLE):
            raise ValueError(f"unknown space kind {kind!r}")
        if grid_size < _MIN_GRID or (grid_size & (grid_size - 1)) != 0:
            raise ValueError(
                f"grid_size must be a power of two >= {_MIN_GRID}, got {grid_size}"
            )
        self.kind, self.grid_size = kind, grid_size

    def __eq__(self, other) -> bool:
        if type(other) is not Space:
            return NotImplemented
        return (self.kind, self.grid_size) == (other.kind, other.grid_size)

    def __hash__(self) -> int:
        return hash((self.kind, self.grid_size))

    @property
    def is_circle(self) -> bool:
        return self.kind == CIRCLE

    @property
    def h(self) -> float:
        """Grid cell width."""
        return 1.0 / self.grid_size

    @property
    def nodes(self) -> np.ndarray:
        """All grid nodes including both endpoints (length grid_size + 1).

        On the circle the last node is the same point as the first; tracks
        sampled "per node" on the circle store grid_size values (node 1.0
        omitted) while interval tracks store grid_size + 1.
        """
        return np.linspace(0.0, 1.0, self.grid_size + 1)

    @property
    def track_length(self) -> int:
        """Number of samples a per-node track carries on this space."""
        return self.grid_size + (0 if self.is_circle else 1)

    def track_nodes(self) -> np.ndarray:
        """The nodes at which a per-node track is sampled."""
        return self.nodes[: self.track_length]

    def full_track(self, track: np.ndarray) -> np.ndarray:
        """A per-node track at all grid_size + 1 nodes: the circle repeats
        its node-0 sample at node 1."""
        return np.concatenate([track, track[:1]]) if self.is_circle else track

    def reduce(self, x) -> np.ndarray:
        """x reduced into the space: mod 1 on the circle, clipped to [0,1]."""
        x = np.asarray(x, dtype=float)
        return np.mod(x, 1.0) if self.is_circle else np.clip(x, 0.0, 1.0)

    def refine(self) -> "Space":
        return Space(self.kind, self.grid_size * 2)

    def check_same(self, other: "Space") -> None:
        if self != other:
            raise SpaceMismatch(f"{self} vs {other}")

    def __str__(self) -> str:  # compact form used in reports
        return f"{self.kind}/{self.grid_size}"


def interval(grid_size: int = 4096) -> Space:
    return Space(INTERVAL, grid_size)


def circle(grid_size: int = 4096) -> Space:
    return Space(CIRCLE, grid_size)
