"""Scalar functions sampled on a grid, with optional exact evaluator.

The grid samples are always authoritative for serialization and for sup-norm
reports; the optional callable `fn` (when the function came from a closed form
or a ball average that can be re-evaluated anywhere) is used for off-grid
evaluation so that compositions do not stack interpolation error.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .space import Space

Array = np.ndarray


class GridFunction:
    """A real-valued function on a Space: samples per node + piecewise-linear
    interpolation, optionally backed by an exact vectorized callable."""

    __slots__ = ("space", "samples", "fn")

    def __init__(self, space: Space, samples, fn: Optional[Callable] = None):
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (space.track_length,):
            raise ValueError(
                f"expected {space.track_length} samples on {space}, "
                f"got shape {samples.shape}"
            )
        self.space = space
        self.samples = samples
        self.fn = fn

    # -- evaluation --------------------------------------------------------

    def __call__(self, x) -> Array:
        """Values at x reduced into the space: mod 1 or clipped to [0,1]."""
        x = self.space.reduce(x)
        if self.fn is not None:
            return self.fn(x)
        return self.interp(x)

    def interp(self, x) -> Array:
        """Piecewise-linear evaluation from the samples alone."""
        x = np.asarray(x, dtype=float)
        fp = self.space.full_track(self.samples)
        if self.space.is_circle:
            x = np.mod(x, 1.0)
        return np.interp(x, self.space.nodes, fp)

    # -- norms and checks ----------------------------------------------------

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.samples)))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, c: float) -> "GridFunction":
        """Shift by a constant (e.g. a log-density normalizer)."""
        c = float(c)
        f = self.fn
        return GridFunction(
            self.space, self.samples + c, None if f is None else (lambda x: f(x) + c)
        )

    def __repr__(self):
        tag = "exact" if self.fn is not None else "interp"
        return f"GridFunction({self.space}, sup|.|={self.sup_abs():.4g}, {tag})"
