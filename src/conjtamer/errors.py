"""Exception types shared across the package.

Every error raised on a documented failure path derives from ConjTamerError,
so callers (and the CLI) can distinguish "the input is bad" from genuine bugs.
"""

from __future__ import annotations


class ConjTamerError(Exception):
    """Base class for all package-level errors."""


class NonMonotone(ConjTamerError):
    """A value track that should be strictly increasing is not."""


class DegenerateDerivative(ConjTamerError):
    """A derivative track collapsed below the representable floor (1e-9)."""


class SpaceMismatch(ConjTamerError):
    """Two objects living on different spaces (kind or grid size) were combined."""


class NonFinite(ConjTamerError):
    """A NaN or infinity appeared where a finite quantity is required."""


class NonConvergence(ConjTamerError):
    """A Newton iteration ran out of steps; carries the max residual |f(x) - y|."""

    def __init__(self, message: str, residual: float):
        self.residual = float(residual)
        super().__init__(f"{message} (max residual {self.residual:.3e})")


class SizeOverflow(ConjTamerError):
    """A ball/tree enumeration would exceed the configured element cap."""


class UnknownGenerator(ConjTamerError):
    """A word referenced a generator index/name the action does not have."""


class RelationViolation(ConjTamerError):
    """A declared group relation failed numerical validation.

    Carries the measured deviation and the relation's display form.
    """

    def __init__(self, relation: str, deviation: float, tolerance: float):
        self.relation = relation
        self.deviation = float(deviation)
        self.tolerance = float(tolerance)
        super().__init__(
            f"relation {relation} deviates by {deviation:.3e} "
            f"(tolerance {tolerance:.1e})"
        )


class NoAdmissibleRadius(ConjTamerError):
    """No ball radius passed the shell-size admissibility test."""


class NotPeriodic(ConjTamerError):
    """The supplied points do not form a periodic orbit of the map."""


class NotCircle(ConjTamerError):
    """A circle-only operation was applied to an interval map."""


class InfiniteHyperbolicSet(ConjTamerError):
    """More flagged hyperbolic periodic points than the configured cap."""


class FlaggedSetNotInvariant(ConjTamerError):
    """A generator maps a flagged hyperbolic point off the flagged set, so a
    flattening conjugacy (alpha > 1) would give it derivative 0 there."""


class SpecError(ConjTamerError):
    """A spec file failed to parse or validate.

    line/col are 1-based positions into the spec text when known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        self.message = message
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)


class LambdaOutOfRange(SpecError):
    """0 < lambda < 1, and lambda*(2r - 1) < 1 on a free group of rank r."""


class CertificationFailure(ConjTamerError):
    """A pipeline stage could not certify its bounds; details in the report."""

    def __init__(self, message: str, report: dict | None = None):
        self.report = report or {}
        super().__init__(message)
