"""Orientation-preserving C^1 diffeomorphisms of the interval and the circle.

The primary data is the log-derivative track sampled per grid node, plus the
lift offset f(0) for circle maps.  Values are reconstructed from the track by
trapezoidal quadrature with endpoint (interval) or degree-one (circle)
normalization, and interpolated piecewise-linearly between nodes.

Diffeos built from closed forms also carry two exact evaluators: the jet
x -> (value, log-derivative), computed in one pass through a chain, and the
inverse.  Values, log-derivatives and Newton steps all come from the jet.
Every operation below builds both evaluators from its operands' ones, so
chains evaluate without stacking interpolation error.  Serialization keeps
only the grid data.

Composition accumulates log-derivatives through the chain rule
(log D(f∘g) = log Dg + (log Df)∘g); derivatives are never re-differenced
from values.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateDerivative, NonConvergence, NonFinite, NonMonotone
from .gridfn import GridFunction
from .space import CIRCLE, Space

Array = np.ndarray

# Derivatives below this floor make the map numerically non-invertible.
DERIVATIVE_FLOOR = 1e-9
_LOG_FLOOR = math.log(DERIVATIVE_FLOOR)
# Tolerance for snapping endpoint/degree normalization of value tracks.
_ENDPOINT_TOL = 1e-9
_NEWTON_STEPS = 60  # step budget of the safeguarded Newton inversion
# Largest residual |f(x) - y| accepted once the step budget is spent: where
# Df < 1, a residual of one ulp moves x by more than the stopping step, so a
# converged point can keep stepping back and forth until the budget runs out.
_NEWTON_TOL = 1e-12


def _as_array(x):
    return np.asarray(x, dtype=float)


class Diffeo:
    """An orientation-preserving diffeomorphism with a log-derivative track.

    values: lift values at all grid_size+1 nodes (interval: values[0] = 0,
    values[-1] = 1; circle: values[0] = offset in [0,1), values[-1] = offset+1).
    log_deriv: GridFunction on the space's per-node track.
    jet_fn / inverse_fn: optional exact evaluators.  jet_fn takes x in [0,1]
    and returns (lift values, log-derivative); the exact log_deriv.fn is its
    second component.  inverse_fn is degree-one equivariant:
    inverse_fn(y+1) = inverse_fn(y)+1.
    """

    __slots__ = ("space", "log_deriv", "values", "offset", "inverse_fn", "jet_fn")

    def __init__(
        self,
        space: Space,
        log_deriv: GridFunction,
        values: Array,
        inverse_fn: Optional[Callable] = None,
        jet_fn: Optional[Callable] = None,
    ):
        if jet_fn is not None:
            log_deriv = GridFunction(space, log_deriv.samples, lambda x: jet_fn(x)[1])
        self.space = space
        self.log_deriv = log_deriv
        self.values = values
        self.offset = float(values[0])
        self.inverse_fn = inverse_fn
        self.jet_fn = jet_fn
        self._validate()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_log_deriv(cls, space: Space, samples, offset: float = 0.0) -> "Diffeo":
        """Canonical grid-only reconstruction: trapezoidal quadrature of
        exp(log-derivative samples), then endpoint/degree normalization."""
        samples = _as_array(samples)
        if samples.shape != (space.track_length,):
            raise ValueError(
                f"expected {space.track_length} log-derivative samples, "
                f"got {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise NonFinite("log-derivative samples must be finite")
        full = np.concatenate([samples, samples[:1]]) if space.is_circle else samples
        d = np.exp(full)
        raw = np.concatenate([[0.0], np.cumsum((d[:-1] + d[1:]) * (0.5 * space.h))])
        values = raw / raw[-1]
        # keep the track consistent with the normalized values; skip shifts at
        # float resolution so reconstruction from an existing track is stable
        c = math.log(raw[-1])
        if abs(c) > 1e-12:
            samples = samples - c
        if space.is_circle:
            values = values + (float(offset) % 1.0)
        return cls(space, GridFunction(space, samples), values)

    @classmethod
    def from_callables(
        cls,
        space: Space,
        jet_fn: Callable,
        inverse_fn: Optional[Callable] = None,
    ) -> "Diffeo":
        """Builds from exact callables; both tracks are sampled from the jet.

        jet_fn maps x in [0,1] to (lift value, log-derivative), the value on
        the lift fundamental branch, shifted on the circle so that f(0) lands
        in [0,1).
        """
        v0 = float(jet_fn(np.zeros(1))[0][0])
        shift = math.floor(v0) if space.is_circle else 0
        if shift:
            jbase = jet_fn

            def jet_fn(x, _b=jbase, _s=shift):
                v, ld = _b(x)
                return v - _s, ld

            if inverse_fn is not None:
                ibase = inverse_fn
                inverse_fn = lambda y, _b=ibase, _s=shift: _b(y + _s)
        # one jet call per track: a Newton-based jet depends in the last bits
        # on the batch it is given, so each track keeps its own node set
        values = _as_array(jet_fn(space.nodes)[0])
        ld = GridFunction(space, jet_fn(space.track_nodes())[1])
        return cls(space, ld, values, inverse_fn, jet_fn)

    def _validate(self):
        values, space = self.values, self.space
        if values.shape != (space.grid_size + 1,):
            raise ValueError("value track must cover every node incl. endpoints")
        if not np.all(np.isfinite(values)):
            raise NonFinite("value track has non-finite entries")
        if not np.all(np.isfinite(self.log_deriv.samples)):
            raise NonFinite("log-derivative track has non-finite entries")
        if space.is_circle:
            if abs((values[-1] - values[0]) - 1.0) > _ENDPOINT_TOL:
                raise NonMonotone("circle map is not a degree-one lift")
            values[-1] = values[0] + 1.0
        else:
            if abs(values[0]) > _ENDPOINT_TOL or abs(values[-1] - 1.0) > _ENDPOINT_TOL:
                raise NonMonotone("interval map must fix both endpoints")
            values[0] = 0.0
            values[-1] = 1.0
        if not np.all(np.diff(values) > 0.0):
            raise NonMonotone("value track is not strictly increasing")
        if np.min(self.log_deriv.samples) < _LOG_FLOOR:
            raise DegenerateDerivative(
                f"derivative below {DERIVATIVE_FLOOR} somewhere on the grid"
            )

    # -- evaluation ----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.jet_fn is not None

    def _value01(self, x: Array) -> Array:
        """Lift values for x in [0,1]."""
        if self.jet_fn is not None:
            return _as_array(self.jet_fn(x)[0])
        return np.interp(x, self.space.nodes, self.values)

    def eval_lift(self, x) -> Array:
        """Evaluates the degree-one lift at arbitrary reals (interval: [0,1])."""
        x = _as_array(x)
        if not self.space.is_circle:
            return self._value01(np.clip(x, 0.0, 1.0))
        k = np.floor(x)
        return self._value01(x - k) + k

    def __call__(self, x) -> Array:
        """Values in the space itself (circle values reduced mod 1)."""
        x = _as_array(x)
        if self.space.is_circle:
            return np.mod(self._value01(np.mod(x, 1.0)), 1.0)
        return self._value01(np.clip(x, 0.0, 1.0))

    def log_derivative(self, x) -> Array:
        return self.log_deriv(x)

    def derivative(self, x) -> Array:
        return np.exp(self.log_deriv(x))

    def jet(self, x) -> Tuple[Array, Array]:
        """(eval_lift(x), log_derivative(x)) in one pass through the chain."""
        x = _as_array(x)
        if self.jet_fn is None:
            return self.eval_lift(x), self.log_deriv(x)
        if not self.space.is_circle:
            return self.jet_fn(np.clip(x, 0.0, 1.0))
        k = np.floor(x)
        v, ld = self.jet_fn(x - k)
        return v + k, ld

    # -- inversion -----------------------------------------------------------

    def _invert01(self, y: Array) -> Array:
        """Solves f(x) = y for y in the fundamental branch, x in [0,1]."""
        vals, nodes = self.values, self.space.nodes
        idx = np.clip(np.searchsorted(vals, y) - 1, 0, self.space.grid_size - 1)
        x = nodes[idx] + (y - vals[idx]) / (vals[idx + 1] - vals[idx]) * self.space.h
        if self.jet_fn is None:
            # piecewise-linear values invert in closed form
            return np.clip(x, 0.0, 1.0)
        lo, hi = nodes[idx].copy(), nodes[idx + 1].copy()
        x = np.clip(x, lo, hi)
        for _ in range(_NEWTON_STEPS):
            v, ld = self.jet_fn(x)
            fx = v - y
            lo = np.where(fx <= 0, x, lo)
            hi = np.where(fx >= 0, x, hi)
            xn = x - fx * np.exp(-ld)
            bad = ~np.isfinite(xn) | (xn < lo) | (xn > hi)
            xn = np.where(bad, 0.5 * (lo + hi), xn)
            if np.max(np.abs(xn - x)) < 1e-14:
                return xn
            x = xn
        residual = float(np.max(np.abs(self._value01(x) - y)))
        if residual <= _NEWTON_TOL:
            return x
        raise NonConvergence("Newton inversion did not converge", residual)

    def invert_lift(self, y) -> Array:
        """Lift of the inverse at arbitrary reals."""
        y = _as_array(y)
        if self.inverse_fn is not None:
            return _as_array(self.inverse_fn(y))
        if not self.space.is_circle:
            return self._invert01(np.clip(y, 0.0, 1.0))
        k = np.floor(y - self.offset)
        return self._invert01(y - k) + k

    # -- serialization -------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "space": {"kind": self.space.kind, "grid_size": self.space.grid_size},
            "grid_size": self.space.grid_size,
            "log_deriv": [float(v) for v in self.log_deriv.samples],
            "offset": float(self.offset) if self.space.is_circle else 0.0,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Diffeo":
        sp = payload["space"]
        space = Space(sp["kind"], int(sp.get("grid_size", payload.get("grid_size"))))
        return cls.from_log_deriv(
            space, payload["log_deriv"], float(payload.get("offset", 0.0))
        )

    def __repr__(self):
        tag = "exact" if self.is_exact else "grid"
        return (
            f"Diffeo({self.space}, sup|logD|={self.log_deriv.sup_abs():.4g}, {tag})"
        )


# ---------------------------------------------------------------------------
# Module-level operations.


def build_diffeo(definition, space: Space) -> Diffeo:
    """Builds a diffeomorphism from an expression (text or compiled), from
    log-derivative samples, or passes an existing Diffeo through."""
    from .expressions import Expression, compile_expression

    if isinstance(definition, Diffeo):
        definition.space.check_same(space)
        return definition
    if isinstance(definition, str):
        definition = compile_expression(definition)
    if isinstance(definition, Expression):
        expr = definition

        def jet_fn(x):
            v, d = expr.jet(x)
            if np.any(~np.isfinite(d)) or np.any(d <= 0):
                raise NonMonotone(f"{expr.text!r} has non-positive derivative")
            return _as_array(v), np.log(d)

        return Diffeo.from_callables(space, jet_fn)
    return Diffeo.from_log_deriv(space, definition)


def compose(f: Diffeo, g: Diffeo) -> Diffeo:
    """f∘g.  The log-derivative track is log Dg + (log Df)∘g sampled per node."""
    f.space.check_same(g.space)
    space = f.space
    gv_nodes = g.eval_lift(space.nodes)
    values = f.eval_lift(gv_nodes)
    shift = math.floor(values[0]) if space.is_circle else 0
    if shift:
        values = values - shift
    ld_samples = g.log_deriv.samples + f.log_deriv(gv_nodes[: space.track_length])

    inverse_fn = jet_fn = None
    if f.is_exact and g.is_exact:
        inverse_fn = lambda y: g.invert_lift(f.invert_lift(y + shift))

        def jet_fn(x):
            gv, g_ld = g.jet(x)
            fv, f_ld = f.jet(gv)
            return fv - shift, g_ld + f_ld

    return Diffeo(space, GridFunction(space, ld_samples), values, inverse_fn, jet_fn)


def invert(f: Diffeo) -> Diffeo:
    """f^{-1}.  The log-derivative track is -(log Df)∘f^{-1} sampled per node."""
    space = f.space
    inv_nodes = f.invert_lift(space.nodes)
    shift = math.floor(inv_nodes[0]) if space.is_circle else 0
    values = inv_nodes - shift
    ld_samples = -f.log_deriv(inv_nodes[: space.track_length])

    inverse_fn = jet_fn = None
    if f.is_exact:
        inverse_fn = lambda y: f.eval_lift(y + shift)

        def jet_fn(x):
            y = f.invert_lift(x)
            return y - shift, -f.log_derivative(y)

    return Diffeo(space, GridFunction(space, ld_samples), values, inverse_fn, jet_fn)


def c1_distance(f: Diffeo, g: Diffeo) -> tuple[float, float]:
    """(sup node distance of lifts mod integer shift, sup log-derivative gap)."""
    f.space.check_same(g.space)
    d = f.values - g.values
    if f.space.is_circle:
        d = d - round(float(np.mean(d)))
    c0 = float(np.max(np.abs(d)))
    dlog = float(np.max(np.abs(f.log_deriv.samples - g.log_deriv.samples)))
    return c0, dlog


def conjugate_action(f: Diffeo, phi: Diffeo) -> Diffeo:
    """phi ∘ f ∘ phi^{-1}, built directly from phi's forward/inverse
    evaluators.  The intermediates phi^{-1} and f∘phi^{-1} are never
    materialized: a strongly expanding conjugator (e.g. a weighted orbit
    CDF) can have an inverse whose derivative dips below the node floor
    even though the conjugated composite is perfectly regular.  One shared
    inversion of phi covers both the value and log-derivative tracks."""
    space = f.space
    space.check_same(phi.space)
    t = space.track_length
    y_nodes = phi.invert_lift(space.nodes)
    fy_nodes, f_ld = f.jet(y_nodes)
    values, phi_ld = phi.jet(fy_nodes)
    shift = math.floor(values[0]) if space.is_circle else 0
    if shift:
        values = values - shift
    ld_samples = phi_ld[:t] + f_ld[:t] - phi.log_derivative(y_nodes[:t])

    def jet_fn(x):
        y = phi.invert_lift(np.asarray(x, dtype=float))
        fy, f_ld = f.jet(y)
        v, phi_ld = phi.jet(fy)
        return v - shift, phi_ld + f_ld - phi.log_derivative(y)

    def inverse_fn(z):
        y = phi.invert_lift(np.asarray(z, dtype=float) + shift)
        return phi.eval_lift(f.invert_lift(y))

    return Diffeo(space, GridFunction(space, ld_samples), values, inverse_fn, jet_fn)


def log_deriv_sup(f: Diffeo) -> float:
    """The taming functional: sup over the grid of |log Df|."""
    return f.log_deriv.sup_abs()


# ---------------------------------------------------------------------------
# Stock constructions.


def identity(space: Space) -> Diffeo:
    return Diffeo.from_callables(
        space,
        lambda x: (np.array(x, dtype=float, copy=True), np.zeros_like(_as_array(x))),
        inverse_fn=lambda y: np.array(y, dtype=float, copy=True),
    )


def rotation(space: Space, angle: float) -> Diffeo:
    """Rigid rotation x + angle (circle only)."""
    if not space.is_circle:
        if angle % 1.0 == 0.0:
            return identity(space)
        raise NonMonotone("rotations by a non-integer angle need the circle")
    a = float(angle)
    return Diffeo.from_callables(
        space,
        lambda x: (_as_array(x) + a, np.zeros_like(_as_array(x))),
        inverse_fn=lambda y: np.asarray(y, dtype=float) - a,
    )


def pwl_diffeo(space: Space, points: Sequence[tuple[float, float]]) -> Diffeo:
    """Piecewise-linear diffeomorphism through breakpoints (exact, closed-form
    inverse).  Interval: endpoints (0,0), (1,1); circle: (0,y0) .. (1,y0+1)."""
    pts = sorted((float(a), float(b)) for a, b in points)
    bx = np.array([p[0] for p in pts])
    by = np.array([p[1] for p in pts])
    if bx[0] != 0.0 or bx[-1] != 1.0:
        raise NonMonotone("breakpoints must span [0,1]")
    if not np.all(np.diff(bx) > 0.0):
        raise NonMonotone("breakpoint abscissae must be strictly increasing")
    if not space.is_circle and (by[0] != 0.0 or by[-1] != 1.0):
        raise NonMonotone("interval breakpoints must fix the endpoints")
    if space.is_circle and abs((by[-1] - by[0]) - 1.0) > 0:
        raise NonMonotone("circle breakpoints must have degree one")
    slopes = np.diff(by) / np.diff(bx)
    if np.any(slopes < DERIVATIVE_FLOOR):
        raise DegenerateDerivative("piecewise-linear slope below the floor")

    def jet_fn(x):
        x = _as_array(x)
        k = np.floor(x) if space.is_circle else 0.0
        x0 = np.mod(x, 1.0) if space.is_circle else x
        idx = np.clip(np.searchsorted(bx, x0, side="right") - 1, 0, len(slopes) - 1)
        return np.interp(x - k, bx, by) + k, np.log(slopes[idx])

    def inverse_fn(y):
        y = _as_array(y)
        k = np.floor(y - by[0]) if space.is_circle else 0.0
        return np.interp(y - k, by, bx) + k

    return Diffeo.from_callables(space, jet_fn, inverse_fn)


def conjugated_rotation(space: Space, h, angle: float) -> Diffeo:
    """h ∘ (x+angle) ∘ h^{-1} with exact evaluation throughout."""
    if not space.is_circle:
        raise NonMonotone("conjugated rotations need the circle")
    if not isinstance(h, Diffeo):
        h = build_diffeo(h, space)
    return compose(h, compose(rotation(space, angle), invert(h)))
