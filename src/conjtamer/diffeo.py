"""Orientation-preserving C^1 diffeomorphisms of the interval and the circle.

Every map carries a log-derivative track per grid node, a value track at all
nodes (on the circle, offset f(0) in [0,1)), and a plan: the map as a freely
reduced word of entries (primitive, ±1) read as a composition, so the last
entry acts first.  A primitive is an exact map with a jet x -> (value,
log-derivative) and an inverse jet.  The inverse is in closed form for
rotations, piecewise-linear and Möbius maps, log-density primitives and
flattening conjugates; otherwise it is a Newton solve on the forward jet that
returns the log-derivative of its last jet, bracketed by a cell of the value
track and seeded by its piecewise-linear inverse, or by a one-sided power law
on a cell that is steep at one end.  A map given by a log-derivative track
(from_log_deriv: payload generators, their resampling, the conjugacies of
cohomology solutions) is one log-density primitive: the exact integral of the
exponential of the track's piecewise-linear interpolant, normalized at the
endpoints (interval) or to degree one (circle), so its value slope is the exp
of its log-derivative everywhere.  compose, invert and conjugate_action
concatenate, reverse and reduce plans: P·P⁻¹ cancels and adjacent rotations
merge.  Chains therefore evaluate without stacking interpolation error, and
an orbit walk (WalkState) stays in a conjugator's coordinates: g = h∘R_α∘h⁻¹
iterates as z -> z + α, with p = h(z), as does φ∘g∘φ⁻¹ (one inverse of φ∘h).
Serialization keeps only the grid data.

Composition accumulates log-derivatives through the chain rule
(log D(f∘g) = log Dg + (log Df)∘g); derivatives are never re-differenced
from values.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import DegenerateDerivative, NonConvergence, NonFinite, NonMonotone
from .gridfn import GridFunction
from .space import Space

Array = np.ndarray

# Derivatives below this floor make the map numerically non-invertible.
DERIVATIVE_FLOOR = 1e-9
_LOG_FLOOR = math.log(DERIVATIVE_FLOOR)
# Tolerance for snapping endpoint/degree normalization of value tracks.
_ENDPOINT_TOL = 1e-9
_NEWTON_STEPS = 60  # step budget of the safeguarded Newton inversion
_NEWTON_STEP = 1e-14  # a point stops once its Newton step is below this
# Largest residual |f(x) - y| accepted, at a stop or once the step budget is
# spent: where Df < 1, a residual of one ulp moves x by more than the
# stopping step, so a converged point can keep stepping back and forth until
# the budget runs out; where Df is huge, a step below _NEWTON_STEP can leave
# a residual far above it.
_NEWTON_TOL = 1e-12
_ANGLE_SNAP = 64 * 2.0**-52  # relative rounding of merged rotation angles


def _as_array(x):
    return np.asarray(x, dtype=float)


def _newton(jet: Callable, y, lo, hi, x) -> Tuple[Array, Array]:
    """(x, log Dv at each point's last jet) with v(x) = y in [lo, hi], where
    jet(x) = (v, log Dv) and v increases: safeguarded Newton-bisection
    (rtsafe) from x.  Each point stops on its own, so no result depends on
    the batch: once its step is below _NEWTON_STEP with a residual within
    _NEWTON_TOL, or once its bracket has collapsed to two adjacent floats,
    where it returns the one of smaller residual (the far end is evaluated
    in the next round).  A step below _NEWTON_STEP that rounds onto an end
    of the bracket moves one float towards the root instead, so a steep v
    still collapses its bracket.  Raises NonConvergence when, the budget
    spent, a residual is above _NEWTON_TOL."""
    shape = np.shape(y)
    y, lo, hi = (np.broadcast_to(_as_array(a), shape).ravel() for a in (y, lo, hi))
    x = np.clip(np.ravel(x), lo, hi)
    out_x, out_ld = np.empty_like(y), np.empty_like(y)
    near = np.full(y.size, np.inf)  # residual at a collapsed bracket's near end
    live = np.arange(y.size)
    pending = False  # some x is the far end of a collapsed bracket

    def settle(fx, ld) -> Array:
        """Far ends of collapsed brackets: kept where nearer than the near end."""
        far = near[live] < np.inf
        take = far & (np.abs(fx) < near[live])
        out_x[live[take]], out_ld[live[take]] = x[take], ld[take]
        return far

    for _ in range(_NEWTON_STEPS):
        v, ld = jet(x)
        fx = v - y
        lo = np.where(fx <= 0, x, lo)
        hi = np.where(fx >= 0, x, hi)
        xn = x - fx * np.exp(-ld)
        bad = ~np.isfinite(xn) | (xn < lo) | (xn > hi)
        xn = np.where(bad, 0.5 * (lo + hi), xn)
        small = np.abs(xn - x) < _NEWTON_STEP
        done = small & (np.abs(fx) <= _NEWTON_TOL)
        out_x[live[done]], out_ld[live[done]] = xn[done], ld[done]
        if pending:
            done |= settle(fx, ld)
        if done.all():
            return out_x.reshape(shape), out_ld.reshape(shape)
        slow = small & ~done  # a step below resolution, a residual above tol
        pending = False
        if slow.any():
            pinned = slow & (np.nextafter(lo, np.inf) >= hi)
            out_x[live[pinned]], out_ld[live[pinned]] = x[pinned], ld[pinned]
            near[live[pinned]] = np.abs(fx[pinned])
            edge = slow & ((xn <= lo) | (xn >= hi))
            xn = np.where(edge, np.nextafter(x, np.where(fx < 0, hi, lo)), xn)
            xn = np.where(pinned, np.where(x == lo, hi, lo), xn)
            pending = pinned.any()
        go = ~done
        live, x, y, lo, hi = live[go], xn[go], y[go], lo[go], hi[go]
    v, ld = jet(x)
    rest = ~settle(v - y, ld) if pending else np.ones(x.size, dtype=bool)
    residual = float(np.max(np.abs(v - y)[rest], initial=0.0))
    if not residual <= _NEWTON_TOL:  # NaN included
        raise NonConvergence("Newton inversion did not converge", residual)
    out_x[live[rest]], out_ld[live[rest]] = x[rest], ld[rest]
    return out_x.reshape(shape), out_ld.reshape(shape)


# ---------------------------------------------------------------------------
# Primitives and plans.


class Primitive:
    """An exact map given on one fundamental domain by its jet, x in [0,1] ->
    (value, log-derivative), and its inverse jet, y in [base, base + 1] ->
    (value, log-derivative of the inverse), base being the value at 0 on the
    circle, given by the constructor, and 0 on the interval, inverted on [0,1].
    `apply` extends both to every lift: by degree one on the circle, by
    clipping to [0,1] on the interval.  A rotation is only its angle."""

    __slots__ = ("circle", "fwd", "bwd", "base", "angle")

    def __init__(self, circle: bool, fwd=None, bwd=None, angle=None, base=0.0):
        self.circle, self.fwd, self.bwd, self.angle, self.base = circle, fwd, bwd, angle, base

    def apply(self, x: Array, sign: int):
        """Jet (sign 1) or inverse jet (sign -1) at lifts x; a rotation gives
        None for its zero log-derivative."""
        if self.angle is not None:
            return x + sign * self.angle, None
        fn, base = (self.fwd, 0.0) if sign > 0 else (self.bwd, self.base)
        if not self.circle:
            return fn(np.clip(x, 0.0, 1.0))
        y, k = _branch(x, base)
        v, ld = fn(y)
        return v + k, ld


def _branch(x: Array, base: float = 0.0) -> Tuple[Array, Array]:
    """(y, k) with x = y + k, k an integer and y in [base, base + 1)."""
    k = np.floor(x - base)
    y = x - k
    wrap = y - base >= 1.0  # x - k rounded up onto the next branch
    if wrap.any():
        y, k = np.where(wrap, y - 1.0, y), k + wrap
    return np.maximum(y, base), k  # below base where x - base rounded onto k


def _exp_integrals(a: Array, db: Array, width) -> Array:
    """Exact integrals of exp over intervals of the given widths on which its
    argument rises linearly from a by db."""
    small = np.abs(db) < 1e-12
    safe = np.where(small, 1.0, db)
    e = width * np.exp(a)
    return np.where(small, e * (1.0 + 0.5 * db), e * np.expm1(safe) / safe)


def _pl_inverse(space: Space, values: Array, y: Array) -> Tuple[Array, Array]:
    """(x, cell index of x) where the piecewise-linear value track takes the
    value y, unclipped."""
    idx = np.clip(np.searchsorted(values, y) - 1, 0, space.grid_size - 1)
    x = space.nodes[idx] + (y - values[idx]) / (values[idx + 1] - values[idx]) * space.h
    return x, idx


def _power_seed(f: "Diffeo", y: Array, idx: Array, x: Array) -> Array:
    """Newton seeds for f(x) = y in the track cells idx, x the linear seeds.
    On a cell [lo, lo + h] of rise dv that is steeper on the left, f is
    modelled as f(lo) + dv·((x - lo)/h)^β with β = h·Df(lo + h)/dv, which
    matches the values at both ends and the derivative at the flat one;
    the mirror form where it is steeper on the right.  The seed is the
    model's root where β < ½, where a linear seed would leave Newton
    bisecting (a Deroin CDF can behave like x^0.15 in its end cells)."""
    values, nodes, h = f.values, f.space.nodes, f.space.h
    ld = f.space.full_track(f.log_deriv.samples)
    dv = values[idx + 1] - values[idx]
    left = ld[idx] > ld[idx + 1]  # steeper on the left: flat at the right end
    beta = h * np.exp(np.where(left, ld[idx + 1], ld[idx])) / dv
    gate = beta < 0.5
    if not gate.any():
        return x
    u = np.where(left, y - values[idx], values[idx + 1] - y) / dv
    step = h * np.clip(u, 0.0, 1.0) ** (1.0 / beta)
    return np.where(gate, np.where(left, nodes[idx] + step, nodes[idx + 1] - step), x)


def _walk(plan, x: Array, ld=None) -> Tuple[Array, Array]:
    """(value, log-derivative) of a plan at lifts x, or of the walk whose
    state is (x, ld) continued by the plan."""
    for p, s in reversed(plan):
        x, d = p.apply(x, s)
        if d is not None:
            ld = d if ld is None else ld + d
    return x, np.zeros_like(x) if ld is None else ld


def _reduce(plan) -> tuple:
    """Free reduction: P·P⁻¹ of one primitive object cancels and adjacent
    rotations merge (a zero angle drops).  A merged angle closer to an
    integer than _ANGLE_SNAP times the operands' size is that integer:
    rotations that cancel leave a residue of a few ulps otherwise, and the
    f(0) in [0, 1) frame shifts the lift of a residue below 0 by 1."""
    out = []
    for p, s in plan:
        if out and p.angle is not None and out[-1][0].angle is not None:
            q, t = out.pop()
            angle = t * q.angle + s * p.angle
            k = round(angle)
            if abs(angle - k) <= _ANGLE_SNAP * (abs(q.angle) + abs(p.angle)):
                angle = float(k)
            out += [(Primitive(True, angle=angle), 1)] if angle else []
        elif out and out[-1] == (p, -s):
            out.pop()
        else:
            out.append((p, s))
    return tuple(out)


def _shifted(plan, k: int) -> tuple:
    """The plan followed by x -> x + k, k an integer: k joins the first
    rotation, as integer shifts commute with every circle primitive, else
    sits mid-plan, so that a plan φ·f·φ⁻¹ keeps its head φ (_head)."""
    if not k:
        return plan
    i = next((i for i, (p, _) in enumerate(plan) if p.angle is not None), len(plan) // 2)
    return _reduce(plan[:i] + ((Primitive(True, angle=float(k)), 1),) + plan[i:])


def _head(plans) -> tuple:
    """The longest prefix H, not of rotations alone, such that every plan
    but an empty one (an identity letter) reads H·Q·H⁻¹; () if none."""
    plans = [plan for plan in plans if plan] or [()]
    w, k = plans[0], 0
    while all(k < len(p) // 2 and p[k] == w[k] and p[~k] == (w[k][0], -w[k][1]) for p in plans):
        k += 1
    return w[:k] if any(p.angle is None for p, _ in w[:k]) else ()


def translations(plans) -> bool:
    """Whether every plan reads H·Q·H⁻¹ with H the head they share (_head)
    and Q rotations alone: the maps then walk as z -> z + α and commute
    exactly, not only within a tolerance."""
    head = len(_head(plans))
    return all(p.angle is not None for plan in plans for p, _ in plan[head : len(plan) - head])


class WalkState:
    """Points p = H(z) that a word reaches from points x, kept in the
    coordinates z of a head H, a plan prefix: g = h∘R_α∘h⁻¹ walks as
    z -> z + α with H = h, and so does φ∘g∘φ⁻¹ with H = φ·h.  acc is
    log D(word)(x) less log DH(z), None while nothing is added to it."""

    __slots__ = ("z", "acc", "head", "_point")

    def __init__(self, z: Array, acc, head=(), point=None):
        self.z, self.acc, self.head, self._point = z, acc, head, point

    @classmethod
    def start(cls, x, plans=()) -> "WalkState":
        """The empty word at x, in the coordinates of the head H that the
        plans share (_head): one walk of H⁻¹ for the points."""
        x = _as_array(x)
        head = _head(plans)
        z, acc = _walk(tuple((p, -s) for p, s in reversed(head)), x) if head else (x, None)
        return cls(z, acc, head, (x, np.zeros_like(x)))

    def point(self) -> Tuple[Array, Array]:
        """(p, log D(word)(x)): one walk of the head, kept for the next step."""
        if self._point is None:
            self._point = _walk(self.head, self.z, self.acc)
        return self._point

    def step(self, plan) -> "WalkState":
        """The walk after one more letter, given by its plan (empty: left as
        it is).  A plan H·Q·H⁻¹ walks Q alone from z, any other plan walks
        from the point; the plan's own head (_head) is the next head."""
        if not plan:
            return self
        head = _head((plan,))
        resume = head[: len(self.head)] == self.head
        z, acc = (self.z, self.acc) if resume else self.point()
        z, acc = _walk(plan[len(head) : len(plan) - len(self.head) * resume], z, acc)
        return WalkState(z, acc, head)


def _walks(f: "Diffeo", x, n: int):
    """The walks of f^k at lifts x (interval: [0,1]) for k = 1..n, steps of
    one WalkState walk of f's plan: h∘R_α∘h⁻¹ and its conjugate φ∘h∘R_α∘h⁻¹∘φ⁻¹
    invert h, or φ·h, once and then step z -> z + α."""
    plan = f.as_plan()
    walk = WalkState.start(x, (plan,))
    for _ in range(n):
        yield (walk := walk.step(plan))


def iterates(f: "Diffeo", x, n: int):
    """(f^k(x), log D(f^k)(x)) for k = 1..n, one point per walk (_walks)."""
    return (walk.point() for walk in _walks(f, x, n))


def iterate(f: "Diffeo", x, n: int) -> Tuple[Array, Array]:
    """(f^n(x), log D(f^n)(x)) for n >= 1: the point of the last walk alone."""
    return deque(_walks(f, x, n), maxlen=1).pop().point()


# ---------------------------------------------------------------------------
# Diffeomorphisms.


class Diffeo:
    """An orientation-preserving diffeomorphism with a log-derivative track.

    values: lift values at all grid_size+1 nodes (interval: values[0] = 0,
    values[-1] = 1; circle: values[0] = offset in [0,1), values[-1] = offset+1).
    log_deriv: GridFunction on the space's per-node track, its samples only.
    plan: the map as a reduced word of primitives, one log-density primitive
    for a map given by its log-derivative track; the exact log_derivative
    walks it.
    """

    __slots__ = ("space", "log_deriv", "values", "offset", "plan")

    def __init__(self, space: Space, log_deriv: GridFunction, values: Array, plan):
        self.space = space
        self.log_deriv = log_deriv
        self.values = values
        self.offset = float(values[0])
        self.plan = plan
        self._validate()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_log_deriv(cls, space: Space, samples, offset: float = 0.0) -> "Diffeo":
        """The log-density primitive of log-derivative samples: the integral
        of the exponential of their piecewise-linear interpolant, divided by
        its total, plus offset mod 1 on the circle, so its value slope is the
        exp of its log-derivative everywhere; the inverse jet is in closed
        form.  The track is shifted by c = log(total) only where |c| > 1e-12:
        a map rebuilt from its own track keeps every bit."""
        samples = _as_array(samples)
        if samples.shape != (space.track_length,):
            raise ValueError(
                f"expected {space.track_length} log-derivative samples, "
                f"got {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise NonFinite("log-derivative samples must be finite")
        full, nodes, h, n = space.full_track(samples), space.nodes, space.h, space.grid_size
        rise = np.diff(full)
        cum = np.concatenate([[0.0], np.cumsum(_exp_integrals(full[:-1], rise, h))])
        total = cum[-1]
        values = cum / total
        values[-1] = 1.0
        c = math.log(total)
        if abs(c) > 1e-12:
            samples = samples - c
        off = float(offset) % 1.0 if space.is_circle else 0.0
        track, slopes, flat = GridFunction(space, samples), rise / h, np.abs(rise) < 1e-12

        def jet_fn(x):
            idx = np.clip((x * n).astype(int), 0, n - 1)
            t = x - nodes[idx]
            part = _exp_integrals(full[idx], slopes[idx] * t, t)
            return (cum[idx] + part) / total + off, track.interp(x)

        def inverse_jet(y):
            target = (y - off) * total
            idx = np.clip(np.searchsorted(cum, target, side="right") - 1, 0, n - 1)
            rem, a, s = target - cum[idx], full[idx], np.where(flat[idx], 1.0, slopes[idx])
            t = np.where(flat[idx], rem * np.exp(-a), np.log1p(s * rem * np.exp(-a)) / s)
            x = nodes[idx] + np.clip(t, 0.0, h)
            return x, -track.interp(x)

        prim = Primitive(space.is_circle, jet_fn, inverse_jet, base=off)
        return cls(space, track, values + off, ((prim, 1),))

    @classmethod
    def from_callables(cls, space: Space, jet_fn, inverse_jet=None) -> "Diffeo":
        """The one-primitive plan of jet_fn and inverse_jet (see Primitive).
        Without inverse_jet, Newton on the jet inverts, seeded by the track."""
        prim = Primitive(space.is_circle, jet_fn, inverse_jet)
        values, ld = _walk(((prim, 1),), space.nodes)
        prim.base = float(values[0]) if space.is_circle else 0.0
        f = cls._sampled(space, values, ld, ((prim, 1),))
        if inverse_jet is None:
            shift = math.floor(prim.base)  # the integer _sampled took off
            prim.bwd = lambda y: f._invert01(y - shift)
        return f

    @classmethod
    def from_plan(cls, space: Space, plan) -> "Diffeo":
        """The exact map of a plan, reduced, with tracks from its jet."""
        plan = _reduce(plan)
        return cls._sampled(space, *_walk(plan, space.nodes), plan)

    @classmethod
    def _sampled(cls, space: Space, values: Array, ld: Array, plan) -> "Diffeo":
        """A map from its jet at the nodes, shifted on the circle (plan too)
        so that f(0) lies in [0,1)."""
        shift = math.floor(values[0]) if space.is_circle else 0
        track = GridFunction(space, ld[: space.track_length])
        return cls(space, track, values - shift, _shifted(plan, -shift))

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

    def apply(self, x, sign: int = 1) -> Tuple[Array, Array]:
        """Jet (sign 1) or inverse jet (sign -1) at arbitrary reals (interval:
        [0,1]), through the plan or its reverse."""
        x, k = _as_array(x), 0.0
        if self.space.is_circle:
            x, k = _branch(x, 0.0 if sign > 0 else self.offset)
        else:
            x = np.clip(x, 0.0, 1.0)
        v, ld = _walk(self.as_plan(sign), x)
        return v + k, ld

    def jet(self, x) -> Tuple[Array, Array]:
        """(eval_lift(x), log_derivative(x)) in one pass through the plan."""
        return self.apply(x, 1)

    def inverse_jet(self, y) -> Tuple[Array, Array]:
        """(invert_lift(y), log D(f^{-1})(y)) in one pass."""
        return self.apply(y, -1)

    def eval_lift(self, x) -> Array:
        """Evaluates the degree-one lift at arbitrary reals (interval: [0,1])."""
        return self.apply(x, 1)[0]

    def invert_lift(self, y) -> Array:
        """Lift of the inverse at arbitrary reals."""
        return self.apply(y, -1)[0]

    def __call__(self, x) -> Array:
        """Values in the space itself (circle values reduced mod 1)."""
        y = self.eval_lift(self.space.reduce(x))
        return np.mod(y, 1.0) if self.space.is_circle else y

    def log_derivative(self, x) -> Array:
        """log D at x reduced into the space, walked through the plan."""
        return self.apply(self.space.reduce(x))[1]

    def derivative(self, x) -> Array:
        return np.exp(self.log_derivative(x))

    def as_plan(self, sign: int = 1) -> tuple:
        """The plan of the map (sign 1) or of its inverse (sign -1)."""
        return self.plan if sign > 0 else tuple((p, -s) for p, s in reversed(self.plan))

    def _invert01(self, y: Array) -> Tuple[Array, Array]:
        """(f^{-1}(y), log D(f^{-1})(y)) for y in the fundamental branch:
        Newton on the jet, bracketed by the cell of the piecewise-linear
        value track and seeded by its inverse, or by a one-sided power law
        where the cell is steep at one end (_power_seed)."""
        x, idx = _pl_inverse(self.space, self.values, y)
        nodes = self.space.nodes
        x = _power_seed(self, y, idx, x)
        x, ld = _newton(self.jet, y, nodes[idx], nodes[idx + 1], x)
        return x, -ld

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
        return f"Diffeo({self.space}, sup|logD|={self.log_deriv.sup_abs():.4g})"


# ---------------------------------------------------------------------------
# Module-level operations.


def build_diffeo(definition, space: Space) -> Diffeo:
    """Builds a diffeomorphism from an expression (text or compiled), from
    log-derivative samples, or passes an existing Diffeo through.  The bare
    variable x is the identity, whose plan is empty, and on the circle x + c
    (c + x, x - c) with c a finite constant is the rotation by c; a Möbius
    root (a x + b)/(c x + d) inverts in closed form.  A derivative that is
    not finite and positive is refused (NonMonotone)."""
    from .expressions import Expression, compile_expression

    if isinstance(definition, Diffeo):
        definition.space.check_same(space)
        return definition
    if isinstance(definition, str):
        definition = compile_expression(definition)
    if not isinstance(definition, Expression):
        return Diffeo.from_log_deriv(space, definition)
    expr = definition
    if expr.is_variable:
        return identity(space)
    if space.is_circle and expr.shift is not None:
        return rotation(space, expr.shift)

    def jet_fn(x):
        v, d = expr.jet(x)
        if not (np.isfinite(d).all() and (d > 0).all()):
            raise NonMonotone(f"{expr.text!r} has non-positive derivative")
        return _as_array(v), np.log(d)

    inverse_jet = None
    if expr.mobius is not None:
        a, b, c, d = expr.mobius

        def inverse_jet(y):
            den = a - c * y
            return (d * y - b) / den, math.log(a * d - b * c) - 2.0 * np.log(den)

    with np.errstate(divide="ignore", invalid="ignore"):  # jet_fn checks the nodes
        return Diffeo.from_callables(space, jet_fn, inverse_jet)


def compose(f: Diffeo, g: Diffeo) -> Diffeo:
    """f∘g, the plan f·g reduced.  The log-derivative track is
    log Dg + (log Df)∘g sampled per node."""
    f.space.check_same(g.space)
    return Diffeo.from_plan(f.space, f.as_plan() + g.as_plan())


def invert(f: Diffeo) -> Diffeo:
    """f^{-1}, the reversed plan.  The log-derivative track is
    -(log Df)∘f^{-1} sampled per node."""
    return Diffeo.from_plan(f.space, f.as_plan(-1))


def conjugate_maps(maps: Sequence[Diffeo], phi: Diffeo) -> List[Diffeo]:
    """phi ∘ f ∘ phi^{-1} for each f, the plan phi·f·phi⁻¹ reduced, walked at
    the nodes from one WalkState: the head that the plans share (phi, and h
    for maps h∘R∘h⁻¹) is inverted once."""
    for f in maps:
        phi.space.check_same(f.space)
    plans = [_reduce(phi.as_plan() + f.as_plan() + phi.as_plan(-1)) for f in maps]
    start = WalkState.start(phi.space.nodes, plans)
    return [Diffeo._sampled(phi.space, *start.step(p).point(), p) for p in plans]


def conjugate_action(f: Diffeo, phi: Diffeo) -> Diffeo:
    """phi ∘ f ∘ phi^{-1}, the plan phi·f·phi⁻¹ reduced.  The intermediates
    phi^{-1} and f∘phi^{-1} are never materialized: a strongly expanding
    conjugator (e.g. a weighted orbit CDF) can have an inverse whose
    derivative dips below the node floor even though the conjugated
    composite is perfectly regular."""
    return conjugate_maps([f], phi)[0]


# ---------------------------------------------------------------------------
# Stock constructions.


def identity(space: Space) -> Diffeo:
    return Diffeo.from_plan(space, ())


def rotation(space: Space, angle: float) -> Diffeo:
    """Rigid rotation x + angle (circle only)."""
    if not space.is_circle:
        if angle % 1.0 == 0.0:
            return identity(space)
        raise NonMonotone("rotations by a non-integer angle need the circle")
    return Diffeo.from_plan(space, ((Primitive(True, angle=float(angle)), 1),))


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
    log_slopes = np.log(slopes)

    def piece(t, knots):
        return np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(slopes) - 1)

    def jet_fn(x):
        return np.interp(x, bx, by), log_slopes[piece(x, bx)]

    def inverse_jet(y):
        return np.interp(y, by, bx), -log_slopes[piece(y, by)]

    return Diffeo.from_callables(space, jet_fn, inverse_jet)


def conjugated_rotation(space: Space, h, angle: float) -> Diffeo:
    """h ∘ (x+angle) ∘ h^{-1} with exact evaluation throughout."""
    if not space.is_circle:
        raise NonMonotone("conjugated rotations need the circle")
    return conjugate_action(rotation(space, angle), build_diffeo(h, space))
