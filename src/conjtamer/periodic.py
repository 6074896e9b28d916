"""Periodic-orbit inventory, hyperbolic-point flattening, and detection of
resilient interval pairs.

Orbits walk plans: every iterate, multiplier and rotation number comes from
one WalkState walk of the map's plan (diffeo.iterates): h∘R_α∘h⁻¹ and its
conjugate φ∘h∘R_α∘h⁻¹∘φ⁻¹ invert h, or φ∘h, once per walk, then step z -> z + α.

Flattening conjugates by a map whose germ at each flagged point is
x_j ± r (t/r)^(1/alpha); the conjugated maps stay C^1 with fixed-point
multipliers raised to the power 1/alpha.  The flattening map has infinite
derivative at the flagged points, so it is a plan primitive but no Diffeo:
a conjugate walks its plan and collapses the singularity analytically.

Resilient detection spells its words off the one BFS of the rewriting trie
(words._spheres, over every letter) and walks them by suffix
(Action.walk_words).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .action import Action
from .diffeo import _NEWTON_TOL, Diffeo, Primitive, iterate, iterates
from .errors import (
    FlaggedSetNotInvariant,
    InfiniteHyperbolicSet,
    NonConvergence,
    NotCircle,
)
from .space import Space
from .words import DEFAULT_BALL_CAP, Letter, Word, _spheres

Array = np.ndarray

PARABOLIC_TOL = 1e-6  # |log multiplier| below this counts as parabolic
_GERM_LIN = 1e-9  # offset below which the germ arithmetic is linearized
_SNAP_TOL = 1e-8  # distance within which an image of a flagged point is flagged
PERIOD_CAP = 3  # least-period bound of the pipeline's circle inventories and flattening
# Bridge inversion seeds: 64 uniform cells, refined geometrically towards
# both ends, where a bridge of small end slope is nearly quadratic; Newton
# from such a seed reaches rounding within 4 steps for end slopes down to 1e-9.
_GEOMETRIC = 2.0 ** -np.arange(7, 53)
_BRIDGE_NODES = np.sort(
    np.concatenate([np.linspace(0.0, 1.0, 65), _GEOMETRIC, 1.0 - _GEOMETRIC])
)
_BRIDGE_STEPS = 5


# ---------------------------------------------------------------------------
# Periodic points.


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic orbit: points in forward order from the smallest
    representative, the least period, and the one-cycle multiplier."""

    points: Tuple[float, ...]
    period: int
    multiplier: float

    @property
    def log_multiplier(self) -> float:
        return math.log(self.multiplier)

    @property
    def parabolic(self) -> bool:
        return abs(self.log_multiplier) < PARABOLIC_TOL


def _point_distance(space: Space, a: float, b: float) -> float:
    d = abs(a - b)
    return min(d, 1.0 - d) if space.is_circle else d


def orbit_multiplier(f: Diffeo, x: float, period: int) -> float:
    """Df^period at x through the log-derivative chain rule."""
    return math.exp(float(iterate(f, [x], period)[1][0]))


def find_periodic_points(
    f: Diffeo, n_max: int, tol: float = 1e-10
) -> List[PeriodicOrbit]:
    """All periodic orbits of least period <= n_max, one record per orbit,
    sorted by (period, smallest point).  Powers that are identity-like on the
    grid (sup |f^N - id| below tol) contribute no orbits: every point would
    be periodic and no finite inventory exists.  An increasing map of [0, 1]
    has fixed points alone: on the interval one iterate is walked."""
    space = f.space
    n_max = n_max if space.is_circle else min(n_max, 1)
    nodes = space.nodes
    merge_tol = 2.0 / space.grid_size
    accepted: List[PeriodicOrbit] = []

    def already_known(x: float) -> bool:
        return any(
            _point_distance(space, x, p) <= merge_tol
            for orb in accepted
            for p in orb.points
        )

    for period, (img, _) in enumerate(iterates(f, nodes, n_max), 1):
        disp = img - nodes
        shifts = (
            range(
                int(math.ceil(disp.min() - 1e-12)),
                int(math.floor(disp.max() + 1e-12)) + 1,
            )
            if space.is_circle
            else (0,)
        )
        roots: List[float] = []
        identity_like = False
        for m in shifts:
            d = disp - m
            if float(np.max(np.abs(d))) < tol:
                identity_like = True
                break
            hit = np.abs(d) <= tol
            roots.extend(float(v) for v in nodes[hit])
            flip = np.nonzero((d[:-1] * d[1:] < 0.0) & ~hit[:-1] & ~hit[1:])[0]
            if flip.size:
                lo, hi, dlo = nodes[flip], nodes[flip + 1], d[flip]
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    dm = iterate(f, mid, period)[0] - mid - m
                    left = (dm * dlo) > 0.0
                    lo = np.where(left, mid, lo)
                    dlo = np.where(left, dm, dlo)
                    hi = np.where(left, hi, mid)
                # a bracket ends a few ulps wide, or on a small displacement
                ulps = 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
                open_ = ~((hi - lo <= ulps) | (np.abs(dm) <= tol))
                if open_.any():
                    raise NonConvergence(
                        "periodic-point bisection did not converge",
                        float(np.max(np.abs(dm[open_]))),
                    )
                roots.extend(float(v) for v in 0.5 * (lo + hi))
        if identity_like:
            continue
        cleaned: List[float] = []
        for x in sorted(roots):
            x = x % 1.0 if space.is_circle else x
            if cleaned and _point_distance(space, x, cleaned[-1]) <= merge_tol:
                continue
            cleaned.append(x)
        for x in cleaned:
            if already_known(x):
                continue
            orbit = [x]
            for y, _ in iterates(f, [x], period - 1):
                pt = float(y[0]) % 1.0 if space.is_circle else float(y[0])
                if _point_distance(space, pt, x) <= merge_tol:
                    break
                orbit.append(pt)
            if len(orbit) < period:  # a smaller least period
                continue
            k0 = orbit.index(min(orbit))
            orbit = tuple(orbit[k0:] + orbit[:k0])
            accepted.append(
                PeriodicOrbit(orbit, period, orbit_multiplier(f, orbit[0], period))
            )
    accepted.sort(key=lambda o: (o.period, o.points[0]))
    return accepted


# ---------------------------------------------------------------------------
# Rotation numbers.


def rotation_number(
    f: Diffeo, iters: int = 4096, base_points: int = 3
) -> Tuple[float, float]:
    """(estimate, error bound): lift displacement over iters orbit steps,
    averaged over equispaced base points; the bound is 1/iters."""
    if not f.space.is_circle:
        raise NotCircle("rotation numbers need a circle action")
    if iters < 1:
        raise ValueError("need iters >= 1")
    x = np.arange(base_points, dtype=float) / base_points
    y = iterate(f, x, iters)[0]
    rho = float(np.mean(y - x)) / iters
    return rho % 1.0, 1.0 / iters


# ---------------------------------------------------------------------------
# Flattening.


@dataclass(frozen=True)
class _Bridge:
    """Monotone C^1 cubic fixing both endpoints with prescribed slopes.
    With slopes in (0, 3] against the unit secant the Fritsch-Carlson test
    holds, so the cubic is strictly increasing."""

    a: float
    b: float
    slope_a: float
    slope_b: float

    def jet(self, x: Array) -> Tuple[Array, Array]:
        """(bridge(x), Dbridge(x)) from one s = (x - a)/(b - a): the cubic
        Hermite terms s(1-s)^2, s^2(s-1) and their derivatives times the
        endpoint slopes less one."""
        h, ma, mb = self.b - self.a, self.slope_a - 1.0, self.slope_b - 1.0
        s = (x - self.a) / h
        u, s3 = 1.0 - s, 3.0 * s
        return (
            x + h * (ma * (s * u**2) + mb * (s * s * (s - 1.0))),
            1.0 + ma * (u * (1.0 - s3)) + mb * (s * (s3 - 2.0)),
        )

    @functools.cached_property
    def _table(self) -> Tuple[Array, Array]:
        """(x, bridge(x)) at the seed nodes, strictly increasing values."""
        x = self.a + (self.b - self.a) * _BRIDGE_NODES
        v = self.jet(x)[0]
        keep = np.concatenate([[True], np.diff(v) > 0.0])
        return x[keep], v[keep]

    def invert(self, y: Array) -> Tuple[Array, Array]:
        """(x, log Dbridge(x)) with bridge(x) = y: seeded by the inverse of
        the piecewise-linear table, then _BRIDGE_STEPS Newton steps on the
        cubic, each kept in the seed's table cell.  Raises NonConvergence
        when a residual is above _NEWTON_TOL (NaN included)."""
        xs, vs = self._table
        k = np.clip(np.searchsorted(vs, y) - 1, 0, xs.size - 2)
        lo, hi = xs[k], xs[k + 1]
        x = np.clip(lo + (y - vs[k]) / (vs[k + 1] - vs[k]) * (hi - lo), lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_BRIDGE_STEPS):
                v, d = self.jet(x)
                fx = v - y
                x = np.where(fx == 0.0, x, np.minimum(np.maximum(x - fx / d, lo), hi))
        v, d = self.jet(x)
        residual = float(np.max(np.abs(v - y), initial=0.0))
        if not residual <= _NEWTON_TOL:
            raise NonConvergence("bridge inversion did not converge", residual)
        return x, np.log(d)


class FlatteningMap:
    """psi with germ x_j ± r (t/r)^(1/alpha) at each flagged point and
    monotone C^1 Hermite bridges elsewhere, given by a segment table that
    psi maps segment by segment onto itself.  Its lifts are the plan
    primitive `prim`.  log Dpsi is +inf at the flagged points, so psi is no
    Diffeo; flatten_conjugate collapses that singularity analytically."""

    def __init__(self, space: Space, flagged: Sequence[float], alpha: float):
        if alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        pts = sorted(
            float(x) % 1.0 if space.is_circle else float(x) for x in flagged
        )
        self.space = space
        self.alpha = float(alpha)
        self.nodes = tuple(pts)
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        if pts and space.is_circle:
            gaps.append(pts[0] + 1.0 - pts[-1])
        elif pts:
            gaps += [g for g in (pts[0], 1.0 - pts[-1]) if g > 0.0]
        self.radius = min(0.05, 0.5 * min(gaps)) if gaps else 0.05
        q = self._q = 1.0 / self.alpha
        r = self.radius

        # segment table over one period/interval: (start, side, payload), side
        # -1 (+1) on the germ left (right) of a flagged point, whose center is
        # the payload (in the segment's own frame, possibly shifted by ±1 on
        # the circle), and 0 on a bridge, the payload a _Bridge
        segs: List[Tuple[float, int, object]] = []

        def add_bridge(a: float, b: float, sa: float, sb: float):
            if b - a > 1e-12:
                segs.append((a, 0, _Bridge(a, b, sa, sb)))

        if not pts:
            add_bridge(0.0, 1.0, 1.0, 1.0)  # nothing to flatten: the identity
        elif space.is_circle:
            for j, x in enumerate(pts):
                segs.append((x - r, -1, x))
                segs.append((x, 1, x))
                nxt = pts[j + 1] if j + 1 < len(pts) else pts[0] + 1.0
                add_bridge(x + r, nxt - r, q, q)
            # fold segments into [0,1); a germ centered at c evaluated from a
            # folded start s0 = start + 1 sees points near c + 1
            def moved(pay, shift):
                if isinstance(pay, float):
                    return pay + shift
                return _Bridge(pay.a + shift, pay.b + shift, pay.slope_a, pay.slope_b)

            segs = sorted(
                ((t % 1.0, k, moved(pay, round(t % 1.0 - t))) for t, k, pay in segs),
                key=lambda seg: seg[0],
            )
            # a segment may still straddle 1.0 after folding its start; the
            # part beyond 1 reappears at the front via mod-1 inputs, handled
            # by an extra copy starting at 0 when no segment starts there
            if segs[0][0] > 0.0:
                _, kind, pay = segs[-1]
                segs.insert(0, (0.0, kind, moved(pay, -1.0)))
        else:
            if pts[0] > 0.0:
                add_bridge(0.0, pts[0] - r, 1.0, q)
            for j, x in enumerate(pts):
                if x - r >= 0.0:
                    segs.append((x - r, -1, x))
                if x < 1.0:
                    segs.append((x, 1, x))
                if j + 1 < len(pts):
                    add_bridge(x + r, pts[j + 1] - r, q, q)
                elif x + r <= 1.0 - 1e-12:
                    add_bridge(x + r, 1.0, q, 1.0)
            segs.sort(key=lambda t: t[0])
        self._starts = np.asarray([s for s, _, _ in segs], dtype=float)
        self._sides = np.asarray([k for _, k, _ in segs], dtype=int)
        self._payload = [p for _, _, p in segs]
        self._centers = np.asarray([p if k else np.nan for _, k, p in segs])
        base = float(self._forward(np.zeros(1))[0][0]) if space.is_circle else 0.0
        self.prim = Primitive(
            space.is_circle, self._forward, lambda y: self._inverse(y)[:2], base=base
        )

    # -- evaluation ----------------------------------------------------------

    def _segment(self, x0: Array) -> Array:
        i = np.searchsorted(self._starts, x0, side="right") - 1
        return np.clip(i, 0, len(self._starts) - 1)

    def _germ(self, z: Array, power: float) -> Array:
        """r (z/r)^power for an offset z from a flagged point: the offset of
        its image under psi for power 1/alpha, under psi^{-1} for alpha."""
        return self.radius * np.power(np.maximum(z, 0.0) / self.radius, power)

    def _germ_log_deriv(self, z: Array) -> Array:
        """log Dpsi at offset z from a flagged point (+inf at z = 0 when alpha > 1)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return math.log(self._q) + (self._q - 1.0) * (np.log(z) - math.log(self.radius))

    def _bridges(self, seg: Array) -> Iterator[Tuple[Array, "_Bridge"]]:
        """(mask, bridge) of each bridge segment that seg holds."""
        for i in np.flatnonzero(np.bincount(seg, minlength=len(self._payload))):
            if not self._sides[i]:
                yield seg == i, self._payload[i]

    def _forward(self, x: Array) -> Tuple[Array, Array]:
        """(psi, log Dpsi) on the fundamental domain of Primitive.apply: a
        point before the first start or past 1 lies on the segment that
        straddles the fold."""
        seg = self._segment(x)
        v, ld = np.empty_like(x), np.empty_like(x)
        for sel, bridge in self._bridges(seg):
            v[sel], d = bridge.jet(x[sel])
            ld[sel] = np.log(d)
        at = np.flatnonzero(self._sides[seg])
        c, side = self._centers[seg[at]], self._sides[seg[at]]
        z = np.abs(x[at] - c)
        v[at], ld[at] = c + side * self._germ(z, self._q), self._germ_log_deriv(z)
        return v, ld

    def _inverse(self, x: Array):
        """(psi^{-1}, log Dpsi^{-1}, germ) at lifts x, one segment lookup
        each.  germ = (at, side, c, z_x, z_y, cell): the points on a germ,
        its side ±1 and lifted flagged point c, the offsets z_x = |x - c|
        and z_y = |psi^{-1}(x) - c|, and the lifted segment; the image of
        a germ point is c + side z_y."""
        k = np.floor(x) if self.space.is_circle else np.zeros_like(x)
        x0 = x - k
        seg = self._segment(x0)
        y, ld = np.empty_like(x), np.empty_like(x)
        for sel, bridge in self._bridges(seg):
            y[sel], ld_b = bridge.invert(x0[sel])
            ld[sel] = -ld_b
        y += k
        at = np.flatnonzero(self._sides[seg])
        seg, k = seg[at], k[at]
        side, c = self._sides[seg], self._centers[seg] + k
        z_x = np.abs(x[at] - c)
        z_y = self._germ(z_x, self.alpha)
        y[at], ld[at] = c + side * z_y, -self._germ_log_deriv(z_y)
        cell = seg + len(self._starts) * (k - np.min(k, initial=0)).astype(int)
        return y, ld, (at, side, c, z_x, z_y, cell)

    def __repr__(self):
        return (
            f"FlatteningMap(alpha={self.alpha:.6g}, r={self.radius:.6g}, "
            f"nodes={list(self.nodes)})"
        )


def flatten_conjugate(psi: FlatteningMap, g: Diffeo) -> Diffeo:
    """psi ∘ g ∘ psi^{-1} as an honest C^1 diffeomorphism, its jet (g^{-1}
    for g in the inverse jet) one pass in which each point x finds its
    segment of psi once.  On the germ of a flagged point c, psi^{-1}(x) is
    c ± z_y with z_y = r (z/r)^alpha from z = |x - c|; x takes the exact
    linear collapse g(c) ± m^(1/alpha) z with log-derivative (1/alpha) log m,
    m = Dg(c), when z_y < 1e-9, and when g(psi^{-1}(x)) lies within r of g(c)
    the germ at g(c), which differences out the periodic-point root error.
    Only the other points, on a bridge or leaving their germ, evaluate psi:
    they keep the value of the plan psi·g·psi⁻¹.  Raises
    FlaggedSetNotInvariant when alpha > 1 and g maps a flagged point farther
    than 1e-8 from every flagged point: Dpsi^{-1} vanishes there and Dpsi at
    its image is finite, so the conjugate would have derivative 0."""
    space = g.space
    q, r = psi._q, psi.radius
    if psi.alpha > 1.0:
        for c, img in zip(psi.nodes, g.eval_lift(np.asarray(psi.nodes))):
            img = img % 1.0 if space.is_circle else img
            if all(_point_distance(space, img, f) >= _SNAP_TOL for f in psi.nodes):
                raise FlaggedSetNotInvariant(
                    f"a generator maps the flagged point {c:.12g} to {img:.12g}, "
                    f"which is not flagged: flattening with alpha {psi.alpha:.6g} "
                    "would give its conjugate derivative 0 there"
                )

    def jet(s: int) -> Callable:
        def conjugated(x: Array) -> Tuple[Array, Array]:
            shape, x = x.shape, x.reshape(-1)  # a 0-d point maps to a 0-d point
            with np.errstate(divide="ignore", invalid="ignore"):
                y, ld_y, (at, side, c, z_x, z_y, cell) = psi._inverse(x)
                w, ld_g = g.apply(y, s)
                v, ld = np.empty_like(x), np.empty_like(x)
                keep = np.ones(x.size, dtype=bool)  # points that keep the plan's value
                if at.size:
                    rep = np.zeros(cell.max() + 1, dtype=int)  # a germ point per cell: no sort
                    rep[cell] = np.arange(at.size)
                    gc, lm = (a[cell] for a in g.apply(c[rep], s))
                    z_gy = np.maximum((w[at] - gc) * side, 0.0)
                    lin, inside = z_y < _GERM_LIN, z_gy <= r
                    v_lin = gc + side * np.exp(q * lm) * z_x
                    v[at] = np.where(lin, v_lin, gc + side * psi._germ(z_gy, q))
                    ld_in = (q - 1.0) * (np.log(np.maximum(z_gy, 1e-300)) - np.log(z_y))
                    ld[at] = np.where(lin, q * lm, ld_g[at] + ld_in)
                    keep[at] = ~(lin | inside)
                kept = np.flatnonzero(keep)
                v[kept], ld_v = psi.prim.apply(w[kept], 1)
                ld[kept] = ld_v + ld_g[kept] + ld_y[kept]
            return v.reshape(shape), ld.reshape(shape)

        return conjugated

    return Diffeo.from_callables(space, jet(1), jet(-1))


@dataclass
class FlatteningReport:
    alpha: float
    radius: float
    flagged: Tuple[float, ...]
    orbits: List[PeriodicOrbit]
    log_multipliers_before: Dict[float, float]
    log_multipliers_after: Dict[float, float]

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "radius": self.radius,
            "flagged": list(self.flagged),
            "orbits": [asdict(o) for o in self.orbits],
            "log_multipliers_before": {
                f"{k:.12g}": v for k, v in self.log_multipliers_before.items()
            },
            "log_multipliers_after": {
                f"{k:.12g}": v for k, v in self.log_multipliers_after.items()
            },
        }


def flatten_hyperbolic(
    action: Action,
    delta: Optional[float] = None,
    alpha: Optional[float] = None,
    orbits: Optional[Sequence[Sequence[PeriodicOrbit]]] = None,
    cap: int = 64,
) -> Tuple[Action, FlatteningMap, FlatteningReport]:
    """Conjugates the action so every hyperbolic periodic multiplier M of
    period N satisfies |log M|/alpha <= N*delta, taking
    alpha = max(1, max |log M| / (N*delta)) unless given.  orbits holds
    each generator's periodic orbits, as the pipeline's periodic stage
    found them; without it each generator is inventoried up to PERIOD_CAP.
    Raises InfiniteHyperbolicSet when more than cap points are flagged, and
    FlaggedSetNotInvariant when alpha > 1 and a generator moves a flagged
    point off the flagged set (see flatten_conjugate)."""
    if delta is None and alpha is None:
        raise ValueError("need delta or alpha")
    if orbits is None:
        orbits = [find_periodic_points(g, PERIOD_CAP) for g in action.gens]
    hyper = [o for gen_orbits in orbits for o in gen_orbits if not o.parabolic]
    flagged: List[float] = []
    for o in hyper:
        for p in o.points:
            if all(
                _point_distance(action.space, p, f) > 2.0 / action.space.grid_size
                for f in flagged
            ):
                flagged.append(p)
    if len(flagged) > cap:
        raise InfiniteHyperbolicSet(
            f"{len(flagged)} hyperbolic periodic points exceed cap {cap}"
        )
    if not flagged:
        psi = FlatteningMap(action.space, (), 1.0 if alpha is None else alpha)
        return action, psi, FlatteningReport(psi.alpha, psi.radius, (), [], {}, {})
    if alpha is None:
        alpha = max(
            1.0,
            max(abs(o.log_multiplier) / (o.period * delta) for o in hyper),
        )
    psi = FlatteningMap(action.space, flagged, alpha)
    flat_gens = [flatten_conjugate(psi, g) for g in action.gens]
    flattened = Action(action.space, action.presentation, flat_gens)
    before: Dict[float, float] = {}
    after: Dict[float, float] = {}
    for gen_orbits, g_new in zip(orbits, flat_gens):
        for o in gen_orbits:
            if o.parabolic:
                continue
            before[o.points[0]] = o.log_multiplier
            after[o.points[0]] = math.log(
                orbit_multiplier(g_new, o.points[0], o.period)
            )
    report = FlatteningReport(
        alpha=float(alpha),
        radius=psi.radius,
        flagged=tuple(sorted(flagged)),
        orbits=sorted(hyper, key=lambda o: (o.period, o.points[0])),
        log_multipliers_before=before,
        log_multipliers_after=after,
    )
    return flattened, psi, report


# ---------------------------------------------------------------------------
# Resilient pairs.


@dataclass(frozen=True)
class ResilientWitness:
    """Certificate x < f(x) < f(y) < g(x) < g(y) < y with every margin above
    the requested resolution; words spell f and g in generator letters."""

    word_f: Word
    word_g: Word
    display_f: str
    display_g: str
    x: float
    y: float
    chain: Tuple[float, float, float, float, float, float]
    margin: float
    resolution: float

    def to_dict(self) -> dict:
        return {
            "word_f": self.display_f,
            "word_g": self.display_g,
            "x": self.x,
            "y": self.y,
            "chain": list(self.chain),
            "margin": self.margin,
            "resolution": self.resolution,
        }


def _distinct_words(action: Action, max_len: int) -> List[Tuple[Letter, ...]]:
    """The first spelling of each element but the identity up to max_len
    letters, by length, then in the letter order g0, g0^-1, g1, ... of the
    freely reduced spellings: each node of the trie's BFS over all letters
    (words._spheres, capped at DEFAULT_BALL_CAP elements) is its parent's
    spelling and its letter.  The identity is the root (a spelled
    commutator of Z^2 reaches it), and it is neither f nor g of a chain."""
    pres = action.presentation
    spelling: Dict[int, Tuple[Letter, ...]] = {0: ()}
    for layer in _spheres(pres, max_len, DEFAULT_BALL_CAP, range(pres.rank)):
        for node, (parent, letter) in layer.items():
            spelling[node] = spelling[parent] + (letter,)
    return list(spelling.values())[1:]


def _cuts(v: Array) -> Array:
    """Starts of the non-decreasing pieces of v after the first."""
    return np.flatnonzero(np.diff(v) < 0) + 1


def _can_chain(xs: Array, v: Array, r: float) -> bool:
    """Whether the image v of the points xs may be f or g of a chain: some
    non-decreasing piece of v holds i < j with v[i] - xs[i] > r and
    xs[j] - v[j] > r.  One O(m) pass.

    The sweep's predicates imply this for f and for g.  Its i < j lie in
    one piece of f and of g, with f[i] - xs[i] > r and xs[j] - g[j] > r.
    Its differences f[j] - f[i], g[i] - f[j] and g[j] - g[i] round above
    r >= 0, so f[i] < f[j] < g[i] < g[j] as floats.  Rounding is monotone,
    so the rounded xs[j] - f[j] is at least the rounded xs[j] - g[j], and
    the rounded g[i] - xs[i] at least the rounded f[i] - xs[i]: both above
    r."""
    m = len(xs)
    starts = np.r_[0, _cuts(v)]
    idx = np.arange(m)
    above = np.minimum.reduceat(np.where(v - xs > r, idx, m), starts)
    below = np.maximum.reduceat(np.where(xs - v > r, idx, -1), starts)
    return bool((above < below).any())


def _least_above(v: Array, r: float) -> Array:
    """Smallest floats t with t - v > r, elementwise.  The rounded sum v + r
    is never above that edge, since the float below it minus v is below r
    before rounding; at most two steps up reach it."""
    t = v + r
    while (up := ~(t - v > r)).any():
        t[up] = np.nextafter(t[up], np.inf)
    return t


_ROW_BLOCK = 64  # most g rows swept at once: bounds the (rows, points) arrays


def _first_chain(
    xs: Array, count: int, values: Callable[[int], Array], r: float
) -> Optional[Tuple[int, int, int, int]]:
    """First (f, g, i, j) in row-major order with xs[i] < f[i] < f[j] <
    g[i] < g[j] < xs[j], every difference above r >= 0, over the images
    values(0..count-1) of the points xs.  Each image must reduce a
    non-decreasing lift (see detect_resilient).  Only the images that pass
    _can_chain are swept, in their order, so the first chain is the same.
    No f pairs with itself: f[j] - f[i] and f[i] - f[j] cannot both exceed
    r."""
    m = len(xs)
    idx = np.arange(m, dtype=np.int32)
    kept = [k for k in range(count) if _can_chain(xs, values(k), r)]
    blocks: Dict[int, List[Array]] = {}

    def pieces(v: Array) -> List[Tuple[int, int]]:
        cuts = _cuts(v).tolist()
        return list(zip([0] + cuts, cuts + [m]))

    def row(v: Array) -> Tuple[Array, ...]:
        """(v, end of i's piece, first j > i in it with v[j] - v[i] > r, next
        j with xs[j] - v[j] > r, least t with t - v[i] > r)."""
        up = _least_above(v, r)
        end, first = np.empty(m, dtype=np.int32), np.empty(m, dtype=np.int32)
        for a, b in pieces(v):
            end[a:b] = b
            first[a:b] = a + np.searchsorted(v[a:b], up[a:b])
        nxt = np.full(m + 1, m, dtype=np.int32)
        nxt[:m] = np.minimum.accumulate(np.where(xs - v > r, idx, m)[::-1])[::-1]
        return v, end, first, nxt, up

    spans, a, size = [], 0, 1
    while a < len(kept):
        spans.append((a, min(a + size, len(kept))))
        a, size = a + size, min(2 * size, _ROW_BLOCK)
    for fk in kept:
        fv = values(fk)
        x_ok = fv - xs > r
        _, _, f_first, _, f_up = row(fv)
        f_pieces = pieces(fv)
        for n, (a, b) in enumerate(spans):
            if n not in blocks:
                tables = zip(*(row(values(kept[k]))[:4] for k in range(a, b)))
                blocks[n] = [np.stack(t) for t in tables]
            gv, g_end, g_first, g_nxt = blocks[n]
            cand = x_ok & (gv - fv > 2.0 * r)
            keep = np.flatnonzero(cand.any(axis=1))
            if keep.size == 0:
                continue
            hi = g_end[keep]  # g[i] - f[j] > r iff f_up[j] <= g[i]: a prefix
            for s, e in f_pieces:
                cut = np.searchsorted(f_up[s:e], gv[keep, s:e], side="right")
                hi[:, s:e] = np.minimum(hi[:, s:e], s + cut)
            lo = np.maximum(f_first, g_first[keep])
            j = np.take_along_axis(g_nxt[keep], lo, axis=1)
            ok = cand[keep] & (j < hi)
            if ok.any():
                rk, i = divmod(int(np.argmax(ok)), m)  # row-major: first (g, i)
                return fk, kept[a + int(keep[rk])], i, int(j[rk, i])
    return None


def detect_resilient(
    action: Action, max_len: int, resolution: float
) -> Optional[ResilientWitness]:
    """First witness in the deterministic order (word pair, x index, y index)
    of a resilient chain over grid points, or None.  Circle actions compare
    the mod-1 values, so a chain must fit inside one fundamental domain;
    their scan runs on a subgrid with a few nodes per resolution length,
    which is where chains this wide are separated anyway.

    Each pair of word images is swept, not tabled over (x, y).  A mod-1
    image of a non-decreasing lift wraps at most once and no chain crosses
    a wrap of f or g, so the wraps cut the points into at most three
    non-decreasing segments (one on the interval).  There each condition on
    y holds on a suffix or a prefix, found by a searchsorted at a threshold
    moved to the exact float edge of its predicate.  Only the g(x) - f(y)
    edge depends on the pair: one O(m log m) search over the m scanned
    points, batched over blocks of g.  Only words that pass _can_chain are
    swept; none does for a conjugated rotation, whose every image lies
    above x before its wrap and below x after it.  The images are walks in
    the letters' plan coordinates, shared by suffix (Action.walk_words)."""
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"resolution must be finite and > 0, got {resolution!r}")
    space = action.space
    stride = max(1, int(space.grid_size * resolution / 4.0)) if space.is_circle else 1
    xs = space.track_nodes()[::stride]  # circle: node 1 is node 0
    words = _distinct_words(action, max_len)
    lifts = [None] * len(words)
    for k, walk in action.walk_words(words, xs):
        lifts[k] = walk.point()[0]

    def values_of(k: int) -> Array:
        return lifts[k] % 1.0 if space.is_circle else lifts[k]

    hit = _first_chain(xs, len(words), values_of, resolution)
    if hit is None:
        return None
    wf, wg = Word(words[hit[0]]), Word(words[hit[1]])
    fv, gv = values_of(hit[0]), values_of(hit[1])
    i, j = hit[2:]
    chain = tuple(float(v) for v in (xs[i], fv[i], fv[j], gv[i], gv[j], xs[j]))
    return ResilientWitness(
        wf, wg, wf.display(action.names), wg.display(action.names),
        chain[0], chain[-1], chain, float(np.min(np.diff(chain))), resolution,
    )
