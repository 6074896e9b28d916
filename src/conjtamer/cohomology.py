"""Approximate solutions of u - u∘f = log Df by averaging the cocycle over
group balls, defect measurement, and conversion of solutions into
conjugating diffeomorphisms (including interpolated paths of conjugates).

Ball averages carry an exact re-evaluator so that defects and telescoping
identities can be checked off-grid without interpolation error.  A solve
measures u and its defects in one ball pass over its distinct points (nodes,
midpoints, their generator images: 4096-point blocks); a ball sum walks the
ball once, in plan coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .action import Action
from .diffeo import Diffeo, WalkState, _exp_integrals, c1_distance, iterate
from .errors import (
    ConjTamerError,
    NoAdmissibleRadius,
    NotPeriodic,
    SizeOverflow,
)
from .gridfn import GridFunction
from .space import Space
from .words import ABELIAN, Presentation, select_shell_radii

Array = np.ndarray

_FIELD_CAP = 4 * 10**7  # max (n^d) * points entries in a vectorized ball sum
# points per ball pass of a solve: bigger blocks made glibc malloc grow and trim
# the heap for each temporary (full-size a3_z2 solve: 11.3 s in one block, 8.9 s)
_BLOCK = 4096


# ---------------------------------------------------------------------------
# Ball sums.


def _check_ball_sum(action: Action, n_max: int, m: int) -> None:
    """A ball sum over m points: a Z^d action, n_max >= 1, and the size cap."""
    if action.presentation.kind != ABELIAN:
        raise ConjTamerError("positive-ball averaging needs a Z^d presentation")
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if (n_max**action.rank) * m > _FIELD_CAP:
        raise SizeOverflow(f"ball sum of size {n_max}^{action.rank} x {m} exceeds cap")


def _ball_rows(action: Action, n_max: int, x: Array, rows: bool = True) -> Array:
    """Rows n = 1..n_max of birkhoff_field (rows=False: row n_max alone, in
    one row of memory) from one walk of the ball in plan coordinates
    (g_i = h∘R_i∘h⁻¹: one inverse of h, then one jet of h per element);
    g1^k1...gd^kd (gd first) is bucketed by its largest exponent."""
    plans = [g.as_plan() for g in action.gens]
    buckets = np.zeros((n_max if rows else 1, x.size))

    def walk_from(j: int, walk: WalkState, top: int) -> None:
        if j < 0:
            buckets[top if rows else 0] += walk.point()[1]
            return
        for k in range(n_max):
            walk_from(j - 1, walk, max(top, k))
            if k < n_max - 1:
                walk = walk.step(plans[j])

    walk_from(action.rank - 1, WalkState.start(x, plans), 0)
    return np.cumsum(buckets, axis=0, out=buckets)


def birkhoff_field(action: Action, n_max: int, x) -> Array:
    """Cumulative positive-ball cocycle sums: row n holds
    sum_{f in B+(n)} log Df (x) for n = 0..n_max (row 0 is zero).

    Words f = g1^{k1}...gd^{kd} act with the last generator applied first;
    log-derivatives accumulate along orbits through the cocycle identity.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_ball_sum(action, n_max, x.size)
    return np.vstack([np.zeros(x.size), _ball_rows(action, n_max, x)])


def empirical_measure_integral(action: Action, i: int, n: int, x):
    """(1/n^d) * sum over the positive ball of log Df_i at the orbit points
    of x.  Independent recursion over exponent digits (innermost generator
    applied first), kept separate from birkhoff_field on purpose."""
    if action.presentation.kind != ABELIAN:
        raise ConjTamerError("empirical measures need a Z^d presentation")
    d = action.rank
    if n**d > _FIELD_CAP:
        raise SizeOverflow(f"positive ball {n}^{d} exceeds cap")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    ci = action.gens[i].log_deriv

    def rec(j: int, y: Array) -> Array:
        if j == 0:
            return ci(y)
        g = action.gens[j - 1]
        total = np.zeros_like(y)
        p = y
        for k in range(n):
            total = total + rec(j - 1, p)
            if k < n - 1:
                p = g.eval_lift(p)
        return total

    result = rec(d, x_arr) / float(n**d)
    return float(result[0]) if scalar else result


# ---------------------------------------------------------------------------
# Solutions and defects.


@dataclass
class CohomSolution:
    """An approximate solution u of u - u∘f = log Df for every generator.

    u is normalized so that the piecewise-linear density exp(u) integrates to
    one; defects are exact grid suprema of |u - u∘f - log Df| with the argmax
    location per generator, plus a once-refined (midpoint) re-measurement.
    """

    u: GridFunction
    defect_per_generator: Dict[str, float]
    defect_locations: Dict[str, float]
    defect_refined: Dict[str, float]
    construction: str
    extras: dict = field(default_factory=dict)

    @property
    def defect(self) -> float:
        if not self.defect_per_generator:
            return 0.0
        return max(self.defect_per_generator.values())


def cocycle_defect(
    u: GridFunction, action: Action
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Exact grid suprema of |u - u∘f - log Df| per generator, with argmax
    locations.  u is evaluated through its exact backing when present."""
    tn = action.space.track_nodes()
    return _grid_suprema(
        action, tn, [u(g.eval_lift(tn)) for g in action.gens], u.samples
    )


def _grid_suprema(
    action: Action, tn: Array, u_images: List[Array], u_nodes: Array
) -> Tuple[Dict[str, float], Dict[str, float]]:
    defects: Dict[str, float] = {}
    locations: Dict[str, float] = {}
    for name, g, u_g in zip(action.names, action.gens, u_images):
        d = u_nodes - u_g - g.log_deriv.samples
        k = int(np.argmax(np.abs(d)))
        defects[name] = float(np.abs(d[k]))
        locations[name] = float(tn[k])
    return defects, locations


def _defect_refined(
    action: Action, u_nodes: Array, u_mid: Array, u_images: List[Array], jets: list
) -> Dict[str, float]:
    """Defect suprema with the midpoints added to the grid, from u at the
    nodes, at the midpoints and at their images under every generator (nodes
    first), with log-derivatives from the generators' jets there."""
    d = action.rank
    return {
        name: float(np.max(np.abs(np.concatenate([
            u_nodes - u_images[i] - jets[i][1],
            u_mid - u_images[d + i] - jets[d + i][1],
        ]))))
        for i, name in enumerate(action.names)
    }


def log_density_normalizer(space: Space, samples: Array) -> float:
    """C with integral of exp(samples + C) = 1 (piecewise-linear samples)."""
    full = space.full_track(samples)
    return -float(np.log(np.sum(_exp_integrals(full[:-1], np.diff(full), space.h))))


def _measured_solution(
    action: Action, field: Callable, construction: str, extras: Optional[dict] = None
) -> CohomSolution:
    """u = field + C, with C normalizing exp(u), and its defects, from one
    pass of `field` (on points reduced into the space, in _BLOCK-point blocks)
    over the nodes, the midpoints and their images under every generator."""
    space = action.space
    tn = space.track_nodes()
    mid = tn + 0.5 * space.h
    mid = mid[mid <= 1.0]
    jets = [g.jet(p) for p in (tn, mid) for g in action.gens]
    points = [tn, mid] + [v for v, _ in jets]
    x = space.reduce(np.concatenate(points))
    blocks = np.array_split(x, math.ceil(x.size / _BLOCK))
    values = np.concatenate([field(b) for b in blocks])
    c = log_density_normalizer(space, values[: tn.size])
    u = GridFunction(space, values[: tn.size], field) + c
    bounds = np.cumsum([p.size for p in points[:-1]])
    u_nodes, u_mid, *u_images = np.split(values + c, bounds)
    defects, locations = _grid_suprema(action, tn, u_images[: action.rank], u_nodes)
    return CohomSolution(
        u=u,
        defect_per_generator=defects,
        defect_locations=locations,
        defect_refined=_defect_refined(action, u_nodes, u_mid, u_images, jets),
        construction=construction,
        extras=extras or {},
    )


def birkhoff_solution(action: Action, n: int) -> CohomSolution:
    """u_n = average of log Df over the positive ball B+(n), normalized."""
    # size limit of a ball sum over the nodes and the midpoints
    _check_ball_sum(action, n, action.space.refine().track_length)
    scale = float(n**action.rank)
    u_fn = lambda y: _ball_rows(action, n, np.atleast_1d(y), rows=False)[0] / scale
    return _measured_solution(action, u_fn, f"birkhoff-positive-ball(n={n})")


def nilpotent_average_solution(
    action: Action,
    presentation: Presentation,
    shell_index: int,
    growth_constant: Optional[float] = None,
    k_max: int = 12,
    delta: float = 0.1,
) -> CohomSolution:
    """u = average of log Df over the full ball B(k), k taken from the
    admissible shell radii; the defect bound is decomposed into the
    small-exponent term C*N0*max|c|/k and the large-exponent term M*C*delta
    from the bounded-generation argument."""
    selection = select_shell_radii(presentation, k_max, growth_constant)
    if not selection.radii:
        raise NoAdmissibleRadius(
            f"no admissible radius up to {k_max}; minimal admissible growth "
            f"constant is {selection.minimal_c:.6g}"
        )
    if not (0 <= shell_index < len(selection.radii)):
        raise NoAdmissibleRadius(
            f"shell_index {shell_index} outside the {len(selection.radii)} "
            f"admissible radii"
        )
    k = selection.radii[shell_index]
    tn = action.space.track_nodes()
    ball = [w.letters for w in selection.ball.elements[: selection.sizes[k + 1]]]
    n_inner = selection.sizes[k]

    def ball_average(x: Array) -> Array:
        acc = np.zeros_like(x)
        for walk in action.walk_words(ball[:n_inner], x):
            acc += walk.point()[1]
        return acc / n_inner

    max_word_c = 0.0  # over B(k+1)
    for walk in action.walk_words(ball, tn):
        max_word_c = max(max_word_c, float(np.max(np.abs(walk.point()[1]))))

    # measured constants of the error decomposition
    c_used = selection.measured[k - 1]
    m_bound = presentation.bounded_generation or 1
    n_cap = max(2, m_bound * k)
    n0 = _measure_exactness_onset(action, presentation, delta, n_cap)
    max_gen_c = max(g.log_deriv.sup_abs() for g in action.gens)
    small_term = c_used * n0 * max_gen_c / k
    large_term = m_bound * c_used * delta
    extras = {
        "shell_radius": k,
        "growth_constant": float(c_used),
        "bounded_generation_m": m_bound,
        "delta": delta,
        "n0": n0,
        "max_generator_cocycle": max_gen_c,
        "max_ball_cocycle": max_word_c,
        "small_exponent_term": small_term,
        "large_exponent_term": large_term,
        "defect_bound": small_term + large_term,
        "normal_form_alphabet": list(presentation.generators),
    }
    return _measured_solution(
        action, ball_average, f"nilpotent-shell(k={k})", extras
    )


def _measure_exactness_onset(
    action: Action, presentation: Presentation, delta: float, n_cap: int
) -> int:
    """Smallest N0 such that |(1/n) log D(g^n)| < delta on the grid for every
    metric generator and all n in [N0, n_cap]; n_cap when never reached.
    The walks of g^n and g^-n all start from one WalkState in the letters'
    shared coordinates."""
    plans = [
        action.gens[j].as_plan(s) for j in presentation.metric_generators for s in (1, -1)
    ]
    start = WalkState.start(action.space.track_nodes(), plans)
    worst = 1
    for plan in plans:
        walk = start
        for n in range(1, n_cap + 1):
            walk = walk.step(plan)
            if float(np.max(np.abs(walk.point()[1]))) / n >= delta:
                worst = max(worst, n + 1)
    return worst


# ---------------------------------------------------------------------------
# From solutions to conjugacies.


def conjugacy_from_log_density(u: GridFunction) -> Diffeo:
    """phi with log Dphi = u + C, C = -log integral exp(u): the log-density
    primitive of u (Diffeo.from_log_deriv), under the name by which
    perfbench/traced.py times the log-density conjugacies of a run."""
    return Diffeo.from_log_deriv(u.space, u.samples)


# ---------------------------------------------------------------------------
# Paths of conjugates.


def _blend(tracks: Sequence[Array], n: int, s: float) -> Array:
    """(1-s) tracks[n] + s tracks[n+1]; past the last track, that one alone."""
    return (1.0 - s) * tracks[n] + s * tracks[min(n + 1, len(tracks) - 1)]


def path_conjugacy(space: Space, u: Sequence[Array], n: int, s: float) -> Diffeo:
    """phi_t, t = n + s, of the path built from the ball averages u[k] = u_k
    (k >= 1; u[0] is not read)."""
    return conjugacy_from_log_density(GridFunction(space, _blend(u, n, s)))


@dataclass
class PathSample:
    """One point of the interpolated conjugacy path, t = n + s, with phi =
    path_conjugacy(..., n, s) and u = u_t at integer t (None in between).

    c1_gap: max over generators of the sup of the interpolated defect field
    (equals sup|log D(conjugated generator)| up to grid interpolation, and
    matches defect(u_n) exactly at integer t).  c1_step records the per-
    generator C1 distance to the previous sample (None on the first)."""

    t: float
    n: int
    s: float
    u: Optional[Array]
    phi: Diffeo
    conjugated: Action
    c1_gap: float
    c1_gap_track: float
    gap_per_generator: Dict[str, float] = field(default_factory=dict)
    c1_step: Optional[Dict[str, Tuple[float, float]]] = None


def path_of_conjugates(
    action: Action, n_max: int, steps_per_unit: int
) -> Iterator[PathSample]:
    """Samples t in {1, 1+1/steps, ..., n_max} of the path phi_t built from
    v_t = (1-s) u_n + s u_{n+1} + C_t; each sample carries the conjugated
    action and the interpolated defect gap.  The checks and the ball pass
    run on the call; the samples are then built one at a time as they are
    iterated, each keeping only the previous one's tracks for c1_step."""
    if n_max < 1 or steps_per_unit < 1:
        raise ValueError("need n_max >= 1 and steps_per_unit >= 1")
    space = action.space
    tn = space.track_nodes()
    _check_ball_sum(action, n_max, tn.size)
    points = np.concatenate([tn] + [g.eval_lift(tn) for g in action.gens])
    log_derivs = np.stack([g.log_deriv.samples for g in action.gens])

    # one ball pass over the nodes and their images: row n gives u_n at both
    u_samp: List[Optional[Array]] = [None]
    d_fields: List[Optional[Array]] = [None]
    for n, row in enumerate(_ball_rows(action, n_max, points), 1):
        u_n, *u_images = np.split(row / float(n**action.rank), action.rank + 1)
        u_samp.append(u_n)
        d_fields.append(u_n - np.stack(u_images) - log_derivs)

    def samples() -> Iterator[PathSample]:
        prev = None
        for j in range((n_max - 1) * steps_per_unit + 1):
            n, s = 1 + j // steps_per_unit, j % steps_per_unit / steps_per_unit
            if n >= n_max > 1:
                n, s = n_max - 1, 1.0
            t, phi = n + s, path_conjugacy(space, u_samp, n, s)
            cur, gap = action.conjugated(phi), _blend(d_fields, n, s)
            yield PathSample(
                t, n, s, u_samp[int(t)] if t % 1 == 0 else None, phi, cur,
                c1_gap=float(np.max(np.abs(gap))),
                c1_gap_track=max(g.log_deriv.sup_abs() for g in cur.gens),
                gap_per_generator={
                    name: float(np.max(np.abs(gap[i]))) for i, name in enumerate(action.names)
                },
                c1_step=None if prev is None else {
                    name: c1_distance(pg, cg)
                    for name, pg, cg in zip(action.names, prev.gens, cur.gens)
                },
            )
            prev = cur

    return samples()


# ---------------------------------------------------------------------------
# Invariant means.


def invariant_mean_log_derivative(
    f: Diffeo,
    orbit=None,
    x: Optional[float] = None,
    n: Optional[int] = None,
    tol: float = 1e-8,
) -> float:
    """Mean of log Df along a periodic orbit, or the n-step average along the
    forward orbit of x.  Exactly one mode must be given."""
    if orbit is not None:
        pts = np.asarray(orbit, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise NotPeriodic("orbit must be a nonempty 1-d point list")
        img = f(pts)
        expected = np.roll(pts, -1)
        gap = np.abs(img - expected)
        if f.space.is_circle:
            gap = np.minimum(gap, 1.0 - gap)
        if float(np.max(gap)) > tol:
            raise NotPeriodic(
                f"points are not an f-orbit (max step error {np.max(gap):.2e})"
            )
        return float(np.mean(f.log_deriv(pts)))
    if x is None or n is None or n < 1:
        raise ValueError("need orbit=... or x=..., n>=1")
    return float(iterate(f, [x], int(n))[1][0]) / float(n)
