"""Approximate solutions of u - u∘f = log Df by averaging the cocycle over
group balls, defect measurement, and conversion of solutions into
conjugating diffeomorphisms (including interpolated paths of conjugates).

Ball averages carry an exact re-evaluator so that defects and telescoping
identities can be checked off-grid without interpolation error.  By the
cocycle identity, the positive-ball average u_n = n^-d sum_{k in [0,n)^d}
log D(g^k) has the defect u_n - u_n∘g_i - log Dg_i = (F0_i - Fn_i)/n^d, the
sums over the faces k_i = 0 and k_i = n of the cube, for generators that
commute exactly; so one walk of the cube and its faces k_i = n, a word tree
that Action.walk_tree walks (_cube_tree, _ball_rows), gives u and its
defects.  Where the generators walk as translations of one head (or are
one), a Z^d solve makes that walk over the nodes and the midpoints, a path
over the nodes; otherwise, as in the nilpotent solve, u is also evaluated
at their generator images.  A solve's points go in
blocks of 4096 to 8191 points (one block below that); a ball sum walks the
ball once, in plan coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .action import Action
from .diffeo import Diffeo, _exp_integrals, translations
from .errors import (
    ConjTamerError,
    NoAdmissibleRadius,
    SizeOverflow,
)
from .gridfn import GridFunction
from .space import Space
from .words import ABELIAN, ball_tree, select_shell_radii

Array = np.ndarray

_FIELD_CAP = 4 * 10**7  # max (n^d) * points entries in a vectorized ball sum
# a solve's ball pass runs in x.size // _BLOCK blocks (one at least) of _BLOCK to
# 2·_BLOCK - 1 points, so no temporary reaches glibc's 128 KB mmap threshold;
# bigger blocks made malloc grow and trim the heap for each temporary (full-size
# a3_z2 solve: 11.3 s in one block, 8.9 s)
_BLOCK = 4096
# the nilpotent solve's exactness-onset threshold; it enters only the a-priori
# defect_bound, and the pipeline's delta (the flattening budget) never sets it
EXACTNESS_DELTA = 0.1


# ---------------------------------------------------------------------------
# Ball sums.


def _check_ball_size(rank: int, n_max: int, m: int) -> None:
    if (n_max**rank) * m > _FIELD_CAP:
        raise SizeOverflow(f"ball sum of size {n_max}^{rank} x {m} exceeds cap")


def check_ball_sums(space: Space, rank: int, n: int, solve: bool) -> None:
    """The size cap of the ball sums of a Z^d solve (over the nodes and the
    midpoints) or of a path (solve=False: over the nodes), known before the
    action is built."""
    _check_ball_size(rank, n, (space.refine() if solve else space).track_length)


def _check_ball_sum(action: Action, n_max: int) -> None:
    """A ball sum: a Z^d action and n_max >= 1."""
    if action.presentation.kind != ABELIAN:
        raise ConjTamerError("positive-ball averaging needs a Z^d presentation")
    if n_max < 1:
        raise ValueError("need n_max >= 1")


def _faces_are_defects(action: Action) -> bool:
    """Whether F0_i - Fn_i (_ball_rows) is n^d times u_n's defect: for one
    generator or exactly commuting ones (translations); generators that
    commute within a tolerance move it by their log-D commutators."""
    return action.rank == 1 or translations([g.as_plan() for g in action.gens])


def _cube_tree(
    d: int, n_max: int, faces: bool
) -> Tuple[List[Tuple[int, Tuple[int, int]]], List[Tuple[int, ...]]]:
    """(tree, exponents) of the cube [0, n_max)^d, with faces its faces k_i =
    n_max too (one exponent at n_max at most), as an Action.walk_tree word
    tree: node k = g_i · (k less e_i), i its first nonzero exponent.  Nodes
    are listed in the lexicographic order of (k_d, ..., k_1), which is the
    tree's depth-first order and the ball sums' summation order."""
    top = n_max + faces
    cube = [k[::-1] for k in itertools.product(range(top), repeat=d)]
    if faces:
        cube = [k for k in cube if k.count(n_max) <= 1]
    index = {k: node for node, k in enumerate(cube)}
    tree = [(-1, (0, 0))]
    for k in cube[1:]:
        i = next(i for i, k_i in enumerate(k) if k_i)
        tree.append((index[k[:i] + (k[i] - 1,) + k[i + 1 :]], (i, 1)))
    return tree, cube


def _ball_rows(
    action: Action, n_max: int, x: Array, rows: bool = True, faces: bool = False
) -> Tuple[Array, Optional[Array]]:
    """Rows n = 1..n_max (rows=False: row n_max alone, in one row of memory)
    of the ball sums S_n = sum_{k in [0,n)^d} log D(g^k), shaped (rows, m),
    from one walk of the cube tree [0, n_max)^d (_cube_tree) in plan
    coordinates (g_i = h∘R_i∘h⁻¹: one inverse of h, then one jet of h per
    element); g^k = g1^k1...gd^kd (gd first), bucketed by its largest
    exponent.  With faces, the walk also covers the faces k_i = n_max,
    d·n_max^(d-1) elements more, and the rows of the face differences F0_i -
    Fn_i come second, shaped (rows, d, m) (None without): F0_i sums the face
    k_i = 0 of [0,n)^d, and Fn_i its translate k_i = n, the elements whose
    exponent k_i = n is above every other one."""
    d = action.rank
    cube = np.zeros((n_max if rows else 1, x.size))
    diffs = np.zeros((cube.shape[0], d, x.size)) if faces else None
    tree, exponents = _cube_tree(d, n_max, faces)
    for node, walk in action.walk_tree(tree, x):
        ks, v = exponents[node], walk.point()[1]
        top = max(ks)
        if top < n_max:
            row = top if rows else 0
            cube[row] += v
            if faces:
                diffs[row, [i for i in range(d) if ks[i] == 0]] += v
        if faces and (top == n_max or (rows and top > 0 and ks.count(top) == 1)):
            i = ks.index(top)
            diffs[top - 1 if rows else 0, i] -= v
            if rows and top < n_max:  # taken back from the rows after top - 1
                diffs[top, i] += v
    return tuple(a if a is None else np.cumsum(a, axis=0, out=a) for a in (cube, diffs))


def birkhoff_field(action: Action, n_max: int, x) -> Array:
    """Cumulative positive-ball cocycle sums: row n holds
    sum_{f in B+(n)} log Df (x) for n = 0..n_max (row 0 is zero).

    Words f = g1^{k1}...gd^{kd} act with the last generator applied first;
    log-derivatives accumulate along orbits through the cocycle identity.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_ball_sum(action, n_max)
    _check_ball_size(action.rank, n_max, x.size)
    return np.vstack([np.zeros(x.size), _ball_rows(action, n_max, x)[0]])


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
        action, tn, [u.samples - u(g.eval_lift(tn)) - g.log_deriv.samples for g in action.gens]
    )


def _grid_suprema(
    action: Action, tn: Array, fields
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per generator, the sup of |defect field| at the nodes tn and its argmax."""
    defects: Dict[str, float] = {}
    locations: Dict[str, float] = {}
    for name, d in zip(action.names, fields):
        k = int(np.argmax(np.abs(d)))
        defects[name] = float(np.abs(d[k]))
        locations[name] = float(tn[k])
    return defects, locations


def _defect_refined(action: Action, fields: Array) -> Dict[str, float]:
    """Defect suprema with the midpoints added to the grid, from the defect
    fields at the nodes and the midpoints (one row per generator)."""
    return {name: float(np.max(np.abs(f))) for name, f in zip(action.names, fields)}


def log_density_normalizer(space: Space, samples: Array) -> float:
    """C with integral of exp(samples + C) = 1 (piecewise-linear samples)."""
    full = space.full_track(samples)
    return -float(np.log(np.sum(_exp_integrals(full[:-1], np.diff(full), space.h))))


def _fine_points(space: Space) -> Array:
    """The nodes, then the midpoints of the grid cells."""
    tn = space.track_nodes()
    return np.concatenate([tn, tn[: space.grid_size] + 0.5 * space.h])


def _in_blocks(field: Callable, x: Array) -> list:
    """field on x in x.size // _BLOCK blocks (one at least) of _BLOCK to
    2·_BLOCK - 1 points, one result per block."""
    return [field(b) for b in np.array_split(x, max(1, x.size // _BLOCK))]


def _measured_solution(
    action: Action, exact: Callable, values: Array, fields: Array,
    construction: str, extras: Optional[dict] = None,
) -> CohomSolution:
    """u = exact + C, with C normalizing exp(u), and its defects, from u's
    values at the nodes then the midpoints (values) and its defect fields
    u - u∘g_i - log Dg_i there (fields, one row per generator): the grid
    suprema and their locations read the nodes, the refined suprema both."""
    space = action.space
    tn = space.track_nodes()
    samples = values[: tn.size]
    defects, locations = _grid_suprema(action, tn, fields[:, : tn.size])
    return CohomSolution(
        u=GridFunction(space, samples, exact) + log_density_normalizer(space, samples),
        defect_per_generator=defects,
        defect_locations=locations,
        defect_refined=_defect_refined(action, fields),
        construction=construction,
        extras=extras or {},
    )


def _image_fields(action: Action, field: Callable, fine: Array) -> Tuple[Array, Array]:
    """field at the points fine and its defect fields field - field∘g_i -
    log Dg_i there (one row per generator), from one pass of field, in
    blocks, over fine and its images under every generator."""
    jets = [g.jet(fine) for g in action.gens]
    x = action.space.reduce(np.concatenate([fine] + [v for v, _ in jets]))
    values, *images = np.split(np.concatenate(_in_blocks(field, x)), len(jets) + 1)
    return values, np.stack([values - u_g - ld for u_g, (_, ld) in zip(images, jets)])


def birkhoff_solution(action: Action, n: int) -> CohomSolution:
    """u_n = average of log Df over the positive ball B+(n), normalized.
    Where the face differences are the defects (_faces_are_defects), u and
    its defect fields (F0_i - Fn_i)/n^d come from one ball pass over the
    nodes and the midpoints (_ball_rows); otherwise u is measured there and
    at their generator images (_image_fields)."""
    _check_ball_sum(action, n)
    check_ball_sums(action.space, action.rank, n, solve=True)
    scale = float(n**action.rank)
    u_fn = lambda y: _ball_rows(action, n, np.atleast_1d(y), rows=False)[0][0] / scale
    fine = _fine_points(action.space)
    if _faces_are_defects(action):
        blocks = _in_blocks(lambda b: _ball_rows(action, n, b, rows=False, faces=True), fine)
        values, fields = (np.concatenate(p, axis=-1)[0] / scale for p in zip(*blocks))
    else:
        values, fields = _image_fields(action, u_fn, fine)
    return _measured_solution(
        action, u_fn, values, fields, f"birkhoff-positive-ball(n={n})"
    )


def nilpotent_average_solution(
    action: Action,
    shell_index: int,
    growth_constant: Optional[float] = None,
    k_max: int = 8,
) -> CohomSolution:
    """u = average of log Df over the full ball B(k), k taken from the admissible
    shell radii of action.presentation; the defect bound is decomposed into the
    small-exponent term C*N0*max|c|/k and the large-exponent term M*C*delta from
    the bounded-generation argument (N0: exactness onset at delta = EXACTNESS_DELTA)."""
    presentation = action.presentation
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
    # node i walks w_i^{-1} = l^{-1}·parent^{-1} (w_i = parent·l): the balls
    # are symmetric, so the walks reach each element once, and B(k) is the
    # tree's first |B(k)| nodes, spheres being contiguous and parents first
    tree = [(parent, (g, -s)) for parent, (g, s) in ball_tree(presentation, k + 1)[0]]
    n_inner = selection.sizes[k]

    def ball_average(x: Array) -> Array:
        acc = np.zeros_like(x)
        for _, walk in action.walk_tree(tree[:n_inner], x):
            acc += walk.point()[1]
        return acc / n_inner

    max_word_c = 0.0  # over B(k+1)
    for _, walk in action.walk_tree(tree, tn):
        max_word_c = max(max_word_c, float(np.max(np.abs(walk.point()[1]))))

    # measured constants of the error decomposition
    c_used = selection.measured[k - 1]
    m_bound = presentation.bounded_generation or 1
    n_cap = max(2, m_bound * k)
    n0 = _measure_exactness_onset(action, n_cap)
    max_gen_c = max(g.log_deriv.sup_abs() for g in action.gens)
    small_term = c_used * n0 * max_gen_c / k
    large_term = m_bound * c_used * EXACTNESS_DELTA
    extras = {
        "shell_radius": k,
        "growth_constant": float(c_used),
        "bounded_generation_m": m_bound,
        "delta": EXACTNESS_DELTA,
        "n0": n0,
        "max_generator_cocycle": max_gen_c,
        "max_ball_cocycle": max_word_c,
        "small_exponent_term": small_term,
        "large_exponent_term": large_term,
        "defect_bound": small_term + large_term,
        "normal_form_alphabet": list(presentation.generators),
    }
    u_fine, fields = _image_fields(action, ball_average, _fine_points(action.space))
    return _measured_solution(
        action, ball_average, u_fine, fields, f"nilpotent-shell(k={k})", extras
    )


def _measure_exactness_onset(action: Action, n_cap: int) -> int:
    """Smallest N0 such that |(1/n) log D(g^n)| < EXACTNESS_DELTA on the grid
    for every metric generator and all n in [N0, n_cap]; n_cap when never
    reached.  The walks of g^n and g^-n are one tree of chains
    (Action.walk_tree), in the letters' shared coordinates."""
    tree = [(-1, (0, 0))]
    for letter in ((j, s) for j in action.presentation.metric_generators for s in (1, -1)):
        tree += [(len(tree) + n - 1 if n else 0, letter) for n in range(n_cap)]
    worst = 1
    for node, walk in action.walk_tree(tree, action.space.track_nodes()):
        n = (node - 1) % n_cap + 1
        if node and float(np.max(np.abs(walk.point()[1]))) / n >= EXACTNESS_DELTA:
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
    at the nodes (at integer t, the defect of u_n up to rounding);
    c1_gap_track: that of |log D(phi g phi⁻¹)|, exactly, at phi(nodes).
    c1_step records per generator the C⁰ and log-derivative distances to the
    previous sample (None on the first), at the same nodes y: of phi(g y) -
    phi(y) and of log D(phi g phi⁻¹)(phi y).  conjugated is built on first
    read."""

    t: float
    n: int
    s: float
    u: Optional[Array]
    phi: Diffeo
    action: Action = field(repr=False)
    c1_gap: float
    c1_gap_track: float
    gap_per_generator: Dict[str, float] = field(default_factory=dict)
    c1_step: Optional[Dict[str, Tuple[float, float]]] = None

    @cached_property
    def conjugated(self) -> Action:
        return self.action.conjugated(self.phi)


def path_of_conjugates(
    action: Action, n_max: int, steps_per_unit: int
) -> Iterator[PathSample]:
    """Samples t in {1, 1+1/steps, ..., n_max} of the path phi_t built from
    v_t = (1-s) u_n + s u_{n+1} + C_t.  The checks and one ball pass run
    on the call: over the nodes y, row n giving u_n and its defect field off
    the ball's faces, where those are the defects (_faces_are_defects), else
    over y and their images g(y).  With u_n,PL the piecewise-linear
    interpolant of u_n, E_n = u_n,PL∘g - u_n + log Dg gives, C_t cancelling,
    log D(phi_t g phi_t⁻¹)(phi_t y) = (1-s) E_n + s E_{n+1}.  The samples are
    built as they are iterated, from these fields and one jet of phi_t at the
    images g(y): no Newton solve, no conjugated action."""
    if n_max < 1 or steps_per_unit < 1:
        raise ValueError("need n_max >= 1 and steps_per_unit >= 1")
    space, names = action.space, action.names
    tn = space.track_nodes()
    _check_ball_sum(action, n_max)
    check_ball_sums(space, action.rank, n_max, solve=False)
    images = np.stack([g.eval_lift(tn) for g in action.gens])
    log_derivs = np.stack([g.log_deriv.samples for g in action.gens])

    u_samp: List[Optional[Array]] = [None]
    d_fields: List[Optional[Array]] = [None]
    e_fields: List[Optional[Array]] = [None]
    on_faces = _faces_are_defects(action)
    sums, faces = _ball_rows(
        action, n_max, tn if on_faces else np.append(tn, images), faces=on_faces
    )
    for n, row in enumerate(sums, 1):
        scale = float(n**action.rank)
        u_n = row[: tn.size] / scale
        u_samp.append(u_n)
        d_fields.append(faces[n - 1] / scale if on_faces else
                        u_n - row[tn.size :].reshape(images.shape) / scale - log_derivs)
        e_fields.append(GridFunction(space, u_n).interp(images) - u_n + log_derivs)

    def samples() -> Iterator[PathSample]:
        prev = None
        for j in range((n_max - 1) * steps_per_unit + 1):
            n, s = 1 + j // steps_per_unit, j % steps_per_unit / steps_per_unit
            if n >= n_max > 1:
                n, s = n_max - 1, 1.0
            t, phi = n + s, path_conjugacy(space, u_samp, n, s)
            gap, track = _blend(d_fields, n, s), _blend(e_fields, n, s)
            moves, step = phi.eval_lift(images) - phi.values[: tn.size], None
            if prev is not None:
                c0 = moves - prev[0]
                if space.is_circle:  # less the mean integer shift
                    c0 -= np.round(np.mean(c0, axis=1, keepdims=True))
                dlog = np.abs(track - prev[1]).max(1)
                step = {k: (float(a), float(b)) for k, a, b in zip(names, np.abs(c0).max(1), dlog)}
            yield PathSample(
                t, n, s, u_samp[int(t)] if t % 1 == 0 else None, phi, action,
                c1_gap=float(np.max(np.abs(gap))),
                c1_gap_track=float(np.max(np.abs(track))),
                gap_per_generator=dict(zip(names, np.abs(gap).max(1).tolist())),
                c1_step=step,
            )
            prev = moves, track

    return samples()
