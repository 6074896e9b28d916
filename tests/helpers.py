"""Builders for the small zoo of actions the tests keep reusing.

Everything is cached per grid size; callers must not mutate the returned
objects.  The maps:

* mobius_action   -- Z acting on [0,1] by x/(2-x): hyperbolic fixed points
                     0 and 1 with multipliers 1/2 and 2.
* wobble          -- h(x) = x + 0.1 sin(2 pi x) on the circle.
* conj_rotation_action / conj_rotation_z2
                  -- h R_a h^{-1} for the golden (and silver) rotation
                     angle: free actions with irrational rotation number.
* rigid_rotations -- the same two angles acting as honest rotations.
* pingpong_action -- two piecewise-linear maps pushing (0.05, 0.95) into
                     (0.1, 0.3) and (0.5, 0.7) respectively; generates a
                     free semigroup with crossed-interval witnesses.
* interval_pingpong_action -- the same pair acting on [0, 1].

dense_first_chain is the reference scan for resilient-pair detection.
stack_normal_form and stack_ball are the letter-stack reducer and the ball
BFS over letter tuples that words.py ran before the trie, kept as its oracle.
product_distinct_words is the enumeration of letter products that
periodic._distinct_words ran before its trie BFS, kept as its oracle.
ClosureMap and the closure_* builders are the closure-chain evaluators that
exact diffeos carried before composition plans, kept as their oracle.
log_density_conjugacy is the log-density conjugacy that cohomology built
before Diffeo.from_log_deriv took it over, kept as its oracle.
empirical_measure_integral, invariant_mean_log_derivative,
c1_refinement_ratio, log_deriv_sup, word_from_exponents and exponent_vector
are oracles and diagnostics that the package itself never calls.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from conjtamer import (
    Action,
    Diffeo,
    GridFunction,
    Presentation,
    build_diffeo,
    conjugated_rotation,
    pwl_diffeo,
    rotation,
)
from conjtamer.diffeo import Primitive, iterate
from conjtamer.errors import ConjTamerError, NotPeriodic
from conjtamer.space import circle, interval
from conjtamer.words import ABELIAN, Word

GOLDEN = 0.618034
SILVER = 0.414214


@lru_cache(maxsize=None)
def mobius_gen(grid: int = 4096):
    return build_diffeo("mobius(1, 0, -1, 2)", interval(grid))


@lru_cache(maxsize=None)
def mobius_action(grid: int = 4096) -> Action:
    sp = interval(grid)
    return Action(sp, Presentation.zd(1, ("f",)), {"f": mobius_gen(grid)})


@lru_cache(maxsize=None)
def wobble(grid: int = 4096):
    return build_diffeo("x + 0.1*sin(2*pi*x)", circle(grid))


@lru_cache(maxsize=None)
def conj_rotation_action(grid: int = 4096) -> Action:
    sp = circle(grid)
    g = conjugated_rotation(sp, wobble(grid), GOLDEN)
    return Action(sp, Presentation.zd(1, ("g",)), {"g": g})


@lru_cache(maxsize=None)
def conj_rotation_z2(grid: int = 4096) -> Action:
    sp = circle(grid)
    h = wobble(grid)
    g1 = conjugated_rotation(sp, h, GOLDEN)
    g2 = conjugated_rotation(sp, h, SILVER)
    return Action(sp, Presentation.zd(2, ("g1", "g2")), {"g1": g1, "g2": g2})


@lru_cache(maxsize=None)
def rigid_rotations(grid: int = 4096) -> Action:
    sp = circle(grid)
    return Action(
        sp,
        Presentation.zd(2, ("r1", "r2")),
        {"r1": rotation(sp, GOLDEN), "r2": rotation(sp, SILVER)},
    )


PINGPONG_F = ((0.0, 0.0), (0.05, 0.12), (0.95, 0.28), (1.0, 1.0))
PINGPONG_G = ((0.0, 0.0), (0.05, 0.52), (0.95, 0.68), (1.0, 1.0))


@lru_cache(maxsize=None)
def pingpong_action(grid: int = 4096) -> Action:
    sp = circle(grid)
    f = pwl_diffeo(sp, PINGPONG_F)
    g = pwl_diffeo(sp, PINGPONG_G)
    return Action(sp, Presentation.free(("f", "g")), {"f": f, "g": g})


@lru_cache(maxsize=None)
def trivial_action(grid: int = 256) -> Action:
    sp = interval(grid)
    return Action(sp, Presentation.zd(1, ("f",)), {"f": build_diffeo("x", sp)})


@lru_cache(maxsize=None)
def interval_pingpong_action(grid: int = 1024) -> Action:
    """The ping-pong pair on [0, 1]: both maps fix the endpoints, so the
    crossed pattern of the circle pair appears on the interval too."""
    sp = interval(grid)
    f = pwl_diffeo(sp, PINGPONG_F)
    g = pwl_diffeo(sp, PINGPONG_G)
    return Action(sp, Presentation.free(("f", "g")), {"f": f, "g": g})


def dense_first_chain(xs, images, r):
    """Reference for periodic._first_chain: the dense scan that
    detect_resilient ran before the sweep.  For each ordered pair of
    distinct images it tables every (i, j) among the candidate x and y
    points and takes the first True in row-major order."""
    for fk, fs in enumerate(images):
        x_ok = fs - xs > r
        if not x_ok.any():
            continue
        for gk, gs in enumerate(images):
            if gk == fk:
                continue
            cand_i = np.nonzero(x_ok & (gs - fs > 2.0 * r))[0]
            cand_j = np.nonzero(xs - gs > r)[0]
            if cand_i.size == 0 or cand_j.size == 0:
                continue
            ok = (
                (cand_i[:, None] < cand_j[None, :])
                & (fs[cand_j][None, :] - fs[cand_i][:, None] > r)
                & (gs[cand_i][:, None] - fs[cand_j][None, :] > r)
                & (gs[cand_j][None, :] - gs[cand_i][:, None] > r)
            )
            if ok.any():
                ii, jj = divmod(int(np.argmax(ok)), ok.shape[1])
                return fk, gk, int(cand_i[ii]), int(cand_j[jj])
    return None


# ---------------------------------------------------------------------------
# The closure-chain oracle.  Each map is a lift jet x -> (value,
# log-derivative) and a lift inverse; compose, invert and conjugate close
# over their operands' evaluators, as exact diffeos did before plans.  Leaves
# invert by bisection, independent of Newton and of every closed form.


class ClosureMap:
    """An exact map as two closures, shifted on the circle so that f(0)
    lies in [0, 1) like every Diffeo."""

    def __init__(self, space, jet, inverse):
        self.space = space
        self._jet, self._inverse = jet, inverse
        self._shift = math.floor(jet(np.zeros(1))[0][0]) if space.is_circle else 0

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        if not self.space.is_circle:
            x = np.clip(x, 0.0, 1.0)
        v, ld = self._jet(x)
        return v - self._shift, ld

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        if not self.space.is_circle:
            y = np.clip(y, 0.0, 1.0)
        return self._inverse(y + self._shift)


def closure_leaf(f):
    """A diffeo as a leaf: its own jet, and its inverse by bisection."""

    def inverse(y):
        if f.space.is_circle:
            lo = np.floor(y - f.offset)  # f maps [k, k + 1] onto [f(0) + k, ...]
        else:
            lo = np.zeros_like(y)
        hi = lo + 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = f.eval_lift(mid) < y
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    return ClosureMap(f.space, f.jet, inverse)


def closure_compose(f, g):
    def jet(x):
        gv, g_ld = g.jet(x)
        fv, f_ld = f.jet(gv)
        return fv, g_ld + f_ld

    return ClosureMap(f.space, jet, lambda y: g.inverse(f.inverse(y)))


def closure_invert(f):
    def jet(x):
        y = f.inverse(x)
        return y, -f.jet(y)[1]

    return ClosureMap(f.space, jet, lambda y: f.jet(y)[0])


def closure_conjugate(f, phi):
    """phi ∘ f ∘ phi^-1."""

    def jet(x):
        y = phi.inverse(x)
        fy, f_ld = f.jet(y)
        v, phi_ld = phi.jet(fy)
        return v, phi_ld + f_ld - phi.jet(y)[1]

    return ClosureMap(
        f.space, jet, lambda z: phi.jet(f.inverse(phi.inverse(z)))[0]
    )


def _exp_integrals(a, db, width):
    """Exact integrals of exp over intervals of the given widths on which its
    argument rises linearly from a by db."""
    small = np.abs(db) < 1e-12
    safe = np.where(small, 1.0, db)
    e = width * np.exp(a)
    return np.where(small, e * (1.0 + 0.5 * db), e * np.expm1(safe) / safe)


def log_density_conjugacy(u):
    """phi with log Dphi = u + C, C = -log integral exp(u): phi(x) is the
    exact integral of the exponential of the piecewise-linear u, normalized;
    value, log-derivative and inverse all evaluate in closed form."""
    space = u.space
    samples = u.samples
    full = space.full_track(samples)
    cells = _exp_integrals(full[:-1], np.diff(full), space.h)
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    total = cum[-1]
    values = cum / total
    values[-1] = 1.0
    ld = GridFunction(space, samples - math.log(total))
    nodes, h, grid_size = space.nodes, space.h, space.grid_size
    slopes = (full[1:] - full[:-1]) / h
    small = np.abs(full[1:] - full[:-1]) < 1e-12

    def jet_fn(x):
        idx = np.clip((x * grid_size).astype(int), 0, grid_size - 1)
        t = x - nodes[idx]
        part = _exp_integrals(full[idx], slopes[idx] * t, t)
        return (cum[idx] + part) / total, ld.interp(x)

    def inverse_jet(y):
        target = y * total
        idx = np.clip(np.searchsorted(cum, target, side="right") - 1, 0, grid_size - 1)
        rem = target - cum[idx]
        a = full[idx]
        s = np.where(small[idx], 1.0, slopes[idx])
        t_gen = np.log1p(s * rem * np.exp(-a)) / s
        t_lin = rem * np.exp(-a)
        t = np.where(small[idx], t_lin, t_gen)
        x = nodes[idx] + np.clip(t, 0.0, h)
        return x, -ld.interp(x)

    prim = Primitive(space.is_circle, jet_fn, inverse_jet)
    return Diffeo(space, ld, values, ((prim, 1),))


def assert_close(actual, oracle, rel=1e-11):
    """Agreement within rel, relative to the larger of 1 and the oracle's
    sup norm: plan walks and closure chains round differently."""
    oracle = np.asarray(oracle, dtype=float)
    scale = max(1.0, float(np.max(np.abs(oracle)))) if oracle.size else 1.0
    np.testing.assert_allclose(actual, oracle, rtol=0, atol=rel * scale)


# ---------------------------------------------------------------------------
# The letter-stack oracle for normal forms and balls.


def stack_normal_form(p, word, prefix=(), max_rewrites=100000):
    """Normal form of prefix·word by a letter stack: each letter is pushed,
    the first rule (declared rules, then free cancellations) whose left side
    ends at the top is replaced, and its right side goes back onto the
    input."""
    if p.kind == ABELIAN:
        return word_from_exponents(exponent_vector(Word(prefix + word.letters), p.rank))
    rewrites = p.rules + tuple(
        (((g, s), (g, -s)), ()) for g in range(p.rank) for s in (1, -1)
    )
    out = list(prefix)
    todo = list(reversed(word.letters))
    count = 0
    while todo:
        out.append(todo.pop())
        for lhs, rhs in rewrites:
            if lhs[-1] == out[-1] and tuple(out[-len(lhs) :]) == lhs:
                del out[-len(lhs) :]
                todo.extend(reversed(rhs))
                count += 1
                break
        if count > max_rewrites:
            raise ConjTamerError("rewriting did not terminate")
    return Word(tuple(out))


def stack_ball(p, k):
    """(elements, tree, sphere sizes) of the radius-k ball by BFS over letter
    tuples, each layer in the order first reached, reduced by
    stack_normal_form."""
    alphabet = [(g, s) for g in p.metric_generators for s in (1, -1)]
    seen = {(): 0}
    elements, tree, sizes, frontier = [()], [(-1, (0, 0))], [1], [()]
    for _ in range(k):
        layer = {}
        for w in frontier:
            for letter in alphabet:
                nf = stack_normal_form(p, Word((letter,)), prefix=w).letters
                if nf not in seen and nf not in layer:
                    layer[nf] = (seen[w], letter)
        frontier = list(layer)
        for nf in frontier:
            seen[nf] = len(elements)
            elements.append(nf)
            tree.append(layer[nf])
        sizes.append(len(frontier))
    return elements, tree, sizes


def product_distinct_words(action, max_len):
    """The first freely reduced spelling of each normal form, identity
    included, over every product of up to max_len letters g0, g0^-1, g1, ...
    in that order."""
    pres = action.presentation
    letters = [(idx, e) for idx in range(len(action.gens)) for e in (1, -1)]
    first = {}
    for n in range(1, max_len + 1):
        for seq in itertools.product(letters, repeat=n):
            if all(b != (a[0], -a[1]) for a, b in zip(seq, seq[1:])):
                first.setdefault(pres.normal_form(Word(seq)).letters, seq)
    return list(first.values())


# ---------------------------------------------------------------------------
# Oracles and diagnostics that the package does not call.


def word_from_exponents(exponents):
    """f_1^{k_1} ... f_d^{k_d} with the generators in index order."""
    letters = []
    for g, k in enumerate(exponents):
        letters.extend([(g, 1 if k >= 0 else -1)] * abs(k))
    return Word(tuple(letters))


def exponent_vector(word, d):
    """The exponent sum of each of the d generators in word."""
    v = [0] * d
    for g, s in word.letters:
        v[g] += s
    return tuple(v)


def log_deriv_sup(f):
    """The taming functional: sup over the grid of |log Df|."""
    return f.log_deriv.sup_abs()


def c1_refinement_ratio(f):
    """Largest consecutive log-derivative jump on the grid divided by the
    same at doubled resolution; near 2 for C^1 maps, near 1 at a corner."""
    coarse = f.log_deriv.samples
    fine = f.log_derivative(f.space.refine().track_nodes())
    jump_c = float(np.max(np.abs(np.diff(coarse))))
    jump_f = float(np.max(np.abs(np.diff(fine))))
    return jump_c / max(jump_f, 1e-300)


def empirical_measure_integral(action, i, n, x):
    """(1/n^d) * sum over the positive ball of log Df_i at the orbit points
    of x.  Independent recursion over exponent digits (innermost generator
    applied first), kept separate from birkhoff_field on purpose."""
    if action.presentation.kind != ABELIAN:
        raise ConjTamerError("empirical measures need a Z^d presentation")
    d = action.rank
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    ci = action.gens[i].log_derivative

    def rec(j, y):
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


def invariant_mean_log_derivative(f, orbit=None, x=None, n=None, tol=1e-8):
    """Mean of log Df along a periodic orbit, or the n-step average along the
    forward orbit of x.  Exactly one mode must be given."""
    if orbit is not None:
        pts = np.asarray(orbit, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise NotPeriodic("orbit must be a nonempty 1-d point list")
        gap = np.abs(f(pts) - np.roll(pts, -1))
        if f.space.is_circle:
            gap = np.minimum(gap, 1.0 - gap)
        if float(np.max(gap)) > tol:
            raise NotPeriodic(
                f"points are not an f-orbit (max step error {np.max(gap):.2e})"
            )
        return float(np.mean(f.log_derivative(pts)))
    if x is None or n is None or n < 1:
        raise ValueError("need orbit=... or x=..., n>=1")
    return float(iterate(f, [x], int(n))[1][0]) / float(n)
