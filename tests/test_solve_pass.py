"""The C^1 solves measure u and its defects in one ball pass: a Z^d solve
reads its defects off the faces of the ball it walks over the nodes and the
midpoints.  These tests hold them to the six-pass measurement they replaced
(u bit for bit, the defects within rounding), check the face sums against a
math.fsum reference, count their ball elements, pin the ball-size limits,
and check that no stage builds an inverse map."""

import itertools
import math

import numpy as np
import pytest

import conjtamer.action as action_mod
import conjtamer.cohomology as cohomology
from conjtamer import (
    Action,
    Diffeo,
    GridFunction,
    Presentation,
    SizeOverflow,
    birkhoff_field,
    birkhoff_solution,
    build_action,
    build_diffeo,
    cocycle_defect,
    deroin_cdf,
    enumerate_ball,
    flatten_hyperbolic,
    load_action_spec,
    log_density_normalizer,
    nilpotent_average_solution,
    path_of_conjugates,
    tame_lipschitz,
)
from conjtamer.diffeo import WalkState
from conjtamer.space import circle, interval
from conjtamer.words import ball_tree, sphere_sizes

from helpers import (
    assert_close,
    conj_rotation_z2,
    mobius_action,
    mobius_gen,
    rigid_rotations,
    word_from_exponents,
)
from test_jet import rotations_z


# ---------------------------------------------------------------------------
# The six-pass measurement, kept as the oracle.


def six_pass_measurement(action, fn):
    """u = fn + C from fn at the nodes; the grid defects from fn at every
    g(nodes); the refined defects from fn on the sorted node-and-midpoint
    grid and at its image under every generator: one evaluation each."""
    space = action.space
    tn = space.track_nodes()
    u = GridFunction(space, fn(tn), fn)
    u = u + log_density_normalizer(space, u.samples)
    defects, locations = {}, {}
    for name, g in zip(action.names, action.gens):
        d = u.samples - u(g.eval_lift(tn)) - g.log_deriv.samples
        k = int(np.argmax(np.abs(d)))
        defects[name] = float(np.abs(d[k]))
        locations[name] = float(tn[k])
    fine = np.sort(np.concatenate([tn, tn + 0.5 * space.h]))
    fine = fine[fine <= 1.0]
    u_fine = u(fine)
    refined = {}
    for name, g in zip(action.names, action.gens):
        g_fine, g_ld = g.jet(fine)
        refined[name] = float(np.max(np.abs(u_fine - u(g_fine) - g_ld)))
    return u, defects, locations, refined


# The face sums and the six passes round differently: against the oracle
# the defects moved by at most 2.1e-14 relative and 6.7e-16 absolute (the
# four Z^d cases and the nilpotent one below), so the bound leaves 50x room.
DEFECT_REL, DEFECT_ABS = 1e-12, 1e-14


def assert_same_measurement(sol, action, oracle):
    u, defects, locations, refined = oracle
    assert np.array_equal(sol.u.samples, u.samples)
    for got, want in ((sol.defect_per_generator, defects), (sol.defect_refined, refined)):
        assert got == pytest.approx(want, rel=DEFECT_REL, abs=DEFECT_ABS)
    assert sol.defect_locations == locations
    assert cocycle_defect(sol.u, action) == (defects, locations)


def flattened_mobius():
    flat, _, _ = flatten_hyperbolic(mobius_action(512), delta=0.1)
    return flat


@pytest.mark.parametrize(
    "make, n, block",
    [(flattened_mobius, 8, None), (lambda: conj_rotation_z2(256), 6, None),
     (lambda: conj_rotation_z2(256), 6, 500), (lambda: rotations_z(3), 3, None)],
    ids=["z-flattened-mobius", "z2", "z2-in-three-blocks", "z3"],
)
def test_birkhoff_solution_matches_six_pass_measurement(make, n, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(cohomology, "_BLOCK", block)
    action = make()
    scale = float(n**action.rank)

    def fn(y):
        return cohomology._ball_rows(action, n, np.atleast_1d(y), rows=False)[0][0] / scale

    sol = birkhoff_solution(action, n)
    assert_same_measurement(sol, action, six_pass_measurement(action, fn))


def test_nilpotent_solution_matches_six_pass_measurement():
    # the solve sums word_cocycle over B(k) in the preorder of its ball
    # tree, node i spelling the inverse of element i
    action, p = heisenberg_rotations(256)
    sol = nilpotent_average_solution(action, shell_index=0, k_max=4)
    k = sol.extras["shell_radius"]
    tree, _ = ball_tree(p, k)

    def spelled(node):
        """The inverse of element node = parent · letter: letter^-1 · parent^-1."""
        letters = []
        while node:
            node, (g, s) = tree[node]
            letters.append((g, -s))
        return letters

    def preorder(node):
        yield node
        for child in range(1, len(tree)):
            if tree[child][0] == node:
                yield from preorder(child)

    def fn(x):
        acc = np.zeros_like(x)
        for node in preorder(0):
            c, _ = action.word_cocycle(spelled(node), x)
            acc += c
        return acc / len(tree)

    assert_same_measurement(sol, action, six_pass_measurement(action, fn))


def heisenberg_rotations(grid):
    """The Heisenberg group acting through its abelianization: a and b
    conjugated rotations sharing h, c the identity (heisenberg_proj)."""
    sp = circle(grid)
    g1, g2 = conj_rotation_z2(grid).gens
    p = Presentation.heisenberg()
    return Action(sp, p, {"a": g1, "b": g2, "c": build_diffeo("x", sp)}), p


def test_nilpotent_walks_share_suffixes_and_one_inverse_of_h(monkeypatch):
    # every word walk starts in h's coordinates and steps each distinct
    # suffix once, and an inverse letter walks its generator's reversed
    # plan, so a point set costs one Newton solve of h (the word-by-word
    # walks before made 24 and 28 solves, and inverse maps built for the
    # letters two more)
    action, _ = heisenberg_rotations(256)
    calls = []
    invert01 = Diffeo._invert01

    def counted(self, y):
        calls.append(np.size(y))
        return invert01(self, y)

    monkeypatch.setattr(Diffeo, "_invert01", counted)
    action_mod.validate_relations(action)
    assert len(calls) == 1
    calls.clear()
    nilpotent_average_solution(action, shell_index=0, k_max=8)
    assert len(calls) <= 7


def held_walks(walker, yielded) -> int:
    """The walks other than yielded that the paused walker's locals hold,
    through lists, tuples and dicts."""
    held, todo = set(), list(walker.gi_frame.f_locals.values())
    while todo:
        obj = todo.pop()
        if isinstance(obj, WalkState):
            held.add(id(obj))
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
    return len(held - {id(yielded)})


def assert_walks_to(action, walk, letters, x):
    c, y = action.word_cocycle(letters, x)
    assert np.array_equal(walk.point()[0], y) and np.array_equal(walk.point()[1], c)


def test_walk_tree_yields_the_listed_nodes_in_order_and_drops_spent_walks():
    # node i spells tree[i][1] · word(tree[i][0]).  The walker yields every
    # node once, the root first, depth first with children in tree order;
    # each walk's point is word_cocycle's of the node's spelling, bit for
    # bit; and at each yield it keeps no more walks than the node's depth
    action, p = heisenberg_rotations(64)
    tree, _ = ball_tree(p, 3)
    x = action.space.nodes

    def spelled(node):
        letters = []
        while node:
            node, letter = tree[node]
            letters.append(letter)
        return letters

    def preorder(node):
        yield node
        for child in range(1, len(tree)):
            if tree[child][0] == node:
                yield from preorder(child)

    walker, nodes = action.walk_tree(tree, x), []
    for node, walk in walker:
        nodes.append(node)
        assert held_walks(walker, walk) <= len(spelled(node))
        assert_walks_to(action, walk, spelled(node), x)
    assert nodes == list(preorder(0))


def test_walk_words_match_word_walks_with_few_kept(monkeypatch):
    # walk_words yields each listed word's index once, repeated and empty
    # words too, with word_cocycle's bits; the walker under it keeps no more
    # walks than the yielded word's length
    action, p = heisenberg_rotations(64)
    x = action.space.nodes
    words = [w.letters for w in enumerate_ball(p, 4)]
    words += [words[5], (), words[5]]
    walkers, walk_tree = [], Action.walk_tree
    monkeypatch.setattr(
        Action, "walk_tree", lambda self, tree, y: walkers.append(walk_tree(self, tree, y)) or walkers[-1]
    )
    indices = []
    for i, walk in action.walk_words(words, x):
        indices.append(i)
        assert held_walks(walkers[0], walk) <= len(words[i])
        assert_walks_to(action, walk, words[i], x)
    assert sorted(indices) == list(range(len(words)))


def test_deroin_series_steps_each_ball_element_once(monkeypatch):
    # one step per non-root node of the ball tree: B(8) of the Heisenberg
    # group has 1 793 elements (a walker that dropped walks for room and
    # walked them again made 4 500 steps here)
    action, p = heisenberg_rotations(4096)
    steps, step = [], WalkState.step
    monkeypatch.setattr(WalkState, "step", lambda self, plan: steps.append(1) or step(self, plan))
    deroin_cdf(action, 0.5, 8)
    assert len(steps) == sum(sphere_sizes(p, 8)) - 1 == 1792


@pytest.mark.parametrize(
    "make, n",
    [(lambda: mobius_action(256), 7), (lambda: conj_rotation_z2(64), 5),
     (lambda: rotations_z(3), 3)],
    ids=["z-interval", "z2", "z3"],
)
def test_face_sums_telescope(make, n):
    # row r of the pass holds the sum over [0, r)^d and F0_i - Fr_i, the
    # faces k_i = 0 and k_i = r of that cube, as math.fsum adds the cocycles
    # of the words g^k; divided by r^d, F0_i - Fr_i is u_r - u_r∘g_i - log Dg_i
    action = make()
    d, x = action.rank, np.array([0.0, 0.1234, 0.5, 0.987])
    cocycle = {
        k: action.word_cocycle(word_from_exponents(k).letters, x)[0]
        for k in itertools.product(range(n + 1), repeat=d)
    }

    def fsum(keep):
        return [math.fsum(c[j] for k, c in cocycle.items() if keep(k)) for j in range(x.size)]

    sums, faces = cohomology._ball_rows(action, n, x, faces=True)
    last = cohomology._ball_rows(action, n, x, rows=False, faces=True)
    for r in range(1, n + 1):
        assert_close(sums[r - 1], fsum(lambda k: max(k) < r), rel=1e-12)
        for i in range(d):
            low = fsum(lambda k: max(k) < r and k[i] == 0)
            high = fsum(lambda k: k[i] == r and max(k[:i] + k[i + 1 :], default=0) < r)
            assert_close(faces[r - 1, i], np.subtract(low, high), rel=1e-12)
    assert_close(last[0][0], sums[-1], rel=1e-12)
    assert_close(last[1][0], faces[-1], rel=1e-12)
    # without the faces, the same cube sums, bit for bit
    for rows, want in ((True, sums), (False, last[0])):
        got = cohomology._ball_rows(action, n, x, rows=rows)
        assert got[1] is None and np.array_equal(got[0], want)

    scale = float(n**d)
    u = lambda y: birkhoff_field(action, n, y)[n] / scale
    for i, g in enumerate(action.gens):
        defect = u(x) - u(g.eval_lift(x)) - g.log_derivative(x)
        assert_close(faces[-1, i] / scale, defect, rel=1e-12)


def count_field_passes(monkeypatch) -> list:
    """The sizes of the blocks that a solve's ball field is called on."""
    passes, rows = [], cohomology._ball_rows

    def counted_rows(act, n, x, **kwargs):
        passes.append(x.size)
        return rows(act, n, x, **kwargs)

    monkeypatch.setattr(cohomology, "_ball_rows", counted_rows)
    return passes


def test_birkhoff_solution_steps_the_ball_once(monkeypatch):
    action = conj_rotation_z2(256)
    passes, inversions, elements = count_field_passes(monkeypatch), [], []
    invert01, point = Diffeo._invert01, WalkState.point

    def counted_invert01(self, y):
        inversions.append(np.size(y))
        return invert01(self, y)

    def counted_point(self):
        elements.append(self.z.size)
        return point(self)

    monkeypatch.setattr(Diffeo, "_invert01", counted_invert01)
    monkeypatch.setattr(WalkState, "point", counted_point)
    n, d, nodes = 5, action.rank, 256
    birkhoff_solution(action, n)
    # one ball pass over the nodes and the midpoints, in one block, as they
    # are fewer than 2·4096: h is inverted once, for the pass, and no
    # generator jet is taken; the pass walks [0, n)^d and its d faces k_i = n
    # (the pass over the nodes, the midpoints and their d images walked
    # (2 + 2d)·nodes points and inverted h 2d times more for their jets)
    assert passes == [2 * nodes]
    assert inversions == [2 * nodes]
    assert elements == [2 * nodes] * (n**d + d * n ** (d - 1))


def test_exact_evaluator_walks_the_cube_alone(monkeypatch):
    # u's exact evaluator and birkhoff_field sum [0, n)^d; only the solve
    # pass and the path walk the faces k_i = n as well
    action = conj_rotation_z2(64)
    n, d = 4, action.rank
    sol = birkhoff_solution(action, n)
    elements, point = [], WalkState.point
    monkeypatch.setattr(WalkState, "point", lambda self: elements.append(1) or point(self))
    sol.u(np.array([0.1, 0.7]))
    birkhoff_field(action, n, 0.3)
    assert len(elements) == 2 * n**d


@pytest.mark.parametrize(
    "make", [flattened_mobius, lambda: conj_rotation_z2(256)], ids=["z-flattened-mobius", "z2"]
)
def test_solve_blocks_change_no_bit(make, monkeypatch):
    # a point's ball field does not depend on the other points of its block:
    # a pass in many blocks and a pass in one measure the same bits
    action = make()
    passes = count_field_passes(monkeypatch)
    sols = []
    for block in (97, 10**9):
        monkeypatch.setattr(cohomology, "_BLOCK", block)
        passes.clear()
        sols.append(birkhoff_solution(action, 6))
        # x.size // _BLOCK blocks, each of _BLOCK to 2·_BLOCK - 1 points
        assert len(passes) == max(1, sum(passes) // block)
        assert all(min(block, sum(passes)) <= p < 2 * block for p in passes)
    many, one = sols
    assert many.u.samples.tobytes() == one.u.samples.tobytes()
    assert many.defect_per_generator == one.defect_per_generator
    assert many.defect_locations == one.defect_locations
    assert many.defect_refined == one.defect_refined


def test_bench_size_interval_pass_is_one_block(monkeypatch):
    # grid 1024: 1025 nodes and 1024 midpoints make 2049 points, one block
    flat, _, _ = flatten_hyperbolic(mobius_action(1024), delta=0.1)
    passes = count_field_passes(monkeypatch)
    birkhoff_solution(flat, 4)
    assert passes == [2049]


def test_path_sample_solves_h_once(monkeypatch):
    # the ball pass inverts h on the call, once per walk; a sample is then
    # arithmetic on the pass's fields and one forward jet of its phi: no
    # Newton solve, no conjugated action (built only when read)
    action = conj_rotation_z2(256)
    calls, built = [], []
    invert01, init = Diffeo._invert01, Action.__init__

    def counted(self, y):
        calls.append(np.size(y))
        return invert01(self, y)

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Diffeo, "_invert01", counted)
    monkeypatch.setattr(Action, "__init__", counted_init)
    samples = path_of_conjugates(action, 4, 2)
    assert calls
    calls.clear()
    samples = list(samples)
    assert len(samples) == 7
    assert calls == [] and built == []
    samples[-1].conjugated
    assert len(built) == 1


# ---------------------------------------------------------------------------
# Ball-size limits: n^d times the largest point set that the six-pass
# measurement evaluated at once, not times the size of the one-pass batch.


@pytest.mark.parametrize(
    "make, fine",
    [(lambda: rigid_rotations(16), 32), (lambda: mobius_action(16), 33)],
    ids=["z2-circle", "z-interval"],
)
def test_solve_size_limit_is_nodes_and_midpoints(make, fine, monkeypatch):
    action = make()
    n = 3
    monkeypatch.setattr(cohomology, "_FIELD_CAP", n**action.rank * fine)
    birkhoff_solution(action, n)
    with pytest.raises(SizeOverflow):
        birkhoff_solution(action, n + 1)


@pytest.mark.parametrize(
    "make, nodes",
    [(lambda: rigid_rotations(16), 16), (lambda: mobius_action(16), 17)],
    ids=["z2-circle", "z-interval"],
)
def test_path_size_limit_is_nodes(make, nodes, monkeypatch):
    action = make()
    n = 3
    monkeypatch.setattr(cohomology, "_FIELD_CAP", n**action.rank * nodes)
    assert len(list(path_of_conjugates(action, n, 1))) == n
    with pytest.raises(SizeOverflow):
        path_of_conjugates(action, n + 1, 1)


# ---------------------------------------------------------------------------
# Inverse letters as reversed plans.


def test_no_stage_builds_an_inverse_map(monkeypatch, pytestconfig):
    # an inverse letter walks its generator's reversed plan, so building
    # and checking an action, Lipschitz taming and the nilpotent solve
    # never call invert; Action.inverses still builds the maps on request
    import conjtamer.diffeo as diffeo_mod

    calls = []
    inner = diffeo_mod.invert

    def counted(g):
        calls.append(g)
        return inner(g)

    monkeypatch.setattr(action_mod, "invert", counted)
    monkeypatch.setattr(diffeo_mod, "invert", counted)
    spec = pytestconfig.rootpath / "specs" / "heisenberg_proj.spec"
    build_action(load_action_spec(str(spec))._replace(grid_size=256))
    action = Action(interval(256), Presentation.zd(1, ("f",)), {"f": mobius_gen(256)})
    tame_lipschitz(action, 0.9, 4)
    nilpotent_average_solution(heisenberg_rotations(256)[0], shell_index=0, k_max=8)
    assert calls == []
    assert len(action.inverses) == 1 and len(calls) == 1
