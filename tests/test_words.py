import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conjtamer import (
    Presentation,
    SizeOverflow,
    Word,
    enumerate_ball,
    nilpotent_average_solution,
    word_realize,
)
from conjtamer.errors import ConjTamerError, UnknownGenerator
from conjtamer.words import ball_tree, select_shell_radii, sphere_sizes

from helpers import (
    exponent_vector,
    mobius_action,
    rigid_rotations,
    stack_ball,
    stack_normal_form,
    word_from_exponents,
)
from test_solve_pass import heisenberg_rotations

# frozen oracle: |B(k)| for the discrete Heisenberg group, k = 0..8,
# cross-checked against an independent matrix BFS (see acceptance tests)
H3_BALL_SIZES = [1, 5, 17, 53, 135, 299, 593, 1069, 1793]
# |S(k)| for k = 0..9: B(9) is the ball select_shell_radii(heisenberg, 8) reads
H3_SPHERE_SIZES = (1, 4, 12, 36, 82, 164, 294, 476, 724, 1052)


def W(*letters):
    return Word(tuple(letters))


# ---------------------------------------------------------------------------
# reference oracles: leftmost-first rewriting and brute-force confluence


def leftmost_step(p, w):
    """The leftmost applicable reduction (cancellation first at each
    position, then declared rules in order); None when irreducible."""
    n = len(w)
    for i in range(n):
        if i + 1 < n and w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1]:
            return w[:i] + w[i + 2 :]
        for lhs, rhs in p.rules:
            m = len(lhs)
            if i + m <= n and w[i : i + m] == lhs:
                return w[:i] + rhs + w[i + m :]
    return None


def leftmost_normal_form(p, w):
    while (nxt := leftmost_step(p, w)) is not None:
        w = nxt
    return w


def brute_force_confluent(p, max_len):
    """Every word of length 2..max_len: all one-step successors must reach
    the same leftmost-first normal form."""
    alphabet = [(g, s) for g in range(p.rank) for s in (1, -1)]
    for length in range(2, max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            forms = {leftmost_normal_form(p, s) for s in p._successors(combo)}
            if len(forms) > 1:
                return False
    return True


# ---------------------------------------------------------------------------
# words and normal forms


def test_word_algebra():
    w = W((0, 1), (1, -1))
    assert (w * w.inverse()).letters == ((0, 1), (1, -1), (1, 1), (0, -1))
    assert exponent_vector(w, 2) == (1, -1)
    assert word_from_exponents([2, -1]).letters == ((0, 1), (0, 1), (1, -1))
    assert w.display(("a", "b")) == "a b^-1"
    assert W().display(("a",)) == "1"


def test_zd_normal_form_sorts_and_cancels():
    p = Presentation.zd(2, ("a", "b"))
    w = W((1, 1), (0, 1), (1, -1), (0, 1))
    nf = p.normal_form(w)
    assert nf.letters == ((0, 1), (0, 1))


def test_heisenberg_normal_form():
    p = Presentation.heisenberg()
    # b a = a b c^-1 is the defining collection rule
    nf = p.normal_form(W((1, 1), (0, 1)))
    assert nf.display(p.generators) == "a b c^-1"
    # the commutator [a, b] reduces to c
    comm = W((0, 1), (1, 1), (0, -1), (1, -1))
    assert p.normal_form(comm).display(p.generators) == "c"


def test_normal_form_idempotent_on_short_words():
    rng = np.random.default_rng(7)
    for p in (Presentation.zd(2, ("a", "b")), Presentation.heisenberg()):
        d = p.rank
        for _ in range(200):
            n = rng.integers(0, 7)
            letters = tuple(
                (int(rng.integers(0, d)), int(rng.choice([-1, 1]))) for _ in range(n)
            )
            nf = p.normal_form(W(*letters))
            assert p.normal_form(nf).letters == nf.letters


def test_confluence_check_accepts_heisenberg():
    Presentation.heisenberg().check_confluence()


def test_confluence_check_catches_incomplete_rules():
    # missing the c-a commutation rule: "c b a" rewrites to two distinct
    # irreducible words depending on which overlap is resolved first
    p = Presentation(
        ("a", "b", "c"),
        (
            (((1, 1), (0, 1)), ((0, 1), (1, 1))),  # b a -> a b
            (((2, 1), (1, 1)), ((1, 1), (2, 1))),  # c b -> b c
        ),
        kind="nilpotent",
    )
    with pytest.raises(ConjTamerError):
        p.check_confluence()


AB_LETTERS = [(0, 1), (0, -1), (1, 1), (1, -1)]
# terminating by length: two-letter left sides, right sides of 0-1 letters
short_rules = st.lists(
    st.tuples(
        st.tuples(st.sampled_from(AB_LETTERS), st.sampled_from(AB_LETTERS)),
        st.lists(st.sampled_from(AB_LETTERS), max_size=1).map(tuple),
    ),
    min_size=1,
    max_size=4,
)


@settings(deadline=None, max_examples=200)
@given(short_rules)
def test_critical_pairs_agree_with_brute_force(rules):
    # every overlap word of these rules has length <= 3, so words up to
    # length 4 decide confluence
    p = Presentation(("a", "b"), rules, kind="nilpotent")
    try:
        p.check_confluence()
        accepted = True
    except ConjTamerError:
        accepted = False
    assert accepted == brute_force_confluent(p, 4)


@pytest.mark.parametrize(
    "p",
    [Presentation.zd(2), Presentation.zd(3), Presentation.heisenberg()],
    ids=["zd2", "zd3", "heisenberg"],
)
def test_normal_form_matches_leftmost_rewriting(p):
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(0, 10))
        w = tuple(
            (int(rng.integers(0, p.rank)), int(rng.choice([-1, 1]))) for _ in range(n)
        )
        assert p.normal_form(Word(w)).letters == leftmost_normal_form(p, w)
        # extending a normal form by one letter needs no re-reduction
        head, tail = p.normal_form(Word(w[:-1])).letters, Word(w[-1:])
        assert p.normal_form(Word(head) * tail).letters == leftmost_normal_form(p, w)


# ---------------------------------------------------------------------------
# the trie against the letter-stack oracle (tests/helpers.py)

ORACLE_PRESENTATIONS = {
    "heisenberg": Presentation.heisenberg(),
    "free2": Presentation.free(("a", "b")),
    "free3": Presentation.free(("a", "b", "c")),
    "z2": Presentation.zd(2, ("a", "b")),
    "z3": Presentation.zd(3),
    "z4": Presentation.zd(4),
    # the commutation rules of Z^2, which the stack oracle reduces by letters,
    # not by exponent vectors
    "z2-rules": Presentation(("a", "b"), Presentation.zd(2).rules, kind="nilpotent"),
}


def random_words(rank, max_len):
    letter = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_len).map(tuple)


@settings(deadline=None, max_examples=100)
@given(short_rules, random_words(2, 8), random_words(2, 8))
def test_normal_form_matches_stack_oracle_on_short_rules(rules, head, tail):
    # confluent or not, the trie reduces exactly as the stack reducer does
    p = Presentation(("a", "b"), rules, kind="nilpotent")
    prefix = stack_normal_form(p, Word(head)).letters
    assert p.normal_form(Word(tail)).letters == stack_normal_form(p, Word(tail)).letters
    assert (
        p.normal_form(Word(prefix + tail)).letters
        == stack_normal_form(p, Word(tail), prefix=prefix).letters
    )


@pytest.mark.parametrize("name", sorted(ORACLE_PRESENTATIONS))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_normal_form_matches_stack_oracle(name, data):
    p = ORACLE_PRESENTATIONS[name]
    w = data.draw(random_words(p.rank, 12))
    assert p.normal_form(Word(w)).letters == stack_normal_form(p, Word(w)).letters


@settings(deadline=None, max_examples=50)
@given(short_rules, st.integers(0, 4))
def test_ball_matches_stack_oracle_on_short_rules(rules, k):
    p = Presentation(("a", "b"), rules, kind="nilpotent")
    ball = enumerate_ball(p, k)
    elements, tree, sizes = stack_ball(p, k)
    assert [w.letters for w in ball] == elements
    assert ball_tree(p, k) == (tuple(tree), tuple(sizes))


@pytest.mark.parametrize(
    "name, k",
    [("heisenberg", 6), ("free2", 5), ("free3", 3), ("z2", 7), ("z2-rules", 7)],
)
def test_ball_matches_stack_oracle(name, k):
    p = ORACLE_PRESENTATIONS[name]
    ball = enumerate_ball(p, k)
    elements, tree, sizes = stack_ball(p, k)
    assert [w.letters for w in ball] == elements
    assert ball_tree(p, k) == (tuple(tree), tuple(sizes))


def test_heisenberg_shell_ball_sphere_sizes():
    assert sphere_sizes(Presentation.heisenberg(), 9) == H3_SPHERE_SIZES
    sel = select_shell_radii(Presentation.heisenberg(), 8)
    assert list(sel.sizes) == list(np.cumsum(H3_SPHERE_SIZES))
    assert list(sel.sizes[:9]) == H3_BALL_SIZES


def test_long_collection_needs_no_recursion():
    # b^40 a^40 = a^40 b^40 c^-1600: rewrite frames live on an explicit stack
    p = Presentation.heisenberg()
    nf = p.normal_form(Word(((1, 1),) * 40 + ((0, 1),) * 40))
    assert nf.letters == ((0, 1),) * 40 + ((1, 1),) * 40 + ((2, -1),) * 1600


def test_non_terminating_rules_raise():
    p = Presentation(
        ("a", "b"),
        ((((1, 1), (0, 1)), ((0, 1), (1, 1))), (((0, 1), (1, 1)), ((1, 1), (0, 1)))),
        kind="nilpotent",
    )
    with pytest.raises(ConjTamerError, match="rewriting did not terminate"):
        p.normal_form(W((1, 1), (0, 1), (1, 1)))


def test_normal_form_rejects_unknown_letters():
    with pytest.raises(UnknownGenerator):
        Presentation.heisenberg().normal_form(W((3, 1)))


# ---------------------------------------------------------------------------
# balls


def test_ball_sizes_z1_z2():
    p1 = Presentation.zd(1, ("a",))
    assert len(enumerate_ball(p1, 3)) == 7
    p2 = Presentation.zd(2, ("a", "b"))
    assert len(enumerate_ball(p2, 2)) == 13
    for k in range(1, 5):
        assert len(enumerate_ball(p2, k)) == 2 * k * k + 2 * k + 1


def test_abelian_presentation_without_rules_is_zd():
    # its words commute on the trie, so its balls are those of Z^d
    p = Presentation(("a", "b", "c"), kind="abelian")
    assert p.rules == Presentation.zd(3).rules
    assert enumerate_ball(p, 3) == enumerate_ball(Presentation.zd(3, ("a", "b", "c")), 3)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_ball_size_is_known_before_the_walk(rank, monkeypatch):
    # reduced words: 2r(2r - 1)^(j - 1) on the sphere of radius j >= 1
    p = Presentation.free([f"g{i}" for i in range(rank)])
    for k in range(1, 6):
        size = len(enumerate_ball(p, k))
        assert size == 1 + sum(2 * rank * (2 * rank - 1) ** (j - 1) for j in range(1, k + 1))
        enumerate_ball(p, k, cap=size)
        with pytest.raises(SizeOverflow):
            enumerate_ball(p, k, cap=size - 1)

    def no_walk(*args):
        raise AssertionError("the ball was walked")

    monkeypatch.setattr(p, "_extend", no_walk)
    with pytest.raises(SizeOverflow):
        enumerate_ball(p, 40 if rank > 1 else 10**6)


def test_ball_cap_is_checked_per_element(monkeypatch):
    # Z² balls of radius 2 and 3 have 13 and 25 elements: under a cap of 13,
    # radius 3 refuses at its first new element, and a refused ball builds
    # no Word
    p, built = Presentation.zd(2, ("a", "b")), []
    real = p._word
    monkeypatch.setattr(p, "_word", lambda node: built.append(node) or real(node))
    with pytest.raises(SizeOverflow, match="ball exceeds cap 13 at radius 3"):
        enumerate_ball(p, 3, cap=13)
    assert built == []


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.integers(0, 6))
def test_zd_sphere_sizes_match_the_ball(d, k):
    p = Presentation.zd(d)
    sizes = sphere_sizes(p, k)
    assert sizes == ball_tree(p, k)[1] and sum(sizes) == len(enumerate_ball(p, k))


@pytest.mark.parametrize(
    "name, k", [("heisenberg", 7), ("free2", 5), ("free3", 4), ("z2-rules", 6)]
)
def test_sphere_sizes_and_ball_tree_match_the_ball(name, k):
    # a fresh presentation: the counts must not lean on another walk having
    # grown the trie first
    p = ORACLE_PRESENTATIONS[name]
    fresh = Presentation(p.generators, p.rules, p.kind, p.bounded_generation, p.metric_generators)
    sizes = sphere_sizes(fresh, k)
    tree, spheres = ball_tree(p, k)
    ball = enumerate_ball(p, k)
    assert sizes == spheres and sum(sizes) == len(ball) == len(tree)
    for word, (parent, letter) in zip(ball[1:], tree[1:]):  # element = parent · letter
        assert p.normal_form(Word(ball[parent].letters + (letter,))).letters == word.letters


def test_sphere_sizes_cap_is_checked_per_element(monkeypatch):
    # Z² spheres of radius 1, 2, 3 have 4, 8, 12 elements: under a cap of
    # 13, radius 3 refuses at its first new element, after 4 + 4·4 + 1 pushes
    p, pushes = Presentation.zd(2, ("a", "b")), []
    assert sphere_sizes(p, 2, cap=13) == (1, 4, 8)
    real = p._extend
    monkeypatch.setattr(p, "_extend", lambda node, ids: pushes.append(node) or real(node, ids))
    with pytest.raises(SizeOverflow, match="ball exceeds cap 13 at radius 3"):
        sphere_sizes(p, 3, cap=13)
    assert len(pushes) == 21


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_sphere_sizes_refuse_a_free_ball_before_the_walk(rank, monkeypatch):
    p = Presentation.free([f"g{i}" for i in range(rank)])
    for k in range(1, 5):
        size = len(enumerate_ball(p, k))
        assert sum(sphere_sizes(p, k, cap=size)) == size
        with pytest.raises(SizeOverflow):
            sphere_sizes(p, k, cap=size - 1)

    def no_walk(*args):
        raise AssertionError("the ball was walked")

    monkeypatch.setattr(p, "_extend", no_walk)
    with pytest.raises(SizeOverflow, match="a free ball of radius"):
        sphere_sizes(p, 40 if rank > 1 else 10**6)


def test_shell_selection_builds_no_word(monkeypatch):
    # the shell selection, the ball tree and the nilpotent solve walk trie
    # node ids and letters alone
    action, p = heisenberg_rotations(256)

    def no_word(node):
        raise AssertionError("a Word was built")

    monkeypatch.setattr(p, "_word", no_word)
    sel = select_shell_radii(p, 8)
    assert list(sel.sizes) == list(np.cumsum(H3_SPHERE_SIZES))
    assert ball_tree(p, 9)[1] == H3_SPHERE_SIZES
    sol = nilpotent_average_solution(action, shell_index=0, k_max=8)
    assert sol.extras["shell_radius"] == 1


@pytest.mark.parametrize("name, k", [("heisenberg", 6), ("free2", 5), ("z2-rules", 6)])
def test_ball_order_does_not_depend_on_the_trie_history(name, k):
    # a trie that first reduced other words, longest first, gives its nodes
    # other ids: the ball's order and tree must not move
    p = ORACLE_PRESENTATIONS[name]
    fresh, grown = (
        Presentation(p.generators, p.rules, p.kind, p.bounded_generation, p.metric_generators)
        for _ in range(2)
    )
    for word in reversed(enumerate_ball(p, k + 2)):
        grown.normal_form(word.inverse() * word.inverse())
    assert ball_tree(fresh, k) == ball_tree(grown, k)
    assert enumerate_ball(fresh, k) == enumerate_ball(grown, k)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.integers(0, 6))
def test_zd_ball_matches_exponent_vector_bfs(d, k):
    # the stack oracle reduces a Z^d word to the word of its exponent vector
    p = Presentation.zd(d)
    ball = enumerate_ball(p, k)
    elements, tree, sizes = stack_ball(p, k)
    assert [w.letters for w in ball] == elements
    assert ball_tree(p, k) == (tuple(tree), tuple(sizes))


def test_ball_sizes_nondecreasing_and_spheres_consistent():
    p = Presentation.heisenberg()
    spheres = ball_tree(p, 5)[1]
    sizes = np.cumsum(spheres)
    assert list(sizes) == H3_BALL_SIZES[:6] and sizes[-1] == len(enumerate_ball(p, 5))
    assert all(s > 0 for s in spheres)


def test_ball_elements_are_normal_forms():
    p = Presentation.heisenberg()
    ball = enumerate_ball(p, 3)
    seen = set()
    for w in ball:
        assert p.normal_form(w).letters == w.letters
        assert w.letters not in seen
        seen.add(w.letters)


# ---------------------------------------------------------------------------
# shell selection


def test_shell_radii_z1_all_admissible_at_one():
    sel = select_shell_radii(Presentation.zd(1, ("a",)), 6, 1.0)
    assert sel.radii == (1, 2, 3, 4, 5, 6)
    # |B(k)| = 2k+1, so the shell ratio k|S(k+1)|/|B(k)| = 2k/(2k+1) < 1
    np.testing.assert_allclose(
        sel.measured, [2 * k / (2 * k + 1) for k in range(1, 7)], atol=1e-12
    )


def test_shell_radii_z2_at_three():
    sel = select_shell_radii(Presentation.zd(2, ("a", "b")), 5, 3.0)
    assert sel.radii == (1, 2, 3, 4, 5)
    assert all(m <= 3.0 for m in sel.measured)


def test_shell_radii_trivial_group_ratio_zero():
    sel = select_shell_radii(Presentation.zd(0), 4, 0.5)
    assert sel.measured == (0.0, 0.0, 0.0, 0.0)
    assert sel.minimal_c == 0.0


# ---------------------------------------------------------------------------
# realization


def test_realize_empty_word_is_identity():
    act = mobius_action(512)
    e = word_realize(act, W())
    x = np.linspace(0, 1, 300)
    assert float(np.max(np.abs(e(x) - x))) == 0.0


def test_realize_cancelling_word_is_identity():
    act = mobius_action(512)
    f_finv = word_realize(act, W((0, 1), (0, -1)))
    x = np.linspace(0, 1, 300)
    assert float(np.max(np.abs(f_finv(x) - x))) <= 1e-10


def test_realize_cube_multiplier():
    # Df^3(1) = Df(1)^3 = 8 at the fixed point 1
    act = mobius_action(512)
    f3 = word_realize(act, W((0, 1), (0, 1), (0, 1)))
    assert f3.derivative(np.array([1.0]))[0] == pytest.approx(8.0, abs=1e-9)


def test_realize_is_a_homomorphism_on_rotations():
    act = rigid_rotations(512)
    w1 = W((0, 1), (1, -1), (0, 1))
    w2 = W((1, 1), (1, 1), (0, -1))
    lhs = word_realize(act, w1 * w2)
    from conjtamer import compose

    rhs = compose(word_realize(act, w1), word_realize(act, w2))
    x = np.linspace(0, 1, 200)
    assert float(np.max(np.abs(lhs.eval_lift(x) - rhs.eval_lift(x)))) <= 1e-12
