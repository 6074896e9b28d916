"""Words, presentations, rewriting to normal form, and ball enumeration.

A word is a sequence of (generator index, sign) letters.  A presentation
carries the generator names, a terminating rewriting system (free cancellation
is always active), and optional bounded-generation data.  A Knuth-Bendix
critical-pair check proves the rules confluent, so that normal form is unique.

Normal forms live on an interned trie of irreducible words, grown on demand:
a node is its parent and last letter.  Pushing a letter onto an irreducible
word can only create a redex that ends at the top, so the reduced push of
(node, letter) is a pure function and each one is computed once: with no
left-hand side ending at the top it is the node's child, otherwise the
right-hand side's letters are pushed in order onto the node the left-hand
side climbs to.  Every kind reduces on the trie, Z^d through its commutation
rules, and one BFS on node ids (_spheres) runs every ball over the metric
letters and the word list of periodic.detect_resilient over every letter.
Each sphere lists its elements in the order the BFS first reaches them, which
depends only on the previous sphere and the letter order.

A Word is built only for a caller that reads it back: sphere_sizes counts
the spheres of a ball and ball_tree gives its tree, which the ball averages
walk, without keeping any Word; enumerate_ball alone returns the ball's Words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConjTamerError, SizeOverflow, UnknownGenerator

Letter = Tuple[int, int]  # (generator index, +1 or -1)

# bounds the memory of a refused ball: a free ball of 1.06 M words took 668 MB
DEFAULT_BALL_CAP = 10**6
_MAX_REWRITES = 100000

ABELIAN = "abelian"
NILPOTENT = "nilpotent"
FREE = "free"


@dataclass(frozen=True)
class Word:
    letters: Tuple[Letter, ...] = ()

    @property
    def length(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def display(self, names: Sequence[str]) -> str:
        if not self.letters:
            return "1"
        parts = []
        for g, s in self.letters:
            parts.append(names[g] if s > 0 else names[g] + "^-1")
        return " ".join(parts)


class Presentation:
    """Generator names + rewriting rules (+ optional bounded generation).
    An abelian presentation given no rules gets the commutations of Z^d."""

    def __init__(
        self,
        generators: Sequence[str],
        rules: Iterable[Tuple[Sequence[Letter], Sequence[Letter]]] = (),
        kind: str = FREE,
        bounded_generation: Optional[int] = None,
        metric_generators: Optional[Sequence[int]] = None,
    ):
        self.generators = tuple(generators)
        if kind == ABELIAN and not rules:  # g_j g_i -> g_i g_j for i < j
            rules = [
                (((j, sj), (i, si)), ((i, si), (j, sj)))
                for j in range(self.rank) for i in range(j)
                for sj in (1, -1) for si in (1, -1)
            ]
        self.rules = tuple((tuple(l), tuple(r)) for l, r in rules)
        self.kind = kind
        self.bounded_generation = bounded_generation
        # Generators that count for word length / ball radius.  Derived
        # normal-form letters (e.g. the commutator in the Heisenberg group)
        # appear in words but are not applied during ball BFS.
        if metric_generators is None:
            metric_generators = range(len(self.generators))
        self.metric_generators = tuple(metric_generators)
        for lhs, rhs in self.rules:
            if not lhs:
                raise ConjTamerError("rule with an empty left-hand side")
            for g, s in lhs + rhs:
                if not (0 <= g < len(self.generators)) or s not in (-1, 1):
                    raise UnknownGenerator(f"rule letter ({g},{s}) out of range")
        # the declared rules, then the free cancellations x x^-1 -> 1
        self._rewrites = self.rules + tuple(
            (((g, s), (g, -s)), ()) for g in range(self.rank) for s in (1, -1)
        )
        # letter (g, s) <-> index 2g + (s < 0); rules on indices, keyed by the
        # last letter of lhs: (lhs below its last letter from the top, rhs)
        self._letters = [(g, s) for g in range(self.rank) for s in (1, -1)]
        self._index = {lt: i for i, lt in enumerate(self._letters)}
        self._by_last: Dict[int, List[Tuple[Tuple[int, ...], Tuple[int, ...]]]] = {}
        for lhs, rhs in self._rewrites:
            ids = [self._index[lt] for lt in lhs]
            self._by_last.setdefault(ids[-1], []).append(
                (tuple(ids[-2::-1]), tuple(self._index[lt] for lt in rhs))
            )
        # the trie: node 0 is the empty word; push[node * 2 rank + letter]
        # is the node of the reduced push, -1 until computed
        self._parent: List[int] = [-1]
        self._last: List[int] = [-1]
        self._push: List[int] = [-1] * len(self._letters)

    @property
    def rank(self) -> int:
        return len(self.generators)

    # -- rewriting ----------------------------------------------------------

    def normal_form(self, word: Word) -> Word:
        """The letters pushed from the trie's root, read back from the node.
        Once check_confluence has passed, the result is the unique normal
        form."""
        try:
            ids = [self._index[lt] for lt in word.letters]
        except KeyError as exc:
            raise UnknownGenerator(f"letter {exc.args[0]} out of range") from None
        return self._word(self._extend(0, ids))

    def _extend(self, node: int, ids: Sequence[int]) -> int:
        """The node of the normal form of word(node)·ids, by memoized reduced
        pushes on an explicit stack of frames [memo slot, letters, next
        letter, node so far].  Each rewrite opens a frame for its right-hand
        side; more than _MAX_REWRITES new rewrites in one call means the
        rules do not terminate."""
        n_letters, push = len(self._letters), self._push
        frames = [[-1, ids, 0, node]]
        rewrites = 0
        while True:
            frame = frames[-1]
            slot, seq, i, cur = frame
            if i == len(seq):
                frames.pop()
                if not frames:
                    return cur
                push[slot] = nxt = cur
                frame = frames[-1]
            else:
                key = cur * n_letters + seq[i]
                nxt = push[key]
                if nxt < 0:
                    redex = self._redex(cur, seq[i])
                    if redex is not None:
                        rewrites += 1
                        if rewrites > _MAX_REWRITES:
                            raise ConjTamerError("rewriting did not terminate")
                        frames.append([key, redex[1], 0, redex[0]])
                        continue
                    nxt = push[key] = len(self._parent)
                    self._parent.append(cur)
                    self._last.append(seq[i])
                    push.extend([-1] * n_letters)
            frame[2] += 1
            frame[3] = nxt

    def _redex(self, node: int, a: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """(node left when the left-hand side is removed, right-hand side) of
        the first rule whose left-hand side ends word(node)·a, or None."""
        for below, rhs in self._by_last.get(a, ()):
            top = node
            for b in below:
                if self._last[top] != b:
                    break
                top = self._parent[top]
            else:
                return top, rhs
        return None

    def _word(self, node: int) -> Word:
        """The word of a trie node, read back along its parents."""
        ids = []
        while node:
            ids.append(self._last[node])
            node = self._parent[node]
        return Word(tuple(self._letters[i] for i in reversed(ids)))

    def _successors(self, w: Tuple[Letter, ...]) -> List[Tuple[Letter, ...]]:
        return [
            w[:i] + rhs + w[i + len(lhs) :]
            for i in range(len(w))
            for lhs, rhs in self._rewrites
            if w[i : i + len(lhs)] == lhs
        ]

    def check_confluence(self) -> None:
        """Knuth-Bendix critical pairs: for every ordered pair of left-hand
        sides (free cancellations included) build the words where a suffix
        of one is a prefix of the other, or one contains the other; all
        one-step successors of each must share a normal form.  For a
        terminating system this is confluence on words of every length
        (Newman's lemma)."""
        lhss = [lhs for lhs, _ in self._rewrites]
        overlaps = set()
        for l1 in lhss:
            for l2 in lhss:
                overlaps.update(
                    l1 + l2[k:]
                    for k in range(1, min(len(l1), len(l2)))
                    if l1[-k:] == l2[:k]
                )
                if any(l1[i : i + len(l2)] == l2 for i in range(len(l1))):
                    overlaps.add(l1)
        for w in sorted(overlaps):
            forms = {self.normal_form(Word(s)).letters for s in self._successors(w)}
            if len(forms) > 1:
                raise ConjTamerError(f"rewriting not confluent at {w}: {forms}")

    # -- stock presentations -------------------------------------------------

    @classmethod
    def zd(cls, d: int, names: Optional[Sequence[str]] = None) -> "Presentation":
        """Z^d: letters commute, normal form f1^k1 ... fd^kd."""
        names = tuple(names) if names else tuple(f"g{i+1}" for i in range(d))
        return cls(names, kind=ABELIAN)

    @classmethod
    def free(cls, names: Sequence[str]) -> "Presentation":
        return cls(tuple(names), (), kind=FREE)

    @classmethod
    def heisenberg(
        cls, names: Sequence[str] = ("a", "b", "c"), bounded_generation: int = 7
    ) -> "Presentation":
        """The integer Heisenberg group <a,b,c | [a,b]=c, c central> with
        normal form a^x b^y c^z."""
        a, b, c = 0, 1, 2
        rules = [
            # collect a's to the left of b's, tracking the commutator
            (((b, 1), (a, 1)), ((a, 1), (b, 1), (c, -1))),
            (((b, 1), (a, -1)), ((a, -1), (b, 1), (c, 1))),
            (((b, -1), (a, 1)), ((a, 1), (b, -1), (c, 1))),
            (((b, -1), (a, -1)), ((a, -1), (b, -1), (c, -1))),
        ]
        # c is central: push every c to the right end
        for sj in (1, -1):
            for i in (a, b):
                for si in (1, -1):
                    rules.append((((c, sj), (i, si)), ((i, si), (c, sj))))
        return cls(
            tuple(names),
            rules,
            kind=NILPOTENT,
            bounded_generation=bounded_generation,
            metric_generators=(a, b),
        )


# ---------------------------------------------------------------------------
# Balls.


def _spheres(
    presentation: Presentation, k: int, cap: int, generators: Sequence[int] = ()
) -> Iterator[Dict[int, Tuple[int, Letter]]]:
    """The spheres S(1) .. S(k) of the BFS of B(k) over the generators (none
    given: the metric ones) and their inverses on trie node ids, each as a
    map from its nodes, in the order first reached, to the (parent node,
    letter) that first reached each, node = parent·letter.  That order
    depends only on the previous sphere's and the letters', never on the
    trie's history.  Past cap elements it raises SizeOverflow: a free ball
    before the walk, from its closed-form size 1 + 2r((2r - 1)^k - 1)/(2r - 2),
    any other at its first element past cap."""
    alphabet = [(g, s) for g in generators or presentation.metric_generators for s in (1, -1)]
    r = len(alphabet) // 2
    if presentation.kind == FREE:  # 2r(2r - 1)^(j - 1) reduced words at radius j >= 1
        if 1 + (2 * k if r == 1 else r * ((2 * r - 1) ** k - 1) // (r - 1)) > cap:
            raise SizeOverflow(f"a free ball of radius {k} has more than {cap} elements")
    steps = [(letter, (presentation._index[letter],)) for letter in alphabet]
    seen = {0}
    frontier: Iterable[int] = [0]
    for radius in range(1, k + 1):
        layer: Dict[int, Tuple[int, Letter]] = {}
        for node in frontier:
            for letter, step in steps:
                nxt = presentation._extend(node, step)
                if nxt not in seen and nxt not in layer:
                    layer[nxt] = (node, letter)
                    if len(seen) + len(layer) > cap:
                        raise SizeOverflow(f"ball exceeds cap {cap} at radius {radius}")
        seen.update(layer)
        frontier = layer
        yield layer


def sphere_sizes(
    presentation: Presentation, k: int, cap: int = DEFAULT_BALL_CAP
) -> Tuple[int, ...]:
    """|S(0)| .. |S(k)| of the ball of radius k (see ball_tree), counted on
    trie node ids: no Word is built and no tree kept."""
    return (1,) + tuple(len(layer) for layer in _spheres(presentation, k, cap))


def _ball(
    presentation: Presentation, k: int, cap: int
) -> Tuple[List[int], Tuple[Tuple[int, Letter], ...], Tuple[int, ...]]:
    """(trie nodes, tree, sphere sizes) of the BFS of B(k).  A parent lies on
    the sphere before its child's, so only that sphere's indices are kept."""
    nodes, tree, sizes = [0], [(-1, (0, 0))], [1]
    index = {0: 0}
    for layer in _spheres(presentation, k, cap):
        tree.extend((index[parent], letter) for parent, letter in layer.values())
        index = {node: i for i, node in enumerate(layer, len(nodes))}
        nodes.extend(layer)
        sizes.append(len(layer))
    return nodes, tuple(tree), tuple(sizes)


def ball_tree(
    presentation: Presentation, k: int, cap: int = DEFAULT_BALL_CAP
) -> Tuple[Tuple[Tuple[int, Letter], ...], Tuple[int, ...]]:
    """(tree, sphere sizes) of the ball of radius k over the metric
    generators and their inverses, a BFS on trie node ids that keeps no
    Word.  tree[i] = (parent, letter) spells element i as element parent ·
    letter, tree[0] is the identity, and the spheres are contiguous, each in
    the order first reached, so B(j) is the first |B(j)| entries for every
    j <= k.  Past cap elements it raises SizeOverflow, a free ball before the
    walk."""
    return _ball(presentation, k, cap)[1:]


def enumerate_ball(
    presentation: Presentation, k: int, cap: int = DEFAULT_BALL_CAP
) -> Tuple[Word, ...]:
    """The Words of the ball of radius k in the order of ball_tree, each read
    back from its trie node: only a caller that reads the Words needs this."""
    return tuple(presentation._word(node) for node in _ball(presentation, k, cap)[0])


@dataclass(frozen=True)
class ShellSelection:
    """Radii whose shell growth passes |B(k+1)| - |B(k)| <= C|B(k)|/k, plus
    the smallest constant that would admit at least one radius and the ball
    sizes |B(0)| .. |B(k_max+1)| it was measured on.  It holds no ball: a
    caller walks ball_tree(presentation, k + 1), whose BFS layers are a
    prefix of those of B(k_max + 1)."""

    radii: Tuple[int, ...]
    minimal_c: float
    measured: Tuple[float, ...]
    sizes: Tuple[int, ...]


def select_shell_radii(
    presentation: Presentation, k_max: int, growth_constant: Optional[float] = None
) -> ShellSelection:
    """Admissible radii up to k_max for growth_constant; None takes the
    minimal constant, so that the radii attaining it are admitted."""
    sizes = np.cumsum(sphere_sizes(presentation, k_max + 1))  # |B(0)| .. |B(k_max+1)|
    measured = [
        float(k * (sizes[k + 1] - sizes[k]) / sizes[k]) for k in range(1, k_max + 1)
    ]
    minimal_c = min(measured) if measured else float("inf")
    if growth_constant is None:
        growth_constant = minimal_c * (1.0 + 1e-9)
    return ShellSelection(
        radii=tuple(k for k, c_k in enumerate(measured, 1) if c_k <= growth_constant),
        minimal_c=minimal_c,
        measured=tuple(measured),
        sizes=tuple(int(s) for s in sizes),
    )
