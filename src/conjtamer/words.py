"""Words, presentations, rewriting to normal form, and ball enumeration.

A word is a sequence of (generator index, sign) letters.  A presentation
carries the generator names, a terminating rewriting system (free cancellation
is always active), and optional bounded-generation data.  Normal forms come
from a stack reducer that only rewrites at the top of an irreducible prefix;
a Knuth-Bendix critical-pair check proves the rules confluent, so that normal
form is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConjTamerError, SizeOverflow, UnknownGenerator

Letter = Tuple[int, int]  # (generator index, +1 or -1)

DEFAULT_BALL_CAP = 10**7
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

    def exponent_vector(self, d: int) -> Tuple[int, ...]:
        v = [0] * d
        for g, s in self.letters:
            v[g] += s
        return tuple(v)

    def display(self, names: Sequence[str]) -> str:
        if not self.letters:
            return "1"
        parts = []
        for g, s in self.letters:
            parts.append(names[g] if s > 0 else names[g] + "^-1")
        return " ".join(parts)


def word_from_exponents(exponents: Sequence[int]) -> Word:
    """f_1^{k_1} ... f_d^{k_d} with the generators in index order."""
    letters: List[Letter] = []
    for g, k in enumerate(exponents):
        sign = 1 if k >= 0 else -1
        letters.extend([(g, sign)] * abs(k))
    return Word(tuple(letters))


class Presentation:
    """Generator names + rewriting rules (+ optional bounded generation)."""

    def __init__(
        self,
        generators: Sequence[str],
        rules: Iterable[Tuple[Sequence[Letter], Sequence[Letter]]] = (),
        kind: str = FREE,
        bounded_generation: Optional[int] = None,
        metric_generators: Optional[Sequence[int]] = None,
    ):
        self.generators = tuple(generators)
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
        # lhs as a list and rhs reversed, keyed by the last letter of lhs
        self._by_last: Dict[Letter, List[Tuple[List[Letter], List[Letter]]]] = {}
        for lhs, rhs in self._rewrites:
            self._by_last.setdefault(lhs[-1], []).append((list(lhs), list(rhs[::-1])))

    @property
    def rank(self) -> int:
        return len(self.generators)

    # -- rewriting ----------------------------------------------------------

    def normal_form(self, word: Word, prefix: Tuple[Letter, ...] = ()) -> Word:
        """Normal form of prefix·word, where prefix is already a normal form.

        Letters are pushed one at a time onto an irreducible stack; a redex
        can then only end at the top, so only the top is rewritten and the
        right-hand side goes back onto the input.  Once check_confluence has
        passed, the result is the unique normal form."""
        if self.kind == ABELIAN:
            return word_from_exponents(
                Word(prefix + word.letters).exponent_vector(self.rank)
            )
        out = list(prefix)
        todo = list(reversed(word.letters))
        rewrites = 0
        while todo:
            out.append(todo.pop())
            for lhs, rhs in self._by_last.get(out[-1], ()):
                if out[-len(lhs) :] == lhs:
                    del out[-len(lhs) :]
                    todo.extend(rhs)
                    rewrites += 1
                    break
            if rewrites > _MAX_REWRITES:
                raise ConjTamerError("rewriting did not terminate")
        return Word(tuple(out))

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
        rules = []
        for j in range(d):
            for i in range(j):
                for sj in (1, -1):
                    for si in (1, -1):
                        rules.append((((j, sj), (i, si)), ((i, si), (j, sj))))
        return cls(names, rules, kind=ABELIAN)

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


@dataclass(frozen=True)
class Ball:
    """An ordered, duplicate-free list of normal-form words.

    tree[i] = (parent index, letter) reconstructs element i by appending one
    letter to an earlier element (identity has parent -1); consumers use it to
    extend orbit computations one generator application at a time.
    """

    radius: int
    elements: Tuple[Word, ...]
    kind: str  # "full" | "positive"
    sphere_sizes: Tuple[int, ...] = ()
    tree: Tuple[Tuple[int, Letter], ...] = ()
    exponents: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.elements)


def enumerate_positive_ball(d: int, n: int, cap: int = DEFAULT_BALL_CAP) -> Ball:
    """{f1^k1 ... fd^kd : 0 <= ki < n} in lexicographic exponent order."""
    if d < 0 or n < 1:
        raise ValueError("need d >= 0 and n >= 1")
    total = n**d
    if total > cap:
        raise SizeOverflow(f"positive ball would have {total} > {cap} elements")
    grids = np.indices((n,) * d).reshape(d, total).T if d else np.zeros((1, 0), int)
    words = tuple(word_from_exponents(row) for row in grids)
    return Ball(
        radius=n, elements=words, kind="positive", exponents=grids.astype(np.int64)
    )


def enumerate_ball(
    presentation: Presentation, k: int, cap: int = DEFAULT_BALL_CAP
) -> Ball:
    """The full ball of radius k over the metric generators and their
    inverses, BFS layer by layer with normal-form deduplication;
    deterministic ordering.  Each frontier word is already a normal form, so
    it is only extended by one letter, not reduced again."""
    alphabet = [(g, s) for g in presentation.metric_generators for s in (1, -1)]
    seen: Dict[Tuple[Letter, ...], int] = {(): 0}
    elements: List[Word] = [Word()]
    tree: List[Tuple[int, Letter]] = [(-1, (0, 0))]
    sphere_sizes = [1]
    frontier: List[Tuple[Letter, ...]] = [()]
    for _ in range(k):
        layer: Dict[Tuple[Letter, ...], Tuple[int, Letter]] = {}
        for w in frontier:
            parent_idx = seen[w]
            for letter in alphabet:
                nf = presentation.normal_form(Word((letter,)), prefix=w).letters
                if nf not in seen and nf not in layer:
                    layer[nf] = (parent_idx, letter)
        new_words = sorted(layer)
        if len(elements) + len(new_words) > cap:
            raise SizeOverflow(f"ball exceeds cap {cap} at radius {len(sphere_sizes)}")
        for nf in new_words:
            seen[nf] = len(elements)
            elements.append(Word(nf))
            tree.append(layer[nf])
        sphere_sizes.append(len(new_words))
        frontier = new_words
    return Ball(
        radius=k,
        elements=tuple(elements),
        kind="full",
        sphere_sizes=tuple(sphere_sizes),
        tree=tuple(tree),
    )


@dataclass(frozen=True)
class ShellSelection:
    """Radii whose shell growth passes |B(k+1)| - |B(k)| <= C|B(k)|/k, plus
    the smallest constant that would admit at least one radius and the ball
    B(k_max+1) the sizes come from."""

    radii: Tuple[int, ...]
    minimal_c: float
    measured: Tuple[float, ...]
    sizes: Tuple[int, ...]
    ball: Ball


def select_shell_radii(
    presentation: Presentation, k_max: int, growth_constant: Optional[float] = None
) -> ShellSelection:
    """Admissible radii up to k_max for growth_constant; None takes the
    minimal constant, so that the radii attaining it are admitted."""
    ball = enumerate_ball(presentation, k_max + 1)
    sizes = np.cumsum(ball.sphere_sizes)  # |B(0)| .. |B(k_max+1)|
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
        ball=ball,
    )
