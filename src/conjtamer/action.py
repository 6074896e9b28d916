"""Group actions: a presentation plus one diffeomorphism per generator.

Realization of words is by composition (left letter outermost, so a word acts
as w(x) = l1(l2(...(x)))), which makes word_realize a homomorphism for the
compose operation and accumulates log-derivatives through the chain rule.
Word evaluation walks the letters' plans (diffeo.WalkState), so a conjugator
shared by consecutive letters is inverted once, not once per letter.  A set
of words at one point set walks as a tree (`Action.walk_tree`), depth first:
each node is a letter times its parent's word, so its walk is its parent's
stepped once, every walk starts in the letters' shared coordinates, and a
walk is kept only until its last child has stepped from it.  A list of words
walks the tree of its suffixes (`Action.walk_words`), yielding each word's
index as it is reached: relation checks and word images walk this way, the
nilpotent ball average and the Deroin series their ball tree, a Z^d sum its cube.

An inverse letter is the generator's reversed plan (Diffeo.as_plan(-1)), so
no walk builds an inverse map: a conjugated rotation's inverse letter walks as
z -> z - α in the same coordinates as its forward letter.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from .diffeo import Diffeo, WalkState, compose, conjugate_maps, identity, invert
from .errors import RelationViolation, UnknownGenerator
from .space import Space
from .words import Letter, Presentation, Word

Array = np.ndarray


class Action:
    def __init__(
        self,
        space: Space,
        presentation: Presentation,
        generators: Mapping[str, Diffeo] | Sequence[Diffeo],
    ):
        self.space = space
        self.presentation = presentation
        if isinstance(generators, Mapping):
            missing = [n for n in presentation.generators if n not in generators]
            if missing:
                raise UnknownGenerator(f"no diffeo for generator(s) {missing}")
            gens = [generators[n] for n in presentation.generators]
        else:
            gens = list(generators)
            if len(gens) != presentation.rank:
                raise UnknownGenerator(
                    f"presentation has {presentation.rank} generators, "
                    f"got {len(gens)} diffeos"
                )
        for g in gens:
            space.check_same(g.space)
        self.gens: Tuple[Diffeo, ...] = tuple(gens)

    @property
    def names(self) -> Tuple[str, ...]:
        return self.presentation.generators

    @property
    def rank(self) -> int:
        return self.presentation.rank

    @property
    def inverses(self) -> Tuple[Diffeo, ...]:
        """Every g_i^{-1} as a map, built anew on each read; walks and the
        package's own stages use the reversed plans instead."""
        return tuple(invert(g) for g in self.gens)

    def generator(self, key) -> Diffeo:
        if isinstance(key, str):
            try:
                key = self.names.index(key)
            except ValueError:
                raise UnknownGenerator(f"no generator named {key!r}") from None
        if not (0 <= key < self.rank):
            raise UnknownGenerator(f"generator index {key} out of range")
        return self.gens[key]

    # -- word evaluation without building composite diffeos ------------------

    def walk_tree(
        self, tree: Sequence[Tuple[int, Letter]], x
    ) -> Iterator[Tuple[int, WalkState]]:
        """(node, walk) at the points x for every node of a word tree, the
        root first, depth first with children in tree order.  tree[i] =
        (parent, letter) spells node i as letter · word(parent) and tree[0]
        is the root, the empty word, so a node's walk is its parent's stepped
        once by the letter's plan.  Walks start in the shared coordinates of
        the tree's letters (WalkState.start), so words of conjugated rotations
        h∘R∘h⁻¹ invert h once and cost one jet of h each.  A walk is kept
        until its last child has stepped from it: at a yield, no more walks
        are kept than the node's depth."""
        plans = {lt: self.generator(lt[0]).as_plan(lt[1]) for lt in {lt for _, lt in tree[1:]}}
        children: List[List[int]] = [[] for _ in tree]  # last first: the stack pops the first
        for node in range(len(tree) - 1, 0, -1):
            children[tree[node][0]].append(node)
        stack = [(0, WalkState.start(x, plans.values()))]  # (node, its parent's walk)
        while stack:
            node, walk = stack.pop()
            if node:
                walk = walk.step(plans[tree[node][1]])
            yield node, walk
            stack.extend((child, walk) for child in children[node])

    def walk_words(
        self, words: Iterable[Sequence[Letter]], x
    ) -> Iterator[Tuple[int, WalkState]]:
        """(index, walk) for each word at the points x, as walk_tree over the
        tree of the words' suffixes reaches it, walk(seq) =
        walk(seq[1:]).step(plan of seq[0]): a suffix that several words
        share is stepped once."""
        tree, nodes, listed = [(-1, (0, 0))], {(): 0}, {}
        for i, seq in enumerate(tuple(w) for w in words):
            for j in range(len(seq) - 1, -1, -1):
                if seq[j:] not in nodes:
                    nodes[seq[j:]] = len(tree)
                    tree.append((nodes[seq[j + 1 :]], seq[j]))
            listed.setdefault(nodes[seq], []).append(i)
        for node, walk in self.walk_tree(tree, x):
            for i in listed.get(node, ()):
                yield i, walk

    def word_cocycle(self, letters: Iterable[Letter], x) -> Tuple[Array, Array]:
        """(log D(w)(x), w(x)) along one walk of the letters' plans."""
        ((_, walk),) = self.walk_words([letters], x)
        y, acc = walk.point()
        return acc, y

    # -- transformations ------------------------------------------------------

    def conjugated(self, phi: Diffeo) -> "Action":
        """The action with every generator replaced by phi ∘ g ∘ phi^{-1}:
        the head the plans share (phi, and a shared h) is inverted once."""
        return Action(self.space, self.presentation, conjugate_maps(self.gens, phi))

    def __repr__(self):
        return f"Action({self.space}, <{', '.join(self.names)}>)"


def word_realize(action: Action, word: Word) -> Diffeo:
    """Realizes a word as a diffeomorphism by composing its letters."""
    result = identity(action.space)
    for g, s in word.letters:
        f = action.generator(g)
        result = compose(result, f if s > 0 else invert(f))
    return result


def validate_relations(
    action: Action, tol: float = 1e-6, raise_on_fail: bool = True
) -> Dict[str, float]:
    """Measures sup |lhs(x) - rhs(x)| on the grid for every rewriting rule,
    treated as the relation lhs = rhs; all sides walk together."""
    nodes = action.space.nodes
    deviations: Dict[str, float] = {}
    names = action.names
    rules = action.presentation.rules
    points = [None] * (2 * len(rules))  # lhs, rhs of each rule
    for i, walk in action.walk_words((side for rule in rules for side in rule), nodes):
        points[i] = walk.point()[0]
    for (lhs, rhs), left, right in zip(rules, points[::2], points[1::2]):
        d = left - right
        if action.space.is_circle:
            d = d - round(float(np.mean(d)))
        dev = float(np.max(np.abs(d)))
        label = f"{Word(lhs).display(names)} = {Word(rhs).display(names)}"
        deviations[label] = dev
        if raise_on_fail and dev > tol:
            raise RelationViolation(label, dev, tol)
    return deviations
