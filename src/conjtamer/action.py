"""Group actions: a presentation plus one diffeomorphism per generator.

Realization of words is by composition (left letter outermost, so a word acts
as w(x) = l1(l2(...(x)))), which makes word_realize a homomorphism for the
compose operation and accumulates log-derivatives through the chain rule.
Word evaluation walks the letters' plans (diffeo.WalkState), so a conjugator
shared by consecutive letters is inverted once, not once per letter.  A set
of words at one point set walks as a tree (`Action.walk_tree`): each node is
a letter times its parent's word, so its walk is its parent's stepped once,
and every walk starts in the letters' shared coordinates.  A list of words
walks the tree of its suffixes (`Action.walk_words`): relation checks, ball
averages and word images walk this way, and the Deroin series its ball tree.

An inverse letter is the generator's reversed plan (Diffeo.as_plan(-1)), so
no walk builds an inverse map: a conjugated rotation's inverse letter walks as
z -> z - α in the same coordinates as its forward letter.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from .diffeo import Diffeo, WalkState, compose, conjugate_maps, identity, invert
from .errors import RelationViolation, UnknownGenerator
from .space import Space
from .words import Letter, Presentation, Word

Array = np.ndarray

# most points that the kept walks of Action.walk_tree hold (each holds up to
# four arrays of its points)
_WALK_POINTS = 2**20


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
        self, tree: Sequence[Tuple[int, Letter]], x, order: Optional[Iterable[int]] = None
    ) -> Iterator[WalkState]:
        """The walks at the points x of the nodes of a word tree listed in
        order (default: every node but the root, in tree order).  tree[i] =
        (parent, letter) spells node i as letter · word(parent) and tree[0]
        is the root, the empty word, so a node's walk is its parent's stepped
        once by the letter's plan.  Walks start in the shared coordinates of
        the tree's letters (WalkState.start), so words of conjugated rotations
        h∘R∘h⁻¹ invert h once and cost one jet of h each.  A walk is kept
        until the last listed node that steps from it or yields it, and at
        most _WALK_POINTS points' worth of walks are kept: past that the
        least recently used goes, and is walked again from its nearest kept
        ancestor, with the same bits."""
        order = list(range(1, len(tree)) if order is None else order)
        # last[i]: the last position that steps from or yields node i's walk
        # when none is dropped for room (the nodes first reached, and the one
        # above them reached before)
        last = {0: -1}
        for k, node in enumerate(order):
            while node not in last:
                last[node] = k
                node = tree[node][0]
            last[node] = k
        plans = {lt: self.generator(lt[0]).as_plan(lt[1]) for lt in {lt for _, lt in tree[1:]}}
        start = WalkState.start(x, plans.values())
        room = max(1, _WALK_POINTS // max(1, start.z.size))
        walks: Dict[int, WalkState] = {}
        for k, node in enumerate(order):
            path, top = [], node
            while top and top not in walks:
                path.append(top)
                top = tree[top][0]
            walk = walks.pop(top, start)
            if top and last[top] > k:  # re-inserted: the most recently used
                walks[top] = walk
            for node in reversed(path):
                walk = walk.step(plans[tree[node][1]])
                if last[node] > k:
                    walks[node] = walk
            while len(walks) > room:
                walks.pop(next(iter(walks)))
            yield walk

    def walk_words(self, words: Iterable[Sequence[Letter]], x) -> Iterator[WalkState]:
        """The walk of each word at the points x, in order: walk_tree over
        the tree of the words' suffixes, walk(seq) = walk(seq[1:]).step(plan
        of seq[0]), so a suffix that several words share is stepped once."""
        words = [tuple(w) for w in words]
        tree, nodes = [(-1, (0, 0))], {(): 0}
        for seq in words:
            for j in range(len(seq) - 1, -1, -1):
                if seq[j:] not in nodes:
                    nodes[seq[j:]] = len(tree)
                    tree.append((nodes[seq[j + 1 :]], seq[j]))
        return self.walk_tree(tree, x, [nodes[seq] for seq in words])

    def word_cocycle(self, letters: Iterable[Letter], x) -> Tuple[Array, Array]:
        """(log D(w)(x), w(x)) along one walk of the letters' plans."""
        y, acc = next(self.walk_words([letters], x)).point()
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
    walks = action.walk_words((side for rule in rules for side in rule), nodes)
    for lhs, rhs in rules:
        d = next(walks).point()[0] - next(walks).point()[0]
        if action.space.is_circle:
            d = d - round(float(np.mean(d)))
        dev = float(np.max(np.abs(d)))
        label = f"{Word(lhs).display(names)} = {Word(rhs).display(names)}"
        deviations[label] = dev
        if raise_on_fail and dev > tol:
            raise RelationViolation(label, dev, tol)
    return deviations
