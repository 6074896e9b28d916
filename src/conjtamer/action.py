"""Group actions: a presentation plus one diffeomorphism per generator.

Realization of words is by composition (left letter outermost, so a word acts
as w(x) = l1(l2(...(x)))), which makes word_realize a homomorphism for the
compose operation and accumulates log-derivatives through the chain rule.
Word evaluation walks the letters' plans (diffeo.WalkState), so a conjugator
shared by consecutive letters is inverted once, not once per letter.

A generator's inverse is built on first use and cached (`Action.inverse`), so
an action that never applies one, such as a conjugated action, never inverts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .diffeo import Diffeo, WalkState, compose, conjugate_action, identity, invert
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
        self._inverses: List[Optional[Diffeo]] = [None] * len(gens)

    @property
    def names(self) -> Tuple[str, ...]:
        return self.presentation.generators

    @property
    def rank(self) -> int:
        return self.presentation.rank

    def inverse(self, i: int) -> Diffeo:
        """g_i^{-1}, built on first use and cached."""
        if self._inverses[i] is None:
            self._inverses[i] = invert(self.gens[i])
        return self._inverses[i]

    @property
    def inverses(self) -> Tuple[Diffeo, ...]:
        return tuple(self.inverse(i) for i in range(self.rank))

    def generator(self, key) -> Diffeo:
        if isinstance(key, str):
            try:
                key = self.names.index(key)
            except ValueError:
                raise UnknownGenerator(f"no generator named {key!r}") from None
        if not (0 <= key < self.rank):
            raise UnknownGenerator(f"generator index {key} out of range")
        return self.gens[key]

    def letter_diffeo(self, letter: Letter) -> Diffeo:
        g, s = letter
        if not (0 <= g < self.rank):
            raise UnknownGenerator(f"letter index {g} out of range")
        return self.gens[g] if s > 0 else self.inverse(g)

    # -- word evaluation without building composite diffeos ------------------

    def word_cocycle(self, letters: Iterable[Letter], x) -> Tuple[Array, Array]:
        """(log D(w)(x), w(x)) along one walk of the letters' plans."""
        plans = [self.letter_diffeo(lt).as_plan() for lt in reversed(tuple(letters))]
        walk = WalkState.start(x, plans[:1])
        for plan in plans:
            walk = walk.step(plan)
        y, acc = walk.point()
        return acc, y

    # -- transformations ------------------------------------------------------

    def conjugated(self, phi: Diffeo) -> "Action":
        """The action with every generator replaced by phi ∘ g ∘ phi^{-1}."""
        gens = [conjugate_action(g, phi) for g in self.gens]
        return Action(self.space, self.presentation, gens)

    def __repr__(self):
        return f"Action({self.space}, <{', '.join(self.names)}>)"


def word_realize(action: Action, word: Word) -> Diffeo:
    """Realizes a word as a diffeomorphism by composing its letters."""
    result = identity(action.space)
    for letter in word.letters:
        result = compose(result, action.letter_diffeo(letter))
    return result


def validate_relations(
    action: Action, tol: float = 1e-6, raise_on_fail: bool = True
) -> Dict[str, float]:
    """Measures sup |lhs(x) - rhs(x)| on the grid for every rewriting rule,
    treated as the relation lhs = rhs."""
    nodes = action.space.nodes
    deviations: Dict[str, float] = {}
    names = action.names
    for lhs, rhs in action.presentation.rules:
        d = action.word_cocycle(lhs, nodes)[1] - action.word_cocycle(rhs, nodes)[1]
        if action.space.is_circle:
            d = d - round(float(np.mean(d)))
        dev = float(np.max(np.abs(d)))
        label = f"{Word(lhs).display(names)} = {Word(rhs).display(names)}"
        deviations[label] = dev
        if raise_on_fail and dev > tol:
            raise RelationViolation(label, dev, tol)
    return deviations
