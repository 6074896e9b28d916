"""Lipschitz taming: conjugate an action by the CDF of a truncated
geometrically-weighted pushforward measure.

The measure is mu = sum over the ball of radius N of lambda^len(w) * w_*(Leb);
its normalized CDF F straightens the action so that every generator's
difference quotients are certified close to 1/lambda, up to an explicit tail
slack from the truncation.  The series walks every orbit along the ball
tree (Action.walk_tree), one step per element, depth first, so it keeps no
more walks than the radius.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Optional, Tuple

import numpy as np

from .action import Action
from .diffeo import Diffeo, Primitive
from .errors import LambdaOutOfRange
from .words import FREE, ball_tree

Array = np.ndarray

# A run refuses to certify when the truncated tail exceeds this fraction of
# the total mass; the reference run (lambda=e^{-0.1}, N=40 on a two-sphere
# group) sits at 0.0177, so 0.02 keeps honest headroom without passing junk.
DEFAULT_TAIL_REFUSAL = 0.02


class DeroinMeasure(namedtuple(
    "DeroinMeasure", "lam radius conjugator mass tail_bound sphere_sizes cdf_raw sums"
)):
    """Truncated weighted pushforward measure, represented by its CDF.

    conjugator: the normalized CDF as a diffeomorphism (log-derivative = log
    density), evaluated through the series;
    mass/tail_bound are for the raw (unnormalized) series;
    sums: raw_sums' walks, by point set.
    """

    __slots__ = ()

    def raw_sums(self, g: Optional[Diffeo] = None, sign: int = 1) -> Array:
        """The raw CDF at the nodes, or at their images under g^sign: one
        walk of the series per point set, kept for later callers."""
        key = None if g is None else (g, sign)
        if key not in self.sums:
            x = self.conjugator.space.nodes
            self.sums[key] = self.cdf_raw(x if g is None else g.apply(x, sign)[0])
        return self.sums[key]

    def mass_bound_certificate(self) -> Tuple[float, float, float]:
        """(mass, bound, measured growth constant C): mass <= 2C/(1-lam')
        with lam' = (lam+1)/2, C measured from |B(n)| <= C*((lam+1)/(2*lam))^n."""
        lam_p = 0.5 * (self.lam + 1.0)
        base = lam_p / self.lam
        sizes = np.cumsum(self.sphere_sizes)
        c_measured = max(
            sizes[n] / base**n for n in range(len(sizes))
        )
        return self.mass, 2.0 * c_measured / (1.0 - lam_p), float(c_measured)


def _tail_bound(lam: float, sphere_sizes: Tuple[int, ...]) -> float:
    """Sum over radii beyond the truncation of lambda^n * (extrapolated sphere
    size), using the worst recent growth ratio; infinite when that diverges."""
    n_last = len(sphere_sizes) - 1
    s_last = sphere_sizes[-1]
    if s_last == 0:
        return 0.0  # the group was exhausted: nothing is truncated
    ratios = [
        sphere_sizes[k + 1] / sphere_sizes[k]
        for k in range(max(1, n_last - 2), n_last)
        if sphere_sizes[k] > 0
    ]
    growth = max(ratios) if ratios else 1.0
    if lam * growth >= 1.0:
        return float("inf")
    return s_last * lam**n_last * (lam * growth) / (1.0 - lam * growth)


def deroin_cdf(action: Action, lam: float, radius: int) -> DeroinMeasure:
    """CDF of sum_{len(w)<=radius} lambda^len(w) * w_*(Leb), normalized to
    total mass one, with the raw series evaluator attached."""
    if not (0.0 < lam < 1.0):
        raise LambdaOutOfRange(f"need 0 < lambda < 1, got {lam}")
    if radius < 0:
        raise LambdaOutOfRange(f"need radius >= 0, got {radius}")
    r = len(action.presentation.metric_generators)  # free spheres grow by 2r - 1
    if action.presentation.kind == FREE and lam * (2 * r - 1) >= 1.0:
        raise LambdaOutOfRange(f"need lambda*(2r - 1) < 1 on a free group, r = {r}, got {lam}")
    space = action.space
    tree, sizes = ball_tree(action.presentation, radius)
    # BFS layers are contiguous: element i lies on the sphere of its layer
    weights = lam ** np.repeat(np.arange(len(sizes)), sizes).astype(float)
    mass = float(np.sum(weights))  # each w_*(Leb) has unit mass

    # w·l extends the orbit of w by l^{-1}: a step along the reversed plan of l
    orbit_tree = [(parent, (g, -s)) for parent, (g, s) in tree]

    def walk(x):
        """Unnormalized CDF sum of weights * (w^{-1}(x) - w^{-1}(0)), on
        lifts, and the log of its density sum of weights * D(w^{-1})(x).
        The orbits walk along the ball tree (Action.walk_tree), one step per
        element."""
        x = np.concatenate([np.atleast_1d(np.asarray(x, dtype=float)), [0.0]])
        acc = dens = 0.0
        for node, orbit in action.walk_tree(orbit_tree, x):
            y, ld = orbit.point()
            dens = dens + weights[node] * np.exp(ld)
            acc = acc + weights[node] * y
        raw = acc[:-1] - acc[-1]
        return raw, np.log(dens[:-1])

    def normalized(raw, log_dens):
        return raw / mass, log_dens - np.log(mass)

    # one walk at the nodes gives the conjugator's tracks and raw_sums();
    # its inverse is Newton on the jet (the CDF vanishes at 0: no shift)
    at_nodes = walk(space.nodes)
    prim = Primitive(space.is_circle, lambda x: normalized(*walk(x)))
    conjugator = Diffeo._sampled(space, *normalized(*at_nodes), ((prim, 1),))
    prim.bwd = conjugator._invert01
    return DeroinMeasure(
        lam=lam,
        radius=radius,
        conjugator=conjugator,
        mass=mass,
        tail_bound=_tail_bound(lam, sizes),
        sphere_sizes=sizes,
        cdf_raw=lambda x: walk(x)[0],
        sums={None: at_nodes[0]},
    )


class GeneratorTaming(namedtuple(
    "GeneratorTaming",
    "name lip lip_inv lip_coarse lip_inv_coarse two_scale_ok lip_uniform_grid",
)):
    """One generator's tamed Lipschitz constants; lip_uniform_grid is a
    diagnostic, the quotients of the tamed track itself."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {k: v for k, v in self._asdict().items() if k != "name"}


class TamingReport(namedtuple(
    "TamingReport", "lam radius mass tail_bound slack bound refuse_threshold "
    "per_generator certified",
)):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "radius": self.radius,
            "mass": self.mass,
            "tail_bound": self.tail_bound,
            "slack": self.slack,
            "lip_bound": self.bound,
            "refuse_threshold": self.refuse_threshold,
            "per_generator": {
                name: g.to_dict() for name, g in self.per_generator.items()
            },
            "certified": self.certified,
        }


def _image_partition_quotients(
    measure: DeroinMeasure, g: Diffeo, sign: int = 1, stride: int = 1
) -> float:
    """Max difference quotient of F∘g^sign∘F^{-1} measured over the image
    partition {F(x_i)}, x_i every stride-th node: mass ratio of g^sign(cell)
    to cell under the measure with CDF F = raw / mass."""
    F = lambda raw: raw[::stride] / measure.mass
    num = np.diff(F(measure.raw_sums(g, sign)))
    den = np.diff(F(measure.raw_sums()))
    return float(np.max(num / den))


def tame_lipschitz(
    action: Action,
    lam: float,
    radius: int,
    refuse_threshold: float = DEFAULT_TAIL_REFUSAL,
) -> Tuple[Action, TamingReport, DeroinMeasure]:
    """Conjugates every generator by the measure CDF and certifies the
    difference-quotient maxima against (1/lambda)*(1+slack).

    Quotients are measured at two grid scales (h and 2h) and certified only
    when they agree within 5%; slack = tail_bound / mass.
    """
    measure = deroin_cdf(action, lam, radius)
    F = measure.conjugator
    slack = measure.tail_bound / measure.mass
    bound = (1.0 / lam) * (1.0 + slack)
    tamed = action.conjugated(F)

    per_gen: Dict[str, GeneratorTaming] = {}
    ok = np.isfinite(slack) and slack <= refuse_threshold
    for name, g, tg in zip(action.names, action.gens, tamed.gens):
        lip = _image_partition_quotients(measure, g)
        lip_inv = _image_partition_quotients(measure, g, -1)
        lip_c = _image_partition_quotients(measure, g, stride=2)
        lip_inv_c = _image_partition_quotients(measure, g, -1, stride=2)
        two_scale = abs(lip - lip_c) <= 0.05 * lip and abs(
            lip_inv - lip_inv_c
        ) <= 0.05 * lip_inv
        uniform = float(np.max(np.diff(tg.values) / tg.space.h))
        per_gen[name] = GeneratorTaming(
            name, lip, lip_inv, lip_c, lip_inv_c, two_scale, uniform
        )
        ok = ok and two_scale and lip <= bound and lip_inv <= bound

    report = TamingReport(
        lam=lam,
        radius=radius,
        mass=measure.mass,
        tail_bound=measure.tail_bound,
        slack=slack,
        bound=bound,
        refuse_threshold=refuse_threshold,
        per_generator=per_gen,
        certified=bool(ok),
    )
    return tamed, report, measure


def pushforward_check(
    action: Action, measure: DeroinMeasure, noise_floor: float = 1e-12
) -> Dict[str, dict]:
    """For every generator g and every grid cell I: raw mass of g^{-1}(I) must
    be <= raw mass of I / lambda + 2*tail_bound.  Returns per-generator
    max signed violation and the count of cells violating beyond float noise."""
    cell_mass = np.diff(measure.raw_sums())
    budget = cell_mass / measure.lam + 2.0 * measure.tail_bound
    out: Dict[str, dict] = {}
    for name, g in zip(action.names, action.gens):
        pre_mass = np.diff(measure.raw_sums(g, -1))
        violation = pre_mass - budget
        out[name] = {
            "max_violation": float(np.max(violation)),
            "violations": int(np.sum(violation > noise_floor * measure.mass)),
        }
    return out
