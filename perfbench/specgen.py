"""Seeded action specs for the benchmark workloads.

The benchmark never reads `specs/`: every input is written here from a seed,
so retuning a bundled spec cannot silently change what is measured.  Seed 0
gives the bundled parameters (distortion 0.1, angles 0.618034 and 0.414214,
Moebius b = 2); other seeds draw them from narrow ranges so that run time and
accuracy move little between seeds.

Rotation angles stay badly approximable: a seeded angle keeps the first
continued-fraction quotients of the bundled angle and draws every later
quotient from {1, 2}, so all of its partial quotients are bounded by 2.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

LAMBDA = repr(math.exp(-0.1))

# Run sizes.  "full" is the bundled configuration that the ROADMAP baseline
# was measured on; "bench" shrinks grids and ball radii so that one pass
# takes seconds, not minutes; "tiny" is for the self-test.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "torus-c1": {"grid": 4096, "nmax": 24},
        "torus-path": {"grid": 4096, "nmax": 24, "steps": 8},
        "interval-hyperbolic": {"grid": 4096, "radius": 40, "nmax": 48},
        "heisenberg": {"grid": 4096, "k_max": 8},
    },
    "bench": {
        "torus-c1": {"grid": 512, "nmax": 12},
        "torus-path": {"grid": 1024, "nmax": 8, "steps": 6},
        "interval-hyperbolic": {"grid": 1024, "radius": 40, "nmax": 48},
        "heisenberg": {"grid": 256, "k_max": 8},
    },
    "tiny": {
        "torus-c1": {"grid": 128, "nmax": 4},
        "torus-path": {"grid": 128, "nmax": 3, "steps": 2},
        "interval-hyperbolic": {"grid": 128, "radius": 6, "nmax": 8},
        "heisenberg": {"grid": 128, "k_max": 3},
    },
}

_GOLDEN = [1] * 10  # 0.618034 = [0; 1, 1, 1, ...]
_SILVER = [2] * 10  # 0.414214 = [0; 2, 2, 2, ...]


def _continued_fraction(quotients: List[int]) -> float:
    x = 0.0
    for a in reversed(quotients):
        x = 1.0 / (a + x)
    return x


def _angle(rng: random.Random, head: List[int]) -> str:
    tail = [rng.choice((1, 2)) for _ in range(40)]
    return repr(_continued_fraction(head + tail))


def draw(seed: int) -> dict:
    """The seeded parameters shared by all workloads."""
    if seed == 0:
        return {"amp": "0.1", "angle1": "0.618034", "angle2": "0.414214", "b": "2"}
    rng = random.Random(seed)
    return {
        "amp": repr(round(rng.uniform(0.099, 0.101), 6)),
        "angle1": _angle(rng, _GOLDEN),
        "angle2": _angle(rng, _SILVER),
        "b": repr(round(rng.uniform(1.99, 2.01), 6)),
    }


def _torus(p: dict, grid: int, pipeline: List[str]) -> str:
    h = f"x + {p['amp']}*sin(2*pi*x)"
    return "\n".join([
        "[space]", "kind = circle", f"grid_size = {grid}", "",
        "[group]", "type = abelian", "generators = g1 g2", "",
        "[generators]",
        f"g1 = conj({h}, {p['angle1']})",
        f"g2 = conj({h}, {p['angle2']})", "",
        "[pipeline]", *pipeline, "",
    ])


def spec_text(workload: str, seed: int, size: str = "bench") -> str:
    """The spec file text of one workload at one seed and size."""
    p = draw(seed)
    s = SIZES[size][workload]
    if workload == "torus-c1":
        return _torus(p, s["grid"], ["epsilon = 0.01", f"nmax = {s['nmax']}"])
    if workload == "torus-path":
        return _torus(p, s["grid"], [f"nmax = {s['nmax']}", f"steps = {s['steps']}"])
    if workload == "interval-hyperbolic":
        b = float(p["b"])
        return "\n".join([
            "[space]", "kind = interval", f"grid_size = {s['grid']}", "",
            "[group]", "type = abelian", "generators = f", "",
            "[generators]", f"f = mobius(1, 0, {1.0 - b!r}, {b!r})", "",
            "[pipeline]", f"lambda = {LAMBDA}", f"radius = {s['radius']}",
            "epsilon = 0.25", "delta = 0.1", f"nmax = {s['nmax']}", "",
        ])
    if workload == "heisenberg":
        h = f"x + {p['amp']}*sin(2*pi*x)"
        return "\n".join([
            "[space]", "kind = circle", f"grid_size = {s['grid']}", "",
            "[group]", "type = nilpotent", "generators = a b c",
            'rules = "b a -> a b c^-1", "b a^-1 -> a^-1 b c"',
            'rules = "b^-1 a -> a b^-1 c", "b^-1 a^-1 -> a^-1 b^-1 c^-1"',
            'rules = "c a -> a c", "c a^-1 -> a^-1 c", "c b -> b c", '
            '"c b^-1 -> b^-1 c"',
            'rules = "c^-1 a -> a c^-1", "c^-1 a^-1 -> a^-1 c^-1"',
            'rules = "c^-1 b -> b c^-1", "c^-1 b^-1 -> b^-1 c^-1"',
            "bounded_generation = 7", "metric_generators = a b", "",
            "[generators]",
            f"a = conj({h}, {p['angle1']})",
            f"b = conj({h}, {p['angle2']})",
            "c = x", "",
            "[pipeline]", "epsilon = 0.75", "delta = 0.1",
            f"k_max = {s['k_max']}", "shell_index = 0", "",
        ])
    raise KeyError(workload)
