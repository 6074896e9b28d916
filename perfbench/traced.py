"""Runs one conjtamer CLI command with the public functions of every layer
wrapped in timing spans, then writes the spans to a .npz file.

    python3 perfbench/traced.py SPANS.npz OP_ID -- tame-c1 --spec a.spec --out o

The wrapping happens from outside the program: each target name is rebound in
every conjtamer module that holds it (the `from .x import y` copies too) and
methods are patched on their classes.  Spans stay in memory until the command
ends.  A span records its name, start, end, parent span and the size of its
first array argument; every span of the run shares the operation id given on
the command line.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

# module -> qualified names of the functions and methods that get a span
TARGETS = {
    "specfile": ["build_action"],
    "expressions": ["Expression.value", "Expression.derivative"],
    "gridfn": ["GridFunction.__call__"],
    "diffeo": [
        "Diffeo.eval_lift", "Diffeo.invert_lift", "Diffeo._invert01",
        "compose", "invert", "conjugate_action",
    ],
    "words": [
        "Presentation.normal_form", "Presentation.check_confluence",
        "enumerate_ball", "select_shell_radii",
    ],
    "action": [
        "Action.__init__", "Action.word_cocycle", "Action.conjugated",
        "validate_relations",
    ],
    "cohomology": [
        "birkhoff_field", "cocycle_defect", "_defect_refined",
        "conjugacy_from_log_density", "nilpotent_average_solution",
        "path_of_conjugates",
    ],
    "taming": ["deroin_cdf", "tame_lipschitz", "pushforward_check"],
    "periodic": ["find_periodic_points", "flatten_hyperbolic", "detect_resilient"],
    "pipeline": ["dumps_canonical"],
}

# Calls on these methods count as an evaluation of an inverse that
# Action.__init__ built, when `self` is one (or is its log-derivative).
_USE_HOOKS = {"Diffeo.eval_lift", "Diffeo.invert_lift", "GridFunction.__call__"}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.size = array("q")
        self.outer = array("b")  # 1 unless nested inside a span of its own name
        self._stack: list = []
        self._depth: list = []
        self._inverse_of: dict = {}  # id(inverse or its log_deriv) -> index
        self._keep: list = []  # holds the inverses so their ids stay unique
        self.used: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def enter(self, nid: int, size: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(size)
        self.outer.append(self._depth[nid] == 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    def add_inverses(self, inverses) -> None:
        for inv in inverses:
            k = len(self._keep)
            self._keep.append(inv)
            self._inverse_of[id(inv)] = k
            self._inverse_of[id(inv.log_deriv)] = k

    def note_use(self, obj) -> None:
        k = self._inverse_of.get(id(obj))
        if k is not None:
            self.used.add(k)

    @property
    def inverses_built(self) -> int:
        return len(self._keep)


_ndarray = None  # numpy.ndarray, bound by install() once conjtamer is imported


def _first_array_size(args) -> int:
    for a in args:
        if isinstance(a, _ndarray):
            return int(a.size)
    return 0


def _wrap(tracer: Tracer, name: str, fn, use_hook: bool = False,
          size_of_result: bool = False):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if use_hook:
            tracer.note_use(args[0])
        idx = tracer.enter(nid, 0 if size_of_result else _first_array_size(args))
        try:
            out = fn(*args, **kwargs)
            if size_of_result:
                tracer.size[idx] = len(out)
            return out
        finally:
            tracer.exit(idx, nid)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wraps every target; call after conjtamer is imported."""
    global _ndarray
    import numpy

    _ndarray = numpy.ndarray
    mods = {
        key: mod for key, mod in sys.modules.items()
        if key == "conjtamer" or key.startswith("conjtamer.")
    }
    for short, names in TARGETS.items():
        home = mods[f"conjtamer.{short}"]
        for qual in names:
            span = f"{short}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                wrapped = _wrap(tracer, span, orig, use_hook=qual in _USE_HOOKS)
                if qual == "Action.__init__":
                    wrapped = _registering_init(tracer, wrapped)
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(home, qual)
            wrapped = _wrap(tracer, span, orig,
                            size_of_result=qual == "dumps_canonical")
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
    pipeline = mods["conjtamer.pipeline"]
    pipeline._stage = _traced_stage(tracer, pipeline._stage)


def _registering_init(tracer: Tracer, init):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.add_inverses(self.inverses)

    return wrapper


def _traced_stage(tracer: Tracer, stage):
    @contextmanager
    def traced(report, name):
        nid = tracer.name_id(f"pipeline.stage.{name}")
        idx = tracer.enter(nid, 0)
        try:
            with stage(report, name):
                yield
        finally:
            tracer.exit(idx, nid)

    return traced


def save(tracer: Tracer, path: str, op_id: int) -> None:
    import numpy as np

    np.savez(
        path,
        names=np.array(tracer.names, dtype=str),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        size=np.frombuffer(tracer.size, dtype=np.int64),
        outer=np.frombuffer(tracer.outer, dtype=np.int8),
        op=np.array(op_id),
        inverses_built=np.array(tracer.inverses_built),
        inverses_used=np.array(len(tracer.used)),
    )


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer()
    nid = tracer.name_id("perfbench.import")
    idx = tracer.enter(nid, 0)
    import conjtamer.cli

    install(tracer)
    tracer.exit(idx, nid)
    nid = tracer.name_id("cli.main")
    idx = tracer.enter(nid, 0)
    try:
        rc = conjtamer.cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.exit(idx, nid)
    save(tracer, spans_path, op_id)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
