"""Spans recorded by the benchmark around the public functions of `gjc`.

`install` wraps each function in TARGETS at every name through which
callers reach it (module attributes, handler tables, class attributes).
A span holds its name, start, end, parent and whether it raised; spans are
kept in memory as flat arrays and written out once at the end of the run.
`aggregate` turns a written trace into per-function calls, total time,
self time (duration minus the time its child spans cover) and errors.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute path, metric prefix).  A class name alone means its
# constructions, traced through __init__.
TARGETS = (
    ("gjc.model", "load_model", "model.load_model"),
    ("gjc.model", "ModelSpec.validate_range", "model.ModelSpec.validate_range"),
    ("gjc.model", "NonlinearFn.__call__", "model.NonlinearFn.__call__"),
    ("gjc.states", "coherent_state", "states.coherent_state"),
    ("gjc.states", "fock_state", "states.fock_state"),
    ("gjc.states", "observables", "states.observables"),
    ("gjc.states", "QubitBosonState", "states.QubitBosonState"),
    ("gjc.analytic", "trace_observables", "analytic.trace_observables"),
    ("gjc.analytic", "evolve", "analytic.evolve"),
    ("gjc.analytic", "evolve_amplitudes", "analytic.evolve_amplitudes"),
    ("gjc.analytic", "manifolds", "analytic.manifolds"),
    ("gjc.analytic", "dark_levels", "analytic.dark_levels"),
    ("gjc.oracle", "assemble", "oracle.assemble"),
    ("gjc.oracle", "spectrum", "oracle.spectrum"),
    ("gjc.oracle", "propagate", "oracle.propagate"),
    ("gjc.algebra", "verify_relations", "algebra.verify_relations"),
    ("gjc.algebra", "build_operator_set", "algebra.build_operator_set"),
    ("gjc.algebra", "auxiliary_charges", "algebra.auxiliary_charges"),
    ("gjc.cli", "main", "cli.main"),
    ("gjc.cli", "cmd_evolve", "cli.cmd_evolve"),
    ("gjc.cli", "cmd_spectrum", "cli.cmd_spectrum"),
    ("gjc.cli", "cmd_verify", "cli.cmd_verify"),
    ("gjc.cli", "parse_initial", "cli.parse_initial"),
)

FIELDS = ("calls", "total_s", "self_s", "errors")


class Tracer:
    """Flat in-memory span store; parents precede their children."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self.stack = [-1]

    def clear(self):
        """Drop every span; wrappers made earlier keep recording."""
        for column in (self.name, self.parent, self.start, self.end, self.failed):
            del column[:]
        self.stack[:] = [-1]

    def intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        names, parents, starts, ends, failed, stack = (
            self.name, self.parent, self.start, self.end, self.failed, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            failed.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def spans(self) -> int:
        return len(self.start)

    def dump(self, path: str) -> None:
        """Write the spans as a numpy .npz file of flat columns."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )


def _rebind(original, wrapped) -> int:
    """Point every gjc module attribute and module-level dict value that
    refers to `original` at `wrapped`; returns how many names moved."""
    moved = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "gjc" or mod_name.startswith("gjc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
                moved += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped
                        moved += 1
    return moved


def install(tracer: Tracer) -> None:
    """Wrap every target; raises if a target cannot be found."""
    for module, path, prefix in TARGETS:
        mod = sys.modules[module]
        head, _, method = path.partition(".")
        owner = getattr(mod, head)
        if method:
            setattr(owner, method, tracer.wrap(prefix, vars(owner)[method]))
        elif isinstance(owner, type):
            owner.__init__ = tracer.wrap(prefix, vars(owner)["__init__"])
        elif _rebind(owner, tracer.wrap(prefix, owner)) == 0:
            raise RuntimeError(f"no name refers to {module}.{path}")


def span_cost_ns(tracer: Tracer, calls: int = 20000) -> float:
    """Measured cost of one span: a wrapped no-op minus a bare no-op."""

    def noop():
        return None

    wrapped = tracer.wrap("calibration", noop)
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter_ns()
    tracer.clear()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def aggregate(path: str):
    """Per-name totals and the per-root self-time balance of a written trace.

    Returns (stats, roots): stats maps span name to a dict of FIELDS summed
    over the trace; roots is a list of (root name, duration ns, sum of the
    self times of every span under it in ns, nesting violations).
    """
    import numpy as np

    with np.load(path) as doc:
        names = [str(label) for label in doc["names"]]
        name = doc["name"].astype(np.int64)
        parent = doc["parent"].astype(np.int64)
        start, end = doc["start_ns"], doc["end_ns"]
        failed = doc["failed"].astype(np.int64)
    n = name.size
    dur = end - start
    child = parent >= 0
    covered = np.zeros(n, dtype=np.int64)
    np.add.at(covered, parent[child], dur[child])
    self_ns = dur - covered

    root = np.where(child, parent, np.arange(n))
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    self_by_root = np.zeros(n, dtype=np.int64)
    np.add.at(self_by_root, root, self_ns)
    bad_nesting = np.zeros(n, dtype=np.int64)
    outside = child & ((start < start[np.maximum(parent, 0)]) | (end > end[np.maximum(parent, 0)]))
    np.add.at(bad_nesting, root[outside], 1)
    roots = [
        (names[name[i]], int(dur[i]), int(self_by_root[i]), int(bad_nesting[i]))
        for i in np.flatnonzero(~child)
    ]

    stats = {}
    for nid, label in enumerate(names):
        sel = name == nid
        stats[label] = {
            "calls": int(sel.sum()),
            "total_s": float(dur[sel].sum()) * 1e-9,
            "self_s": float(self_ns[sel].sum()) * 1e-9,
            "errors": int(failed[sel].sum()),
        }
    return stats, roots
