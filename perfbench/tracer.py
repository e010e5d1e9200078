"""Outside-in tracer: wraps the module-level names the layers call through.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` replaces each
target name with a wrapper that records a span (name, start, end, parent
span, op id) and updates counters from the arguments and the result;
:meth:`Tracer.restore` puts every original object back.  A target that no
longer exists is listed in ``Tracer.missing`` instead of raising, so a
refactor that renames a layer loses that layer's numbers, not the run.

Spans live in compact arrays in memory and are written once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

SUBSET_KINDS = {
    "EmptyIntersection": "geometry.subsets.empty",
    "PointIntersection": "geometry.subsets.point",
    "SphereIntersection": "geometry.subsets.sphere",
}


def _subset_boundary(counters, args, kwargs, result):
    kind, degenerate = result
    key = SUBSET_KINDS.get(type(kind).__name__)
    if key:
        counters[key] += 1
    if degenerate:
        counters["geometry.subsets.jittered"] += 1


def _contains(counters, args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    counters["geometry.poles.tested"] += len(points)
    counters["geometry.poles.kept"] += int(np.count_nonzero(result))


def _cech_scale(counters, args, kwargs, result):
    counters["cech.bisection_steps"] += int(result.iterations)


def _filtration(counters, args, kwargs, result):
    counters["filtration.subsets"] += len(result.simplices)


def _minimax(counters, args, kwargs, result):
    counters["oracle.rounds"] += len(result.history)


def _grid_refine_args(counters, args, kwargs):
    """Count the points every oracle objective evaluation receives."""
    objective = args[0]

    def counted(points):
        counters["oracle.grid_points"] += len(points)
        return objective(points)

    return (counted, *args[1:]), kwargs


# (module, attribute path, span name, kind, observe result, transform args).
# kind "call" times each call; "gen" times each next() of a generator.
# A layer function imported by name into several modules is wrapped at
# every binding its callers look up.
CECHKIT_TARGETS = (
    ("cechkit.cli", "main", "cli.main", "call", None, None),
    ("cechkit.cli", "parse_disk_system", "cli.parse", "call", None, None),
    ("cechkit.cli", "render_svg", "cli.render_svg", "call", None, None),
    ("cechkit.cli", "preprocess", "geometry.preprocess", "call", None, None),
    ("cechkit.geometry", "DiskSystem.__post_init__", "geometry.disksystem", "call", None, None),
    ("cechkit.geometry", "subset_boundary", "geometry.subset_boundary", "call", _subset_boundary, None),
    ("cechkit.geometry", "pole_directions", "geometry.pole_directions", "call", None, None),
    ("cechkit.cech", "candidate_poles", "geometry.candidate_poles", "gen", None, None),
    ("cechkit.aabb", "candidate_poles", "geometry.candidate_poles", "gen", None, None),
    ("cechkit.cli", "candidate_poles", "geometry.candidate_poles", "gen", None, None),
    ("cechkit.cech", "contains_all_batch", "geometry.contains", "call", _contains, None),
    ("cechkit.aabb", "contains_all_batch", "geometry.contains", "call", _contains, None),
    ("cechkit.cli", "contains_all_batch", "geometry.contains", "call", _contains, None),
    ("cechkit.cech", "rips_scale", "cech.rips_scale", "call", None, None),
    ("cechkit.cli", "rips_scale", "cech.rips_scale", "call", None, None),
    ("cechkit.cech", "is_cech_system", "cech.is_cech_system", "call", None, None),
    ("cechkit.cli", "is_cech_system", "cech.is_cech_system", "call", None, None),
    ("cechkit.cli", "cech_scale", "cech.cech_scale", "call", _cech_scale, None),
    ("cechkit.filtration", "cech_scale", "cech.cech_scale", "call", _cech_scale, None),
    ("cechkit.cli", "aabb_minimal", "aabb.aabb_minimal", "call", None, None),
    ("cechkit.cli", "build_filtration", "filtration.build", "call", _filtration, None),
    ("cechkit.oracle", "oracle_minimax", "oracle.minimax", "call", _minimax, None),
    ("cechkit.oracle", "oracle_intersects", "oracle.intersects", "call", None, None),
    ("cechkit.oracle", "_grid_refine", "oracle.grid_refine", "call", None, _grid_refine_args),
)


class Tracer:
    """Span recorder with install/restore of wrapped module attributes."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one per op."""
        idx = self.open(self._id(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping ----------------------------------------------------------

    def _wrap_call(self, fn, nid, observe, transform):
        tracer, counters = self, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if transform is not None:
                args, kwargs = transform(counters, args, kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return wrapper

    def _wrap_gen(self, fn, nid):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                yield item

        return wrapper

    def install(self, targets=CECHKIT_TARGETS) -> list[str]:
        """Wrap every target that exists; return the names that do not."""
        self.missing = []
        for module_name, path, span_name, kind, observe, transform in targets:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            nid = self._id(span_name)
            if kind == "gen":
                wrapped = self._wrap_gen(original, nid)
            else:
                wrapped = self._wrap_call(original, nid, observe, transform)
            own = not isinstance(owner, type) or attr in vars(owner)
            self._patched.append((owner, attr, original, own))
            setattr(owner, attr, wrapped)
        return self.missing

    def restore(self) -> None:
        """Put back every original, in reverse order of wrapping."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def span_totals(self, first: int = 0, last: int | None = None) -> dict[str, dict[str, float]]:
        """Calls, busy seconds and self seconds per span name over a span range.

        Self time is a span's duration minus the durations of its direct
        children; spans are properly nested because the run has one thread.
        """
        a = self.arrays()
        last = len(a["start"]) if last is None else last
        name_id = a["name_id"][first:last]
        dur = a["end"][first:last] - a["start"][first:last]
        parent = a["parent"][first:last] - first
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        busy = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=dur - child, minlength=k)
        return {
            name: {"calls": float(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
            for name, i in self.names.items()
        }

    def write(self, path) -> None:
        names = np.array(sorted(self.names, key=self.names.get))
        np.savez(path, names=names, **self.arrays())
