"""Spans around calls into ssvlib's public functions, kept in memory.

``Tracer.install`` wraps every public module-level function of each layer
module, plus the two methods the per-layer metrics name, and rebinds the
wrapper under every name that binds the original in any ``ssvlib`` module.
Each call appends one span (name, start, end, parent) to flat arrays; the
per-layer metrics are computed from the spans when the run ends.
"""

import bisect
import collections
import contextlib
import functools
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = (
    "matroid",
    "degeneration",
    "polyhedral",
    "linalg",
    "lattice",
    "complexes",
    "cohomology",
    "rootdata",
    "documents",
    "cli",
)
METHODS = (("polyhedral", "Cone", "from_rays"), ("lattice", "Lattice", "intersect_subspace"))
ENUMERATE = "matroid.enumerate_matroid_subdivisions"

# Per-layer metrics from spans: (metric, kind, span names); kind "calls"
# counts the spans, "self_s" sums their self time.  The derived metrics,
# ``<layer>.raised`` and ``trace.wall_s`` are added in ``Tracer.metrics``.
_SPAN_METRICS = [
    ("matroid.enumerate.self_s", "self_s", [ENUMERATE]),
    ("matroid.is_matroid_polytope.calls", "calls", ["matroid.is_matroid_polytope"]),
    ("matroid.is_matroid_polytope.self_s", "self_s", ["matroid.is_matroid_polytope"]),
    ("degeneration.regular_subdivision.calls", "calls", ["degeneration.regular_subdivision"]),
    ("degeneration.regular_subdivision.self_s", "self_s", ["degeneration.regular_subdivision"]),
    ("degeneration.special_fiber_complex.self_s", "self_s", ["degeneration.special_fiber_complex"]),
    ("degeneration.base_change_exponent.self_s", "self_s", ["degeneration.base_change_exponent"]),
    ("polyhedral.convex_hull.calls", "calls", ["polyhedral.convex_hull"]),
    ("polyhedral.convex_hull.self_s", "self_s", ["polyhedral.convex_hull"]),
    ("polyhedral.from_halfspaces.calls", "calls", ["polyhedral.from_halfspaces"]),
    ("polyhedral.from_halfspaces.self_s", "self_s", ["polyhedral.from_halfspaces"]),
    ("polyhedral.cone_from_halfspaces.calls", "calls", ["polyhedral.cone_from_halfspaces"]),
    ("polyhedral.cone_from_halfspaces.self_s", "self_s", ["polyhedral.cone_from_halfspaces"]),
    ("polyhedral.Cone.from_rays.calls", "calls", ["polyhedral.Cone.from_rays"]),
    ("polyhedral.Cone.from_rays.self_s", "self_s", ["polyhedral.Cone.from_rays"]),
    ("polyhedral.hilbert_basis.calls", "calls", ["polyhedral.hilbert_basis"]),
    ("polyhedral.hilbert_basis.self_s", "self_s", ["polyhedral.hilbert_basis"]),
    ("polyhedral.enumerate_faces.calls", "calls", ["polyhedral.enumerate_faces"]),
    ("polyhedral.enumerate_faces.self_s", "self_s", ["polyhedral.enumerate_faces"]),
    ("lattice.smith_normal_form.calls", "calls", ["lattice.smith_normal_form"]),
    ("lattice.smith_normal_form.self_s", "self_s", ["lattice.smith_normal_form"]),
    ("lattice.intersect_subspace.calls", "calls", ["lattice.Lattice.intersect_subspace"]),
    ("lattice.intersect_subspace.self_s", "self_s", ["lattice.Lattice.intersect_subspace"]),
    ("complexes.validate_complex.self_s", "self_s", ["complexes.validate_complex"]),
    ("complexes.complete_faces.self_s", "self_s", ["complexes.complete_faces"]),
    ("complexes.section_module.self_s", "self_s", ["complexes.section_module"]),
    ("cohomology.build_gluing_complex.self_s", "self_s", ["cohomology.build_gluing_complex"]),
    ("cohomology.diag_cohomology.self_s", "self_s", ["cohomology.diag_cohomology"]),
    ("rootdata.is_w_admissible.calls", "calls", ["rootdata.is_w_admissible"]),
    ("rootdata.is_w_admissible.self_s", "self_s", ["rootdata.is_w_admissible"]),
    ("rootdata.dominant_hull.self_s", "self_s", ["rootdata.dominant_hull"]),
    (
        "documents.load.self_s",
        "self_s",
        [
            "documents.load_json",
            "documents.load_complex",
            "documents.load_heights",
            "documents.document_to_complex",
            "documents.document_to_heights",
        ],
    ),
    ("documents.dumps.self_s", "self_s", ["documents.dumps"]),
    ("cli.main.self_s", "self_s", ["cli.main"]),
]
for _fn in ("rational_rref", "mat_rank", "mat_det", "rational_nullspace", "solve_rational"):
    _SPAN_METRICS.append((f"linalg.{_fn}.calls", "calls", [f"linalg.{_fn}"]))
    _SPAN_METRICS.append((f"linalg.{_fn}.self_s", "self_s", [f"linalg.{_fn}"]))


def _is_public_function(obj, module_name):
    """A plain or lru_cache-wrapped function defined in the module."""
    is_function = inspect.isfunction(obj) or hasattr(obj, "cache_info")
    return is_function and obj.__module__ == module_name


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.raised = collections.Counter()
        self.hull_points = 0
        self.kept = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, layer, fn):
        nid = self._id(name)
        tracer = self
        is_hull = name == "polyhedral.convex_hull"
        is_enumerate = name == ENUMERATE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[layer] += 1
                raise
            finally:
                tracer._close(idx)
            if is_hull:
                tracer.hull_points += len(args[0] if args else kwargs["points"])
            elif is_enumerate:
                tracer.kept += len(result)
            return result

        return traced

    def install(self):
        """Wrap the layers' public functions wherever ssvlib binds them."""
        import ssvlib

        for layer in LAYERS:
            __import__(f"ssvlib.{layer}")
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"ssvlib.{layer}"]
            for attr, obj in list(vars(module).items()):
                if not attr.startswith("_") and _is_public_function(obj, module.__name__):
                    replacements[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        modules = [m for n, m in sys.modules.items() if n == "ssvlib" or n.startswith("ssvlib.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapped = replacements.get(id(obj))
                if wrapped is not None:
                    setattr(module, attr, wrapped)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"ssvlib.{layer}"], cls_name)
            raw = cls.__dict__[method]
            name = f"{layer}.{cls_name}.{method}"
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self._wrap(name, layer, raw.__func__)))
            else:
                setattr(cls, method, self._wrap(name, layer, raw))
        return ssvlib

    def metrics(self, wall_s, probes=()):
        """Per-layer metrics from the recorded spans.

        ``probes`` are (start, end) intervals spent outside ssvlib while a
        span was open (host-speed probes); like child spans, they do not
        count as the self time of the innermost span they interrupted.
        """
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for started, ended in probes:
            i = bisect.bisect_right(self.start, started) - 1
            while i >= 0 and self.end[i] < ended:
                i = self.parent[i]
            if i >= 0:
                child[i] += ended - started
        calls = collections.Counter()
        self_s = collections.Counter()
        enumerate_id = self._ids.get(ENUMERATE, -2)
        hull_id = self._ids.get("polyhedral.convex_hull", -2)
        subdivision_id = self._ids.get("degeneration.regular_subdivision", -2)
        closure_hulls = evaluated = 0
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += (self.end[i] - self.start[i]) - child[i]
            p = self.parent[i]
            if p >= 0 and self.name[p] == enumerate_id:
                if nid == hull_id:
                    closure_hulls += 1
                elif nid == subdivision_id:
                    evaluated += 1
        out = {}
        for metric, kind, names in _SPAN_METRICS:
            ids = [self._ids[s] for s in names if s in self._ids]
            if kind == "calls":
                out[metric] = {"value": sum(calls[i] for i in ids), "unit": "count"}
            else:
                out[metric] = {"value": sum(self_s[i] for i in ids), "unit": "s"}
        out["matroid.closure_hulls"] = {"value": closure_hulls, "unit": "count"}
        out["matroid.evaluated"] = {"value": evaluated, "unit": "count"}
        out["matroid.kept_per_evaluated"] = {
            "value": self.kept / evaluated if evaluated else 0.0,
            "unit": "ratio",
        }
        out["polyhedral.convex_hull.points"] = {"value": self.hull_points, "unit": "count"}
        for layer in LAYERS:
            out[f"{layer}.raised"] = {"value": self.raised[layer], "unit": "count"}
        out["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        return out
