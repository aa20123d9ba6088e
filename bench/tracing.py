"""Per-layer tracing from outside the package.

`install()` wraps every public function and method of the package's layer
modules (plus a few arithmetic dunders) in place, in the running process
only; no package file changes. Each wrapped call is a span: it counts one
call, and its duration minus the time covered by its child spans is the
self time of its layer. Calls between private helpers of one module are
not spans, so their time lands in the nearest public caller's layer.

Spans of the `cli` and `verify` layers, and any span of 1 ms or longer,
are also kept as records (job, id, parent id, name, start, duration) and
written out at exit; the rest are only counted, which keeps memory flat.
"""

import itertools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ["field", "series", "polys", "tree", "autom", "lattice", "quotient", "verify", "literals", "cli"]
DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__hash__", "__eq__"}
KEPT_LAYERS = {"cli", "verify"}
SPAN_MIN_S = 1e-3

# Named call counts: metric name -> "module.Class.method" or "module.function".
CALLS = {
    "field.add.calls": "field.FieldElement.__add__",
    "field.mul.calls": "field.FieldElement.__mul__",
    "field.inverse.calls": "field.FieldElement.inverse",
    "series.new.calls": "series.LaurentSeries.__init__",
    "series.add.calls": "series.LaurentSeries.__add__",
    "series.mul.calls": "series.LaurentSeries.__mul__",
    "series.inverse.calls": "series.LaurentSeries.inverse",
    "series.hash.calls": "series.LaurentSeries.__hash__",
    "polys.divmod_t.calls": "polys.divmod_t",
    "polys.xgcd_t.calls": "polys.xgcd_t",
    "polys.ring_mul.calls": "polys.ResidueRing.mul",
    "polys.ring_reduce.calls": "polys.ResidueRing.reduce",
    "tree.neighbors.calls": "tree.Tree.neighbors",
    "tree.busemann.calls": "tree.Tree.busemann",
    "tree.step_to_end.calls": "tree.Tree.step_to_end",
    "autom.act_vertex.calls": "autom.TreeAutomorphism.act_vertex",
    "autom.act_end.calls": "autom.TreeAutomorphism.act_end",
    "autom.matmul.calls": "autom.TreeAutomorphism.__mul__",
    "lattice.reduce_vertex.calls": "lattice.NagaoLattice.reduce_vertex",
    "lattice.coset_partition.calls": "lattice.CosetTable.coset_partition",
    "lattice.matmul.calls": "lattice.CosetTable.matmul",
    "lattice.lift.calls": "lattice.CosetTable.lift",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.stack = []
        self.spans = []
        self.job = None
        self._ids = itertools.count(1)
        # facts read off arguments and results by hooks
        self.ball_vertices = 0
        self.builds = 0
        self.build_s = 0.0
        self.candidates = 0
        self.members = 0
        self.headroom = 0.0
        self.graph_builds = 0
        self.jobs_building = set()
        self.vertices = 0
        self.edges = 0
        self.rays = 0
        self.rays_certified = 0
        self.pairs = 0
        self.cross_pairs = 0
        self.checks = 0
        self.failures = 0

    def start_job(self, index):
        self.job = index
        self.stack.clear()

    def wrap(self, layer, key, fn, hook=None):
        clock = time.perf_counter
        calls, self_s, stack, spans, ids = self.calls, self.self_s, self.stack, self.spans, self._ids
        keep_all = layer in KEPT_LAYERS
        tracer = self

        def wrapper(*args, **kwargs):
            calls[key] += 1
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                if stack and stack[-1] is frame:
                    stack.pop()
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if keep_all or dt >= SPAN_MIN_S:
                    spans.append((tracer.job, frame[1], stack[-1][1] if stack else 0, key, t0, dt))
                if hook is not None:
                    hook(tracer, args, kwargs, result, exc, dt)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self):
        total = sum(self.self_s.values()) or 1.0
        m = {name: (self.calls[key], "count") for name, key in CALLS.items()}
        for layer in LAYERS:
            # verify's time is left out as seconds: it is exactly 0 on the
            # workloads that never call it; its share says the same
            if layer != "verify":
                m[f"{layer}.self_s"] = (self.self_s[layer], "s")
            m[f"{layer}.self_share"] = (self.self_s[layer] / total, "ratio")
        m.update({
            "tree.ball.vertices": (self.ball_vertices, "count"),
            "lattice.coset_table.builds": (self.builds, "count"),
            "lattice.coset_table.build_share": (self.build_s / total, "ratio"),
            "lattice.coset_table.candidates": (self.candidates, "count"),
            "lattice.coset_table.hit_ratio": (self.members / self.candidates if self.candidates else 0.0, "ratio"),
            "lattice.coset_table.guard_headroom": (self.headroom, "ratio"),
            "quotient.graph_builds": (self.graph_builds, "count"),
            "quotient.graph_builds_per_job": (
                self.graph_builds / len(self.jobs_building) if self.jobs_building else 0.0, "ratio"),
            "quotient.vertices": (self.vertices, "count"),
            "quotient.edges": (self.edges, "count"),
            "quotient.rays_certified_ratio": (self.rays_certified / self.rays if self.rays else 0.0, "ratio"),
            "quotient.transporter.pairs": (self.pairs, "count"),
            "quotient.cross_pairs": (self.cross_pairs, "count"),
            "verify.checks": (self.checks, "count"),
            "verify.failures": (self.failures, "count"),
        })
        return m

    def write_spans(self, path):
        with open(path, "w") as fh:
            for job, sid, parent, name, t0, dt in self.spans:
                fh.write(json.dumps({"job": job, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "dur": dt}) + "\n")


# -- hooks: facts the per-layer metrics need beyond counts and times ------------------


def _ball(tr, args, kwargs, result, exc, dt):
    if exc is None:
        tr.ball_vertices += len(result)


def _coset_table(tr, args, kwargs, result, exc, dt, default_bound):
    table = args[0]
    ring = getattr(table, "ring", None)
    if ring is None:
        return
    bound = kwargs.get("max_candidates", args[3] if len(args) > 3 else default_bound)
    candidates = ring.size ** 4
    tr.headroom = max(tr.headroom, candidates / bound)
    if exc is None:
        tr.builds += 1
        tr.build_s += dt
        tr.candidates += candidates
        tr.members += len(table.elements)


def _graph(tr, args, kwargs, result, exc, dt):
    if exc is None:
        tr.graph_builds += 1
        tr.jobs_building.add(tr.job)
        tr.vertices += len(result.vertices)
        tr.edges += len(result.edges)
        tr.rays += len(result.rays)
        tr.rays_certified += sum(1 for r in result.rays if r.certified)


def _horoball(tr, args, kwargs, result, exc, dt):
    tr.pairs += getattr(result, "pairs_checked", 0)


def _family(tr, args, kwargs, result, exc, dt):
    tr.cross_pairs += getattr(result, "cross_pairs_checked", 0)


def _suite(tr, args, kwargs, result, exc, dt):
    if exc is None:
        tr.checks += result.checks
        tr.failures += len(result.failures)


def install(package="sl2btree"):
    """Wrap the layer modules of an imported package; returns the Tracer."""
    tr = Tracer()
    modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(tr, layer, obj)
            elif callable(obj) and not name.startswith("_"):
                hook = {
                    "quotient.quotient_graph": _graph,
                    "quotient.certify_independent_horoball": _horoball,
                    "quotient.certify_independent_family": _family,
                    "verify.run_suite": _suite,
                }.get(f"{layer}.{name}")
                replaced[id(obj)] = tr.wrap(layer, f"{layer}.{name}", obj, hook)
    # functions imported by name into other modules are rebound there too
    for mod in [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
    return tr


def _wrap_class(tr, layer, cls):
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in DUNDERS:
            continue
        key = f"{layer}.{cls.__name__}.{name}"
        hook = None
        if key == "tree.Tree.ball":
            hook = _ball
        elif key == "lattice.CosetTable.__init__":
            bound = attr.__defaults__[-1]
            hook = lambda *a, _b=bound: _coset_table(*a, default_bound=_b)  # noqa: E731
        if isinstance(attr, (classmethod, staticmethod)):
            setattr(cls, name, type(attr)(tr.wrap(layer, key, attr.__func__, hook)))
        elif callable(attr) and not isinstance(attr, type):
            setattr(cls, name, tr.wrap(layer, key, attr, hook))
