"""Spans around calls into loopspec's public functions, recorded from the
benchmark's side of the API.

``Tracer.install`` wraps every public function of the layer modules at its
module attribute and at every other binding of it inside ``loopspec``
(``from .x import name``, aliases included), counts ``GraphFacts``
instances, and routes ``jsonschema.validate`` as called from ``cli``
through a span.  Spans live in flat arrays (function, parent, graph,
start, end) until the run ends.  A span's self time is its duration minus
its children's, so code that is not a wrapped function counts to the
nearest wrapped caller.

Graphs are numbered by the calls that begin one: ``digraph_from_bits`` and
``random_digraph`` made by ``sweep.sweep``, and each top-level
``cli.main``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("graphs", "formats", "scc", "linalg", "spectral", "bounds",
          "decomposition", "sweep", "cli")
GRAPH_STARTS = ("sweep.digraph_from_bits", "sweep.random_digraph")
SWEEP = "sweep.sweep"
CLI_MAIN = "cli.main"
VALIDATE = "cli.jsonschema.validate"


class _ModuleProxy:
    """Stands in for a module, with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = [SWEEP]    # id 0, the parent of graph starts
        self.fn = array("i")
        self.parent = array("i")
        self.graph = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.graphs_begun = 0
        self.instances = 0

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        starts_graph = name in GRAPH_STARTS
        top_level = name == CLI_MAIN
        fns, parents, graphs = self.fn, self.parent, self.graph
        starts, ends, stack, clock = self.start, self.end, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if (top_level and parent == -1) or (
                    starts_graph and parent >= 0 and fns[parent] == 0):
                self.graphs_begun += 1
            idx = len(fns)
            fns.append(nid)
            parents.append(parent)
            graphs.append(self.graphs_begun - 1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        import importlib

        modules = {name: importlib.import_module(f"loopspec.{name}") for name in LAYERS}
        package = [m for name, m in sys.modules.items()
                   if (name == "loopspec" or name.startswith("loopspec.")) and m is not None]
        originals = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in package:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    setattr(module, attr, originals[id(obj)])

        facts = getattr(modules["spectral"], "GraphFacts", None)
        if facts is not None:
            init = facts.__init__

            def counting_init(obj, *args, **kwargs):
                self.instances += 1
                init(obj, *args, **kwargs)

            facts.__init__ = counting_init
        schema_lib = getattr(modules["cli"], "jsonschema", None)
        if schema_lib is not None:
            modules["cli"].jsonschema = _ModuleProxy(
                schema_lib, validate=self._wrap(VALIDATE, schema_lib.validate))

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names),
                "fn": np.frombuffer(self.fn, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "graph": np.frombuffer(self.graph, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}


def layer_metrics(tracer: Tracer, graphs: int, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures and their units; a function never called reads 0."""
    spans = tracer.arrays()
    names = list(tracer.names)
    fn, parent = spans["fn"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(fn))
    self_time = dur - child
    calls = np.bincount(fn, minlength=len(names))
    total = np.bincount(fn, weights=dur, minlength=len(names))

    def calls_of(name: str) -> int:
        return int(calls[names.index(name)]) if name in names else 0

    def per_call(name: str, scale: float) -> float:
        count = calls_of(name)
        return float(total[names.index(name)] / count * scale) if count else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("linalg.char_poly_exact", "linalg.eigenvalues", "linalg.poly_roots",
                 "scc.strong_components", "decomposition.analyze",
                 "sweep.digraph_from_bits"):
        out[f"{name}.calls_per_graph"] = (calls_of(name) / graphs, "1/graph")
        out[f"{name}.us_per_call"] = (per_call(name, 1e6), "us")
    for name in ("linalg.square_free_decomposition", "linalg.linear_subdigraph_charpoly",
                 "linalg.matching_distance", "formats.load_path"):
        out[f"{name}.us_per_call"] = (per_call(name, 1e6), "us")
    out["spectral.GraphFacts.instances_per_graph"] = (tracer.instances / graphs, "1/graph")
    out["graphs.complement.calls_per_graph"] = (calls_of("graphs.complement") / graphs,
                                                "1/graph")
    out["bounds.exact_route_share"] = (_exact_route_graphs(spans, names) / graphs, "share")
    census = "sweep.census_findings"
    out[f"{census}.ms_per_pass"] = (
        float(total[names.index(census)]) * 1e3 / passes if calls_of(census) else 0.0, "ms")
    module_of = np.array([n.split(".")[0] for n in names])
    for layer in ("linalg", "scc", "spectral", "bounds", "decomposition", "sweep", "graphs"):
        mine = np.isin(fn, np.flatnonzero(module_of == layer))
        out[f"{layer}.self_us_per_graph"] = (float(self_time[mine].sum() * 1e6 / graphs),
                                             "us/graph")
    out["cli.main.ms_per_call"] = (per_call(CLI_MAIN, 1e3), "ms")
    out["cli.validate_ms_per_call"] = (per_call(VALIDATE, 1e3), "ms")
    return out


def _exact_route_graphs(spans: dict, names: list[str]) -> int:
    """Graphs for which a certificate recomputed a spectrum from exact roots:
    a ``poly_roots`` span under a ``bounds`` span, outside the census
    comparison that runs after the sweep."""
    if "linalg.poly_roots" not in names:
        return 0
    fn, parent, graph = spans["fn"], spans["parent"], spans["graph"]
    bounds_ids = {i for i, n in enumerate(names) if n.startswith("bounds.")}
    census = names.index("sweep.census_findings") if "sweep.census_findings" in names else -1
    hit = set()
    for idx in np.flatnonzero(fn == names.index("linalg.poly_roots")):
        up, under_bounds = int(parent[idx]), False
        while up >= 0 and fn[up] != census:
            under_bounds = under_bounds or int(fn[up]) in bounds_ids
            up = int(parent[up])
        if under_bounds and up < 0:
            hit.add(int(graph[idx]))
    return len(hit)
