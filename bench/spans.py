"""Per-layer timing of the vrsp package, taken from outside the package.

Each layer is one module of ``vrsp``.  :meth:`Tracer.install` wraps the
public functions listed in :data:`LAYERS` and puts each wrapper in place of
the original under every name a ``vrsp`` module holds it by, so that calls
between modules (``vrsp.decomposition.find_isomorphism``,
``vrsp.quotient.contract``, ``vrsp.graph.validate`` as called by
``Graph.check``) go through the wrapper.  Nothing in ``src/vrsp`` changes.

A wrapped call's self time is its duration minus the durations of the
wrapped calls made inside it.  Renaming or inlining a wrapped function moves
its time into its caller's self time and changes its call count.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Per-element helpers (pair_vertex, parse_weight, weight_token) are left
# unwrapped: they run once per vertex or arc, and a wrapper there would cost
# more than the work it times.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "serialization": ("parse_graph", "document_to_graph", "graph_to_document", "emit_graph"),
    "graph": (
        "validate",
        "topological_order",
        "levels",
        "weak_components",
        "is_weakly_connected",
        "induced_subgraph",
        "spanning_subgraph_by_labels",
        "label_set",
    ),
    "products": ("cartesian", "intermediate", "vrsp"),
    "quotient": ("contract", "contract_family"),
    "isomorphism": ("find_isomorphism", "is_isomorphism"),
    "decomposition": ("verify_decomposition", "layers_from_label_split", "find_decompositions", "prime_factors"),
}

# Counters taken from a wrapped call's result, keyed by span name.
_COUNTERS = {
    "isomorphism.find_isomorphism": ("found", lambda r: r is not None),
    "decomposition.verify_decomposition": ("accepted", lambda r: r.accepted),
    "serialization.emit_graph": ("emit_bytes", lambda r: len(r.encode("utf-8"))),
    "products.vrsp": ("vrsp_arcs", lambda r: len(r.arcs)),
}


class Tracer:
    """Calls, total time and self time per wrapped function, plus result counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {key: 0 for key, _ in _COUNTERS.values()}
        self.root_s = 0.0  # time inside outermost wrapped calls
        self._children: list[float] = []  # per open span: time of its wrapped children
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                else:
                    self.root_s += elapsed
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - inner
            if counter is not None:
                self.counters[counter[0]] += counter[1](result)
            return result

        return wrapper

    def install(self) -> None:
        """Route every module-level reference to a listed function through its wrapper."""
        if not self._wrappers:
            for layer, names in LAYERS.items():
                module = importlib.import_module(f"vrsp.{layer}")
                for fname in names:
                    fn = getattr(module, fname)
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "vrsp" and not modname.startswith("vrsp."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "root_s": self.root_s}

    def merge(self, other: dict) -> None:
        """Add the figures of another tracer's :meth:`to_dict` (a traced child process)."""
        for name, (calls, total, own) in other["spans"].items():
            span = self.spans.setdefault(name, [0, 0.0, 0.0])
            span[0] += calls
            span[1] += total
            span[2] += own
        for key, value in other["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.root_s += other["root_s"]

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation figures: calls and self time per function and per layer, plus ratios."""

        def span(name: str) -> list[float]:
            return self.spans.get(name, [0, 0.0, 0.0])

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for fname in names:
                calls, _, own = span(f"{layer}.{fname}")
                out[f"{layer}.{fname}.calls"] = calls / ops
                out[f"{layer}.{fname}.self_s"] = own / ops
            out[f"{layer}.self_s"] = sum(span(f"{layer}.{f}")[2] for f in names) / ops
        out["isomorphism.found_ratio"] = ratio(self.counters["found"], span("isomorphism.find_isomorphism")[0])
        out["decomposition.accept_ratio"] = ratio(
            self.counters["accepted"], span("decomposition.verify_decomposition")[0]
        )
        out["serialization.emit_graph.bytes"] = self.counters["emit_bytes"] / ops
        out["products.vrsp.arcs_out"] = self.counters["vrsp_arcs"] / ops
        return out
