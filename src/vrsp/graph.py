"""Labelled directed acyclic multigraphs and their structural queries.

The data model: a graph has a set of vertex ids (opaque strings), and a list
of arcs.  Each arc has its own unique id, a tail, a head, and a label pair
(action name, exact weight).  Parallel arcs are permitted, including arcs
that agree in tail, head, and label; self-loops and directed cycles are not.

``Graph`` instances are immutable; every operation returns a fresh value.
Construction via the ``Graph`` constructor only normalises field order, it
does not enforce invariants.  Use :func:`validate` to obtain diagnostics, or
:func:`build_graph` / ``Graph.check`` to get validated values.

``LabelPair``, ``Graph`` and ``Diagnostic``, like vrsp's other records, are
plain immutable classes on :class:`_Record`: they compare, hash, print,
copy and pickle as frozen dataclasses do, and ``dataclasses.fields``,
``replace``, ``asdict`` and ``is_dataclass`` work on them, but that surface
is built the first time it is used.  So importing vrsp neither imports
``dataclasses`` (and with it ``inspect``) nor generates code for each class:
that took a ``vrsp`` process longer than parsing and decomposing a 20x20
grid.
"""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import islice
from operator import eq
from typing import Container, Iterable, NamedTuple

from .errors import InvalidGraphError, UnknownVertexError

__all__ = [
    "LabelPair",
    "Arc",
    "Graph",
    "Diagnostic",
    "build_graph",
    "validate",
    "level",
    "levels",
    "sources",
    "label_set",
    "induced_subgraph",
    "spanning_subgraph_by_labels",
    "weak_components",
    "is_weakly_connected",
    "topological_order",
]


_LABELS: dict[tuple[str, int, int], LabelPair] = {}


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, made by ``dataclasses`` on first use and then kept on the class.

    The fields are those named in the class's ``__match_args__``, with its
    annotations as their types and its class attributes as their defaults.
    """

    def __get__(self, instance: object, owner: type) -> dict:
        from dataclasses import MISSING, field, make_dataclass

        specs = [
            (name, owner.__annotations__[name], field(default=owner.__dict__.get(name, MISSING)))
            for name in owner.__match_args__
        ]
        fields = make_dataclass(owner.__name__, specs).__dataclass_fields__
        owner.__dataclass_fields__ = fields
        return fields


class _Record:
    """Base of vrsp's immutable records: what ``@dataclass(frozen=True)`` would generate, written once.

    A subclass annotates its fields, names them in order in
    ``__match_args__`` and stores them in its ``__init__`` through
    ``__dict__``.  Records of one class are equal when their fields are, and
    hash and print by their fields.  Assigning or deleting an attribute
    raises ``dataclasses.FrozenInstanceError``.
    """

    __match_args__ = ()
    __dataclass_fields__ = _DataclassFields()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


@total_ordering
class LabelPair(_Record):
    """An arc label: an action name plus an exact weight.

    Labels are interned: equal (action, weight) pairs are always one object,
    so equality and hashing are by identity and never compare or hash the
    Fraction weight.  Weights are exact rationals, never floats, so equality
    never suffers rounding.  Labels order by (action, weight).  The intern
    table keeps every distinct label for the life of the process.
    """

    action: str
    weight: Fraction = Fraction(1)
    __match_args__ = ("action", "weight")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, action: str, weight: int | Fraction = 1) -> LabelPair:
        if not isinstance(action, str) or not action:
            raise ValueError("label action must be a non-empty string")
        if isinstance(weight, bool) or not isinstance(weight, (int, Fraction)):
            raise ValueError(f"label weight must be an exact integer or rational, got {weight!r}")
        # Both an int and a Fraction give their lowest terms here, and the
        # key hashes no Fraction.
        key = (action, weight.numerator, weight.denominator)
        label = _LABELS.get(key)
        if label is None:
            label = object.__new__(cls)
            label.__dict__.update(action=action, weight=Fraction(weight))
            # setdefault is atomic, so racing threads still share one object.
            label = _LABELS.setdefault(key, label)
        return label

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, LabelPair):
            return NotImplemented
        if self.action != other.action:
            return self.action < other.action
        return self.weight < other.weight

    def __reduce__(self):
        # Rebuild through the constructor, so that the copy is the interned label.
        return LabelPair, (self.action, self.weight)

    def __str__(self) -> str:
        return f"{self.action},{self.weight}"


class Arc(NamedTuple):
    """A directed arc with its own identity, endpoints, and label.

    A named tuple, so arcs compare, order and hash as the tuple
    (id, tail, head, label), and that order is a graph's canonical arc order.
    """

    id: str
    tail: str
    head: str
    label: LabelPair


# ``_new_arc(Arc, (id, tail, head, label))`` is the arc with those fields: as
# ``Arc._make``, but one call of a builtin, with no Python-level code.
_new_arc = tuple.__new__


class Diagnostic(_Record):
    """One invariant violation found by :func:`validate`."""

    code: str
    message: str
    subject: tuple[str, ...] = ()
    __match_args__ = ("code", "message", "subject")

    def __init__(self, code: str, message: str, subject: tuple[str, ...] = ()) -> None:
        self.__dict__.update(code=code, message=message, subject=subject)

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class Graph(_Record):
    """An edge-labelled directed acyclic multigraph.

    ``vertices`` and ``arcs`` are stored canonically (sorted by id), so two
    graphs compare equal exactly when they have the same vertex ids and the
    same arcs, independent of construction order.  ``name`` is carried
    metadata for serialization and plays no role in any graph semantics.
    """

    vertices: tuple[str, ...]
    arcs: tuple[Arc, ...]
    name: str = ""
    __match_args__ = ("vertices", "arcs", "name")

    def __init__(self, vertices: tuple[str, ...], arcs: tuple[Arc, ...], name: str = "") -> None:
        self.__dict__.update(vertices=vertices, arcs=arcs, name=name)
        self.__post_init__()

    def __reduce__(self):
        # Rebuild through the constructor, so that a copy carries the fields and none of the caches.
        return Graph, (self.vertices, self.arcs, self.name)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def _adjacency(self) -> tuple[dict[str, tuple[Arc, ...]], dict[str, tuple[Arc, ...]]]:
        """Out-arcs and in-arcs per vertex, both from one pass over the arcs.

        Each list becomes its tuple in place, so the lists and the tuples are
        never all held at once.
        """
        out: dict[str, list[Arc] | tuple[Arc, ...]] = {v: [] for v in self.vertices}
        inc: dict[str, list[Arc] | tuple[Arc, ...]] = {v: [] for v in self.vertices}
        for a in self.arcs:
            if a.tail in out:
                out[a.tail].append(a)
            if a.head in inc:
                inc[a.head].append(a)
        for table in (out, inc):
            for v, arcs in table.items():
                table[v] = tuple(arcs)
        return out, inc

    def out_arcs(self, v: str) -> tuple[Arc, ...]:
        self._require(v)
        return self._adjacency[0][v]

    def in_arcs(self, v: str) -> tuple[Arc, ...]:
        self._require(v)
        return self._adjacency[1][v]

    def out_degree(self, v: str) -> int:
        return len(self.out_arcs(v))

    def in_degree(self, v: str) -> int:
        return len(self.in_arcs(v))

    def _require(self, v: str) -> None:
        if v not in self.vertex_set:
            raise UnknownVertexError(f"unknown vertex id {v!r}")

    @cached_property
    def _diagnostics(self) -> list[Diagnostic]:
        return validate(self)

    def check(self) -> "Graph":
        """Return self if all invariants hold, else raise ``InvalidGraphError``.

        The graph is immutable, so it is validated at most once.
        """
        if self._diagnostics:
            raise InvalidGraphError(self._diagnostics)
        return self


def _valid_by_construction(g: Graph, *inputs: Graph) -> Graph:
    """Return ``g``, recorded as valid if every graph in ``inputs`` has passed ``check``.

    For an operation whose result is valid whenever its inputs are: a
    product of its factors, a quotient of its graph.  Then ``g.check()``
    does not validate ``g`` again.
    """
    if all("_diagnostics" in h.__dict__ and not h._diagnostics for h in inputs):
        g.__dict__["_diagnostics"] = []
    return g


def _connected_by_construction(q: Graph) -> Graph:
    """Return ``q``, a quotient of a weakly connected graph, recorded as weakly connected.

    Contraction maps every vertex and every arc that joins two vertices onto
    ``q`` (an arc inside a set onto its fresh vertex), so a path of the graph
    maps onto a walk of ``q``.  Then ``is_weakly_connected(q)`` runs no search.
    Only a construction records this; a search's verdict is not kept.
    """
    q.__dict__["_connected"] = True
    return q


def build_graph(vertices: Iterable[str], arcs: Iterable[Arc], name: str = "") -> Graph:
    """Construct a graph and verify all invariants."""
    return Graph(tuple(vertices), tuple(arcs), name).check()


def validate(g: Graph) -> list[Diagnostic]:
    """Check every structural invariant, returning one diagnostic per violation.

    Reported violations: duplicate vertex ids, duplicate arc ids, arcs whose
    tail or head is not a vertex of the graph, self-loops, and directed
    cycles (with one witness cycle spelled out).  An empty list means the
    graph is valid.
    """
    diags: list[Diagnostic] = []
    # The vertices, as the keys of the adjacency that the cycle check reads, so no vertex set is kept.
    vset = g._adjacency[0]

    # Both are sorted by id, so a repeated id sits next to itself.  operator.eq,
    # not str.__eq__: a graph never checked may hold ids of any type.
    for kind, ids in (("vertex", g.vertices), ("arc", [a.id for a in g.arcs])):
        if any(map(eq, ids, islice(ids, 1, None))):
            for dup, n in sorted(Counter(ids).items()):
                if n > 1:
                    diags.append(Diagnostic(f"duplicate-{kind}-id", f"{kind} id {dup!r} occurs {n} times", (dup,)))

    sound_arcs: list[Arc] = []
    for a in g.arcs:
        _, tail, head, _ = a
        if tail in vset and head in vset and tail != head:
            sound_arcs.append(a)
            continue
        dangling = [e for e in (tail, head) if e not in vset]
        if dangling:
            ends = ", ".join(repr(e) for e in dangling)
            diags.append(Diagnostic("dangling-arc", f"arc {a.id!r} references missing vertex {ends}", (a.id,)))
            continue
        if a.tail == a.head:
            diags.append(Diagnostic("self-loop", f"arc {a.id!r} is a self-loop on {a.tail!r}", (a.id,)))
            continue
        sound_arcs.append(a)

    # On g itself when every arc is sound, reading the adjacency that later queries reuse.
    cycle = _find_cycle(g if len(sound_arcs) == len(g.arcs) else Graph(g.vertices, tuple(sound_arcs)))
    if cycle is not None:
        path = " -> ".join(cycle + [cycle[0]])
        diags.append(Diagnostic("cycle", f"directed cycle {path}", tuple(cycle)))

    return diags


def _kahn(g: Graph) -> tuple[list[str], dict[str, int]]:
    """Kahn's algorithm on ``g``'s cached adjacency, smallest ready id first: (order, leftover in-degrees).

    Every arc must join two vertices of ``g``.  The order covers them all iff
    the arcs are acyclic; whatever the queue order, the vertices left with a
    positive in-degree are those on a cycle or downstream of one.
    """
    out, inc = g._adjacency
    indeg = {v: len(arcs) for v, arcs in inc.items()}
    ready = [v for v, n in indeg.items() if n == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for a in out[v]:
            w = a.head
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order, indeg


def _find_cycle(g: Graph) -> list[str] | None:
    """Return the vertices of one directed cycle of ``g``, or None if acyclic.

    Every arc must join two vertices of ``g``.
    """
    order, indeg = _kahn(g)
    if len(order) == len(indeg):
        return None

    # Vertices left over after Kahn's algorithm lie on a cycle or downstream
    # of one; trimming those without a surviving successor leaves only cycle
    # vertices, where walking successors must revisit a vertex.
    out, inc = g._adjacency
    remnant = {v for v, n in indeg.items() if n > 0}
    outdeg = {v: sum(a.head in remnant for a in out[v]) for v in remnant}
    trim = [v for v, n in outdeg.items() if n == 0]
    while trim:
        v = trim.pop()
        remnant.discard(v)
        for a in inc[v]:
            if a.tail in remnant:
                outdeg[a.tail] -= 1
                if outdeg[a.tail] == 0:
                    trim.append(a.tail)

    path: list[str] = []
    position: dict[str, int] = {}
    v = min(remnant)
    while v not in position:
        position[v] = len(path)
        path.append(v)
        v = min(a.head for a in out[v] if a.head in remnant)
    return path[position[v]:]


def topological_order(g: Graph) -> list[str]:
    """Vertices in a deterministic topological order (smallest id first among ready vertices).

    Raises ``InvalidGraphError`` unless ``g`` passes ``check``.
    """
    return _kahn(g.check())[0]


def levels(g: Graph) -> dict[str, int]:
    """Map each vertex to the number of arcs on a longest directed path ending there."""
    lvl: dict[str, int] = {}
    for v in topological_order(g):
        incoming = g.in_arcs(v)
        lvl[v] = max((lvl[a.tail] + 1 for a in incoming), default=0)
    return lvl


def level(g: Graph, v: str) -> int:
    """Length of a longest directed path ending at ``v`` (0 iff ``v`` is a source)."""
    g._require(v)
    return levels(g)[v]


def sources(g: Graph) -> set[str]:
    """All vertices with in-degree 0."""
    return {v for v in g.vertices if g.in_degree(v) == 0}


def label_set(g: Graph) -> set[LabelPair]:
    """The distinct label pairs occurring on arcs of ``g``."""
    return {a.label for a in g.arcs}


def induced_subgraph(g: Graph, vs: Iterable[str]) -> Graph:
    """The subgraph on ``vs`` with every arc of ``g`` that has both ends in ``vs``."""
    keep = set(vs)
    unknown = keep - g.vertex_set
    if unknown:
        raise UnknownVertexError(f"unknown vertex ids {sorted(unknown)!r}")
    arcs = tuple(a for a in g.arcs if a.tail in keep and a.head in keep)
    return Graph(tuple(keep), arcs)


def spanning_subgraph_by_labels(g: Graph, keep: Iterable[LabelPair]) -> Graph:
    """Same vertex set as ``g``; exactly the arcs whose label is in ``keep``."""
    wanted = set(keep)
    return Graph(g.vertices, tuple(a for a in g.arcs if a.label in wanted))


def weak_components(g: Graph) -> list[set[str]]:
    """Partition of the vertices into weakly connected components.

    Components are ordered by their smallest contained vertex id, so the
    result is deterministic for a given graph.  Arcs with an end that is not
    a vertex are ignored.
    """
    return _grouped(_components(g, ()))


def _components(g: Graph, skip: Container[LabelPair]) -> dict[str, int]:
    """Each vertex's weak component under ``g``'s arcs whose label is not in ``skip``, as a number.

    One search over the cached adjacency (built by ``check``), ignoring arcs
    with an end that is not a vertex; numbered by smallest vertex id, one after another.
    """
    out, inc = g._adjacency
    index: dict[str, int] = {}
    k = 0
    for start in out:
        if start in index:
            continue
        index[start] = k
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for a in out[v]:
                w = a.head
                if w not in index and w in out and a.label not in skip:
                    index[w] = k
                    frontier.append(w)
            for a in inc[v]:
                w = a.tail
                if w not in index and w in out and a.label not in skip:
                    index[w] = k
                    frontier.append(w)
        k += 1
    return index


def _grouped(index: dict[str, int]) -> list[set[str]]:
    """The sets that ``index`` numbers 0, 1, ..., in that order, from each member's number."""
    sets: list[set[str]] = [set() for _ in range(len(set(index.values())))]
    for v, k in index.items():
        sets[k].add(v)
    return sets


def is_weakly_connected(g: Graph) -> bool:
    """True iff ``g`` is non-empty and has a single weak component.

    A graph recorded as connected where it was made is not searched.
    """
    return "_connected" in g.__dict__ or set(_components(g, ()).values()) == {0}
