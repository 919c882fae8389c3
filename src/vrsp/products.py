"""The three-stage product pipeline for synchronising processes.

Stage one is the plain Cartesian product: each factor arc is copied once per
vertex of the other factor.  Stage two, the intermediate product, accounts
for synchronisation: labels occurring in both factors are "synchronising",
their Cartesian copies are dropped, and every pair of equally-labelled arcs
(one per factor) is replaced by a single diagonal arc that advances both
coordinates at once.  Stage three, the vertex-removing synchronised product,
prunes states made unreachable by synchronisation: any vertex that has lost
all incoming arcs relative to the Cartesian product is deleted together with
its outgoing arcs, repeatedly, until a fixpoint.

One builder makes the first two stages: the Cartesian product is the
intermediate product with no synchronising label.  Each product validates
its factors once, on entry; products of valid factors are valid by
construction, so only clashes of the generated names are checked.

Product vertices are named "(u,x)" after their coordinates; arc ids encode
provenance ("L:"/"R:" copies with the coordinate they were copied at, "S:"
diagonals with both source arc ids).
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Literal

from .errors import EmptyFactorError, GraphError
from .graph import Arc, Graph, LabelPair, label_set

__all__ = [
    "ArcClass",
    "synchronising_labels",
    "arc_class",
    "pair_vertex",
    "cartesian",
    "intermediate",
    "vrsp",
]

ArcClass = Literal["synchronous", "asynchronous"]


def synchronising_labels(g1: Graph, g2: Graph) -> set[LabelPair]:
    """Labels occurring in both factors; arcs carrying them must synchronise."""
    _require_factors(g1, g2)
    return label_set(g1) & label_set(g2)


def arc_class(arc: Arc, shared: set[LabelPair]) -> ArcClass:
    """Classify a product arc: synchronous iff its label is shared by both factors."""
    return "synchronous" if arc.label in shared else "asynchronous"


def pair_vertex(u: str, x: str) -> str:
    """Deterministic id of the product vertex with coordinates (u, x)."""
    return f"({u},{x})"


def _require_factors(g1: Graph, g2: Graph) -> None:
    if not g1.vertices or not g2.vertices:
        raise EmptyFactorError("product factors must have at least one vertex")
    g1.check()
    g2.check()


def _product(g1: Graph, g2: Graph, shared: set[LabelPair]) -> Graph:
    """The intermediate product of two valid factors synchronising on ``shared``."""
    names = {(u, x): pair_vertex(u, x) for u in g1.vertices for x in g2.vertices}
    arcs = [
        Arc(f"L:{a.id}@{x}", names[a.tail, x], names[a.head, x], a.label)
        for a in g1.arcs
        if a.label not in shared
        for x in g2.vertices
    ]
    arcs += [
        Arc(f"R:{b.id}@{y}", names[y, b.tail], names[y, b.head], b.label)
        for b in g2.arcs
        if b.label not in shared
        for y in g1.vertices
    ]

    by_label: dict[LabelPair, list[Arc]] = defaultdict(list)
    for b in g2.arcs:
        if b.label in shared:
            by_label[b.label].append(b)
    for a in g1.arcs:
        if a.label not in shared:
            continue
        for b in by_label[a.label]:
            arcs.append(Arc(f"S:{a.id}*{b.id}", names[a.tail, b.tail], names[a.head, b.head], a.label))

    if len(set(names.values())) != len(names) or len({a.id for a in arcs}) != len(arcs):
        raise GraphError("factor vertex or arc ids collide under pair naming")
    return Graph(tuple(names.values()), tuple(arcs))


def cartesian(g1: Graph, g2: Graph) -> Graph:
    """The Cartesian product: every factor arc copied once per opposite vertex."""
    _require_factors(g1, g2)
    return _product(g1, g2, set())


def intermediate(g1: Graph, g2: Graph) -> Graph:
    """The Cartesian product with synchronising arc pairs fused into diagonals.

    Keeps every Cartesian copy whose label occurs in only one factor, drops
    all copies of shared-label arcs, and adds one diagonal arc per pair of
    equally-labelled factor arcs (so k parallel arcs against l produce k*l
    diagonals).  The vertex set is exactly that of the Cartesian product.
    """
    return _product(g1, g2, synchronising_labels(g1, g2))


def vrsp(g1: Graph, g2: Graph, *, removal_rng: random.Random | None = None) -> Graph:
    """The vertex-removing synchronised product.

    Starting from the intermediate product, delete any vertex whose current
    in-degree is 0 although its in-degree in the Cartesian product was
    positive, together with its outgoing arcs; repeat until no such vertex
    remains.  Removals only ever lower other in-degrees, so the fixpoint is
    unique; ``removal_rng`` randomises the processing order to let tests
    confirm that.
    """
    inter = _product(g1, g2, synchronising_labels(g1, g2))

    # In-degree in the Cartesian product, taken per coordinate instead of
    # materialising the product itself.
    cart_indeg: dict[str, int] = {}
    for u in g1.vertices:
        for x in g2.vertices:
            cart_indeg[pair_vertex(u, x)] = g1.in_degree(u) + g2.in_degree(x)

    indeg = {v: inter.in_degree(v) for v in inter.vertices}
    removable = [v for v in inter.vertices if indeg[v] == 0 and cart_indeg[v] > 0]
    removed: set[str] = set()
    while removable:
        if removal_rng is None:
            v = removable.pop()
        else:
            v = removable.pop(removal_rng.randrange(len(removable)))
        if v in removed:
            continue
        removed.add(v)
        for a in inter.out_arcs(v):
            indeg[a.head] -= 1
            if indeg[a.head] == 0 and cart_indeg[a.head] > 0 and a.head not in removed:
                removable.append(a.head)

    vertices = tuple(v for v in inter.vertices if v not in removed)
    arcs = tuple(a for a in inter.arcs if a.tail not in removed)
    return Graph(vertices, arcs)
