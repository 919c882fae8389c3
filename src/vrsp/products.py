"""The three-stage product pipeline for synchronising processes.

Stage one is the plain Cartesian product: each factor arc is copied once per
vertex of the other factor.  Stage two, the intermediate product, accounts
for synchronisation: labels occurring in both factors are "synchronising",
their Cartesian copies are dropped, and every pair of equally-labelled arcs
(one per factor) is replaced by a single diagonal arc that advances both
coordinates at once.  Stage three, the vertex-removing synchronised product,
prunes states made unreachable by synchronisation: any vertex that has lost
all incoming arcs relative to the Cartesian product is deleted together with
its outgoing arcs, repeatedly, until a fixpoint.  The survivors are exactly
the pairs that the intermediate product reaches from pairs of sources (see
:func:`vrsp`).

One builder makes all three: the Cartesian product is the intermediate
product with no synchronising label, and VRSP is the intermediate product
restricted to those reached pairs.  They are found by a forward search on
coordinate pairs, over the factors' successor lists, before any arc is
built, so only the names and arcs of surviving pairs are ever made.
Each product validates its factors on entry (a graph is validated at most
once); products of valid factors are valid by construction, and are
returned marked valid, so only clashes of the generated names are checked.
That check covers every pair and arc, surviving or not, and is decided on
the factor ids alone (see :func:`_joins_clash`), before any name is made.

Labels are interned (see :class:`vrsp.graph.LabelPair`), so the builder
keys its per-label tables on the labels themselves.

Product vertices are named "(u,x)" after their coordinates; arc ids encode
provenance ("L:"/"R:" copies with the coordinate they were copied at, "S:"
diagonals with both source arc ids).
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import product, repeat
from typing import TYPE_CHECKING, Collection, Literal

from .errors import EmptyFactorError, GraphError
from .graph import Arc, Graph, LabelPair, _valid_by_construction, label_set, topological_order

if TYPE_CHECKING:
    import random

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

# Builds a product arc from its (id, tail, head, label) tuple as ``Arc._make``
# does, without the Python-level ``Arc.__new__``.
_arc = partial(tuple.__new__, Arc)


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


def _product(g1: Graph, g2: Graph, shared: Collection[LabelPair], keep: bytearray | None = None) -> Graph:
    """The intermediate product of two valid factors synchronising on the ``shared`` labels.

    Pairs are numbered i*|V2| + j for (V1[i], V2[j]).  Given ``keep``, only
    the pairs p with ``keep[p]`` set are built, with their outgoing arcs,
    whose heads must be kept too.  The name clash check is decided on the
    factor ids, so it still covers every pair and every arc, kept or not.
    """
    v1, v2 = g1.vertices, g2.vertices
    keys1, keys2 = dict.fromkeys(v1), dict.fromkeys(v2)
    if (
        _joins_clash(keys1, keys2, ",")
        or _joins_clash({a.id: None for a in g1.arcs if a.label not in shared}, keys2, "@")
        or _joins_clash({b.id: None for b in g2.arcs if b.label not in shared}, keys1, "@")
        or _joins_clash(
            {a.id: a.label for a in g1.arcs if a.label in shared},
            {b.id: b.label for b in g2.arcs if b.label in shared},
            "*",
        )
    ):
        raise GraphError("factor vertex or arc ids collide under pair naming")

    n2 = len(v2)
    row = {u: i * n2 for i, u in enumerate(v1)}
    col = {x: j for j, x in enumerate(v2)}
    # names[p]: the name of pair p, or None for a pair not kept.  Only tails
    # need a test; column t of the pairs is names[t::n2], row r names[r:r + n2].
    kept = repeat(1) if keep is None else keep
    names = [pair_vertex(u, x) if k else None for (u, x), k in zip(product(v1, v2), kept)]
    arcs: list[Arc] = []
    by_label: dict[LabelPair, list[tuple[str, int, int]]] = defaultdict(list)
    for id_, tail, head, label in g2.arcs:
        t, h = col[tail], col[head]
        if label in shared:
            by_label[label].append((id_, t, h))
        else:
            arcs += [
                _arc((f"R:{id_}@{u}", name, head_name, label))
                for u, name, head_name in zip(v1, names[t::n2], names[h::n2])
                if name
            ]
    for id_, tail, head, label in g1.arcs:
        t, h = row[tail], row[head]
        if label in shared:
            arcs += [
                _arc((f"S:{id_}*{id2}", name, names[h + h2], label))
                for id2, t2, h2 in by_label[label]
                if (name := names[t + t2])
            ]
        else:
            arcs += [
                _arc((f"L:{id_}@{x}", name, head_name, label))
                for x, name, head_name in zip(v2, names[t : t + n2], names[h : h + n2])
                if name
            ]

    return _valid_by_construction(Graph(tuple(filter(None, names)), tuple(arcs)), g1, g2)


def _joins_clash(left: dict[str, object], right: dict[str, object], sep: str) -> bool:
    """Whether two distinct pairs (l, r) of ids with equal keys join to one string l + sep + r.

    ``left`` and ``right`` map distinct ids to their keys.  With a
    one-character ``sep``, the joins of (l, r) and (l2, r2), l shorter than
    l2, are equal exactly when l2 == l + sep + s and r == s + sep + r2 for
    some string s.  So it suffices to split every id at each ``sep`` in it:
    a left id into an id of ``left`` and a suffix s, a right id into a
    prefix s and an id of ``right``, and to look for an s, with the keys of
    both pairs, that both sides produce.
    """
    suffixes = set()
    for l2, k2 in left.items():
        i = l2.find(sep)
        while i >= 0:
            l = l2[:i]
            if l in left:
                suffixes.add((l2[i + 1 :], left[l], k2))
            i = l2.find(sep, i + 1)
    if not suffixes:
        return False
    for r, k in right.items():
        i = r.find(sep)
        while i >= 0:
            r2 = r[i + 1 :]
            if r2 in right and (r[:i], k, right[r2]) in suffixes:
                return True
            i = r.find(sep, i + 1)
    return False


def _factor_index(g: Graph, shared: Collection[LabelPair]) -> tuple[list, list, list]:
    """The sources of ``g`` and, per vertex, its private successors and per
    shared label its successors, all as positions in ``g.vertices``."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    n = len(pos)
    has_in = bytearray(n)
    priv_out: list[list[int]] = [[] for _ in range(n)]
    shared_out: list[dict[LabelPair, list[int]]] = [{} for _ in range(n)]
    for _, tail, head, label in g.arcs:
        t, h = pos[tail], pos[head]
        has_in[h] = 1
        if label in shared:
            shared_out[t].setdefault(label, []).append(h)
        else:
            priv_out[t].append(h)
    return [i for i in range(n) if not has_in[i]], priv_out, shared_out


def _reachable(g1: Graph, g2: Graph, shared: Collection[LabelPair]) -> bytearray:
    """Per pair, numbered as in :func:`_product`, 1 if the intermediate product
    reaches it from a pair of sources, else 0.

    The arcs out of (u, x) are the private arcs out of u and out of x, and
    per shared label l the l-arcs out of u times the l-arcs out of x, so the
    search needs no product arc.  It takes the rows (u, ·) in a topological
    order of g1: a row, closed under the private arcs of g2, is complete,
    and passes its pairs on along the arcs out of u.
    """
    n2 = len(g2.vertices)
    sources1, priv1, shared1 = _factor_index(g1, shared)
    sources2, priv2, shared2 = _factor_index(g2, shared)
    # rows[i]: the positions x in g2 of the pairs of row i reached so far.
    rows: list[set[int]] = [set() for _ in g1.vertices]
    for i in sources1:
        rows[i].update(sources2)
    pos1 = {u: i for i, u in enumerate(g1.vertices)}
    reached = bytearray(len(g1.vertices) * n2)
    for u in topological_order(g1):
        i = pos1[u]
        row = rows[i]
        stack = list(row)
        while stack:
            for x in priv2[stack.pop()]:
                if x not in row:
                    row.add(x)
                    stack.append(x)
        for h in priv1[i]:
            rows[h] |= row
        for label, heads in shared1[i].items():
            below = {y for x in row for y in shared2[x].get(label, ())}
            for h in heads:
                rows[h] |= below
        for x in row:
            reached[i * n2 + x] = 1
    return reached


def cartesian(g1: Graph, g2: Graph) -> Graph:
    """The Cartesian product: every factor arc copied once per opposite vertex."""
    _require_factors(g1, g2)
    return _product(g1, g2, ())


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

    By definition: starting from the intermediate product, delete any vertex
    whose current in-degree is 0 although its in-degree in the Cartesian
    product was positive, together with its outgoing arcs; repeat until no
    such vertex remains.  The Cartesian in-degree of (u, x) is 0 exactly
    when u and x are both sources, so the survivors are the pairs that the
    intermediate product reaches from pairs of sources, and the arcs kept
    are those out of survivors.  Proof, by induction along a topological
    order of the intermediate product (a DAG, as every arc advances a
    coordinate along an arc of its factor): a pair of sources is never
    deleted; a reached pair has an in-arc from an earlier reached pair,
    never deleted, so its in-degree never drops to 0; an unreached pair has
    a positive Cartesian in-degree, and all its in-neighbours are earlier
    and unreached, so deleted, which leaves it removable until it goes.

    So names and arcs are built for the reached pairs only, though the name
    clash check still covers every pair and arc of the intermediate
    product.  ``removal_rng`` is accepted and ignored: the result does not
    depend on any removal order.
    """
    shared = synchronising_labels(g1, g2)
    return _product(g1, g2, shared, _reachable(g1, g2, shared))
