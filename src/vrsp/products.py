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

One builder makes all three: the Cartesian product is the intermediate
product with no synchronising label, and VRSP is the intermediate product
without the pairs that the removal rule deletes.  That removal runs on
coordinate pairs, from the factors' degrees and successors, before any arc
is built, so only the names and arcs of surviving pairs are ever made.
Each product validates its factors on entry (a graph is validated at most
once); products of valid factors are valid by construction, and are
returned marked valid, so only clashes of the generated names are checked.
That check covers every pair and arc, removed or not, and is decided on
the factor ids alone (see :func:`_joins_clash`), before any name is made.

Labels are interned (see :class:`vrsp.graph.LabelPair`), so the builder
keys its per-label tables on the labels themselves.

Product vertices are named "(u,x)" after their coordinates; arc ids encode
provenance ("L:"/"R:" copies with the coordinate they were copied at, "S:"
diagonals with both source arc ids).
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Collection, Literal

from .errors import EmptyFactorError, GraphError
from .graph import Arc, Graph, LabelPair, _valid_by_construction, label_set

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


def _product(g1: Graph, g2: Graph, shared: Collection[LabelPair], skip: Collection[int] = frozenset()) -> Graph:
    """The intermediate product of two valid factors synchronising on the ``shared`` labels.

    Pairs are numbered i*|V2| + j for (V1[i], V2[j]); the pairs in ``skip``
    are left out with their outgoing arcs, and no name or arc is made for
    them.  The name clash check is decided on the factor ids, so it still
    covers every pair and every arc, skipped or not.
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
    # names[p]: the name of pair p, or None for a skipped pair.  A kept
    # pair's out-arcs lead to kept pairs, so only tails need a test.
    names = [None if r + j in skip else pair_vertex(u, x) for u, r in row.items() for j, x in enumerate(v2)]
    arcs: list[Arc] = []
    by_label: dict[LabelPair, list[tuple[str, int, int]]] = defaultdict(list)
    for id_, tail, head, label in g2.arcs:
        t, h = col[tail], col[head]
        if label in shared:
            by_label[label].append((id_, t, h))
            continue
        for u, r in row.items():
            name = names[r + t]
            if name is not None:
                arcs.append(Arc(f"R:{id_}@{u}", name, names[r + h], label))
    for id_, tail, head, label in g1.arcs:
        t, h = row[tail], row[head]
        if label in shared:
            for id2, t2, h2 in by_label[label]:
                name = names[t + t2]
                if name is not None:
                    arcs.append(Arc(f"S:{id_}*{id2}", name, names[h + h2], label))
            continue
        for j, x in enumerate(v2):
            name = names[t + j]
            if name is not None:
                arcs.append(Arc(f"L:{id_}@{x}", name, names[h + j], label))

    vertices = names if not skip else [n for n in names if n is not None]
    return _valid_by_construction(Graph(tuple(vertices), tuple(arcs)), g1, g2)


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


def _factor_index(g: Graph, shared: Collection[LabelPair], scale: int) -> tuple[list, list, list, list, list]:
    """Per vertex of ``g``, by position: its in-degree, its private in-degree and
    successors, and per shared label its in-degree and successors.

    Successors are given as positions times ``scale``.
    """
    pos = {v: i for i, v in enumerate(g.vertices)}
    n = len(pos)
    indeg, priv_in = [0] * n, [0] * n
    priv_out: list[list[int]] = [[] for _ in range(n)]
    shared_in: list[dict[LabelPair, int]] = [{} for _ in range(n)]
    shared_out: list[dict[LabelPair, list[int]]] = [{} for _ in range(n)]
    for a in g.arcs:
        t, h = pos[a.tail], pos[a.head]
        indeg[h] += 1
        if a.label in shared:
            shared_in[h][a.label] = shared_in[h].get(a.label, 0) + 1
            shared_out[t].setdefault(a.label, []).append(h * scale)
        else:
            priv_in[h] += 1
            priv_out[t].append(h * scale)
    return indeg, priv_in, priv_out, shared_in, shared_out


def _removed_pairs(g1: Graph, g2: Graph, shared: Collection[LabelPair], rng: random.Random | None) -> set[int]:
    """The pairs, numbered as in :func:`_product`, that the removal rule deletes.

    The intermediate product has, into (u, x), the private arcs into u and
    into x, and per shared label l the l-arcs into u times the l-arcs into
    x; its arcs out of (u, x) follow the same pattern.  So the fixpoint is
    found from factor data alone, before any product arc exists.
    """
    n2 = len(g2.vertices)
    indeg1, priv_in1, priv_out1, shared_in1, shared_out1 = _factor_index(g1, shared, n2)
    indeg2, priv_in2, priv_out2, shared_in2, shared_out2 = _factor_index(g2, shared, 1)
    shared_in2_by_label: dict[LabelPair, list[tuple[int, int]]] = defaultdict(list)
    for j, counts in enumerate(shared_in2):
        for k, c in counts.items():
            shared_in2_by_label[k].append((j, c))

    # indeg: in-degree in the intermediate product; a pair is removable at
    # in-degree 0 if it has an in-arc in the Cartesian product.
    indeg: list[int] = []
    removable: list[int] = []
    for i, p1 in enumerate(priv_in1):
        degs = [p1 + p2 for p2 in priv_in2]
        for k, c1 in shared_in1[i].items():
            for j, c2 in shared_in2_by_label[k]:
                degs[j] += c1 * c2
        base = len(indeg)
        removable += [base + j for j, d in enumerate(degs) if d == 0 and (indeg1[i] or indeg2[j])]
        indeg += degs

    # Each pair enters the worklist once: when its in-degree reaches 0, and
    # every pair with an in-arc in the intermediate product has one in the
    # Cartesian product too.
    removed: set[int] = set()
    while removable:
        if rng is None:
            p = removable.pop()
        else:
            p = removable.pop(rng.randrange(len(removable)))
        removed.add(p)
        i, j = divmod(p, n2)
        heads = [h + j for h in priv_out1[i]] + [p - j + h for h in priv_out2[j]]
        out2 = shared_out2[j]
        for k, hs1 in shared_out1[i].items():
            hs2 = out2.get(k)
            if hs2:
                heads += [h1 + h2 for h1 in hs1 for h2 in hs2]
        for q in heads:
            indeg[q] -= 1
            if indeg[q] == 0:
                removable.append(q)
    return removed


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

    Starting from the intermediate product, delete any vertex whose current
    in-degree is 0 although its in-degree in the Cartesian product was
    positive, together with its outgoing arcs; repeat until no such vertex
    remains.  The removal runs on coordinate pairs, from the factors'
    degrees and successors, before any product arc is built; then names and
    arcs are built for the surviving pairs only, though the name clash check
    still covers every pair and arc of the intermediate product.  Removals only
    ever lower other in-degrees, so the fixpoint is unique; ``removal_rng``
    picks each next pair at random from the worklist to let tests confirm
    that.
    """
    shared = synchronising_labels(g1, g2)
    return _product(g1, g2, shared, _removed_pairs(g1, g2, shared, removal_rng))
