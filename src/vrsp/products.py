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
restricted to those reached pairs.  The builder indexes each factor once,
in one pass over its arcs, with vertices as integer positions (see
:func:`_index`).  The name clash check, the search for reached pairs and
the arc comprehensions all read that index, not the factors' arcs.  The
reached pairs are found by a forward search on coordinate pairs, taking
the first factor's vertices in any topological order, before any arc is
built.  It returns the reached pairs row by row, and only those pairs are
named and only their arcs made.  The search builds no adjacency and no
order on a factor, so a product fed back in as a factor, as in
``vrsp(vrsp(a, b), c)``, costs the builder one pass over its arcs.  The
arcs are made in nearly the order of their ids, which is the order the
result keeps, so that ``Graph``'s sort finds them in long runs.
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
from typing import Collection, Literal

from .errors import EmptyFactorError, GraphError
from .graph import Arc, Graph, LabelPair, _new_arc, _valid_by_construction, label_set

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


def _product(g1: Graph, g2: Graph, shared: Collection[LabelPair], reached_only: bool = False) -> Graph:
    """The intermediate product of two valid factors synchronising on the ``shared`` labels.

    Each factor is indexed once (see :func:`_index`); the name clash check,
    :func:`_reachable` and the arc comprehensions all read those indexes.
    Pairs are numbered i*|V2| + j for (V1[i], V2[j]).  With
    ``reached_only``, only the pairs that :func:`_reachable` returns, row
    by row, are named, and only their outgoing arcs made, whose heads it
    returns too; otherwise every row is whole.  The name clash check is
    decided on the factor ids, so it still covers every pair and every
    arc, kept or not.

    Names are made in the order of their coordinates, and copies in that of
    their ids except where one factor arc id is an "@"-prefix of another
    (see :func:`_index`).  That is nearly the order ``Graph`` keeps: its
    sort mends the rest, such as "(a+,x)" made after "(a,x)".
    """
    v1, v2 = g1.vertices, g2.vertices
    index1, index2 = _index(g1, shared), _index(g2, shared)
    (private1, shared1), (private2, shared2) = index1, index2
    keys1, keys2 = dict.fromkeys(v1), dict.fromkeys(v2)
    if (
        _joins_clash(keys1, keys2, ",")
        or _joins_clash(dict.fromkeys([a[0] for a in private1]), keys2, "@")
        or _joins_clash(dict.fromkeys([b[0] for b in private2]), keys1, "@")
        or _joins_clash(
            {a[0]: label for label, arcs in shared1.items() for a in arcs},
            {b[0]: label for label, arcs in shared2.items() for b in arcs},
            "*",
        )
    ):
        raise GraphError("factor vertex or arc ids collide under pair naming")

    n1, n2 = len(v1), len(v2)
    rows = _reachable(index1, index2, n1, n2) if reached_only else [range(n2)] * n1
    # names[p]: the name of pair p, or None for a pair not kept.  The L copies
    # of an arc run along the kept pairs of its tail's row; the R copies and
    # the diagonals test their tails, column t of the pairs being names[t::n2].
    # A kept pair's heads are kept too.
    names: list[str | None] = [None] * (n1 * n2)
    for base, u, row in zip(range(0, n1 * n2, n2), v1, rows):
        for x in row:
            names[base + x] = pair_vertex(u, v2[x])
    # Each kind of product arc is one comprehension, and the kinds come in
    # id order (L < R < S).
    arcs = [
        _new_arc(Arc, (f"L:{id_}@{v2[x]}", names[t0 + x], names[h0 + x], label))
        for id_, t, h, label in private1
        for t0, h0 in ((t * n2, h * n2),)  # the first pairs of the tail's and the head's rows
        for x in rows[t]
    ]
    arcs += [
        _new_arc(Arc, (f"R:{id_}@{u}", name, head_name, label))
        for id_, t, h, label in private2
        for u, name, head_name in zip(v1, names[t::n2], names[h::n2])
        if name
    ]
    arcs += [
        _new_arc(Arc, (f"S:{id_}*{id2}", name, names[h * n2 + h2], label))
        for label, arcs1 in shared1.items()
        for id_, t, h in arcs1
        for id2, t2, h2 in shared2.get(label, ())
        if (name := names[t * n2 + t2])
    ]
    return _valid_by_construction(Graph(tuple(filter(None, names)), tuple(arcs)), g1, g2)


def _index(g: Graph, shared: Collection[LabelPair]) -> tuple[list, dict]:
    """``g``'s arcs in one pass, ends as positions in ``g.vertices``: the
    private ones as (id, tail, head, label), and the shared ones as
    (id, tail, head) per label, in id order.

    The private arcs are ordered by ``id + "@"``, the order of the ids
    "L:id@x" or "R:id@u" of their copies at one vertex.  It differs from id
    order only where one id is a prefix of another ("e1@" sorts after
    "e10@").
    """
    pos = {v: i for i, v in enumerate(g.vertices)}
    private = []
    by_label: dict[LabelPair, list[tuple[str, int, int]]] = defaultdict(list)
    for id_, tail, head, label in g.arcs:
        if label in shared:
            by_label[label].append((id_, pos[tail], pos[head]))
        else:
            private.append((id_, pos[tail], pos[head], label))
    private.sort(key=lambda arc: arc[0] + "@")
    return private, by_label


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
    if sep not in "".join(right):  # no r holds sep, which every clash needs
        return False
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


def _reachable(index1: tuple[list, dict], index2: tuple[list, dict], n1: int, n2: int) -> list[list[int]]:
    """Per position u in g1, the positions x in g2, in increasing order, of the
    pairs (u, x) that the intermediate product reaches from a pair of sources.

    The arcs out of (u, x) are the private arcs out of u and out of x, and
    per shared label l the l-arcs out of u times the l-arcs out of x, so the
    search needs no product arc: it reads the factors' indexes (see
    :func:`_index`).  It takes the rows (u, ·) in any topological order of
    g1, here Kahn's on positions; g1 passed ``check``, so every row gets its
    turn.  Each row is kept closed under the private arcs of g2, so a row
    is complete when its turn comes, and passes its pairs on along the arcs
    out of u.
    """
    indeg1, priv1, shared1 = _successors(index1, n1)
    indeg2, priv2, shared2 = _successors(index2, n2)

    def closed(row: set[int]) -> set[int]:
        stack = list(row)
        while stack:
            for x in priv2[stack.pop()]:
                if x not in row:
                    row.add(x)
                    stack.append(x)
        return row

    # rows[i]: the positions x in g2 of the pairs of row i reached so far.
    rows: list[set[int]] = [set() for _ in range(n1)]
    ready = [i for i in range(n1) if not indeg1[i]]
    start = closed({x for x in range(n2) if not indeg2[x]})
    for i in ready:
        rows[i] |= start
    while ready:
        i = ready.pop()
        row = rows[i]
        for h in priv1[i]:
            rows[h] |= row
        for label, heads in shared1[i].items():
            below = closed({y for x in row for y in shared2[x].get(label, ())})
            for h in heads:
                rows[h] |= below
        for heads in (priv1[i], *shared1[i].values()):
            for h in heads:
                indeg1[h] -= 1
                if not indeg1[h]:
                    ready.append(h)
    return [sorted(row) for row in rows]


def _successors(index: tuple[list, dict], n: int) -> tuple[list, list, list]:
    """From a factor's index, per position: its in-degree, its private
    successors, and per shared label its successors."""
    private, by_label = index
    indeg = [0] * n
    priv_out: list[list[int]] = [[] for _ in range(n)]
    shared_out: list[dict[LabelPair, list[int]]] = [{} for _ in range(n)]
    for _, t, h, _ in private:
        priv_out[t].append(h)
        indeg[h] += 1
    for label, arcs in by_label.items():
        for _, t, h in arcs:
            shared_out[t].setdefault(label, []).append(h)
            indeg[h] += 1
    return indeg, priv_out, shared_out


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


def vrsp(g1: Graph, g2: Graph, *, removal_rng: object | None = None) -> Graph:
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
    return _product(g1, g2, synchronising_labels(g1, g2), reached_only=True)
