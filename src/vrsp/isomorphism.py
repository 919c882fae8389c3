"""Label-preserving isomorphism of directed acyclic multigraphs.

Two graphs are isomorphic when some vertex bijection carries, for every
ordered vertex pair, the multiset of arc labels between the pair onto the
multiset between the image pair.  Arc and vertex ids never matter.

:func:`find_isomorphism` is the practical matcher.  It rejects on cheap
invariants first (sizes, label counts, weak component sizes).  Then
vertices are grouped by an invariant signature (degrees, level, incident
label multisets, then two rounds of neighbourhood refinement), computed
for both graphs in lockstep so that the first round whose class sizes
differ rejects.  They are matched by backtracking inside those groups, in
an order that grows through neighbours (VF2++), so that each vertex after
the first of its component is drawn from the neighbours of an
already-mapped neighbour's image.  Each graph is indexed once per call,
every vertex mapping each neighbour to the label multisets between them, so
a candidate pair (u, w) is checked against u's mapped neighbours only,
VF2-style: their images must be w's neighbours with the same labels, and w
must have no other mapped neighbour.  :func:`brute_force_isomorphic` is the
ground-truth oracle for small graphs: it enumerates every vertex bijection
outright and shares none of the matcher's pruning, which is the point.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import permutations
from typing import Callable, Iterator, Mapping

from .errors import SizeLimitError
from .graph import Graph, LabelPair, levels, weak_components

__all__ = ["IsoMapping", "find_isomorphism", "is_isomorphism", "brute_force_isomorphic"]

IsoMapping = Mapping[str, str]

BRUTE_FORCE_LIMIT = 8

_LabelKey = tuple[LabelPair, ...]


def _pair_labels(g: Graph) -> dict[tuple[str, str], _LabelKey]:
    """Multiset of labels between every adjacent ordered vertex pair, as a sorted tuple."""
    labels: dict[tuple[str, str], list[LabelPair]] = {}
    for a in g.arcs:
        labels.setdefault((a.tail, a.head), []).append(a.label)
    return {pair: tuple(sorted(ls)) for pair, ls in labels.items()}


def is_isomorphism(g1: Graph, g2: Graph, mapping: IsoMapping) -> bool:
    """Check a witness: a bijection preserving per-pair label multisets."""
    if set(mapping.keys()) != g1.vertex_set:
        return False
    if set(mapping.values()) != g2.vertex_set or len(set(mapping.values())) != len(mapping):
        return False
    p1, p2 = _pair_labels(g1), _pair_labels(g2)
    image = {(mapping[u], mapping[v]): labels for (u, v), labels in p1.items()}
    return image == p2


def _signature_rounds(g: Graph, intern: Callable[[object], int]) -> Iterator[dict[str, int]]:
    """Isomorphism-invariant vertex signatures, yielded once per refinement round.

    The first signatures are degrees, level and incident label multisets;
    each of two further rounds refines them by neighbourhood structure.
    Signatures are interned to small ints by ``intern``; two graphs whose
    signatures share one table can be compared directly.  Equal ints mean
    "possibly matchable", differing ints mean "provably unmatchable".
    """
    lvl = levels(g)
    sig = {
        v: intern(
            (
                g.in_degree(v),
                g.out_degree(v),
                lvl[v],
                tuple(sorted(Counter(a.label for a in g.in_arcs(v)).items())),
                tuple(sorted(Counter(a.label for a in g.out_arcs(v)).items())),
            )
        )
        for v in g.vertices
    }
    yield sig
    for _ in range(2):
        sig = _refine(g, sig, intern)
        yield sig


def _refine(g: Graph, sig: dict[str, int], intern: Callable[[object], int]) -> dict[str, int]:
    """One refinement round: each signature joined with the labelled signatures of its neighbours."""
    return {
        v: intern(
            (
                sig[v],
                tuple(sorted((a.label, sig[a.tail]) for a in g.in_arcs(v))),
                tuple(sorted((a.label, sig[a.head]) for a in g.out_arcs(v))),
            )
        )
        for v in g.vertices
    }


def _neighbour_index(g: Graph, intern: Callable[[object], int]) -> dict[str, dict[str, tuple]]:
    """``index[v][n]``: the interned label multisets on v -> n and on n -> v, per neighbour n of v."""
    pairs = {pair: intern(key) for pair, key in _pair_labels(g).items()}
    index: dict[str, dict[str, tuple]] = {v: {} for v in g.vertices}
    for t, h in pairs:
        index[t][h] = (pairs[t, h], pairs.get((h, t)))
        index[h][t] = (pairs.get((h, t)), pairs[t, h])
    return index


def find_isomorphism(g1: Graph, g2: Graph) -> dict[str, str] | None:
    """Find a label-preserving isomorphism witness, or None when there is none.

    Deterministic for given inputs.  The matching order grows each weak
    component of g1 through neighbours (VF2++, Jüttner & Madarasi 2018):
    it starts at the vertex with the smallest candidate class and always
    takes next, among the neighbours of the vertices ordered so far, one
    with the smallest class, ties broken by id.  A vertex reached that way
    can only map to a neighbour of its anchor's image, the anchor being the
    ordered neighbour that reached it; candidates are tried in sorted id
    order.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.arcs) != len(g2.arcs):
        return None
    if Counter(a.label for a in g1.arcs) != Counter(a.label for a in g2.arcs):
        return None
    if not g1.vertices:
        return {}
    if sorted(map(len, weak_components(g1))) != sorted(map(len, weak_components(g2))):
        return None

    # One intern table for both graphs, so that their tokens are comparable.
    table: dict[object, int] = {}

    def intern(key: object) -> int:
        return table.setdefault(key, len(table))

    # The graphs are refined in lockstep, and the first round whose class
    # sizes differ rejects: each round refines the one before, so the last
    # round's sizes, which the search needs equal, would differ as well.
    for sig1, sig2 in zip(_signature_rounds(g1, intern), _signature_rounds(g2, intern)):
        if Counter(sig1.values()) != Counter(sig2.values()):
            return None

    by_sig: dict[int, list[str]] = {}
    for w in g2.vertices:
        by_sig.setdefault(sig2[w], []).append(w)
    n1, n2 = _neighbour_index(g1, intern), _neighbour_index(g2, intern)

    def rarity(u: str) -> tuple[int, str]:
        return len(by_sig[sig1[u]]), u

    order: list[str] = []
    anchor: dict[str, str | None] = {}
    for root in sorted(g1.vertices, key=rarity):
        if root in anchor:
            continue
        anchor[root] = None
        frontier = [rarity(root)]
        while frontier:
            _, u = heapq.heappop(frontier)
            order.append(u)
            for v in n1[u]:
                if v not in anchor:
                    anchor[v] = u
                    heapq.heappush(frontier, rarity(v))

    assigned: dict[str, str] = {}
    used: set[str] = set()

    def candidates(u: str) -> list[str]:
        a = anchor[u]
        if a is None:
            return by_sig[sig1[u]]
        return sorted(w for w in n2[assigned[a]] if sig2[w] == sig1[u])

    def consistent(u: str, w: str) -> bool:
        # u's mapped neighbours must map onto w's with the same label
        # multisets, and w may have no other mapped neighbour.
        row = n2[w]
        mapped = 0
        for v, labels in n1[u].items():
            t = assigned.get(v)
            if t is not None:
                if row.get(t) != labels:
                    return False
                mapped += 1
        return mapped == sum(t in used for t in row)

    # Depth-first search with an explicit stack, so that graph size is not
    # bounded by the recursion limit: next_try[i] is the position in
    # order[i]'s candidate list to resume from when the search returns there,
    # and cands_at[i] that list, drawn afresh whenever next_try[i] is 0.
    next_try = [0] * len(order)
    cands_at: list[list[str]] = [[]] * len(order)
    i = 0
    while 0 <= i < len(order):
        u = order[i]
        if u in assigned:  # back from a dead end below: undo this level's choice
            used.remove(assigned.pop(u))
        j = next_try[i]
        if j == 0:
            cands_at[i] = candidates(u)
        cands = cands_at[i]
        while j < len(cands) and (cands[j] in used or not consistent(u, cands[j])):
            j += 1
        if j == len(cands):
            next_try[i] = 0
            i -= 1
            continue
        assigned[u] = cands[j]
        used.add(cands[j])
        next_try[i] = j + 1
        i += 1

    if i < 0:
        return None
    assert len(used) == len(g2.vertices) and all(
        {assigned[v]: labels for v, labels in n1[u].items()} == n2[assigned[u]] for u in g1.vertices
    )
    return dict(assigned)


def brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Decide isomorphism by trying every vertex bijection.

    Only usable up to ``BRUTE_FORCE_LIMIT`` vertices per graph; raises
    ``SizeLimitError`` beyond that.
    """
    n1, n2 = len(g1.vertices), len(g2.vertices)
    if n1 > BRUTE_FORCE_LIMIT or n2 > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(f"brute force is capped at {BRUTE_FORCE_LIMIT} vertices, got {n1} and {n2}")
    if n1 != n2:
        return False
    if n1 == 0:
        return True

    # Encode each pair's label multiset as an interned int so the inner loop
    # compares plain integers.
    interned: dict[_LabelKey, int] = {}

    def matrix(g: Graph) -> list[list[int]]:
        index = {v: i for i, v in enumerate(g.vertices)}
        m = [[0] * len(g.vertices) for _ in g.vertices]
        for (u, v), key in _pair_labels(g).items():
            m[index[u]][index[v]] = interned.setdefault(key, len(interned) + 1)
        return m

    m1, m2 = matrix(g1), matrix(g2)
    idx = range(n1)
    for perm in permutations(idx):
        ok = True
        for i in idx:
            row1, row2 = m1[i], m2[perm[i]]
            for j in idx:
                if row1[j] != row2[perm[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
