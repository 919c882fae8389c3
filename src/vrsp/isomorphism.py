"""Label-preserving isomorphism of directed acyclic multigraphs.

Two graphs are isomorphic when some vertex bijection carries, for every
ordered vertex pair, the multiset of arc labels between the pair onto the
multiset between the image pair.  Arc and vertex ids never matter.

:func:`find_isomorphism` is the practical matcher: one
individualisation–refinement loop (McKay & Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 60, 2014).  It rejects on cheap
invariants first (sizes, label counts, weak component sizes).  Then one
partition colours the disjoint union of both graphs, so they are refined in
lockstep, and is refined to be equitable: every vertex of a cell has, per
arc kind, as many neighbours in each cell.  An isomorphism maps every
vertex into its own cell, so a cell holding unequal shares of the two
graphs rejects.  While some cell holds more than one vertex of each graph,
the search pairs a vertex of the first with each vertex of the second in
its cell in turn, gives the pair a cell of its own and refines again.  A
partition of pairs names the witness.  :func:`brute_force_isomorphic` is
the ground-truth oracle for small graphs: it enumerates every vertex
bijection outright and shares none of the matcher's pruning, which is the
point.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import Iterator, Mapping

from .errors import SizeLimitError
from .graph import Graph, LabelPair, weak_components

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


class _Partition:
    """An ordered partition of positions 0..2n-1, the disjoint union of two graphs.

    A cell is a run of ``lab`` and is named by the index where it begins:
    ``start[x]`` is x's cell and ``end[c]`` where cell c ends.  ``where``
    inverts ``lab``.  ``trail`` lists the cells split off, in order, so that
    :meth:`undo` can merge them back.
    """

    __slots__ = ("n", "adj", "lab", "where", "start", "end", "trail")

    def __init__(self, n: int, adj: list[list[tuple[int, int]]]) -> None:
        self.n, self.adj = n, adj
        self.lab, self.where = list(range(2 * n)), list(range(2 * n))
        self.start, self.end = [0] * (2 * n), [2 * n] * (2 * n)
        self.trail: list[int] = []

    def split(self, c: int, parts: list[list[int]]) -> list[int]:
        """Give each of ``parts``, disjoint subsets of cell c, a cell of its own; return the new cells.

        The parts move to the back of c.  What is left of c stays c; when
        nothing is left, the frontmost part does.
        """
        lab, where, start, end = self.lab, self.where, self.start, self.end
        i = end[c]
        new = []
        for part in parts:
            stop = i
            for y in part:
                i -= 1
                x, j = lab[i], where[y]
                lab[j], where[x] = x, j
                lab[i], where[y] = y, i
            if i > c:
                for y in part:
                    start[y] = i
                end[i] = stop
                new.append(i)
        end[c] = i if i > c else stop
        self.trail += new
        return new

    def undo(self, mark: int) -> None:
        """Merge back, newest first, every cell split off since ``trail`` was ``mark`` long."""
        lab, start, end, trail = self.lab, self.start, self.end, self.trail
        while len(trail) > mark:
            h = trail.pop()
            c = start[lab[h - 1]]
            for x in lab[h : end[h]]:
                start[x] = c
            end[c] = end[h]


def _refine(p: _Partition, queue: list[int]) -> bool:
    """Split cells until the partition is equitable; False once a cell holds unequal shares of g1 and g2.

    Equitable: all vertices of a cell have, per arc kind, as many neighbours
    in each cell.  ``queue`` holds the cells still to split by.  A cell that
    splits queues all its parts when it was queued itself, and all but its
    largest otherwise (Hopcroft): counts into that one are the counts into
    the whole cell, which are uniform already, less those into the others.
    """
    n, adj, lab, start, end = p.n, p.adj, p.lab, p.start, p.end
    queued = set(queue)
    while queue:
        s = queue.pop()
        queued.discard(s)
        hits: dict[int, list[int]] = {}
        for x in lab[s : end[s]]:
            for y, kind in adj[x]:
                hits.setdefault(y, []).append(kind)
        by_cell: dict[int, dict[tuple[int, ...], list[int]]] = {}
        for y, kinds in hits.items():
            kinds.sort()
            by_cell.setdefault(start[y], {}).setdefault(tuple(kinds), []).append(y)
        for c, groups in by_cell.items():
            parts = list(groups.values())
            if len(parts) == 1 and len(parts[0]) == end[c] - c:
                continue
            # The cell was balanced, so its untouched rest is when every part is.
            if any(2 * sum(y < n for y in part) != len(part) for part in parts):
                return False
            new = p.split(c, parts)
            if c not in queued:
                new.append(c)
                new.remove(max(new, key=lambda h: end[h] - h))
            queue += new
            queued.update(new)
    return True


def find_isomorphism(g1: Graph, g2: Graph) -> dict[str, str] | None:
    """Find a label-preserving isomorphism witness, or None when there is none.

    Deterministic for given inputs; the witness is keyed in g1's sorted
    vertex order.  g1's vertices take positions 0..n-1 and g2's n..2n-1, each
    in sorted id order, and an arc kind is a direction and the label
    multiset on a vertex pair.  The search branches on the first g1 vertex
    whose cell holds more than one vertex of each graph and tries the g2
    vertices of that cell in sorted id order.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.arcs) != len(g2.arcs):
        return None
    if Counter(a.label for a in g1.arcs) != Counter(a.label for a in g2.arcs):
        return None
    if not g1.vertices:
        return {}
    if sorted(map(len, weak_components(g1))) != sorted(map(len, weak_components(g2))):
        return None

    n = len(g1.vertices)
    p1, p2 = _pair_labels(g1), _pair_labels(g2)
    kinds: dict[_LabelKey, int] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    for offset, g, pairs in ((0, g1, p1), (n, g2, p2)):
        position = {v: offset + i for i, v in enumerate(g.vertices)}
        for (t, h), key in pairs.items():
            kind = 2 * kinds.setdefault(key, len(kinds))
            adj[position[t]].append((position[h], kind))
            adj[position[h]].append((position[t], kind + 1))
    names = g1.vertices + g2.vertices

    p = _Partition(n, adj)
    if not _refine(p, [0]):
        return None
    lab, start, end = p.lab, p.start, p.end
    # Depth-first search on an explicit stack of frames (u, u's untried
    # candidates, trail length before u was paired).  g1 positions before u
    # are paired already, so the next unpaired one is sought from u on.
    stack: list[tuple[int, Iterator[int], int]] = []
    u = 0
    while True:
        u = next((x for x in range(u, n) if end[start[x]] - start[x] > 2), n)
        if u < n:
            c = start[u]
            stack.append((u, iter(sorted(y for y in lab[c : end[c]] if y >= n)), len(p.trail)))
        else:
            # Every cell is a pair.  The partition is equitable, so the pairing
            # is an isomorphism; it is checked against the arcs all the same,
            # and one that failed would be a dead end like any other.
            mapping = {names[x]: names[lab[start[x]] + lab[start[x] + 1] - x] for x in range(n)}
            if {(mapping[t], mapping[h]): key for (t, h), key in p1.items()} == p2:
                return mapping
        while stack:
            u, candidates, mark = stack[-1]
            p.undo(mark)
            w = next(candidates, None)
            if w is None:
                stack.pop()
            elif _refine(p, p.split(start[u], [[u, w]])):
                break
        else:
            return None


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
