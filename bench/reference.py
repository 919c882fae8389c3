"""Expected outputs computed without the vrsp package.

Graphs here are plain ``(vertices, arcs)`` pairs with arcs as
``(tail, head, label)`` tuples, so no check shares code with the program it
checks.
"""

from __future__ import annotations

from collections import Counter


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def walk_path(vertices, arcs) -> list:
    """Labels along a graph that must be one directed path through all its vertices."""
    succ: dict = {}
    heads = set()
    for tail, head, label in arcs:
        expect(tail not in succ, f"vertex {tail!r} has two out-arcs")
        expect(head not in heads, f"vertex {head!r} has two in-arcs")
        succ[tail] = (head, label)
        heads.add(head)
    starts = [v for v in vertices if v not in heads]
    expect(len(starts) == 1, f"expected one source, found {len(starts)}")
    labels, v, seen = [], starts[0], {starts[0]}
    while v in succ:
        v, label = succ[v]
        expect(v not in seen, "path revisits a vertex")
        seen.add(v)
        labels.append(label)
    expect(len(seen) == len(vertices), f"path covers {len(seen)} of {len(vertices)} vertices")
    return labels


def vrsp_product(g1, g2):
    """The vertex-removing synchronised product, straight from its definition.

    Vertices are coordinate pairs.  Labels in both factors synchronise: their
    Cartesian copies are dropped and each equally labelled arc pair becomes
    one diagonal.  Then, until nothing changes, a vertex with no incoming
    arc left, though it has one in the Cartesian product, is removed with
    its outgoing arcs.
    """
    (v1, a1), (v2, a2) = g1, g2
    shared = {lab for _, _, lab in a1} & {lab for _, _, lab in a2}
    arcs = [((t, x), (h, x), lab) for t, h, lab in a1 if lab not in shared for x in v2]
    arcs += [((u, t), (u, h), lab) for t, h, lab in a2 if lab not in shared for u in v1]
    arcs += [
        ((t1, t2), (h1, h2), lab1)
        for t1, h1, lab1 in a1
        if lab1 in shared
        for t2, h2, lab2 in a2
        if lab2 == lab1
    ]
    indeg1, indeg2 = Counter(h for _, h, _ in a1), Counter(h for _, h, _ in a2)
    alive = {(u, x) for u in v1 for x in v2}
    changed = True
    while changed:
        has_in = {h for t, h, _ in arcs if t in alive}
        dead = {(u, x) for (u, x) in alive if (u, x) not in has_in and indeg1[u] + indeg2[x] > 0}
        alive -= dead
        changed = bool(dead)
    return alive, [a for a in arcs if a[0] in alive]


def parse_pair_id(name: str):
    """Coordinates of a product vertex id such as ``((a1,b2),c3)`` as nested tuples."""

    def parse(i: int):
        if name[i] != "(":
            j = i
            while j < len(name) and name[j] not in ",)":
                j += 1
            return name[i:j], j
        left, i = parse(i + 1)
        expect(name[i] == ",", f"bad product vertex id {name!r}")
        right, i = parse(i + 1)
        expect(name[i] == ")", f"bad product vertex id {name!r}")
        return (left, right), i + 1

    coords, end = parse(0)
    expect(end == len(name), f"bad product vertex id {name!r}")
    return coords
