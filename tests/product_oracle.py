"""Cartesian decompositions by their definition, for checking the search and the verifier.

A graph is given as plain data: its vertex ids and its arcs as
(tail, head, label) triples, where a label is any hashable, ordered value.
Nothing here imports ``vrsp``, so no verdict depends on the code under test.

Rows and cols are partitions of the vertices.  They are the coordinates of
a Cartesian product when every row meets every col in exactly one vertex,
and:

- every arc stays inside its row or inside its col;
- no label is carried both by an arc inside a row and by one inside a col;
- every row carries the same multiset of (col of tail, col of head, label),
  and every col the same multiset of (row of tail, row of head, label);
- no two arcs agree in tail, head and label.  The factors are quotients,
  and contraction merges arcs that agree in all three, so a factor never
  repeats one, and neither does a product of factors.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations, product


def is_product_system(vertices, arcs, rows, cols) -> bool:
    """Whether the partitions ``rows`` and ``cols`` of ``vertices`` are the coordinates of a product."""
    row_of = {v: i for i, s in enumerate(rows) for v in s}
    col_of = {v: j for j, s in enumerate(cols) for v in s}
    n = len(vertices)
    if sum(map(len, rows)) != n or sum(map(len, cols)) != n or not row_of.keys() == col_of.keys() == set(vertices):
        return False
    if len({(row_of[v], col_of[v]) for v in vertices}) != n or len(rows) * len(cols) != n:
        return False
    if len(set(arcs)) != len(arcs):
        return False
    in_rows = [Counter() for _ in rows]
    in_cols = [Counter() for _ in cols]
    row_labels, col_labels = set(), set()
    for tail, head, label in arcs:
        if row_of[tail] == row_of[head]:
            in_rows[row_of[tail]][col_of[tail], col_of[head], label] += 1
            row_labels.add(label)
        elif col_of[tail] == col_of[head]:
            in_cols[col_of[tail]][row_of[tail], row_of[head], label] += 1
            col_labels.add(label)
        else:
            return False
    return (
        not row_labels & col_labels
        and all(layer == in_rows[0] for layer in in_rows)
        and all(layer == in_cols[0] for layer in in_cols)
    )


def _partitions(items: list, size: int):
    """Every partition of ``items`` into blocks of ``size``, each block led by its first item."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for others in combinations(rest, size - 1):
        left = [v for v in rest if v not in others]
        for blocks in _partitions(left, size):
            yield [(first, *others)] + blocks


def row_partitions(vertices):
    """Every partition of ``vertices`` into k >= 2 rows of m >= 2."""
    n = len(vertices)
    for k in range(2, n // 2 + 1):
        if n % k == 0:
            yield from _partitions(sorted(vertices), n // k)


def transversals(rows):
    """Every family of cols for ``rows``.

    The first row's order numbers the cols, and every other row is matched
    to those numbers in each possible way.
    """
    first, others = rows[0], rows[1:]
    for orders in product(*map(permutations, others)):
        yield [[first[j]] + [order[j] for order in orders] for j in range(len(first))]


def _may_be_rows(arcs, rows) -> bool:
    """Whether every row carries the same multiset of labels, none of which an arc between two rows carries.

    Both hold in every product, whatever its cols, so a partition that fails
    them needs no transversal tried.
    """
    row_of = {v: i for i, s in enumerate(rows) for v in s}
    inside = [Counter() for _ in rows]
    across = set()
    for tail, head, label in arcs:
        if row_of[tail] == row_of[head]:
            inside[row_of[tail]][label] += 1
        else:
            across.add(label)
    return all(c == inside[0] for c in inside) and not across & inside[0].keys()


def product_systems(vertices, arcs):
    """Every (rows, cols) of k >= 2 rows and m >= 2 cols that are the coordinates of a product."""
    for rows in row_partitions(vertices):
        if _may_be_rows(arcs, rows):
            for cols in transversals(rows):
                if is_product_system(vertices, arcs, rows, cols):
                    yield rows, cols


def decomposition_sides(vertices, arcs) -> set[tuple]:
    """The label side of every product coordinate system of the graph.

    Each side is the sorted tuple of the labels inside the rows, or of those
    inside the cols, whichever holds the smallest label of the graph.
    """
    labels = {label for _, _, label in arcs}
    sides = set()
    for rows, _ in product_systems(vertices, arcs):
        row_of = {v: i for i, s in enumerate(rows) for v in s}
        in_rows = {label for tail, head, label in arcs if row_of[tail] == row_of[head]}
        sides.add(tuple(sorted(in_rows if min(labels) in in_rows else labels - in_rows)))
    return sides


def prime_factors(vertices, arcs) -> list[tuple[list, list]]:
    """The factors of the graph that are products of nothing smaller, by splitting it at its first product system, recursively.

    A product system's factors are one row and one col: the row's arcs
    with each end numbered by its col, and the col's arcs with each end
    numbered by its row.  By unique prime factorisation any system gives
    the same primes up to isomorphism, so the first one found will do.
    """
    system = next(product_systems(vertices, arcs), None)
    if system is None:
        return [(list(vertices), list(arcs))]
    rows, cols = system
    row_of = {v: i for i, s in enumerate(rows) for v in s}
    col_of = {v: j for j, s in enumerate(cols) for v in s}
    row = [(col_of[tail], col_of[head], label) for tail, head, label in arcs if row_of[tail] == row_of[head] == 0]
    col = [(row_of[tail], row_of[head], label) for tail, head, label in arcs if col_of[tail] == col_of[head] == 0]
    return prime_factors(range(len(cols)), row) + prime_factors(range(len(rows)), col)
