"""The decomposition search and the verifier against the definition of a Cartesian product.

``product_oracle`` reads only a graph's vertices, arcs and labels, and finds
its decompositions by trying every coordinate system; nothing in it comes
from ``vrsp``.
"""

from __future__ import annotations

import ast
import random
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from conftest import nx_weak_components, random_dag, random_factor, random_interval_family
from product_oracle import decomposition_sides, is_product_system, prime_factors, product_systems

from vrsp import cartesian, decomposition, find_decompositions, verify_decomposition
from vrsp.decomposition import CONDITION_CODES
from vrsp.graph import Arc, Graph, build_graph


def plain(g: Graph) -> tuple[list[str], list[tuple]]:
    """``g`` as the oracle reads it: vertex ids and (tail, head, (action, weight)) triples."""
    return list(g.vertices), [(a.tail, a.head, (a.label.action, a.label.weight)) for a in g.arcs]


def near_miss(rng: random.Random, g: Graph) -> Graph:
    """``g`` with one arc added in parallel, removed or relabelled."""
    arcs = list(g.arcs)
    a = rng.choice(arcs)
    change = rng.randrange(3)
    if change == 0:
        arcs.append(Arc("extra", a.tail, a.head, rng.choice(arcs).label))
    elif change == 1:
        arcs.remove(a)
    else:
        others = [b.label for b in arcs if b.label is not a.label] or [a.label]
        arcs[arcs.index(a)] = a._replace(label=rng.choice(others))
    return build_graph(g.vertices, arcs)


def random_product(rng: random.Random) -> Graph:
    """A product of two or three ``random_factor``s, of at most 9 vertices; one in five of two factors share their actions."""
    if rng.random() < 0.25:
        square = cartesian(random_factor(rng, "p", 2, "x"), random_factor(rng, "r", 2, "y"))
        return cartesian(square, random_factor(rng, "t", 2, "z"))
    left = random_factor(rng, "pq", 4, "l")
    right_actions = "pq" if rng.random() < 0.2 else "rs"
    return cartesian(left, random_factor(rng, right_actions, 9 // len(left.vertices), "r"))


def built_coordinates(g: Graph) -> tuple[list[list[str]], list[list[str]]] | None:
    """The rows and cols ``cartesian`` built ``g`` by: the vertices grouped by each half of their "(u,x)" ids.

    None when some vertex id is not such a pair, as in a random DAG.
    """
    halves = {}
    for v in g.vertices:
        depth = 0
        for i, c in enumerate(v):
            depth += (c == "(") - (c == ")")
            if c == "," and depth == 1:
                halves[v] = (v[1:i], v[i + 1 : -1])
                break
        else:
            return None
    rows, cols = {}, {}
    for v, (u, x) in halves.items():
        rows.setdefault(u, []).append(v)
        cols.setdefault(x, []).append(v)
    return list(rows.values()), list(cols.values())


@lru_cache(maxsize=None)
def corpus() -> tuple[Graph, ...]:
    """About 300 seeded connected graphs of at most 9 vertices.

    A third are random DAGs, a third products of ``random_factor``s, and a
    third near-misses of such products.
    """
    rng = random.Random(2601)
    graphs: list[Graph] = []
    while len(graphs) < 300:
        kind = len(graphs) % 3
        if kind == 0:
            g = random_dag(rng, 9, 12, "pqrs", min_vertices=2, connected=True)
        elif kind == 1:
            g = random_product(rng)
        else:
            g = near_miss(rng, random_product(rng))
        if len(nx_weak_components(g.vertices, g.arcs)) == 1:
            graphs.append(g)
    return tuple(graphs)


def test_the_oracle_imports_nothing_from_vrsp():
    tree = ast.parse((Path(__file__).parent / "product_oracle.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not any(m.split(".")[0] == "vrsp" for m in modules), modules


def test_the_search_finds_the_definitions_sides():
    seen = Counter()
    for g in corpus():
        found = [tuple((l.action, l.weight) for l in d.left_labels) for d in find_decompositions(g)]
        expected = decomposition_sides(*plain(g))
        assert sorted(expected) == found, g
        seen[min(len(found), 2)] += 1
    # Primes, single splits and graphs with several splits all occur.
    assert all(seen[k] >= 10 for k in (0, 1, 2)), seen


def test_the_verifier_accepts_exactly_the_product_systems():
    rng = random.Random(2602)
    seen = Counter()
    for g in corpus():
        vertices, arcs = plain(g)
        families = [([vertices], [[v] for v in vertices])]
        # The coordinates a product was built by, also where its factors share
        # a label or one arc was changed.
        built = built_coordinates(g)
        if built is not None:
            families += [built, built[::-1]]
        for rows, cols in product_systems(vertices, arcs):
            families += [(rows, cols), (cols, rows)]
            # One vertex swapped between two rows breaks the transversal.
            moved = [list(r) for r in rows]
            moved[0][0], moved[1][0] = moved[1][0], moved[0][0]
            families.append((moved, cols))
        families += [(random_interval_family(rng, g), random_interval_family(rng, g)) for _ in range(4)]
        for rows, cols in families:
            expected = is_product_system(vertices, arcs, rows, cols)
            assert verify_decomposition(g, rows, cols).accepted == expected, (g, rows, cols)
            seen[expected] += 1
    assert seen[True] >= 300 and seen[False] >= 1000, seen


def test_the_primes_are_the_definitions():
    nx = pytest.importorskip("networkx")

    def to_nx(vertices, arcs):
        h = nx.MultiDiGraph()
        h.add_nodes_from(vertices)
        for tail, head, label in arcs:
            h.add_edge(tail, head, label=label)
        return h

    def same_arcs(between1, between2) -> bool:
        # The arcs from one vertex to another, as multisets of labels.
        return Counter(a["label"] for a in between1.values()) == Counter(a["label"] for a in between2.values())

    def isomorphic(h1, h2) -> bool:
        return nx.is_isomorphic(h1, h2, edge_match=same_arcs)

    seen = Counter()
    for g in corpus():
        expected = [to_nx(*f) for f in prime_factors(*plain(g))]
        found = [to_nx(*plain(f)) for f in decomposition.prime_factors(g)]
        assert len(found) == len(expected), g
        # Isomorphism is an equivalence, so matching each prime to any unused equal one is enough.
        for h in expected:
            match = next((k for k, f in enumerate(found) if isomorphic(h, f)), None)
            assert match is not None, g
            del found[match]
        seen[len(expected)] += 1
    # Primes, and products of two and of three primes, all occur.
    assert all(seen[k] >= 10 for k in (1, 2, 3)), seen


def test_no_split_passes_the_conditions_unless_it_is_a_product(monkeypatch):
    # Every split the search verifies, and how it fared.
    verified = []
    real = decomposition._verify

    def spy(g, row_of, col_of):
        report = real(g, row_of, col_of)
        verified.append((g, row_of, col_of, report))
        return report

    monkeypatch.setattr(decomposition, "_verify", spy)
    for g in corpus():
        find_decompositions(g)
    passed = not_products = 0
    for g, row_of, col_of, report in verified:
        if all(report.conditions[c].passed for c in CONDITION_CODES):
            rows, cols = ({}, {})
            for v in g.vertices:
                rows.setdefault(row_of[v], []).append(v)
                cols.setdefault(col_of[v], []).append(v)
            passed += 1
            not_products += not is_product_system(*plain(g), list(rows.values()), list(cols.values()))
    assert not_products == 0
    assert passed >= 100 and len(verified) - passed >= 10, (passed, len(verified))
