"""Hypothesis property tests over randomly generated graphs."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st
from hypothesis.strategies import composite

from vrsp.decomposition import layers_from_label_split
from vrsp.graph import (
    Arc,
    Graph,
    LabelPair,
    build_graph,
    induced_subgraph,
    label_set,
    levels,
    sources,
    spanning_subgraph_by_labels,
    topological_order,
    validate,
    weak_components,
)
from vrsp.isomorphism import find_isomorphism, is_isomorphism
from vrsp.products import cartesian, intermediate, synchronising_labels, vrsp
from vrsp.quotient import contract

_WEIGHTS = (Fraction(1), Fraction(2), Fraction(3, 2))


@composite
def dags(draw, max_vertices: int = 6, max_arcs: int = 8, actions: str = "pqr") -> Graph:
    """Random valid DAG; arcs point from lower to higher vertex index."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    names = [f"v{i}" for i in range(n)]
    arcs = []
    if n >= 2:
        m = draw(st.integers(min_value=0, max_value=max_arcs))
        for k in range(m):
            i = draw(st.integers(min_value=0, max_value=n - 2))
            j = draw(st.integers(min_value=i + 1, max_value=n - 1))
            label = LabelPair(draw(st.sampled_from(actions)), draw(st.sampled_from(_WEIGHTS)))
            arcs.append(Arc(f"a{k}", names[i], names[j], label))
    return build_graph(names, arcs)


@composite
def dags_with_interval(draw) -> tuple[Graph, set[str]]:
    """A DAG plus a non-empty interval of one of its topological orders."""
    g = draw(dags())
    order = topological_order(g)
    i = draw(st.integers(min_value=0, max_value=len(order) - 1))
    j = draw(st.integers(min_value=i, max_value=len(order) - 1))
    return g, set(order[i : j + 1])


@composite
def dags_with_label_split(draw) -> tuple[Graph, set[LabelPair]]:
    """A DAG with at least two labels, plus a non-empty proper subset of them as the left side."""
    g = draw(dags())
    labels = sorted(label_set(g))
    assume(len(labels) >= 2)
    left = draw(st.sets(st.sampled_from(labels), min_size=1, max_size=len(labels) - 1))
    return g, left


def _roots(vertices, arcs) -> dict[str, str]:
    """Each vertex's union-find root under ``arcs``: equal roots iff joined by a path of arcs."""
    parent = {v: v for v in vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            v = parent[v]
        return v

    for a in arcs:
        parent[find(a.tail)] = find(a.head)
    return {v: find(v) for v in vertices}


@given(dags())
def test_generated_graphs_are_valid(g):
    assert validate(g) == []


@given(dags())
def test_weak_components_partition_vertices(g):
    seen: set[str] = set()
    for comp in weak_components(g):
        assert comp and not (comp & seen)
        seen |= comp
    assert seen == set(g.vertices)


@given(dags_with_label_split())
def test_label_split_layers_are_the_label_components(pair):
    g, left = pair
    rows, cols = layers_from_label_split(g, left)
    for family, joined_by_left in ((rows, False), (cols, True)):
        sets = family.sets
        assert sorted(v for s in sets for v in s) == sorted(g.vertices)
        arcs = [a for a in g.arcs if (a.label in left) == joined_by_left]
        for a in arcs:
            assert any(a.tail in s and a.head in s for s in sets)
        roots = _roots(g.vertices, arcs)
        for s in sets:
            assert len({roots[v] for v in s}) == 1


@given(dags())
def test_level_zero_iff_source(g):
    lvl = levels(g)
    assert {v for v in g.vertices if lvl[v] == 0} == sources(g)


@given(dags())
def test_induced_on_everything_is_identity(g):
    assert induced_subgraph(g, g.vertices).arcs == g.arcs


@given(dags(), st.sets(st.sampled_from("pqr")))
def test_spanning_label_split_partitions_arcs(g, chosen):
    keep = {l for l in label_set(g) if l.action in chosen}
    rest = label_set(g) - keep
    left, right = spanning_subgraph_by_labels(g, keep), spanning_subgraph_by_labels(g, rest)
    assert left.vertices == g.vertices and right.vertices == g.vertices
    assert {a.id for a in left.arcs} | {a.id for a in right.arcs} == {a.id for a in g.arcs}
    assert not {a.id for a in left.arcs} & {a.id for a in right.arcs}


@given(dags_with_interval())
def test_contraction_vertex_count(pair):
    g, x = pair
    out = contract(g, x, "~fresh~")
    assert len(out.vertices) == len(g.vertices) - len(x) + 1
    assert validate(out) == []


@settings(deadline=None)
@given(dags(max_vertices=4, max_arcs=5, actions="pq"), dags(max_vertices=4, max_arcs=5, actions="xy"))
def test_product_counting_and_disjoint_collapse(g1, g2):
    prod = cartesian(g1, g2)
    assert len(prod.vertices) == len(g1.vertices) * len(g2.vertices)
    assert len(prod.arcs) == len(g1.arcs) * len(g2.vertices) + len(g2.arcs) * len(g1.vertices)
    assert synchronising_labels(g1, g2) == set()
    assert intermediate(g1, g2) == prod
    assert vrsp(g1, g2) == prod


@settings(deadline=None)
@given(dags(max_vertices=4, max_arcs=4, actions="pq"), dags(max_vertices=4, max_arcs=4, actions="pq"))
def test_product_commutes_up_to_isomorphism(g1, g2):
    for op in (cartesian, intermediate, vrsp):
        witness = find_isomorphism(op(g1, g2), op(g2, g1))
        assert witness is not None
        assert is_isomorphism(op(g1, g2), op(g2, g1), witness)


@settings(deadline=None)
@given(dags(), st.randoms(use_true_random=False))
def test_isomorphism_invariant_under_renaming(g, rng):
    order = list(g.vertices)
    rng.shuffle(order)
    mapping = {v: f"r{i}" for i, v in enumerate(order)}
    renamed = build_graph(
        mapping.values(),
        [Arc(f"r{i}", mapping[a.tail], mapping[a.head], a.label) for i, a in enumerate(g.arcs)],
    )
    witness = find_isomorphism(g, renamed)
    assert witness is not None and is_isomorphism(g, renamed, witness)
