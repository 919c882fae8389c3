"""Shared test helpers: compact graph builders and seeded random generators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from vrsp import graph as vrsp_graph
from vrsp.fixtures import load_family, load_graph
from vrsp.graph import Arc, Graph, LabelPair, build_graph, topological_order

# Property tests draw their examples from a fixed seed and keep no example
# database, so every run of one commit tests the same examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def L(action: str, weight=1) -> LabelPair:
    return LabelPair(action, Fraction(weight))


def mk(vertices: str, arcs: list[tuple], name: str = "") -> Graph:
    """Build a validated graph from "u v w" plus (id, tail, head, action[, weight]) tuples."""
    built = [Arc(a[0], a[1], a[2], L(a[3], a[4] if len(a) > 4 else 1)) for a in arcs]
    return build_graph(vertices.split(), built, name)


def path_graph(actions: list[str], prefix: str = "p") -> Graph:
    """A directed path with one arc per action, in order."""
    vertices = [f"{prefix}{i}" for i in range(len(actions) + 1)]
    arcs = [Arc(f"{prefix}e{i}", vertices[i], vertices[i + 1], L(action)) for i, action in enumerate(actions)]
    return build_graph(vertices, arcs)


def random_dag(
    rng: random.Random,
    max_vertices: int = 6,
    max_arcs: int = 10,
    actions: str = "pqr",
    *,
    min_vertices: int = 1,
    connected: bool = False,
    allow_parallel: bool = True,
    weights: tuple = (1,),
    prefix: str = "v",
) -> Graph:
    """A random valid DAG; arcs always point from lower to higher vertex index."""
    n = rng.randint(min_vertices, max_vertices)
    names = [f"{prefix}{i}" for i in range(n)]
    arcs: list[Arc] = []

    def add(i: int, j: int) -> None:
        label = L(rng.choice(actions), rng.choice(weights))
        arcs.append(Arc(f"{prefix}a{len(arcs)}", names[i], names[j], label))

    if connected:
        for j in range(1, n):
            add(rng.randrange(j), j)
    if n >= 2:
        for _ in range(rng.randint(0, max_arcs)):
            i, j = sorted(rng.sample(range(n), 2))
            add(i, j)

    if not allow_parallel:
        seen: set[tuple] = set()
        unique = []
        for a in arcs:
            key = (a.tail, a.head, a.label)
            if key not in seen:
                seen.add(key)
                unique.append(a)
        arcs = unique
    return build_graph(names, arcs)


def random_factor(rng: random.Random, actions: str, max_vertices: int = 4, prefix: str = "f") -> Graph:
    """A connected DAG with no repeated (tail, head, label) arc, for product round-trips."""
    return random_dag(
        rng,
        max_vertices=max_vertices,
        max_arcs=max_vertices,
        actions=actions,
        min_vertices=2,
        connected=True,
        allow_parallel=False,
        prefix=prefix,
    )


def regular_bipartite(rng: random.Random, m: int, prefix: str = "r") -> Graph:
    """A one-label DAG of m sources of out-degree 3 and m sinks of in-degree 3, no pair joined twice."""
    if m < 3:
        raise ValueError("a source needs three distinct sinks")
    while True:
        heads = [rng.sample(range(m), m) for _ in range(3)]
        pairs = {(i, perm[i]) for perm in heads for i in range(m)}
        if len(pairs) == 3 * m:
            break
    vertices = [f"{prefix}s{i}" for i in range(m)] + [f"{prefix}t{j}" for j in range(m)]
    arcs = [Arc(f"{prefix}a{k}", f"{prefix}s{i}", f"{prefix}t{j}", L("a")) for k, (i, j) in enumerate(sorted(pairs))]
    return build_graph(vertices, arcs)


def rename_graph(rng: random.Random, g: Graph, prefix: str = "w") -> Graph:
    """An isomorphic copy under fresh, randomly assigned vertex and arc ids."""
    order = list(g.vertices)
    rng.shuffle(order)
    mapping = {v: f"{prefix}{i}" for i, v in enumerate(order)}
    arcs = [Arc(f"{prefix}a{i}", mapping[a.tail], mapping[a.head], a.label) for i, a in enumerate(g.arcs)]
    return build_graph(mapping.values(), arcs)


def random_interval_family(rng: random.Random, g: Graph, max_sets: int = 4) -> list[set[str]]:
    """Disjoint vertex sets that are intervals of a topological order.

    Contracting such sets can never create a cycle, which makes them safe
    inputs for order-independence tests.
    """
    order = topological_order(g)
    n = len(order)
    cuts = sorted(rng.sample(range(1, n), min(rng.randint(0, max_sets - 1), n - 1))) if n > 1 else []
    pieces = []
    start = 0
    for cut in cuts + [n]:
        pieces.append(set(order[start:cut]))
        start = cut
    return pieces


def nx_weak_components(vertices, arcs) -> list[set[str]]:
    """Independent oracle: networkx's weak components of ``vertices`` under the arcs with both ends among them.

    Ordered by smallest vertex id, as ``weak_components`` orders its result.
    Skips the calling test when networkx is not installed.
    """
    nx = pytest.importorskip("networkx")
    h = nx.MultiDiGraph()
    h.add_nodes_from(vertices)
    h.add_edges_from((a.tail, a.head) for a in arcs if a.tail in h and a.head in h)
    return sorted(nx.weakly_connected_components(h), key=min)


@pytest.fixture
def component_searches(monkeypatch) -> list[Graph]:
    """The graphs whose weak components are searched with no label skipped, in call order."""
    searched: list[Graph] = []

    def spy(g, skip, _real=vrsp_graph._components):
        if not skip:
            searched.append(g)
        return _real(g, skip)

    monkeypatch.setattr(vrsp_graph, "_components", spy)
    return searched


@pytest.fixture(scope="session")
def fig1() -> Graph:
    return load_graph("fig1")


@pytest.fixture(scope="session")
def fig2() -> Graph:
    return load_graph("fig2")


@pytest.fixture(scope="session")
def fig3() -> Graph:
    return load_graph("fig3")


@pytest.fixture(scope="session")
def fig1_rows():
    return load_family("fig1", "rows")


@pytest.fixture(scope="session")
def fig1_cols():
    return load_family("fig1", "cols")
