"""Cartesian, intermediate, and vertex-removing synchronised products."""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from fractions import Fraction
from itertools import chain, islice

import pytest
from conftest import L, mk, random_dag

from vrsp import graph, products
from vrsp.cli import main
from vrsp.decomposition import verify_decomposition
from vrsp.errors import EmptyFactorError, GraphError, InvalidGraphError
from vrsp.fixtures import fixture_dir, fixture_path, load_graph
from vrsp.graph import Arc, Graph, LabelPair, build_graph, label_set, sources, validate
from vrsp.isomorphism import find_isomorphism
from vrsp.products import arc_class, cartesian, intermediate, pair_vertex, synchronising_labels, vrsp
from vrsp.serialization import graph_to_document


def arc_shapes(g: Graph) -> Counter:
    return Counter((a.tail, a.head, a.label) for a in g.arcs)


class TestSynchronisingLabels:
    def test_fig1_factors_share_nothing(self):
        from conftest import path_graph

        assert synchronising_labels(path_graph(["a", "a"]), path_graph(["b", "b", "c"], "q")) == set()

    def test_self(self, fig1):
        assert synchronising_labels(fig1, fig1) == label_set(fig1)

    def test_fig2_factors(self):
        assert synchronising_labels(load_graph("fig2_g1"), load_graph("fig2_g2")) == {L("a")}


class TestCartesian:
    def test_identity_factor(self, fig1):
        k1 = Graph(("*",), ())
        assert find_isomorphism(cartesian(fig1, k1), fig1) is not None

    def test_fig1_factors_rebuild_fig1(self, fig1):
        g = cartesian(mk("y1 y2 y3", [("d1", "y1", "y2", "a"), ("d2", "y2", "y3", "a")]),
                      mk("x1 x2 x3 x4", [("f1", "x1", "x2", "b"), ("f2", "x2", "x3", "b"), ("f3", "x3", "x4", "c")]))
        assert len(g.vertices) == 12 and len(g.arcs) == 8 + 9
        assert find_isomorphism(g, fig1) is not None

    def test_fig3_factors_product_counts(self):
        prod = cartesian(load_graph("fig3_g1"), load_graph("fig3_g2"))
        assert len(prod.vertices) == 4 and len(prod.arcs) == 2 + 4
        assert sources(prod) == {pair_vertex("y~1", "x~1")}

    def test_counting_laws(self):
        rng = random.Random(31)
        for _ in range(60):
            g1 = random_dag(rng, actions="pq", prefix="l")
            g2 = random_dag(rng, actions="qr", prefix="r")
            prod = cartesian(g1, g2)
            assert len(prod.vertices) == len(g1.vertices) * len(g2.vertices)
            assert len(prod.arcs) == len(g1.arcs) * len(g2.vertices) + len(g2.arcs) * len(g1.vertices)
            assert validate(prod) == []

    def test_empty_factor_rejected(self, fig1):
        with pytest.raises(EmptyFactorError):
            cartesian(fig1, Graph((), ()))

    def test_pair_name_collision_rejected(self):
        with pytest.raises(GraphError, match="collide"):
            cartesian(Graph(("a", "a,b"), ()), Graph(("b,c", "c"), ()))
        # "L:" + "e@x" + "@y" and "L:" + "e" + "@x@y" name the same arc.
        g1 = mk("u v", [("e@x", "u", "v", "a"), ("e", "u", "v", "a")])
        with pytest.raises(GraphError, match="collide"):
            cartesian(g1, Graph(("y", "x@y"), ()))


class TestIntermediate:
    def test_label_disjoint_equals_cartesian(self):
        rng = random.Random(37)
        for _ in range(40):
            g1 = random_dag(rng, actions="pq", prefix="l")
            g2 = random_dag(rng, actions="xy", prefix="r")
            assert intermediate(g1, g2) == cartesian(g1, g2)

    def test_fig2_factors(self):
        g1, g2 = load_graph("fig2_g1"), load_graph("fig2_g2")
        prod = intermediate(g1, g2)
        assert len(prod.vertices) == 6
        shared = synchronising_labels(g1, g2)
        classes = Counter(arc_class(a, shared) for a in prod.arcs)
        assert classes == {"asynchronous": 4, "synchronous": 1}
        diagonal = next(a for a in prod.arcs if arc_class(a, shared) == "synchronous")
        assert (diagonal.tail, diagonal.head) == (pair_vertex("y~1", "u5"), pair_vertex("y~2", "u6"))
        assert diagonal.label == L("a")

    def test_self_synchronisation_single_arc(self):
        g = mk("u v", [("e1", "u", "v", "a")])
        prod = intermediate(g, g)
        assert len(prod.vertices) == 4
        assert arc_shapes(prod) == Counter({(pair_vertex("u", "u"), pair_vertex("v", "v"), L("a")): 1})

    def test_diagonal_multiplicity_is_per_pair(self):
        g1 = mk("u v", [("e1", "u", "v", "a"), ("e2", "u", "v", "a")])
        g2 = mk("s t", [("f1", "s", "t", "a"), ("f2", "s", "t", "a"), ("f3", "s", "t", "a")])
        prod = intermediate(g1, g2)
        assert len(prod.arcs) == 2 * 3
        assert arc_shapes(prod) == Counter({(pair_vertex("u", "s"), pair_vertex("v", "t"), L("a")): 6})

    def test_vertex_set_always_matches_cartesian(self):
        rng = random.Random(41)
        for _ in range(40):
            g1 = random_dag(rng, actions="pq", prefix="l")
            g2 = random_dag(rng, actions="qr", prefix="r")
            assert intermediate(g1, g2).vertices == cartesian(g1, g2).vertices


class TestVrsp:
    def test_label_disjoint_equals_cartesian(self):
        rng = random.Random(43)
        for _ in range(40):
            g1 = random_dag(rng, actions="pq", prefix="l")
            g2 = random_dag(rng, actions="xy", prefix="r")
            assert vrsp(g1, g2) == cartesian(g1, g2)

    def test_fig2_product_matches_drawn_graph(self):
        g1, g2 = load_graph("fig2_g1"), load_graph("fig2_g2")
        prod = vrsp(g1, g2)
        assert set(prod.vertices) == {
            pair_vertex("y~1", "x~1"),
            pair_vertex("y~1", "u5"),
            pair_vertex("y~1", "u6"),
            pair_vertex("y~2", "u6"),
        }
        assert sorted((a.tail, a.head, a.label.action) for a in prod.arcs) == [
            (pair_vertex("y~1", "u5"), pair_vertex("y~2", "u6"), "a"),
            (pair_vertex("y~1", "x~1"), pair_vertex("y~1", "u5"), "b"),
            (pair_vertex("y~1", "x~1"), pair_vertex("y~1", "u6"), "b"),
        ]

    def test_fig1_factors_rebuild_fig1(self, fig1, fig1_rows, fig1_cols):
        from vrsp.quotient import contract_family

        prod = vrsp(contract_family(fig1, fig1_rows, "y~"), contract_family(fig1, fig1_cols, "x~"))
        assert len(prod.vertices) == 12 and len(prod.arcs) == 17
        assert find_isomorphism(prod, fig1) is not None

    def test_vertices_shrink_but_cartesian_sources_stay(self):
        rng = random.Random(47)
        for _ in range(40):
            g1 = random_dag(rng, actions="pq", prefix="l", connected=True)
            g2 = random_dag(rng, actions="qr", prefix="r", connected=True)
            cart, inter, removed = cartesian(g1, g2), intermediate(g1, g2), vrsp(g1, g2)
            assert set(removed.vertices) <= set(inter.vertices)
            assert {v for v in cart.vertices if cart.in_degree(v) == 0} <= set(removed.vertices)
            assert validate(removed) == []

    def test_removal_order_is_irrelevant(self):
        rng = random.Random(53)
        for _ in range(10):
            g1 = random_dag(rng, actions="pq", prefix="l", connected=True, min_vertices=2)
            g2 = random_dag(rng, actions="qr", prefix="r", connected=True, min_vertices=2)
            reference = vrsp(g1, g2)
            for _ in range(5):
                assert vrsp(g1, g2, removal_rng=rng) == reference

    def test_equals_the_definition_under_random_removal_orders(self):
        class Order(random.Random):
            """Records how many vertices were removable at each step."""

            widths: list[int] = []

            def randrange(self, n):
                self.widths.append(n)
                return super().randrange(n)

        # The pairs of acceptance criterion 7a; the removal orders come from their own generator.
        pairs_rng, order_rng = random.Random(1007), random.Random(1008)
        for _ in range(10):
            g1 = random_dag(pairs_rng, max_vertices=5, max_arcs=6, actions="pq", prefix="l", connected=True)
            g2 = random_dag(pairs_rng, max_vertices=5, max_arcs=6, actions="qr", prefix="r", connected=True)
            result = vrsp(g1, g2)
            for _ in range(20):
                assert result == oracle_vrsp(g1, g2, rng=Order(order_rng.random()))[0]
        # The orders really vary: many steps chose among several removable vertices.
        assert sum(n > 1 for n in Order.widths) >= 100


class TestCommutativity:
    def test_products_commute_up_to_isomorphism(self):
        rng = random.Random(59)
        for _ in range(15):
            g1 = random_dag(rng, actions="pq", prefix="l", max_vertices=4, max_arcs=5)
            g2 = random_dag(rng, actions="qr", prefix="r", max_vertices=4, max_arcs=5)
            for op in (cartesian, intermediate, vrsp):
                assert find_isomorphism(op(g1, g2), op(g2, g1)) is not None


class TestFactorsAndOutput:
    @pytest.mark.parametrize("op", [cartesian, intermediate, vrsp])
    def test_invalid_factors_rejected(self, op):
        cyclic = Graph(("u", "v"), (Arc("e1", "u", "v", L("a")), Arc("e2", "v", "u", L("a"))))
        dangling = Graph(("u",), (Arc("e1", "u", "ghost", L("a")),))
        arc = mk("x y", [("f1", "x", "y", "a")])
        for bad in (cyclic, dangling):
            with pytest.raises(InvalidGraphError):
                op(bad, arc)
            with pytest.raises(InvalidGraphError):
                op(arc, bad)

    def test_products_of_valid_factors_are_valid(self):
        rng = random.Random(61)
        for _ in range(60):
            g1 = random_dag(rng, actions="pq", prefix="l", weights=(1, 2))
            g2 = random_dag(rng, actions="pq", prefix="r", weights=(1, 2))
            assert validate(intermediate(g1, g2)) == []
            assert validate(vrsp(g1, g2)) == []


def oracle_product(g1: Graph, g2: Graph, synchronise: bool = True) -> Graph:
    """The Cartesian (no synchronisation) or intermediate product, from the definition."""
    shared = label_set(g1) & label_set(g2) if synchronise else set()
    names = {(u, x): pair_vertex(u, x) for u in g1.vertices for x in g2.vertices}
    arcs = [
        Arc(f"L:{a.id}@{x}", names[a.tail, x], names[a.head, x], a.label)
        for a in g1.arcs
        if a.label not in shared
        for x in g2.vertices
    ]
    arcs += [
        Arc(f"R:{b.id}@{y}", names[y, b.tail], names[y, b.head], b.label)
        for b in g2.arcs
        if b.label not in shared
        for y in g1.vertices
    ]
    arcs += [
        Arc(f"S:{a.id}*{b.id}", names[a.tail, b.tail], names[a.head, b.head], a.label)
        for a in g1.arcs
        if a.label in shared
        for b in g2.arcs
        if b.label == a.label
    ]
    if len(set(names.values())) != len(names) or len({a.id for a in arcs}) != len(arcs):
        raise GraphError("factor vertex or arc ids collide under pair naming")
    return Graph(tuple(names.values()), tuple(arcs))


def oracle_vrsp(g1: Graph, g2: Graph, rng: random.Random | None = None) -> tuple[Graph, int]:
    """VRSP built as the intermediate product, then pruned to the fixpoint; also the removal depth.

    With ``rng``, each step removes a removable vertex chosen at random, so
    the definition's removal order varies; without it, the last one found.
    """
    inter = oracle_product(g1, g2)
    cart_indeg = {pair_vertex(u, x): g1.in_degree(u) + g2.in_degree(x) for u in g1.vertices for x in g2.vertices}
    indeg = {v: inter.in_degree(v) for v in inter.vertices}
    depth = {v: 1 for v in inter.vertices if indeg[v] == 0 and cart_indeg[v] > 0}
    removable = list(depth)
    removed: set[str] = set()
    while removable:
        if rng is not None:
            k = rng.randrange(len(removable))
            removable[k], removable[-1] = removable[-1], removable[k]
        v = removable.pop()
        removed.add(v)
        for a in inter.out_arcs(v):
            indeg[a.head] -= 1
            if indeg[a.head] == 0 and cart_indeg[a.head] > 0 and a.head not in removed:
                depth[a.head] = depth[v] + 1
                removable.append(a.head)
    vertices = tuple(v for v in inter.vertices if v not in removed)
    arcs = tuple(a for a in inter.arcs if a.tail not in removed)
    return Graph(vertices, arcs), max(depth.values(), default=0)


ORACLES = {
    cartesian: lambda g1, g2: oracle_product(g1, g2, synchronise=False),
    intermediate: oracle_product,
    vrsp: lambda g1, g2: oracle_vrsp(g1, g2)[0],
}


def oracle_text(g: Graph) -> str:
    return json.dumps(graph_to_document(g), indent=2, ensure_ascii=False) + "\n"


def staggered_path(rng: random.Random, prefix: str, actions: str) -> Graph:
    """A path of random labels with a parallel arc here and there: shared labels at
    different positions on two such paths cut off long runs of product vertices."""
    n = rng.randint(2, 7)
    vertices = [f"{prefix}{i}" for i in range(n)]
    arcs = []
    for i in range(n - 1):
        label = L(rng.choice(actions))
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            arcs.append(Arc(f"{prefix}a{len(arcs)}", vertices[i], vertices[i + 1], label))
    return build_graph(vertices, arcs)


class TestAgainstOracle:
    def pairs(self):
        rng = random.Random(67)
        for k in range(600):
            if k % 3 == 0:
                yield staggered_path(rng, "l", "pqs"), staggered_path(rng, "r", "qrs")
            else:
                yield (
                    random_dag(rng, max_vertices=7, max_arcs=12, actions="pqs", weights=(1, 2), prefix="l"),
                    random_dag(rng, max_vertices=7, max_arcs=12, actions="qrs", weights=(1, Fraction(1, 2)), prefix="r"),
                )

    def test_products_equal_the_oracle(self):
        depths = Counter()
        diagonal_blocks = 0
        for seed, (g1, g2) in enumerate(self.pairs()):
            expected, depth = oracle_vrsp(g1, g2)
            depths[depth] += 1
            assert cartesian(g1, g2) == oracle_product(g1, g2, synchronise=False)
            inter = intermediate(g1, g2)
            assert inter == oracle_product(g1, g2)
            assert vrsp(g1, g2) == expected
            # Products come out marked valid; a fresh validation agrees.
            assert validate(inter) == [] and validate(vrsp(g1, g2)) == []
            assert vrsp(g1, g2, removal_rng=random.Random(seed)) == expected
            diagonal_blocks += any(n > 1 for n in arc_shapes(inter).values())
        # The seeded pairs reach removal chains several levels deep and k*l diagonal blocks.
        assert max(depths) >= 6 and sum(n for d, n in depths.items() if d >= 3) > 100
        assert depths[0] > 100 and diagonal_blocks > 200

    def test_vrsp_builds_only_the_arcs_it_returns(self, monkeypatch):
        built = []

        def counted(cls, fields):
            built.append(cls(*fields))
            return built[-1]

        monkeypatch.setattr(products, "_new_arc", counted)
        removed = Counter()
        # The nested pairs' first factors are built here too, before each count starts.
        nested = (("nested", vrsp(a, b), c) for a, b, c in compose_triples())
        for kind, g1, g2 in chain((("plain", *pair) for pair in self.pairs()), nested):
            built.clear()
            result = vrsp(g1, g2)
            assert len(built) == len(result.arcs)
            removed[kind] += len(result.vertices) < len(g1.vertices) * len(g2.vertices)
        assert removed["plain"] > 100 and removed["nested"] > 100

    def test_no_validation_of_products_or_quotients_already_valid(self, monkeypatch, fig1, fig1_rows, fig1_cols):
        a, b, c = (random_dag(random.Random(seed), actions="pqs", prefix=p) for seed, p in ((1, "a"), (2, "b"), (3, "c")))
        calls = []
        real = graph.validate

        def spy(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(graph, "validate", spy)
        vrsp(vrsp(a, b), c)
        # The quotients that FINAL multiplies come from a checked graph.
        assert verify_decomposition(fig1, fig1_rows, fig1_cols).accepted
        assert calls == []

    def test_diagonal_blocks_feed_removal(self):
        # (v, t) is reached only by the 2*3 diagonals; (v, s) and (u, t) lose every in-arc.
        g1 = mk("u v w", [("e1", "u", "v", "a"), ("e2", "u", "v", "a"), ("e3", "v", "w", "b")])
        g2 = mk("s t", [("f1", "s", "t", "a"), ("f2", "s", "t", "a"), ("f3", "s", "t", "a")])
        expected, depth = oracle_vrsp(g1, g2)
        assert vrsp(g1, g2) == expected and depth == 2
        assert Counter(a.tail for a in expected.arcs)[pair_vertex("u", "s")] == 6

    @pytest.mark.parametrize(
        "g1, g2, clash",
        [
            # ("a", "b,c") and ("a,b", "c") are both named "(a,b,c)".
            (
                mk("p a a,b r", [("e1", "p", "a", "s"), ("e2", "p", "a,b", "s"), ("e3", "p", "r", "t")]),
                mk("q b,c c w", [("f1", "q", "b,c", "t"), ("f2", "q", "c", "t"), ("f3", "q", "w", "s")]),
                [("a", "b,c"), ("a,b", "c")],
            ),
            # "L:e@x" copied at "y" and "L:e" copied at "x@y" are both "L:e@x@y".
            (
                mk("p a b r", [("e", "a", "b", "u"), ("e@x", "a", "b", "u"), ("g1", "p", "a", "s"), ("g2", "p", "r", "t")]),
                mk("q y x@y w", [("f1", "q", "y", "t"), ("f2", "q", "x@y", "t"), ("f3", "q", "w", "s")]),
                [("a", "y"), ("a", "x@y")],
            ),
        ],
    )
    def test_collision_among_removed_pairs_is_still_an_error(self, g1, g2, clash):
        # s and t synchronise but never meet, so the clashing pairs lose every in-arc.
        for op in (oracle_vrsp, vrsp):
            with pytest.raises(GraphError, match="collide"):
                op(g1, g2)
        # With the clash renamed away, the same pairs are indeed removed.
        renamed = {u: u.replace(",", ";").replace("@", "#") for u in g1.vertices}
        g1 = Graph(
            tuple(renamed.values()),
            tuple(Arc(a.id.replace("@", "#"), renamed[a.tail], renamed[a.head], a.label) for a in g1.arcs),
        )
        survivors = vrsp(g1, g2).vertices
        assert survivors == oracle_vrsp(g1, g2)[0].vertices
        assert all(pair_vertex(renamed[u], x) not in survivors for u, x in clash)


def reached_part(g1: Graph, g2: Graph) -> Graph:
    """The part of the intermediate product that a plain BFS reaches from the pairs of sources."""
    inter = intermediate(g1, g2)
    start = [pair_vertex(u, x) for u in sources(g1) for x in sources(g2)]
    reached, queue = set(start), deque(start)
    while queue:
        for a in inter.out_arcs(queue.popleft()):
            if a.head not in reached:
                reached.add(a.head)
                queue.append(a.head)
    return Graph(tuple(v for v in inter.vertices if v in reached), tuple(a for a in inter.arcs if a.tail in reached))


def bundled(rng: random.Random, g: Graph) -> Graph:
    """``g`` with one to three parallel copies added to some of its arcs."""
    arcs = list(g.arcs)
    for a in g.arcs:
        if rng.random() < 0.5:
            arcs += [Arc(f"{a.id}c{k}", a.tail, a.head, a.label) for k in range(rng.randint(1, 3))]
    return build_graph(g.vertices, arcs)


class TestReachability:
    """VRSP is the part of the intermediate product reached from the pairs of sources."""

    def pairs(self):
        rng = random.Random(71)
        for k in range(640):
            kind = k % 4
            if kind == 0:  # several sources on both sides
                g1 = random_dag(rng, max_vertices=7, max_arcs=5, actions="pqs", prefix="l", min_vertices=3)
                g2 = random_dag(rng, max_vertices=7, max_arcs=5, actions="qrs", prefix="r", min_vertices=3)
            elif kind == 1:  # a single-vertex factor on either side
                g1 = random_dag(rng, max_vertices=1, actions="pqs", prefix="l")
                g2 = random_dag(rng, max_vertices=6, max_arcs=8, actions="qrs", prefix="r")
                g1, g2 = (g1, g2) if rng.random() < 0.5 else (g2, g1)
            elif kind == 2:  # k x l parallel shared arcs
                g1, g2 = (
                    bundled(rng, random_dag(rng, 5, 3, "qs", prefix=p, min_vertices=2, connected=True)) for p in "lr"
                )
            else:  # no shared label
                g1 = random_dag(rng, max_vertices=6, max_arcs=8, actions="pq", prefix="l")
                g2 = random_dag(rng, max_vertices=6, max_arcs=8, actions="rs", prefix="r")
            yield g1, g2

    def test_vrsp_is_the_reached_part(self):
        seen = Counter()
        for g1, g2 in self.pairs():
            result = vrsp(g1, g2)
            assert intermediate(g1, g2) == oracle_product(g1, g2)
            assert result == oracle_vrsp(g1, g2)[0] == reached_part(g1, g2)
            shared = synchronising_labels(g1, g2)
            # The shared labels on parallel arcs of each factor.
            bundled1, bundled2 = ({l for (_, _, l), n in arc_shapes(g).items() if n > 1 and l in shared} for g in (g1, g2))
            seen["several sources"] += len(sources(g1)) > 1 and len(sources(g2)) > 1
            seen["single vertex"] += min(len(g1.vertices), len(g2.vertices)) == 1
            seen["k x l"] += bool(bundled1 & bundled2)
            seen["no shared label"] += not shared
            seen["removal"] += len(result.vertices) < len(g1.vertices) * len(g2.vertices)
        assert min(seen.values()) > 100, seen


def compose_factor(rng: random.Random, prefix: str, syncs: tuple[LabelPair, ...]) -> Graph:
    """A factor shaped like those of the ``compose`` benchmark, smaller.

    A connected core on the factor's own actions, and for each
    synchronising label one or two arcs from core vertices into a private
    chain, so that the label's arcs of two factors pair up k x l.
    """
    own = [L(f"{prefix}{action}", rng.choice((1, 2))) for action in "pq"]
    m = rng.randint(2, 5)
    vertices = [f"{prefix}{i}" for i in range(m)]
    ends = [(vertices[rng.randrange(j)], vertices[j], rng.choice(own)) for j in range(1, m)]
    for _ in range(rng.randint(0, 2)):
        i, j = sorted(rng.sample(range(m), 2))
        ends.append((vertices[i], vertices[j], rng.choice(own)))
    for s, sync in enumerate(syncs):
        path = [f"{prefix}s{s}c{i}" for i in range(rng.randint(1, 3))]
        vertices += path
        ends += [(vertices[rng.randrange(m)], path[0], sync) for _ in range(rng.choice((1, 1, 2)))]
        ends += [(t, h, rng.choice(own)) for t, h in zip(path, path[1:])]
    return build_graph(vertices, [Arc(f"{prefix}e{k}", t, h, label) for k, (t, h, label) in enumerate(ends)])


def compose_triples():
    """120 seeded factor triples A, B, C: A and B share one synchronising label, A and C another, B and C a third."""
    rng = random.Random(83)
    for _ in range(120):
        ab, ac, bc = (L(f"sync{pair}", rng.choice((1, 2))) for pair in ("ab", "ac", "bc"))
        yield compose_factor(rng, "a", (ab, ac)), compose_factor(rng, "b", (ab, bc)), compose_factor(rng, "c", (ac, bc))


class TestNestedProducts:
    """Products whose first factor is itself a VRSP, as in vrsp(vrsp(A, B), C)."""

    def test_products_of_a_product_equal_the_oracle(self):
        seen = Counter()
        for a, b, c in compose_triples():
            inner = oracle_vrsp(a, b)[0]
            product_ab = vrsp(a, b)
            assert product_ab == inner
            for op, oracle in ORACLES.items():
                assert op(product_ab, c) == oracle(inner, c), op.__name__
            seen["two shared labels"] += len(synchronising_labels(product_ab, c)) == 2
            seen["inner removal"] += len(inner.vertices) < len(a.vertices) * len(b.vertices)
            seen["outer removal"] += len(vrsp(product_ab, c).vertices) < len(inner.vertices) * len(c.vertices)
            seen["k x l"] += any(n > 1 for n in arc_shapes(intermediate(product_ab, c)).values())
        assert min(seen.values()) > 90, seen

    def test_the_reach_walk_reads_only_the_factor_index(self, monkeypatch):
        triples = list(islice(compose_triples(), 20))
        calls = []
        real = graph._kahn

        def spy(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(graph, "_kahn", spy)
        for a, b, c in triples:
            inner = vrsp(a, b)
            vrsp(inner, c)
            # A fresh product used as a factor gets no adjacency and no Kahn order.
            assert "_adjacency" not in inner.__dict__
        assert calls == []


def separator_factor(rng: random.Random) -> Graph:
    """A random DAG whose vertex and arc ids are dense in the separators of pair naming.

    Most ids extend an earlier one by a separator and a letter at either
    end, so ids that are prefixes and suffixes of one another, which is
    what pair names need to clash, are common.
    """

    def ids(n: int) -> list[str]:
        drawn: set[str] = set()
        while len(drawn) < n:
            new = rng.choice(("a", "b", "(a)"))
            if drawn and rng.random() < 0.7:
                old, sep = rng.choice(sorted(drawn)), rng.choice(",@*")
                new = rng.choice((old + sep + new, new + sep + old))
            drawn.add(new)
        order = sorted(drawn)
        rng.shuffle(order)
        return order

    vertices = ids(rng.randint(1, 4))
    arcs = []
    if len(vertices) > 1:
        for arc_id in ids(rng.randint(0, 5)):
            i, j = sorted(rng.sample(range(len(vertices)), 2))
            arcs.append(Arc(arc_id, vertices[i], vertices[j], L(rng.choice("pq"))))
    return build_graph(vertices, arcs)


def misordered_factor(rng: random.Random, actions: str) -> Graph:
    """A random DAG whose ids put its products' names out of the order they are made in.

    Arc ids are "@"-prefixes of one another: "e1@" sorts after "e10@", and
    "L:e1@a" after "L:e1@2@a".  Vertex ids hold "," or "+", which sorts
    below it: "a" < "a+" but "(a+,x)" < "(a,x)".  Some pairs of them name
    one product vertex or arc ("(a,b,a)", "L:e1@2@a").
    """
    vertices = rng.sample(("a", "a+", "a,b", "b", "b,a", "2@a"), rng.randint(2, 5))
    arcs = []
    for arc_id in rng.sample(("e1", "e10", "e1@2", "e1@2@a", "e2"), rng.randint(1, 5)):
        i, j = sorted(rng.sample(range(len(vertices)), 2))
        arcs.append(Arc(arc_id, vertices[i], vertices[j], L(rng.choice(actions))))
    return build_graph(vertices, arcs)


class TestGenerationOrder:
    """Products whose names come out of canonical order as they are made."""

    def test_products_equal_the_oracle(self, monkeypatch):
        made_unsorted = Counter()
        real = products.Graph

        def spy(vertices, arcs):
            made_unsorted["vertices"] += list(vertices) != sorted(vertices)
            made_unsorted["arcs"] += list(arcs) != sorted(arcs)
            return real(vertices, arcs)

        monkeypatch.setattr(products, "Graph", spy)
        rng = random.Random(89)
        outcomes = Counter()
        for _ in range(400):
            g1, g2 = misordered_factor(rng, "pq"), misordered_factor(rng, "qr")
            for op, oracle in ORACLES.items():
                try:
                    expected = oracle(g1, g2)
                except GraphError:
                    with pytest.raises(GraphError, match="collide"):
                        op(g1, g2)
                    outcomes[op.__name__, "clash"] += 1
                else:
                    assert op(g1, g2) == expected
                    outcomes[op.__name__, "equal"] += 1
        assert made_unsorted["vertices"] > 100 and made_unsorted["arcs"] > 100, made_unsorted
        assert min(outcomes.values()) > 100 and len(outcomes) == 6, outcomes


class TestClashRule:
    """The clash check, decided on factor ids, against naming every pair and arc."""

    def test_agrees_with_the_oracle(self):
        rng = random.Random(79)
        clashes = Counter()
        for _ in range(3000):
            g1, g2 = separator_factor(rng), separator_factor(rng)
            raised = []
            for op, oracle in ORACLES.items():
                try:
                    expected = oracle(g1, g2)
                except GraphError:
                    with pytest.raises(GraphError, match="collide"):
                        op(g1, g2)
                    raised.append(op.__name__)
                else:
                    assert op(g1, g2) == expected
            clashes[tuple(raised)] += 1
        # Clashes only of Cartesian copies, and only of diagonals ("S:" ids
        # of arcs whose labels pair), both occur.
        assert clashes["cartesian",] > 50 and clashes["intermediate", "vrsp"] > 5
        assert clashes["cartesian", "intermediate", "vrsp"] > 50 and clashes[()] > 2000

    @pytest.mark.parametrize("pairing, clash", [(("p", "q", "p", "q"), True), (("p", "q", "q", "p"), False)])
    def test_diagonal_names_clash_only_for_arcs_that_pair(self, pairing, clash):
        # Left arcs "a" and "a*x", right arcs "x*y" and "y": "S:a*x*y" names
        # both (a, x*y) and (a*x, y), but only if each of those arcs pair.
        la, lax, rxy, ry = pairing
        g1 = mk("u v", [("a", "u", "v", la), ("a*x", "u", "v", lax)])
        g2 = mk("s t", [("x*y", "s", "t", rxy), ("y", "s", "t", ry)])
        for op in (intermediate, vrsp):
            if clash:
                for build in (op, ORACLES[op]):
                    with pytest.raises(GraphError, match="collide"):
                        build(g1, g2)
            else:
                assert op(g1, g2) == ORACLES[op](g1, g2)


class TestCliAgainstOracle:
    @pytest.mark.parametrize("kind", ["cartesian", "intermediate", "vrsp"])
    def test_every_fixture_pair(self, capsys, kind):
        names = sorted(p.stem for p in fixture_dir().glob("*.json"))
        for left in names:
            for right in names:
                g1, g2 = load_graph(left), load_graph(right)
                if kind == "vrsp":
                    expected = oracle_vrsp(g1, g2)[0]
                else:
                    expected = oracle_product(g1, g2, synchronise=kind == "intermediate")
                code = main(["product", "--kind", kind, str(fixture_path(f"{left}.json")), str(fixture_path(f"{right}.json"))])
                assert (code, capsys.readouterr().out) == (0, oracle_text(expected)), (left, right)
