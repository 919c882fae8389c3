"""Cartesian, intermediate, and vertex-removing synchronised products."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from conftest import L, mk, random_dag

from vrsp.errors import EmptyFactorError, GraphError, InvalidGraphError
from vrsp.fixtures import load_graph
from vrsp.graph import Arc, Graph, label_set, sources, validate
from vrsp.isomorphism import find_isomorphism
from vrsp.products import arc_class, cartesian, intermediate, pair_vertex, synchronising_labels, vrsp


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
