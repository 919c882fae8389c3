"""Vertex-set contraction and family contraction."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from conftest import L, mk, nx_weak_components, path_graph, random_dag, random_interval_family

from vrsp import graph
from vrsp.errors import CycleCreatedError, GraphError, InvalidGraphError, UnknownVertexError
from vrsp.graph import Arc, Graph, is_weakly_connected, label_set, validate
from vrsp.isomorphism import find_isomorphism
from vrsp.quotient import VertexFamily, contract, contract_family


def canonical_ids(g, fam, prefix):
    """The (set, fresh id) pairs that contract_family mints: canonical order, ids of g skipped."""
    pairs, index = [], 1
    for s in sorted(map(frozenset, fam), key=min):
        while f"{prefix}{index}" in g.vertex_set:
            index += 1
        pairs.append((s, f"{prefix}{index}"))
        index += 1
    return pairs


def random_disjoint_family(rng, g, max_sets=4):
    """Disjoint vertex sets drawn regardless of order, so contracting them may create a cycle."""
    bins = [set() for _ in range(rng.randint(1, max_sets))]
    for v in g.vertices:
        k = rng.randrange(len(bins) + 1)
        if k < len(bins):
            bins[k].add(v)
    return [b for b in bins if b] or [{g.vertices[0]}]


class TestContract:
    def test_full_contraction_leaves_one_bare_vertex(self, fig1):
        g = contract(fig1, fig1.vertices, "~")
        assert g.vertices == ("~",) and g.arcs == ()

    def test_fig1_rows_contract_to_aa_path(self, fig1, fig1_rows):
        g = fig1
        for i, row in enumerate(fig1_rows.sets):
            g = contract(g, row, f"y~{i + 1}")
        assert sorted((a.tail, a.head, a.label.action) for a in g.arcs) == [
            ("y~1", "y~2", "a"),
            ("y~2", "y~3", "a"),
        ]

    def test_non_convex_set_reports_cycle(self):
        g = mk("u v w", [("e1", "u", "v", "a"), ("e2", "v", "w", "a")])
        with pytest.raises(CycleCreatedError) as err:
            contract(g, {"u", "w"}, "~")
        assert set(err.value.witness) == {"~", "v"}

    def test_vertex_count_law(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_dag(rng, connected=True, min_vertices=2)
            for x in random_interval_family(rng, g):
                out = contract(g, x, "~new~")
                assert len(out.vertices) == len(g.vertices) - len(x) + 1

    def test_boundary_labels_preserved_without_duplicates(self):
        g = mk(
            "u v w z",
            [("e1", "u", "v", "a"), ("e2", "v", "w", "b"), ("e3", "v", "z", "b"), ("e4", "w", "z", "c")],
        )
        out = contract(g, {"w", "z"}, "~")
        # e4 is internal; e2 and e3 both become v->~ labelled b and collapse.
        assert Counter((a.tail, a.head, a.label.action) for a in out.arcs) == Counter(
            [("u", "v", "a"), ("v", "~", "b")]
        )
        assert {a.id for a in out.arcs} == {"e1", "e2"}

    def test_boundary_label_multiset_law(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_dag(rng, actions="pqrs", connected=True, min_vertices=2)
            x = rng.choice(random_interval_family(rng, g))
            out = contract(g, x, "~new~")
            boundary = [a for a in g.arcs if (a.tail in x) != (a.head in x)]
            merged_keys = Counter(
                ("~new~" if a.tail in x else a.tail, "~new~" if a.head in x else a.head, a.label)
                for a in boundary
            )
            expected = Counter(a.label for a in g.arcs if a.tail not in x and a.head not in x)
            expected += Counter(label for (_, _, label), _ in merged_keys.items())
            assert Counter(a.label for a in out.arcs) == expected

    def test_never_self_loops(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_dag(rng, connected=True, min_vertices=2)
            for x in random_interval_family(rng, g):
                out = contract(g, x, "~new~")
                assert all(a.tail != a.head for a in out.arcs)

    def test_quotients_of_checked_graphs_are_not_validated_again(self, monkeypatch):
        rng = random.Random(13)
        graphs = [random_dag(rng, connected=True, min_vertices=2) for _ in range(40)]
        calls = []
        real = graph.validate
        monkeypatch.setattr(graph, "validate", lambda g: calls.append(g) or real(g))
        for g in graphs:
            for x in random_interval_family(rng, g):
                out = contract(g, x, "~new~")
                assert out.check() is out and calls == []
                assert validate(out) == []
        # An unchecked graph's quotient is validated, and keeps the repeated arc id.
        g = Graph(("u", "v", "w"), (Arc("e1", "u", "v", L("a")), Arc("e1", "v", "w", L("b"))))
        with pytest.raises(InvalidGraphError, match="duplicate-arc-id"):
            contract(g, {"w"}, "x").check()
        assert len(calls) == 1

    def test_errors(self, fig1):
        with pytest.raises(GraphError):
            contract(fig1, (), "~")
        with pytest.raises(UnknownVertexError):
            contract(fig1, {"nope"}, "~")
        with pytest.raises(GraphError):
            contract(fig1, {"u1"}, "u2")  # replacement id already taken


class TestVertexFamily:
    def test_rejects_overlap(self):
        with pytest.raises(GraphError):
            VertexFamily.of([{"u", "v"}, {"v", "w"}])

    def test_rejects_empty_set(self):
        with pytest.raises(GraphError):
            VertexFamily.of([set()])

    def test_check_against(self, fig1):
        with pytest.raises(UnknownVertexError):
            VertexFamily.of([{"u1", "nope"}]).check_against(fig1)
        fam = VertexFamily.of([{"u1", "u2"}, {"u3"}])
        assert fam.check_against(fig1) is fam and len(fam) == 2


class TestContractFamily:
    def test_singleton_family_is_a_renaming(self, fig1):
        fam = [{v} for v in fig1.vertices]
        out = contract_family(fig1, fam, "r~")
        assert len(out.vertices) == len(fig1.vertices)
        assert find_isomorphism(fig1, out) is not None

    def test_fig1_columns_give_bbc_path(self, fig1, fig1_cols):
        out = contract_family(fig1, fig1_cols, "x~")
        assert len(out.vertices) == 4
        assert find_isomorphism(out, path_graph(["b", "b", "c"])) is not None

    def test_fig1_rows_give_aa_path(self, fig1, fig1_rows):
        out = contract_family(fig1, fig1_rows, "y~")
        assert find_isomorphism(out, path_graph(["a", "a"])) is not None

    def test_fig3_rows_give_single_a_arc(self, fig3):
        from vrsp.fixtures import load_family

        out = contract_family(fig3, load_family("fig3", "rows"), "y~")
        assert find_isomorphism(out, path_graph(["a"])) is not None

    def test_parallel_distinct_labels_survive(self, fig3):
        from vrsp.fixtures import load_family

        out = contract_family(fig3, load_family("fig3", "cols"), "x~")
        assert len(out.vertices) == 2 and len(out.arcs) == 2
        assert label_set(out) == {L("b"), L("c")}

    def test_contraction_order_is_irrelevant(self, fig1, fig1_rows, fig1_cols):
        rng = random.Random(21)
        for fam in (fig1_rows, fig1_cols):
            reference = contract_family(fig1, fam, "z~")
            for _ in range(10):
                assert contract_family(fig1, fam, "z~", rng=rng) == reference

    def test_family_listing_order_is_irrelevant(self, fig1, fig1_cols):
        rng = random.Random(22)
        sets = list(fig1_cols.sets)
        reference = contract_family(fig1, sets, "x~")
        for _ in range(10):
            rng.shuffle(sets)
            assert contract_family(fig1, sets, "x~") == reference

    def test_random_families_order_independent(self):
        rng = random.Random(23)
        for _ in range(25):
            g = random_dag(rng, actions="pq", connected=True, min_vertices=3, max_vertices=7)
            fam = random_interval_family(rng, g)
            reference = contract_family(g, fam, "k~")
            for _ in range(5):
                assert contract_family(g, fam, "k~", rng=rng) == reference

    def test_matches_a_fold_of_single_set_contractions(self):
        rng = random.Random(29)
        cycles = 0
        for trial in range(400):
            g = random_dag(rng, actions="pq", min_vertices=2, max_vertices=8, max_arcs=14)
            pick = random_interval_family if trial % 2 else random_disjoint_family
            fam = pick(rng, g)
            minted = canonical_ids(g, fam, "k~")
            expected = g
            try:
                for s, new_id in minted:
                    expected = contract(expected, s, new_id)
            except CycleCreatedError:
                with pytest.raises(CycleCreatedError) as err:
                    contract_family(g, fam, "k~")
                # The witness is a cycle of the whole quotient.
                image = {v: new_id for s, new_id in minted for v in s}
                steps = {(image.get(a.tail, a.tail), image.get(a.head, a.head)) for a in g.arcs}
                cycle = err.value.witness
                assert len(set(cycle)) == len(cycle) >= 2
                assert all((u, w) in steps for u, w in zip(cycle, cycle[1:] + cycle[:1]))
                cycles += 1
            else:
                assert contract_family(g, fam, "k~") == expected
        assert cycles >= 30

    def test_quotients_keep_a_known_connectivity_verdict(self):
        # A quotient of a graph recorded as weakly connected is recorded as
        # connected where it is made; any other quotient is searched when asked.
        rng = random.Random(31)
        seen = Counter()
        for trial in range(200):
            g = random_dag(rng, actions="pq", min_vertices=2, max_vertices=8, max_arcs=5)
            if trial % 2 and len(nx_weak_components(g.vertices, g.arcs)) == 1:
                graph._connected_by_construction(g)
            fam = random_interval_family(rng, g)
            q = contract_family(g, fam, "k~") if trial % 4 < 2 else contract(g, fam[0], "k~")
            recorded = "_connected" in q.__dict__
            assert recorded == ("_connected" in g.__dict__)
            assert is_weakly_connected(q) == (len(nx_weak_components(q.vertices, q.arcs)) == 1)
            seen[(recorded, is_weakly_connected(q))] += 1
        assert len(seen) == 3, seen

    def test_minting_skips_taken_ids(self):
        g = mk("y~1 u v", [("e1", "y~1", "u", "a"), ("e2", "u", "v", "b")])
        out = contract_family(g, [{"u", "v"}], "y~")
        assert set(out.vertices) == {"y~1", "y~2"}

    def test_fig2_factor_fixtures_are_the_fig2_quotients(self, fig2):
        from vrsp.fixtures import load_family, load_graph
        from vrsp.graph import Graph

        q_rows = contract_family(fig2, load_family("fig2", "rows"), "y~")
        q_cols = contract_family(fig2, load_family("fig2", "cols"), "x~")
        g1, g2 = load_graph("fig2_g1"), load_graph("fig2_g2")
        assert q_rows == Graph(g1.vertices, g1.arcs)
        assert q_cols == Graph(g2.vertices, g2.arcs)

    def test_quotient_of_quotient_keeps_ids_fresh(self, fig1, fig1_rows):
        once = contract_family(fig1, fig1_rows, "y~")
        again = contract_family(once, [{"y~1", "y~2"}], "y~")
        assert set(again.vertices) == {"y~3", "y~4"}  # y~1/y~2 taken, minting moves on
        assert find_isomorphism(again, path_graph(["a"])) is not None
