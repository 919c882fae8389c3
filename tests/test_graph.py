"""Core data model and structural queries."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import L, mk, random_dag

from vrsp.errors import InvalidGraphError, UnknownVertexError
from vrsp.graph import (
    Arc,
    Graph,
    LabelPair,
    build_graph,
    induced_subgraph,
    is_weakly_connected,
    label_set,
    level,
    levels,
    sources,
    spanning_subgraph_by_labels,
    validate,
    weak_components,
)


def brute_longest_path_to(g: Graph, target: str) -> int:
    """Independent oracle: enumerate every directed path ending at target."""

    def walk(v: str) -> int:
        return max((walk(a.tail) + 1 for a in g.in_arcs(v)), default=0)

    return walk(target)


class TestLabelPair:
    def test_equality_is_exact_on_both_components(self):
        assert L("a", 1) == L("a", 1)
        assert L("a", 1) != L("a", 2)
        assert L("a", 1) != L("b", 1)
        assert L("a", Fraction(1, 2)) == L("a", Fraction(2, 4))

    def test_action_must_be_nonempty(self):
        with pytest.raises(ValueError):
            LabelPair("")

    def test_weight_rejects_floats(self):
        with pytest.raises(ValueError):
            LabelPair("a", 0.5)  # type: ignore[arg-type]

    def test_pickled_labels_hash_afresh_in_another_process(self):
        # The hash is cached, and str hashes differ between processes.
        make = "from fractions import Fraction; from vrsp.graph import LabelPair; labels = {LabelPair('a', Fraction(3, 2)), LabelPair('b')}"
        dump = make + "; import pickle, sys; sys.stdout.buffer.write(pickle.dumps(labels))"
        load = make + "; import pickle, sys; sys.exit(pickle.loads(sys.stdin.buffer.read()) != labels)"

        def child(code: str, seed: str, data: bytes = b"") -> bytes:
            env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"), PYTHONHASHSEED=seed)
            return subprocess.run([sys.executable, "-c", code], input=data, env=env, capture_output=True, check=True, timeout=60).stdout

        child(load, "2", child(dump, "1"))


class TestValidate:
    def test_single_vertex_no_arcs_is_valid(self):
        assert validate(Graph(("u",), ())) == []

    def test_two_cycle_is_diagnosed_with_witness(self):
        g = Graph(("u", "v"), (Arc("e1", "u", "v", L("a")), Arc("e2", "v", "u", L("a"))))
        diags = validate(g)
        assert [d.code for d in diags] == ["cycle"]
        assert set(diags[0].subject) == {"u", "v"}

    def test_fig1_is_valid(self, fig1):
        assert validate(fig1) == []
        assert len(fig1.vertices) == 12 and len(fig1.arcs) == 17

    def test_dangling_and_duplicate_and_self_loop(self):
        g = Graph(
            ("u", "v"),
            (
                Arc("e1", "u", "ghost", L("a")),
                Arc("e2", "u", "v", L("a")),
                Arc("e2", "u", "v", L("b")),
                Arc("e3", "v", "v", L("a")),
            ),
        )
        codes = sorted(d.code for d in validate(g))
        assert codes == ["dangling-arc", "duplicate-arc-id", "self-loop"]

    def test_repeated_vertex_id_is_diagnosed_not_merged(self):
        g = Graph(("v", "u", "u"), (Arc("e1", "u", "v", L("a")),))
        assert g.vertices == ("u", "u", "v")
        # The cycle check runs on the vertex set, so the repeat is no false cycle.
        assert [(d.code, d.subject) for d in validate(g)] == [("duplicate-vertex-id", ("u",))]

    def test_build_graph_rejects_repeated_vertex_ids(self):
        with pytest.raises(InvalidGraphError, match="duplicate-vertex-id"):
            build_graph(["u", "u", "v"], [])

    def test_build_graph_raises_with_diagnostics(self):
        with pytest.raises(InvalidGraphError) as err:
            build_graph(["u"], [Arc("e1", "u", "missing", L("a"))])
        assert any(d.code == "dangling-arc" for d in err.value.diagnostics)


class TestLevel:
    def test_sources_have_level_zero(self, fig1):
        for v in sources(fig1):
            assert level(fig1, v) == 0

    def test_chain(self):
        g = mk("t m h", [("e1", "t", "m", "a"), ("e2", "m", "h", "a")])
        assert level(g, "h") == 2

    def test_fig1_bottom_right_corner(self, fig1):
        assert level(fig1, "u12") == 5
        assert level(fig1, "u12") == brute_longest_path_to(fig1, "u12")

    def test_level_zero_iff_source(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_dag(rng)
            lvl = levels(g)
            for v in g.vertices:
                assert (lvl[v] == 0) == (g.in_degree(v) == 0)
                assert lvl[v] == brute_longest_path_to(g, v)

    def test_unknown_vertex(self, fig1):
        with pytest.raises(UnknownVertexError):
            level(fig1, "nope")

    def test_invalid_graph_is_reported_not_a_key_error(self):
        cases = [
            Graph(("u",), (Arc("e1", "u", "ghost", L("a")),)),
            Graph(("u",), (Arc("e1", "ghost", "u", L("a")),)),
            Graph(("u", "u", "v"), (Arc("e1", "u", "v", L("a")),)),
            Graph(("u", "v"), (Arc("e1", "u", "v", L("a")), Arc("e2", "v", "u", L("a")))),
        ]
        for g in cases:
            with pytest.raises(InvalidGraphError):
                levels(g)


class TestSources:
    def test_single_vertex(self):
        g = Graph(("u",), ())
        assert sources(g) == {"u"}

    def test_fig1(self, fig1):
        assert sources(fig1) == {"u1"}


class TestLabelSet:
    def test_no_arcs(self):
        assert label_set(Graph(("u",), ())) == set()

    def test_fig1(self, fig1):
        assert label_set(fig1) == {L("a"), L("b"), L("c")}

    def test_fig3_parallel_factor(self):
        from vrsp.fixtures import load_graph

        assert label_set(load_graph("fig3_g2")) == {L("b"), L("c")}


class TestSubgraphs:
    def test_induced_full_is_identity(self, fig1):
        assert induced_subgraph(fig1, fig1.vertices).arcs == fig1.arcs

    def test_induced_empty(self, fig1):
        g = induced_subgraph(fig1, ())
        assert g.vertices == () and g.arcs == ()

    def test_induced_top_row_is_bbc_path(self, fig1):
        top = induced_subgraph(fig1, {"u1", "u4", "u7", "u10"})
        assert sorted((a.tail, a.head, a.label.action) for a in top.arcs) == [
            ("u1", "u4", "b"),
            ("u4", "u7", "b"),
            ("u7", "u10", "c"),
        ]

    def test_induced_unknown_vertex(self, fig1):
        with pytest.raises(UnknownVertexError):
            induced_subgraph(fig1, {"u1", "nope"})

    def test_spanning_identity_and_empty(self, fig1):
        assert spanning_subgraph_by_labels(fig1, label_set(fig1)) == Graph(fig1.vertices, fig1.arcs)
        empty = spanning_subgraph_by_labels(fig1, ())
        assert empty.vertices == fig1.vertices and empty.arcs == ()

    def test_spanning_a_arcs_gives_four_columns(self, fig1):
        cols = weak_components(spanning_subgraph_by_labels(fig1, {L("a")}))
        assert [len(c) for c in cols] == [3, 3, 3, 3]

    def test_spanning_split_partitions_arcs(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_dag(rng, actions="pqrs")
            labels = sorted(label_set(g))
            half = set(labels[: len(labels) // 2])
            left = spanning_subgraph_by_labels(g, half)
            right = spanning_subgraph_by_labels(g, set(labels) - half)
            left_ids = {a.id for a in left.arcs}
            right_ids = {a.id for a in right.arcs}
            assert not left_ids & right_ids
            assert left_ids | right_ids == {a.id for a in g.arcs}


class TestWeakComponents:
    def test_single_vertex(self):
        assert weak_components(Graph(("v",), ())) == [{"v"}]

    def test_fig1_is_connected(self, fig1):
        assert weak_components(fig1) == [set(fig1.vertices)]
        assert is_weakly_connected(fig1)

    def test_partition_property(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_dag(rng)
            comps = weak_components(g)
            union = set()
            for c in comps:
                assert not union & c
                union |= c
            assert union == set(g.vertices)

    def test_empty_graph_not_connected(self):
        assert not is_weakly_connected(Graph((), ()))


class TestGraphValue:
    def test_equality_ignores_construction_order(self):
        a1 = Arc("e1", "u", "v", L("a"))
        a2 = Arc("e2", "v", "w", L("b"))
        assert Graph(("w", "v", "u"), (a2, a1)) == Graph(("u", "v", "w"), (a1, a2))

    def test_parallel_same_label_arcs_are_distinct(self):
        g = mk("u v", [("e1", "u", "v", "a"), ("e2", "u", "v", "a")])
        assert len(g.arcs) == 2
