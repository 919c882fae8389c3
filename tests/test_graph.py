"""Core data model and structural queries."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import L, mk, nx_weak_components, path_graph, random_dag

from vrsp import graph as vrsp_graph
from vrsp.decomposition import find_decompositions
from vrsp.errors import InvalidGraphError, UnknownVertexError
from vrsp.graph import (
    Arc,
    Diagnostic,
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
    topological_order,
    validate,
    weak_components,
)
from vrsp.products import cartesian, vrsp
from vrsp.serialization import emit_graph


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
        # Labels hash by identity, so an unpickled label must be the one its process already holds.
        make = "from fractions import Fraction; from vrsp.graph import LabelPair; labels = {LabelPair('a', Fraction(3, 2)), LabelPair('b')}"
        dump = make + "; import pickle, sys; sys.stdout.buffer.write(pickle.dumps(labels))"
        load = make + "; import pickle, sys; sys.exit(pickle.loads(sys.stdin.buffer.read()) != labels)"

        def child(code: str, seed: str, data: bytes = b"") -> bytes:
            env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"), PYTHONHASHSEED=seed)
            return subprocess.run([sys.executable, "-c", code], input=data, env=env, capture_output=True, check=True, timeout=60).stdout

        child(load, "2", child(dump, "1"))

    def test_equal_labels_are_one_object(self):
        label = LabelPair("a", 1)
        assert LabelPair("a", Fraction(2, 2)) is label
        assert LabelPair(action="a", weight=Fraction(1)) is label
        assert LabelPair("a") is label
        assert LabelPair("a", 2) is not label and LabelPair("b") is not label

    def test_copies_are_the_interned_label(self):
        label = LabelPair("a", Fraction(3, 2))
        assert copy.copy(label) is label
        assert copy.deepcopy(label) is label
        assert copy.deepcopy([label, label]) == [label, label]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(label, protocol)) is label
        assert dataclasses.replace(label) is label
        assert dataclasses.replace(label, weight=Fraction(6, 4)) is label
        assert dataclasses.replace(label, action="b") is LabelPair("b", Fraction(3, 2))

    def test_threads_racing_on_new_labels_share_one_object(self):
        prefix = f"race{time.perf_counter_ns()}-"  # actions no earlier call has interned
        results: list[list[LabelPair]] = [[] for _ in range(8)]
        start = threading.Barrier(len(results))

        def make(out: list[LabelPair]) -> None:
            start.wait(timeout=30)
            out.extend(LabelPair(f"{prefix}{k}", Fraction(k, 7)) for k in range(2000))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=make, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(out) == 2000 for out in results)
        for labels in zip(*results):
            assert all(l is labels[0] for l in labels)

    def test_dataclass_surface(self):
        label = LabelPair("a", Fraction(1, 2))
        assert repr(label) == "LabelPair(action='a', weight=Fraction(1, 2))"
        assert [f.name for f in dataclasses.fields(label)] == ["action", "weight"]
        assert isinstance(label.weight, Fraction) and isinstance(LabelPair("a", 3).weight, Fraction)
        with pytest.raises(dataclasses.FrozenInstanceError):
            label.action = "b"  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            label.weight = Fraction(1)  # type: ignore[misc]

    def test_order_matches_the_tuple_order(self):
        rng = random.Random(41)
        labels = [LabelPair(rng.choice("abc"), Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(40)]

        def key(l: LabelPair) -> tuple:
            return (l.action, l.weight)

        for x in labels:
            for y in labels:
                assert (x < y, x <= y, x > y, x >= y) == (key(x) < key(y), key(x) <= key(y), key(x) > key(y), key(x) >= key(y))
                assert (x == y) == (key(x) == key(y))
        assert [key(l) for l in sorted(labels)] == sorted(map(key, labels))
        with pytest.raises(TypeError):
            LabelPair("a") < ("a", 1)  # type: ignore[operator]

    def test_composition_compares_and_hashes_no_fraction(self, monkeypatch):
        # Every arc gets a label from its own constructor call, and no two
        # labels share an action, so no sort ever looks at a weight.
        def grid(prefix: str, rows: int, cols: int) -> Graph:
            vertices = [f"{prefix}{i}.{j}" for i in range(rows) for j in range(cols)]
            arcs = []
            for i in range(rows):
                for j in range(cols):
                    if j + 1 < cols:
                        arcs.append(Arc(f"h{i}.{j}", f"{prefix}{i}.{j}", f"{prefix}{i}.{j + 1}", LabelPair(f"h{j}", Fraction(j + 1, 2))))
                    if i + 1 < rows:
                        arcs.append(Arc(f"v{i}.{j}", f"{prefix}{i}.{j}", f"{prefix}{i + 1}.{j}", LabelPair(f"v{i}", Fraction(i + 2, 3))))
            return build_graph(vertices, arcs)

        def path(prefix: str, actions: str) -> Graph:
            vertices = [f"{prefix}{i}" for i in range(len(actions) + 1)]
            arcs = [Arc(f"{prefix}e{i}", vertices[i], vertices[i + 1], LabelPair(f"act{a}", Fraction(7, 3))) for i, a in enumerate(actions)]
            return build_graph(vertices, arcs)

        g = grid("g", 3, 4)
        a, b, c = path("a", "psxq"), path("b", "syrt"), path("c", "xytu")
        calls: Counter = Counter()
        for name in ("__eq__", "__hash__"):
            real = getattr(Fraction, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(Fraction, name, counted)

        found = find_decompositions(g)
        y = vrsp(vrsp(a, b), c)
        emit_graph(g), emit_graph(y)
        monkeypatch.undo()
        assert calls == Counter()
        assert len(found) == 1 and len(y.arcs) > 0


class TestArc:
    def test_tuple_surface(self):
        label = L("a", Fraction(1, 2))
        arc = Arc(id="e1", tail="u", head="v", label=label)
        assert arc == Arc("e1", "u", "v", label) and (arc.id, arc.tail, arc.head, arc.label) == ("e1", "u", "v", label)
        assert hash(arc) == hash(("e1", "u", "v", label))
        assert repr(arc) == "Arc(id='e1', tail='u', head='v', label=LabelPair(action='a', weight=Fraction(1, 2)))"
        with pytest.raises(AttributeError):
            arc.head = "w"  # type: ignore[misc]
        copy = pickle.loads(pickle.dumps(arc))
        assert copy == arc and type(copy) is Arc and copy.label is label

    def test_graphs_order_arcs_by_their_fields(self):
        rng = random.Random(47)
        repeated = 0
        for _ in range(100):
            arcs = [
                Arc(rng.choice(("e1", "e2", "e3")), rng.choice("uvw"), rng.choice("uvw"), L(rng.choice("ab"), rng.choice((1, 2))))
                for _ in range(rng.randint(0, 12))
            ]
            g = Graph(("u", "v", "w"), tuple(arcs))
            assert g.arcs == tuple(sorted(arcs, key=lambda a: (a.id, a.tail, a.head, a.label)))
            repeated += len({a[:3] for a in arcs}) < len(set(arcs))
        assert repeated > 20


def validate_oracle(g: Graph) -> list[Diagnostic]:
    """What ``validate`` reports on a graph whose sound arcs are acyclic, with repeats counted by ``Counter``."""
    diags = []
    for kind, ids in (("vertex", g.vertices), ("arc", [a.id for a in g.arcs])):
        for dup, n in sorted(Counter(ids).items()):
            if n > 1:
                diags.append(Diagnostic(f"duplicate-{kind}-id", f"{kind} id {dup!r} occurs {n} times", (dup,)))
    vertices = set(g.vertices)
    for a in g.arcs:
        dangling = [e for e in (a.tail, a.head) if e not in vertices]
        if dangling:
            ends = ", ".join(map(repr, dangling))
            diags.append(Diagnostic("dangling-arc", f"arc {a.id!r} references missing vertex {ends}", (a.id,)))
        elif a.tail == a.head:
            diags.append(Diagnostic("self-loop", f"arc {a.id!r} is a self-loop on {a.tail!r}", (a.id,)))
    return diags


def tangled_graph(rng: random.Random, name) -> Graph:
    """An unchecked graph with repeated vertex and arc ids, dangling arcs and self-loops, named by ``name(k)``.

    An arc that is neither dangling nor a loop points from a lower to a
    higher vertex index, so the sound arcs are acyclic.  A repeated arc id
    may come with other ends.
    """
    n = rng.randint(1, 7)
    vertices = [name(i) for i in range(n)]
    vertices += rng.choices(vertices, k=rng.choice((0, 0, 1, 3)))
    arcs = []
    for k in range(rng.randint(0, 10)):
        arc_id = rng.choice(arcs).id if arcs and rng.random() < 0.3 else name(100 + k)
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        tail, head = rng.choice([(name(i), name(j))] * 4 + [(name(i), name(i)), (name(50), name(j)), (name(i), name(51))])
        arcs.append(Arc(arc_id, tail, head, L(rng.choice("ab"))))
    return Graph(tuple(vertices), tuple(arcs))


class TestValidate:
    @pytest.mark.parametrize("name", [lambda k: f"v{k}", lambda k: k], ids=["str", "int"])
    def test_repeated_ids_match_the_counter_oracle(self, name):
        rng = random.Random(131)
        codes = Counter()
        for _ in range(600):
            g = tangled_graph(rng, name)
            diags = validate(g)
            assert diags == validate_oracle(g)
            codes.update(d.code for d in diags)
        assert min(codes[c] for c in ("duplicate-vertex-id", "duplicate-arc-id", "dangling-arc", "self-loop")) > 50
        assert "cycle" not in codes

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

    def test_cycle_is_found_among_the_sound_arcs(self):
        g = Graph(
            ("u", "v", "w"),
            (
                Arc("e1", "u", "v", L("a")),
                Arc("e2", "v", "u", L("a")),
                Arc("e3", "w", "ghost", L("a")),
                Arc("e4", "w", "w", L("a")),
            ),
        )
        assert [(d.code, d.subject) for d in validate(g)] == [
            ("dangling-arc", ("e3",)),
            ("self-loop", ("e4",)),
            ("cycle", ("u", "v")),
        ]

    def test_cycle_witness_skips_vertices_downstream_of_it(self):
        ends = [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d"), ("d", "e"), ("a", "e")]
        g = Graph(tuple("abcde"), tuple(Arc(f"e{i}", t, h, L("x")) for i, (t, h) in enumerate(ends)))
        assert [(d.code, d.message) for d in validate(g)] == [("cycle", "directed cycle b -> c -> b")]

    def test_checking_builds_the_adjacency_later_queries_use(self):
        g = Graph(("u", "v"), (Arc("e1", "u", "v", L("a")),)).check()
        assert "_adjacency" in g.__dict__

    def test_checking_keeps_no_vertex_set(self):
        # The adjacency's keys are the vertices; a second set of them would cost
        # several MB on a large graph, which no caller of check asked for.
        g = Graph(("u", "v", "w"), (Arc("e1", "u", "v", L("a")), Arc("e2", "v", "w", L("b")))).check()
        assert "vertex_set" not in g.__dict__
        assert g.vertex_set == {"u", "v", "w"}

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

    def test_repeated_arc_id_is_invalid_even_when_acyclic(self):
        g = Graph(("u", "v", "w"), (Arc("e1", "u", "v", L("a")), Arc("e1", "v", "w", L("b"))))
        assert [d.code for d in validate(g)] == ["duplicate-arc-id"]
        for query in (topological_order, levels):
            with pytest.raises(InvalidGraphError, match="duplicate-arc-id"):
                query(g)


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

    @pytest.mark.parametrize(
        "vertices, arcs",
        [
            ("u v", [("e1", "u", "v"), ("e2", "x", "v")]),  # dangling tail
            ("u v", [("e1", "u", "v"), ("e2", "u", "x")]),  # dangling head
            ("u v w", [("e1", "u", "x"), ("e2", "x", "w")]),  # joined only through a missing vertex
            ("u v", [("e1", "u", "u"), ("e2", "u", "v")]),  # self-loop
            ("u v", [("e1", "v", "v")]),  # a self-loop joins nothing
            ("u u v w", [("e1", "u", "v")]),  # repeated vertex id
            ("", []),
            ("", [("e1", "u", "v")]),  # arcs and no vertices
        ],
    )
    def test_unchecked_graphs_match_the_arc_based_components(self, vertices, arcs):
        g = Graph(tuple(vertices.split()), tuple(Arc(i, t, h, L("a")) for i, t, h in arcs))
        expected = nx_weak_components(g.vertices, g.arcs)
        # Asked twice, and again after the components: the kept verdict must not drift.
        assert is_weakly_connected(g) == is_weakly_connected(g) == (len(expected) == 1)
        assert weak_components(g) == expected
        assert is_weakly_connected(g) == (len(expected) == 1)

    def test_random_unchecked_graphs_match_the_arc_based_components(self):
        # Ends are drawn from a pool wider than the vertices, so arcs dangle;
        # vertex ids repeat, and tails may equal heads.
        rng = random.Random(211)
        seen = Counter()
        for _ in range(100):
            pool = [f"v{i}" for i in range(rng.randint(1, 9))]
            vertices = [rng.choice(pool) for _ in range(rng.randint(0, len(pool)))]
            arcs = [Arc(f"e{k}", rng.choice(pool), rng.choice(pool), L("a")) for k in range(rng.randint(0, 10))]
            g = Graph(tuple(vertices), tuple(arcs))
            expected = nx_weak_components(g.vertices, g.arcs)
            assert is_weakly_connected(g) == is_weakly_connected(g) == (len(expected) == 1)
            assert weak_components(g) == expected
            assert is_weakly_connected(g) == (len(expected) == 1)
            codes = {d.code for d in validate(g)}
            seen.update(codes)
            seen["connected"] += len(expected) == 1
            seen["split"] += len(expected) > 1
        assert all(seen[key] for key in ("dangling-arc", "self-loop", "duplicate-vertex-id", "connected", "split")), seen


class TestGraphValue:
    def test_equality_ignores_construction_order(self):
        a1 = Arc("e1", "u", "v", L("a"))
        a2 = Arc("e2", "v", "w", L("b"))
        assert Graph(("w", "v", "u"), (a2, a1)) == Graph(("u", "v", "w"), (a1, a2))

    def test_parallel_same_label_arcs_are_distinct(self):
        g = mk("u v", [("e1", "u", "v", "a"), ("e2", "u", "v", "a")])
        assert len(g.arcs) == 2

    def test_degrees_count_parallel_arcs(self):
        g = mk("u v w", [("e1", "u", "v", "a"), ("e2", "u", "v", "b"), ("e3", "v", "w", "a")])
        assert [g.out_degree(v) for v in g.vertices] == [2, 1, 0]
        assert [g.in_degree(v) for v in g.vertices] == [0, 2, 1]
        with pytest.raises(UnknownVertexError):
            g.out_degree("x")


class TestCopies:
    def test_pickles_and_copies_carry_only_the_fields(self, monkeypatch):
        g = cartesian(path_graph(["a"] * 19, "l"), path_graph(["b"] * 19, "r"))  # the 20x20 grid
        (found,) = find_decompositions(g)
        factor = found.factors[0]  # recorded as connected where it was made
        assert {"_diagnostics", "_adjacency"} <= g.__dict__.keys() and "_connected" in factor.__dict__
        for h in (g, factor):
            fresh = Graph(h.vertices, h.arcs, h.name)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.dumps(h, protocol) == pickle.dumps(fresh, protocol)

        validated = []

        def counting(h, _real=vrsp_graph.validate):
            validated.append(h)
            return _real(h)

        monkeypatch.setattr(vrsp_graph, "validate", counting)
        originals, copies = [], []
        for h in (g, factor):
            made = [copy.copy(h), copy.deepcopy(h)]
            made += [pickle.loads(pickle.dumps(h, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            originals += [h] * len(made)
            copies += made
        for h, original in zip(copies, originals):
            assert h == original and h.__dict__.keys() == {"vertices", "arcs", "name"}
            assert h.check() is h and h.check() is h
        assert len(validated) == len(copies) and all(h is k for h, k in zip(validated, copies))
