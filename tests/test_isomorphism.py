"""Label-preserving isomorphism: matcher vs brute-force oracle."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import mk, path_graph, random_dag, regular_bipartite, rename_graph

from vrsp import isomorphism
from vrsp.errors import SizeLimitError
from vrsp.fixtures import load_graph
from vrsp.graph import Arc, Graph, LabelPair, build_graph, topological_order
from vrsp.isomorphism import brute_force_isomorphic, find_isomorphism, is_isomorphism
from vrsp.products import cartesian


class TestFindIsomorphism:
    def test_self_is_isomorphic(self, fig1):
        mapping = find_isomorphism(fig1, fig1)
        assert mapping is not None and is_isomorphism(fig1, fig1, mapping)

    def test_fig1_vs_factor_product(self, fig1):
        prod = cartesian(path_graph(["a", "a"], "y"), path_graph(["b", "b", "c"], "x"))
        mapping = find_isomorphism(fig1, prod)
        assert mapping is not None and is_isomorphism(fig1, prod, mapping)

    def test_fig3_vs_factor_product_is_none(self, fig3):
        prod = cartesian(load_graph("fig3_g1"), load_graph("fig3_g2"))
        assert find_isomorphism(fig3, prod) is None

    def test_label_mismatch(self):
        assert find_isomorphism(path_graph(["a", "a"]), path_graph(["a", "b"], "q")) is None

    def test_weights_participate_in_equality(self):
        g1 = mk("u v", [("e1", "u", "v", "a", 1)])
        g2 = mk("s t", [("f1", "s", "t", "a", 2)])
        assert find_isomorphism(g1, g2) is None

    def test_parallel_multiplicity_matters(self):
        g1 = mk("u v", [("e1", "u", "v", "a"), ("e2", "u", "v", "a")])
        g2 = mk("s t", [("f1", "s", "t", "a")])
        assert find_isomorphism(g1, g2) is None

    def test_empty_graphs(self):
        assert find_isomorphism(Graph((), ()), Graph((), ())) == {}

    def test_invariant_under_renaming(self):
        rng = random.Random(61)
        for _ in range(40):
            g = random_dag(rng, actions="pq")
            h = rename_graph(rng, g)
            mapping = find_isomorphism(g, h)
            assert mapping is not None and is_isomorphism(g, h, mapping)

    def test_large_grid_does_not_exhaust_the_stack(self):
        # 1600 vertices, past the default recursion limit; refinement alone makes the grid discrete.
        g = cartesian(path_graph(["a"] * 39, "y"), path_graph(["b"] * 39, "x"))
        h = rename_graph(random.Random(59), g)
        mapping = find_isomorphism(g, h)
        assert mapping is not None and is_isomorphism(g, h, mapping)

    def test_equivalence_relation(self):
        rng = random.Random(67)
        for _ in range(20):
            a = random_dag(rng, actions="pq", max_vertices=5)
            b = rename_graph(rng, a, "m")
            c = rename_graph(rng, b, "n")
            ab = find_isomorphism(a, b)
            bc = find_isomorphism(b, c)
            assert ab is not None and bc is not None
            # symmetric: the inverse witnesses b ~ a
            assert is_isomorphism(b, a, {w: v for v, w in ab.items()})
            # transitive: composition witnesses a ~ c
            assert is_isomorphism(a, c, {v: bc[w] for v, w in ab.items()})


ZIGZAG_CHILD = """
import sys
from vrsp.graph import Arc, LabelPair, build_graph
from vrsp.isomorphism import find_isomorphism, is_isomorphism

def zigzag(m, p):
    # Sources s_i -> sinks t_i and t_(i+1 mod m), one label: a single 2m-cycle.
    arcs = [Arc(f"{p}{i}{e}", f"{p}s{i}", f"{p}t{(i + d) % m}", LabelPair("a")) for i in range(m) for e, d in (("x", 0), ("y", 1))]
    return [f"{p}s{i}" for i in range(m)] + [f"{p}t{i}" for i in range(m)], arcs

def graph(*parts):
    return build_graph([v for vs, _ in parts for v in vs], [a for _, arcs in parts for a in arcs])

k = int(sys.argv[1])
one, two = graph(zigzag(2 * k, "z")), graph(zigzag(k, "x"), zigzag(k, "y"))
assert find_isomorphism(one, two) is None and find_isomorphism(two, one) is None
copy = graph(zigzag(2 * k, "w"))
assert is_isomorphism(one, copy, find_isomorphism(one, copy))
"""


@pytest.mark.parametrize("k", [5, 40])
def test_zigzag_pairs_are_decided_quickly(k):
    # Refinement cannot tell one zig-zag of 2k sources from two of k; the
    # weak component sizes do.  A matching order that ignored adjacency took
    # 54 s at k = 5.  The child takes well under 0.1 s, and the timeout turns
    # a regression into a failure rather than a hung suite.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    subprocess.run([sys.executable, "-c", ZIGZAG_CHILD, str(k)], env=env, check=True, timeout=30)


class TestEarlyRejection:
    """Search effort bounded by counted refinements: one at the root, one per pairing tried."""

    @pytest.fixture
    def rounds(self, monkeypatch) -> list[int]:
        refined: list[int] = []
        real = isomorphism._refine

        def counted(p, queue):
            refined.append(len(queue))
            return real(p, queue)

        monkeypatch.setattr(isomorphism, "_refine", counted)
        return refined

    def test_one_arc_moved_near_miss_stops_after_one_round(self, rounds):
        arcs = [("e0", "v0", "v1", "p"), ("e1", "v0", "v2", "p"), ("e2", "v1", "v3", "p"), ("e3", "v2", "v4", "p"), ("e5", "v2", "v5", "p")]
        g = mk("v0 v1 v2 v3 v4 v5", arcs + [("e4", "v0", "v5", "p")])
        near = mk("v0 v1 v2 v3 v4 v5", arcs + [("e4", "v0", "v3", "p")])
        # Degrees, levels and labels agree; v0's neighbours do not.
        assert find_isomorphism(g, near) is None and find_isomorphism(near, g) is None
        assert len(rounds) == 2  # one refinement per call
        rounds.clear()
        copy = rename_graph(random.Random(7), g)
        assert is_isomorphism(g, copy, find_isomorphism(g, copy))
        assert len(rounds) == 1

    def test_isolated_vertices_are_paired_on_the_explicit_stack(self, rounds):
        # Refinement splits nothing, so each vertex is paired by a search level
        # of its own: 1200 levels, past the default recursion limit.
        g = build_graph([f"v{i}" for i in range(1200)], [])
        h = rename_graph(random.Random(3), g)
        mapping = find_isomorphism(g, h)
        assert mapping is not None and is_isomorphism(g, h, mapping)
        assert len(rounds) >= 1000

    @pytest.mark.parametrize("m", [40, 80])
    def test_regular_bipartite_pairs_take_few_refinements(self, rounds, m):
        # Refinement cannot split a side of a regular graph; one pairing
        # usually makes the partition discrete.  2m vertices in all.
        rng = random.Random(m)
        g = regular_bipartite(rng, m)
        assert find_isomorphism(g, regular_bipartite(rng, m, "q")) is None
        assert len(rounds) <= m + 1
        rounds.clear()
        copy = rename_graph(rng, g)
        assert is_isomorphism(g, copy, find_isomorphism(g, copy))
        assert len(rounds) <= 2 * m

    def test_zigzag_pair_needs_no_refinement(self, rounds):
        k = 5
        one, two = zigzag_graph((2 * k, "z")), zigzag_graph((k, "x"), (k, "y"))
        # One weak component of 4k vertices against two of 2k.
        assert find_isomorphism(one, two) is None and find_isomorphism(two, one) is None
        assert rounds == []


def zigzag_graph(*parts: tuple[int, str]) -> Graph:
    """Zig-zags of m sources and m sinks, one per (m, prefix): s_i -> t_i and t_(i+1 mod m), one label."""
    vertices, arcs = [], []
    for m, p in parts:
        vertices += [f"{p}s{i}" for i in range(m)] + [f"{p}t{i}" for i in range(m)]
        arcs += [Arc(f"{p}{i}{e}", f"{p}s{i}", f"{p}t{(i + d) % m}", LabelPair("a")) for i in range(m) for e, d in (("x", 0), ("y", 1))]
    return build_graph(vertices, arcs)


class TestWitnessVerifier:
    def test_rejects_non_bijections(self, fig3):
        assert not is_isomorphism(fig3, fig3, {})
        assert not is_isomorphism(fig3, fig3, {v: "u1" for v in fig3.vertices})

    def test_rejects_wrong_mapping(self):
        g = path_graph(["a", "b"])
        wrong = {"p0": "p2", "p1": "p1", "p2": "p0"}  # reverses the path
        assert not is_isomorphism(g, g, wrong)


class TestBruteForce:
    def test_renamed_path(self):
        rng = random.Random(71)
        g = path_graph(["a", "b"])
        assert brute_force_isomorphic(g, rename_graph(rng, g))

    def test_label_mismatch(self):
        assert not brute_force_isomorphic(path_graph(["a"]), path_graph(["b"], "q"))

    def test_empty_graphs(self):
        assert brute_force_isomorphic(Graph((), ()), Graph((), ()))

    def test_size_limit(self):
        g = build_graph([f"v{i}" for i in range(9)], [])
        with pytest.raises(SizeLimitError):
            brute_force_isomorphic(g, g)

    def test_agreement_with_matcher(self):
        rng = random.Random(73)
        for i in range(60):
            g1 = random_dag(rng, max_vertices=6, max_arcs=7, actions="pq")
            if i % 2 == 0:
                g2 = rename_graph(rng, g1)
            else:
                g2 = random_dag(rng, max_vertices=6, max_arcs=7, actions="pq", prefix="w")
            assert (find_isomorphism(g1, g2) is not None) == brute_force_isomorphic(g1, g2)

    def test_agreement_on_near_misses(self):
        # Same degree sequences and label multisets, different wiring.
        g1 = mk("a b c d", [("e1", "a", "b", "x"), ("e2", "c", "d", "x"), ("e3", "a", "d", "y")])
        g2 = mk("a b c d", [("e1", "a", "b", "x"), ("e2", "c", "d", "x"), ("e3", "c", "b", "y")])
        assert (find_isomorphism(g1, g2) is not None) == brute_force_isomorphic(g1, g2)


def moved_arc(rng: random.Random, g: Graph) -> Graph:
    """g with one arc's head moved to another vertex, keeping g acyclic and free of repeated labelled pairs."""
    order = topological_order(g)
    position = {v: i for i, v in enumerate(order)}
    taken = {(a.tail, a.head, a.label) for a in g.arcs}
    arcs = list(g.arcs)
    heads = [[v for v in order[position[a.tail] + 1 :] if (a.tail, v, a.label) not in taken] for a in arcs]
    if not any(heads):
        raise ValueError("no arc can move its head")
    k = rng.randrange(len(arcs))
    while not heads[k]:
        k = rng.randrange(len(arcs))
    a = arcs[k]
    arcs[k] = Arc(a.id, a.tail, rng.choice(heads[k]), a.label)
    return build_graph(g.vertices, arcs)


class TestMovedArc:
    def test_a_graph_with_no_movable_arc_is_refused(self):
        g = mk("u v w", [("e1", "u", "v", "a"), ("e2", "u", "w", "a"), ("e3", "v", "w", "a")])
        with pytest.raises(ValueError):
            moved_arc(random.Random(1), g)

    def test_only_movable_arcs_move(self):
        # Every head after v or w is taken; u -> v and u -> w can move to x only.
        pairs = ("uv", "uw", "vw", "vx", "wx")
        g = mk("u v w x", [(f"e{i}", t, h, "a") for i, (t, h) in enumerate(pairs)])
        for seed in range(10):
            moved = {(a.tail, a.head) for a in moved_arc(random.Random(seed), g).arcs}
            assert ("u", "x") in moved and len(moved - set(map(tuple, pairs))) == 1


class TestAgainstNetworkx:
    def test_agreement_above_the_brute_force_cap(self):
        # networkx compares the *sets* of labels between a vertex pair plus
        # their count, which equals comparing multisets only when no pair
        # repeats a label; allow_parallel=False guarantees that.
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import MultiDiGraphMatcher, categorical_multiedge_match

        def to_nx(g: Graph):
            h = nx.MultiDiGraph()
            h.add_nodes_from(g.vertices)
            for a in g.arcs:
                h.add_edge(a.tail, a.head, label=a.label)
            return h

        rng = random.Random(89)
        pairs = []
        for k in range(20):
            n = rng.randint(20, 300) if k % 4 else 300
            g1 = random_dag(rng, n, 2 * n, "pq", min_vertices=n, connected=True, allow_parallel=False, weights=(1, 2))
            pairs.append((g1, rename_graph(rng, g1 if k % 2 else moved_arc(rng, g1))))
        # Regular bipartite pairs of 20 and 40 vertices, which refinement alone cannot split.
        for m in (10, 20):
            g1 = regular_bipartite(rng, m)
            pairs += [(g1, rename_graph(rng, g1)), (g1, regular_bipartite(rng, m, "q"))]
        verdicts = []
        for g1, g2 in pairs:
            mapping = find_isomorphism(g1, g2)
            matcher = MultiDiGraphMatcher(to_nx(g1), to_nx(g2), edge_match=categorical_multiedge_match("label", None))
            assert (mapping is not None) == matcher.is_isomorphic()
            assert mapping is None or is_isomorphism(g1, g2, mapping)
            verdicts.append(mapping is not None)
        assert 0 < sum(verdicts[:20]) < 20 and verdicts[20:] == [True, False, True, False]
