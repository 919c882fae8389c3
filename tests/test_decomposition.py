"""Decomposition verification and label-bipartition search."""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter
from functools import reduce
from itertools import combinations
from typing import Iterator

import pytest
from conftest import L, mk, nx_weak_components, path_graph, random_dag, random_factor, rename_graph

from vrsp import decomposition
from vrsp import graph as vrsp_graph
from vrsp.decomposition import (
    find_decompositions,
    label_classes,
    layers_from_label_split,
    prime_factors,
    verify_decomposition,
)
from vrsp.errors import (
    CycleCreatedError,
    DegenerateSplitError,
    GraphError,
    InvalidGraphError,
    LabelBudgetError,
    NotConnectedError,
)
from vrsp.fixtures import load_family
from vrsp.graph import (
    Arc,
    Graph,
    build_graph,
    induced_subgraph,
    is_weakly_connected,
    label_set,
    spanning_subgraph_by_labels,
    weak_components,
)
from vrsp.isomorphism import find_isomorphism, is_isomorphism
from vrsp.products import cartesian, pair_vertex, vrsp
from vrsp.graph import _components, _grouped
from vrsp.quotient import VertexFamily, _image, _index, _mint, contract_family


def matcher_calls(monkeypatch) -> list[tuple]:
    """The argument pairs of every matcher call the verifier makes from now on."""
    calls = []

    def counting(g1, g2):
        calls.append((g1, g2))
        return find_isomorphism(g1, g2)

    monkeypatch.setattr(decomposition, "find_isomorphism", counting)
    return calls


class TestVerify:
    def test_fig1_accepts(self, fig1, fig1_rows, fig1_cols):
        report = verify_decomposition(fig1, fig1_rows, fig1_cols)
        assert report.accepted
        assert report.failed_codes() == []
        assert report.family_sizes == (3, 4)
        assert report.factors is not None
        g1, g2 = report.factors
        assert find_isomorphism(g1, path_graph(["a", "a"])) is not None
        assert find_isomorphism(g2, path_graph(["b", "b", "c"])) is not None

    def test_fig2_rejects_on_coverage(self, fig2):
        report = verify_decomposition(fig2, load_family("fig2", "rows"), load_family("fig2", "cols"))
        assert not report.accepted
        failed = set(report.failed_codes())
        assert {"C1", "C3"} <= failed
        # the quotient by the single col is a 3-vertex graph, so C6 fails too
        assert failed <= {"C1", "C3", "C6"}
        assert "FINAL" not in report.conditions
        assert report.conditions["C2"].passed and report.conditions["C7"].passed

    def test_fig3_rejects_on_row_uniformity(self, fig3):
        report = verify_decomposition(fig3, load_family("fig3", "rows"), load_family("fig3", "cols"))
        assert not report.accepted
        failed = set(report.failed_codes())
        assert "C4" in failed
        assert failed <= {"C4", "C6"}
        assert report.conditions["C5"].passed

    def test_claim_grid_cardinality(self, fig1, fig1_rows, fig1_cols):
        report = verify_decomposition(fig1, fig1_rows, fig1_cols)
        m, n = report.family_sizes
        assert len(fig1.vertices) == m * n

    def test_disconnected_input_rejected(self):
        g = build_graph(["u", "v"], [])
        with pytest.raises(NotConnectedError):
            verify_decomposition(g, [{"u"}], [{"v"}])

    def test_empty_family_is_a_rejection_not_an_error(self, fig1, fig1_rows, fig1_cols):
        report = verify_decomposition(fig1, fig1_rows, [])
        assert report.family_sizes == (3, 0) and not report.accepted
        assert report.failed_codes() == ["C1", "C3", "C6"]
        assert report.conditions["C6"].witness == "quotient by cols is not isomorphic to row layer 1"
        report = verify_decomposition(fig1, [], fig1_cols)
        assert report.family_sizes == (0, 4) and report.failed_codes() == ["C1", "C2", "C6"]
        assert report.conditions["C6"].witness == "quotient by rows is not isomorphic to col layer 1"
        report = verify_decomposition(fig1, [], [])
        assert report.failed_codes() == ["C1", "C2", "C3"]

    def test_c6_asks_one_isomorphism_per_side(self, monkeypatch):
        # 4 rows of 5 vertices, 5 cols of 4: C4 asks 3 questions, C5 4, C6 2,
        # FINAL 1, and each coordinate witness answers its question without search.
        g = cartesian(path_graph(["a"] * 3, "y"), path_graph(["b"] * 4, "x"))
        calls = matcher_calls(monkeypatch)
        report = verify_decomposition(g, *layers_from_label_split(g, {L("a")}))
        assert report.accepted and report.family_sizes == (4, 5)
        assert len(calls) == 0

    def test_failed_witnesses_fall_back_to_search(self, monkeypatch, fig1, fig1_rows, fig1_cols, fig3):
        calls = matcher_calls(monkeypatch)
        rows, cols = load_family("fig3", "rows"), load_family("fig3", "cols")
        assert not verify_decomposition(fig3, rows, cols).conditions["C4"].passed
        layers = [induced_subgraph(fig3, s) for s in rows.sets]
        assert calls[0] == (layers[0], layers[1])

        # Every coordinate witness holds on fig1, so FINAL builds no product.
        calls.clear()
        products = []

        def renamed_vrsp(g1, g2):
            products.append(rename_graph(random.Random(5), vrsp(g1, g2)))
            return products[-1]

        monkeypatch.setattr(decomposition, "vrsp", renamed_vrsp)
        assert verify_decomposition(fig1, fig1_rows, fig1_cols).accepted
        assert products == [] and calls == []

        # After one coordinate miss, FINAL builds the product, and a product
        # under other vertex names defeats the FINAL witness, not FINAL.
        coordinate_view = decomposition._coordinate_view

        def missing_row_2(vertices, arcs, coord):
            return None if vertices == fig1_rows.sets[1] else coordinate_view(vertices, arcs, coord)

        monkeypatch.setattr(decomposition, "_coordinate_view", missing_row_2)
        assert verify_decomposition(fig1, fig1_rows, fig1_cols).accepted
        rows = [induced_subgraph(fig1, s) for s in fig1_rows.sets]
        assert calls == [(rows[0], rows[1]), (fig1, products[0])]

    def test_final_rejected_after_the_conditions_pass(self, monkeypatch, fig1, fig1_rows, fig1_cols):
        # The seam above, with a matcher that finds no map from fig1 onto the
        # renamed product: C1-C7 pass, and FINAL alone rejects.
        products = []

        def renamed_vrsp(g1, g2):
            products.append(rename_graph(random.Random(5), vrsp(g1, g2)))
            return products[-1]

        def missing_row_2(vertices, arcs, coord, _real=decomposition._coordinate_view):
            return None if vertices == fig1_rows.sets[1] else _real(vertices, arcs, coord)

        def no_product_map(g1, g2):
            return None if products and g2 is products[-1] else find_isomorphism(g1, g2)

        monkeypatch.setattr(decomposition, "vrsp", renamed_vrsp)
        monkeypatch.setattr(decomposition, "_coordinate_view", missing_row_2)
        monkeypatch.setattr(decomposition, "find_isomorphism", no_product_map)
        report = verify_decomposition(fig1, fig1_rows, fig1_cols)
        assert report.accepted is False and report.factors is None and len(products) == 1
        assert report.failed_codes() == ["FINAL"]
        assert report.conditions["FINAL"].witness == "graph is not isomorphic to the product of the quotients"
        passed = '{"passed": true, "witness": ""}'
        assert json.dumps(report.as_dict()) == (
            '{"accepted": false, "family_sizes": [3, 4], "conditions": {'
            + ", ".join(f'"C{k}": {passed}' for k in range(1, 8))
            + ', "FINAL": {"passed": false, "witness": "graph is not isomorphic to the product of the quotients"}}'
            + ', "factors": null}'
        )

    def test_accepted_grid_builds_only_the_quotients(self, monkeypatch):
        # The coordinate witnesses answer every question of an accepted 20x20
        # decomposition: no layer graph, no witness check, no search, no product.
        g = cartesian(path_graph(["a"] * 19, "y"), path_graph(["b"] * 19, "x"))
        rows, cols = layers_from_label_split(g, {L("a")})
        calls = dict.fromkeys(("is_isomorphism", "find_isomorphism", "vrsp"), 0)
        for name in calls:

            def counting(*args, _name=name, _real=getattr(decomposition, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(decomposition, name, counting)
        built = []
        post_init = Graph.__post_init__

        def recording(self):
            post_init(self)
            built.append(self)

        monkeypatch.setattr(Graph, "__post_init__", recording)
        report = verify_decomposition(g, rows, cols)
        assert report.accepted and report.family_sizes == (20, 20)
        assert calls == dict.fromkeys(calls, 0)
        assert len(built) == 2 and all(b is f for b, f in zip(built, report.factors))

    def test_search_on_the_grid_builds_only_its_factors(self, monkeypatch):
        # The search hands the split's component indices to the verifier: no
        # family, no layer graph, no search and no product on the way.
        g = cartesian(path_graph(["a"] * 19, "y"), path_graph(["b"] * 19, "x"))
        calls = dict.fromkeys(("is_isomorphism", "find_isomorphism", "vrsp", "VertexFamily"), 0)
        for name in ("is_isomorphism", "find_isomorphism", "vrsp"):

            def counting(*args, _name=name, _real=getattr(decomposition, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(decomposition, name, counting)
        family_init = VertexFamily.__init__

        def counting_family(self, sets):
            calls["VertexFamily"] += 1
            family_init(self, sets)

        monkeypatch.setattr(VertexFamily, "__init__", counting_family)
        built = []
        post_init = Graph.__post_init__

        def recording(self):
            post_init(self)
            built.append(self)

        monkeypatch.setattr(Graph, "__post_init__", recording)
        (found,) = find_decompositions(g)
        assert found.left_labels == (L("a"),) and found.report.family_sizes == (20, 20)
        assert calls == dict.fromkeys(calls, 0)
        assert len(built) == 2 and all(b is f for b, f in zip(built, found.factors))

    def test_layers_alike_only_off_the_coordinates_pass(self, monkeypatch):
        # Matching the rows by col set sends u1 -> u2 onto v1 -> v3: only the
        # search finds the map u_i -> v_i.  The quotient by cols has two arcs,
        # so it is unlike row layer 1 under any map.
        g = mk(
            "u1 u2 u3 v1 v2 v3",
            [
                ("e1", "u1", "u2", "a"),
                ("e2", "v1", "v2", "a"),
                ("e3", "u1", "v1", "b"),
                ("e4", "u2", "v3", "b"),
                ("e5", "u3", "v2", "b"),
            ],
        )
        calls = matcher_calls(monkeypatch)
        rows, cols = [{"u1", "u2", "u3"}, {"v1", "v2", "v3"}], [{"u1", "v1"}, {"u2", "v3"}, {"u3", "v2"}]
        report = verify_decomposition(g, rows, cols)
        assert report.conditions["C4"].passed and report.conditions["C5"].passed
        assert report.conditions["C6"].witness == "quotient by cols is not isomorphic to row layer 1"
        assert calls == [
            (induced_subgraph(g, rows[0]), induced_subgraph(g, rows[1])),
            (contract_family(g, cols, "x~"), induced_subgraph(g, rows[0])),
        ]

    def test_cycle_creating_family_fails_c6(self):
        g = mk("u v w", [("e1", "u", "v", "a"), ("e2", "v", "w", "b")])
        report = verify_decomposition(g, [{"u", "w"}], [{"u"}, {"v"}, {"w"}])
        assert not report.conditions["C6"].passed
        assert "cycle" in report.conditions["C6"].witness

    @pytest.mark.parametrize("rows_witness_holds", [True, False])
    def test_a_cycle_from_the_cols_outranks_the_rows_answer(self, monkeypatch, rows_witness_holds):
        # Contracting {u, w} turns u -> v -> w into a cycle.  C5 fails, so
        # without the cycle C6 would name col layer 2 from the rows quotient.
        # The arc u -> w, when present, makes the quotient by rows match
        # col layer 1 by its witness y~1 -> u, y~2 -> w.
        arcs = [("e1", "u", "v", "a"), ("e2", "v", "w", "b")] + [("e3", "u", "w", "b")] * rows_witness_holds
        g = mk("u v w", arcs)
        rows, cols = [{"u", "v"}, {"w"}], [{"u", "w"}, {"v"}]
        q_rows = contract_family(g, rows, "y~")
        assert is_isomorphism(q_rows, induced_subgraph(g, cols[0]), {"y~1": "u", "y~2": "w"}) == rows_witness_holds
        calls = matcher_calls(monkeypatch)
        report = verify_decomposition(g, rows, cols)
        assert not report.conditions["C5"].passed
        assert report.conditions["C6"].witness == "contracting cols creates a cycle: x~1 -> x~2"
        assert calls == explicit_witness_searches(g, rows, cols, report)


def layer_conditions_oracle(g, rows, cols):
    """C4-C6 by definition: every layer against layer 1, each quotient against every layer.

    FINAL, by search against the product of the quotients, is added whenever
    both quotients exist; the verifier reports it only when C1-C7 pass.
    """
    row_subs = [induced_subgraph(g, s) for s in rows]
    col_subs = [induced_subgraph(g, s) for s in cols]
    out = {}
    for code, subs, kind in (("C4", row_subs, "row"), ("C5", col_subs, "col")):
        bad = [i for i in range(1, len(subs)) if find_isomorphism(subs[0], subs[i]) is None]
        out[code] = (not bad, f"{kind} layers 1 and {bad[0] + 1} are not isomorphic" if bad else "")
    witness = ""
    quotients = []
    for fam, prefix, side in ((rows, "y~", "rows"), (cols, "x~", "cols")):
        try:
            quotients.append(contract_family(g, fam, prefix))
        except CycleCreatedError as e:
            witness = f"contracting {side} creates a cycle: {' -> '.join(e.witness)}"
            break
    if not witness:
        for q, subs, side, kind in zip(quotients, (col_subs, row_subs), ("rows", "cols"), ("col", "row")):
            bad = [i for i, sub in enumerate(subs) if find_isomorphism(q, sub) is None]
            if bad:
                witness = f"quotient by {side} is not isomorphic to {kind} layer {bad[0] + 1}"
                break
    out["C6"] = (not witness, witness)
    if len(quotients) == 2:
        final = find_isomorphism(g, vrsp(*quotients)) is not None
        out["FINAL"] = (final, "" if final else "graph is not isomorphic to the product of the quotients")
    return out


def explicit_witness_searches(g, rows, cols, report):
    """The searches of the verifier, replayed with each witness spelled out as a vertex map.

    C4 and C5 map layer 1 onto layer i by the other family's set, C6 maps a
    quotient's fresh vertex onto the layer-1 vertex it contracted, and FINAL
    maps v to (row image, col image) in the product of the quotients.  A
    question is searched, in the order the verifier asks, exactly when
    ``is_isomorphism`` rejects its witness.  FINAL is asked whenever the
    report has it.
    """
    row_of = {v: i for i, s in enumerate(rows) for v in s}
    col_of = {v: j for j, s in enumerate(cols) for v in s}
    subs = {"row": [induced_subgraph(g, s) for s in rows], "col": [induced_subgraph(g, s) for s in cols]}
    searched = []

    def ask(g1, g2, witness):
        if is_isomorphism(g1, g2, witness):
            return True
        searched.append((g1, g2))
        return find_isomorphism(g1, g2) is not None

    first = {}
    for kind, fam, across in (("row", rows, col_of), ("col", cols, row_of)):
        first[kind] = None
        for i in range(1, len(fam)):
            by_coord = {across.get(w): w for w in fam[i]}
            if not ask(subs[kind][0], subs[kind][i], {v: by_coord.get(across.get(v)) for v in fam[0]}):
                first[kind] = i
                break
    images = (_mint(g, VertexFamily.of(rows), "y~"), _mint(g, VertexFamily.of(cols), "x~"))
    try:
        quotients = [contract_family(g, rows, "y~"), contract_family(g, cols, "x~")]
    except CycleCreatedError:
        return searched
    for q, image, kind, fam in zip(quotients, images, ("col", "row"), (cols, rows)):
        bad = first[kind]
        if fam and not ask(q, subs[kind][0], {image[w]: w for w in fam[0] if w in image}):
            bad = 0
        if bad is not None:
            return searched
    if "FINAL" in report.conditions:
        witness = {v: pair_vertex(images[0][v], images[1][v]) for v in g.vertices}
        ask(g, vrsp(*quotients), witness)
    return searched


def random_partition(rng, vertices, k):
    parts = [set() for _ in range(k)]
    for v in vertices:
        parts[rng.randrange(k)].add(v)
    return [p for p in parts if p]


class TestLayerConditionsOracle:
    def test_c4_to_c6_match_the_definition(self):
        rng = random.Random(101)
        seen = {"C4": 0, "C5": 0, "C6 rows": 0, "C6 cols": 0, "C6 cycle": 0, "later layer": 0, "FINAL": 0}
        for i in range(90):
            if i % 2:
                g = random_dag(rng, 7, 10, "pqr", min_vertices=2, connected=True, weights=(1, 2))
            else:
                g = cartesian(random_factor(rng, "pq", 4, "l"), random_factor(rng, "rs", 4, "r"))
            labels = sorted(label_set(g))
            families = [
                (random_partition(rng, g.vertices, rng.randint(1, 4)), random_partition(rng, g.vertices, rng.randint(1, 4)))
            ]
            if len(labels) > 1:
                rows, cols = layers_from_label_split(g, rng.sample(labels, rng.randint(1, len(labels) - 1)))
                families += [(list(rows.sets), list(cols.sets)), (list(cols.sets), list(rows.sets))]
            for rows, cols in families:
                report = verify_decomposition(g, rows, cols)
                got = {code: (res.passed, res.witness) for code, res in report.conditions.items()}
                expected = layer_conditions_oracle(g, rows, cols)
                if "FINAL" not in got:
                    expected.pop("FINAL", None)
                assert {code: got[code] for code in expected} == expected
                seen["FINAL"] += "FINAL" in got
                witnesses = " ".join(w for _, w in got.values())
                seen["C4"] += "row layers" in witnesses
                seen["C5"] += "col layers" in witnesses
                seen["C6 rows"] += "quotient by rows" in witnesses
                seen["C6 cols"] += "quotient by cols" in witnesses
                seen["C6 cycle"] += "creates a cycle" in witnesses
                seen["later layer"] += "layer" in got["C6"][1] and not got["C6"][1].endswith("layer 1")
        assert all(seen.values()), seen

    def test_searches_exactly_where_the_explicit_witness_fails(self, monkeypatch):
        calls = matcher_calls(monkeypatch)
        # No row contracts a, so the quotient by rows keeps it, and only a
        # search maps that quotient onto col layer 1.
        g = mk("a b", [("e", "a", "b", "p")])
        report = verify_decomposition(g, [{"b"}], [{"a", "b"}])
        assert report.failed_codes() == ["C2"] and len(calls) == 1
        assert calls == explicit_witness_searches(g, [{"b"}], [{"a", "b"}], report)

        rng = random.Random(107)
        seen = {"searched": 0, "accepted unsearched": 0}
        for i in range(120):
            if i % 3 == 0:
                g = random_dag(rng, 8, 12, "pqr", min_vertices=2, connected=True, weights=(1, 2))
            elif i % 3 == 1:
                parallel = random_dag(rng, 4, 5, "pq", min_vertices=2, connected=True)
                g = cartesian(parallel, random_factor(rng, "rs", 4, "r"))
            else:
                g = rename_graph(rng, cartesian(random_factor(rng, "pq", 4, "l"), random_factor(rng, "rs", 4, "r")))
            labels = sorted(label_set(g))
            # Families may leave vertices out: a vertex in no set of the
            # other family has no coordinate.
            families = [tuple(random_partition(rng, g.vertices, rng.randint(1, 4))[rng.randint(0, 1) :] for _ in "rc")]
            if len(labels) > 1:
                rows, cols = layers_from_label_split(g, rng.sample(labels, rng.randint(1, len(labels) - 1)))
                families += [(list(rows.sets), list(cols.sets)), (list(cols.sets), list(rows.sets))]
                families.append((list(rows.sets), list(cols.sets)[1:]))
            for rows, cols in families:
                calls.clear()
                report = verify_decomposition(g, rows, cols)
                assert calls == explicit_witness_searches(g, rows, cols, report)
                seen["searched"] += bool(calls)
                seen["accepted unsearched"] += report.accepted and not calls
        assert all(seen.values()), seen

    def test_products_and_relabelled_products_match_the_definition(self):
        # Label splits of 3-factor products, and of 2-factor products with
        # one arc relabelled, reach FINAL, which the verifier then decides
        # from the coordinate witnesses alone.
        rng = random.Random(103)
        seen = {"accepted": 0, "rejected after C3": 0}
        for i in range(60):
            if i % 2:
                sides = (("pq", "a"), ("rs", "b"), ("tu", "c"))
                g = reduce(cartesian, [random_factor(rng, actions, 3, prefix) for actions, prefix in sides])
            else:
                g = cartesian(random_factor(rng, "pq", 4, "l"), random_factor(rng, "rs", 4, "r"))
                arcs = list(g.arcs)
                k = rng.randrange(len(arcs))
                arcs[k] = arcs[k]._replace(label=L(rng.choice("pqrsz")))
                g = build_graph(g.vertices, arcs)
            labels = sorted(label_set(g))
            for _ in range(3):
                rows, cols = layers_from_label_split(g, rng.sample(labels, rng.randint(1, len(labels) - 1)))
                for rows, cols in ((list(rows.sets), list(cols.sets)), (list(cols.sets), list(rows.sets))):
                    report = verify_decomposition(g, rows, cols)
                    got = {code: (res.passed, res.witness) for code, res in report.conditions.items()}
                    expected = layer_conditions_oracle(g, rows, cols)
                    if "FINAL" not in got:
                        expected.pop("FINAL", None)
                    assert {code: got[code] for code in expected} == expected
                    seen["accepted"] += report.accepted
                    late = not {"C1", "C2", "C3"} & set(report.failed_codes())
                    seen["rejected after C3"] += late and not report.accepted
        assert all(seen.values()), seen


class TestLayersFromLabelSplit:
    def test_fig1_split_on_a(self, fig1):
        rows, cols = layers_from_label_split(fig1, {L("a")})
        assert sorted(len(s) for s in rows.sets) == [4, 4, 4]
        assert sorted(len(s) for s in cols.sets) == [3, 3, 3, 3]

    def test_fig1_split_on_b_is_rejected(self, fig1):
        rows, cols = layers_from_label_split(fig1, {L("b")})
        report = verify_decomposition(fig1, rows, cols)
        assert not report.accepted
        assert "C6" in report.failed_codes()

    def test_full_label_set_is_degenerate(self, fig1):
        with pytest.raises(DegenerateSplitError):
            layers_from_label_split(fig1, label_set(fig1))
        with pytest.raises(DegenerateSplitError):
            layers_from_label_split(fig1, set())

    def test_families_partition_vertices(self, fig1):
        rows, cols = layers_from_label_split(fig1, {L("b"), L("c")})
        for fam in (rows, cols):
            assert fam.union() == fig1.vertex_set

    def test_label_not_in_graph_is_named(self, fig1):
        with pytest.raises(GraphError, match=r"labels not present in the graph: z,1$"):
            layers_from_label_split(fig1, {L("a"), L("z")})

    def test_layers_are_the_components_of_the_label_subgraphs(self):
        rng = random.Random(397)
        for _ in range(80):
            g = random_dag(rng, max_vertices=8, max_arcs=12, actions="pqrs")
            labels = sorted(label_set(g))
            if len(labels) < 2:
                continue
            left = set(rng.sample(labels, rng.randint(1, len(labels) - 1)))
            rows, cols = layers_from_label_split(g, left)
            assert rows == VertexFamily.of(weak_components(spanning_subgraph_by_labels(g, set(labels) - left)))
            assert cols == VertexFamily.of(weak_components(spanning_subgraph_by_labels(g, left)))
            assert rows == VertexFamily.of(nx_weak_components(g.vertices, [a for a in g.arcs if a.label not in left]))
            assert cols == VertexFamily.of(nx_weak_components(g.vertices, [a for a in g.arcs if a.label in left]))


    def test_component_indices_follow_smallest_ids_and_name_the_sets_as_mint(self):
        # The search names each quotient's vertices from the component
        # indices, in the order they first appear; that is contract_family's
        # order only because indices are numbered by smallest vertex id.
        rng = random.Random(401)
        for _ in range(40):
            g = rename_graph(rng, cartesian(random_factor(rng, "pq", 4, "l"), random_factor(rng, "rs", 4, "r")))
            labels = sorted(label_set(g))
            left = set(rng.sample(labels, rng.randint(1, len(labels) - 1)))
            for skip in ((), left, set(labels) - left):
                index = _components(g, skip)
                sets = _grouped(index)
                assert list(dict.fromkeys(index.values())) == list(range(len(sets)))
                assert [min(s) for s in sets] == sorted(min(s) for s in sets)
                assert sets == nx_weak_components(g.vertices, [a for a in g.arcs if a.label not in skip])
                fam = VertexFamily(tuple(sets))
                assert _image(g, index, "y~") == _mint(g, fam, "y~")
                # _index lists any family set by set in that order, however it is given.
                shuffled = list(sets)
                rng.shuffle(shuffled)
                shuffled_index = _index(VertexFamily(tuple(shuffled)))
                assert {v: shuffled[i] for v, i in shuffled_index.items()} == {v: sets[k] for v, k in index.items()}
                assert _image(g, shuffled_index, "y~") == _mint(g, fam, "y~")


class TestLabelClasses:
    def test_two_label_grid(self):
        g = cartesian(path_graph(["a"] * 3, "y"), path_graph(["b"] * 3, "x"))
        assert label_classes(g) == [(L("a"),), (L("b"),)]

    def test_path_product_gives_its_generating_sets(self):
        g = cartesian(path_graph(["a", "c", "a", "b"], "y"), path_graph(["d", "e", "f", "d"], "x"))
        assert label_classes(g) == [(L("a"), L("b"), L("c")), (L("d"), L("e"), L("f"))]

    def test_parallel_arcs_are_united(self):
        parallel = mk("u v", [("e1", "u", "v", "a"), ("e2", "u", "v", "b")])
        g = cartesian(parallel, path_graph(["c", "c"], "x"))
        assert label_classes(g) == [(L("a"), L("b")), (L("c"),)]

    def test_prime_order_dag_is_one_class(self):
        g = mk(
            "v0 v1 v2 v3 v4",
            [
                ("e1", "v0", "v1", "a"),
                ("e2", "v0", "v2", "b"),
                ("e3", "v1", "v3", "c"),
                ("e4", "v2", "v3", "a"),
                ("e5", "v3", "v4", "b"),
                ("e6", "v1", "v4", "c"),
            ],
        )
        assert label_classes(g) == [(L("a"), L("b"), L("c"))]

    def test_fixtures(self, fig1, fig3):
        assert label_classes(fig1) == [(L("a"),), (L("b"), L("c"))]
        assert label_classes(fig3) == [(L("a"), L("b"), L("c"))]

    def test_a_self_loop_shares_its_label_with_the_arcs_it_meets(self):
        # label_classes reads checked graphs.  On this unchecked one, a loop
        # at the corner of a square closes no square with the corner's arcs.
        g = cartesian(path_graph(["a"], "y"), path_graph(["b"], "x"))
        corner = g.vertices[0]
        for label, classes in ((L("a"), [(L("a"), L("b"))]), (L("c"), [(L("a"), L("b"), L("c"))])):
            looped = Graph(g.vertices, g.arcs + (Arc("loop", corner, corner, label),))
            with pytest.raises(InvalidGraphError):
                looped.check()
            assert label_classes(looped) == classes

    def test_classes_that_collapse_within_the_first_vertices(self):
        # Parallel arcs out of the first vertex unite every label at once, so
        # the scan stops there; the search over every bipartition agrees.
        rng = random.Random(89)
        for k in range(30):
            if k % 2:
                g = random_dag(rng, 7, 12, "pqrs", connected=True, min_vertices=2)
            else:
                g = cartesian(random_factor(rng, "pq", prefix="l"), random_factor(rng, "rs", prefix="r"))
            labels = sorted(label_set(g))
            head = next(a.head for a in g.arcs if a.tail == g.vertices[0])
            g = build_graph(g.vertices, g.arcs + tuple(Arc(f"z{i}", g.vertices[0], head, l) for i, l in enumerate(labels)))
            assert label_classes(g) == [tuple(labels)]
            assert find_decompositions(g) == exhaustive_decompositions(g) == []


def label_classes_oracle(g):
    """:func:`label_classes` by its definition, one pair of arcs at a time.

    Two arcs e, f at v with labels a != b, and far ends w, z, are united
    unless some vertex y != v closes their square: an arc labelled b between
    w and y, directed as f is at v, and one labelled a between z and y,
    directed as e is at v.  Every y is tried.  Parallel arcs have one far
    end, so no y closes their square.
    """
    parent = {l: l for l in label_set(g)}

    def find(l):
        while parent[l] is not l:
            l = parent[l]
        return l

    def far(arc, v):
        return arc.head if arc.tail == v else arc.tail

    def copy_at(end, y, arc, v):
        """Whether an arc between ``end`` and ``y`` carries ``arc``'s label and direction at ``v``."""
        tail, head = (end, y) if arc.tail == v else (y, end)
        return any(a.tail == tail and a.head == head and a.label is arc.label for a in g.arcs)

    for v in g.vertices:
        at_v = [a for a in g.arcs if v in (a.tail, a.head)]
        for e, f in combinations(at_v, 2):
            if e.label is f.label:
                continue
            w, z = far(e, v), far(f, v)
            squared = w != z and any(
                y != v and copy_at(w, y, f, v) and copy_at(z, y, e, v) for y in g.vertices
            )
            if not squared:
                parent[find(e.label)] = find(f.label)

    classes = {}
    for l in parent:
        classes.setdefault(find(l), []).append(l)
    return sorted(tuple(sorted(c)) for c in classes.values())


def label_class_graphs() -> Iterator[Graph]:
    """The 200 seeded graphs on which :func:`label_classes` meets its oracle."""
    rng = random.Random(223)
    for i in range(200):
        if i % 4 == 0:
            # Many labels on few arcs: a pair of labels meets at few vertices,
            # so a class must be merged whole the first time.
            yield random_dag(rng, 8, 8, "abcdefgh", weights=(1, 2))
        elif i % 4 == 1:
            parallel = random_dag(rng, 4, 6, "pq", min_vertices=2, connected=True)
            yield cartesian(parallel, random_factor(rng, "rs", 4, "r"))
        elif i % 4 == 2:
            # Few labels and many arcs: several arcs of one label at a vertex.
            yield random_dag(rng, 5, 14, "pq", min_vertices=2, connected=True)
        else:
            yield cartesian(random_factor(rng, "pq", 4, "l"), random_factor(rng, "rs", 4, "r"))


def search_outcome(g: Graph) -> tuple:
    """The classes and the decompositions of ``g``, or the error that refuses it."""
    try:
        return label_classes(g), find_decompositions(g)
    except GraphError as e:
        return type(e), str(e)


class TestLabelClassesOracle:
    def test_equals_the_definition(self):
        seen = Counter()
        for g in label_class_graphs():
            classes = label_classes(g)
            assert classes == label_classes_oracle(g)
            seen["split"] += len(classes) > 1
            seen["one class"] += len(classes) == 1
            seen["same label twice at a vertex"] += any(
                n > 1 for n in Counter((a.tail, a.label) for a in g.arcs).values()
            )
        assert all(seen[key] for key in ("split", "one class", "same label twice at a vertex")), seen

    def test_the_middle_vertex_closes_no_square(self):
        # w -b-> v -a-> z would close the square of w -a-> v -b-> z at y = v.
        g = mk(
            "w v z",
            [("e1", "w", "v", "a"), ("e2", "v", "z", "b"), ("e3", "w", "v", "b"), ("e4", "v", "z", "a")],
        )
        assert label_classes(g) == label_classes_oracle(g) == [(L("a"), L("b"))]


def exhaustive_decompositions(g):
    """The search over every label bipartition, as the reference for the class-based one."""
    labels = sorted(label_set(g))
    pivot, rest = labels[:1], labels[1:]
    found = []
    for mask in range((1 << len(rest)) - 1):
        left = tuple(sorted(pivot + [l for k, l in enumerate(rest) if mask >> k & 1]))
        report = verify_decomposition(g, *layers_from_label_split(g, left))
        if report.accepted:
            found.append((left, report.factors))
    return sorted(found, key=lambda item: item[0])


class TestSearchState:
    def test_a_search_leaves_no_state_and_changes_no_value(self):
        # A search keeps nothing on the graph beyond the caches of check().
        seen = Counter()
        for g in label_class_graphs():
            outcome = search_outcome(g)
            assert g.__dict__.keys() <= {"vertices", "arcs", "name", "vertex_set", "_adjacency", "_diagnostics"}
            assert search_outcome(g) == outcome
            fresh = Graph(g.vertices, g.arcs, g.name)
            assert fresh == g and hash(fresh) == hash(g) and repr(fresh) == repr(g)
            assert dataclasses.fields(fresh) == dataclasses.fields(g)
            assert dataclasses.asdict(fresh) == dataclasses.asdict(g)
            assert search_outcome(fresh) == outcome
            found = outcome[1]
            seen["decomposed"] += isinstance(found, list) and len(found) > 0
            seen["refused"] += isinstance(found, str)
        assert seen["decomposed"] and seen["refused"], seen

    def test_accepting_search_skips_connectivity_records_factors(self, component_searches, fig1):
        # The accepted split proves g connected, and that proof is not kept on g.
        g = Graph(fig1.vertices, fig1.arcs, fig1.name)
        (first,) = find_decompositions(g)
        assert find_decompositions(g) == [first]
        assert component_searches == []
        assert "_connected" not in g.__dict__
        assert all("_connected" in f.__dict__ and is_weakly_connected(f) for f in first.factors)
        assert component_searches == []
        assert is_weakly_connected(g) and component_searches == [g]


def disconnected_graphs() -> Iterator[Graph]:
    """Seeded valid graphs with more than one weak component, some of them with an accepted split per component."""
    rng = random.Random(227)
    yield build_graph(["u", "v"], [])
    for _ in range(20):
        g = random_dag(rng, 8, 6, "pqrs", min_vertices=2)
        if not is_weakly_connected(g):
            yield g
        p = cartesian(random_factor(rng, "pq", prefix="l"), random_factor(rng, "rs", prefix="r"))
        q = rename_graph(rng, p)
        yield build_graph(p.vertices + q.vertices, p.arcs + q.arcs)
        yield build_graph(p.vertices + ("lone",), p.arcs)


class TestConnectivityCheck:
    def test_only_a_rejected_or_absent_first_candidate_searches_components(self, monkeypatch, component_searches):
        reports = []

        def recording(g, rows, cols):
            reports.append(verify(g, rows, cols))
            return reports[-1]

        verify = decomposition._verify
        monkeypatch.setattr(decomposition, "_verify", recording)
        seen = Counter()
        for g in label_class_graphs():
            if not is_weakly_connected(g):
                continue
            component_searches.clear()
            reports.clear()
            find_decompositions(g)
            first_accepted = bool(reports) and reports[0].accepted
            assert component_searches == ([] if first_accepted else [g])
            seen[first_accepted, bool(reports)] += 1
        assert len(seen) == 3, seen

    @pytest.mark.parametrize("search", [find_decompositions, prime_factors])
    def test_a_disconnected_graph_is_refused_after_at_most_one_verify(self, monkeypatch, search):
        verified = []

        def counting(g, rows, cols):
            verified.append(g)
            return verify(g, rows, cols)

        verify = decomposition._verify
        monkeypatch.setattr(decomposition, "_verify", counting)
        graphs = list(disconnected_graphs())
        assert len(graphs) > 40
        for g in graphs:
            verified.clear()
            with pytest.raises(NotConnectedError, match="^decomposition needs a non-empty weakly connected graph$"):
                search(g)
            assert len(verified) <= 1

    def test_a_disconnected_graph_is_refused_whatever_the_verifier_rejects(self, monkeypatch):
        verified = []

        def rejecting(g, rows, cols):
            verified.append(g)
            failed = {code: decomposition.ConditionResult(False) for code in decomposition.CONDITION_CODES}
            return decomposition.DecompositionReport(failed, (0, 0))

        monkeypatch.setattr(decomposition, "_verify", rejecting)
        p = cartesian(path_graph(["a"], "l"), path_graph(["b"], "r"))
        g = build_graph(p.vertices + ("lone",), p.arcs)
        with pytest.raises(NotConnectedError):
            find_decompositions(g)
        assert verified == [g]

    def test_an_invalid_graph_is_refused_first(self):
        g = Graph(("u", "v", "w"), (Arc("e1", "u", "v", L("a")), Arc("e2", "v", "u", L("b"))))
        with pytest.raises(InvalidGraphError):
            find_decompositions(g, max_labels=1)

    def test_a_disconnected_graph_is_refused_before_the_label_budget(self, monkeypatch):
        g = build_graph(["u", "v", "w"], [Arc("e1", "u", "v", L("a")), Arc("e2", "u", "v", L("b"))])
        with pytest.raises(NotConnectedError):
            find_decompositions(g, max_labels=1)
        monkeypatch.setenv("VRSP_MAX_LABELS", "x")
        with pytest.raises(NotConnectedError):
            find_decompositions(g)
        connected = build_graph(["u", "v"], g.arcs)
        with pytest.raises(GraphError, match="VRSP_MAX_LABELS must be an integer"):
            find_decompositions(connected)
        with pytest.raises(LabelBudgetError):
            find_decompositions(connected, max_labels=1)


class TestFindDecompositions:
    def test_matches_exhaustive_search(self):
        rng = random.Random(97)
        graphs = []
        for _ in range(20):
            graphs.append(random_dag(rng, 7, 12, "pqrs", connected=True, weights=(1, 2)))
            graphs.append(cartesian(random_factor(rng, "pqrs", prefix="l"), random_factor(rng, "wxyz", prefix="r")))
            graphs.append(vrsp(random_factor(rng, "pqrs", prefix="l"), random_factor(rng, "rstu", prefix="r")))
            graphs.append(
                cartesian(
                    cartesian(random_factor(rng, "pq", 3, prefix="a"), random_factor(rng, "rs", 3, prefix="b")),
                    random_factor(rng, "tu", 3, prefix="c"),
                )
            )
        decomposable = 0
        for g in graphs:
            assert len(label_set(g)) <= 8
            expected = exhaustive_decompositions(g)
            assert [(d.left_labels, d.factors) for d in find_decompositions(g)] == expected
            decomposable += bool(expected)
        assert decomposable >= len(graphs) // 3

    def test_validates_the_graph_once(self, fig1, monkeypatch):
        # The accepted split proves the graph connected, so no connectivity check runs.
        g = Graph(fig1.vertices, fig1.arcs, fig1.name)
        validated, connectivity = [], []

        def validating(h):
            validated.append(h)
            return validate(h)

        def counting(h):
            connectivity.append(h)
            return is_weakly_connected(h)

        validate = vrsp_graph.validate
        monkeypatch.setattr(vrsp_graph, "validate", validating)
        monkeypatch.setattr(decomposition, "is_weakly_connected", counting)
        assert len(find_decompositions(g)) == 1
        assert validated == [g]
        assert connectivity == []

    def test_fig1_has_exactly_one(self, fig1):
        found = find_decompositions(fig1)
        assert len(found) == 1
        dec = found[0]
        assert dec.left_labels == (L("a"),)
        assert find_isomorphism(dec.factors[0], path_graph(["a", "a"])) is not None
        assert find_isomorphism(dec.factors[1], path_graph(["b", "b", "c"])) is not None

    def test_single_arc_has_none(self):
        assert find_decompositions(path_graph(["a"])) == []

    def test_two_path_product(self):
        g = cartesian(path_graph(["a"], "l"), path_graph(["b"], "r"))
        found = find_decompositions(g)
        assert len(found) == 1
        assert found[0].left_labels == (L("a"),)
        assert {len(f.vertices) for f in found[0].factors} == {2}

    def test_label_budget(self, fig1):
        with pytest.raises(LabelBudgetError):
            find_decompositions(fig1, max_labels=2)

    def test_label_budget_is_checked_before_the_classes(self, fig1, monkeypatch):
        def unreachable(g):
            raise AssertionError("label_classes ran on an over-budget graph")

        monkeypatch.setattr(decomposition, "label_classes", unreachable)
        with pytest.raises(LabelBudgetError, match="^graph has 3 labels, budget is 2$"):
            find_decompositions(fig1, max_labels=2)

    def test_env_budget(self, fig1, monkeypatch):
        monkeypatch.setenv("VRSP_MAX_LABELS", "2")
        with pytest.raises(LabelBudgetError):
            find_decompositions(fig1)
        monkeypatch.setenv("VRSP_MAX_LABELS", "10")
        assert len(find_decompositions(fig1)) == 1

    def test_disconnected_rejected(self):
        g = build_graph(["u", "v"], [])
        with pytest.raises(NotConnectedError):
            find_decompositions(g)

    def test_round_trip_recovers_factors(self):
        rng = random.Random(79)
        for _ in range(20):
            h1 = random_factor(rng, "pqr", prefix="l")
            h2 = random_factor(rng, "xyz", prefix="r")
            g = cartesian(h1, h2)
            found = find_decompositions(g)
            assert any(
                (find_isomorphism(d.factors[0], h1) and find_isomorphism(d.factors[1], h2))
                or (find_isomorphism(d.factors[0], h2) and find_isomorphism(d.factors[1], h1))
                for d in found
            )
            for d in found:
                m, n = d.report.family_sizes
                assert len(g.vertices) == m * n

    def test_conditions_imply_final(self, fig1):
        # Whenever C1..C7 all pass, FINAL must pass as well.
        for graph in (fig1, cartesian(path_graph(["a"], "l"), path_graph(["b", "b"], "r"))):
            labels = sorted(label_set(graph))
            for k in range(1, len(labels)):
                rows, cols = layers_from_label_split(graph, set(labels[:k]))
                report = verify_decomposition(graph, rows, cols)
                if all(report.conditions[c].passed for c in ("C1", "C2", "C3", "C4", "C5", "C6", "C7")):
                    assert report.conditions["FINAL"].passed


def search_candidates(monkeypatch) -> list[tuple]:
    """(g, left side, report) for every candidate that the search verifies from now on.

    The search passes the verifier the component indices of its split; the
    left side is the skip of the search that numbered the rows.
    """
    searches, verified = [], []

    def recording_components(g, skip, _real=decomposition._components):
        index = _real(g, skip)
        searches.append((index, skip))
        return index

    def recording_verify(g, row_of, col_of, _real=decomposition._verify):
        report = _real(g, row_of, col_of)
        left = next(skip for index, skip in searches if index is row_of)
        verified.append((g, tuple(sorted(left)), report))
        return report

    monkeypatch.setattr(decomposition, "_components", recording_components)
    monkeypatch.setattr(decomposition, "_verify", recording_verify)
    return verified


class TestSearchAgreesWithTheVerifier:
    def test_every_verified_candidate_gets_the_public_report(self, monkeypatch):
        # Each candidate's report equals verify_decomposition's on the same
        # split, which C4-C6 and FINAL check by definition.  A label split
        # puts every arc in a layer, so C1-C3 always hold, and its quotients
        # are acyclic: the classes' squares carry an arc of a quotient cycle
        # to every vertex of its rows, which would give g an endless path.
        rng = random.Random(409)
        verified = search_candidates(monkeypatch)
        for i in range(100):
            kind = i % 5
            if kind == 0:
                g = cartesian(random_factor(rng, "pq", 4, "l"), random_factor(rng, "rs", 4, "r"))
            elif kind == 1:
                sides = (("pq", "a"), ("rs", "b"), ("tu", "c"))
                g = reduce(cartesian, [random_factor(rng, actions, 3, prefix) for actions, prefix in sides])
            elif kind == 2:
                g = cartesian(random_factor(rng, "pq", 4, "l"), random_factor(rng, "rs", 4, "r"))
                arcs = list(g.arcs)
                k = rng.randrange(len(arcs))
                arcs[k] = arcs[k]._replace(label=L(rng.choice("pqrsz")))
                g = rename_graph(rng, build_graph(g.vertices, arcs))
            elif kind == 3:
                # One parallel arc added: the classes stay apart, and every
                # candidate is rejected.
                g = cartesian(random_factor(rng, "pq", 4, "l"), random_factor(rng, "rs", 4, "r"))
                extra = rng.choice(g.arcs)._replace(id="extra", label=L(rng.choice("pqrs")))
                g = build_graph(g.vertices, g.arcs + (extra,))
            else:
                g = random_dag(rng, 8, 10, "abcdefgh", min_vertices=2, connected=True, weights=(1, 2))
            find_decompositions(g)
        monkeypatch.undo()

        seen = Counter()
        for g, left, report in verified:
            rows, cols = layers_from_label_split(g, left)
            expected = verify_decomposition(g, rows, cols)
            assert report == expected
            assert report.as_dict() == expected.as_dict()
            got = {code: (res.passed, res.witness) for code, res in report.conditions.items()}
            oracle = layer_conditions_oracle(g, list(rows.sets), list(cols.sets))
            if "FINAL" not in got:
                oracle.pop("FINAL", None)
            assert {code: got[code] for code in oracle} == oracle
            failed = set(report.failed_codes())
            assert not failed & {"C1", "C2", "C3"} and "creates a cycle" not in got["C6"][1]
            seen["accepted"] += report.accepted
            seen["C4/C5"] += bool(failed & {"C4", "C5"})
            seen["C6"] += "C6" in failed
        assert all(seen[key] for key in ("accepted", "C4/C5", "C6")), seen


class TestPrimeFactors:
    def test_fig1_has_two_primes(self, fig1):
        primes = prime_factors(fig1)
        assert sorted(len(p.vertices) for p in primes) == [3, 4]

    def test_triple_product(self):
        g = cartesian(cartesian(path_graph(["a"], "x"), path_graph(["b"], "y")), path_graph(["c"], "z"))
        primes = prime_factors(g)
        assert len(primes) == 3
        assert all(len(p.vertices) == 2 and len(p.arcs) == 1 for p in primes)

    def test_prime_graph_returns_itself(self, fig3):
        assert prime_factors(fig3) == [fig3]

    def test_primes_recompose_to_the_graph(self):
        rng = random.Random(83)
        for k in range(88):
            if k % 4 == 0:
                g = random_dag(rng, 7, 12, "pqrs", connected=True)
            else:
                sides = (("pq", "a"), ("rs", "b"), ("tu", "c"))[: k % 4]
                g = reduce(cartesian, [random_factor(rng, actions, 3, prefix) for actions, prefix in sides])
            assert find_isomorphism(reduce(vrsp, prime_factors(g)), g) is not None

    def test_recursive_primes_are_unchanged(self):
        # prime_factors stops at the first accepted split; it must still
        # recurse on exactly the split that find_decompositions lists first.
        rng = random.Random(157)
        graphs = [labelled_cube(k) for k in (1, 2, 4)]
        for k in range(40):
            if k % 4 == 0:
                graphs.append(random_dag(rng, 7, 12, "pqrs", connected=True))
            else:
                sides = (("pq", "a"), ("rs", "b"), ("tu", "c"))[: k % 4]
                graphs.append(reduce(cartesian, [random_factor(rng, actions, 3, prefix) for actions, prefix in sides]))
        for g in graphs:
            assert prime_factors(g) == primes_by_first_listed(g)

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_cube_verifies_one_split_per_level(self, monkeypatch, k):
        cube = labelled_cube(k)
        expected = primes_by_first_listed(cube)
        verified = []

        def counting(g, rows, cols):
            verified.append(g)
            return verify(g, rows, cols)

        verify = decomposition._verify
        monkeypatch.setattr(decomposition, "_verify", counting)
        primes = prime_factors(cube)
        assert len(verified) <= k - 1
        assert primes == expected and len(primes) == k

    def test_the_cube_searches_no_components(self, component_searches):
        # The cube's first split is accepted, which proves it connected.
        # Every factor is a quotient of a connected graph, so it is recorded
        # as connected where it is made, and no factor is searched either.
        cube = labelled_cube(3)
        assert len(prime_factors(cube)) == 3
        assert component_searches == []

    @pytest.mark.parametrize("name", ["fig1", "cube"])
    def test_factors_come_out_valid(self, monkeypatch, fig1, name):
        # Every factor is marked valid where it is made, whether its cycle
        # check ran or its coordinate witness made it needless, so the
        # recursion validates nothing.
        g = fig1 if name == "fig1" else labelled_cube(3)
        g.check()
        validated = []

        def counting(h):
            validated.append(h)
            return validate(h)

        validate = vrsp_graph.validate
        monkeypatch.setattr(vrsp_graph, "validate", counting)
        primes = prime_factors(g)
        assert len(primes) == (2 if name == "fig1" else 3)
        assert validated == []


def labelled_cube(k: int) -> Graph:
    """The 2^k hypercube as a Cartesian product of k one-arc paths, one label per dimension."""
    return reduce(cartesian, [path_graph([f"d{i}"], f"c{i}_") for i in range(k)])


def primes_by_first_listed(g: Graph) -> list[Graph]:
    """The prime factors found by recursing on ``find_decompositions(g)[0]``."""
    found = find_decompositions(g)
    if not found:
        return [g]
    left, right = found[0].factors
    return primes_by_first_listed(left) + primes_by_first_listed(right)
