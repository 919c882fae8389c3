"""JSON round-trips, family files, and DOT export."""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import pytest
from conftest import mk, random_dag

from vrsp import graph as graph_module
from vrsp.cli import main
from vrsp.errors import GraphFormatError, InvalidGraphError
from vrsp.graph import Arc, Graph, LabelPair, validate
from vrsp.fixtures import fixture_path, load_graph
from vrsp.quotient import VertexFamily
from vrsp.serialization import (
    document_to_graph,
    emit_dot,
    emit_family,
    emit_graph,
    graph_to_document,
    parse_family,
    parse_graph,
    parse_weight,
    weight_token,
)


class TestWeights:
    def test_tokens(self):
        assert parse_weight("1") == 1
        assert parse_weight("-2") == -2
        assert parse_weight("3/2") == Fraction(3, 2)
        assert parse_weight(7) == 7
        assert weight_token(Fraction(4, 6)) == "2/3"

    @pytest.mark.parametrize("bad", ["", "1.5", "a", "1/0", "1/", "/2", "01", "1/02", " 1", True, 2.5, None])
    def test_rejects_inexact_or_malformed(self, bad):
        with pytest.raises(GraphFormatError):
            parse_weight(bad)

    def test_trailing_newline_is_not_a_token(self, tmp_path, capsys):
        with pytest.raises(GraphFormatError):
            parse_weight("1\n")
        doc = {"vertices": ["u", "v"], "arcs": [{"id": "e1", "tail": "u", "head": "v", "action": "a", "weight": "2\n"}]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "arc 'e1': weight must be" in capsys.readouterr().err


class TestGraphRoundTrip:
    def test_fixture_bytes_are_canonical(self):
        for name in ("fig1", "fig2", "fig2_g1", "fig2_g2", "fig3", "fig3_g1", "fig3_g2"):
            text = fixture_path(f"{name}.json").read_text()
            assert emit_graph(parse_graph(text)) == text

    def test_fig1_counts(self):
        g = load_graph("fig1")
        assert len(g.vertices) == 12 and len(g.arcs) == 17

    def test_random_graphs_round_trip(self):
        rng = random.Random(83)
        for _ in range(50):
            g = random_dag(rng, actions="pqr", weights=(1, 2, Fraction(3, 2)))
            assert parse_graph(emit_graph(g)) == g

    def test_weights_survive_exactly(self):
        g = mk("u v", [("e1", "u", "v", "a", Fraction(3, 2))])
        again = parse_graph(emit_graph(g))
        assert again.arcs[0].label.weight == Fraction(3, 2)


def json_dumps_oracle(g) -> str:
    """The canonical text as the standard library's indented encoder writes it."""
    return json.dumps(graph_to_document(g), indent=2, ensure_ascii=False) + "\n"


# Quotes, backslashes, every control character, DEL, non-ASCII, the JSON
# line separators U+2028/U+2029 and astral characters.
AWKWARD = ['"', "\\", *map(chr, range(0x20)), "\x7f", "é", "ß", "\u2028", "\u2029", "\U0001F600", "\U00010000", "a", "b"]


def awkward_text(rng: random.Random) -> str:
    return "".join(rng.choice(AWKWARD) for _ in range(rng.randint(1, 6)))


class TestEmitMatchesJsonDumps:
    def test_awkward_strings(self):
        rng = random.Random(97)
        for _ in range(300):
            n = rng.randint(0, 6)
            vertices = list(dict.fromkeys(awkward_text(rng) for _ in range(n)))
            arcs = []
            for k in range(rng.randint(0, 8) if len(vertices) > 1 else 0):
                tail, head = rng.sample(vertices, 2)
                weight = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
                arcs.append(Arc(awkward_text(rng) + str(k), tail, head, LabelPair(awkward_text(rng), weight)))
            name = rng.choice(["", awkward_text(rng)])
            g = Graph(tuple(vertices), tuple(arcs), name)
            assert emit_graph(g) == json_dumps_oracle(g)

    def test_repeated_vertex_ids_and_dangling_arc_ends(self):
        # Unchecked graphs: each vertex id is escaped once, an arc end that
        # is no vertex where it occurs.
        rng = random.Random(103)
        for _ in range(300):
            vertices = [awkward_text(rng) for _ in range(rng.randint(0, 5))]
            vertices += rng.sample(vertices, min(len(vertices), rng.randint(0, 3)))
            ends = vertices + [awkward_text(rng) for _ in range(3)]
            arcs = [
                Arc(awkward_text(rng) + str(k), rng.choice(ends), rng.choice(ends), LabelPair(awkward_text(rng)))
                for k in range(rng.randint(0, 6))
            ]
            g = Graph(tuple(vertices), tuple(arcs))
            assert emit_graph(g) == json_dumps_oracle(g)
        g = Graph(("u", "u", "é"), (Arc("e", "u", "ghost\n", LabelPair("a")), Arc("f", "\x00", "é", LabelPair("a"))))
        assert emit_graph(g) == json_dumps_oracle(g)

    def test_empty_graphs(self):
        for g in (Graph((), ()), Graph(("u",), ()), Graph((), (), "named")):
            assert emit_graph(g) == json_dumps_oracle(g)
        assert emit_graph(Graph((), ())) == '{\n  "name": "",\n  "vertices": [],\n  "arcs": []\n}\n'

    def test_random_and_bundled_graphs(self):
        rng = random.Random(101)
        graphs = [load_graph(name) for name in ("fig1", "fig2", "fig3_g1")]
        graphs += [random_dag(rng, actions="pq", weights=(1, -2, Fraction(3, 2), Fraction(-1, 3))) for _ in range(50)]
        for g in graphs:
            assert emit_graph(g) == json_dumps_oracle(g)


class TestDeepNesting:
    def test_graph_nested_too_deeply_is_a_format_error(self):
        with pytest.raises(GraphFormatError, match="nested too deeply"):
            parse_graph('{"vertices": ' + "[" * 100_000)


class TestUndecodableStrings:
    @pytest.mark.parametrize(
        "doc",
        [
            {"name": "\ud800", "vertices": [], "arcs": []},
            {"vertices": ["a", "\udfff"], "arcs": []},
            {"vertices": ["a", "b"], "arcs": [{"id": "e\ud83d", "tail": "a", "head": "b", "action": "x", "weight": "1"}]},
            {"vertices": ["a", "b"], "arcs": [{"id": "e", "tail": "a", "head": "b", "action": "\udc80", "weight": "1"}]},
        ],
    )
    @pytest.mark.parametrize("check", [True, False])
    def test_lone_surrogates_rejected(self, doc, check):
        # The JSON text is ASCII; only its escapes spell the lone surrogates.
        with pytest.raises(GraphFormatError, match="UTF-8"):
            parse_graph(json.dumps(doc), check=check)

    def test_surrogate_pairs_are_characters(self):
        g = parse_graph('{"vertices": ["\\ud83d\\ude00"], "arcs": []}')
        assert g.vertices == ("\U0001F600",)


class TestValidatedOnce:
    def test_parsed_graph_carries_its_check(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return validate(g)

        monkeypatch.setattr(graph_module, "validate", counting)
        g = parse_graph(fixture_path("fig1.json").read_bytes())
        assert g.check() is g and g.check() is g
        assert len(calls) == 1


class TestParseErrors:
    def test_malformed_json(self):
        with pytest.raises(GraphFormatError, match="line"):
            parse_graph(b"{ not json")

    def test_dangling_head_names_arc(self):
        text = '{"name": "", "vertices": ["u"], "arcs": [{"id": "e9", "tail": "u", "head": "v", "action": "a", "weight": "1"}]}'
        with pytest.raises(InvalidGraphError, match="e9"):
            parse_graph(text)

    def test_missing_field_named(self):
        text = '{"name": "", "vertices": ["u"], "arcs": [{"id": "e1", "tail": "u", "head": "u", "action": "a"}]}'
        with pytest.raises(GraphFormatError, match="weight"):
            parse_graph(text)

    def test_unknown_field_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown"):
            parse_graph('{"vertices": [], "arcs": [], "colour": 1}')

    def test_float_weight_rejected(self):
        text = '{"vertices": ["u", "v"], "arcs": [{"id": "e1", "tail": "u", "head": "v", "action": "a", "weight": 1.5}]}'
        with pytest.raises(GraphFormatError, match="weight"):
            parse_graph(text)

    def test_empty_action_rejected(self):
        text = '{"vertices": ["u", "v"], "arcs": [{"id": "e1", "tail": "u", "head": "v", "action": "", "weight": "1"}]}'
        with pytest.raises(GraphFormatError, match="action"):
            parse_graph(text)

    def test_invalid_utf8(self):
        with pytest.raises(GraphFormatError, match="UTF-8"):
            parse_graph(b"\xff\xfe{}")

    @pytest.mark.parametrize("check", [True, False])
    def test_repeated_vertex_id_named(self, check):
        with pytest.raises(GraphFormatError, match="repeated vertex ids: 'u'"):
            parse_graph('{"vertices": ["u", "u", "v"], "arcs": []}', check=check)


_DROP = object()


def _arc(**over) -> dict:
    """A well-formed arc e1 from u to v, with fields replaced, or dropped where given ``_DROP``."""
    arc = {"id": "e1", "tail": "u", "head": "v", "action": "a", "weight": "1"}
    arc.update(over)
    return {k: v for k, v in arc.items() if v is not _DROP}


def _doc(*arcs, **over) -> dict:
    """A well-formed document on vertices u and v, with graph fields replaced or dropped likewise."""
    doc = {"name": "g", "vertices": ["u", "v"], "arcs": list(arcs)}
    doc.update(over)
    return {k: v for k, v in doc.items() if v is not _DROP}


# Every schema error of document_to_graph, in full.  Where a document has
# several faults, the text names the one that wins.
SCHEMA_ERRORS = {
    "not an object": ([_doc()], "graph document must be a JSON object"),
    "unknown graph fields": ({**_doc(), "zeta": 1, "colour": 2}, "unknown graph fields: ['colour', 'zeta']"),
    "name not a string": (_doc(name=3), "'name' must be str, got int"),
    "name a bool": (_doc(name=True), "'name' must be str, got bool"),
    "vertices missing": (_doc(vertices=_DROP), "'vertices' must be list, got NoneType"),
    "vertices not a list": (_doc(vertices={"u": 1}), "'vertices' must be list, got dict"),
    "vertex id not a string": (_doc(vertices=["u", 5, None]), "vertex id must be str, got int"),
    "vertex id a bool": (_doc(vertices=[True]), "vertex id must be str, got bool"),
    "repeated vertex ids": (_doc(vertices=["v", "u", "w", "v", "u", "v"]), "repeated vertex ids: 'u', 'v'"),
    "arcs missing": (_doc(arcs=_DROP), "'arcs' must be list, got NoneType"),
    "arcs not a list": (_doc(arcs="e1"), "'arcs' must be list, got str"),
    "arc not an object": (_doc(_arc(), ["e2"]), "arc #2 must be a JSON object"),
    "unknown arc fields": (_doc(_arc(colour="red", z=0)), "arc #1: unknown fields ['colour', 'z']"),
    "missing arc fields": (
        _doc(_arc(), _arc(id="e2", head=_DROP, weight=_DROP)),
        "arc #2: missing fields ['head', 'weight']",
    ),
    "unknown beats missing": (_doc(_arc(colour="red", head=_DROP)), "arc #1: unknown fields ['colour']"),
    "id not a string": (_doc(_arc(id=7)), "arc #1 'id' must be str, got int"),
    "id null": (_doc(_arc(id=None)), "arc #1 'id' must be str, got NoneType"),
    "action not a string": (_doc(_arc(action=["a"])), "arc 'e1' 'action' must be str, got list"),
    "empty action": (_doc(_arc(action="")), "arc 'e1': 'action' must be non-empty"),
    "tail not a string": (_doc(_arc(tail=1)), "arc 'e1' 'tail' must be str, got int"),
    "head not a string": (_doc(_arc(head=False)), "arc 'e1' 'head' must be str, got bool"),
    "bad weight token": (
        _doc(_arc(weight="1.5")),
        "arc 'e1': weight must be an integer or 'p/q' token, got '1.5'",
    ),
    "weight with a leading zero": (
        _doc(_arc(weight="01")),
        "arc 'e1': weight must be an integer or 'p/q' token, got '01'",
    ),
    "bool weight": (_doc(_arc(weight=True)), "arc 'e1': weight must be an exact number token, got True"),
    "float weight": (
        _doc(_arc(weight=1.0)),
        "arc 'e1': weight must be an integer or 'p/q' token, got 1.0",
    ),
    "list weight": (
        _doc(_arc(weight=[1])),
        "arc 'e1': weight must be an integer or 'p/q' token, got [1]",
    ),
    "null weight": (
        _doc(_arc(weight=None)),
        "arc 'e1': weight must be an integer or 'p/q' token, got None",
    ),
    "surrogate in name": (
        _doc(name="g\ud800"),
        "string 'g\\ud800' cannot be encoded as UTF-8 (lone surrogate)",
    ),
    "surrogate in vertex": (
        _doc(vertices=["u", "\udfff"]),
        "string '\\udfff' cannot be encoded as UTF-8 (lone surrogate)",
    ),
    "surrogate in arc id": (
        _doc(_arc(id="e\ud800")),
        "string 'e\\ud800' cannot be encoded as UTF-8 (lone surrogate)",
    ),
    "surrogate in action": (
        _doc(_arc(action="\udc00")),
        "string '\\udc00' cannot be encoded as UTF-8 (lone surrogate)",
    ),
    "surrogate name beats arc id": (
        _doc(_arc(id="\ud801"), name="\ud800"),
        "string '\\ud800' cannot be encoded as UTF-8 (lone surrogate)",
    ),
    "several faults in one arc": (
        _doc(_arc(id=5, action="", weight=1.5, tail=None)),
        "arc #1 'id' must be str, got int",
    ),
    "action beats weight and ends": (
        _doc(_arc(action="", weight=1.5, tail=None, head=2)),
        "arc 'e1': 'action' must be non-empty",
    ),
    "weight beats ends": (
        _doc(_arc(weight="x", tail=None, head=2)),
        "arc 'e1': weight must be an integer or 'p/q' token, got 'x'",
    ),
    "tail beats head": (_doc(_arc(tail=None, head=2)), "arc 'e1' 'tail' must be str, got NoneType"),
    "first bad arc wins": (
        _doc(_arc(), _arc(id="e2", weight="x"), _arc(id=3)),
        "arc 'e2': weight must be an integer or 'p/q' token, got 'x'",
    ),
    "vertices beat arcs": (_doc(_arc(id=3), vertices=["u", "u"]), "repeated vertex ids: 'u'"),
    "bad arc beats surrogate": (
        _doc(_arc(action="\ud800"), _arc(id="e2", weight="1.0")),
        "arc 'e2': weight must be an integer or 'p/q' token, got '1.0'",
    ),
}


class TestSchemaErrorTexts:
    @pytest.mark.parametrize("doc, message", SCHEMA_ERRORS.values(), ids=SCHEMA_ERRORS.keys())
    @pytest.mark.parametrize("check", [True, False])
    def test_full_text(self, doc, message, check):
        with pytest.raises(GraphFormatError) as document_error:
            document_to_graph(doc, check=check)
        with pytest.raises(GraphFormatError) as text_error:
            parse_graph(json.dumps(doc), check=check)
        assert str(document_error.value) == str(text_error.value) == message


class TestLabelInterning:
    @staticmethod
    def doc(*weights) -> dict:
        vertices = [f"v{i}" for i in range(len(weights) + 1)]
        arcs = [
            {"id": f"e{i}", "tail": vertices[i], "head": vertices[i + 1], "action": "a", "weight": w}
            for i, w in enumerate(weights)
        ]
        return {"vertices": vertices, "arcs": arcs}

    @pytest.mark.parametrize("bad", [True, [1], {"p": 1}])
    def test_bad_weight_after_a_good_one_exits_2(self, tmp_path, capsys, bad):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(self.doc(1, bad)))
        assert main(["validate", str(path)]) == 2
        assert "arc 'e1': weight must be" in capsys.readouterr().err

    def test_equal_tokens_give_equal_labels(self):
        g = parse_graph(json.dumps(self.doc("2", 2, "2", "4/2")))
        labels = [a.label for a in g.arcs]
        assert labels[0] is labels[2]
        assert len(set(labels)) == 1 and len({hash(l) for l in labels}) == 1

    def test_separate_documents_share_label_objects(self):
        first = parse_graph(json.dumps(self.doc("3/2", 1)))
        second = parse_graph(json.dumps(self.doc(1, "6/4")))
        assert first.arcs[0].label is second.arcs[1].label is LabelPair("a", Fraction(3, 2))
        assert first.arcs[1].label is second.arcs[0].label


class TestFamilies:
    def test_round_trip(self):
        fam = VertexFamily.of([{"u1", "u2"}, {"u3"}])
        assert parse_family(emit_family(fam)) == fam

    def test_awkward_but_writable_ids_round_trip(self):
        fam = VertexFamily.of([{"a b", "x#y", "(u1)"}, {"é", "!#"}, {"tab\tinside"}])
        assert parse_family(emit_family(fam)) == fam

    @pytest.mark.parametrize(
        "bad", ["(u1,x1)", "b, c", ",", "#a", " a", "a ", "\ta", "a\nb", "a\rb", "a\u2028b", "a\x1cb", "a\n", ""]
    )
    def test_unwritable_id_is_named(self, bad):
        fam = VertexFamily.of([{"u1", "u2"}, {bad, "zz"}])
        with pytest.raises(GraphFormatError, match=re.escape(repr(bad))):
            emit_family(fam)
        unchecked = "".join(",".join(sorted(s)) + "\n" for s in fam.sets)
        try:
            assert parse_family(unchecked) != fam
        except GraphFormatError:
            pass

    def test_json_array_lines(self):
        text = '# a product layer\n["(y~1,u5)", "(y~1,u6)"]\n  [" a ", "#b", ""]  \nu1,u2\n[x,y\n["z", 1]\n'
        assert parse_family(text).sets == (
            frozenset({"(y~1,u5)", "(y~1,u6)"}),
            frozenset({" a ", "#b", ""}),
            frozenset({"u1", "u2"}),
            frozenset({"[x", "y"}),
            frozenset({'["z"', "1]"}),
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ('u1\n["a", "a"]\n', "family line 2: repeated vertex id"),
            ("[]\n", "family set #1 is empty"),
            ('["a", "b"]\nb\n', "not disjoint"),
            ('["\\ud800"]\n', "UTF-8"),
            ("u1\n" + "[" * 100_000 + "\n", "family line 2: JSON nested too deeply"),
        ],
    )
    def test_bad_json_array_lines(self, text, message):
        with pytest.raises(GraphFormatError, match=re.escape(message)):
            parse_family(text)

    @pytest.mark.parametrize("bad", ['["x"]', "[]", "[x"])
    def test_id_starting_with_bracket_is_not_written(self, bad):
        # The comma form cannot hold it: a line that starts with '[' may be
        # read as a JSON array.
        with pytest.raises(GraphFormatError, match=re.escape(repr(bad))):
            emit_family(VertexFamily.of([{bad}]))

    def test_comments_and_blanks_ignored(self):
        fam = parse_family("# top row\nu1,u2\n\nu3\n")
        assert fam.sets == (frozenset({"u1", "u2"}), frozenset({"u3"}))

    def test_overlap_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_family("u1,u2\nu2,u3\n")

    def test_empty_id_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_family("u1,,u2\n")

    def test_empty_file_is_an_empty_family(self):
        assert parse_family("# nothing\n") == VertexFamily(())

    def test_a_bug_is_not_reported_as_bad_input(self, monkeypatch):
        def broken(sets):
            raise RuntimeError("boom")

        monkeypatch.setattr(VertexFamily, "of", broken)
        with pytest.raises(RuntimeError):
            parse_family("u1\n")


class TestDot:
    def test_single_arc(self):
        g = mk("u v", [("e1", "u", "v", "a")])
        assert emit_dot(g) == 'digraph "G" {\n  "u";\n  "v";\n  "u" -> "v" [label="a,1"];\n}\n'

    def test_fig1_edge_lines(self):
        dot = emit_dot(load_graph("fig1"))
        assert dot.count(" -> ") == 17
        assert dot.splitlines()[0] == 'digraph "fig1" {'

    def test_deterministic(self):
        rng = random.Random(89)
        for _ in range(20):
            g = random_dag(rng)
            assert emit_dot(g) == emit_dot(parse_graph(emit_graph(g)))

    def test_quoting(self):
        g = mk('a"b c\\d', [("e1", 'a"b', "c\\d", "x")])
        dot = emit_dot(g)
        assert '"a\\"b"' in dot and '"c\\\\d"' in dot
