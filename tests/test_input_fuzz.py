"""Seeded fuzzing of the exit-code contract: unusable input is a GraphError (exit 2), never a crash (exit 3)."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vrsp.cli import main
from vrsp.errors import GraphError, GraphFormatError
from vrsp.graph import Graph
from vrsp.serialization import _loads, document_to_graph, parse_graph

# 5000 digits: more than Python converts to an integer by default.
_LONG_INTEGER = "1" * 5000
_LONG_TOKEN = '"1/' + "9" * 5000 + '"'
_KEYS = ("name", "vertices", "arcs", "id", "tail", "head", "action", "weight")
_STRINGS = ("u", "v", "w", "", "a", "b", "1", "-2", "3/2", "1/0", "01", "\ud800", "e1")


def _list(items: list[str]) -> str:
    return "[" + ",".join(items) + "]"


def _object(fields: dict[str, str]) -> str:
    return "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in fields.items()) + "}"


def _weighted(*choices: tuple[int, st.SearchStrategy[str]]) -> st.SearchStrategy[str]:
    """Draw from one of the strategies, each as often as its weight says."""
    return st.sampled_from([s for weight, s in choices for _ in range(weight)]).flatmap(lambda s: s)


# Each strategy draws JSON text, so that integers too long for Python can be written.
_long = st.sampled_from((_LONG_INTEGER, "-" + _LONG_INTEGER, _LONG_TOKEN))
_ids = st.sampled_from(("u", "v", "w")).map(json.dumps)
# A well-formed arc, which the parser turns into an Arc wherever it occurs.
_good_arcs = st.fixed_dictionaries(
    {
        "id": st.sampled_from(("e1", "e2", "e3")).map(json.dumps),
        "tail": _ids,
        "head": _ids,
        "action": st.sampled_from(("a", "b")).map(json.dumps),
        "weight": st.sampled_from(('"1"', '"3/2"', "2")),
    }
).map(_object)
_scalars = _weighted(
    (4, st.sampled_from(("null", "true", "false"))),
    (4, st.floats().map(json.dumps)),
    (4, st.integers(-3, 3).map(str)),
    (4, st.sampled_from(_STRINGS).map(json.dumps)),
    (4, st.text(max_size=3).map(json.dumps)),
    (1, _long),
    (2, _good_arcs),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(_list),
        st.dictionaries(st.sampled_from(_KEYS), inner, max_size=5).map(_object),
    ),
    max_leaves=8,
)


def _mostly(valid: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """``valid`` in three draws of four, else any value."""
    return _weighted((3, valid), (1, _values))


# Mostly well-formed graph documents, so that many get past the schema to validation.
_arcs = st.fixed_dictionaries(
    {
        "id": _mostly(st.sampled_from(("e1", "e2", "e3")).map(json.dumps)),
        "tail": _mostly(_ids),
        "head": _mostly(_ids),
        "action": _mostly(st.sampled_from(("a", "b")).map(json.dumps)),
        "weight": _mostly(_weighted((6, st.sampled_from(('"1"', '"3/2"', "2"))), (1, _long))),
    }
).map(_object)
_graphs = st.fixed_dictionaries(
    {
        "vertices": _mostly(st.lists(_ids, max_size=3, unique=True).map(_list)),
        "arcs": _mostly(st.lists(_arcs, max_size=4).map(_list)),
    },
    optional={"name": _mostly(st.just('"g"'))},
).map(_object)
_documents = _weighted((1, _values), (3, _graphs))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_documents)
def test_parse_graph_returns_a_graph_or_raises_a_graph_error(text):
    for check in (True, False):
        try:
            g = parse_graph(text, check=check)
        except GraphError:
            continue
        assert isinstance(g, Graph)


def _outcome(parse, *args, **kwargs) -> Graph | tuple[type, str]:
    """What ``parse`` gives: a graph, or the type and text of the ``GraphError`` it raises."""
    try:
        return parse(*args, **kwargs)
    except GraphError as e:
        return type(e), str(e)


def _assert_parse_agrees(text: str | bytes) -> None:
    """``parse_graph`` gives what ``document_to_graph`` gives for the plain decoding, with and without ``check``.

    A text that does not decode raises the decoder's ``GraphFormatError``.
    A parsed graph's arc ends that name a vertex are the vertex's own string.
    """
    try:
        doc = json.loads(text)
    except ValueError:  # not UTF-8, or an integer with more digits than Python converts
        expected = _outcome(_loads, text)
        assert expected[0] is GraphFormatError
        for check in (True, False):
            assert _outcome(parse_graph, text, check=check) == expected
        return
    for check in (True, False):
        got = _outcome(parse_graph, text, check=check)
        assert got == _outcome(document_to_graph, doc, check=check)
        if isinstance(got, Graph):
            own = {v: v for v in got.vertices}
            assert all(own.get(end, end) is end for a in got.arcs for end in (a.tail, a.head))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_documents)
def test_parse_graph_agrees_with_document_to_graph(text):
    _assert_parse_agrees(text)


_ARC = '{"id": "e1", "tail": "u", "head": "v", "action": "a", "weight": "1"}'
_BAD_ARC = '{"id": "e2", "tail": "u", "head": "v", "action": "", "weight": "1"}'


def _doc(arcs: str, rest: str = '"vertices": ["u", "v"]') -> str:
    """A graph document with these arcs entries and these other fields."""
    return "{" + rest + ', "arcs": [' + arcs + "]}"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(_ARC, id="arc-as-document"),
        pytest.param(_doc("", '"vertices": ["u", ' + _ARC + "]"), id="arc-as-vertex"),
        pytest.param(_doc("", '"name": ' + _ARC + ', "vertices": ["u", "v"]'), id="arc-as-name"),
        pytest.param(_doc(_ARC.replace('"1"', _ARC)), id="arc-as-weight"),
        pytest.param(_doc(_ARC[:-1] + ', "next": ' + _ARC + "}"), id="arc-in-arc"),
        pytest.param(_doc("[" + _ARC + "]"), id="arc-in-list-entry"),
        pytest.param(_doc(_ARC + ", " + _BAD_ARC), id="beside-bad-arc"),
        pytest.param(_doc(_BAD_ARC + ", " + _ARC), id="after-bad-arc"),
        pytest.param(_doc(_ARC, '"extra": ' + _ARC + ', "vertices": ["u", "v"]'), id="arc-as-extra"),
        pytest.param(_doc(_ARC.replace('"1"', "true")), id="bool-weight"),
        pytest.param(_doc(_ARC.replace('"1"', "1.0")), id="float-weight"),
        pytest.param(_doc(_ARC.replace('"1"', "2")), id="int-weight"),
        pytest.param(_doc(_ARC.replace('"1"', _LONG_TOKEN)), id="long-token"),
        pytest.param(_doc(_ARC.replace('"1"', _LONG_INTEGER)), id="long-int"),
        pytest.param(_doc(_ARC.replace('"id": "e1"', '"id": 7, "id": "e1"')), id="duplicate-key-bad-then-good"),
        pytest.param(_doc(_ARC.replace('"id": "e1"', '"id": "e1", "id": 7')), id="duplicate-key-good-then-bad"),
        pytest.param('{"arcs": [' + _ARC + '], "vertices": ["v", "u"], "name": "g"}', id="arcs-before-vertices"),
        pytest.param(_doc(_ARC.replace('"v"', '"w"')), id="dangling-end"),
        pytest.param(_doc(_ARC, '"vertices": ["u", "v", "u"]'), id="repeated-vertex"),
        pytest.param(_doc(_ARC.replace('"a"', '"\\ud800"')), id="lone-surrogate"),
        pytest.param(b'{"vertices": ["u", "\xff"], "arcs": []}', id="invalid-utf8"),
        pytest.param(_doc(_ARC).encode().replace(b'"e1"', b'"e\xc3"'), id="invalid-utf8-id"),
    ],
)
def test_parse_graph_agrees_with_document_to_graph_on(text):
    _assert_parse_agrees(text)


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_documents)
def test_validate_never_exits_3(tmp_path, capsys, text):
    path = tmp_path / "g.json"
    path.write_text(text)  # ASCII: json.dumps escapes the rest
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
