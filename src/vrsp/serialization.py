"""Graph and family file formats, plus DOT export.

The graph document is a small JSON object::

    {
      "name": "fig1",
      "vertices": ["u1", "u2"],
      "arcs": [
        {"id": "e1", "tail": "u1", "head": "u2", "action": "a", "weight": "1"}
      ]
    }

Weights are exact tokens: an optional minus sign, digits, optionally a
"/denominator" part ("1", "-2", "3/2").  JSON integers are accepted on input
for convenience; floats never are.  Strings that UTF-8 cannot encode (lone
surrogates, which JSON escapes can spell) are rejected.  Emission is
canonical: fixed key order, vertices sorted, arcs sorted by id, two-space
indent, trailing newline, so emitting a parsed document reproduces it byte
for byte.  The text is written directly, not through ``json.dumps``, and
equals ``json.dumps(document, indent=2, ensure_ascii=False) + "\n"``.

Family files list one vertex set per line, either as a JSON array of ids or
comma-separated; blank lines and lines starting with '#' are ignored.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring
from typing import Iterable

from .errors import GraphError, GraphFormatError
from .graph import Arc, Graph, LabelPair
from .quotient import VertexFamily

__all__ = [
    "parse_weight",
    "weight_token",
    "graph_to_document",
    "document_to_graph",
    "parse_graph",
    "emit_graph",
    "parse_family",
    "emit_family",
    "emit_dot",
]

_WEIGHT_RE = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


def parse_weight(token: object) -> Fraction:
    """Parse an exact weight token; rejects floats and malformed strings."""
    if isinstance(token, bool):
        raise GraphFormatError(f"weight must be an exact number token, got {token!r}")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, str) and _WEIGHT_RE.fullmatch(token):
        return Fraction(token)
    raise GraphFormatError(f"weight must be an integer or 'p/q' token, got {token!r}")


def weight_token(w: Fraction) -> str:
    """Canonical string form of a weight ('1', '-2', '3/2')."""
    return str(w)


_ARC_FIELDS = frozenset({"id", "tail", "head", "action", "weight"})


def _expect(value: object, kind: type, what: str):
    if not isinstance(value, kind) or isinstance(value, bool):
        raise _wrong_type(what, kind, value)
    return value


def _wrong_type(what: str, kind: type, value: object) -> GraphFormatError:
    return GraphFormatError(f"{what} must be {kind.__name__}, got {type(value).__name__}")


def graph_to_document(g: Graph) -> dict:
    """The canonical JSON-ready document for a graph."""
    return {
        "name": g.name,
        "vertices": list(g.vertices),
        "arcs": [
            {
                "id": a.id,
                "tail": a.tail,
                "head": a.head,
                "action": a.label.action,
                "weight": weight_token(a.label.weight),
            }
            for a in g.arcs
        ],
    }


def document_to_graph(doc: object, *, check: bool = True) -> Graph:
    """Build a graph from a parsed JSON document.

    Schema violations raise ``GraphFormatError`` naming the offending field.
    With ``check=True`` (the default) graph invariants are enforced as well;
    ``check=False`` returns the raw value so callers can run
    :func:`vrsp.graph.validate` themselves and report diagnostics.
    """
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    extra = set(doc) - {"name", "vertices", "arcs"}
    if extra:
        raise GraphFormatError(f"unknown graph fields: {sorted(extra)!r}")
    name = _expect(doc.get("name", ""), str, "'name'")
    vertices = _expect(doc.get("vertices"), list, "'vertices'")
    for v in vertices:
        if not isinstance(v, str):
            raise _wrong_type("vertex id", str, v)
    if len(set(vertices)) != len(vertices):
        repeated = sorted(v for v, n in Counter(vertices).items() if n > 1)
        raise GraphFormatError(f"repeated vertex ids: {', '.join(repr(v) for v in repeated)}")
    raw_arcs = _expect(doc.get("arcs"), list, "'arcs'")

    # One pass over the arcs, checking each field in turn; error text is
    # formatted only when it is raised.  One label per distinct (action,
    # token), so that each weight token is parsed once.  The key carries the
    # token's type because True == 1; unhashable tokens get no key and are
    # rejected.
    labels: dict[object, LabelPair] = {}
    arcs = []
    for i, entry in enumerate(raw_arcs):
        if not isinstance(entry, dict):
            raise GraphFormatError(f"arc #{i + 1} must be a JSON object")
        if entry.keys() != _ARC_FIELDS:
            extra = entry.keys() - _ARC_FIELDS
            if extra:
                raise GraphFormatError(f"arc #{i + 1}: unknown fields {sorted(extra)!r}")
            raise GraphFormatError(f"arc #{i + 1}: missing fields {sorted(_ARC_FIELDS - entry.keys())!r}")
        arc_id, tail, head, action, token = entry["id"], entry["tail"], entry["head"], entry["action"], entry["weight"]
        if not isinstance(arc_id, str):
            raise _wrong_type(f"arc #{i + 1} 'id'", str, arc_id)
        if not isinstance(action, str):
            raise _wrong_type(f"arc {arc_id!r} 'action'", str, action)
        if not action:
            raise GraphFormatError(f"arc {arc_id!r}: 'action' must be non-empty")
        key = (action, type(token), token) if isinstance(token, (str, int)) else None
        label = labels.get(key)
        if label is None:
            try:
                label = labels[key] = LabelPair(action, parse_weight(token))
            except GraphFormatError as e:
                raise GraphFormatError(f"arc {arc_id!r}: {e}") from None
        if not isinstance(tail, str):
            raise _wrong_type(f"arc {arc_id!r} 'tail'", str, tail)
        if not isinstance(head, str):
            raise _wrong_type(f"arc {arc_id!r} 'head'", str, head)
        arcs.append(Arc(arc_id, tail, head, label))

    # Tails and heads need no check here: each is a vertex id or dangling.
    _require_utf8(chain((name,), vertices, (a.id for a in arcs), (label.action for label in labels.values())))
    g = Graph(tuple(vertices), tuple(arcs), name)
    return g.check() if check else g


def _require_utf8(strings: Iterable[str]) -> None:
    """Reject a string that UTF-8 cannot encode: a lone surrogate, which a JSON escape can spell."""
    for s in strings:
        if not s.isascii():  # a flag lookup, unlike the encoding
            try:
                s.encode("utf-8")
            except UnicodeEncodeError:
                raise GraphFormatError(f"string {s!r} cannot be encoded as UTF-8 (lone surrogate)") from None


def _decode(text: str | bytes) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise GraphFormatError(f"input is not valid UTF-8: {e}") from None
    return text


def parse_graph(text: str | bytes, *, check: bool = True) -> Graph:
    """Parse UTF-8 JSON text into a validated graph."""
    try:
        doc = json.loads(_decode(text))
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise GraphFormatError("JSON nested too deeply to decode") from None
    return document_to_graph(doc, check=check)


def emit_graph(g: Graph) -> str:
    """Canonical JSON text for a graph (byte-stable across runs).

    Written directly: the text equals ``json.dumps(graph_to_document(g),
    indent=2, ensure_ascii=False) + "\\n"``, whose indented form would run
    the pure-Python encoder.  Strings are escaped by the same function, and
    each vertex id once; an arc end that is no vertex (in a graph never
    checked) is escaped where it occurs.
    """
    enc = encode_basestring
    vertex_text = dict(zip(g.vertices, map(enc, g.vertices)))
    end_text = vertex_text.get
    label_text = {
        label: f',\n      "action": {enc(label.action)},\n      "weight": {enc(weight_token(label.weight))}\n    }}'
        for label in {a.label for a in g.arcs}
    }
    arcs = [
        f'{{\n      "id": {enc(id_)},\n      "tail": {end_text(tail) or enc(tail)},\n'
        f'      "head": {end_text(head) or enc(head)}{label_text[label]}'
        for id_, tail, head, label in g.arcs
    ]
    vertices = _list(map(vertex_text.__getitem__, g.vertices))
    return f'{{\n  "name": {enc(g.name)},\n  "vertices": {vertices},\n  "arcs": {_list(arcs)}\n}}\n'


def _list(items: Iterable[str]) -> str:
    """A JSON list one level deep in the two-space layout, from its items' text."""
    body = ",\n    ".join(items)
    return f"[\n    {body}\n  ]" if body else "[]"


def _json_ids(text: str) -> list[str] | None:
    """The ids that ``text`` lists if it is a JSON array of strings, else None."""
    if not text.lstrip().startswith("["):
        return None
    try:
        ids = json.loads(text)
    except ValueError:
        return None
    except RecursionError:
        raise GraphFormatError("JSON nested too deeply to decode") from None
    return ids if isinstance(ids, list) and all(isinstance(v, str) for v in ids) else None


def parse_family(text: str | bytes) -> VertexFamily:
    """Parse a family file: one vertex set per line.

    A line that parses as a JSON array of strings is that set, so any id can
    be written, such as a product vertex ``(y~1,u5)``.  Any other line is
    split on ',' and its ids are stripped of surrounding whitespace, so there
    an id that contains ',' or a line break, starts with '#', is empty, or
    has whitespace at either end cannot be written.  Blank lines and lines
    starting with '#' are ignored.
    """
    sets = []
    for lineno, line in enumerate(_decode(text).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ids = _json_ids(line)
        except GraphFormatError as e:
            raise GraphFormatError(f"family line {lineno}: {e}") from None
        if ids is not None:
            _require_utf8(ids)
        else:
            ids = [part.strip() for part in line.split(",")]
            if any(not part for part in ids):
                raise GraphFormatError(f"family line {lineno}: empty vertex id")
        if len(set(ids)) != len(ids):
            raise GraphFormatError(f"family line {lineno}: repeated vertex id")
        sets.append(frozenset(ids))
    try:
        return VertexFamily.of(sets)
    except GraphError as e:
        raise GraphFormatError(f"invalid family: {e}") from None


def emit_family(fam: VertexFamily) -> str:
    """Family file text: one sorted comma-separated set per line.

    Raises ``GraphFormatError`` naming the first id, in sorted order, that
    :func:`parse_family` would not read back as itself: one that contains
    ',' or a line break, starts with '#' or '[' (a line that starts with
    '[' may be read as a JSON array), is empty, or has whitespace at either
    end.
    """
    for v in sorted(fam.union()):
        if "," in v or v.startswith(("#", "[")) or v.strip().splitlines() != [v]:
            raise GraphFormatError(f"vertex id {v!r} cannot be written to a family file")
    return "".join(",".join(sorted(s)) + "\n" for s in fam.sets)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(g: Graph) -> str:
    """Render a graph as a Graphviz digraph, deterministically ordered."""
    lines = [f"digraph {_dot_quote(g.name or 'G')} {{"]
    for v in g.vertices:
        lines.append(f"  {_dot_quote(v)};")
    for a in sorted(g.arcs, key=lambda a: (a.tail, a.head, a.label, a.id)):
        lines.append(f"  {_dot_quote(a.tail)} -> {_dot_quote(a.head)} [label={_dot_quote(str(a.label))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
