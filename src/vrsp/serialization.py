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

A parsed graph holds one copy of its data.  Each arc's tail and head is the
vertex's own id string, not the copy that JSON decoding made; an end that
names no vertex is kept as written, for validation to report.
:func:`parse_graph` makes each arc as its JSON object is decoded, so the
whole decoded document is never held.  The schema is stated once, in the
walk :func:`_unchecked_graph`, which both readings share: the hooked one,
whose well-formed arcs are already made, and the plain decoding that
:func:`document_to_graph` reads, where the walk makes each arc itself.
Input the hooked reading refuses is read again the plain way, for its
error text.  A well-formed arc is defined once, in :func:`_arc_reader`.

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
from typing import Callable, Iterable

from .errors import GraphError, GraphFormatError
from .graph import Arc, Graph, LabelPair, _new_arc
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
        try:
            return Fraction(token)
        except ValueError as e:  # more digits than Python converts
            raise GraphFormatError(f"weight token too long: {e}") from None
    raise GraphFormatError(f"weight must be an integer or 'p/q' token, got {token!r}")


def weight_token(w: Fraction) -> str:
    """Canonical string form of a weight ('1', '-2', '3/2')."""
    return str(w)


_GRAPH_FIELDS = frozenset({"name", "vertices", "arcs"})
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
    :func:`vrsp.graph.validate` themselves and report diagnostics.  The
    document is left as it was given: the schema walk takes the fields out
    of a shallow copy.
    """
    g = _unchecked_graph(dict(doc) if isinstance(doc, dict) else doc)
    return g.check() if check else g


def _arc_reader(labels: dict[object, LabelPair], end: Callable[[str, str], str]) -> Callable[[object], object]:
    """What a well-formed arc is, stated once: a function from a JSON object to its ``Arc``, or to itself if it is none.

    A well-formed arc is an object with exactly the five arc fields, whose
    id, tail, head and action are strings, the action non-empty, and whose
    weight is a token :func:`parse_weight` accepts.  Its tail and head are
    ``end(tail, tail)`` and ``end(head, head)``.  ``labels`` caches one
    label per distinct (action, token), so that each weight token is parsed
    once; the key carries the token's type because True == 1, and a token
    of any type but str and int is no weight and gets no key.  A value that
    is no object (which a decoder's hook never meets) gives None.
    """

    def read(entry: object) -> object:
        if not isinstance(entry, dict):
            return None
        if entry.keys() != _ARC_FIELDS:
            return entry
        arc_id, tail, head, action, token = entry["id"], entry["tail"], entry["head"], entry["action"], entry["weight"]
        if not (
            isinstance(arc_id, str) and isinstance(tail, str) and isinstance(head, str) and isinstance(action, str)
        ):
            return entry
        key = (action, type(token), token) if isinstance(token, (str, int)) else None
        label = labels.get(key)
        if label is None:  # a cached label's action is known to be non-empty
            if not action:
                return entry
            try:
                label = labels[key] = LabelPair(action, parse_weight(token))
            except GraphFormatError:
                return entry
        return _new_arc(Arc, (arc_id, end(tail, tail), end(head, head), label))

    return read


def _arc_error(i: int, entry: object) -> GraphFormatError:
    """The error for arcs entry ``i``, which :func:`_arc_reader` refused: its first bad field, in a fixed order."""
    if not isinstance(entry, dict):
        return GraphFormatError(f"arc #{i + 1} must be a JSON object")
    extra = entry.keys() - _ARC_FIELDS
    if extra:
        return GraphFormatError(f"arc #{i + 1}: unknown fields {sorted(extra)!r}")
    missing = _ARC_FIELDS - entry.keys()
    if missing:
        return GraphFormatError(f"arc #{i + 1}: missing fields {sorted(missing)!r}")
    arc_id, tail, head, action, token = entry["id"], entry["tail"], entry["head"], entry["action"], entry["weight"]
    if not isinstance(arc_id, str):
        return _wrong_type(f"arc #{i + 1} 'id'", str, arc_id)
    if not isinstance(action, str):
        return _wrong_type(f"arc {arc_id!r} 'action'", str, action)
    if not action:
        return GraphFormatError(f"arc {arc_id!r}: 'action' must be non-empty")
    try:
        parse_weight(token)
    except GraphFormatError as e:
        return GraphFormatError(f"arc {arc_id!r}: {e}")
    if not isinstance(tail, str):
        return _wrong_type(f"arc {arc_id!r} 'tail'", str, tail)
    # The reader refused the arc, and every other field is well formed.
    return _wrong_type(f"arc {arc_id!r} 'head'", str, head)


def _unchecked_graph(doc: object, labels: dict | None = None, ends: dict[str, str] | None = None) -> Graph:
    """The graph that ``doc`` spells, unchecked; raises the ``GraphFormatError`` for its first fault.

    The graph schema, stated once: an object of at most the three graph
    fields, a string name, a list of distinct string vertex ids, a list of
    well-formed arcs, and no string that UTF-8 cannot encode.  Each arc's
    tail and head is the vertex's own id string where it names a vertex; a
    dangling end is kept as written, for ``validate`` to report.

    Given ``ends``, ``doc`` was decoded with ``_arc_reader(labels,
    ends.setdefault)`` as its hook, so each well-formed arcs entry is its
    ``Arc`` already, and the vertex ids are mapped through ``ends`` to share
    the arcs' end strings.  Otherwise each entry is read here, with the
    vertex ids as the ends, and one that is no JSON object (an ``Arc`` given
    by a Python caller, say) is refused.  The fields are taken out of
    ``doc``, so that a decoded list goes as soon as the walk replaces it.
    """
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    extra = doc.keys() - _GRAPH_FIELDS
    if extra:
        raise GraphFormatError(f"unknown graph fields: {sorted(extra)!r}")
    name = _expect(doc.pop("name", ""), str, "'name'")
    vertices = _expect(doc.pop("vertices", None), list, "'vertices'")
    for v in vertices:
        if not isinstance(v, str):
            raise _wrong_type("vertex id", str, v)
    # Large temporaries are kept few: the hooked ids go straight into the
    # tuple the Graph keeps, and the dict of ids lives only while the plain
    # path reads its arcs.
    if ends is not None:
        vertices = tuple(map(ends.get, vertices, vertices))
    if len(set(vertices)) != len(vertices):
        repeated = sorted(v for v, n in Counter(vertices).items() if n > 1)
        raise GraphFormatError(f"repeated vertex ids: {', '.join(repr(v) for v in repeated)}")
    arcs = _expect(doc.pop("arcs", None), list, "'arcs'")
    if ends is None:
        labels = {}
        arcs = list(map(_arc_reader(labels, dict(zip(vertices, vertices)).get), arcs))
    for i, arc in enumerate(arcs):
        if type(arc) is not Arc:
            raise _arc_error(i, arc)
    # Tails and heads need no check here: each is a vertex id or dangling.
    _require_utf8(chain((name,), vertices, (a.id for a in arcs), (label.action for label in labels.values())))
    return Graph(tuple(vertices), tuple(arcs), name)


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


def _loads(text: str | bytes) -> object:
    """The JSON value of ``text``, with decoding errors raised as ``GraphFormatError``."""
    try:
        return json.loads(_decode(text))
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError as e:  # an integer with more digits than Python converts
        raise GraphFormatError(f"JSON number too long: {e}") from None
    except RecursionError:
        raise GraphFormatError("JSON nested too deeply to decode") from None


def parse_graph(text: str | bytes, *, check: bool = True) -> Graph:
    """Parse UTF-8 JSON text into a graph, validated unless ``check=False``, as :func:`document_to_graph` does.

    Each well-formed arc object becomes its ``Arc`` while the text is still
    being decoded.  So the whole document is never held: an arc's JSON
    object, its action and weight strings, and each tail or head string
    that spells an end already seen go as soon as the arc is made.  Arc
    ends share the vertex id strings, so the graph holds one copy of each
    id.  The result then goes through the same schema walk as
    :func:`document_to_graph`'s.  Input that fails either is decoded again,
    plainly, and read by :func:`document_to_graph`, so every error is
    raised with the same text and in the same order.
    """
    g = _decoded_graph(_decode(text))
    return g.check() if check else g


def _decoded_graph(text: str) -> Graph:
    """The unchecked graph that ``text`` spells, its arcs made by :func:`_arc_reader` as the decoder meets them.

    The reader is the decoder's ``object_hook``, so it sees every object,
    innermost first, turns each well-formed arc into an ``Arc``, and sends
    every tail and head through one dict of ends; :func:`_unchecked_graph`
    then walks the result.  A fault in either sends the text to a plain
    decoding and :func:`document_to_graph`, so every error keeps its text
    and its order.  The labels and ends go when this returns, before any
    check.
    """
    labels: dict[object, LabelPair] = {}
    ends: dict[str, str] = {}
    try:
        return _unchecked_graph(json.loads(text, object_hook=_arc_reader(labels, ends.setdefault)), labels, ends)
    except (GraphFormatError, ValueError, RecursionError):
        pass  # out of the handler, so that the traceback's frames go before the second decoding
    return document_to_graph(_loads(text), check=False)


def emit_graph(g: Graph) -> str:
    """Canonical JSON text for a graph (byte-stable across runs).

    Written directly: the text equals ``json.dumps(graph_to_document(g),
    indent=2, ensure_ascii=False) + "\\n"``, whose indented form would run
    the pure-Python encoder.  Strings are escaped by the same function.
    The document is one ``"".join`` of pieces: the head, then five per arc
    (the opening, the escaped id, the tail text, the head text and the
    label text), then the tail, so no arc is written to a string of its own
    and the text is never copied.  Vertex and label texts are made once
    each; an arc end that is no vertex (in a graph never checked) is
    escaped where it occurs.
    """
    enc = encode_basestring
    vertex_text = dict(zip(g.vertices, map(enc, g.vertices)))
    vertices = _list(map(vertex_text.__getitem__, g.vertices))
    head = f'{{\n  "name": {enc(g.name)},\n  "vertices": {vertices},\n  "arcs": '
    if not g.arcs:
        return head + "[]\n}\n"
    # A tail text runs on to the "head" key, and a label text closes its arc.
    tail_text = {v: f',\n      "tail": {text},\n      "head": ' for v, text in vertex_text.items()}
    label_text = {
        label: f',\n      "action": {enc(label.action)},\n      "weight": {enc(weight_token(label.weight))}\n    }}'
        for label in {a.label for a in g.arcs}
    }
    tail_get, head_get = tail_text.get, vertex_text.get
    opening = ',\n    {\n      "id": '
    pieces = [head]
    for id_, tail, end, label in g.arcs:
        pieces += (
            opening,
            enc(id_),
            tail_get(tail) or f',\n      "tail": {enc(tail)},\n      "head": ',
            head_get(end) or enc(end),
            label_text[label],
        )
    pieces[1] = '[\n    {\n      "id": '  # the first arc opens the list
    pieces.append("\n  ]\n}\n")
    return "".join(pieces)


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
