"""Verification and search for Cartesian decompositions.

A decomposition hypothesis consists of two vertex-set families over the same
graph: "rows" and "cols".  The verifier checks seven conditions against the
induced layer subgraphs (coverage of vertices and arcs, vertex partitions,
pairwise uniformity of each family, the quotient-vs-layer matches, and label
disjointness across the two families), and, only when all of them hold, the
final constructive check: the graph must be isomorphic to the product of the
two quotients.

Every isomorphism those checks ask about is named by the coordinates when
the decomposition holds (Imrich & Peterin, "Recognizing Cartesian products
in linear time", 2007): row layers match each other by col set, col layers
by row set, a quotient's vertex matches the layer-1 vertex of the set it
contracted, and g matches the product by v -> (row of v, col of v).  The
layer witnesses are checked on the arcs of each layer keyed by those
coordinates, in the one pass over the arcs that sorts them into layers, so
no layer graph is built; and when they all hold they prove the product
witness, so FINAL needs no product.  Only a witness that fails is followed
by a search, so an accepted decomposition is confirmed without search or
building the product, and only rejections pay for either.

The search enumerates candidate families from label bipartitions: for any
valid decomposition the two sides cannot share a label, so each side of a
bipartition induces a spanning subgraph whose weak components are exactly
the candidate layers.  Only bipartitions that respect the square property
are tried: in a Cartesian product, two arcs from different factors that
meet at a vertex span a square whose opposite sides carry equal labels, so
two labels that meet without such a square lie on the same side.
:func:`label_classes` groups the labels accordingly, and every candidate
side is a union of those classes.
"""

from __future__ import annotations

import os
from itertools import combinations
from typing import Collection, Iterable, Iterator, Sequence

from .errors import (
    CycleCreatedError,
    DegenerateSplitError,
    GraphError,
    LabelBudgetError,
    NotConnectedError,
)
from .graph import (
    Arc,
    Graph,
    LabelPair,
    _components,
    _connected_by_construction,
    _grouped,
    _Record,
    _valid_by_construction,
    is_weakly_connected,
    label_set,
)
from .isomorphism import find_isomorphism, is_isomorphism
from .products import pair_vertex, vrsp
from .quotient import VertexFamily, _acyclic, _image, _index, _quotient

__all__ = [
    "CONDITION_CODES",
    "DEFAULT_LABEL_BUDGET",
    "LABEL_BUDGET_ENV",
    "ConditionResult",
    "DecompositionReport",
    "Decomposition",
    "verify_decomposition",
    "layers_from_label_split",
    "label_classes",
    "find_decompositions",
    "prime_factors",
]

CONDITION_CODES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")

DEFAULT_LABEL_BUDGET = 20
LABEL_BUDGET_ENV = "VRSP_MAX_LABELS"


class ConditionResult(_Record):
    """Outcome of one condition: pass/fail plus a human-readable witness on failure."""

    passed: bool
    witness: str = ""
    __match_args__ = ("passed", "witness")

    def __init__(self, passed: bool, witness: str = "") -> None:
        self.__dict__.update(passed=passed, witness=witness)


class DecompositionReport(_Record):
    """Per-condition outcomes of one verification run.

    ``conditions`` always holds C1..C7; the FINAL entry is present only when
    every numbered condition passed (the product check is meaningless
    otherwise).  ``factors`` carries the two quotient graphs exactly when
    the whole report is accepted, ordered (quotient by rows, quotient by
    cols).
    """

    conditions: dict[str, ConditionResult]
    family_sizes: tuple[int, int]
    factors: tuple[Graph, Graph] | None = None
    __match_args__ = ("conditions", "family_sizes", "factors")

    def __init__(
        self,
        conditions: dict[str, ConditionResult],
        family_sizes: tuple[int, int],
        factors: tuple[Graph, Graph] | None = None,
    ) -> None:
        self.__dict__.update(conditions=conditions, family_sizes=family_sizes, factors=factors)

    @property
    def accepted(self) -> bool:
        final = self.conditions.get("FINAL")
        return (
            all(self.conditions[c].passed for c in CONDITION_CODES)
            and final is not None
            and final.passed
        )

    def failed_codes(self) -> list[str]:
        return [code for code, res in self.conditions.items() if not res.passed]

    def as_dict(self) -> dict:
        """JSON-ready view (factor graphs embedded as documents)."""
        from .serialization import graph_to_document

        return {
            "accepted": self.accepted,
            "family_sizes": list(self.family_sizes),
            "conditions": {
                code: {"passed": res.passed, "witness": res.witness}
                for code, res in self.conditions.items()
            },
            "factors": (
                [graph_to_document(f) for f in self.factors] if self.factors else None
            ),
        }


class Decomposition(_Record):
    """One accepted label bipartition with its factor pair and full report."""

    left_labels: tuple[LabelPair, ...]
    factors: tuple[Graph, Graph]
    report: DecompositionReport
    __match_args__ = ("left_labels", "factors", "report")

    def __init__(
        self, left_labels: tuple[LabelPair, ...], factors: tuple[Graph, Graph], report: DecompositionReport
    ) -> None:
        self.__dict__.update(left_labels=left_labels, factors=factors, report=report)


def _sample(items: Iterable[str], limit: int = 4) -> str:
    out = sorted(items)
    shown = ", ".join(out[:limit])
    return shown + (", ..." if len(out) > limit else "")


def verify_decomposition(
    g: Graph,
    rows: VertexFamily | Sequence[Iterable[str]],
    cols: VertexFamily | Sequence[Iterable[str]],
) -> DecompositionReport:
    """Check the decomposition hypotheses for the given layer families.

    Conditions:
      C1  every vertex and every arc of g lies inside some row or col layer
      C2  the row sets cover V(g)
      C3  the col sets cover V(g)
      C4  the row layers are pairwise isomorphic
      C5  the col layers are pairwise isomorphic
      C6  contracting the rows yields a graph isomorphic to every col layer,
          and contracting the cols one isomorphic to every row layer
      C7  no label occurs both in a row layer and in a col layer
      FINAL (only when C1..C7 hold)  g is isomorphic to the product of the
          two quotients: quotient-by-rows then quotient-by-cols

    Contraction failures (a family set whose contraction would create a
    cycle) are reported as C6 failures, not raised.
    """
    _check_graph(g)
    rows = rows if isinstance(rows, VertexFamily) else VertexFamily.of(rows)
    cols = cols if isinstance(cols, VertexFamily) else VertexFamily.of(cols)
    rows.check_against(g)
    cols.check_against(g)
    return _verify(g, _index(rows), _index(cols))


def _check_graph(g: Graph) -> None:
    g.check()
    if not g.vertices or not is_weakly_connected(g):
        raise NotConnectedError("decomposition needs a non-empty weakly connected graph")


def _verify(g: Graph, row_of: dict[str, int], col_of: dict[str, int]) -> DecompositionReport:
    """:func:`verify_decomposition` in coordinates: ``row_of``/``col_of`` number each vertex's row/col.

    Sets are numbered 0, 1, ... in the family's order, and the numbers first
    appear in the order of the sets' smallest members, in which the
    quotients name them: the search passes a label split's component
    indices, :func:`verify_decomposition` each family's ``quotient._index``.
    A vertex in no set has coordinate None, which C1-C3 see as uncovered.
    ``g`` has passed ``check``.  It is weakly connected whenever the report
    is accepted: :func:`verify_decomposition` checks that first, and in the
    search an accepted split proves it (see :func:`_accepted`).

    One pass over the arcs puts every arc into the row layer and the col
    layer that hold both its ends, and lists in id order the arcs that cross
    the rows and the cols, from which the quotients are built; the arcs in
    neither layer are C1's uncovered arcs.  A layer's coordinates are the
    other family's numbers of its vertices; its coordinate key counts its
    arcs by (tail coordinate, head coordinate, label).

    Each isomorphism that C4, C5 and C6 ask about is first tried as its
    coordinate witness, and the arc buckets answer it without building a
    graph.  Layer 1 maps onto layer i by equal coordinates exactly when
    coordinates are injective on both layers, their coordinate sets are
    equal and so are their keys.  A quotient's fresh vertex maps onto the
    vertex of layer 1 that it contracted exactly when that map is a
    bijection onto layer 1 and the quotient's arcs, keyed by the coordinates
    of those vertices, give layer 1's key.  Only a witness that fails leads
    to a search, on layer graphs built for it.

    FINAL then needs neither the product nor a search when every answer
    came from its witness.  Let rows R_1..R_m and cols C_1..C_n pass C1-C7
    that way.  By C2 and C3 each quotient has exactly one fresh vertex per
    set, so the C6 witnesses make R_1 meet every col exactly once, and C_1
    every row.  The C4 witnesses carry this to every R_i, so
    v -> (row of v, col of v) is a bijection onto [m] x [n], and every R_i
    has R_1's key; likewise every C_j has C_1's key.  By C1 and the absence
    of self-loops, each arc lies in exactly one layer: g's labels from v to w
    are R_1's key at (col v, col w) when v and w share a row, C_1's key at
    (row v, row w) when they share a col, and none otherwise.  By the C6
    witnesses, the quotient by cols carries R_1's key on its fresh vertices,
    the quotient by rows C_1's.  By C7 the quotients share no label, so
    their VRSP removes no pair and is their Cartesian product, which
    carries exactly those labels between the same coordinate pairs.  So
    the FINAL witness v -> (row image of v, col image of v) holds.  When
    some answer needed a search, FINAL builds the product and checks that
    witness, and searches if it fails.

    The quotients are built without a cycle check.  A quotient of g, which
    has passed ``check``, can fail ``check`` only by a cycle (see
    ``quotient._quotient``).  A quotient whose witness holds is isomorphic
    to layer 1 of the other family, a subgraph of g, so it is acyclic and is
    marked valid unchecked.  Only a quotient whose witness fails can have a
    cycle.  Those quotients are checked, rows before cols and before any
    search on a quotient, and the first cycle found is C6's answer whatever
    C4 and C5 found, as when each quotient was checked as it was built.
    """
    row_sets, col_sets = _grouped(row_of), _grouped(col_of)
    row_arcs: list[list[Arc]] = [[] for _ in row_sets]
    col_arcs: list[list[Arc]] = [[] for _ in col_sets]
    cross_rows, cross_cols = [], []  # the arcs in no row / no col layer, in id order
    uncovered_arcs: list[str] = []
    row, col = row_of.get, col_of.get
    for a in g.arcs:
        _, tail, head, _ = a
        i = row(tail)
        in_row = i is not None and i == row(head)
        if in_row:
            row_arcs[i].append(a)
        else:
            cross_rows.append(a)
        j = col(tail)
        if j is not None and j == col(head):
            col_arcs[j].append(a)
        else:
            cross_cols.append(a)
            if not in_row:
                uncovered_arcs.append(a.id)
    conditions: dict[str, ConditionResult] = {}

    uncovered_vs = g.vertex_set.difference(row_of, col_of)
    if uncovered_vs or uncovered_arcs:
        parts = []
        if uncovered_vs:
            parts.append(f"vertices not covered: {_sample(uncovered_vs)}")
        if uncovered_arcs:
            parts.append(f"arcs not inside any layer: {_sample(uncovered_arcs)}")
        conditions["C1"] = ConditionResult(False, "; ".join(parts))
    else:
        conditions["C1"] = ConditionResult(True)

    for code, index in (("C2", row_of), ("C3", col_of)):
        missing = g.vertex_set.difference(index)
        conditions[code] = (
            ConditionResult(True)
            if not missing
            else ConditionResult(False, f"vertices not covered: {_sample(missing)}")
        )

    # layers[kind]: the sets, the arc buckets and the coordinates of a family.
    layers = {"row": (row_sets, row_arcs, col_of), "col": (col_sets, col_arcs, row_of)}
    layer_graphs: dict[tuple[str, int], Graph] = {}
    searched = False

    def layer(kind: str, i: int) -> Graph:
        if (kind, i) not in layer_graphs:
            sets, arcs, _ = layers[kind]
            layer_graphs[kind, i] = Graph(tuple(sets[i]), tuple(arcs[i]))
        return layer_graphs[kind, i]

    def search(g1: Graph, g2: Graph) -> bool:
        nonlocal searched
        searched = True
        return find_isomorphism(g1, g2) is not None

    # first_views[kind]: the view of layer 1 (None without layers);
    # first[kind]: index of the first layer not isomorphic to layer 1, if any.
    first_views: dict[str, tuple | None] = {}
    first: dict[str, int | None] = {}
    for code, kind in (("C4", "row"), ("C5", "col")):
        sets, arcs, across = layers[kind]
        view = first_views[kind] = _coordinate_view(sets[0], arcs[0], across) if sets else None
        unlike = (
            i
            for i in range(1, len(sets))
            if not (view is not None and _coordinate_view(sets[i], arcs[i], across) == view)
            and not search(layer(kind, 0), layer(kind, i))
        )
        bad = first[kind] = next(unlike, None)
        witness = "" if bad is None else f"{kind} layers 1 and {bad + 1} are not isomorphic"
        conditions[code] = ConditionResult(not witness, witness)

    # images[k]: each vertex's fresh id in the quotient by rows (k = 0) or
    # cols (k = 1); kinds[k]: the family whose layer 1 that quotient matches.
    images = (_image(g, row_of, "y~"), _image(g, col_of, "x~"))
    kinds = ("col", "row")
    quotients = [_quotient(g, images[0], cross_rows), _quotient(g, images[1], cross_cols)]
    # matched[k]: whether the witness maps quotient k onto that layer 1,
    # which makes it acyclic (as the docstring shows).
    matched = []
    for q, image, kind in zip(quotients, images, kinds):
        sets, _, across = layers[kind]
        first_view = first_views[kind]
        matched.append(first_view is not None and _quotient_view(q, image, sets[0], across) == first_view)
    c6_witness = ""
    for q, ok, side in zip(quotients, matched, ("rows", "cols")):
        if ok:
            _valid_by_construction(q, g)
            continue
        try:
            _acyclic(q, g)
        except CycleCreatedError as e:
            c6_witness = f"contracting {side} creates a cycle: {' -> '.join(e.witness)}"
            break
    if not c6_witness:
        # Isomorphism is an equivalence, so a quotient that matches layer 1
        # fails exactly on the layers that C4/C5 found unlike layer 1.  The
        # witness sends each fresh vertex to the vertex of layer 1 that it
        # contracted.
        for q, ok, side, kind in zip(quotients, matched, ("rows", "cols"), kinds):
            bad = first[kind]
            if layers[kind][0] and not (ok or search(q, layer(kind, 0))):
                bad = 0
            if bad is not None:
                c6_witness = f"quotient by {side} is not isomorphic to {kind} layer {bad + 1}"
                break
    conditions["C6"] = ConditionResult(not c6_witness, c6_witness)

    row_labels = {a.label for arcs in row_arcs for a in arcs}
    col_labels = {a.label for arcs in col_arcs for a in arcs}
    shared = row_labels & col_labels
    conditions["C7"] = (
        ConditionResult(True)
        if not shared
        else ConditionResult(False, f"labels in both families: {_sample(str(l) for l in shared)}")
    )

    factors = None
    if all(conditions[c].passed for c in CONDITION_CODES):
        q_rows, q_cols = quotients
        # Without a search, the witnesses have already proved FINAL (see above).
        if not searched or _is_product(g, q_rows, q_cols, images):
            conditions["FINAL"] = ConditionResult(True)
            # g is weakly connected (see the docstring), so its quotients are too.
            factors = (_connected_by_construction(q_rows), _connected_by_construction(q_cols))
        else:
            conditions["FINAL"] = ConditionResult(
                False, "graph is not isomorphic to the product of the quotients"
            )

    return DecompositionReport(conditions, (len(row_sets), len(col_sets)), factors)


def _coordinate_view(vertices: Collection[str], arcs: Iterable[Arc], coord: dict[str, int]) -> tuple | None:
    """A layer by coordinates: its coordinate set and its coordinate key.

    The key maps (coord of tail, coord of head, label) to the number of
    arcs that have them.  None when two vertices share a coordinate, so
    that two views are equal exactly when equal coordinates map one layer
    onto the other, label multisets and all.
    """
    get = coord.get
    coords = set(map(get, vertices))
    if len(coords) != len(vertices):
        return None
    key: dict[tuple, int] = {}
    for a in arcs:
        k = (get(a.tail), get(a.head), a.label)
        key[k] = key.get(k, 0) + 1
    return coords, key


def _quotient_view(q: Graph, image: dict[str, str], first: Collection[str], across: dict[str, int]) -> tuple | None:
    """The quotient ``q`` by the coordinates of the layer vertices its fresh vertices contracted.

    ``image`` and ``across`` name the same family's sets, and ``across`` is
    injective on the layer ``first`` (its view exists), so ``image`` is too.
    None unless ``image`` maps ``first`` onto V(q); then this view equals
    the layer's exactly when the map from each fresh vertex to the layer
    vertex it contracted is an isomorphism.
    """
    coord = dict(zip(map(image.get, first), map(across.get, first)))
    if coord.keys() != q.vertex_set:
        return None
    return _coordinate_view(q.vertices, q.arcs, coord)


def _is_product(g: Graph, q_rows: Graph, q_cols: Graph, images: tuple[dict[str, str], dict[str, str]]) -> bool:
    """Whether g is isomorphic to the VRSP of its quotients: by the pair witness when it is one, else by search."""
    product = vrsp(q_rows, q_cols)
    row_image, col_image = images
    witness = {v: pair_vertex(row_image[v], col_image[v]) for v in g.vertices}
    return is_isomorphism(g, product, witness) or find_isomorphism(g, product) is not None


def layers_from_label_split(
    g: Graph, left_labels: Iterable[LabelPair]
) -> tuple[VertexFamily, VertexFamily]:
    """Candidate (rows, cols) families for one label bipartition.

    Rows are the weak components of g's vertices under the arcs with the
    complement labels, cols those under the arcs with ``left_labels``; both
    are vertex partitions of g by construction.  Each is one search over g's
    cached adjacency that skips the other side's arcs.
    """
    labels = label_set(g)
    left = set(left_labels)
    stray = left - labels
    if stray:
        raise GraphError(f"labels not present in the graph: {_sample(str(l) for l in stray)}")
    right = labels - left
    if not left or not right:
        raise DegenerateSplitError("label bipartition needs both sides non-empty")

    return VertexFamily.of(_grouped(_components(g, left))), VertexFamily.of(_grouped(_components(g, right)))


def _resolve_label_budget(max_labels: int | None) -> int:
    if max_labels is not None:
        return max_labels
    raw = os.environ.get(LABEL_BUDGET_ENV)
    if raw is None:
        return DEFAULT_LABEL_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise GraphError(f"{LABEL_BUDGET_ENV} must be an integer, got {raw!r}") from None


def label_classes(g: Graph) -> list[tuple[LabelPair, ...]]:
    """Group the labels of ``g`` that every accepted bipartition keeps on one side.

    One square rule decides: two arcs e and f that meet at a vertex v, with
    labels a != b and far ends w and z, are united unless some vertex y != v
    closes the square w, y, z, with an arc labelled b between w and y that
    runs as f runs at v, and one labelled a between z and y that runs as e
    runs at v.  Parallel arcs (w == z) close no square, so they are always
    united.  In a Cartesian product every pair of arcs from different
    factors that meet at a vertex has such a square, and parallel arcs come
    from one factor, so each side of an accepted bipartition is a union of
    classes.  Classes are returned sorted, each sorted.

    ``g`` is read as a checked graph.  On one that fails ``check`` the
    classes are not specified, and an arc end that is not a vertex may
    raise ``KeyError``.

    Each pair is taken once from v's in-arcs followed by its out-arcs, and
    its square is looked for among w's arcs that run as f does, which the
    graph's adjacency (kept by ``check``) lists; a set of every arc's
    (tail, head, label) then finds the side at z in one lookup, so no
    per-label table is built.  With the in-arcs first, a pair of an in-arc
    and an out-arc scans the out-arcs at the in-arc's tail.  The scan is
    linear in the degree of w.  A dict holds each label's class id; a union
    relabels one of the two classes, which costs O(L) for L labels, at most
    L - 1 times.
    """
    out, inc = g._adjacency
    ends = {(a.tail, a.head, a.label) for a in g.arcs}
    class_of = {l: i for i, l in enumerate(dict.fromkeys([a.label for a in g.arcs]))}
    n_classes = len(class_of)

    def unite(kept: int, merged: int) -> None:
        nonlocal n_classes
        for l, c in class_of.items():
            if c == merged:
                class_of[l] = kept
        n_classes -= 1

    # Once every label is in one class, no vertex can change the result.
    for v in g.vertices:
        if n_classes <= 1:
            break
        # The square of e (label a, far end w) and f (label b, far end z):
        # an arc labelled b between w and y that runs as f does, and one
        # labelled a between z and y that runs as e does, for some y != v.
        for e, f in combinations(inc[v] + out[v], 2):
            a, b = e.label, f.label
            kept, merged = class_of[a], class_of[b]
            if kept != merged:
                e_out, f_out = e.tail == v, f.tail == v
                w, z = (e.head if e_out else e.tail), (f.head if f_out else f.tail)
                for x in (out[w] if f_out else inc[w]) if w != z else ():
                    if x.label is b:
                        y = x.head if f_out else x.tail
                        if y != v and ((z, y, a) if e_out else (y, z, a)) in ends:
                            break
                else:
                    unite(kept, merged)

    classes: dict[int, list[LabelPair]] = {}
    for l, c in class_of.items():
        classes.setdefault(c, []).append(l)
    return sorted(tuple(sorted(c)) for c in classes.values())


def find_decompositions(g: Graph, max_labels: int | None = None) -> list[Decomposition]:
    """All accepted label bipartitions of ``g``, in sorted left-side order.

    Candidate sides are unions of :func:`label_classes`, canonicalised so
    the left side holds the class of the smallest label; for k classes
    there are 2^(k-1) - 1 of them, and no bipartition outside them can be
    accepted.  Raises ``LabelBudgetError`` when the graph carries more
    distinct labels than the budget (``max_labels`` argument, else the
    VRSP_MAX_LABELS environment variable, else 20).
    """
    return list(_accepted(g, max_labels))


def _accepted(g: Graph, max_labels: int | None) -> Iterator[Decomposition]:
    """The accepted bipartitions of :func:`find_decompositions`, in its order,
    each verified only when it is asked for.

    ``g`` is checked first.  It is searched for its weak components only
    when the answer is needed: before the label budget refuses it, after
    the first candidate if that is rejected, or at the end if there is no
    candidate.  An accepted split proves g weakly connected without that
    search.  Its rows and cols are weak components, so every layer is
    connected.  C6 maps each quotient onto one of those layers, so both
    quotients are connected.  C7 makes their VRSP their Cartesian product,
    which is then connected, and FINAL maps g onto that product.  So a
    disconnected g is refused with ``NotConnectedError`` after at most one
    ``_verify``, and before ``LabelBudgetError``.
    """
    g.check()
    labels = label_set(g)
    try:
        budget = _resolve_label_budget(max_labels)
        if len(labels) > budget:
            raise LabelBudgetError(f"graph has {len(labels)} labels, budget is {budget}")
    except GraphError:
        _check_graph(g)
        raise

    classes = label_classes(g)
    pivot, rest = classes[:1], classes[1:]
    candidates = []
    for mask in range((1 << len(rest)) - 1):  # full mask would leave the right side empty
        chosen = pivot + [c for k, c in enumerate(rest) if mask >> k & 1]
        candidates.append(tuple(sorted(l for c in chosen for l in c)))
    candidates.sort()

    for k, left in enumerate(candidates):
        # Rows are the components off the left labels, cols those off the others.
        left_set = set(left)
        report = _verify(g, _components(g, left_set), _components(g, labels - left_set))
        if report.accepted:
            assert report.factors is not None
            yield Decomposition(left, report.factors, report)
        elif k == 0:
            _check_graph(g)
    if not candidates:
        _check_graph(g)


def prime_factors(g: Graph, max_labels: int | None = None) -> list[Graph]:
    """Split ``g`` into factors that admit no further decomposition.

    Recurses on the first accepted bipartition at every level, the first
    that :func:`find_decompositions` would list, and verifies no candidate
    after it; a graph with no accepted bipartition is returned as is.
    """
    first = next(_accepted(g, max_labels), None)
    if first is None:
        return [g]
    left, right = first.factors
    return prime_factors(left, max_labels) + prime_factors(right, max_labels)
