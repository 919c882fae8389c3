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
from typing import Collection, Iterable, Sequence

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
    _Record,
    is_weakly_connected,
    label_set,
    spanning_subgraph_by_labels,
    weak_components,
)
from .isomorphism import find_isomorphism, is_isomorphism
from .products import pair_vertex, vrsp
from .quotient import VertexFamily, _mint, _quotient

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
    return _verify(g, rows, cols)


def _check_graph(g: Graph) -> None:
    g.check()
    if not g.vertices or not is_weakly_connected(g):
        raise NotConnectedError("decomposition needs a non-empty weakly connected graph")


def _verify(g: Graph, rows: VertexFamily, cols: VertexFamily) -> DecompositionReport:
    """:func:`verify_decomposition` on a graph and families already checked against it.

    Each family is a partition of its union, so one pass over the arcs puts
    every arc into the row layer and the col layer that hold both its ends;
    the arcs in neither are C1's uncovered arcs.  A layer's coordinates are
    the other family's set indices of its vertices (None for a vertex in no
    set of it); its coordinate key maps (coordinate of tail, coordinate of
    head) to the sorted labels between them (see :func:`_coordinate_view`).

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
    """
    row_of = {v: i for i, s in enumerate(rows.sets) for v in s}
    col_of = {v: j for j, s in enumerate(cols.sets) for v in s}
    row_arcs: list[list[Arc]] = [[] for _ in rows.sets]
    col_arcs: list[list[Arc]] = [[] for _ in cols.sets]
    uncovered_arcs = []
    for a in g.arcs:
        i, j = row_of.get(a.tail), col_of.get(a.tail)
        in_row = i is not None and i == row_of.get(a.head)
        in_col = j is not None and j == col_of.get(a.head)
        if in_row:
            row_arcs[i].append(a)
        if in_col:
            col_arcs[j].append(a)
        if not (in_row or in_col):
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
    layers = {"row": (rows.sets, row_arcs, col_of), "col": (cols.sets, col_arcs, row_of)}
    views: dict[tuple[str, int], tuple | None] = {}
    graphs: dict[tuple[str, int], Graph] = {}
    searched = False

    def view(kind: str, i: int) -> tuple | None:
        if (kind, i) not in views:
            sets, arcs, across = layers[kind]
            views[kind, i] = _coordinate_view(sets[i], arcs[i], across)
        return views[kind, i]

    def layer(kind: str, i: int) -> Graph:
        if (kind, i) not in graphs:
            sets, arcs, _ = layers[kind]
            graphs[kind, i] = Graph(tuple(sets[i]), tuple(arcs[i]))
        return graphs[kind, i]

    def search(g1: Graph, g2: Graph) -> bool:
        nonlocal searched
        searched = True
        return find_isomorphism(g1, g2) is not None

    def alike(kind: str, i: int) -> bool:
        first_view = view(kind, 0)
        return first_view is not None and view(kind, i) == first_view or search(layer(kind, 0), layer(kind, i))

    # first[kind]: index of the first layer not isomorphic to layer 1, if any.
    first: dict[str, int | None] = {}
    for code, kind in (("C4", "row"), ("C5", "col")):
        unlike = (i for i in range(1, len(layers[kind][0])) if not alike(kind, i))
        bad = first[kind] = next(unlike, None)
        witness = "" if bad is None else f"{kind} layers 1 and {bad + 1} are not isomorphic"
        conditions[code] = ConditionResult(not witness, witness)

    # images[k]: each vertex's fresh id in the quotient by rows (k = 0) or cols (k = 1).
    images = (_mint(g, rows, "y~"), _mint(g, cols, "x~"))
    quotients: list[Graph] = []
    c6_witness = ""
    for image, side in zip(images, ("rows", "cols")):
        try:
            quotients.append(_quotient(g, image))
        except CycleCreatedError as e:
            c6_witness = f"contracting {side} creates a cycle: {' -> '.join(e.witness)}"
            break
    if not c6_witness:
        # Isomorphism is an equivalence, so a quotient that matches layer 1
        # fails exactly on the layers that C4/C5 found unlike layer 1.  The
        # witness sends each fresh vertex to the vertex of layer 1 that it
        # contracted.
        for q, image, side, kind in zip(quotients, images, ("rows", "cols"), ("col", "row")):
            sets, _, across = layers[kind]
            bad = first[kind]
            if sets:
                first_view = view(kind, 0)
                if not (
                    first_view is not None
                    and _quotient_view(q, image, sets[0], across) == first_view
                    or search(q, layer(kind, 0))
                ):
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
            factors = (q_rows, q_cols)
        else:
            conditions["FINAL"] = ConditionResult(
                False, "graph is not isomorphic to the product of the quotients"
            )

    return DecompositionReport(conditions, (len(rows), len(cols)), factors)


def _coordinate_view(vertices: Collection[str], arcs: Iterable[Arc], coord: dict[str, int]) -> tuple | None:
    """A layer by coordinates: its coordinate set and its coordinate key.

    The key maps (coord of tail, coord of head) to the sorted labels of the
    arcs between them.  None when two vertices share a coordinate, so that
    two views are equal exactly when equal coordinates map one layer onto
    the other, label multisets and all.
    """
    coords = {coord.get(v) for v in vertices}
    if len(coords) != len(vertices):
        return None
    key: dict[tuple, list[LabelPair]] = {}
    for a in arcs:
        key.setdefault((coord.get(a.tail), coord.get(a.head)), []).append(a.label)
    for labels in key.values():
        labels.sort()
    return coords, key


def _quotient_view(q: Graph, image: dict[str, str], first: frozenset[str], across: dict[str, int]) -> tuple | None:
    """The quotient ``q`` by the coordinates of the layer vertices its fresh vertices contracted.

    ``image`` and ``across`` name the same family's sets, and ``across`` is
    injective on the layer ``first`` (its view exists), so ``image`` is too.
    None unless ``image`` maps ``first`` onto V(q); then this view equals
    the layer's exactly when the map from each fresh vertex to the layer
    vertex it contracted is an isomorphism.
    """
    coord = {image.get(w): across.get(w) for w in first}
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

    Rows are the weak components of the spanning subgraph on the complement
    labels, cols those of the subgraph on ``left_labels``; both are vertex
    partitions of g by construction.
    """
    labels = label_set(g)
    left = set(left_labels)
    stray = left - labels
    if stray:
        raise GraphError(f"labels not present in the graph: {_sample(str(l) for l in stray)}")
    right = labels - left
    if not left or not right:
        raise DegenerateSplitError("label bipartition needs both sides non-empty")

    rows = VertexFamily.of(weak_components(spanning_subgraph_by_labels(g, right)))
    cols = VertexFamily.of(weak_components(spanning_subgraph_by_labels(g, left)))
    return rows, cols


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

    Two arcs with labels a != b that meet at a vertex v are united unless
    some vertex y != v closes a square with them whose opposite sides carry
    the same labels; parallel arcs with different labels are always united.
    In a Cartesian product every pair of arcs from different factors that
    meet at a vertex has such a square, and parallel arcs come from one
    factor, so each side of an accepted bipartition is a union of classes.
    Classes are returned sorted, each sorted.
    """
    # Labels are numbered for the union-find.  out_nb[v][a] / in_nb[v][a]:
    # heads / tails of the arcs labelled a at v.
    number: dict[LabelPair, int] = {}
    out_nb: dict[str, dict[int, set[str]]] = {v: {} for v in g.vertices}
    in_nb: dict[str, dict[int, set[str]]] = {v: {} for v in g.vertices}
    for arc in g.arcs:
        a = number.setdefault(arc.label, len(number))
        out_nb[arc.tail].setdefault(a, set()).add(arc.head)
        in_nb[arc.head].setdefault(a, set()).add(arc.tail)
    empty: frozenset[str] = frozenset()
    parent = list(range(len(number)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def squared(v: str, a: int, ws, w_side, b: int, zs, z_side) -> bool:
        # The arcs labelled a at v reach ws, those labelled b reach zs.  Each
        # w, z needs a b-arc at w and an a-arc at z, on the sides w_side and
        # z_side say, that meet at some vertex y != v.
        for w in ws:
            for z in zs:
                if w == z:
                    return False
                common = w_side[w].get(b, empty) & z_side[z].get(a, empty)
                if len(common) <= (v in common):
                    return False
        return True

    # Once every label is in one class, no vertex can change the result.
    n_classes = len(number)
    for v in g.vertices:
        if n_classes <= 1:
            break
        outs, ins = list(out_nb[v].items()), list(in_nb[v].items())
        # in/out: w -> v (a), v -> z (b); the square is w -> y (b), y -> z (a).
        for a, ws in ins:
            for b, zs in outs:
                if find(a) != find(b) and not squared(v, a, ws, out_nb, b, zs, in_nb):
                    parent[find(a)] = find(b)
                    n_classes -= 1
        # out/out: v -> w (a), v -> z (b); the square is w -> y (b), z -> y (a).
        # in/in: w -> v (a), z -> v (b); the square is y -> w (b), y -> z (a).
        for side, near in ((out_nb, outs), (in_nb, ins)):
            for i, (a, ws) in enumerate(near):
                for b, zs in near[i + 1 :]:
                    if find(a) != find(b) and not squared(v, a, ws, side, b, zs, side):
                        parent[find(a)] = find(b)
                        n_classes -= 1

    classes: dict[int, list[LabelPair]] = {}
    for l, i in number.items():
        classes.setdefault(find(i), []).append(l)
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
    _check_graph(g)
    budget = _resolve_label_budget(max_labels)
    count = len(label_set(g))
    if count > budget:
        raise LabelBudgetError(f"graph has {count} labels, budget is {budget}")

    classes = label_classes(g)
    pivot, rest = classes[:1], classes[1:]
    candidates = []
    for mask in range((1 << len(rest)) - 1):  # full mask would leave the right side empty
        chosen = pivot + [c for k, c in enumerate(rest) if mask >> k & 1]
        candidates.append(tuple(sorted(l for c in chosen for l in c)))
    candidates.sort()

    results: list[Decomposition] = []
    for left in candidates:
        rows, cols = layers_from_label_split(g, left)
        report = _verify(g, rows, cols)
        if report.accepted:
            assert report.factors is not None
            results.append(Decomposition(left, report.factors, report))
    return results


def prime_factors(g: Graph, max_labels: int | None = None) -> list[Graph]:
    """Split ``g`` into factors that admit no further decomposition.

    Recurses on the first accepted bipartition at every level; a graph with
    no accepted bipartition is returned as is.
    """
    found = find_decompositions(g, max_labels)
    if not found:
        return [g]
    left, right = found[0].factors
    return prime_factors(left, max_labels) + prime_factors(right, max_labels)
