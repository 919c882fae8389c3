"""Vertex-set contraction: the quotient by one set or by a disjoint family.

Contracting a vertex set X replaces X by a single fresh vertex: arcs with
both ends inside X are deleted, and every arc crossing the boundary is
redirected to the new vertex, keeping its label and its original id.
Redirected arcs that coincide in (tail, head, label) collapse to a single
arc; the one with the smallest original id survives.  That identification is
what makes the quotient of a grid row look like a single path rather than a
bundle of parallel copies.  A family is contracted in one pass over the arcs
with every set mapped to its fresh vertex at once; the result equals
contracting the sets one at a time, in any order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import CycleCreatedError, GraphError, UnknownVertexError
from .graph import Arc, Graph, LabelPair, _connected_by_construction, _find_cycle, _new_arc, _Record, _valid_by_construction

__all__ = ["VertexFamily", "contract", "contract_family"]


class VertexFamily(_Record):
    """An ordered list of pairwise disjoint, non-empty vertex sets."""

    sets: tuple[frozenset[str], ...]
    __match_args__ = ("sets",)

    def __init__(self, sets: tuple[frozenset[str], ...]) -> None:
        self.__dict__["sets"] = sets = tuple(frozenset(s) for s in sets)
        seen: set[str] = set()
        for i, s in enumerate(sets):
            if not s:
                raise GraphError(f"family set #{i + 1} is empty")
            overlap = seen & s
            if overlap:
                raise GraphError(f"family sets are not disjoint: {sorted(overlap)!r} repeated")
            seen |= s

    @classmethod
    def of(cls, sets: Iterable[Iterable[str]]) -> "VertexFamily":
        return cls(tuple(sets))

    def __len__(self) -> int:
        return len(self.sets)

    def union(self) -> frozenset[str]:
        return frozenset().union(*self.sets)

    def check_against(self, g: Graph) -> "VertexFamily":
        unknown = self.union() - g.vertex_set
        if unknown:
            raise UnknownVertexError(f"family references vertices not in the graph: {sorted(unknown)!r}")
        return self


def _quotient(g: Graph, image: dict[str, str], arcs: Iterable[Arc]) -> Graph:
    """``g`` with each vertex in ``image`` replaced by its image, in one pass over ``arcs``.

    ``arcs``, in id order, are all of ``g.arcs`` or only those that cross the
    sets.  Arcs with neither end in ``image`` are kept verbatim; of
    redirected arcs that coincide, the first (smallest id) is kept.  The
    images must be fresh ids or ids of contracted vertices; then the result
    of a valid graph has no self-loop, no dangling arc and no repeated id,
    but may have a cycle, which this does not look for: :func:`_acyclic` does.
    The result is recorded as weakly connected when ``g`` is.
    """
    kept: list[Arc] = []
    redirected: dict[tuple[str, str, LabelPair], Arc] = {}
    get = image.get
    for a in arcs:
        tail, head = get(a.tail), get(a.head)
        if tail is None and head is None:
            kept.append(a)
            continue
        tail, head = a.tail if tail is None else tail, a.head if head is None else head
        key = (tail, head, a.label)
        if tail != head and key not in redirected:
            redirected[key] = _new_arc(Arc, (a.id, tail, head, a.label))

    vertices = g.vertex_set.difference(image).union(image.values())
    q = Graph(tuple(vertices), tuple(kept + list(redirected.values())))
    return _connected_by_construction(q) if "_connected" in g.__dict__ else q


def _acyclic(q: Graph, g: Graph) -> Graph:
    """``q``, a :func:`_quotient` of ``g``, marked valid if ``g`` has passed ``check``.

    Raises ``CycleCreatedError`` naming one cycle of ``q``.
    """
    cycle = _find_cycle(q)
    if cycle is not None:
        raise CycleCreatedError(cycle)
    return _valid_by_construction(q, g)


def contract(g: Graph, x: Iterable[str], new_id: str) -> Graph:
    """Contract the vertex set ``x`` of ``g`` into the fresh vertex ``new_id``.

    Arcs internal to ``x`` are deleted; boundary arcs are redirected onto
    ``new_id`` with labels preserved and original ids retained.  Redirected
    arcs that become indistinguishable (same tail, head, and label) are
    merged, lowest id first.  Raises ``CycleCreatedError`` when the result
    would contain a directed cycle, which can happen when ``x`` is not
    closed under intermediate paths.
    """
    xs = set(x)
    if not xs:
        raise GraphError("cannot contract an empty vertex set")
    unknown = xs - g.vertex_set
    if unknown:
        raise UnknownVertexError(f"unknown vertex ids {sorted(unknown)!r}")
    if new_id in g.vertex_set - xs:
        raise GraphError(f"replacement vertex id {new_id!r} already present in the graph")
    return _acyclic(_quotient(g, dict.fromkeys(xs, new_id), g.arcs), g)


def contract_family(
    g: Graph,
    fam: VertexFamily | Sequence[Iterable[str]],
    id_prefix: str = "y~",
    *,
    rng: object | None = None,
) -> Graph:
    """Contract every set of a disjoint family, all in one pass.

    The fresh vertex for a set is ``id_prefix`` + its 1-based position in
    the canonical family order (sets sorted by smallest member), skipping
    ids the graph already uses, so the result does not depend on the order
    in which the sets are listed.  The result equals contracting the sets
    one at a time with :func:`contract`, in any order; a
    ``CycleCreatedError`` names a cycle of the whole quotient.  ``rng`` is
    accepted and has no effect: there is no contraction order left to vary.
    """
    if not isinstance(fam, VertexFamily):
        fam = VertexFamily.of(fam)
    fam.check_against(g)
    return _acyclic(_quotient(g, _mint(g, fam, id_prefix), g.arcs), g)


def _mint(g: Graph, fam: VertexFamily, id_prefix: str) -> dict[str, str]:
    """The fresh vertex of each member of ``fam``, as :func:`contract_family` names them."""
    return _image(g, _index(fam), id_prefix)


def _index(fam: VertexFamily) -> dict[str, int]:
    """Each member of ``fam`` mapped to its set's position, listed set by set in :func:`_image`'s naming order."""
    sets = fam.sets
    return {v: i for i in sorted(range(len(sets)), key=lambda i: min(sets[i])) for v in sets[i]}


def _image(g: Graph, index: dict[str, int], id_prefix: str) -> dict[str, str]:
    """Each vertex of ``index`` mapped to the fresh vertex of its set, named in first-seen order.

    ``index`` numbers disjoint sets 0, 1, ...; :func:`_index` and
    ``graph._components`` number them so that they are first seen in the
    order of their smallest members.  Names skip ids of V(g), so quotients
    of quotients stay fresh even when the prefix repeats.
    """
    order = dict.fromkeys(index.values())
    names = [""] * len(order)
    count = 1
    for i in order:
        while f"{id_prefix}{count}" in g.vertex_set:
            count += 1
        names[i] = f"{id_prefix}{count}"
        count += 1
    return {v: names[i] for v, i in index.items()}
