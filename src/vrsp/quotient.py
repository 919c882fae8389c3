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

from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import CycleCreatedError, GraphError, UnknownVertexError
from .graph import Arc, Graph, _find_cycle, _Record, _valid_by_construction

if TYPE_CHECKING:
    import random

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
        return cls(tuple(frozenset(s) for s in sets))

    def __len__(self) -> int:
        return len(self.sets)

    def union(self) -> frozenset[str]:
        return frozenset().union(*self.sets)

    def check_against(self, g: Graph) -> "VertexFamily":
        unknown = self.union() - g.vertex_set
        if unknown:
            raise UnknownVertexError(f"family references vertices not in the graph: {sorted(unknown)!r}")
        return self


def _quotient(g: Graph, image: dict[str, str]) -> Graph:
    """``g`` with each vertex in ``image`` replaced by its image, in one pass over the arcs.

    Arcs with neither end in ``image`` are kept verbatim.  Raises
    ``CycleCreatedError`` naming one cycle of the result.  The images must
    be fresh ids or ids of contracted vertices; then the quotient of a graph
    that has passed ``check`` is valid, and is returned marked so.
    """
    kept: list[Arc] = []
    redirected: dict[tuple[str, str, object], Arc] = {}
    for a in g.arcs:
        if a.tail not in image and a.head not in image:
            kept.append(a)
            continue
        tail, head = image.get(a.tail, a.tail), image.get(a.head, a.head)
        if tail == head:
            continue
        key = (tail, head, a.label)
        old = redirected.get(key)
        if old is None or a.id < old.id:
            redirected[key] = Arc(a.id, tail, head, a.label)

    vertices = g.vertex_set.difference(image).union(image.values())
    arcs = kept + list(redirected.values())
    cycle = _find_cycle(vertices, arcs)
    if cycle is not None:
        raise CycleCreatedError(cycle)
    return _valid_by_construction(Graph(tuple(vertices), tuple(arcs)), g)


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
    return _quotient(g, dict.fromkeys(xs, new_id))


def contract_family(
    g: Graph,
    fam: VertexFamily | Sequence[Iterable[str]],
    id_prefix: str = "y~",
    *,
    rng: random.Random | None = None,
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
    return _quotient(g, _mint(g, fam, id_prefix))


def _mint(g: Graph, fam: VertexFamily, id_prefix: str) -> dict[str, str]:
    """The fresh vertex of each member of ``fam``, as :func:`contract_family` names them."""
    # Mint against all of V(g), skipping indices already taken, so the names
    # are fresh.  Quotients of quotients therefore keep working even when the
    # prefix repeats.
    image: dict[str, str] = {}
    index = 1
    for s in sorted(fam.sets, key=min):
        while f"{id_prefix}{index}" in g.vertex_set:
            index += 1
        image.update(dict.fromkeys(s, f"{id_prefix}{index}"))
        index += 1
    return image
