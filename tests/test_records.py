"""Value semantics of the record classes, and the dataclass surface they keep.

The records are LabelPair, Graph, Diagnostic, VertexFamily, ConditionResult,
DecompositionReport and Decomposition.  Each is compared, hashed, printed,
frozen, copied and pickled as the frozen dataclass it was written as, and
``dataclasses.fields``, ``replace``, ``is_dataclass`` and ``asdict`` work on
every one of them.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest
from conftest import L, mk

from vrsp.decomposition import ConditionResult, Decomposition, DecompositionReport
from vrsp.errors import InvalidGraphError
from vrsp.graph import Arc, Diagnostic, Graph, LabelPair
from vrsp.quotient import VertexFamily

MISSING = dataclasses.MISSING


def graph(name: str = "g") -> Graph:
    return mk("u v", [("e1", "u", "v", "a", Fraction(3, 2))], name)


def report(witness: str = "") -> DecompositionReport:
    return DecompositionReport({"C1": ConditionResult(True, witness)}, (1, 2), (graph(), graph()))


GRAPH_REPR = (
    "Graph(vertices=('u', 'v'), arcs=(Arc(id='e1', tail='u', head='v', "
    "label=LabelPair(action='a', weight=Fraction(3, 2))),), name='g')"
)
REPORT_REPR = (
    "DecompositionReport(conditions={'C1': ConditionResult(passed=True, witness='')}, "
    f"family_sizes=(1, 2), factors=({GRAPH_REPR}, {GRAPH_REPR}))"
)
GRAPH_DICT = {
    "vertices": ("u", "v"),
    "arcs": (Arc("e1", "u", "v", {"action": "a", "weight": Fraction(3, 2)}),),
    "name": "g",
}
REPORT_DICT = {
    "conditions": {"C1": {"passed": True, "witness": ""}},
    "family_sizes": (1, 2),
    "factors": (GRAPH_DICT, GRAPH_DICT),
}


class Case(NamedTuple):
    make: Callable[[], object]  # a fresh value each call, all of them equal
    other: Callable[[], object]  # a value that differs from make() in one field
    hashable: bool
    repr: str
    fields: list[tuple[str, str, object]]  # (name, annotation, default)
    change: dict  # a replace() keyword set ...
    changed: Callable[[], object]  # ... and the value it gives
    as_dict: dict


CASES = {
    "LabelPair": Case(
        make=lambda: LabelPair("a", Fraction(1, 2)),
        other=lambda: LabelPair("a", Fraction(1, 3)),
        hashable=True,
        repr="LabelPair(action='a', weight=Fraction(1, 2))",
        fields=[("action", "str", MISSING), ("weight", "Fraction", Fraction(1))],
        change={"action": "b"},
        changed=lambda: LabelPair("b", Fraction(1, 2)),
        as_dict={"action": "a", "weight": Fraction(1, 2)},
    ),
    "Graph": Case(
        make=graph,
        other=lambda: graph("h"),
        hashable=True,
        repr=GRAPH_REPR,
        fields=[("vertices", "tuple[str, ...]", MISSING), ("arcs", "tuple[Arc, ...]", MISSING), ("name", "str", "")],
        change={"vertices": ("v", "w", "u")},
        changed=lambda: Graph(("u", "v", "w"), graph().arcs, "g"),
        as_dict=GRAPH_DICT,
    ),
    "Diagnostic": Case(
        make=lambda: Diagnostic("cycle", "directed cycle u -> v -> u", ("u", "v")),
        other=lambda: Diagnostic("cycle", "directed cycle u -> v -> u"),
        hashable=True,
        repr="Diagnostic(code='cycle', message='directed cycle u -> v -> u', subject=('u', 'v'))",
        fields=[("code", "str", MISSING), ("message", "str", MISSING), ("subject", "tuple[str, ...]", ())],
        change={"code": "self-loop"},
        changed=lambda: Diagnostic("self-loop", "directed cycle u -> v -> u", ("u", "v")),
        as_dict={"code": "cycle", "message": "directed cycle u -> v -> u", "subject": ("u", "v")},
    ),
    "VertexFamily": Case(
        make=lambda: VertexFamily.of([["u"], ("v",)]),
        other=lambda: VertexFamily.of([["v"], ["u"]]),
        hashable=True,
        repr="VertexFamily(sets=(frozenset({'u'}), frozenset({'v'})))",
        fields=[("sets", "tuple[frozenset[str], ...]", MISSING)],
        change={"sets": [{"w"}]},  # replace() goes through the constructor, which freezes the sets
        changed=lambda: VertexFamily((frozenset({"w"}),)),
        as_dict={"sets": (frozenset({"u"}), frozenset({"v"}))},
    ),
    "ConditionResult": Case(
        make=lambda: ConditionResult(False, "row layers 1 and 2 differ"),
        other=lambda: ConditionResult(False),
        hashable=True,
        repr="ConditionResult(passed=False, witness='row layers 1 and 2 differ')",
        fields=[("passed", "bool", MISSING), ("witness", "str", "")],
        change={"passed": True},
        changed=lambda: ConditionResult(True, "row layers 1 and 2 differ"),
        as_dict={"passed": False, "witness": "row layers 1 and 2 differ"},
    ),
    "DecompositionReport": Case(
        make=report,
        other=lambda: report("w"),
        hashable=False,  # its conditions are a dict
        repr=REPORT_REPR,
        fields=[
            ("conditions", "dict[str, ConditionResult]", MISSING),
            ("family_sizes", "tuple[int, int]", MISSING),
            ("factors", "tuple[Graph, Graph] | None", None),
        ],
        change={"factors": None},
        changed=lambda: DecompositionReport({"C1": ConditionResult(True)}, (1, 2)),
        as_dict=REPORT_DICT,
    ),
    "Decomposition": Case(
        make=lambda: Decomposition((L("a"),), (graph(), graph()), report()),
        other=lambda: Decomposition((L("b"),), (graph(), graph()), report()),
        hashable=False,  # its report is unhashable
        repr=(
            f"Decomposition(left_labels=(LabelPair(action='a', weight=Fraction(1, 1)),), "
            f"factors=({GRAPH_REPR}, {GRAPH_REPR}), report={REPORT_REPR})"
        ),
        fields=[
            ("left_labels", "tuple[LabelPair, ...]", MISSING),
            ("factors", "tuple[Graph, Graph]", MISSING),
            ("report", "DecompositionReport", MISSING),
        ],
        change={"left_labels": ()},
        changed=lambda: Decomposition((), (graph(), graph()), report()),
        as_dict={
            "left_labels": ({"action": "a", "weight": Fraction(1)},),
            "factors": (GRAPH_DICT, GRAPH_DICT),
            "report": REPORT_DICT,
        },
    ),
}

params = pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())


@params
def test_equality_and_hash(case):
    x, y, z = case.make(), case.make(), case.other()
    assert x == y and not x != y
    assert x != z and not x == z
    assert x != tuple(getattr(x, name) for name, _, _ in case.fields)
    assert x != object()
    if case.hashable:
        assert hash(x) == hash(y)
        assert len({x, y, z}) == 2
    else:
        with pytest.raises(TypeError):
            hash(x)


@params
def test_repr(case):
    assert repr(case.make()) == case.repr


@params
def test_fields_cannot_be_assigned_or_deleted(case):
    x = case.make()
    for name, _, _ in case.fields:
        before = getattr(x, name)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(x, name, before)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.extra = 1  # type: ignore[attr-defined]


@params
def test_copies_and_pickles_are_equal(case):
    x = case.make()
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is type(x) and y == x and repr(y) == case.repr
        if case.hashable:
            assert hash(y) == hash(x)


def test_copied_graphs_still_answer_queries():
    fresh = Graph(("v", "u", "w"), (Arc("e1", "u", "v", L("a")), Arc("e0", "v", "w", L("b"))))
    used = graph()
    assert used.vertex_set == {"u", "v"} and used.out_arcs("u")  # fill the caches before copying
    bad = Graph(("u",), (Arc("e1", "u", "u", L("a")),))
    for g in (fresh, used, bad):
        for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert h == g and h.vertex_set == frozenset(g.vertices)
            if g is bad:
                with pytest.raises(InvalidGraphError, match="self-loop"):
                    h.check()
            else:
                assert h.check() is h
                assert h.out_arcs(h.vertices[0]) == g.out_arcs(g.vertices[0])


@params
def test_dataclass_fields(case):
    x = case.make()
    assert dataclasses.is_dataclass(x) and dataclasses.is_dataclass(type(x))
    for fields in (dataclasses.fields(x), dataclasses.fields(type(x))):
        assert [(f.name, f.type, f.default) for f in fields] == case.fields
    assert type(x).__match_args__ == tuple(name for name, _, _ in case.fields)


@params
def test_dataclass_replace(case):
    x = case.make()
    assert dataclasses.replace(x) == x
    changed = dataclasses.replace(x, **case.change)
    assert type(changed) is type(x) and changed == case.changed()
    if case.hashable:
        assert hash(changed) == hash(case.changed())
    with pytest.raises(TypeError):
        dataclasses.replace(x, no_such_field=1)


@params
def test_dataclass_asdict(case):
    assert dataclasses.asdict(case.make()) == case.as_dict


def test_defaults_apply():
    assert LabelPair("a").weight == 1
    assert Graph((), ()).name == ""
    assert Diagnostic("c", "m").subject == ()
    assert ConditionResult(True).witness == ""
    assert DecompositionReport({}, (0, 0)).factors is None
    assert Graph(arcs=(), vertices=("b", "a")) == Graph(("a", "b"), ())


def test_family_sets_are_frozen():
    fam = VertexFamily([{"u"}, ["v", "w"]])  # type: ignore[list-item]
    assert fam.sets == (frozenset({"u"}), frozenset({"v", "w"}))
    assert all(type(s) is frozenset for s in fam.sets)
    assert hash(fam) == hash(VertexFamily.of([["u"], ["w", "v"]]))
