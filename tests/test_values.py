"""The contract every value class keeps, stated once by `graph.Frozen`:
equal only to its own class with equal fields, hashed, shown and pickled by
its fields, and read-only.  Only the values shared through a weak table
(`pattern._LIVE`, `obstruction._CERTIFICATES`) can be weakly referenced,
and only PatternMatrix, which caches what it derives, keeps a __dict__."""

import pickle
import weakref

import pytest

from mpart import graph as gr
from mpart import obstruction as ob
from mpart import pattern as pat
from mpart import solver as sv

PA = sv.PartAssignment

# class -> (a value, built anew on each call; a value of the class not equal to it)
CASES = {
    gr.Graph: (lambda: gr.cycle(4), lambda: gr.Graph((0,) * 4)),
    sv.PartAssignment: (lambda: PA((0, 1, 1, 0)), lambda: PA((0, 1, 1, 1))),
    ob.MinimalityCertificate: (
        lambda: ob.MinimalityCertificate(gr.cycle(3), (PA((0, 1)),) * 3),
        lambda: ob.MinimalityCertificate(gr.cycle(3), (PA((1, 0)),) * 3)),
    ob.EnumerationReport: (
        lambda: ob.enumerate_minimal_obstructions(pat.make_kl_matrix(2, 0), "all", 5),
        lambda: ob.enumerate_minimal_obstructions(pat.make_kl_matrix(2, 0), "all", 4)),
    pat.PatternMatrix: (lambda: pat.PatternMatrix(("0*", "*1")),
                        lambda: pat.PatternMatrix(("0*", "*0"))),
}
WEAKLY_SHARED = (pat.PatternMatrix, ob.MinimalityCertificate)

by_class = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


@by_class
def test_a_value_is_equal_only_to_its_own_class(cls):
    make, other = CASES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and a != other()
    fields = tuple(getattr(a, name) for name in cls._fields)
    assert a != fields and fields != a
    # the one rule: no class restates it
    assert cls.__eq__ is gr.Frozen.__eq__ and cls.__hash__ is gr.Frozen.__hash__


@by_class
def test_equal_values_hash_alike(cls):
    make, _ = CASES[cls]
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert {a: "found"}[b] == "found"


@by_class
def test_repr_and_pickle_round_trip(cls):
    # a value survives a trip between processes, shared references included
    make, _ = CASES[cls]
    a = make()
    names = {c.__name__: c for c in CASES}
    assert eval(repr(a), names) == a
    b = pickle.loads(pickle.dumps(a))
    assert b == a and hash(b) == hash(a)
    assert pickle.loads(pickle.dumps((a, a)))[1] == a


@by_class
def test_no_field_can_be_assigned_or_deleted(cls):
    make, _ = CASES[cls]
    a = make()
    for name in cls._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == make()


@by_class
def test_only_shared_values_keep_a_dict_or_weak_references(cls):
    make, _ = CASES[cls]
    a = make()
    assert hasattr(a, "__dict__") == (cls is pat.PatternMatrix)
    if cls in WEAKLY_SHARED:
        assert weakref.ref(a)() is a
    else:
        with pytest.raises(TypeError):
            weakref.ref(a)


def test_a_graph_is_its_rows():
    # the order is the number of rows, so no graph holds two that disagree
    G = gr.cycle(4)
    assert G == gr.Graph((10, 5, 10, 5)) and G.n == 4
    assert G != (4, G.adj) and hash(G) == hash(G.adj)
    assert repr(G) == "Graph(adj=(10, 5, 10, 5))"
    with pytest.raises(TypeError):
        gr.Graph(5, (0,))
