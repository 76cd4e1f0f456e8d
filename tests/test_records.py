"""The record classes of the package: construction by keyword, equality,
hashing, immutability, repr and validation.

Every record is a ``namedtuple`` subclass with ``__slots__ = ()``, so that
the record format is decided in one place.  ``Graph``, ``X3CInstance`` and
``SatInstance`` list ``graphs.Checked`` first, which runs their
``__post_init__`` on every construction and on ``_replace``.
"""

import importlib
import pkgutil

import pytest

import cocolour
from cocolour.classify import Classification
from cocolour.gadgets import (
    CheckResult,
    GadgetReport,
    LabelledGadget,
    NiceCritical,
    SatInstance,
    X3CInstance,
)
from cocolour.graphs import Embedding, Graph, path
from cocolour.patterns import FreenessWitness
from cocolour.solvers import CliqueCover, Colouring
from cocolour.structure import (
    AtomDecomposition,
    AtomReport,
    C5Partition,
    ClaimVerdict,
    PreprocessLog,
    StructureReport,
)

# name -> (a function building a fresh value, its repr)
FROZEN = {
    "Graph": (lambda: Graph(n=2, adj=(2, 1)), "Graph(n=2, adj=(2, 1))"),
    "Embedding": (lambda: Embedding(mapping=(3, 1)), "Embedding(mapping=(3, 1))"),
    "Classification": (
        lambda: Classification("Poly", "poly:k<=2"),
        "Classification(verdict='Poly', rule='poly:k<=2', witness=None)",
    ),
    "FreenessWitness": (
        lambda: FreenessWitness(free=False, pattern_index=0, embedding=Embedding((0,))),
        "FreenessWitness(free=False, pattern_index=0, embedding=Embedding(mapping=(0,)))",
    ),
    "Colouring": (lambda: Colouring(colours=(0, 1), k=2), "Colouring(colours=(0, 1), k=2)"),
    "CliqueCover": (
        lambda: CliqueCover(parts=((0,), (1, 2))),
        "CliqueCover(parts=((0,), (1, 2)))",
    ),
    "X3CInstance": (
        lambda: X3CInstance(q=1, k=1, triples=((0, 1, 2),)),
        "X3CInstance(q=1, k=1, triples=((0, 1, 2),))",
    ),
    "SatInstance": (
        lambda: SatInstance(n=3, clauses=((1, -2, 3),)),
        "SatInstance(n=3, clauses=((1, -2, 3),))",
    ),
    "LabelledGadget": (
        lambda: LabelledGadget(graph=path(2), labels=(("W", 0), ("W", 1))),
        "LabelledGadget(graph=Graph(n=2, adj=(2, 1)), labels=(('W', 0), ('W', 1)))",
    ),
    "CheckResult": (
        lambda: CheckResult("ground-clique", True),
        "CheckResult(name='ground-clique', ok=True, detail=None)",
    ),
    "GadgetReport": (
        lambda: GadgetReport(checks=(CheckResult("x", False, 3),)),
        "GadgetReport(checks=(CheckResult(name='x', ok=False, detail=3),))",
    ),
    "NiceCritical": (
        lambda: NiceCritical(graph=path(1), triple=(0,), k=1),
        "NiceCritical(graph=Graph(n=1, adj=(0,)), triple=(0,), k=1)",
    ),
    "AtomDecomposition": (
        lambda: AtomDecomposition(n=3, atoms=((0, 1), (1, 2)), separators=((1,),)),
        "AtomDecomposition(n=3, atoms=((0, 1), (1, 2)), separators=((1,),))",
    ),
    "ClaimVerdict": (
        lambda: ClaimVerdict(True, "a clique"),
        "ClaimVerdict(holds=True, description='a clique', witness=None)",
    ),
    "PreprocessLog": (
        lambda: PreprocessLog(kept=(0, 2), steps=(("twin", 1, 0),)),
        "PreprocessLog(kept=(0, 2), steps=(('twin', 1, 0),))",
    ),
    "C5Partition": (
        lambda: C5Partition(cycle=(0, 1, 2, 3, 4), sets=((5,),) + ((),) * 31),
        "C5Partition(cycle=(0, 1, 2, 3, 4), sets=((5,)" + ", ()" * 31 + "))",
    ),
    "AtomReport": (
        lambda: AtomReport(vertices=(0,), chi=1, case="perfect", notes=("clique",)),
        "AtomReport(vertices=(0,), chi=1, case='perfect', cycle=None, "
        "complemented_view=False, claims=None, preprocessing=(), notes=('clique',))",
    ),
    "StructureReport": (
        lambda: StructureReport(chi=1, atom_reports=(AtomReport((0,), 1),)),
        "StructureReport(chi=1, atom_reports=(AtomReport(vertices=(0,), chi=1, "
        "case=None, cycle=None, complemented_view=False, claims=None, "
        "preprocessing=(), notes=()),))",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_compare_hash_and_refuse_writes(name):
    make, _ = FROZEN[name]
    a, b = make(), make()
    assert a is not b and a == b
    assert hash(a) == hash(b)
    for field in (*type(a)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    assert a == b


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_repr_names_every_field(name):
    make, text = FROZEN[name]
    assert repr(make()) == text


def test_defaults():
    assert StructureReport(chi=0) == StructureReport(0, ())
    assert FreenessWitness(True) == FreenessWitness(True, None, None)
    assert AtomReport((0,), 1) == AtomReport((0,), 1, None, None, False, None, (), ())
    assert AtomReport((0,), 1).to_json() == {"vertices": [0], "chi": 1}


def test_every_class_is_a_namedtuple_record():
    # the exceptions, the validation base and the solvers' deadline
    # countdown, which is state rather than a record, are not records
    exempt = {"Checked", "_Deadline"}
    seen = set()
    for info in pkgutil.iter_modules(cocolour.__path__):
        module = importlib.import_module(f"cocolour.{info.name}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            seen.add(cls.__name__)
            if issubclass(cls, Exception) or cls.__name__ in exempt:
                continue
            assert issubclass(cls, tuple) and hasattr(cls, "_fields"), cls
            assert cls.__dict__.get("__slots__") == (), cls
    assert set(FROZEN) | exempt <= seen


INVALID = [
    ("Graph", (-1, ()), "vertex count must be non-negative"),
    ("Graph", (2, (0,)), "adjacency length does not match vertex count"),
    ("Graph", (2, (1, 0)), "self-loop at vertex 0"),
    ("Graph", (2, (0b110, 0b01)), "vertex 0 has a neighbour out of range"),
    ("Graph", (2, (0b10, 0)), "adjacency not symmetric at (0,1)"),
    ("X3CInstance", (0, 0, ()), "q must be positive"),
    ("X3CInstance", (1, 0, ()), "k must be at least q"),
    ("X3CInstance", (1, 2, ((0, 1, 2),)), "expected 2 triples, got 1"),
    ("X3CInstance", (1, 1, ((0, 0, 1),)), "triple (0, 0, 1) must have 3 distinct elements"),
    ("X3CInstance", (1, 1, ((0, 1, 3),)), "triple (0, 1, 3) out of ground-set range"),
    ("SatInstance", (0, ()), "need at least one variable"),
    ("SatInstance", (2, ((1, 1, 2),)), "clause (1, 1, 2) must have exactly 3 distinct literals"),
    ("SatInstance", (2, ((0, 1, 2),)), "clause (0, 1, 2) has an out-of-range literal"),
]


@pytest.mark.parametrize("name, fields, message", INVALID)
def test_validation(name, fields, message):
    valid = FROZEN[name][0]()
    cls = type(valid)
    with pytest.raises(ValueError) as exc:
        cls(*fields)
    assert str(exc.value) == message
    # _replace builds its copy through the same checks
    with pytest.raises(ValueError) as exc:
        valid._replace(**dict(zip(cls._fields, fields)))
    assert str(exc.value) == message


def test_graph_validation_runs_in_its_own_post_init(monkeypatch):
    # perfbench/layers.py traces Graph.__dict__["__post_init__"]
    original = Graph.__dict__["__post_init__"]
    calls = []

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    g = Graph(2, (2, 1))
    assert calls == [g]
    Graph.from_edges(3, [(0, 1)])
    g.complement()
    g.induced([0])
    assert calls == [g]  # derived graphs skip the checks
    g._replace(adj=(2, 1))
    assert len(calls) == 2
