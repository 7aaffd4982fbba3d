"""Records behave as the frozen dataclasses they replace.

Every ``Record`` subclass in the library is sampled, and each sample is
compared with a dataclass made from the record's fields and defaults: the
same repr, hash and equality, construction by position and by keyword, and
the same ``TypeError`` cases.  Records refuse assignment and deletion, the
levels of the gluing complex stay mutable and unhashable, and the
``__post_init__`` normalizations still run.
"""

import dataclasses
import importlib

import pytest

from ssvlib.cohomology import DiagGroup, DiagHom, _Level, build_gluing_complex
from ssvlib.complexes import (
    AutData,
    AutRestriction,
    OrbitPoset,
    SectionModuleSummary,
    validate_complex,
)
from ssvlib.degeneration import HeightPiece
from ssvlib.errors import Record
from ssvlib.fixtures import triangle_pair_complex
from ssvlib.lattice import Lattice, cokernel_invariants, smith_normal_form
from ssvlib.matroid import GradedShape
from ssvlib.polyhedral import AffineMonoid, convex_hull, cone_over, enumerate_faces

LAYERS = ("lattice", "polyhedral", "degeneration", "complexes", "cohomology", "matroid")


def _level():
    level = _Level()
    level.add((0,), DiagGroup(2))
    return level


def _samples():
    report = validate_complex(triangle_pair_complex())
    triangle = convex_hull([(0, 0), (1, 0), (0, 1)])
    return [
        smith_normal_form([[2, 4], [6, 8]]),
        cokernel_invariants([(2, 0)], 2),
        enumerate_faces(triangle),
        AffineMonoid(Lattice.standard(2), [[1, 0], [1, 1]]),
        HeightPiece(cone_over(triangle), (1, 2)),
        AutRestriction("f", ((1,),)),
        AutData(1, ((2,),), (AutRestriction("f", ((1,),)),)),
        report.checks[0],
        report,
        SectionModuleSummary(1, (((0,), 1, 1),), 1),
        OrbitPoset(("a", "b"), frozenset({("a", "b")})),
        DiagGroup(2, [[1, 2]]),
        DiagHom(DiagGroup(1), DiagGroup(1), [[2]]),
        _level(),
        build_gluing_complex(triangle_pair_complex()),
        GradedShape(2, [1, 1, 1]),
    ]


def _twin(cls):
    """The dataclass the record replaces: same name, fields and defaults."""
    fields = [
        (f, object, dataclasses.field(default_factory=cls._defaults[f]))
        if f in cls._defaults else (f, object)
        for f in cls.__slots__
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=cls is not _Level)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_is_sampled():
    for layer in LAYERS:
        importlib.import_module(f"ssvlib.{layer}")
    records = {c for c in _subclasses(Record) if c.__module__.startswith("ssvlib.")}
    assert len(records) == 16
    assert {type(s) for s in _samples()} == records


@pytest.mark.parametrize("index", range(16))
def test_a_record_matches_its_dataclass(index):
    record = _samples()[index]
    cls, values = type(record), record._values()
    twin = _twin(cls)(*values)
    assert repr(record) == repr(twin)
    assert record == cls(*values) == cls(**dict(zip(cls.__slots__, values)))
    assert record != twin and not record != cls(*values)
    try:
        expected = hash(twin)
    except TypeError:  # the levels, and the gluing complex that holds them
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    required = [v for f, v in zip(cls.__slots__, values) if f not in cls._defaults]
    assert repr(cls(*required)) == repr(_twin(cls)(*required))
    wrong = [(values + (0,), {}), (values, {cls.__slots__[0]: values[0]}), (values, {"x": 0})]
    if required:
        wrong.append((required[:-1], {}))
    for make in (cls, _twin(cls)):
        for args, kwargs in wrong:
            with pytest.raises(TypeError):
                make(*args, **kwargs)


@pytest.mark.parametrize("index", [i for i in range(16) if i != 13])
def test_records_refuse_assignment_and_deletion(index):
    record = _samples()[index]
    field = record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 0


def test_levels_stay_mutable():
    level = _level()
    level.add((1,), DiagGroup(1))
    assert (level.keys, level.offsets, level.total) == ([(0,), (1,)], [0, 2], 3)
    assert _Level().keys == [] and _Level().keys is not _Level().keys


def test_post_init_normalizes():
    assert DiagGroup(2, [[1, 2]]).relations == ((1, 2),)
    assert DiagHom(DiagGroup(1), DiagGroup(1), [[2]]).matrix == ((2,),)
    assert AffineMonoid(Lattice.standard(2), [[1, 0]]).generators == ((1, 0),)
    assert GradedShape(2, [1, 1, True]).ranks == (1, 1, 1)
    with pytest.raises(ValueError):
        DiagGroup(2, [[1]])
    assert validate_complex(triangle_pair_complex()).passed
