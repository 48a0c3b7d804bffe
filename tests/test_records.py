"""The package's record classes behave as frozen value objects.

Every class built on :class:`normalhst.record.Record` is listed with a
sample construction and its constructor signature.  Each must refuse
attribute assignment, compare and hash by its fields, never equal a
record of another class or a plain tuple, and keep the checks its
constructor makes.
"""

import importlib
import inspect
import itertools
import pkgutil

import pytest

import normalhst
from normalhst.curve_patterns import (Check348, CurvePattern, LoopClass,
                                      LoopDecomposition, PatternError,
                                      SurfaceCheck348)
from normalhst.hst import (EMPTY_SURFACE, AbstractSplitting, AbstractSurface,
                           ComplexityVector, Component, HstError,
                           MinimalSearchResult, NonseparatingCompression,
                           RelativeCompression, SeparatingCompression)
from normalhst.normal_surfaces import (AdmissibilityReport, MatchingSystem,
                                       SurfaceSummary, SurfaceVector,
                                       TubeAnnotation, Violation)
from normalhst.record import FrozenInstanceError, Record, setfield
from normalhst.selftest import CriterionResult
from normalhst.thin_position import (Event, ExchangeResult, MorsePresentation,
                                     PresentationError, ThinPositionResult,
                                     WidthProfile)
from normalhst.triangulation import (Gluing, ManifoldReport, Skeleton,
                                     VertexLinkReport)

TORUS_SURFACE = AbstractSurface((Component(0),))
SPLITTING = AbstractSplitting((EMPTY_SURFACE, TORUS_SURFACE, EMPTY_SURFACE))
PRESENTATION = MorsePresentation((Event("B", 0), Event("D", 0)))

# class -> (constructor signature, positional arguments, keyword arguments)
SAMPLES = {
    Gluing: ("(tet, face, perm)", (1, 2, (0, 1, 3, 2)), {}),
    Skeleton: ("(vertex_orbits, edge_orbits, face_orbits, vertex_boundary, "
               "edge_reversed)",
               (((0, 0),), ((0, 0),), ((0, 0),), (False,), (False,)), {}),
    VertexLinkReport: ("(vertex_orbit, euler_characteristic, closed)",
                       (0, 2, True), {}),
    ManifoldReport: ("(is_manifold, links, orientable, reversed_edges)",
                     (True, (), True, ()), {}),
    TubeAnnotation: ("(tet, piece_a, piece_b)",
                     (0, ("tri", 0, 0), ("quad", 1, 0)), {}),
    SurfaceVector: ("(tets, tube=None)",
                    ((((1, 0, 0, 0), (0, 0, 0), (0, 0, 0)),),),
                    {"tube": TubeAnnotation(0, ("tri", 0, 0),
                                            ("tri", 1, 0))}),
    MatchingSystem: ("(columns, rows, row_labels, quads)",
                     (14, (((0, 1), (7, -1)),), (((0, 0), (1, 0), 1),),
                      0b11100000001110000), {}),
    Violation: ("(code, message)", ("matching", "1 != 2"), {}),
    AdmissibilityReport: ("(mode, violations)", ("normal", ()), {}),
    SurfaceSummary: ("(component_chis, component_closed, "
                     "component_orientable, edge_weights, run_count)",
                     ((2,), (True,), (True,), (1, 1), 1), {}),
    CurvePattern: ("(counts)", ((1,) * 12,), {}),
    LoopDecomposition: ("(loops, lengths)", (((0, 1, 2),), (3,)), {}),
    LoopClass: ("(length, representative, members)",
                (3, (0, 1, 3), ((0, 1, 3),)), {}),
    Check348: ("(passed, witness=None, octagons=0)", (False,),
               {"witness": (0, 1, 2), "octagons": 2}),
    SurfaceCheck348: ("(results)", ((Check348(True, octagons=1),),), {}),
    Component: ("(closed_chi, punctures=0)", (-2,), {"punctures": 3}),
    AbstractSurface: ("(components)", ((Component(0), Component(-2, 1)),),
                      {}),
    ComplexityVector: ("(entries)", ((9, 4, 4),), {}),
    AbstractSplitting: ("(levels)", (SPLITTING.levels,), {}),
    NonseparatingCompression: ("(component, branch=0)", (0,), {}),
    SeparatingCompression: ("(component, chi1, punctures1=0, branch=0)",
                            (0, -2), {"punctures1": 1, "branch": 1}),
    RelativeCompression: ("(component, branch=0)", (0,), {}),
    MinimalSearchResult: ("(minimum, splitting, trace, certified, "
                          "states_explored)",
                          (ComplexityVector((4,)), SPLITTING, (), True, 1),
                          {}),
    Event: ("(kind, position)", ("B", 0), {}),
    MorsePresentation: ("(events)", (PRESENTATION.events,), {}),
    WidthProfile: ("(profile, width, thick_indices, thin_indices, "
                   "hits_zero_interior)", ((2,), 2, (0,), (), False), {}),
    ExchangeResult: ("(presentation, width_decrease)", (PRESENTATION, 4), {}),
    ThinPositionResult: ("(minimum_width, witness, states_explored)",
                         (2, PRESENTATION, 1), {}),
    CriterionResult: ("(number, title, passed, detail)",
                      (6, "width arithmetic", True, "ok"), {}),
}
CLASSES = list(SAMPLES)
IDS = [cls.__name__ for cls in CLASSES]


def _make(cls):
    _, args, kwargs = SAMPLES[cls]
    return cls(*args, **kwargs)


def _package_records():
    found = set()
    for info in pkgutil.iter_modules(normalhst.__path__):
        module = importlib.import_module(f"normalhst.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Record) \
                    and value is not Record \
                    and value.__module__ == module.__name__:
                found.add(value)
    return found


def test_samples_cover_every_record_class():
    assert len(CLASSES) == 29
    assert _package_records() == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_constructor_signature(cls):
    signature, args, kwargs = SAMPLES[cls]
    assert str(inspect.signature(cls)) == signature
    # Passing the positional arguments by name gives the same record.
    names = list(inspect.signature(cls).parameters)
    assert cls(**dict(zip(names, args)), **kwargs) == cls(*args, **kwargs)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_assignment_raises(cls):
    record = _make(cls)
    before = repr(record)
    for name in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    assert repr(record) == before
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_fields_equal_records(cls):
    a, b = _make(cls), _make(cls)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_every_field_takes_part_in_equality(cls):
    record = _make(cls)
    slots = [name for name in cls.__slots__ if name != "__dict__"]
    for changed in slots:
        other = object.__new__(cls)
        for name in slots:
            setfield(other, name,
                     object() if name == changed else getattr(record, name))
        assert record != other, changed
        assert other != record, changed


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_never_equal_to_another_class_or_a_tuple(cls):
    record = _make(cls)
    values = tuple(getattr(record, name) for name in cls._fields)
    twin = type("Twin", (cls,), {"__slots__": ()})
    _, args, kwargs = SAMPLES[cls]
    for other in (values, values[:1], twin(*args, **kwargs)):
        assert record != other and other != record
        assert not record == other


def test_records_of_different_classes_differ():
    samples = [_make(cls) for cls in CLASSES]
    for a, b in itertools.combinations(samples, 2):
        assert a != b
    # Same values, other class: the compressions' kind tells them apart.
    assert NonseparatingCompression(0) != RelativeCompression(0)
    assert hash(NonseparatingCompression(0)) != hash(RelativeCompression(0))


def test_repr_lists_fields():
    assert repr(Component(-2, 1)) == "Component(closed_chi=-2, punctures=1)"
    assert repr(NonseparatingCompression(0)) == (
        "NonseparatingCompression(component=0, branch=0, "
        "kind='nonseparating')")
    assert repr(Check348(True)) == \
        "Check348(passed=True, witness=None, octagons=0)"
    # The compressions' kind is a field, listed last.
    for move in (NonseparatingCompression(0), SeparatingCompression(0, -2),
                 RelativeCompression(0)):
        assert repr(move).endswith(f", branch=0, kind={move.kind!r})")


def test_kept_methods_and_caches():
    assert SeparatingCompression(0, -2).kind == "separating"
    assert not Check348(False) and Check348(True)
    assert len(ComplexityVector((4, 1))) == 2
    surface = AbstractSurface((Component(-2, 1), Component(0)))
    assert surface.pairs == ((-2, 1), (0, 0))
    assert surface.pairs is surface.pairs          # cached
    assert surface == AbstractSurface(surface.components)   # caches ignored
    with pytest.raises(AttributeError):
        surface.pairs = ()


@pytest.mark.parametrize("build, error, message", [
    (lambda: Component(1), HstError, "must be even and <= 2, got 1"),
    (lambda: Component(4), HstError, "must be even and <= 2, got 4"),
    (lambda: Component(0, -1), HstError, "puncture count must be nonneg"),
    (lambda: ComplexityVector((1, -1)), HstError, "must be nonnegative"),
    (lambda: ComplexityVector((1, 4)), HstError, "must be non-increasing"),
    (lambda: AbstractSplitting(()), HstError, "at least one level"),
    (lambda: AbstractSplitting((EMPTY_SURFACE,) * 3), HstError,
     "thick level 1 is empty"),
    (lambda: CurvePattern((0,) * 11), PatternError, "exactly 12 counts"),
    (lambda: CurvePattern((-1,) + (0,) * 11), PatternError,
     "must be nonnegative"),
    (lambda: Event("X", 0), PresentationError, "unknown event kind 'X'"),
    (lambda: Event("B", -1), PresentationError, "must be nonnegative"),
    (lambda: MorsePresentation((Event("B", 1),)), PresentationError,
     "event 0: birth at slot 1 with only 0 strands"),
    (lambda: MorsePresentation((Event("D", 0),)), PresentationError,
     "event 0: death with 0 strands"),
    (lambda: MorsePresentation((Event("B", 0), Event("D", 1))),
     PresentationError, "event 1: death at slot 1 with 2 strands"),
    (lambda: MorsePresentation((Event("B", 0),)), PresentationError,
     "strand count must return to zero"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_constructor_checks_still_raise(build, error, message):
    with pytest.raises(error, match=message):
        build()
