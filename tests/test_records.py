"""The library's records against frozen dataclass twins: equality, hash,
repr, defaults, replace, ordering (forms only) and immutability agree, and
functools.cached_property still caches on a record."""

import dataclasses
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heegnerlab import analysis, arith, db, ellcurve, lattice, modparam, qform

# one twin per record: the same name, fields, defaults and checks; the
# oracle the records must match


@dataclass(frozen=True)
class Relation:
    coefficients: tuple
    torsion_slack: int

    __post_init__ = analysis.Relation.__post_init__


@dataclass(frozen=True)
class FieldEntry:
    discriminant: int
    admissible: bool
    error: object = None
    class_number: object = None
    odd_part: object = None
    prime_to_bound_part: object = None
    orbit_degrees: tuple = ()
    recognition: object = None
    trace_is_identity: object = None
    divisibility_ok: object = None


@dataclass(frozen=True)
class IndependenceReport:
    curve_label: str
    entries: tuple
    search_bound: int
    relation: object
    verdict: str
    hypothesis_note: str


@dataclass(frozen=True)
class CurveDatabaseEntry:
    label: str
    a_invariants: tuple
    conductor: int
    cm_discriminant: object = None
    modular_degree: object = None
    known_generators: tuple = ()


@dataclass(frozen=True)
class QuadElt:
    x: object
    y: object
    d: int


@dataclass(frozen=True)
class CurveModel:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    label: str = ""
    modular_degree: object = None


@dataclass(frozen=True)
class CurvePoint:
    x: object = None
    y: object = None


@dataclass(frozen=True)
class Lattice:
    omega1: object
    omega2: object
    precision_bits: int
    two_division: tuple = ()


@dataclass(frozen=True)
class OrbitEvaluation:
    curve: object
    discriminant: int
    torus_coordinates: tuple
    terms_used: int
    lattice: object


@dataclass(frozen=True)
class TracePoint:
    orbit: object
    z: object
    xy: object
    is_real: bool
    half_lattice: bool


@dataclass(frozen=True)
class RecognizedAlgebraic:
    kind: str
    value: object
    residual: object


@dataclass(frozen=True, order=True)
class BinaryQuadraticForm:
    a: int
    b: int
    c: int


PAIRS = [
    (analysis.Relation, Relation),
    (analysis.FieldEntry, FieldEntry),
    (analysis.IndependenceReport, IndependenceReport),
    (db.CurveDatabaseEntry, CurveDatabaseEntry),
    (ellcurve.QuadElt, QuadElt),
    (ellcurve.CurveModel, CurveModel),
    (ellcurve.CurvePoint, CurvePoint),
    (lattice.Lattice, Lattice),
    (modparam.OrbitEvaluation, OrbitEvaluation),
    (modparam.TracePoint, TracePoint),
    (modparam.RecognizedAlgebraic, RecognizedAlgebraic),
    (qform.BinaryQuadraticForm, BinaryQuadraticForm),
]
IDS = [record.__name__ for record, _ in PAIRS]

# few distinct hashable values, so that two draws often agree
VALUES = st.one_of(st.integers(-1, 2), st.none(),
                   st.tuples(st.integers(0, 1)), st.just("s"))


def build(cls, names, values, n_positional):
    """cls(*first values, **the rest by name), or the exception type."""
    kwargs = dict(zip(names[n_positional:], values[n_positional:]))
    return outcome(lambda: cls(*values[:n_positional], **kwargs))


def outcome(thunk):
    """thunk(), or the type of the TypeError, ValueError or AttributeError
    it raises, as the builtin base: FrozenInstanceError reads AttributeError."""
    try:
        return thunk()
    except (TypeError, ValueError, AttributeError) as exc:
        return next(base for base in (TypeError, ValueError, AttributeError)
                    if isinstance(exc, base))


def test_twins_have_the_records_fields():
    for record, twin in PAIRS:
        fields = dataclasses.fields(twin)
        assert record._fields == tuple(f.name for f in fields)
        assert record._defaults == {f.name: f.default for f in fields
                                    if f.default is not dataclasses.MISSING}


@pytest.mark.parametrize("record, twin", PAIRS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_records_agree_with_their_dataclass_twins(record, twin, data):
    n = len(record._fields)
    required = n - len(record._defaults)
    draws = []
    for _ in range(2):
        # all fields, or the defaults left out; any split of position/name
        k = data.draw(st.integers(required, n))
        values = data.draw(st.lists(VALUES, min_size=k, max_size=k))
        p = data.draw(st.integers(0, k))
        r, t = (build(c, record._fields, values, p) for c in (record, twin))
        if isinstance(t, type):
            assert r is t  # both refuse, with one exception type
            return
        draws.append((r, t, values))
    (r1, t1, _), (r2, t2, _) = draws
    for r, t, values in draws:
        fields = tuple(getattr(r, f) for f in record._fields)
        assert fields[:len(values)] == tuple(values)
        assert repr(r) == repr(t)
        assert hash(r) == hash(t)
        assert r == r and not r != r
        # never equal to a plain tuple or to the twin: same fields, other class
        assert r != fields
        assert r != t and t != r
        # immutable, fields and other names alike
        for x in (r, t):
            for name in (*record._fields, "other"):
                assert outcome(lambda: setattr(x, name, 0)) is AttributeError
            for name in record._fields:
                assert outcome(lambda: delattr(x, name)) is AttributeError
    assert (r1 == r2) == (t1 == t2)
    assert (r1 != r2) == (t1 != t2)
    if r1 == r2:
        assert hash(r1) == hash(r2)
    # replace: one or two fields changed, or an unknown one refused
    changes = data.draw(st.dictionaries(
        st.sampled_from([*record._fields, "no_such_field"]), VALUES, max_size=2))
    new_r = outcome(lambda: r1.replace(**changes))
    new_t = outcome(lambda: dataclasses.replace(t1, **changes))
    if isinstance(new_t, type):
        assert new_r is new_t
    else:
        assert type(new_r) is record and repr(new_r) == repr(new_t)
        assert (new_r == r1) == (new_t == t1)
    # ordering: only the forms, as tuples of their fields
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert outcome(lambda: getattr(r1, op)(r2)) == outcome(
            lambda: getattr(t1, op)(t2))
    for compare in (lambda a, b: a < b, lambda a, b: a <= b,
                    lambda a, b: a > b, lambda a, b: a >= b):
        assert outcome(lambda: compare(r1, r2)) == outcome(
            lambda: compare(t1, t2))


def test_defaults_and_positional_use():
    E = ellcurve.CurveModel(0, 0, 1, -1, 0, 37)
    assert E == ellcurve.CurveModel(0, 0, 1, -1, 0, conductor=37, label="")
    assert repr(E) == repr(CurveModel(0, 0, 1, -1, 0, 37))
    assert ellcurve.CurvePoint() == ellcurve.INFINITY
    for bad in (lambda: ellcurve.CurveModel(0, 0, 1, -1, 0),  # no conductor
                lambda: ellcurve.CurvePoint(1, 2, 3),  # too many
                lambda: ellcurve.CurvePoint(1, x=2),  # x twice
                lambda: ellcurve.CurvePoint(z=1)):  # no such field
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError, match="must not all vanish"):
        analysis.Relation((0, 0), 1)


def test_a_record_equals_no_other_class_with_the_same_fields():
    class FormLike(arith._Record, order=True):
        a: int
        b: int
        c: int

    f, g = qform.BinaryQuadraticForm(1, 1, 2), FormLike(1, 1, 2)
    assert f != g and g != f and f != (1, 1, 2) and (1, 1, 2) != f
    assert {f: 0}.get(g) is None
    for compare in (lambda a, b: a < b, lambda a, b: a >= b):
        with pytest.raises(TypeError):
            compare(f, g)
        with pytest.raises(TypeError):
            compare(f, (1, 1, 2))
    assert sorted([qform.BinaryQuadraticForm(2, -1, 3),
                   qform.BinaryQuadraticForm(1, 1, 6),
                   qform.BinaryQuadraticForm(2, 1, 3)]) == list(
        qform.enumerate_reduced(-23))


def test_cached_properties_still_cache():
    E = db.find_curve("37a").curve()
    orbit = modparam.orbit_points(E, -47, 200)
    L = orbit.lattice
    twin = lattice.Lattice(L.omega1, L.omega2, L.precision_bits, L.two_division)
    assert "reduced_basis" not in vars(twin)
    first = twin.reduced_basis
    assert twin.reduced_basis is first and vars(twin)["reduced_basis"] is first
    # a cached value is no field: equality and hash ignore it
    assert twin == L and hash(twin) == hash(L)
    assert twin == lattice.Lattice(L.omega1, L.omega2, L.precision_bits,
                                   L.two_division)
    fresh = orbit.replace()
    assert fresh == orbit and "points_z" not in vars(fresh)
    points = fresh.points_z
    assert fresh.points_z is points and len(points) == 5
    assert repr(fresh) == repr(orbit)
