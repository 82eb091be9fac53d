"""The package's ten value classes against ``dataclass(frozen=True)`` twins.

The classes are made by ``errors.frozen``, not by ``dataclasses``.  Each
twin has the same name and fields and holds the same field values, so
equality, hash and repr must agree with it exactly: a hash that moved
could reorder a set or dict and so change output.
"""

import copy
import dataclasses
import pickle

import pytest

from psiprime import (
    AbelianGroup,
    FactoredInteger,
    OrderPolynomial,
    OrderSpectrum,
    Partition,
    check_conjecture_f,
    find_cross_order_collisions,
    order_polynomial,
    order_spectrum,
    parse_group,
    sweep_conjecture_f,
    sweep_injectivity,
)
from psiprime.verify import (
    CollisionReport,
    ConjectureFReport,
    ConjectureFSweep,
    InjectivityReport,
    InjectivitySweep,
)

Z4, Z2Z2 = parse_group("Z4"), parse_group("Z2^2")

# two different values of each class
SAMPLES = {
    Partition: (Partition((2, 1)), Partition((3,))),
    AbelianGroup: (parse_group("Z4xZ3^2"), Z2Z2),
    OrderSpectrum: (order_spectrum(parse_group("Z4xZ3^2")), order_spectrum(Z2Z2)),
    FactoredInteger: (FactoredInteger({2: 45, 3: 32}), FactoredInteger()),
    OrderPolynomial: (order_polynomial(parse_group("Z3")), order_polynomial(Z4)),
    InjectivityReport: (
        InjectivityReport(4, ((Z4, Z2Z2),)), InjectivityReport(m=12, duplicates=())
    ),
    CollisionReport: (find_cross_order_collisions(48), find_cross_order_collisions(10)),
    ConjectureFReport: (check_conjecture_f(8), check_conjecture_f(12)),
    InjectivitySweep: (sweep_injectivity(30), sweep_injectivity(12)),
    ConjectureFSweep: (sweep_conjecture_f(8), sweep_conjecture_f(12)),
}

# a cached_property of each class that has one
CACHED = {Partition: "n", AbelianGroup: "order", OrderSpectrum: "total"}

CLASSES = list(SAMPLES)

# the classes without an __init__ of their own, which get frozen's
MADE_INIT = [InjectivityReport, CollisionReport, ConjectureFReport, InjectivitySweep,
             ConjectureFSweep]


def _fields(cls):
    return list(cls.__annotations__)


def _twin_class(cls):
    return dataclasses.make_dataclass(
        cls.__name__, [(name, object) for name in _fields(cls)], frozen=True
    )


def _values(x):
    return [getattr(x, name) for name in _fields(type(x))]


def _twin(x):
    return _twin_class(type(x))(*_values(x))


def test_every_value_class_is_sampled():
    assert len(CLASSES) == 10


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_hash_and_repr_match_the_dataclass(cls):
    twin = _twin_class(cls)
    a, b = SAMPLES[cls]
    same = cls(*_values(a))  # every class takes its fields positionally
    ta, tb, tsame = (twin(*_values(x)) for x in (a, b, same))
    assert same is not a
    assert (a == same, a != same, a == b, a != b) == (True, False, False, True)
    assert (ta == tsame, ta != tsame, ta == tb, ta != tb) == (True, False, False, True)
    assert hash(a) == hash(same) == hash(ta) == hash(tuple(_values(a)))
    assert hash(b) == hash(tb)
    assert repr(a) == repr(ta) and repr(b) == repr(tb)
    assert repr(a).startswith(f"{cls.__qualname__}({_fields(cls)[0]}=")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_other_classes_never_compare_equal(cls):
    a = SAMPLES[cls][0]
    ta = _twin(a)
    # the same field tuple in another class, dataclass twin included
    assert a.__eq__(ta) is NotImplemented and ta.__eq__(a) is NotImplemented
    assert a != ta and not (a == ta)
    assert a.__eq__(object()) is NotImplemented and a != object()


def test_same_fields_in_two_classes_are_not_equal():
    sweeps = (InjectivitySweep(8, 0, ()), ConjectureFSweep(8, 0, ()))
    assert sweeps[0] != sweeps[1]
    assert Partition((1,)) != OrderPolynomial((1,))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_are_refused(cls):
    a = SAMPLES[cls][0]
    before = repr(a)
    for name in [*_fields(cls), "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    twin = _twin(a)
    with pytest.raises(AttributeError):
        setattr(twin, _fields(cls)[0], 1)
    assert repr(a) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_pickle_and_deepcopy_round_trip(cls, roundtrip):
    for a in SAMPLES[cls]:
        cached = CACHED.get(cls)
        if cached:
            value = getattr(a, cached)  # read before the round trip
        b = roundtrip(a)
        assert type(b) is cls and b is not a
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
        if cached:
            assert vars(b)[cached] == value == getattr(b, cached)
        with pytest.raises(AttributeError):
            setattr(b, _fields(cls)[0], None)


@pytest.mark.parametrize("cls", MADE_INIT, ids=lambda c: c.__name__)
def test_made_init_takes_fields_by_position_or_keyword(cls):
    a = SAMPLES[cls][0]
    values = _values(a)
    by_name = dict(zip(_fields(cls), values))
    first, *rest = _fields(cls)
    mixed = cls(values[0], **{name: by_name[name] for name in rest})
    assert cls(*values) == cls(**by_name) == mixed == a
    twin = _twin_class(cls)
    for args, kwargs in [
        (values[:-1], {}),
        (values + [0], {}),
        (values, {"extra": 0}),
        (values, {first: values[0]}),
    ]:
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
