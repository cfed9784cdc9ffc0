"""Every library value is read-only through one base class, entries._ReadOnly.

The values that compare by value (entries._Value) behave as the frozen
dataclasses they replace: ==, hash and repr read their fields in order, ==
with another type is NotImplemented, Weight is ordered, and every
constructor keeps its keywords and defaults. The others compare and hash by
identity. Assigning or deleting an attribute of any of them raises
dataclasses.FrozenInstanceError. CGValue's products and negations skip its
checks, and equal the checked construction."""

import dataclasses
import functools
import random
from fractions import Fraction

import numpy as np
import pytest

from braket import (
    Basis,
    BasisChange,
    CGValue,
    CoupledRep,
    Environment,
    GaugeParams,
    KindedOperator,
    MetricOperator,
    OperatorKind,
    Projector,
    Variance,
    VarVector,
    Weight,
    clebsch_gordan,
    su2_generators,
)
from braket.dsl import Call, Juxt, Literal, Name, Scale, Sum, Vector, _Token
from braket.entries import DEFAULT_TOLS, _ReadOnly, _Tolerances, _Value

# Each value class with the fields it compares by, two sets of arguments
# that differ in one field, and whether it is ordered.
VALUES = [
    (_Tolerances, ("eq_tol", "herm_tol", "sig_tol", "sym_tol"),
     (1e-10, 1e-10, 1e-9, 1e-8), (1e-10, 1e-10, 1e-9, 1e-7), False),
    (Weight, ("twice_j",), (3,), (4,), True),
    (CGValue, ("sign", "squared"), (1, Fraction(1, 3)), (-1, Fraction(1, 3)), False),
    (CoupledRep, ("j1", "j2", "epsilon", "basis"),
     (Weight(2), Weight(1), 1, Basis.ROTATION), (Weight(2), Weight(1), -1, Basis.ROTATION),
     False),
    (Vector, ("pos", "name", "variance"), (0, "x", Variance.KET_DOWN),
     (0, "x", Variance.BRA_UP), False),
    (Name, ("pos", "name"), (3, "A"), (3, "B"), False),
    (Literal, ("pos", "value"), (1, 2j), (1, 2.5j), False),
    (Call, ("pos", "fn", "operand"), (0, "tr", Name(4, "A")), (0, "adj", Name(4, "A")), False),
    (Juxt, ("pos", "items"), (0, (Name(0, "A"), Name(2, "B"))), (0, (Name(0, "A"),)), False),
    (Sum, ("pos", "terms"), (0, ((1, Name(0, "A")), (-1, Name(4, "B")))),
     (0, ((1, Name(0, "A")), (1, Name(4, "B")))), False),
    (Scale, ("pos", "factor", "operand"), (2, Literal(0, 2j), Name(4, "A")),
     (2, Literal(0, 3j), Name(4, "A")), False),
    (_Token, ("kind", "text", "pos", "value"), ("literal", "2", 0, 2j), ("literal", "2", 1, 2j),
     False),
]
VALUE_IDS = [cls.__name__ for cls, *_ in VALUES]


@functools.cache
def reference_class(cls, fields, order):
    """The frozen dataclass with these fields, named as cls."""
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, order=order)


def reference(cls, fields, args, order):
    return reference_class(cls, fields, order)(*args)


def flat_metric(dim: int = 2) -> MetricOperator:
    return MetricOperator(np.diag([1.0] * (dim - 1) + [-1.0]))


# Each identity class with a function making a fresh instance.
IDENTITIES = {
    "Su2Irrep": lambda: su2_generators(Weight(1)),
    "Environment": lambda: Environment(2, flat_metric()),
    "Projector": lambda: Projector.from_matrix(np.diag([1.0, 0.0])),
    "GaugeParams": lambda: GaugeParams(np.zeros((2, 2))),
    "VarVector": lambda: VarVector([1, 0], Variance.KET_DOWN),
    "KindedOperator": lambda: KindedOperator(np.eye(2), OperatorKind.DOWN_DOWN),
    "MetricOperator": flat_metric,
    "BasisChange": lambda: BasisChange(np.eye(2)),
}


@pytest.mark.parametrize("cls, fields, args, other, order", VALUES, ids=VALUE_IDS)
class TestValueParity:
    def test_eq_and_hash(self, cls, fields, args, other, order):
        a, b, c = cls(*args), cls(*args), cls(*other)
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != c and not a == c
        assert hash(a) == hash(reference(cls, fields, args, order))

    def test_repr(self, cls, fields, args, other, order):
        assert repr(cls(*args)) == repr(reference(cls, fields, args, order))

    def test_eq_across_types(self, cls, fields, args, other, order):
        value = cls(*args)
        for stranger in (tuple(args), reference(cls, fields, args, order), Name(0, "A"),
                         Weight(3), None):
            if type(stranger) is cls:
                continue
            assert value.__eq__(stranger) is NotImplemented
            assert value != stranger and not value == stranger

    def test_keyword_construction(self, cls, fields, args, other, order):
        assert cls(**dict(zip(fields, args))) == cls(*args)

    def test_assignment_and_deletion_raise(self, cls, fields, args, other, order):
        value = cls(*args)
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.extra = 1
        assert value == cls(*args)


def test_every_value_class_derives_from_the_one_base():
    for cls, *_ in VALUES:
        assert issubclass(cls, _Value) and issubclass(cls, _ReadOnly)
    for make in IDENTITIES.values():
        value = make()
        assert isinstance(value, _ReadOnly) and not isinstance(value, _Value)


def test_weight_ordering_matches_the_dataclass():
    weights = [Weight(t) for t in (4, 0, 3, 3, 1)]
    refs = [reference(Weight, ("twice_j",), (w.twice_j,), True) for w in weights]
    assert [w.twice_j for w in sorted(weights)] == [r.twice_j for r in sorted(refs)]
    for a, ra in zip(weights, refs):
        for b, rb in zip(weights, refs):
            assert (a < b, a <= b, a > b, a >= b) == (ra < rb, ra <= rb, ra > rb, ra >= rb)
    with pytest.raises(TypeError):
        Weight(1) < 2
    with pytest.raises(TypeError):
        Weight(1) >= (1,)


def test_defaults():
    assert _Tolerances() == DEFAULT_TOLS == _Tolerances(1e-10, 1e-10, 1e-9, 1e-8)
    assert _Token("eof", "", 3).value == 0j and type(_Token("eof", "", 3).value) is complex
    rep = CoupledRep(Weight(2), Weight(1))
    assert rep == CoupledRep(Weight(2), Weight(1), None, "canonical")
    assert (rep.epsilon, rep.basis) == (-1, "canonical")
    assert CoupledRep(j1=Weight(2), j2=Weight(1), epsilon=1, basis="rotation").basis == "rotation"
    env = Environment(dimension=2, metric=flat_metric())
    assert dict(env.vectors) == {} and dict(env.operators) == {}
    assert Environment(2, flat_metric(), vectors={}, operators={}).dimension == 2


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_identity_values(name):
    a, b = IDENTITIES[name](), IDENTITIES[name]()
    assert a == a and a != b and hash(a) == hash(a)
    assert len({a, b}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.extra = 1
    attr = next(iter(vars(a)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, attr, getattr(a, attr))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(a, attr)


def random_cg_values(seed: int, count: int) -> list[CGValue]:
    """Both zeros and count seeded non-zero values, a fifth of them with an
    int squared value."""
    rng = random.Random(seed)
    values = [CGValue(0, 0), CGValue(0, Fraction(0))]
    for _ in range(count):
        squared = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        if rng.random() < 0.2:
            squared = rng.randint(1, 50)
        values.append(CGValue(rng.choice((-1, 1)), squared))
    return values


def test_cg_products_and_negations_equal_the_checked_construction():
    values = random_cg_values(2024, 40)
    for a in values:
        negated = -a
        assert negated == CGValue(-a.sign, a.squared)
        assert type(negated.squared) is type(a.squared)
        for b in values:
            product = a * b
            checked = CGValue(a.sign * b.sign, a.squared * b.squared)
            assert product == checked and repr(product) == repr(checked)
            assert type(product.squared) is type(checked.squared)


def test_cg_kernel_values_equal_the_checked_construction():
    # every coefficient of three couplings, labels given as twice their values
    for tj1, tj2 in ((2, 1), (4, 2), (5, 3)):
        for ts in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            for tl1 in range(-tj1, tj1 + 1, 2):
                for tl2 in range(-tj2, tj2 + 1, 2):
                    tsig = tl1 + tl2 if abs(tl1 + tl2) <= ts else ts
                    value = clebsch_gordan(*(Fraction(t, 2) for t in (tj1, tl1, tj2, tl2, ts,
                                                                       tsig)))
                    assert value == CGValue(value.sign, value.squared)
                    assert type(value.squared) is Fraction
