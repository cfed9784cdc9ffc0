"""A value made from a dense array and one made from entries are one value.

Both forms follow the one zero rule of braket.entries (zeros left out,
-0.0 parts stored as 0.0), so a dense view equals the array made from
the entries bit for bit, both write the same bytes, and MetricOperator
picks its check from the value, whichever form it is given in."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braket import (
    BraketError,
    KindedOperator,
    MetricOperator,
    OperatorKind,
    Variance,
    VarVector,
    scale,
)
from braket.dsl import Environment
from braket.entries import _pair
from braket.linalg import _dense, _entries, _flat
from braket.serialize import environment_to_json, operator_to_json, vector_to_json

DD = OperatorKind.DOWN_DOWN
SIGNED_DIAG = np.array([[1, -0.0], [-0.0, -1]], dtype=complex)


def bits(entries) -> tuple[list, list]:
    """The indices, and the bytes of each value, so -0.0 differs from 0.0."""
    index, values = entries
    return list(index), [struct.pack("<dd", v.real, v.imag) for v in values]


def from_entries(a):
    """The entries of a by the rule entries._pair applies to any value."""
    return _pair(dict(enumerate(np.asarray(a, dtype=complex).flat)))


def has_negative_zero(a) -> bool:
    parts = np.concatenate([a.real.reshape(-1), a.imag.reshape(-1)])
    return bool(np.signbit(parts[parts == 0]).any())


class TestMetricRouteByValue:
    @pytest.mark.parametrize("make", [
        MetricOperator,
        lambda a: MetricOperator._from_entries(2, _entries(a)),
    ], ids=["dense", "entries"])
    def test_signed_zero_diagonal_is_monomial(self, make):
        m = make(SIGNED_DIAG)
        assert m._mono is not None
        assert m.eta.tobytes() == np.diag([1, -1]).astype(complex).tobytes()
        assert not has_negative_zero(m.eta_inv)

    def test_dense_diagonal_needs_no_svd(self, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("dense LAPACK call for a monomial metric")

        for name in ("svd", "inv"):
            monkeypatch.setattr(np.linalg, name, no_lapack)
        m = MetricOperator(np.diag([1.0, -1.0]))
        assert m._mono is not None
        assert m.eta_inv.tobytes() == np.diag([1.0, -1.0]).astype(complex).tobytes()

    def test_both_forms_agree(self, rng):
        # a dense metric and a signed permutation, each made both ways
        h = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        perm = np.array([[0, 2j, 0], [-2j, 0, 0], [0, 0, -0.5]])
        for a in (h + h.conj().T + 4 * np.eye(3), perm):
            dense, sparse = MetricOperator(a), MetricOperator._from_entries(3, from_entries(a))
            # nine non-zeros settle the dense route; its entries wait for first use
            assert ("_entries" in dense.__dict__) == (dense._mono is not None)
            assert bits(dense._entries) == bits(sparse._entries)
            assert (dense._mono is None) == (sparse._mono is None)
            assert dense.eta.tobytes() == sparse.eta.tobytes()
            assert dense.eta_inv.tobytes() == sparse.eta_inv.tobytes()
            assert bits(dense._inv_entries) == bits(sparse._inv_entries)


class TestSameBytes:
    def test_operator(self, rng):
        a = SIGNED_DIAG.copy()
        a[0, 1] = complex(-0.0, rng.uniform(-1, 1))
        dense = KindedOperator(a, DD)
        sparse = KindedOperator._from_entries(2, from_entries(a), DD)
        text = json.dumps(operator_to_json(sparse))
        assert json.dumps(operator_to_json(dense)) == text
        assert json.dumps(operator_to_json(scale(1.0, dense))) == text
        assert "-0.0" not in text

    def test_vector(self):
        v = np.array([-0.0, complex(1, -0.0), complex(-0.0, -2), 0])
        dense = VarVector(v, Variance.KET_UP)
        sparse = VarVector._from_entries(4, from_entries(v), Variance.KET_UP)
        text = json.dumps(vector_to_json(sparse))
        assert json.dumps(vector_to_json(dense)) == text
        assert "-0.0" not in text

    def test_environment(self):
        v = np.array([-0.0, 3j])

        def env(dense: bool) -> Environment:
            if dense:
                return Environment(2, MetricOperator(SIGNED_DIAG),
                                   {"x": VarVector(v, Variance.KET_DOWN)},
                                   {"A": KindedOperator(-SIGNED_DIAG, DD)})
            return Environment(2, MetricOperator._from_entries(2, from_entries(SIGNED_DIAG)),
                               {"x": VarVector._from_entries(2, from_entries(v),
                                                             Variance.KET_DOWN)},
                               {"A": KindedOperator._from_entries(2, from_entries(-SIGNED_DIAG),
                                                                  DD)})

        text = json.dumps(environment_to_json(env(False)))
        assert json.dumps(environment_to_json(env(True))) == text
        assert "-0.0" not in text


# signed zeros, NaN of both signs, the infinities, subnormals and the ends
# of the float range, among arbitrary floats
_PART = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), -float("nan"), float("inf"), float("-inf"),
                     5e-324, -5e-324, 2.2250738585072014e-309, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def signed_arrays(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    parts = draw(st.lists(st.tuples(_PART, _PART), min_size=rows * cols, max_size=rows * cols))
    a = np.empty(rows * cols, dtype=complex)
    a.real = [re for re, _ in parts]
    a.imag = [im for _, im in parts]
    return a.reshape(rows, cols)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(signed_arrays())
def test_one_zero_rule_in_both_forms(a):
    assert bits(_entries(a)) == bits(from_entries(a))
    v = VarVector(a.reshape(-1), Variance.KET_DOWN)
    views = [(v.components, _flat(v.dim, v._entries))]
    if a.shape[0] == a.shape[1]:
        x = KindedOperator(a, DD)
        views.append((x.mat, _dense(x.dim, x._entries)))
        with np.errstate(over="ignore", invalid="ignore"):  # the inf and NaN draws
            for candidate in (a, a + a.conj().T):
                try:
                    m = MetricOperator(candidate)
                except BraketError:
                    continue
                views.append((m.eta, _dense(m.dim, m._entries)))
    for view, made in views:
        assert view.tobytes() == made.tobytes()
        assert not has_negative_zero(view)
