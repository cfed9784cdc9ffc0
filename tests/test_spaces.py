from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braket import (
    DimensionMismatch,
    InvalidArgument,
    MetricOperator,
    NotHermitian,
    Singular,
    Variance,
    VarianceMismatch,
    VarVector,
    WrongVariance,
    couple,
    dual_form,
    raise_lower_index,
    relate_bra,
    relate_ket,
    scalar_product,
)
from conftest import max_dev, random_complex, random_metric


def kd(*comps):
    return VarVector(np.array(comps, dtype=complex), Variance.KET_DOWN)


def ku(*comps):
    return VarVector(np.array(comps, dtype=complex), Variance.KET_UP)


MINKOWSKI = MetricOperator(np.diag([1.0, -1.0, -1.0, -1.0]))
DIAG_1_1 = MetricOperator(np.diag([1.0, -1.0]))


class TestMetricOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            MetricOperator([[0, 1], [0, 0]])

    def test_rejects_singular(self):
        with pytest.raises(Singular):
            MetricOperator(np.diag([1.0, 0.0]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            MetricOperator(np.ones((2, 3)))

    def test_rejects_nan(self):
        # numpy's SVD alone raises LinAlgError, which is no BraketError
        with pytest.raises(InvalidArgument):
            MetricOperator([[np.nan]])

    def test_caches_inverse(self, rng):
        m = random_metric(rng, 3)
        assert max_dev(m.eta @ m.eta_inv, np.eye(3)) < 1e-10

    @pytest.mark.parametrize("field", ["dim", "eta", "eta_inv", "_entries"])
    def test_fields_are_read_only(self, rng, field):
        # an assigned eta or dim would leave eta_inv stale
        for m in (random_metric(rng, 3), MetricOperator(np.diag([1.0, -1.0, 2.0]))):
            with pytest.raises(FrozenInstanceError):
                setattr(m, field, np.eye(3) if field.startswith("eta") else 7)
            with pytest.raises(FrozenInstanceError):
                delattr(m, field)


class TestRelateBra:
    def test_conjugates_components(self):
        b = relate_bra(kd(1, 1j))
        assert b.variance == Variance.BRA_DOWN
        assert max_dev(b.components, [1, -1j]) == 0

    def test_real_ket_up_fixed_point(self):
        b = relate_bra(ku(2, 3))
        assert b.variance == Variance.BRA_UP
        assert max_dev(b.components, [2, 3]) == 0

    def test_round_trip(self, rng):
        v = VarVector(random_complex(rng, 4), Variance.KET_DOWN)
        assert max_dev(relate_ket(relate_bra(v)).components, v.components) == 0

    def test_anti_linearity(self, rng):
        for _ in range(10):
            x, y = random_complex(rng, 3), random_complex(rng, 3)
            alpha, beta = complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))
            lhs = relate_bra(VarVector(alpha * x + beta * y, Variance.KET_DOWN))
            rhs = (
                np.conj(alpha) * relate_bra(VarVector(x, Variance.KET_DOWN)).components
                + np.conj(beta) * relate_bra(VarVector(y, Variance.KET_DOWN)).components
            )
            assert max_dev(lhs.components, rhs) < 1e-12

    def test_rejects_bra(self):
        with pytest.raises(WrongVariance):
            relate_bra(VarVector(np.ones(2), Variance.BRA_DOWN))
        with pytest.raises(WrongVariance):
            relate_ket(kd(1, 0))


class TestCouple:
    def test_unit_metric_flips_variance_only(self):
        m = MetricOperator(np.eye(2))
        out = couple(m, kd(1, 2))
        assert out.variance == Variance.KET_UP
        assert max_dev(out.components, [1, 2]) == 0

    def test_diagonal_action(self):
        out = couple(DIAG_1_1, kd(1, 1))
        assert max_dev(out.components, [1, -1]) == 0

    def test_round_trip(self, rng):
        m = random_metric(rng, 3)
        x = VarVector(random_complex(rng, 3), Variance.KET_DOWN)
        back = couple(m, couple(m, x))
        assert back.variance == Variance.KET_DOWN
        assert max_dev(back.components, x.components) < 1e-10

    def test_rejects_bras(self):
        with pytest.raises(WrongVariance):
            couple(DIAG_1_1, VarVector(np.ones(2), Variance.BRA_UP))


class TestDualForm:
    def test_basis_duality(self):
        # <(i)|(j)> = delta: dual-basis pairs have unit components
        b = relate_bra(ku(1, 0))
        assert dual_form(b, kd(1, 0)) == 1
        assert dual_form(b, kd(0, 1)) == 0

    def test_hermitian_both_orderings(self, rng):
        m = random_metric(rng, 3)
        for _ in range(10):
            x = VarVector(random_complex(rng, 3), Variance.KET_DOWN)
            yhat = VarVector(random_complex(rng, 3), Variance.KET_UP)
            # <yhat|x>_ud vs conj(<x|yhat>_du), evaluated independently
            lhs = dual_form(relate_bra(yhat), x)
            rhs = np.conj(dual_form(relate_bra(x), yhat))
            assert abs(lhs - rhs) < 1e-12

    def test_parallel_pair_rejected(self):
        with pytest.raises(VarianceMismatch):
            dual_form(relate_bra(kd(1, 0)), kd(0, 1))
        with pytest.raises(VarianceMismatch):
            dual_form(kd(1, 0), kd(0, 1))


class TestScalarProduct:
    def test_timelike_unit(self):
        x = kd(1, 0, 0, 0)
        assert scalar_product(MINKOWSKI, x, x) == 1

    def test_null_vector(self):
        # nonzero vector with vanishing squared norm
        x = kd(1, 1)
        assert scalar_product(DIAG_1_1, x, x) == 0

    def test_metric_is_isometry(self, rng):
        m = random_metric(rng, 3)
        for _ in range(10):
            x = VarVector(random_complex(rng, 3), Variance.KET_DOWN)
            y = VarVector(random_complex(rng, 3), Variance.KET_DOWN)
            up = scalar_product(m, couple(m, x), couple(m, y))
            down = scalar_product(m, x, y)
            assert abs(up - down) < 1e-10

    def test_hermiticity(self, rng):
        m = random_metric(rng, 4)
        for variance in (Variance.KET_DOWN, Variance.KET_UP):
            x = VarVector(random_complex(rng, 4), variance)
            y = VarVector(random_complex(rng, 4), variance)
            assert abs(scalar_product(m, x, y) - np.conj(scalar_product(m, y, x))) < 1e-12

    def test_variance_mismatch(self):
        with pytest.raises(VarianceMismatch):
            scalar_product(DIAG_1_1, kd(1, 0), ku(1, 0))
        with pytest.raises(VarianceMismatch):
            scalar_product(DIAG_1_1, relate_bra(kd(1, 0)), relate_bra(kd(1, 0)))


class TestRaiseLower:
    def test_unit_metric_identity(self, rng):
        m = MetricOperator(np.eye(3))
        x = random_complex(rng, 3)
        assert max_dev(raise_lower_index(m, x, "lower"), x) == 0

    def test_diagonal(self):
        assert max_dev(raise_lower_index(DIAG_1_1, [2, 3], "lower"), [2, -3]) == 0

    def test_round_trip(self, rng):
        m = random_metric(rng, 4)
        x = random_complex(rng, 4)
        assert max_dev(raise_lower_index(m, raise_lower_index(m, x, "lower"), "raise"), x) < 1e-10

    def test_bad_direction(self):
        with pytest.raises(InvalidArgument):
            raise_lower_index(DIAG_1_1, [1, 0], "sideways")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            raise_lower_index(DIAG_1_1, [1, 0, 0], "lower")


class TestCrossRelations:
    def test_dual_form_recovers_scalar_product(self, rng):
        # <xhat| paired with |y> equals h(x, y) once xhat = eta x
        m = random_metric(rng, 3)
        for _ in range(10):
            x = VarVector(random_complex(rng, 3), Variance.KET_DOWN)
            y = VarVector(random_complex(rng, 3), Variance.KET_DOWN)
            lhs = dual_form(relate_bra(couple(m, x)), y)
            assert abs(lhs - scalar_product(m, x, y)) < 1e-10

    def test_coupled_scalar_products_agree(self, rng):
        m = random_metric(rng, 3)
        x = VarVector(random_complex(rng, 3), Variance.KET_DOWN)
        y = VarVector(random_complex(rng, 3), Variance.KET_DOWN)
        assert (
            abs(
                scalar_product(m, x, y)
                - scalar_product(m, couple(m, x), couple(m, y))
            )
            < 1e-10
        )


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
complex_pairs = st.tuples(finite, finite).map(lambda p: complex(*p))


@given(st.lists(complex_pairs, min_size=3, max_size=3),
       st.lists(complex_pairs, min_size=3, max_size=3),
       complex_pairs, complex_pairs)
def test_bra_relation_anti_linear(xs, ys, alpha, beta):
    x, y = np.array(xs), np.array(ys)
    lhs = relate_bra(VarVector(alpha * x + beta * y, Variance.KET_DOWN)).components
    rhs = (
        np.conj(alpha) * relate_bra(VarVector(x, Variance.KET_DOWN)).components
        + np.conj(beta) * relate_bra(VarVector(y, Variance.KET_DOWN)).components
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@given(st.lists(complex_pairs, min_size=2, max_size=2),
       st.lists(complex_pairs, min_size=2, max_size=2))
def test_scalar_product_hermitian_property(xs, ys):
    x = VarVector(np.array(xs), Variance.KET_DOWN)
    y = VarVector(np.array(ys), Variance.KET_DOWN)
    forward = scalar_product(DIAG_1_1, x, y)
    assert abs(forward - np.conj(scalar_product(DIAG_1_1, y, x))) < 1e-9


class TestHermitianMetricTheorem:
    """Hermiticity of the metric matrix is exactly what makes the forms
    hermitian; probe both directions on raw component sums."""

    @staticmethod
    def _raw_form(c, x, y):
        return complex(np.conj(x) @ c @ y)

    def test_non_hermitian_candidate_fails(self, rng):
        c = np.array([[1.0, 1.0], [0.0, 1.0]])  # invertible, not hermitian
        violated = False
        for _ in range(50):
            x, y = random_complex(rng, 2), random_complex(rng, 2)
            if abs(self._raw_form(c, x, y) - np.conj(self._raw_form(c, y, x))) > 1e-6:
                violated = True
                break
        assert violated
        with pytest.raises(NotHermitian):
            MetricOperator(c)

    def test_hermitian_candidate_holds(self, rng):
        m = random_metric(rng, 2)
        for _ in range(50):
            x, y = random_complex(rng, 2), random_complex(rng, 2)
            assert (
                abs(self._raw_form(m.eta, x, y) - np.conj(self._raw_form(m.eta, y, x)))
                < 1e-12
            )
