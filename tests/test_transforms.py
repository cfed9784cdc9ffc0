from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from braket import (
    BasisChange,
    DimensionMismatch,
    GaugeParams,
    IndexOutOfRange,
    InvalidArgument,
    KindedOperator,
    MetricOperator,
    OperatorKind,
    Singular,
    couple_operator,
    dirac_adjoint,
    generator_h,
    generator_x,
    generators_a_s,
    group_element,
    is_semi_hermitian,
    is_symmetry,
    orthonormalizing_change,
    scalar_product,
    signature,
    transform_generator,
    transform_metric,
    transform_operator,
    trace,
    Variance,
    VarVector,
)
from conftest import (
    max_dev,
    random_complex,
    random_hermitian_invertible,
    random_invertible,
    random_metric,
)

DIAG_1_1 = MetricOperator(np.diag([1.0, -1.0]))


def random_gauge_params(rng, n, bound=0.25) -> GaugeParams:
    return GaugeParams.from_real_parameters(
        rng.uniform(-bound, bound, (n, n)), rng.uniform(-bound, bound, (n, n))
    )


class TestBasisChange:
    def test_rejects_singular(self):
        with pytest.raises(Singular):
            BasisChange(np.diag([1.0, 0.0]))

    def test_duality_preserved(self, rng):
        bc = BasisChange(random_invertible(rng, 3))
        assert max_dev(bc.t_inv @ bc.t, np.eye(3)) < 1e-10

    @pytest.mark.parametrize("field", ["t", "t_inv", "dim"])
    def test_fields_are_read_only(self, rng, field):
        # an assigned t would leave t_inv stale
        bc = BasisChange(random_invertible(rng, 3))
        with pytest.raises(FrozenInstanceError):
            setattr(bc, field, np.eye(3))
        with pytest.raises(FrozenInstanceError):
            delattr(bc, field)
        assert not bc.t.flags.writeable and not bc.t_inv.flags.writeable


class TestTransformMetric:
    def test_identity(self, rng):
        m = random_metric(rng, 3)
        moved = transform_metric(BasisChange(np.eye(3)), m)
        assert max_dev(moved.eta, m.eta) == 0

    def test_hand_congruence(self):
        moved = transform_metric(BasisChange(np.diag([2.0, 3.0])), DIAG_1_1)
        assert max_dev(moved.eta, np.diag([4.0, -9.0])) == 0
        assert signature(moved.eta) == (1, 1)

    def test_signature_preserved(self, rng):
        for n in (2, 3, 4):
            m = random_metric(rng, n)
            expected = signature(m.eta)
            for _ in range(10):
                moved = transform_metric(BasisChange(random_invertible(rng, n)), m)
                assert signature(moved.eta) == expected


class TestTransformOperator:
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_identity_change(self, rng, kind):
        x = KindedOperator(random_complex(rng, 3, 3), kind)
        moved = transform_operator(BasisChange(np.eye(3)), x)
        assert moved.kind == kind
        assert max_dev(moved.mat, x.mat) == 0

    def test_trace_invariance(self, rng):
        for _ in range(10):
            x = KindedOperator(random_complex(rng, 3, 3), OperatorKind.DOWN_DOWN)
            moved = transform_operator(BasisChange(random_invertible(rng, 3)), x)
            assert abs(trace(moved) - trace(x)) < 1e-9

    def test_commutes_with_coupling(self, rng):
        # transforming the coupled operator = coupling the transformed
        # operator under the transformed metric
        m = random_metric(rng, 3)
        bc = BasisChange(random_invertible(rng, 3))
        a = KindedOperator(random_complex(rng, 3, 3), OperatorKind.DOWN_DOWN)
        lhs = transform_operator(bc, couple_operator(m, a))
        rhs = couple_operator(transform_metric(bc, m), transform_operator(bc, a))
        assert lhs.kind == rhs.kind == OperatorKind.UP_UP
        assert max_dev(lhs.mat, rhs.mat) < 1e-9

    def test_metric_kind_matches_transform_metric(self, rng):
        m = random_metric(rng, 3)
        bc = BasisChange(random_invertible(rng, 3))
        from braket import metric_op

        moved = transform_operator(bc, metric_op(m))
        assert max_dev(moved.mat, transform_metric(bc, m).eta) < 1e-10


class TestIsSymmetry:
    def test_identity(self, rng):
        m = random_metric(rng, 3)
        assert is_symmetry(np.eye(3), m, 1e-12)

    def test_unit_metric_unitaries(self, rng):
        from braket import expm

        m = MetricOperator(np.eye(3))
        a = random_complex(rng, 3, 3)
        u = expm(a - a.conj().T)  # unitary
        assert is_symmetry(u, m, 1e-9)

    def test_boost(self):
        t = 0.83
        u = np.array(
            [[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]], dtype=complex
        )
        assert is_symmetry(u, DIAG_1_1, 1e-12)

    def test_generic_rejected(self, rng):
        assert not is_symmetry(2.0 * np.eye(2), DIAG_1_1, 1e-6)


class TestGeneratorX:
    def test_unit_metric_elementary(self):
        m = MetricOperator(np.eye(3))
        x = generator_x(1, 2, m)
        want = np.zeros((3, 3))
        want[0, 1] = 1.0
        assert max_dev(x.mat, want) == 0

    def test_trace(self, rng):
        m = random_metric(rng, 4)
        for i in range(1, 5):
            for j in range(1, 5):
                assert abs(trace(generator_x(i, j, m)) - m.eta[j - 1, i - 1]) < 1e-12

    def test_bar_swaps_indices(self):
        m = MetricOperator(np.diag([1.0, 1.0, -1.0]))
        for i in range(1, 4):
            for j in range(1, 4):
                bar = dirac_adjoint(generator_x(i, j, m), m)
                assert max_dev(bar.mat, generator_x(j, i, m).mat) < 1e-12

    def test_index_out_of_range(self, rng):
        m = random_metric(rng, 2)
        with pytest.raises(IndexOutOfRange):
            generator_x(0, 1, m)
        with pytest.raises(IndexOutOfRange):
            generator_x(1, 3, m)

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1", None])
    @pytest.mark.parametrize("family", [generator_x, generator_h, generators_a_s])
    def test_index_not_an_int(self, rng, family, index):
        # a float, a bool or a string is no basis label, even where its
        # value would pass the range check
        m = random_metric(rng, 2)
        with pytest.raises(IndexOutOfRange, match="not an int"):
            family(index, 1, m)
        with pytest.raises(IndexOutOfRange, match="not an int"):
            family(1, index, m)


class TestGeneratorH:
    def test_traceless(self, rng):
        m = random_metric(rng, 4)
        for i in range(1, 5):
            for j in range(1, 5):
                assert abs(trace(generator_h(i, j, m))) < 1e-12

    def test_contraction_vanishes(self, rng):
        m = random_metric(rng, 3)
        total = np.zeros((3, 3), dtype=complex)
        for i in range(1, 4):
            for j in range(1, 4):
                total += m.eta_inv[i - 1, j - 1] * generator_h(i, j, m).mat
        assert max_dev(total, np.zeros((3, 3))) < 1e-12

    def test_unit_metric_case(self):
        m = MetricOperator(np.eye(2))
        want = np.zeros((2, 2))
        want[0, 1] = 1.0
        assert max_dev(generator_h(1, 2, m).mat, want) == 0


class TestGeneratorsAS:
    def test_semi_hermitian(self):
        m = MetricOperator(np.diag([1.0, -1.0]))
        for i in range(1, 3):
            for j in range(1, 3):
                a, s = generators_a_s(i, j, m)
                assert is_semi_hermitian(a, m, 1e-12)
                assert is_semi_hermitian(s, m, 1e-12)

    def test_diagonal_a_vanishes(self):
        m = MetricOperator(np.diag([1.0, -1.0, -1.0]))
        for i in range(1, 4):
            a, _ = generators_a_s(i, i, m)
            assert max_dev(a.mat, np.zeros((3, 3))) == 0

    def test_rotation_generator(self):
        m = MetricOperator(np.eye(2))
        a, _ = generators_a_s(1, 2, m)
        want = 0.5j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert max_dev(a.mat, want) == 0

    def test_random_metric_semi_hermitian(self, rng):
        m = random_metric(rng, 3)
        for i in range(1, 4):
            for j in range(1, 4):
                a, s = generators_a_s(i, j, m)
                assert is_semi_hermitian(a, m, 1e-10)
                assert is_semi_hermitian(s, m, 1e-10)


class TestGroupElement:
    def test_zero_gives_identity(self, rng):
        m = random_metric(rng, 3)
        u = group_element(GaugeParams(np.zeros((3, 3))), m)
        assert (u == np.eye(3)).all()

    def test_constrained_parameters_give_symmetry(self, rng):
        m = MetricOperator(np.diag([1.0, -1.0]))
        for _ in range(20):
            p = random_gauge_params(rng, 2)
            assert p.satisfies_gauge_constraint()
            u = group_element(p, m)
            assert is_symmetry(u, m, 1e-8)

    def test_unconstrained_generically_breaks_symmetry(self, rng):
        m = MetricOperator(np.diag([1.0, -1.0]))
        broken = 0
        for _ in range(20):
            omega = random_complex(rng, 2, 2)
            if not GaugeParams(omega).satisfies_gauge_constraint():
                if not is_symmetry(group_element(GaugeParams(omega), m), m, 1e-8):
                    broken += 1
        assert broken > 0

    def test_require_gauge_flag(self, rng):
        m = random_metric(rng, 2)
        omega = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidArgument):
            group_element(GaugeParams(omega), m, require_gauge=True)

    @pytest.mark.parametrize(
        "shapes", [((2, 3), (2, 3)), ((2, 2), (3, 3)), ((3, 3), (3, 2))],
        ids=["non-square", "sizes-differ", "one-non-square"],
    )
    def test_real_parameters_shape(self, shapes):
        with pytest.raises(DimensionMismatch):
            GaugeParams.from_real_parameters(*(np.zeros(s) for s in shapes))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        # NaN passes any `deviation > tol` test, and group_element would
        # return an all-NaN matrix
        omega = np.zeros((2, 2), dtype=complex)
        omega[0, 1] = bad
        with pytest.raises(InvalidArgument, match="NaN or infinite"):
            GaugeParams(omega)

    def test_non_square_message_kept(self):
        with pytest.raises(DimensionMismatch, match="omega must be square"):
            GaugeParams(np.zeros((2, 3)))

    def test_real_parameters_must_be_real(self):
        with pytest.raises(InvalidArgument):
            GaugeParams.from_real_parameters(np.zeros((2, 2)), [[0, 1j], [1j, 0]])

    def test_gauge_parameter_count(self):
        # the constraint omega + conj(omega.T) = 0, read as a real-linear
        # map on (Re omega, Im omega), has an n*n-dimensional kernel
        n = 3
        dim = 2 * n * n
        rows = []
        for i in range(n):
            for j in range(n):
                re_row = np.zeros(dim)
                im_row = np.zeros(dim)
                re_row[i * n + j] += 1.0
                re_row[j * n + i] += 1.0  # Re omega_ij + Re omega_ji
                im_row[n * n + i * n + j] += 1.0
                im_row[n * n + j * n + i] -= 1.0  # Im omega_ij - Im omega_ji
                rows.extend([re_row, im_row])
        rank = np.linalg.matrix_rank(np.array(rows))
        assert dim - rank == n * n


class TestTransformGenerator:
    def test_identity(self, rng):
        m = random_metric(rng, 3)
        x = generator_x(1, 2, m)
        moved = transform_generator(BasisChange(np.eye(3)), x, m)
        assert max_dev(moved.mat, x.mat) < 1e-12

    def test_symmetry_reduces_to_adjoint_action(self, rng):
        m = MetricOperator(np.diag([1.0, 1.0, -1.0]))
        u = group_element(random_gauge_params(rng, 3), m)
        bc = BasisChange(u)
        for i, j in ((1, 2), (2, 3), (3, 1)):
            x = generator_h(i, j, m)
            moved = transform_generator(bc, x, m)
            assert max_dev(moved.mat, u @ x.mat @ bc.t_inv) < 1e-8

    def test_dual_construction(self, rng):
        # rebuild X'_ij from transformed basis vectors: the new ket is
        # T e_i and the new bra-down row is conj(T[:, j]); appending the
        # metric reproduces the transformation law
        m = random_metric(rng, 3)
        t = random_invertible(rng, 3)
        bc = BasisChange(t)
        for i in range(1, 4):
            for j in range(1, 4):
                direct = np.outer(t[:, i - 1], t[:, j - 1].conj()) @ m.eta
                moved = transform_generator(bc, generator_x(i, j, m), m)
                assert max_dev(moved.mat, direct) < 1e-10


class TestSymmetryInvariance:
    def test_scalar_products_invariant(self, rng):
        # components move with U^-1 while the metric matrix stays put
        m = MetricOperator(np.diag([1.0, 1.0, -1.0]))
        u = group_element(random_gauge_params(rng, 3), m)
        u_inv = np.linalg.inv(u)
        for _ in range(10):
            x = random_complex(rng, 3)
            y = random_complex(rng, 3)
            before = scalar_product(
                m,
                VarVector(x, Variance.KET_DOWN),
                VarVector(y, Variance.KET_DOWN),
            )
            after = scalar_product(
                m,
                VarVector(u_inv @ x, Variance.KET_DOWN),
                VarVector(u_inv @ y, Variance.KET_DOWN),
            )
            assert abs(before - after) < 1e-8


class TestOrthonormalizingChange:
    def test_diagonalizes_to_signs(self, rng):
        for n in (2, 3, 4):
            m = random_metric(rng, n)
            bc = orthonormalizing_change(m)
            moved = transform_metric(bc, m)
            diag = np.diagonal(moved.eta)
            off = moved.eta - np.diag(diag)
            assert max_dev(off, np.zeros_like(off)) < 1e-9
            assert max_dev(np.abs(diag), np.ones(n)) < 1e-9
            n_plus, n_minus = signature(m.eta)
            assert int(np.sum(diag.real > 0)) == n_plus
            # descending order: all +1 entries first
            assert (np.diff(diag.real) <= 1e-12).all()
