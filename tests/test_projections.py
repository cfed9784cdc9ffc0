import numpy as np
import pytest

from braket import (
    DimensionMismatch,
    InvalidArgument,
    KindedOperator,
    MetricOperator,
    NotIdempotent,
    NotOrthonormalMetric,
    NotSemiHermitian,
    OperatorKind,
    Projector,
    Singular,
    WrongKind,
    coupled_subspace_metric,
    elementary_projectors,
    is_additive,
    is_perp,
    is_semi_hermitian,
    orthonormal_split,
    subspace_projector,
)
from conftest import max_dev, random_complex, random_metric, random_metric_projector

DIAG_1_1 = MetricOperator(np.diag([1.0, -1.0]))

# Additive but not perp: the non-semi-hermitian witness pair.
SKEW_P = Projector.from_matrix([[1.0, 1.0], [0.0, 0.0]])
SKEW_Q = Projector.from_matrix([[0.0, -1.0], [0.0, 1.0]])


class TestProjectorType:
    def test_rejects_non_idempotent(self):
        with pytest.raises(NotIdempotent):
            Projector.from_matrix([[0.0, 2.0], [0.0, 0.0]])

    def test_rejects_wrong_kind(self):
        with pytest.raises(WrongKind):
            Projector(KindedOperator(np.eye(2), OperatorKind.UP_UP))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0)])
    def test_rejects_non_finite(self, bad):
        # max_abs(P @ P - P) is NaN here, and NaN > eq_tol is False
        with pytest.raises(InvalidArgument, match="NaN or infinite"):
            Projector.from_matrix([[bad, 0], [0, 1]])

    def test_non_square_message_kept(self):
        with pytest.raises(DimensionMismatch, match="operator matrix must be square"):
            Projector.from_matrix(np.zeros((2, 3)))


class TestPerpAndAdditive:
    def test_self_overlap(self, rng):
        p = random_metric_projector(rng, DIAG_1_1, 1)
        assert not is_perp(p, p, DIAG_1_1, 1e-10)
        assert not is_additive(p, p, 1e-10)

    def test_diagonal_split(self):
        p = Projector.from_matrix(np.diag([1.0, 0.0]))
        q = Projector.from_matrix(np.diag([0.0, 1.0]))
        assert is_perp(p, q, DIAG_1_1, 1e-12)
        assert is_additive(p, q, 1e-12)

    def test_additive_but_not_perp_witness(self):
        # P Q = Q P = 0 yet P+ eta Q != 0: additivity needs
        # self-adjointness before it implies orthogonality
        assert is_additive(SKEW_P, SKEW_Q, 1e-12)
        assert not is_perp(SKEW_P, SKEW_Q, DIAG_1_1, 1e-6)

    def test_dimension_mismatch(self):
        p3 = Projector.from_matrix(np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            is_additive(SKEW_P, p3, 1e-10)

    def test_equivalence_for_self_adjoint_pairs(self, rng):
        # both directions of the perp <-> additive theorem, sampled
        for metric in (DIAG_1_1, random_metric(rng, 3)):
            for _ in range(40):
                p = random_metric_projector(rng, metric, 1)
                if rng.uniform() < 0.5:
                    q = random_metric_projector(rng, metric, 1)
                else:
                    # build q inside ker(p): the pair is additive by design
                    w = random_complex(rng, metric.dim, 1)
                    v = (np.eye(metric.dim) - p.mat) @ w
                    try:
                        q = subspace_projector(metric, v)
                    except Singular:
                        continue
                assert is_perp(p, q, metric, 1e-8) == is_additive(p, q, 1e-8)


class TestCoupledSubspaceMetric:
    def test_full_projector_gives_metric(self, rng):
        m = random_metric(rng, 3)
        p = Projector.from_matrix(np.eye(3))
        assert max_dev(coupled_subspace_metric(p, m, 1e-10), m.eta) == 0

    def test_diagonal_restriction(self):
        m = MetricOperator(np.diag([1.0, -1.0, -1.0, -1.0]))
        p = Projector.from_matrix(np.diag([1.0, 1.0, 0.0, 0.0]))
        got = coupled_subspace_metric(p, m, 1e-10)
        assert max_dev(got, np.diag([1.0, -1.0, 0.0, 0.0])) == 0

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(NotSemiHermitian):
            coupled_subspace_metric(SKEW_P, DIAG_1_1, 1e-10)

    def test_result_hermitian_and_pseudo_invertible(self, rng):
        m = random_metric(rng, 4)
        for rank in (1, 2, 3):
            p = random_metric_projector(rng, m, rank)
            eta_p = coupled_subspace_metric(p, m, 1e-8)
            assert max_dev(eta_p, eta_p.conj().T) < 1e-8

    def test_direct_sum_of_restrictions(self, rng):
        # eta (P1 + P2) = eta_P1 + eta_P2 for an additive self-adjoint pair
        m = random_metric(rng, 4)
        p1 = random_metric_projector(rng, m, 2)
        w = random_complex(rng, 4, 1)
        p2 = subspace_projector(m, (np.eye(4) - p1.mat) @ w)
        assert is_additive(p1, p2, 1e-8)
        lhs = m.eta @ (p1.mat + p2.mat)
        rhs = coupled_subspace_metric(p1, m, 1e-8) + coupled_subspace_metric(p2, m, 1e-8)
        assert max_dev(lhs, rhs) < 1e-10


class TestElementaryProjectors:
    def test_n2(self):
        ps = elementary_projectors(2)
        assert max_dev(ps[0].mat, np.diag([1.0, 0.0])) == 0
        assert max_dev(ps[1].mat, np.diag([0.0, 1.0])) == 0

    def test_complete_additive_set(self):
        ps = elementary_projectors(4)
        assert max_dev(sum(p.mat for p in ps), np.eye(4)) == 0
        for i, p in enumerate(ps):
            for j, q in enumerate(ps):
                if i != j:
                    assert is_additive(p, q, 1e-12)

    def test_semi_hermitian_for_diagonal_metric(self):
        m = MetricOperator(np.diag([1.0, -1.0, 1.0]))
        for p in elementary_projectors(3):
            assert is_semi_hermitian(p.op, m, 1e-12)


class TestOrthonormalSplit:
    def test_minkowski_ranks(self):
        m = MetricOperator(np.diag([1.0, -1.0, -1.0, -1.0]))
        plus, minus = orthonormal_split(m)
        assert int(np.trace(plus.mat).real) == 1
        assert int(np.trace(minus.mat).real) == 3
        assert is_perp(plus, minus, m, 1e-12)
        assert is_semi_hermitian(plus.op, m, 1e-12)
        assert is_semi_hermitian(minus.op, m, 1e-12)

    def test_definite_metric(self):
        m = MetricOperator(np.eye(3))
        plus, minus = orthonormal_split(m)
        assert max_dev(plus.mat, np.eye(3)) == 0
        assert max_dev(minus.mat, np.zeros((3, 3))) == 0

    def test_metric_decomposes(self):
        # eta = eta P+ + eta P- reassembles the whole metric
        m = MetricOperator(np.diag([1.0, -1.0]))
        plus, minus = orthonormal_split(m)
        rebuilt = m.eta @ plus.mat + m.eta @ minus.mat
        assert max_dev(rebuilt, m.eta) == 0

    def test_rejects_non_orthonormal(self, rng):
        with pytest.raises(NotOrthonormalMetric):
            orthonormal_split(MetricOperator(np.diag([2.0, -1.0])))
        with pytest.raises(NotOrthonormalMetric):
            orthonormal_split(random_metric(rng, 3))


class TestSubspaceProjector:
    def test_idempotent_and_self_adjoint(self, rng):
        m = random_metric(rng, 4)
        p = random_metric_projector(rng, m, 2)
        assert max_dev(p.mat @ p.mat, p.mat) < 1e-10
        assert is_semi_hermitian(p.op, m, 1e-9)

    def test_degenerate_subspace_rejected(self):
        # the null direction (1, 1) of diag(1, -1) spans no coupled subspace
        with pytest.raises(Singular):
            subspace_projector(DIAG_1_1, np.array([[1.0], [1.0]]))
