import numpy as np
import pytest

from braket import (
    KindedOperator,
    KindMismatch,
    MetricOperator,
    OperatorKind,
    WrongKind,
    add,
    compose,
    couple_operator,
    dirac_adjoint,
    generator_x,
    hermitian_adjoint,
    identity_down,
    identity_up,
    is_semi_hermitian,
    metric_inv_op,
    metric_op,
    scale,
    trace,
)
from braket.entries import _adjoint
from braket.operators import _chain
from conftest import (ascending_product, max_dev, random_complex, random_metric,
                      random_semi_hermitian)

DD, UU, DU, UD = (
    OperatorKind.DOWN_DOWN,
    OperatorKind.UP_UP,
    OperatorKind.DOWN_UP,
    OperatorKind.UP_DOWN,
)

# Composition table x . y: result kind, or None for an illegal chain.
KIND_TABLE = {
    (DD, DD): DD, (DD, UD): UD, (DU, DD): DU, (DU, UD): UU,
    (UU, UU): UU, (UU, DU): DU, (UD, UU): UD, (UD, DU): DD,
    (DD, UU): None, (DD, DU): None, (DU, UU): None, (DU, DU): None,
    (UU, DD): None, (UU, UD): None, (UD, DD): None, (UD, UD): None,
}


def ulp_bound(a, b) -> float:
    """A few roundings of the largest |a| @ |b| entry: how far two
    summation orders of a @ b may differ."""
    return 4 * np.finfo(float).eps * float((np.abs(a) @ np.abs(b)).max())


def op(rng, kind, n=2):
    return KindedOperator(random_complex(rng, n, n), kind)


MONOMIAL_METRIC = MetricOperator([[0, 2j, 0], [-2j, 0, 0], [0, 0, -1]])


def bits(entries) -> tuple[list, bytes]:
    """Positions and value bits of entries, so that -0.0 != 0.0."""
    return entries[0], np.array(entries[1], dtype=complex).tobytes()


class TestKindAlgebra:
    def test_all_sixteen_pairs(self, rng):
        legal = 0
        for (kx, ky), result in KIND_TABLE.items():
            x, y = op(rng, kx), op(rng, ky)
            if result is None:
                with pytest.raises(KindMismatch):
                    compose(x, y)
            else:
                z = compose(x, y)
                assert z.kind == result
                assert max_dev(z.mat, ascending_product(x.mat, y.mat)) == 0
                # BLAS may sum in another order or fuse multiply-adds
                assert max_dev(z.mat, x.mat @ y.mat) <= ulp_bound(x.mat, y.mat)
                legal += 1
        assert legal == 8

    def test_metric_times_inverse_is_up_identity(self, rng):
        m = random_metric(rng, 3)
        z = compose(metric_op(m), metric_inv_op(m))
        assert z.kind == UU
        assert max_dev(z.mat, np.eye(3)) < 1e-10
        z = compose(metric_inv_op(m), metric_op(m))
        assert z.kind == DD
        assert max_dev(z.mat, np.eye(3)) < 1e-10

    def test_identity_neutral(self, rng):
        a = op(rng, DD, 3)
        assert max_dev(compose(a, identity_down(3)).mat, a.mat) == 0

    def test_illegal_chain_message(self, rng):
        with pytest.raises(KindMismatch):
            compose(op(rng, DU), op(rng, DU))


class TestAdd:
    def test_projector_complement(self):
        p = KindedOperator(np.diag([1.0, 0.0]), DD)
        q = KindedOperator(np.diag([0.0, 1.0]), DD)
        assert max_dev(add(p, q).mat, np.eye(2)) == 0

    def test_kind_mismatch(self, rng):
        with pytest.raises(KindMismatch):
            add(op(rng, DD), op(rng, UU))

    def test_linearity(self, rng):
        x = op(rng, UD, 3)
        lhs = add(scale(2.0 + 1.0j, x), scale(0.5, x))
        assert max_dev(lhs.mat, (2.5 + 1.0j) * x.mat) < 1e-12


class TestHermitianAdjoint:
    def test_metric_is_hermitian(self, rng):
        m = random_metric(rng, 3)
        adj = hermitian_adjoint(metric_op(m))
        assert adj.kind == DU
        assert max_dev(adj.mat, m.eta) < 1e-12

    def test_identity_swaps_algebra(self):
        adj = hermitian_adjoint(identity_down(2))
        assert adj.kind == UU
        assert max_dev(adj.mat, np.eye(2)) == 0

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_involution(self, rng, kind):
        x = op(rng, kind, 3)
        back = hermitian_adjoint(hermitian_adjoint(x))
        assert back.kind == kind
        assert max_dev(back.mat, x.mat) == 0

    def test_matrix_element_contract(self, rng):
        x = op(rng, DD, 3)
        adj = hermitian_adjoint(x)
        for i in range(3):
            for j in range(3):
                assert adj.mat[i, j] == np.conj(x.mat[j, i])


class TestCoupleOperator:
    def test_unit_metric(self, rng):
        m = MetricOperator(np.eye(2))
        a = op(rng, DD)
        hat = couple_operator(m, a)
        assert hat.kind == UU
        assert max_dev(hat.mat, a.mat) < 1e-12

    def test_hand_conjugation(self):
        m = MetricOperator(np.diag([1.0, -1.0]))
        a = KindedOperator([[0, 1], [0, 0]], DD)
        hat = couple_operator(m, a)
        assert max_dev(hat.mat, [[0, -1], [0, 0]]) == 0

    def test_trace_preserved(self, rng):
        m = random_metric(rng, 4)
        for _ in range(10):
            a = op(rng, DD, 4)
            assert abs(trace(couple_operator(m, a)) - trace(a)) < 1e-10

    def test_wrong_kind(self, rng):
        m = random_metric(rng, 2)
        with pytest.raises(WrongKind):
            couple_operator(m, op(rng, DU))

    def test_round_trip(self, rng):
        m = random_metric(rng, 3)
        a = op(rng, DD, 3)
        back = couple_operator(m, couple_operator(m, a))
        assert back.kind == DD
        assert max_dev(back.mat, a.mat) < 1e-10


class TestDiracAdjoint:
    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("dense", [False, True], ids=["monomial", "dense"])
    def test_entries_of_the_explicit_dressings(self, rng, kind, dense):
        # a monomial metric holds its inverse's entries from the start; a
        # dense one derives them from linalg.inverse
        m = random_metric(rng, 3) if dense else MONOMIAL_METRIC
        x = op(rng, kind, 3)
        adj = _adjoint(x._entries, 3, 3)
        want = {
            DD: lambda: _chain(3, m._inv_entries, adj, m._entries),
            UU: lambda: _chain(3, m._entries, adj, m._inv_entries),
        }.get(kind, lambda: adj)()
        bar = dirac_adjoint(x, m)
        assert bar.kind == kind
        assert bits(bar._entries) == bits(want)

    def test_metric_and_identities_self_adjoint(self, rng):
        m = random_metric(rng, 3)
        for x in (metric_op(m), metric_inv_op(m), identity_down(3), identity_up(3)):
            bar = dirac_adjoint(x, m)
            assert bar.kind == x.kind
            assert max_dev(bar.mat, x.mat) < 1e-10

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_involution(self, rng, kind):
        m = random_metric(rng, 3)
        x = op(rng, kind, 3)
        back = dirac_adjoint(dirac_adjoint(x, m), m)
        assert back.kind == kind
        assert max_dev(back.mat, x.mat) < 1e-12

    def test_anti_multiplicative_same_algebra(self, rng):
        m = random_metric(rng, 3)
        for kind in (DD, UU):
            for _ in range(10):
                x, y = op(rng, kind, 3), op(rng, kind, 3)
                lhs = dirac_adjoint(compose(x, y), m)
                rhs = compose(dirac_adjoint(y, m), dirac_adjoint(x, m))
                assert lhs.kind == rhs.kind
                assert max_dev(lhs.mat, rhs.mat) < 1e-11

    def test_anti_multiplicative_cross_pairs_couple(self, rng):
        # For du.ud (and ud.du) both sides compose, but they land in the
        # two different endomorphism algebras; the identity holds through
        # the canonical metric coupling between them.
        m = random_metric(rng, 3)
        for kx, ky in ((DU, UD), (UD, DU)):
            x, y = op(rng, kx, 3), op(rng, ky, 3)
            lhs = dirac_adjoint(compose(x, y), m)
            rhs = compose(dirac_adjoint(y, m), dirac_adjoint(x, m))
            assert lhs.kind != rhs.kind
            assert max_dev(lhs.mat, couple_operator(m, rhs).mat) < 1e-11

    def test_anti_linear(self, rng):
        m = random_metric(rng, 3)
        a, b = op(rng, DD, 3), op(rng, DD, 3)
        alpha, beta = 1.5 - 0.5j, -0.25 + 2.0j
        lhs = dirac_adjoint(add(scale(alpha, a), scale(beta, b)), m)
        rhs = add(
            scale(np.conj(alpha), dirac_adjoint(a, m)),
            scale(np.conj(beta), dirac_adjoint(b, m)),
        )
        assert max_dev(lhs.mat, rhs.mat) < 1e-11


class TestSemiHermitian:
    def test_identity(self, rng):
        m = random_metric(rng, 3)
        assert is_semi_hermitian(identity_down(3), m, 1e-12)

    def test_hand_counterexample(self):
        # A+ = A but eta A eta_inv = -A for the off-diagonal flip
        m = MetricOperator(np.diag([1.0, -1.0]))
        a = KindedOperator([[0, 1], [1, 0]], DD)
        assert not is_semi_hermitian(a, m, 1e-10)

    def test_unit_metric_degenerates_to_hermitian(self, rng):
        m = MetricOperator(np.eye(3))
        for _ in range(10):
            mat = random_complex(rng, 3, 3)
            x = KindedOperator(mat, DD)
            assert is_semi_hermitian(x, m, 1e-12) == (max_dev(mat, mat.conj().T) <= 1e-12)

    def test_symmetrized_sample(self, rng):
        m = random_metric(rng, 4)
        a = KindedOperator(random_semi_hermitian(rng, m), DD)
        assert is_semi_hermitian(a, m, 1e-10)

    def test_matrix_element_identity(self, rng):
        # eta_ik A^k_l (eta_inv)^lj = conj(A^j_i) for self-adjoint A
        m = random_metric(rng, 3)
        a = random_semi_hermitian(rng, m)
        dressed = m.eta @ a @ m.eta_inv
        assert max_dev(dressed, a.conj().T) < 1e-10

    def test_cross_kind_rejected(self, rng):
        m = random_metric(rng, 2)
        with pytest.raises(WrongKind):
            is_semi_hermitian(op(rng, DU), m, 1e-10)


class TestTrace:
    def test_identity(self):
        assert trace(identity_down(5)) == 5

    def test_cross_kind_rejected(self, rng):
        with pytest.raises(WrongKind):
            trace(op(rng, DU))
        with pytest.raises(WrongKind):
            trace(op(rng, UD))

    def test_generator_trace_is_metric_entry(self, rng):
        # Tr X_ij contracts delta^k_i eta_jk to eta_ji
        m = random_metric(rng, 3)
        for i in range(1, 4):
            for j in range(1, 4):
                assert abs(trace(generator_x(i, j, m)) - m.eta[j - 1, i - 1]) < 1e-12
