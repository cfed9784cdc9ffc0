"""The operator algebra, the pairings and the expression language compute
on entries in pure Python; every result agrees with the dense numpy
computation within 1e-12, on seeded random operators with some zero
entries, under a dense and a monomial metric, and on the sparse
generators of a dim-40 bundle."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from braket import (
    KindedOperator,
    MetricOperator,
    OperatorKind,
    Variance,
    VarVector,
    Weight,
    add,
    build_rep,
    compose,
    couple,
    couple_operator,
    dirac_adjoint,
    dual_form,
    hermitian_adjoint,
    is_semi_hermitian,
    relate_bra,
    scalar_product,
    scale,
    trace,
)
from braket.dsl import Environment, eval_source
from braket.linalg import _entries
from conftest import ascending_product, max_dev, random_complex, random_hermitian_invertible

TOL = 1e-12
DD, UU = OperatorKind.DOWN_DOWN, OperatorKind.UP_UP


def sparse_complex(rng, *shape) -> np.ndarray:
    """A random complex array with about a third of its entries zero."""
    a = random_complex(rng, *shape)
    a[rng.random(shape) < 0.35] = 0
    return a


def monomial_metric(rng, n: int) -> MetricOperator:
    """A hermitian monomial metric, built from its entries: a diagonal of
    both signs and, from n = 2 on, a mirrored complex pair in rows 0, 1."""
    eta = np.diag(rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)).astype(complex)
    if n >= 2:
        c = complex(*rng.uniform(0.5, 2.0, 2))
        eta[:2, :2] = [[0, c], [c.conjugate(), 0]]
    return MetricOperator._from_entries(n, _entries(eta))


def metrics(rng, n: int):
    return [MetricOperator(random_hermitian_invertible(rng, n)), monomial_metric(rng, n)]


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_operator_algebra_matches_numpy(rng, n):
    for m in metrics(rng, n):
        eta, inv = m.eta, m.eta_inv
        for kx in OperatorKind:
            a = sparse_complex(rng, n, n)
            x = KindedOperator(a, kx)
            adj = a.conj().T
            assert max_dev(hermitian_adjoint(x).mat, adj) == 0
            assert max_dev(scale(0.5 - 2j, x).mat, (0.5 - 2j) * a) < TOL
            want = {DD: inv @ adj @ eta, UU: eta @ adj @ inv}.get(kx, adj)
            assert max_dev(dirac_adjoint(x, m).mat, want) < TOL
            if kx.is_endomorphism:
                assert abs(trace(x) - np.trace(a)) < TOL
                coupled = eta @ a @ inv if kx == DD else inv @ a @ eta
                assert max_dev(couple_operator(m, x).mat, coupled) < TOL
                bar = dirac_adjoint(x, m).mat
                assert is_semi_hermitian(x, m, 1e-9) == (max_dev(bar, a) <= 1e-9)
            for ky in OperatorKind:
                b = sparse_complex(rng, n, n)
                y = KindedOperator(b, ky)
                if kx == ky:
                    assert max_dev(add(x, y).mat, a + b) < TOL
                if ky.codomain_up == kx.domain_up:
                    assert max_dev(compose(x, y).mat, a @ b) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_pairings_match_numpy(rng, n):
    for m in metrics(rng, n):
        eta, inv = m.eta, m.eta_inv
        a, b = sparse_complex(rng, n), sparse_complex(rng, n)
        x, y = VarVector(a, Variance.KET_DOWN), VarVector(b, Variance.KET_DOWN)
        xu, yu = VarVector(a, Variance.KET_UP), VarVector(b, Variance.KET_UP)
        assert max_dev(relate_bra(x).components, a.conj()) == 0
        assert max_dev(couple(m, x).components, eta @ a) < TOL
        assert max_dev(couple(m, xu).components, inv @ a) < TOL
        assert abs(dual_form(relate_bra(xu), y) - a.conj() @ b) < TOL
        assert abs(scalar_product(m, x, y) - a.conj() @ eta @ b) < TOL
        assert abs(scalar_product(m, xu, yu) - a.conj() @ inv @ b) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_expression_products_match_numpy(rng, n):
    for m in metrics(rng, n):
        eta, inv = m.eta, m.eta_inv
        a, b, op = sparse_complex(rng, n), sparse_complex(rng, n), sparse_complex(rng, n, n)
        env = Environment(
            dimension=n,
            metric=m,
            vectors={"x": VarVector(a, Variance.KET_DOWN), "y": VarVector(b, Variance.KET_DOWN)},
            operators={"A": KindedOperator(op, DD)},
        )
        outer = np.outer(a, b.conj())
        assert max_dev(eval_source("kd:x bu:y", env).mat, outer) < TOL
        assert max_dev(eval_source("ku:x bd:y", env).mat, outer) < TOL
        assert abs(eval_source("bd:x kd:y", env) - a.conj() @ eta @ b) < TOL
        assert abs(eval_source("bu:x ku:y", env) - a.conj() @ inv @ b) < TOL
        assert abs(eval_source("bu:x A kd:y", env) - a.conj() @ op @ b) < TOL
        assert max_dev(eval_source("bu:x A", env).components, a.conj() @ op) < TOL
        assert max_dev(eval_source("A kd:x bu:y", env).mat, op @ outer) < TOL
        assert max_dev(eval_source("eta kd:x", env).components, eta @ a) < TOL
        assert max_dev(eval_source("A - (2+1i) * A", env).mat, (-1 - 1j) * op) < TOL


@pytest.mark.parametrize("n", [3, 6])
def test_products_sum_in_ascending_k(rng, n):
    # bit for bit, as documented; numpy's BLAS may sum in another order
    for _ in range(5):
        a, b = sparse_complex(rng, n, n), sparse_complex(rng, n, n)
        z = compose(KindedOperator(a, DD), KindedOperator(b, DD))
        assert max_dev(z.mat, ascending_product(a, b)) == 0


def test_bundle_generators_match_numpy():
    # the sparse generators of the dim-40 (2, 3/2) bundle, with its monomial metric
    rep = build_rep(Weight(4), Weight(3))
    gens = [KindedOperator._from_entries(rep.dim, e, DD) for e in rep._mn]
    dense = rep.M + rep.N
    eta, inv = rep.metric.eta, rep.metric.eta_inv
    for x, a in zip(gens, dense):
        assert max_dev(x.mat, a) == 0
        assert max_dev(hermitian_adjoint(x).mat, a.conj().T) == 0
        assert max_dev(dirac_adjoint(x, rep.metric).mat, inv @ a.conj().T @ eta) < TOL
        assert max_dev(couple_operator(rep.metric, x).mat, eta @ a @ inv) < TOL
        assert abs(trace(x) - np.trace(a)) < TOL
        for y, b in zip(gens, dense):
            assert max_dev(compose(x, y).mat, a @ b) < TOL
            assert max_dev(add(x, y).mat, a + b) < TOL
    m1, m2 = gens[:2]
    commutator = add(compose(m1, m2), scale(-1, compose(m2, m1)))
    assert max_dev(commutator.mat, 1j * rep.M[2]) < 1e-10


def test_values_stay_read_only():
    x = KindedOperator(np.eye(2), DD)
    v = VarVector(np.ones(2), Variance.KET_DOWN)
    for value, attr in ((x, "mat"), (x, "kind"), (v, "components"), (v, "variance")):
        with pytest.raises(FrozenInstanceError):
            setattr(value, attr, getattr(value, attr))
    assert not compose(x, x).mat.flags.writeable
    assert not relate_bra(v).components.flags.writeable
