"""The operator algebra, the pairings and the expression language compute
on entries in pure Python; every result agrees with the dense numpy
computation within 1e-12, on seeded random operators with some zero
entries, under a dense and a monomial metric, and on the sparse
generators of a dim-40 bundle. The symmetry test's entries route (a dd
operator) and dense route (an array) give the same verdict, the same
exception class and deviations within 1e-15 max(1, |U|^2), NaN, infinite
and 1e308 entries included. (Near the float range the two can still
differ: BLAS may add a sum's terms in an order whose partial sum
overflows where the ascending order does not.) A magnitude past the
float range counts as inf."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from braket import (
    BraketError,
    GaugeParams,
    InvalidArgument,
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
    group_element,
    hermitian_adjoint,
    is_semi_hermitian,
    relate_bra,
    scalar_product,
    scale,
    symmetry_deviation,
    trace,
)
from braket.dsl import Environment, eval_source
from braket.entries import _max_abs
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


def both_routes(u: np.ndarray, m: MetricOperator) -> list:
    """symmetry_deviation of u as an array and as a dd operator, or the
    class of the error each raises."""
    out = []
    for arg in (u, KindedOperator(u, DD)):
        try:
            out.append(symmetry_deviation(arg, m))
        except BraketError as exc:
            out.append(type(exc))
    return out


def assert_routes_agree(u: np.ndarray, m: MetricOperator):
    dense, sparse = both_routes(u, m)
    if isinstance(dense, type) or isinstance(sparse, type):
        assert dense is sparse
    elif math.isnan(dense) or math.isnan(sparse):
        assert math.isnan(dense) and math.isnan(sparse)
    else:
        assert (dense <= 1e-8) == (sparse <= 1e-8)
        with np.errstate(over="ignore"):  # |U|^2 of a 1e308 entry is inf
            assert abs(dense - sparse) <= 1e-15 * max(1.0, np.linalg.norm(u, 2) ** 2)


def boost(n: int, i: int, j: int, rapidity: float) -> np.ndarray:
    """The hyperbolic rotation of basis vectors i and j in dimension n."""
    u = np.eye(n, dtype=complex)
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    u[[i, i, j, j], [i, j, i, j]] = [c, s, s, c]
    return u


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_symmetry_routes_agree(rng, n):
    diag = MetricOperator(np.diag(rng.choice([-1.0, 1.0], n)))
    for m in (diag, *metrics(rng, n)):
        assert_routes_agree(np.eye(n), m)
        for _ in range(4):
            assert_routes_agree(sparse_complex(rng, n, n), m)
    signs = np.diag(diag.eta).real
    for i, j in zip(*np.nonzero(signs[:, None] != signs[None, :])):
        for rapidity in (0.3, -2.0, 8.0):
            u = boost(n, i, j, rapidity)
            assert_routes_agree(u, diag)
            assert both_routes(u, diag)[1] <= 1e-15 * np.linalg.norm(u, 2) ** 2


@pytest.mark.parametrize("p, q", [(2, 2), (8, 8)])
def test_symmetry_routes_agree_on_gauge_elements(rng, p, q):
    # as the benchmark's warm workload makes them
    m = MetricOperator(np.diag([1.0] * p + [-1.0] * q))
    for _ in range(3):
        params = GaugeParams.from_real_parameters(*0.3 * rng.normal(size=(2, p + q, p + q)))
        u = group_element(params, m)
        assert_routes_agree(u, m)
        assert both_routes(u, m)[1] <= 1e-8


@pytest.mark.parametrize("entry", [np.nan, complex(np.nan, 1), np.inf, -np.inf,
                                   complex(0, -np.inf), 1e308, complex(-1e308, 1e308)],
                         ids=["nan", "nan-real", "inf", "-inf", "-inf-imag", "1e308",
                              "1e308-both"])
@pytest.mark.parametrize("n", [1, 2, 6])
def test_symmetry_routes_agree_on_non_finite_entries(rng, n, entry):
    for m in (MetricOperator(np.diag(rng.choice([-1.0, 1.0], n))), *metrics(rng, n)):
        for _ in range(3):
            u = sparse_complex(rng, n, n)
            u[rng.integers(n), rng.integers(n)] = entry
            assert_routes_agree(u, m)


def test_magnitude_past_the_float_range_is_inf():
    # abs() raises OverflowError on such a finite complex; math.hypot gives inf
    z = complex(1.5e308, 1.5e308)
    assert _max_abs([1.0, z]) == math.inf
    assert math.isnan(_max_abs([z, complex(math.nan, 0)]))
    assert _max_abs([2.0, -3j]) == 3.0
    m = MetricOperator._from_entries(2, ([1, 2], [z, z.conjugate()]))
    assert m._mono is not None
    assert symmetry_deviation(KindedOperator(np.eye(2), DD), m) == 0.0
    # U+ . eta . U - eta = [[0, z - 1], [conj(z) - 1, 0]]: finite parts, an
    # infinite magnitude, an overflow on either route
    swap, u = MetricOperator(np.array([[0, 1], [1, 0]])), np.diag([1, z])
    for arg in (u, KindedOperator(u, DD)):
        with pytest.raises(InvalidArgument, match="NaN or infinite"):
            symmetry_deviation(arg, swap)
