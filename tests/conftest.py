"""Shared helpers: seeded random generators for matrices, metrics and
semi-hermitian data, and one derandomized hypothesis profile so that every
property test draws the same examples on every run."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import settings

from braket import MetricOperator, subspace_projector

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def ascending_product(a, b) -> np.ndarray:
    """a @ b with each entry summed over k in ascending order, in Python
    complex arithmetic: what operators.compose computes, to the bit."""
    a, b = a.tolist(), b.tolist()
    n = len(b)
    return np.array([[sum((a[i][k] * b[k][j] for k in range(n)), 0j) for j in range(len(b[0]))]
                     for i in range(len(a))])


def random_complex(rng, *shape) -> np.ndarray:
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


def random_invertible(rng, n: int, min_sv: float = 0.2) -> np.ndarray:
    """Random complex matrix rejected until comfortably invertible."""
    while True:
        t = random_complex(rng, n, n)
        if np.linalg.svd(t, compute_uv=False)[-1] >= min_sv:
            return t


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian_invertible(rng, n: int) -> np.ndarray:
    """Well-conditioned hermitian matrix with eigenvalues of both signs."""
    q = random_unitary(rng, n)
    signs = rng.choice([-1.0, 1.0], n)
    if np.all(signs == signs[0]):  # force an indefinite spectrum
        signs[0] = -signs[0]
    lam = signs * rng.uniform(0.5, 2.0, n)
    return q @ np.diag(lam) @ q.conj().T


def random_metric(rng, n: int) -> MetricOperator:
    return MetricOperator(random_hermitian_invertible(rng, n))


def random_semi_hermitian(rng, m: MetricOperator) -> np.ndarray:
    """Random matrix equal to its Dirac adjoint for the given metric."""
    b = random_complex(rng, m.dim, m.dim)
    return (b + m.eta_inv @ b.conj().T @ m.eta) / 2.0


def random_metric_projector(rng, m: MetricOperator, rank: int):
    """Random semi-hermitian projector of the given rank (resampled until
    the chosen subspace is nondegenerate and well conditioned)."""
    from braket.errors import Singular

    while True:
        v = np.linalg.qr(random_complex(rng, m.dim, rank))[0]
        gram = v.conj().T @ m.eta @ v
        if np.linalg.svd(gram, compute_uv=False)[-1] < 0.1:
            continue
        try:
            return subspace_projector(m, v)
        except Singular:
            continue


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def forbid_dense(monkeypatch, what: str):
    """Make linalg._dense, the one maker of a dense matrix from entries,
    raise AssertionError(what), in linalg and in every loaded braket module
    that holds a name for it."""
    from braket.linalg import _dense

    def no_dense(*args):
        raise AssertionError(what)

    for name, module in list(sys.modules.items()):
        if name.startswith("braket.") and getattr(module, "_dense", None) is _dense:
            monkeypatch.setattr(module, "_dense", no_dense)
