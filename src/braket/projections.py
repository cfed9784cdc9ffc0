"""Projection operators and orthogonal decomposition under an indefinite metric.

Additivity (both products vanish) and perp-ness (vanishing metric overlap)
are different conditions in general; they coincide exactly for projectors
that are self-adjoint with respect to the metric. Such projectors restrict
the metric to an hermitian subspace metric, giving coupled subspaces and
direct sums.
"""

from __future__ import annotations

import numpy as np

from .entries import _ReadOnly
from .errors import (
    DimensionMismatch,
    NotIdempotent,
    NotOrthonormalMetric,
    NotSemiHermitian,
    Singular,
    WrongKind,
)
from .linalg import DEFAULT_TOLS, _finite_square, inverse, max_abs
from .operators import KindedOperator, OperatorKind
from .spaces import MetricOperator

__all__ = [
    "Projector",
    "is_perp",
    "is_additive",
    "coupled_subspace_metric",
    "elementary_projectors",
    "orthonormal_split",
    "subspace_projector",
]


class Projector(_ReadOnly):
    """An idempotent ket-down endomorphism."""

    def __init__(self, op: KindedOperator):
        if op.kind != OperatorKind.DOWN_DOWN:
            raise WrongKind(f"projectors are ket-down endomorphisms, got {op.kind.value}")
        _finite_square(op.mat)  # NaN would pass the idempotency check below
        if max_abs(op.mat @ op.mat - op.mat) > DEFAULT_TOLS.eq_tol:
            raise NotIdempotent("matrix is not idempotent within eq_tol")
        self.__dict__["op"] = op

    @classmethod
    def from_matrix(cls, mat) -> "Projector":
        return cls(KindedOperator(mat, OperatorKind.DOWN_DOWN))

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim


def is_perp(p: Projector, q: Projector, m: MetricOperator, tol: float) -> bool:
    """Whether the metric overlap P+ . eta . Q vanishes within tol."""
    _same_dim(p, q, m)
    return max_abs(p.mat.conj().T @ m.eta @ q.mat) <= tol


def is_additive(p: Projector, q: Projector, tol: float) -> bool:
    """Whether both products PQ and QP vanish within tol (then P+Q projects)."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimensions differ: {p.dim} vs {q.dim}")
    if max_abs(p.mat @ q.mat) > tol or max_abs(q.mat @ p.mat) > tol:
        return False
    total = p.mat + q.mat
    if max_abs(total @ total - total) > 4 * tol:
        raise NotIdempotent("additive pair failed the sum idempotency check")
    return True


def coupled_subspace_metric(p: Projector, m: MetricOperator, tol: float) -> np.ndarray:
    """Restriction eta_P = eta . P of the metric to the range of P.

    Only semi-hermitian projectors give an hermitian restriction, so the
    self-adjointness identity P+ . eta = eta . P is checked first. The
    result is hermitian, with a zero block outside the subspace, and
    invertible on the subspace in the sense of the pseudo-inverse
    identities eta_P . inv_P = P+ and inv_P . eta_P = P with
    inv_P = P . eta_inv; both are verified before returning.
    """
    _same_dim(p, p, m)
    pmat = p.mat
    if max_abs(pmat.conj().T @ m.eta - m.eta @ pmat) > tol:
        raise NotSemiHermitian("projector is not self-adjoint w.r.t. the metric")
    eta_p = m.eta @ pmat
    inv_p = pmat @ m.eta_inv
    if max_abs(eta_p - eta_p.conj().T) > tol:
        raise NotSemiHermitian("subspace metric failed the hermiticity check")
    if (
        max_abs(eta_p @ inv_p - pmat.conj().T) > tol
        or max_abs(inv_p @ eta_p - pmat) > tol
    ):
        raise Singular("subspace metric failed the pseudo-inverse identities")
    return eta_p


def elementary_projectors(n: int) -> list[Projector]:
    """The n rank-1 projectors onto the basis directions; a complete
    additive set summing to the identity."""
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    out = []
    for i in range(n):
        mat = np.zeros((n, n), dtype=complex)
        mat[i, i] = 1.0
        out.append(Projector.from_matrix(mat))
    return out


def orthonormal_split(m: MetricOperator) -> tuple[Projector, Projector]:
    """Split an orthonormal metric into its positive and negative parts.

    Requires the metric matrix to be diagonal with entries +-1. Returns
    (P_plus, P_minus): complementary, semi-hermitian, perp projectors with
    ranks equal to the signature.
    """
    eta = m.eta
    diag = np.diagonal(eta)
    off = eta - np.diag(diag)
    signs = np.sign(diag.real)
    tol = DEFAULT_TOLS.eq_tol
    if max_abs(off) > tol or max_abs(diag - signs) > tol:
        raise NotOrthonormalMetric("metric is not diagonal with entries +-1")
    plus = np.diag((signs > 0).astype(complex))
    minus = np.diag((signs < 0).astype(complex))
    return Projector.from_matrix(plus), Projector.from_matrix(minus)


def subspace_projector(m: MetricOperator, basis_columns) -> Projector:
    """Metric-orthogonal projector onto the span of the given columns.

    P = V (V+ eta V)^-1 V+ eta is idempotent and semi-hermitian by
    construction; it exists only when the subspace is nondegenerate,
    i.e. V+ eta V is invertible (Singular otherwise). This is the
    workhorse for generating valid orthogonal-decomposition data.
    """
    v = np.asarray(basis_columns, dtype=complex)
    if v.ndim != 2 or v.shape[0] != m.dim or v.shape[1] < 1:
        raise DimensionMismatch(f"basis columns must be {m.dim} x k, got {v.shape}")
    gram = v.conj().T @ m.eta @ v
    mat = v @ inverse(gram) @ v.conj().T @ m.eta
    return Projector.from_matrix(mat)


def _same_dim(p: Projector, q: Projector, m: MetricOperator):
    if p.dim != q.dim or p.dim != m.dim:
        raise DimensionMismatch(f"dimensions differ: {p.dim}, {q.dim}, metric {m.dim}")
