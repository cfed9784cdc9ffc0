"""Kind-checked operator algebra over a pair of coupled spaces.

An operator matrix alone does not say which space it acts on, so every
matrix is tagged with one of four kinds, named by domain and codomain
variance: dd (ket-down to ket-down), uu, du (ket-down to ket-up, the kind
of the metric) and ud (the kind of the inverse metric). The tag gates
composition, sums, adjoints and traces, which is exactly the discipline
that keeps indefinite-metric calculations honest. OperatorKind is defined in
spaces, beside Variance, so that reading a kind loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, KindMismatch, WrongKind
from .linalg import as_matrix, max_abs
from .spaces import MetricOperator, OperatorKind

__all__ = [
    "OperatorKind",
    "KindedOperator",
    "identity_down",
    "identity_up",
    "metric_op",
    "metric_inv_op",
    "compose",
    "add",
    "scale",
    "hermitian_adjoint",
    "couple_operator",
    "dirac_adjoint",
    "is_semi_hermitian",
    "trace",
]


@dataclass(frozen=True, eq=False)
class KindedOperator:
    """A square complex matrix together with its operator kind."""

    mat: np.ndarray
    kind: OperatorKind

    def __post_init__(self):
        m = as_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"operator matrix must be square, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"KindedOperator({self.kind.value}, dim={self.dim})"


def identity_down(n: int) -> KindedOperator:
    """The identity of the ket-down endomorphism algebra."""
    return KindedOperator(np.eye(n, dtype=complex), OperatorKind.DOWN_DOWN)


def identity_up(n: int) -> KindedOperator:
    """The identity of the ket-up endomorphism algebra."""
    return KindedOperator(np.eye(n, dtype=complex), OperatorKind.UP_UP)


def metric_op(m: MetricOperator) -> KindedOperator:
    """The metric as a kinded operator (ket-down to ket-up)."""
    return KindedOperator(m.eta, OperatorKind.DOWN_UP)


def metric_inv_op(m: MetricOperator) -> KindedOperator:
    """The inverse metric as a kinded operator (ket-up to ket-down)."""
    return KindedOperator(m.eta_inv, OperatorKind.UP_DOWN)


def compose(x: KindedOperator, y: KindedOperator) -> KindedOperator:
    """Operator product x . y (y acts first).

    Legal exactly when y's codomain matches x's domain; 8 of the 16 kind
    pairs chain, the rest raise KindMismatch.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {y.dim}")
    if y.kind.codomain_up != x.kind.domain_up:
        raise KindMismatch(f"cannot compose {x.kind.value} after {y.kind.value}")
    kind = OperatorKind.from_variances(y.kind.domain_up, x.kind.codomain_up)
    return KindedOperator(x.mat @ y.mat, kind)


def add(x: KindedOperator, y: KindedOperator) -> KindedOperator:
    """Sum of two operators of the same kind."""
    if x.kind != y.kind:
        raise KindMismatch(f"cannot add kinds {x.kind.value} and {y.kind.value}")
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {y.dim}")
    return KindedOperator(x.mat + y.mat, x.kind)


def scale(alpha: complex, x: KindedOperator) -> KindedOperator:
    return KindedOperator(alpha * x.mat, x.kind)


def hermitian_adjoint(x: KindedOperator) -> KindedOperator:
    """Hermitian adjoint: conjugate-transposed matrix, adjoint kind."""
    return KindedOperator(x.mat.conj().T, x.kind.adjoint_kind)


def couple_operator(m: MetricOperator, a: KindedOperator) -> KindedOperator:
    """Metric coupling of endomorphisms between the two algebras.

    A ket-down endomorphism A is carried to eta . A . eta_inv acting on
    ket-up vectors (and back through the inverse); the trace is preserved.
    """
    _match_dim(m, a)
    if a.kind == OperatorKind.DOWN_DOWN:
        return KindedOperator(m.eta @ a.mat @ m.eta_inv, OperatorKind.UP_UP)
    if a.kind == OperatorKind.UP_UP:
        return KindedOperator(m.eta_inv @ a.mat @ m.eta, OperatorKind.DOWN_DOWN)
    raise WrongKind(f"couple_operator expects kind dd or uu, got {a.kind.value}")


def dirac_adjoint(x: KindedOperator, m: MetricOperator) -> KindedOperator:
    """Metric-dressed adjoint, uniform across all four kinds.

    dd operators map to eta_inv . X+ . eta (kind preserved), uu operators
    to eta . X+ . eta_inv, cross kinds to the plain hermitian adjoint.
    The result is an anti-linear, anti-multiplicative involution.
    """
    _match_dim(m, x)
    adj = x.mat.conj().T
    if x.kind == OperatorKind.DOWN_DOWN:
        return KindedOperator(m.eta_inv @ adj @ m.eta, OperatorKind.DOWN_DOWN)
    if x.kind == OperatorKind.UP_UP:
        return KindedOperator(m.eta @ adj @ m.eta_inv, OperatorKind.UP_UP)
    return KindedOperator(adj, x.kind)


def is_semi_hermitian(x: KindedOperator, m: MetricOperator, tol: float) -> bool:
    """Whether an endomorphism equals its Dirac adjoint within tol."""
    if not x.kind.is_endomorphism:
        raise WrongKind(f"semi-hermiticity is defined for dd/uu, got {x.kind.value}")
    bar = dirac_adjoint(x, m)
    return max_abs(bar.mat - x.mat) <= tol


def trace(x: KindedOperator) -> complex:
    """Trace of an endomorphism; cross kinds would contract mismatched
    index positions and are rejected."""
    if not x.kind.is_endomorphism:
        raise WrongKind(f"trace is defined for dd/uu, got {x.kind.value}")
    return complex(np.trace(x.mat))


def _match_dim(m: MetricOperator, x: KindedOperator):
    if m.dim != x.dim:
        raise DimensionMismatch(f"operator dim {x.dim} != metric dim {m.dim}")
