"""Kind-checked operator algebra over a pair of coupled spaces.

An operator matrix alone does not say which space it acts on, so every
matrix is tagged with one of four kinds, named by domain and codomain
variance: dd (ket-down to ket-down), uu, du (ket-down to ket-up, the kind
of the metric) and ud (the kind of the inverse metric). The tag gates
composition, sums, adjoints and traces, which is exactly the discipline
that keeps indefinite-metric calculations honest. OperatorKind is defined in
spaces, beside Variance, so that reading a kind loads no numpy.

The algebra computes on entries (see entries) in pure Python, so it
loads no numpy: a sparse operator, such as a bundle generator, costs in
proportion to its non-zeros, and a dense one of dimension d costs d^3
Python multiplications per product. numpy is loaded by a dense
constructor argument and by reading `mat`. An operator made from a dense
array stores it plus 0j, as entries' zero rule does, so its `mat` and its
entries agree bit for bit, -0.0 never included.
"""

from __future__ import annotations

from functools import cached_property

from .entries import _adjoint, _max_abs, _pair, _product, _scale, _sum, _trace
from .errors import DimensionMismatch, KindMismatch, WrongKind
from .spaces import MetricOperator, OperatorKind, _read_only, _ReadOnly

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


class KindedOperator(_ReadOnly):
    """A square complex matrix together with its operator kind.

    An operator keeps the form it is given, a dense array (checked
    square) or entries, and derives the other once, on first use.
    """

    def __init__(self, mat, kind: OperatorKind):
        from .linalg import as_matrix

        m = as_matrix(mat) + 0j
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"operator matrix must be square, got {m.shape}")
        self.__dict__.update(mat=_read_only(m), kind=kind, dim=m.shape[0])

    @classmethod
    def _from_entries(cls, dim: int, entries, kind: OperatorKind) -> "KindedOperator":
        self = cls.__new__(cls)
        self.__dict__.update(dim=dim, _entries=entries, kind=kind)
        return self

    @cached_property
    def mat(self) -> np.ndarray:
        from .linalg import _dense

        return _read_only(_dense(self.dim, self._entries))

    @cached_property
    def _entries(self) -> tuple[list, list]:
        from .linalg import _entries

        return _entries(self.mat)

    def __repr__(self):
        return f"KindedOperator({self.kind.value}, dim={self.dim})"


def _identity(n: int, kind: OperatorKind) -> KindedOperator:
    return KindedOperator._from_entries(n, _pair({k: 1.0 for k in range(0, n * n, n + 1)}), kind)


def identity_down(n: int) -> KindedOperator:
    """The identity of the ket-down endomorphism algebra."""
    return _identity(n, OperatorKind.DOWN_DOWN)


def identity_up(n: int) -> KindedOperator:
    """The identity of the ket-up endomorphism algebra."""
    return _identity(n, OperatorKind.UP_UP)


def metric_op(m: MetricOperator) -> KindedOperator:
    """The metric as a kinded operator (ket-down to ket-up)."""
    return KindedOperator._from_entries(m.dim, m._entries, OperatorKind.DOWN_UP)


def metric_inv_op(m: MetricOperator) -> KindedOperator:
    """The inverse metric as a kinded operator (ket-up to ket-down)."""
    return KindedOperator._from_entries(m.dim, m._inv_entries, OperatorKind.UP_DOWN)


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
    return KindedOperator._from_entries(x.dim, _chain(x.dim, x._entries, y._entries), kind)


def _chain(dim: int, *factors) -> tuple[list, list]:
    """Entries of the product of dim x dim matrices, left to right."""
    out = factors[0]
    for f in factors[1:]:
        out = _product(out, f, dim, dim)
    return out


def add(x: KindedOperator, y: KindedOperator) -> KindedOperator:
    """Sum of two operators of the same kind."""
    if x.kind != y.kind:
        raise KindMismatch(f"cannot add kinds {x.kind.value} and {y.kind.value}")
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {y.dim}")
    return KindedOperator._from_entries(x.dim, _sum(x._entries, y._entries), x.kind)


def scale(alpha: complex, x: KindedOperator) -> KindedOperator:
    return KindedOperator._from_entries(x.dim, _scale(complex(alpha), x._entries), x.kind)


def hermitian_adjoint(x: KindedOperator) -> KindedOperator:
    """Hermitian adjoint: conjugate-transposed matrix, adjoint kind."""
    adj = _adjoint(x._entries, x.dim, x.dim)
    return KindedOperator._from_entries(x.dim, adj, x.kind.adjoint_kind)


def couple_operator(m: MetricOperator, a: KindedOperator) -> KindedOperator:
    """Metric coupling of endomorphisms between the two algebras.

    A ket-down endomorphism A is carried to eta . A . eta_inv acting on
    ket-up vectors (and back through the inverse); the trace is preserved.
    """
    _match_dim(m, a)
    if a.kind == OperatorKind.DOWN_DOWN:
        mat = _chain(m.dim, m._entries, a._entries, m._inv_entries)
        return KindedOperator._from_entries(m.dim, mat, OperatorKind.UP_UP)
    if a.kind == OperatorKind.UP_UP:
        mat = _chain(m.dim, m._inv_entries, a._entries, m._entries)
        return KindedOperator._from_entries(m.dim, mat, OperatorKind.DOWN_DOWN)
    raise WrongKind(f"couple_operator expects kind dd or uu, got {a.kind.value}")


def dirac_adjoint(x: KindedOperator, m: MetricOperator) -> KindedOperator:
    """Metric-dressed adjoint, uniform across all four kinds.

    dd operators map to eta_inv . X+ . eta (kind preserved), uu operators
    to eta . X+ . eta_inv, cross kinds to the plain hermitian adjoint.
    The result is an anti-linear, anti-multiplicative involution.
    """
    _match_dim(m, x)
    adj = _adjoint(x._entries, x.dim, x.dim)
    if x.kind == OperatorKind.DOWN_DOWN:
        adj = _chain(m.dim, m._inv_entries, adj, m._entries)
    elif x.kind == OperatorKind.UP_UP:
        adj = _chain(m.dim, m._entries, adj, m._inv_entries)
    return KindedOperator._from_entries(x.dim, adj, x.kind)


def is_semi_hermitian(x: KindedOperator, m: MetricOperator, tol: float) -> bool:
    """Whether an endomorphism equals its Dirac adjoint within tol."""
    if not x.kind.is_endomorphism:
        raise WrongKind(f"semi-hermiticity is defined for dd/uu, got {x.kind.value}")
    bar = dirac_adjoint(x, m)
    return _max_abs(_sum(bar._entries, _scale(-1.0, x._entries))[1]) <= tol


def trace(x: KindedOperator) -> complex:
    """Trace of an endomorphism; cross kinds would contract mismatched
    index positions and are rejected."""
    if not x.kind.is_endomorphism:
        raise WrongKind(f"trace is defined for dd/uu, got {x.kind.value}")
    return _trace(x._entries, x.dim)


def _match_dim(m: MetricOperator, x: KindedOperator):
    if m.dim != x.dim:
        raise DimensionMismatch(f"operator dim {x.dim} != metric dim {m.dim}")
