"""Coupled vector spaces in a fixed system of dual bases.

A metric operator (an invertible hermitian matrix) couples a space of
ket-down vectors with a space of ket-up vectors. Bra vectors are the
anti-linear partners of kets and are stored with their components already
conjugated, so dual forms are plain bilinear sums and no double
conjugation can sneak in. Scalar products insert the metric (or its
inverse) between two kets of equal variance and are hermitian but in
general indefinite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .entries import DEFAULT_TOLS, _check_monomial_metric, _monomial_of, _pair
from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NotHermitian,
    VarianceMismatch,
    WrongVariance,
)

__all__ = [
    "Variance",
    "OperatorKind",
    "VarVector",
    "MetricOperator",
    "relate_bra",
    "relate_ket",
    "couple",
    "dual_form",
    "scalar_product",
    "raise_lower_index",
]


class Variance(enum.Enum):
    """The four variance characters a component vector can carry."""

    KET_DOWN = "kd"
    KET_UP = "ku"
    BRA_DOWN = "bd"
    BRA_UP = "bu"

    @property
    def is_ket(self) -> bool:
        return self in (Variance.KET_DOWN, Variance.KET_UP)

    @property
    def is_bra(self) -> bool:
        return not self.is_ket

    @property
    def is_down(self) -> bool:
        return self in (Variance.KET_DOWN, Variance.BRA_DOWN)

    @property
    def bra_partner(self) -> "Variance":
        """Variance of the mutually related bra (covariance is conserved)."""
        return {
            Variance.KET_DOWN: Variance.BRA_DOWN,
            Variance.KET_UP: Variance.BRA_UP,
        }[self]

    @property
    def ket_partner(self) -> "Variance":
        return {
            Variance.BRA_DOWN: Variance.KET_DOWN,
            Variance.BRA_UP: Variance.KET_UP,
        }[self]


class OperatorKind(enum.Enum):
    """Variance signature of an operator: (domain, codomain)."""

    DOWN_DOWN = "dd"
    UP_UP = "uu"
    DOWN_UP = "du"
    UP_DOWN = "ud"

    @property
    def domain_up(self) -> bool:
        return self in (OperatorKind.UP_UP, OperatorKind.UP_DOWN)

    @property
    def codomain_up(self) -> bool:
        return self in (OperatorKind.UP_UP, OperatorKind.DOWN_UP)

    @staticmethod
    def from_variances(domain_up: bool, codomain_up: bool) -> "OperatorKind":
        return {
            (False, False): OperatorKind.DOWN_DOWN,
            (True, True): OperatorKind.UP_UP,
            (False, True): OperatorKind.DOWN_UP,
            (True, False): OperatorKind.UP_DOWN,
        }[(domain_up, codomain_up)]

    @property
    def adjoint_kind(self) -> "OperatorKind":
        """Kind of the hermitian adjoint: dd and uu swap, cross kinds stay."""
        return {
            OperatorKind.DOWN_DOWN: OperatorKind.UP_UP,
            OperatorKind.UP_UP: OperatorKind.DOWN_DOWN,
            OperatorKind.DOWN_UP: OperatorKind.DOWN_UP,
            OperatorKind.UP_DOWN: OperatorKind.UP_DOWN,
        }[self]

    @property
    def is_endomorphism(self) -> bool:
        return self in (OperatorKind.DOWN_DOWN, OperatorKind.UP_UP)


@dataclass(frozen=True, eq=False)
class VarVector:
    """A component vector tagged with its variance.

    Bra components are stored post-conjugation (the image of the
    anti-linear bra relation), so every pairing below is a plain sum of
    products.
    """

    components: np.ndarray
    variance: Variance

    def __post_init__(self):
        from .linalg import as_vector

        comps = as_vector(self.components).copy()
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    def __repr__(self):
        return f"VarVector({self.variance.value}, {self.components!r})"


class MetricOperator:
    """Invertible hermitian matrix with a cached inverse.

    Hermiticity is exactly the condition that makes the induced bilinear
    forms hermitian, so non-hermitian candidates are rejected at
    construction rather than at use sites. Singular candidates are
    rejected for the same fail-fast reason.

    A dense eta given to the constructor is checked densely and kept as a
    read-only copy beside its inverse. A metric built from entries (see
    entries), as every bundle metric is, must be monomial: it is checked
    on its d non-zeros in pure Python, and eta and eta_inv are made dense
    on first access, which is when numpy is loaded.
    """

    def __init__(self, eta):
        from .linalg import as_matrix, inverse, max_abs

        eta = as_matrix(eta)
        if eta.shape[0] != eta.shape[1]:
            raise DimensionMismatch(f"metric must be square, got {eta.shape}")
        if max_abs(eta - eta.conj().T) > DEFAULT_TOLS.herm_tol:
            raise NotHermitian("metric matrix must be hermitian")
        self.dim = eta.shape[0]
        self.eta = _read_only(eta.copy())
        self.eta_inv = _read_only(inverse(eta))

    @classmethod
    def _from_entries(cls, dim: int, entries) -> "MetricOperator":
        """The monomial metric with these non-zero entries and 0 elsewhere,
        checked as the constructor checks a dense matrix."""
        mono = _monomial_of(dim, *entries)
        if mono is None:
            raise InvalidArgument("metric entries need one non-zero in every row and column")
        _check_monomial_metric(*mono)
        self = cls.__new__(cls)
        self.dim, self._entries, self._mono = dim, entries, mono
        return self

    @cached_property
    def eta(self) -> np.ndarray:
        from .linalg import _dense

        return _read_only(_dense(self.dim, self._entries))

    @cached_property
    def eta_inv(self) -> np.ndarray:
        """1/vals at the transposed positions of the monomial's non-zeros."""
        from .linalg import _dense

        cols, vals = self._mono
        inv = {c * self.dim + i: 1 / v for i, (c, v) in enumerate(zip(cols, vals))}
        return _read_only(_dense(self.dim, _pair(inv)))

    def __repr__(self):
        return f"MetricOperator(dim={self.dim})"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def relate_bra(v: VarVector) -> VarVector:
    """Anti-linear bra related to a ket: conjugate components, keep covariance."""
    if not v.variance.is_ket:
        raise WrongVariance(f"relate_bra expects a ket, got {v.variance.value}")
    return VarVector(v.components.conj(), v.variance.bra_partner)


def relate_ket(b: VarVector) -> VarVector:
    """Inverse of relate_bra: the ket mutually related to a bra."""
    if not b.variance.is_bra:
        raise WrongVariance(f"relate_ket expects a bra, got {b.variance.value}")
    return VarVector(b.components.conj(), b.variance.ket_partner)


def couple(m: MetricOperator, v: VarVector) -> VarVector:
    """Metric coupling between the two ket spaces.

    Ket-down components are lowered by the metric into ket-up components;
    ket-up components are sent back through the inverse, so the round trip
    is the identity.
    """
    if v.variance == Variance.KET_DOWN:
        return VarVector(m.eta @ _match(m, v), Variance.KET_UP)
    if v.variance == Variance.KET_UP:
        return VarVector(m.eta_inv @ _match(m, v), Variance.KET_DOWN)
    raise WrongVariance(f"couple expects a ket, got {v.variance.value}")


def _match(m: MetricOperator, v: VarVector) -> np.ndarray:
    if v.dim != m.dim:
        raise DimensionMismatch(f"vector dim {v.dim} != metric dim {m.dim}")
    return v.components


def dual_form(b: VarVector, k: VarVector) -> complex:
    """Metric-free pairing of a bra with a ket of matching covariance.

    Legal pairs are (bra-up, ket-down) and (bra-down, ket-up); bra
    components are stored conjugated, so the value is a plain sum of
    products. Other pairings need a metric and are rejected.
    """
    import numpy as np

    legal = (
        (b.variance, k.variance) == (Variance.BRA_UP, Variance.KET_DOWN)
        or (b.variance, k.variance) == (Variance.BRA_DOWN, Variance.KET_UP)
    )
    if not legal:
        raise VarianceMismatch(
            f"no dual form for ({b.variance.value}, {k.variance.value}); "
            "equal up/down characters require the metric"
        )
    if b.dim != k.dim:
        raise DimensionMismatch(f"dimensions differ: {b.dim} vs {k.dim}")
    return complex(np.dot(b.components, k.components))


def scalar_product(m: MetricOperator, x: VarVector, y: VarVector) -> complex:
    """Metric-mediated hermitian form between two kets of equal variance.

    Indefinite in general: nonzero vectors can have vanishing "squared
    norm".
    """
    if x.variance != y.variance or not x.variance.is_ket:
        raise VarianceMismatch(
            f"scalar product needs two kets of equal variance, got "
            f"({x.variance.value}, {y.variance.value})"
        )
    carrier = m.eta if x.variance == Variance.KET_DOWN else m.eta_inv
    return complex(_match(m, x).conj() @ carrier @ _match(m, y))


def raise_lower_index(m: MetricOperator, comps, direction: str) -> np.ndarray:
    """Move component indices with the metric: 'lower' applies the metric,
    'raise' its inverse; the round trip is the identity."""
    from .linalg import as_vector

    v = as_vector(comps, m.dim)
    if direction == "lower":
        return m.eta @ v
    if direction == "raise":
        return m.eta_inv @ v
    raise InvalidArgument(f"direction must be 'lower' or 'raise', got {direction!r}")
