"""Coupled vector spaces in a fixed system of dual bases.

A metric operator (an invertible hermitian matrix) couples a space of
ket-down vectors with a space of ket-up vectors. Bra vectors are the
anti-linear partners of kets and are stored with their components already
conjugated, so dual forms are plain bilinear sums and no double
conjugation can sneak in. Scalar products insert the metric (or its
inverse) between two kets of equal variance and are hermitian but in
general indefinite.

Vectors and metrics hold a dense array or entries (see entries), as they
are given, and derive the other form once; both follow the one zero
rule, so a dense view equals the array made from the entries, bit for
bit. The bra relations, couple, dual_form and scalar_product compute on
entries in pure Python. numpy is loaded only by a dense argument, by
reading `components`, `eta` or `eta_inv`, by a metric that is not
monomial, and by raise_lower_index, which takes and returns arrays.
Both values are read-only through entries._ReadOnly, the one read-only
base of the library's values, and compare by identity.
"""

from __future__ import annotations

import enum
from functools import cached_property

from .entries import (
    DEFAULT_TOLS,
    _ReadOnly,
    _adjoint,
    _check_monomial_metric,
    _monomial_of,
    _only,
    _pair,
    _product,
)
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


class VarVector(_ReadOnly):
    """A component vector tagged with its variance.

    Bra components are stored post-conjugation (the image of the
    anti-linear bra relation), so every pairing below is a plain sum of
    products.

    A vector keeps the form it is given, a dense array or entries (see
    entries), and derives the other once, on first use.
    """

    def __init__(self, components, variance: Variance):
        from .linalg import as_vector

        comps = _read_only(as_vector(components) + 0j)
        self.__dict__.update(components=comps, variance=variance, dim=comps.shape[0])

    @classmethod
    def _from_entries(cls, dim: int, entries, variance: Variance) -> "VarVector":
        self = cls.__new__(cls)
        self.__dict__.update(dim=dim, _entries=entries, variance=variance)
        return self

    @cached_property
    def components(self) -> np.ndarray:
        from .linalg import _flat

        return _read_only(_flat(self.dim, self._entries))

    @cached_property
    def _entries(self) -> tuple[list, list]:
        from .linalg import _entries

        return _entries(self.components)

    def __repr__(self):
        return f"VarVector({self.variance.value}, {self.components!r})"


class MetricOperator(_ReadOnly):
    """Invertible hermitian matrix with a cached inverse.

    Hermiticity is exactly the condition that makes the induced bilinear
    forms hermitian, so non-hermitian candidates are rejected at
    construction rather than at use sites. Singular candidates are
    rejected for the same fail-fast reason.

    The check is picked by the value, whichever form it is given in. A
    monomial metric, as every bundle metric and diag(+-1) is, is checked
    on its d non-zeros in pure Python, and its inverse's entries are read
    off them. Any other metric is checked densely, with an SVD, and
    inverted by linalg.inverse. A dense metric whose number of non-zeros
    is not d is no monomial, and its entries are left to first use. eta,
    eta_inv and the entries of both, when not made by the check, are
    derived once, on first use.
    """

    def __init__(self, eta):
        from .linalg import _entries, _square

        eta = _read_only(_square(eta, "metric") + 0j)
        self.__dict__["eta"] = eta
        self._check(eta.shape[0], _entries(eta, eta.shape[0]))

    @classmethod
    def _from_entries(cls, dim: int, entries) -> "MetricOperator":
        """The metric with these entries, checked as a dense one is."""
        self = cls.__new__(cls)
        self._check(dim, entries)
        return self

    def _check(self, dim: int, entries):
        """Hold dim and the entries, None for a dense metric known not to be
        monomial, and check them: on the non-zeros of a monomial, densely
        otherwise."""
        if entries is None:
            mono = None
            self.__dict__.update(dim=dim, _mono=None)
        else:
            mono = _monomial_of(dim, *entries)
            self.__dict__.update(dim=dim, _entries=entries, _mono=mono)
        if mono is None:
            from .linalg import inverse, max_abs

            if max_abs(self.eta - self.eta.conj().T) > DEFAULT_TOLS.herm_tol:
                raise NotHermitian("metric matrix must be hermitian")
            self.__dict__["eta_inv"] = _read_only(inverse(self.eta))
        else:
            _check_monomial_metric(*mono)
            cols, vals = mono
            inv = {c * dim + i: 1 / v for i, (c, v) in enumerate(zip(cols, vals))}
            self.__dict__["_inv_entries"] = _pair(inv)

    @cached_property
    def _entries(self) -> tuple[list, list]:
        from .linalg import _entries

        return _entries(self.eta)

    @cached_property
    def _inv_entries(self) -> tuple[list, list]:
        """Entries of eta_inv; a monomial metric holds them from the start."""
        from .linalg import _entries

        return _entries(self.eta_inv)

    @cached_property
    def eta(self) -> np.ndarray:
        from .linalg import _dense

        return _read_only(_dense(self.dim, self._entries))

    @cached_property
    def eta_inv(self) -> np.ndarray:
        from .linalg import _dense

        return _read_only(_dense(self.dim, self._inv_entries))

    def __repr__(self):
        return f"MetricOperator(dim={self.dim})"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def relate_bra(v: VarVector) -> VarVector:
    """Anti-linear bra related to a ket: conjugate components, keep covariance."""
    if not v.variance.is_ket:
        raise WrongVariance(f"relate_bra expects a ket, got {v.variance.value}")
    return VarVector._from_entries(v.dim, _adjoint(v._entries, v.dim, 1), v.variance.bra_partner)


def relate_ket(b: VarVector) -> VarVector:
    """Inverse of relate_bra: the ket mutually related to a bra."""
    if not b.variance.is_bra:
        raise WrongVariance(f"relate_ket expects a bra, got {b.variance.value}")
    return VarVector._from_entries(b.dim, _adjoint(b._entries, 1, b.dim), b.variance.ket_partner)


def couple(m: MetricOperator, v: VarVector) -> VarVector:
    """Metric coupling between the two ket spaces.

    Ket-down components are lowered by the metric into ket-up components;
    ket-up components are sent back through the inverse, so the round trip
    is the identity.
    """
    if v.variance == Variance.KET_DOWN:
        carrier, variance = m._entries, Variance.KET_UP
    elif v.variance == Variance.KET_UP:
        carrier, variance = m._inv_entries, Variance.KET_DOWN
    else:
        raise WrongVariance(f"couple expects a ket, got {v.variance.value}")
    return VarVector._from_entries(m.dim, _product(carrier, _match(m, v), m.dim, 1), variance)


def _match(m: MetricOperator, v: VarVector) -> tuple[list, list]:
    if v.dim != m.dim:
        raise DimensionMismatch(f"vector dim {v.dim} != metric dim {m.dim}")
    return v._entries


def dual_form(b: VarVector, k: VarVector) -> complex:
    """Metric-free pairing of a bra with a ket of matching covariance.

    Legal pairs are (bra-up, ket-down) and (bra-down, ket-up); bra
    components are stored conjugated, so the value is a plain sum of
    products. Other pairings need a metric and are rejected.
    """
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
    return _only(_product(b._entries, k._entries, b.dim, 1))


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
    carrier = m._entries if x.variance == Variance.KET_DOWN else m._inv_entries
    bra = _product(_adjoint(_match(m, x), m.dim, 1), carrier, m.dim, m.dim)
    return _only(_product(bra, _match(m, y), m.dim, 1))


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
