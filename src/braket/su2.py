"""Canonical su(2) irreducible representation matrices.

Weights are stored as twice-j integers so half-integer spins stay exact.
The canonical basis orders magnetic labels descending (j, j-1, ..., -j)
and ladder matrix elements are non-negative reals (Condon-Shortley), so
the three generator matrices are hermitian and satisfy the su(2)
commutation relations to machine precision.

The generators are made as entries (see entries) in pure Python, so a
bundle built from them loads no numpy: their non-zero values are those
of the dense construction, and their zeros are unsigned. su2_generators
and ladder_plus make dense arrays of them, and load numpy when called.
"""

from __future__ import annotations

from functools import total_ordering
from math import sqrt

from .entries import _cartesian, _pair, _ReadOnly, _Value
from .errors import InvalidWeights

__all__ = ["Weight", "Su2Irrep", "su2_generators", "ladder_plus"]


def twice_half_integer(x, name: str) -> int:
    """Twice a half-integer given as int, float or Fraction.

    Anything else, including a bool, NaN and the infinities, raises
    InvalidWeights naming the argument. An exact int or Fraction is read
    at once, and any other integral number (a numpy integer, say) is
    doubled exactly, not through a float.
    """
    kind = type(x)
    if kind is int:
        return 2 * x
    import fractions  # a plain import of a loaded module is cheap, a from-import is not

    if kind is not fractions.Fraction:
        import numbers

        if isinstance(x, bool) or not isinstance(x, numbers.Real):  # bool is an int, but no weight
            raise InvalidWeights(f"{name}={x!r} is not a number")
        if isinstance(x, numbers.Integral):
            return 2 * int(x)
        if not isinstance(x, fractions.Fraction):
            doubled = 2 * float(x)
            if not doubled.is_integer():
                raise InvalidWeights(f"{name}={x} is not a half-integer")
            return int(doubled)
    # Fractions are stored in lowest terms, so no arithmetic is needed.
    den = x.denominator
    if den == 1:
        return 2 * x.numerator
    if den == 2:
        return x.numerator
    raise InvalidWeights(f"{name}={x} is not a half-integer")


@total_ordering
class Weight(_Value):
    """A non-negative half-integer weight stored as twice its value."""

    _fields = ("twice_j",)

    def __init__(self, twice_j: int):
        # bool is an int, but no weight: its JSON would be true or false
        if not isinstance(twice_j, int) or isinstance(twice_j, bool) or twice_j < 0:
            raise InvalidWeights(f"twice_j must be a non-negative int, got {twice_j!r}")
        self.__dict__["twice_j"] = twice_j

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.twice_j < other.twice_j

    @classmethod
    def from_j(cls, j) -> "Weight":
        """Accept a non-negative half-integer j given as int, float or Fraction."""
        return cls(twice_half_integer(j, "j"))

    @property
    def j(self) -> Fraction:
        import fractions

        return fractions.Fraction(self.twice_j, 2)

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    def __str__(self):
        return str(self.j)


class Su2Irrep(_ReadOnly):
    """The three canonical generator matrices of the weight-j irrep."""

    def __init__(self, j: Weight, J: tuple[np.ndarray, np.ndarray, np.ndarray]):
        self.__dict__.update(j=j, J=J)

    @property
    def dim(self) -> int:
        return self.j.dim

    @property
    def casimir(self) -> np.ndarray:
        return sum(m @ m for m in self.J)


def _ladder(j: Weight) -> list[float]:
    """<l+1|J+|l> = sqrt(j(j+1) - l(l+1)) for the states l = j-1, ..., -j
    being raised, in row order: the superdiagonal of J+."""
    jj = j.twice_j / 2.0
    lams = (jj - row - 1 for row in range(j.dim - 1))
    return [sqrt(jj * (jj + 1) - lam * (lam + 1)) for lam in lams]


def _generator_entries(j: Weight) -> tuple[tuple[list, list], ...]:
    """Entries of J1 = (J+ + J-)/2, J2 = (J+ - J-)/(2i) and
    J3 = diag(j, ..., -j), J- = J+^H, J+ holding the ladder on its
    superdiagonal."""
    d = j.dim
    raising = {row * d + row + 1: v for row, v in enumerate(_ladder(j))}
    jj = j.twice_j / 2.0
    j3 = {k * d + k: jj - k for k in range(d)}
    return (*_cartesian(d, raising), _pair(j3))


def ladder_plus(j: Weight) -> np.ndarray:
    """Raising matrix: <l+1|J+|l> = sqrt(j(j+1) - l(l+1)) on the superdiagonal."""
    from .linalg import _dense

    d = j.dim
    return _dense(d, ([row * d + row + 1 for row in range(d - 1)], _ladder(j)))


def su2_generators(j: Weight) -> Su2Irrep:
    """Canonical irrep matrices (J1, J2, J3) of weight j.

    J3 is diagonal descending, J1 = (J+ + J-)/2, J2 = (J+ - J-)/(2i).
    """
    from .linalg import _dense

    return Su2Irrep(j, tuple(_dense(j.dim, e) for e in _generator_entries(j)))
