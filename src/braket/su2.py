"""Canonical su(2) irreducible representation matrices.

Weights are stored as twice-j integers so half-integer spins stay exact.
The canonical basis orders magnetic labels descending (j, j-1, ..., -j)
and ladder matrix elements are non-negative reals (Condon-Shortley), so
the three generator matrices are hermitian and satisfy the su(2)
commutation relations to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

import numpy as np

from .errors import InvalidWeights

__all__ = ["Weight", "Su2Irrep", "su2_generators", "ladder_plus"]


def twice_half_integer(x, name: str) -> int:
    """Twice a half-integer given as int, float or Fraction.

    Anything else, including NaN and the infinities, raises InvalidWeights
    naming the argument.
    """
    if isinstance(x, int):
        return 2 * int(x)
    if isinstance(x, Fraction):
        # Fractions are stored in lowest terms, so no arithmetic is needed.
        if x.denominator == 1:
            return 2 * x.numerator
        if x.denominator == 2:
            return x.numerator
        raise InvalidWeights(f"{name}={x} is not a half-integer")
    if isinstance(x, Real):
        doubled = 2 * float(x)
        if not doubled.is_integer():
            raise InvalidWeights(f"{name}={x} is not a half-integer")
        return int(doubled)
    raise InvalidWeights(f"{name}={x!r} is not a number")


@dataclass(frozen=True, order=True)
class Weight:
    """A non-negative half-integer weight stored as twice its value."""

    twice_j: int

    def __post_init__(self):
        if not isinstance(self.twice_j, int) or self.twice_j < 0:
            raise InvalidWeights(f"twice_j must be a non-negative int, got {self.twice_j!r}")

    @classmethod
    def from_j(cls, j) -> "Weight":
        """Accept a non-negative half-integer j given as int, float or Fraction."""
        return cls(twice_half_integer(j, "j"))

    @property
    def j(self) -> Fraction:
        return Fraction(self.twice_j, 2)

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    def __str__(self):
        return str(self.j)


@dataclass(frozen=True, eq=False)
class Su2Irrep:
    """The three canonical generator matrices of the weight-j irrep."""

    j: Weight
    J: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def dim(self) -> int:
        return self.j.dim

    @property
    def casimir(self) -> np.ndarray:
        return sum(m @ m for m in self.J)


def ladder_plus(j: Weight) -> np.ndarray:
    """Raising matrix: <l+1|J+|l> = sqrt(j(j+1) - l(l+1)) on the superdiagonal."""
    d = j.dim
    jj = j.twice_j / 2.0
    mat = np.zeros((d, d), dtype=complex)
    for row in range(d - 1):
        lam = jj - row - 1  # the state being raised
        mat[row, row + 1] = np.sqrt(jj * (jj + 1) - lam * (lam + 1))
    return mat


def su2_generators(j: Weight) -> Su2Irrep:
    """Canonical irrep matrices (J1, J2, J3) of weight j.

    J3 is diagonal descending, J1 = (J+ + J-)/2, J2 = (J+ - J-)/(2i).
    """
    d = j.dim
    jj = j.twice_j / 2.0
    plus = ladder_plus(j)
    minus = plus.conj().T
    j1 = (plus + minus) / 2.0
    j2 = (plus - minus) / 2.0j
    j3 = np.diag(np.array([jj - k for k in range(d)], dtype=complex))
    return Su2Irrep(j, (j1, j2, j3))
