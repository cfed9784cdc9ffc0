"""Canonical su(2) irreducible representation matrices.

Weights are stored as twice-j integers so half-integer spins stay exact.
The canonical basis orders magnetic labels descending (j, j-1, ..., -j)
and ladder matrix elements are non-negative reals (Condon-Shortley), so
the three generator matrices are hermitian and satisfy the su(2)
commutation relations to machine precision.

The generators are made as entries (see entries) in pure Python, by the
float operations of the dense construction, so a bundle built from them
loads no numpy; su2_generators and ladder_plus make dense arrays of
them, and load numpy when called.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from numbers import Real

from .entries import _halved, _pair
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


def _ladder(j: Weight) -> list[float]:
    """<l+1|J+|l> = sqrt(j(j+1) - l(l+1)) for the states l = j-1, ..., -j
    being raised, in row order: the superdiagonal of J+."""
    jj = j.twice_j / 2.0
    lams = (jj - row - 1 for row in range(j.dim - 1))
    return [sqrt(jj * (jj + 1) - lam * (lam + 1)) for lam in lams]


def _generator_entries(j: Weight) -> tuple[tuple[list, list], ...]:
    """Entries of (J1, J2, J3), each value made by the complex operations
    of J1 = (J+ + J-)/2, J2 = (J+ - J-)/(2i) and J3 = diag(j, ..., -j) on
    the dense matrices, J- = J+^H holding (0, -0.0) where J+ holds +0.

    On the superdiagonal J+ holds (v, 0) and J- (0, -0.0); on the
    subdiagonal J+ holds +0 and J- (v, -0.0). Every other entry of the
    three matrices is +0.
    """
    d = j.dim
    sums, diffs = {}, {}
    for row, v in enumerate(_ladder(j)):
        sums[row * d + row + 1] = complex(v + 0.0, 0.0 + -0.0)
        sums[(row + 1) * d + row] = complex(0.0 + v, 0.0 + -0.0)
        diffs[row * d + row + 1] = complex(v - 0.0, 0.0 - -0.0)
        diffs[(row + 1) * d + row] = complex(0.0 - v, 0.0 - -0.0)
    j1 = {k: _halved(z) for k, z in sums.items()}
    # z / 2j as numpy divides by 0 + 2j: ((zr 0 + zi) 0.5, (zi 0 - zr) 0.5)
    j2 = {
        k: complex((z.real * 0.0 + z.imag) * 0.5, (z.imag * 0.0 - z.real) * 0.5)
        for k, z in diffs.items()
    }
    jj = j.twice_j / 2.0
    j3 = {k * d + k: complex(jj - k, 0.0) for k in range(d)}
    return _pair(j1), _pair(j2), _pair(j3)


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
