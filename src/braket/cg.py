"""Exact Clebsch-Gordan coefficients.

A coefficient is stored as a sign together with the exact square of its
value as a rational number, so products stay exact and the standard
symmetry and orthogonality relations can be verified as identities rather
than float comparisons. Values follow the Condon-Shortley phase
convention and are computed with Racah's closed-form sum in
arbitrary-precision rational arithmetic.

All angular-momentum arguments are half-integers, accepted as int, float
or Fraction (0.5 and Fraction(1, 2) both denote one half).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt, sqrt
from typing import Iterable

from .errors import InvalidArgument, InvalidWeights
from .su2 import twice_half_integer

__all__ = ["CGValue", "clebsch_gordan", "radical_sum"]


@dataclass(frozen=True)
class CGValue:
    """A signed square root of a non-negative rational: sign * sqrt(squared)."""

    sign: int
    squared: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise InvalidArgument(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.squared < 0:
            raise InvalidArgument("squared value must be non-negative")
        if (self.squared == 0) != (self.sign == 0):
            raise InvalidArgument("squared is zero exactly when sign is zero")

    @property
    def value(self) -> float:
        return self.sign * sqrt(self.squared)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "CGValue") -> "CGValue":
        return CGValue(self.sign * other.sign, self.squared * other.squared)

    def __neg__(self) -> "CGValue":
        return CGValue(-self.sign, self.squared)


CG_ZERO = CGValue(0, Fraction(0))


def _validate(tj: int, tl: int, name: str):
    if tj < 0:
        raise InvalidWeights(f"{name} must be non-negative, got {Fraction(tj, 2)}")
    if abs(tl) > tj or (tj - tl) % 2 != 0:
        raise InvalidWeights(
            f"projection {Fraction(tl, 2)} invalid for weight {Fraction(tj, 2)}"
        )


def clebsch_gordan(j1, l1, j2, l2, s, sigma) -> CGValue:
    """Exact coefficient <j1 l1; j2 l2 | s sigma>.

    Out-of-range or non-half-integer labels raise InvalidWeights, and so
    do labels whose largest factorial argument, j1 + j2 + s + 1, exceeds
    sys.maxsize (the limit of math.factorial); a violated projection
    selection rule gives the exact zero value.
    """
    tj1, tl1 = twice_half_integer(j1, "j1"), twice_half_integer(l1, "l1")
    tj2, tl2 = twice_half_integer(j2, "j2"), twice_half_integer(l2, "l2")
    ts, tsig = twice_half_integer(s, "s"), twice_half_integer(sigma, "sigma")
    _validate(tj1, tl1, "j1")
    _validate(tj2, tl2, "j2")
    _validate(ts, tsig, "s")
    if not (abs(tj1 - tj2) <= ts <= tj1 + tj2) or (tj1 + tj2 - ts) % 2 != 0:
        raise InvalidWeights(
            f"s={Fraction(ts, 2)} outside the coupling range of "
            f"{Fraction(tj1, 2)} and {Fraction(tj2, 2)}"
        )
    if (tj1 + tj2 + ts) // 2 + 1 > sys.maxsize:
        raise InvalidWeights(
            f"j1 + j2 + s + 1 = {(tj1 + tj2 + ts) // 2 + 1} exceeds the factorial "
            f"limit {sys.maxsize}"
        )
    if tl1 + tl2 != tsig:
        return CG_ZERO

    # Racah's sum; every factorial argument below is an exact integer.
    def f(twice: int) -> int:
        return factorial(twice // 2)

    kmin = max(0, -(ts - tj2 + tl1) // 2, -(ts - tj1 - tl2) // 2)
    kmax = min((tj1 + tj2 - ts) // 2, (tj1 - tl1) // 2, (tj2 + tl2) // 2)
    ksum = Fraction(0)
    for k in range(kmin, kmax + 1):
        denom = (
            factorial(k)
            * f(tj1 + tj2 - ts - 2 * k)
            * f(tj1 - tl1 - 2 * k)
            * f(tj2 + tl2 - 2 * k)
            * f(ts - tj2 + tl1 + 2 * k)
            * f(ts - tj1 - tl2 + 2 * k)
        )
        ksum += Fraction((-1) ** k, denom)
    if ksum == 0:
        return CG_ZERO

    prefactor = Fraction(
        (ts + 1)
        * f(ts + tj1 - tj2)
        * f(ts - tj1 + tj2)
        * f(tj1 + tj2 - ts),
        f(tj1 + tj2 + ts + 2),
    )
    prefactor *= (
        f(ts + tsig)
        * f(ts - tsig)
        * f(tj1 - tl1)
        * f(tj1 + tl1)
        * f(tj2 - tl2)
        * f(tj2 + tl2)
    )
    return CGValue(1 if ksum > 0 else -1, prefactor * ksum * ksum)


def _square_free_split(n: int) -> tuple[int, int]:
    """Decompose n = f * k**2 with f square-free (for the sizes met here)."""
    f, k = 1, 1
    for p in range(2, 101):
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            f *= p
        k *= p ** (e // 2)
    r = isqrt(n)
    if r * r == n:
        k *= r
    else:
        # Leftover with only large prime factors; keeping it in f is still
        # a canonical key because inputs reach this form deterministically.
        f *= n
    return f, k


def radical_sum(values: Iterable[CGValue]) -> dict[int, Fraction]:
    """Exact sum of signed radicals, grouped by square-free radicand.

    Returns a map f -> c meaning sum = sum_f c_f * sqrt(f) with all c_f
    nonzero; the empty map is the exact zero and {1: r} the rational r.
    """
    acc: dict[int, Fraction] = {}
    for v in values:
        if v.is_zero:
            continue
        # sign * sqrt(p/q) = sign * sqrt(p*q) / q
        p, q = v.squared.numerator, v.squared.denominator
        f, k = _square_free_split(p * q)
        coeff = Fraction(v.sign * k, q)
        acc[f] = acc.get(f, Fraction(0)) + coeff
    return {f: c for f, c in acc.items() if c != 0}
