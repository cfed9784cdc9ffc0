"""Exact Clebsch-Gordan coefficients.

A coefficient is stored as a sign together with the exact square of its
value as a rational number, so products stay exact and the standard
symmetry and orthogonality relations can be verified as identities rather
than float comparisons. Values follow the Condon-Shortley phase
convention.

clebsch_gordan parses each label once into twice its value and checks
the six; the private kernel _clebsch_gordan does the arithmetic on those
twice-labels, and sl2c._cg_block, whose labels are valid by
construction, calls it directly. A CGValue is checked once, by its
public constructor: the kernel's results and the products and negations
of values are valid by construction and skip the checks. Racah's sum is
evaluated in integers, as WIGXJPF does (Johansson & Forssen, SIAM J.
Sci. Comput. 38 (2016) A376), in Wei's binomial form (Comput. Phys.
Commun. 120 (1999) 222): its terms are integers whose consecutive ratio is a ratio of integer cubics, so each
term is the previous one times that ratio, divided exactly, and the
squared value is one Fraction: the sum's square times six binomials.
clebsch_gordan(J, 0, J, 0, J, 0) takes about 0.0007, 0.008, 0.03 and
0.12 s at J = 400, 1600, 3200 and 6400, against 0.0011, 0.016, 0.07 and
0.31 s by Horner's rule over the same ratio, whose denominator grows
with every term (CPython 3.11, one Xeon core).

radical_sum tries each value against the previous value's radical first,
since the terms of one sum mostly share it, and keeps each radical's
terms as integer pairs, made into one Fraction per radical at the end.

All angular-momentum arguments are half-integers, accepted as int, float
or Fraction (0.5 and Fraction(1, 2) both denote one half).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from fractions import Fraction
from math import comb, isqrt, lcm, sqrt
from typing import Iterable

from .entries import _Value
from .errors import InvalidArgument, InvalidWeights
from .su2 import twice_half_integer

__all__ = ["CGValue", "clebsch_gordan", "radical_sum"]


class CGValue(_Value):
    """A signed square root of a non-negative rational: sign * sqrt(squared)."""

    _fields = ("sign", "squared")

    def __init__(self, sign: int, squared: Fraction):
        if type(sign) is not int:  # a bool is refused too
            raise InvalidArgument(f"sign must be an int, got {sign!r}")
        if type(squared) not in (int, Fraction):
            raise InvalidArgument(f"squared must be an int or a Fraction, got {squared!r}")
        if sign not in (-1, 0, 1):
            raise InvalidArgument(f"sign must be -1, 0 or +1, got {sign}")
        n = squared.numerator  # an int's numerator is itself
        if n < 0:
            raise InvalidArgument("squared value must be non-negative")
        if (n == 0) != (sign == 0):
            raise InvalidArgument("squared is zero exactly when sign is zero")
        self.__dict__.update(sign=sign, squared=squared)

    @classmethod
    def _unchecked(cls, sign: int, squared: Fraction) -> "CGValue":
        """The value of arguments valid by construction, made without the checks."""
        self = cls.__new__(cls)
        fields = self.__dict__
        fields["sign"], fields["squared"] = sign, squared
        return self

    @property
    def value(self) -> float:
        return self.sign * sqrt(self.squared)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "CGValue") -> "CGValue":
        return CGValue._unchecked(self.sign * other.sign, self.squared * other.squared)

    def __neg__(self) -> "CGValue":
        return CGValue._unchecked(-self.sign, self.squared)


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
    do labels whose j1 + j2 + s + 1 exceeds sys.maxsize, which keeps the
    smaller argument of every binomial in the C-long range of math.comb;
    a violated projection selection rule gives the exact zero value.
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
    return _clebsch_gordan(tj1, tl1, tj2, tl2, ts, tsig)


def _clebsch_gordan(tj1: int, tl1: int, tj2: int, tl2: int, ts: int, tsig: int) -> CGValue:
    """clebsch_gordan on twice-labels that pass its checks: the arithmetic
    alone, for callers whose labels are valid by construction."""
    if tl1 + tl2 != tsig:
        return CG_ZERO
    # Wei's binomial form of Racah's sum: S = sum over k of (-1)^k C(a, k)
    # C(n1, b-k) C(n2, c-k) is an integer, and the ratio of consecutive terms
    # is -(a-k)(b-k)(c-k) / ((k+1)(d+k+1)(e+k+1)) with d = n1 - b, e = n2 - c,
    # so each term is the previous one times that ratio, divided exactly.
    a, b, c = (tj1 + tj2 - ts) // 2, (tj1 - tl1) // 2, (tj2 + tl2) // 2
    n1, n2 = (ts + tj1 - tj2) // 2, (ts - tj1 + tj2) // 2
    d, e = n1 - b, n2 - c
    kmin, kmax = max(0, -d, -e), min(a, b, c)
    term = (-1) ** kmin * comb(a, kmin) * comb(n1, b - kmin) * comb(n2, c - kmin)
    ksum = term
    for k in range(kmin, kmax):
        term = -term * ((a - k) * (b - k) * (c - k)) // ((k + 1) * (d + k + 1) * (e + k + 1))
        ksum += term
    if ksum == 0:
        return CG_ZERO
    top = ksum * ksum * comb(tj1, a) * comb(tj2, a)
    bottom = (comb((tj1 + tj2 + ts) // 2 + 1, a) * comb(tj1, b)
              * comb(tj2, (tj2 - tl2) // 2) * comb(ts, (ts - tsig) // 2))
    return CGValue._unchecked(1 if ksum > 0 else -1, Fraction(top, bottom))


# Trial division stops below this prime bound: far above the primes of any
# clebsch_gordan product, low enough that a caller's value cannot stall it.
_TRIAL_BOUND = 1 << 16


def _square_free_split(n: int) -> tuple[int, int, bool]:
    """Decompose n = f * k**2; the flag says whether f is square-free.

    Trial division by 2 and the odd numbers below _TRIAL_BOUND stops once
    the cofactor is a perfect square or p**2 exceeds it (the cofactor is
    then prime). For a product of clebsch_gordan values that happens
    by the largest j1 + j2 + s + 1 of the factors' labels, since odd
    exponents come only from the prefactor. Otherwise the cofactor, at
    least _TRIAL_BOUND**2 and not a square, stays whole in f, which is then
    square-free unless the square of a prime above the bound divides it.
    """
    f, k, p = 1, 1, 2
    r = isqrt(n)
    while r * r != n and p * p <= n and p < _TRIAL_BOUND:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            f *= p ** (e % 2)
            k *= p ** (e // 2)
            r = isqrt(n)
        p += 1 if p == 2 else 2
    if r * r == n:
        return f, k * r, True
    return f * n, k, n < p * p


def radical_sum(values: Iterable[CGValue]) -> dict[int, Fraction]:
    """Exact sum of signed radicals, grouped by radicand.

    Returns a map f -> c meaning sum = sum_f c_f * sqrt(f) with all c_f
    nonzero; the empty map is the exact zero and {1: r} the rational r.
    Distinct keys are distinct radicals, so the sum is zero exactly when
    the map is empty. A key is square-free unless a squared value has a
    factor that trial division below 2**16 leaves unresolved (see
    _square_free_split): such a key is kept as found, and a later key
    naming the same radical (their product is a square) is added to it.
    """
    # each key's terms as integer pairs (n, d) meaning n / d, added as
    # Fractions only at the end, one per key
    acc: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    unresolved: list[int] = []  # held keys that may not be square-free
    last = 1  # the key of the previous value, tried first
    for v in values:
        if v.is_zero:
            continue
        p, q = v.squared.numerator, v.squared.denominator
        # the terms of one sum mostly share a radical: when m = p q last is
        # a square, sign * sqrt(p/q) = sign * isqrt(m) / (q last) * sqrt(last)
        m = p * q * last
        r = isqrt(m)
        if r * r == m:
            acc[last].append((v.sign * r, q * last))
            continue
        # p/q in lowest terms, so the square-free parts f_p, f_q are coprime
        # and sign * sqrt(p/q) = sign * k_p / (k_q f_q) * sqrt(f_p f_q).
        fp, kp, sp = _square_free_split(p)
        fq, kq, sq = _square_free_split(q)
        f, n, d, square_free = fp * fq, v.sign * kp, kq * fq, sp and sq
        if f not in acc:
            # two square-free keys never name one radical, so a square-free
            # f need only be tried against the unresolved keys;
            # c sqrt(f) = c isqrt(f g) / g * sqrt(g) when f g is a square
            for g in unresolved if square_free else acc:
                r = isqrt(f * g)
                if r * r == f * g:
                    f, n, d = g, n * r, d * g
                    break
            else:
                if not square_free:
                    unresolved.append(f)
        acc[f].append((n, d))
        last = f
    out = {}
    for f, terms in acc.items():
        den = lcm(*(d for _, d in terms))
        num = sum(n * (den // d) for n, d in terms)
        if num:
            out[f] = Fraction(num, den)
    return out
