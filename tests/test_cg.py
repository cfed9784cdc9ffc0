import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braket import CGValue, InvalidArgument, InvalidWeights, clebsch_gordan, radical_sum
from braket.cg import _square_free_split


def halves(tj):
    """All projections for twice-weight tj, descending."""
    return [Fraction(t, 2) for t in range(tj, -tj - 2, -2)]


def spins(tj1, tj2):
    return [Fraction(t, 2) for t in range(tj1 + tj2, abs(tj1 - tj2) - 2, -2)]


def racah_fractions(tj1, tl1, tj2, tl2, ts, tsig):
    """Racah's sum with one Fraction per term, on twice-labels that pass
    every check: the textbook evaluation, an oracle for the integer sum."""
    if tl1 + tl2 != tsig:
        return CGValue(0, Fraction(0))

    def f(twice):
        return factorial(twice // 2)

    kmin = max(0, -(ts - tj2 + tl1) // 2, -(ts - tj1 - tl2) // 2)
    kmax = min((tj1 + tj2 - ts) // 2, (tj1 - tl1) // 2, (tj2 + tl2) // 2)
    ksum = Fraction(0)
    for k in range(kmin, kmax + 1):
        ksum += Fraction((-1) ** k, factorial(k) * f(tj1 + tj2 - ts - 2 * k)
                         * f(tj1 - tl1 - 2 * k) * f(tj2 + tl2 - 2 * k)
                         * f(ts - tj2 + tl1 + 2 * k) * f(ts - tj1 - tl2 + 2 * k))
    if ksum == 0:
        return CGValue(0, Fraction(0))
    prefactor = Fraction((ts + 1) * f(ts + tj1 - tj2) * f(ts - tj1 + tj2)
                         * f(tj1 + tj2 - ts), f(tj1 + tj2 + ts + 2))
    prefactor *= (f(ts + tsig) * f(ts - tsig) * f(tj1 - tl1) * f(tj1 + tl1)
                  * f(tj2 - tl2) * f(tj2 + tl2))
    return CGValue(1 if ksum > 0 else -1, prefactor * ksum * ksum)


def racah_factorials(tj1, tl1, tj2, tl2, ts, tsig):
    """Racah's sum over factorials as one integer ratio by Horner's rule,
    on twice-labels that pass every check: the library's evaluation before
    the binomial form, an oracle for it."""
    if tl1 + tl2 != tsig:
        return CGValue(0, Fraction(0))
    a, b, c = (tj1 + tj2 - ts) // 2, (tj1 - tl1) // 2, (tj2 + tl2) // 2
    d, e = (ts - tj2 + tl1) // 2, (ts - tj1 - tl2) // 2
    kmin, kmax = max(0, -d, -e), min(a, b, c)
    p = q = 1
    for k in range(kmax - 1, kmin - 1, -1):
        num = (a - k) * (b - k) * (c - k)
        den = (k + 1) * (d + k + 1) * (e + k + 1)
        p, q = den * q - num * p, den * q
    if p == 0:
        return CGValue(0, Fraction(0))
    top, bottom = ts + 1, factorial((tj1 + tj2 + ts) // 2 + 1) * q * q
    for twice in (ts + tj1 - tj2, ts - tj1 + tj2, tj1 + tj2 - ts, ts + tsig,
                  ts - tsig, tj1 - tl1, tj1 + tl1, tj2 - tl2, tj2 + tl2):
        top *= factorial(twice // 2)
    for n in (kmin, a - kmin, b - kmin, c - kmin, d + kmin, e + kmin):
        bottom *= factorial(n) ** 2
    sign = (-1) ** kmin * (1 if p > 0 else -1)
    return CGValue(sign, Fraction(top * p * p, bottom))


def all_labels(max_twice):
    """Every twice-label set (j1, l1, j2, l2, s, sigma) that passes the
    checks, with twice-j1 and twice-j2 at most max_twice."""
    for tj1 in range(max_twice + 1):
        for tj2 in range(max_twice + 1):
            for ts in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tl1 in range(-tj1, tj1 + 1, 2):
                    for tl2 in range(-tj2, tj2 + 1, 2):
                        for tsig in range(-ts, ts + 1, 2):
                            yield tj1, tl1, tj2, tl2, ts, tsig


@st.composite
def coupling_labels(draw, max_twice=60):
    """Twice-labels (j1, l1, j2, l2, s, sigma) in range, with sigma = l1 + l2."""
    tj1, tj2 = draw(st.integers(0, max_twice)), draw(st.integers(0, max_twice))
    ts = draw(st.sampled_from(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)))
    tl1 = draw(st.sampled_from(range(-tj1, tj1 + 1, 2)))
    tl2 = draw(st.sampled_from([t for t in range(-tj2, tj2 + 1, 2) if abs(tl1 + t) <= ts]))
    return tj1, tl1, tj2, tl2, ts, tl1 + tl2


def coupling_identity(tj1, tj2, ts, tsp):
    """sum over l1 + l2 = 0 of <j1 l1; j2 l2 | s 0><j1 l1; j2 l2 | s' 0>,
    exactly, through radical_sum."""
    j1, j2, s, sp = (Fraction(t, 2) for t in (tj1, tj2, ts, tsp))
    terms = []
    for tl1 in range(min(tj1, tj2), -min(tj1, tj2) - 2, -2):
        l1 = Fraction(tl1, 2)
        terms.append(clebsch_gordan(j1, l1, j2, -l1, s, 0) * clebsch_gordan(j1, l1, j2, -l1, sp, 0))
    return radical_sum(terms)


class TestCGValueType:
    def test_value(self):
        v = CGValue(-1, Fraction(1, 2))
        assert v.value == pytest.approx(-(0.5**0.5))

    def test_zero_consistency(self):
        with pytest.raises(InvalidArgument):
            CGValue(0, Fraction(1, 2))
        with pytest.raises(InvalidArgument):
            CGValue(1, Fraction(0))
        with pytest.raises(InvalidArgument):
            CGValue(2, Fraction(1))

    @pytest.mark.parametrize("sign, squared", [
        (True, Fraction(1)),
        (False, Fraction(0)),
        (1.0, Fraction(2)),
        (-1.0, Fraction(2)),
        (Fraction(1), Fraction(2)),
        (1, 0.5),
        (1, 2.0),
        (1, float("nan")),
        (1, float("inf")),
        (1, "2"),
        (1, None),
        (1, True),
    ])
    def test_refuses_inexact_types(self, sign, squared):
        # a bool or non-int sign and a squared value that is not an int or a
        # Fraction would reach radical_sum and fail there, or lose exactness
        with pytest.raises(InvalidArgument):
            CGValue(sign, squared)

    def test_int_squared_is_exact(self):
        assert CGValue(1, 2) == CGValue(1, Fraction(2))
        assert radical_sum([CGValue(1, 8), CGValue(-1, Fraction(2))]) == {2: Fraction(1)}

    def test_product_exact(self):
        a = CGValue(1, Fraction(2, 3))
        b = CGValue(-1, Fraction(3, 2))
        assert a * b == CGValue(-1, Fraction(1))


class TestSelectionRules:
    def test_projection_rule_gives_zero(self):
        v = clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 0)
        assert v.sign == 0 and v.squared == 0

    def test_out_of_range_projection(self):
        with pytest.raises(InvalidWeights):
            clebsch_gordan(0.5, 1.5, 0.5, -0.5, 1, 1)

    def test_non_half_integer(self):
        with pytest.raises(InvalidWeights):
            clebsch_gordan(0.3, 0.3, 0, 0, 0.3, 0.3)
        for bad in (float("nan"), float("inf"), float("-inf"), True, False):
            with pytest.raises(InvalidWeights):
                clebsch_gordan(bad, 0, 0, 0, 0, 0)
        with pytest.raises(InvalidWeights):
            clebsch_gordan(True, 1, 0, 0, True, 1)

    def test_past_factorial_limit(self):
        # j1 + j2 + s + 1 beyond sys.maxsize can put a binomial's smaller
        # argument past the C-long range of math.comb
        with pytest.raises(InvalidWeights, match="factorial"):
            clebsch_gordan(10**19, 0, 10**19, 0, 0, 0)

    def test_triangle_violation(self):
        with pytest.raises(InvalidWeights):
            clebsch_gordan(0.5, 0.5, 0, 0, 1, 0.5)

    def test_parity_violation(self):
        # s inside [|j1-j2|, j1+j2] but stepping off the half-integer grid
        with pytest.raises(InvalidWeights):
            clebsch_gordan(1, 0, 0.5, 0.5, 1, 0.5)

    def test_projection_off_grid(self):
        with pytest.raises(InvalidWeights):
            clebsch_gordan(0.5, 0, 0.5, 0.5, 1, 0.5)


class TestKnownValues:
    def test_singlet_triplet(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) == CGValue(1, Fraction(1, 2))
        assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 1, 0) == CGValue(1, Fraction(1, 2))
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == CGValue(1, Fraction(1, 2))
        assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) == CGValue(-1, Fraction(1, 2))

    def test_stretched_state(self):
        assert clebsch_gordan(1, 1, 0.5, 0.5, 1.5, 1.5) == CGValue(1, Fraction(1))

    def test_trivial_coupling(self):
        assert clebsch_gordan(0, 0, 0, 0, 0, 0) == CGValue(1, Fraction(1))

    def test_against_sympy(self):
        # independent symbolic oracle, exhaustive for weights up to 3/2
        from sympy import Rational, sign
        from sympy.physics.quantum.cg import CG

        for tj1 in range(0, 4):
            for tj2 in range(0, 4):
                for s in spins(tj1, tj2):
                    for l1 in halves(tj1):
                        for l2 in halves(tj2):
                            sigma = l1 + l2
                            if abs(sigma) > s:
                                continue
                            mine = clebsch_gordan(
                                Fraction(tj1, 2), l1, Fraction(tj2, 2), l2, s, sigma
                            )
                            ref = CG(
                                Rational(tj1, 2), Rational(l1),
                                Rational(tj2, 2), Rational(l2),
                                Rational(s), Rational(sigma),
                            ).doit()
                            assert Rational(mine.squared) == ref**2
                            assert mine.sign == int(sign(ref))

    @pytest.mark.parametrize("labels", [
        (Fraction(121, 2), Fraction(7, 2), 30, -3, Fraction(145, 2), Fraction(1, 2)),
        (55, -20, 52, 19, 60, -1),
        (80, 0, 40, 0, 80, 0),
        (Fraction(101, 2), Fraction(-101, 2), Fraction(103, 2), Fraction(99, 2), 51, -1),
    ])
    def test_against_sympy_past_fifty(self, labels):
        from sympy import Rational, sign
        from sympy.physics.quantum.cg import CG

        ref = CG(*(Rational(x) for x in labels)).doit()
        mine = clebsch_gordan(*labels)
        assert Rational(mine.squared) == ref**2
        assert mine.sign == int(sign(ref))

    @pytest.mark.parametrize("j", [400, 1600])
    def test_zero_projections_closed_form(self, j):
        # <j 0; j 0 | j 0> with g = 3j/2: (-1)^(g-j) sqrt(2j+1) g!/((g-j)!)^3
        # * sqrt((2g-2j)!^3 / (2g+1)!), exact at sizes far past the tables
        g = 3 * j // 2
        ratio = factorial(g) // factorial(g - j) ** 3
        squared = Fraction((2 * j + 1) * factorial(2 * g - 2 * j) ** 3 * ratio**2,
                           factorial(2 * g + 1))
        assert clebsch_gordan(j, 0, j, 0, j, 0) == CGValue((-1) ** (g - j), squared)
        assert clebsch_gordan(j + 1, 0, j + 1, 0, j + 1, 0).is_zero

    @settings(max_examples=200, deadline=None)
    @given(coupling_labels())
    def test_matches_fraction_racah_sum(self, twice):
        assert clebsch_gordan(*(Fraction(t, 2) for t in twice)) == racah_fractions(*twice)

    def test_matches_factorial_horner_exhaustive(self):
        # every label set with twice-j1, twice-j2 <= 8, selection-rule zeros
        # included: the binomial form gives the very same CGValue
        for twice in all_labels(8):
            assert clebsch_gordan(*(Fraction(t, 2) for t in twice)) == racah_factorials(*twice)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(coupling_labels(max_twice=200))
    def test_matches_factorial_horner_to_twice_j_200(self, twice):
        assert clebsch_gordan(*(Fraction(t, 2) for t in twice)) == racah_factorials(*twice)


class TestExactIdentities:
    def test_exchange_symmetry(self):
        # <j1 l1; j2 l2|s sigma> = (-1)^(s-j1-j2) <j2 l2; j1 l1|s sigma>,
        # exact, exhaustive for weights up to 2
        for tj1 in range(0, 5):
            for tj2 in range(0, 5):
                for s in spins(tj1, tj2):
                    phase = (-1) ** int(s - Fraction(tj1 + tj2, 2))
                    for l1 in halves(tj1):
                        for l2 in halves(tj2):
                            sigma = l1 + l2
                            if abs(sigma) > s:
                                continue
                            a = clebsch_gordan(
                                Fraction(tj1, 2), l1, Fraction(tj2, 2), l2, s, sigma
                            )
                            b = clebsch_gordan(
                                Fraction(tj2, 2), l2, Fraction(tj1, 2), l1, s, sigma
                            )
                            assert a.squared == b.squared
                            assert a.sign == phase * b.sign

    def test_orthogonality(self):
        # column orthonormality of the coupling table, exact, weights <= 2
        for tj1 in range(0, 5):
            for tj2 in range(0, 5):
                columns = [
                    (s, sigma)
                    for s in spins(tj1, tj2)
                    for sigma in halves(int(2 * s))
                ]
                for si, sigi in columns:
                    for sj, sigj in columns:
                        terms = []
                        for l1 in halves(tj1):
                            for l2 in halves(tj2):
                                a = clebsch_gordan(
                                    Fraction(tj1, 2), l1, Fraction(tj2, 2), l2, si, sigi
                                )
                                b = clebsch_gordan(
                                    Fraction(tj1, 2), l1, Fraction(tj2, 2), l2, sj, sigj
                                )
                                terms.append(a * b)
                        total = radical_sum(terms)
                        if (si, sigi) == (sj, sigj):
                            assert total == {1: Fraction(1)}
                        else:
                            assert total == {}

    @pytest.mark.parametrize("tj1", [80, 120, 200])
    def test_orthonormal_at_large_weights(self, tj1):
        # twice-j2 = twice-j1 / 2 and sigma = 0: the factorials carry primes
        # above 100, so the sums cancel only if every key is square-free
        tj2 = tj1 // 2
        ts = list(range(tj1 + tj2, tj1 - tj2 - 2, -2))
        n = len(ts)
        for a in (ts[0], ts[n // 3], ts[-1]):
            assert coupling_identity(tj1, tj2, a, a) == {1: Fraction(1)}
        for a, b in ((ts[0], ts[1]), (ts[1], ts[-1]), (ts[n // 2], ts[-1]), (ts[-2], ts[-1])):
            assert coupling_identity(tj1, tj2, a, b) == {}


# the primes after 10**12 and 2 * 10**12, both past the square of the trial
# division bound
_P, _Q = 1000000000039, 2000000000003


def radical_sum_per_term(values):
    """radical_sum with every term split into its square-free part, as the
    library did before it tried the previous term's radical first: the
    reference its shortcut must reproduce, keys and key order included."""
    acc, unresolved = {}, []
    for v in values:
        if v.is_zero:
            continue
        fp, kp, sp = _square_free_split(v.squared.numerator)
        fq, kq, sq = _square_free_split(v.squared.denominator)
        f, c, square_free = fp * fq, Fraction(v.sign * kp, kq * fq), sp and sq
        if f not in acc:
            for g in unresolved if square_free else acc:
                r = isqrt(f * g)
                if r * r == f * g:
                    f, c = g, c * Fraction(r, g)
                    break
            else:
                if not square_free:
                    unresolved.append(f)
        acc[f] = acc.get(f, Fraction(0)) + c
    return {f: c for f, c in acc.items() if c != 0}


def mixed_radical_terms(seed):
    """A seeded list of runs: one shared radical, two alternating radicals,
    repeated keys that trial division leaves unresolved, exact zeros, and
    negated repeats of earlier terms so that some radicals cancel."""
    rng = random.Random(seed)

    def term(f):
        n, m = rng.randint(1, 12), rng.randint(1, 12)
        return CGValue(rng.choice((-1, 1)), Fraction(f * n * n, m * m))

    small = [1, 2, 3, 5, 6, 7, 10, 35, 2 * 3 * 101, 65537]
    large = [_P * _Q, _P * _P * 65537, 65537, _Q * 7]
    runs = []
    for _ in range(rng.randint(4, 8)):
        kind = rng.choice(("shared", "alternating", "unresolved", "zeros", "repeat"))
        if kind == "shared":
            f = rng.choice(small)
            runs.append([term(f) for _ in range(rng.randint(2, 6))])
        elif kind == "alternating":
            f, g = rng.sample(small, 2)
            runs.append([term(f if i % 2 else g) for i in range(rng.randint(2, 6))])
        elif kind == "unresolved":
            runs.append([term(rng.choice(large)) for _ in range(rng.randint(1, 3))])
        elif kind == "zeros":
            runs.append([CGValue(0, Fraction(0))] * rng.randint(1, 3))
        elif runs:
            runs.append([-v for v in rng.choice(runs)])
    return [v for run in runs for v in run]


class TestRadicalSum:
    def test_cancellation(self):
        a = CGValue(1, Fraction(1, 2))
        b = CGValue(-1, Fraction(1, 2))
        assert radical_sum([a, b]) == {}

    def test_grouping(self):
        # sqrt(2) + sqrt(8) = 3 sqrt(2)
        assert radical_sum([CGValue(1, Fraction(2)), CGValue(1, Fraction(8))]) == {
            2: Fraction(3)
        }

    def test_mixed_radicands_stay_separate(self):
        total = radical_sum([CGValue(1, Fraction(2)), CGValue(-1, Fraction(3))])
        assert total == {2: Fraction(1), 3: Fraction(-1)}

    def test_rational_terms(self):
        total = radical_sum([CGValue(1, Fraction(1, 4)), CGValue(1, Fraction(1, 4))])
        assert total == {1: Fraction(1)}

    def test_large_prime_cancels(self):
        # sqrt(101^2 * 103) = 101 sqrt(103): one key for both, in the numerator
        # and in the denominator
        big = 101**2 * 103
        assert radical_sum([CGValue(1, Fraction(big))] + 101 * [CGValue(-1, Fraction(103))]) == {}
        assert radical_sum([CGValue(1, Fraction(1, 103))]
                           + 101 * [CGValue(-1, Fraction(1, big))]) == {}

    def test_key_is_square_free_across_the_fraction(self):
        # sqrt(2/3) + sqrt(3/2) = (1/3 + 1/2) sqrt(6)
        total = radical_sum([CGValue(1, Fraction(2, 3)), CGValue(1, Fraction(3, 2))])
        assert total == {6: Fraction(5, 6)}

    def test_prime_squares_past_trial_bound(self):
        # 10007 is prime: 10007^2 * 5 has the square-free part 5
        assert radical_sum([CGValue(1, Fraction(10007**2 * 5, 7))]) == {35: Fraction(10007, 7)}

    def test_two_large_primes_finish(self):
        # sqrt(p q) for the primes after 10**12 and 2 * 10**12: trial division
        # stops at its bound and keeps p q whole
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "from fractions import Fraction\n"
            "from braket import CGValue, radical_sum\n"
            f"pq = {_P * _Q}\n"
            "assert radical_sum([CGValue(1, Fraction(pq))]) == {pq: Fraction(1)}\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.parametrize("q", [65537, _Q])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_unresolved_keys_cancel(self, q, reverse):
        # sqrt(p^2 q) - p sqrt(q) = 0 with p past the trial bound's square:
        # p^2 q stays unresolved, and p sqrt(q) is summed from the binary
        # digits of p as sqrt(4^k q), whose key q is prime (65537) or
        # unresolved (_Q); either order meets under one key
        terms = [CGValue(1, Fraction(_P * _P * q))] + [
            CGValue(-1, Fraction(4**k * q)) for k in range(_P.bit_length()) if _P >> k & 1
        ]
        assert radical_sum(terms[::-1] if reverse else terms) == {}

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_term_split(self, seed, reverse):
        terms = mixed_radical_terms(seed)
        terms = terms[::-1] if reverse else terms
        assert list(radical_sum(terms).items()) == list(radical_sum_per_term(terms).items())

    def test_shared_radical_then_rational(self):
        # the previous key is tried first and refused: sqrt(2) then 1/2, 2, 8
        terms = [CGValue(1, Fraction(2)), CGValue(-1, Fraction(1, 4)),
                 CGValue(1, Fraction(4)), CGValue(1, Fraction(8))]
        assert radical_sum(terms) == {2: Fraction(3), 1: Fraction(3, 2)}
