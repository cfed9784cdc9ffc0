from fractions import Fraction

import pytest

from braket import CGValue, InvalidArgument, InvalidWeights, clebsch_gordan, radical_sum


def halves(tj):
    """All projections for twice-weight tj, descending."""
    return [Fraction(t, 2) for t in range(tj, -tj - 2, -2)]


def spins(tj1, tj2):
    return [Fraction(t, 2) for t in range(tj1 + tj2, abs(tj1 - tj2) - 2, -2)]


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
        # j1 + j2 + s + 1 beyond sys.maxsize is out of math.factorial's range
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
