from fractions import Fraction

import numpy as np
import pytest

from braket import InvalidWeights, Su2Irrep, Weight, su2_generators
from braket.su2 import ladder_plus
from conftest import max_dev

EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0


class TestWeight:
    def test_from_j(self):
        assert Weight.from_j(0.5).twice_j == 1
        assert Weight.from_j(2).twice_j == 4
        assert Weight.from_j(Fraction(3, 2)).twice_j == 3
        assert Weight.from_j(Fraction(4, 2)).twice_j == 4

    def test_rejects_invalid(self):
        with pytest.raises(InvalidWeights):
            Weight(-1)
        with pytest.raises(InvalidWeights):
            Weight.from_j(0.3)
        with pytest.raises(InvalidWeights):
            Weight.from_j(-0.5)
        for bad in (float("nan"), float("inf"), "1/2", Fraction(3, 4), Fraction(1, 3), True, False):
            with pytest.raises(InvalidWeights):
                Weight.from_j(bad)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool(self, flag):
        # a bool is an int, but a bundle built on it would be written as
        # "twice_j1": true, which the loader refuses
        with pytest.raises(InvalidWeights, match="non-negative int"):
            Weight(flag)

    def test_dim(self):
        assert Weight(3).dim == 4


class TestSu2Generators:
    def test_weight_zero_is_trivial(self):
        irrep = su2_generators(Weight(0))
        for mat in irrep.J:
            assert mat.shape == (1, 1)
            assert max_dev(mat, np.zeros((1, 1))) == 0

    def test_spin_half_matrices(self):
        # ladder formula by hand: <1/2|J+|-1/2> = 1, so J+ = [[0,1],[0,0]]
        irrep = su2_generators(Weight(1))
        assert max_dev(irrep.J[0], [[0, 0.5], [0.5, 0]]) == 0
        assert max_dev(irrep.J[1], [[0, -0.5j], [0.5j, 0]]) == 0
        assert max_dev(irrep.J[2], np.diag([0.5, -0.5])) == 0

    def test_spin_one_ladder(self):
        # <l+1|J+|l> = sqrt(2 - l(l+1)): sqrt(2) on both superdiagonal slots
        plus = ladder_plus(Weight(2))
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 2] = np.sqrt(2.0)
        assert max_dev(plus, want) < 1e-15

    def test_condon_shortley_phase(self):
        for tj in range(1, 6):
            plus = ladder_plus(Weight(tj))
            assert (plus.imag == 0).all()
            assert (plus.real >= 0).all()

    @pytest.mark.parametrize("tj", [1, 2, 3, 4])
    def test_commutation_relations(self, tj):
        irrep = su2_generators(Weight(tj))
        for a in range(3):
            for b in range(3):
                comm = irrep.J[a] @ irrep.J[b] - irrep.J[b] @ irrep.J[a]
                want = sum(1j * EPS[a, b, c] * irrep.J[c] for c in range(3))
                assert max_dev(comm, want) < 1e-12

    @pytest.mark.parametrize("tj", [1, 2, 3, 4])
    def test_casimir(self, tj):
        irrep = su2_generators(Weight(tj))
        jj = tj / 2.0
        assert max_dev(irrep.casimir, jj * (jj + 1) * np.eye(tj + 1)) < 1e-12

    def test_j3_descending(self):
        irrep = su2_generators(Weight(3))
        assert max_dev(irrep.J[2], np.diag([1.5, 0.5, -0.5, -1.5])) == 0

    def test_hermitian(self):
        irrep = su2_generators(Weight(5))
        for mat in irrep.J:
            assert max_dev(mat, mat.conj().T) < 1e-12
