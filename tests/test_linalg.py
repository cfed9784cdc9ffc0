import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from braket import (
    DEFAULT_TOLS,
    DegenerateMetric,
    DimensionMismatch,
    NotHermitian,
    Singular,
    conj_transpose,
    expm,
    inverse,
    kron,
    matmul,
    signature,
)
from conftest import max_dev, random_complex, random_invertible, random_hermitian_invertible


class TestMatmul:
    def test_identity(self, rng):
        a = random_complex(rng, 2, 2)
        assert max_dev(matmul(np.eye(2), a), a) == 0

    def test_hand_product(self):
        # [[0,1],[1,0]] . [[1,0],[0,-1]] worked out by hand
        got = matmul([[0, 1], [1, 0]], [[1, 0], [0, -1]])
        assert max_dev(got, [[0, -1], [1, 0]]) == 0

    def test_shape_error(self, rng):
        with pytest.raises(DimensionMismatch):
            matmul(random_complex(rng, 2, 3), random_complex(rng, 2, 2))

    def test_associativity(self, rng):
        for _ in range(20):
            a, b, c = (random_complex(rng, 3, 3) for _ in range(3))
            assert max_dev(matmul(matmul(a, b), c), matmul(a, matmul(b, c))) < 1e-10


class TestConjTranspose:
    def test_real_symmetric_fixed_point(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert max_dev(conj_transpose(a), a) == 0

    def test_single_entry(self):
        got = conj_transpose([[0, 1j], [0, 0]])
        assert max_dev(got, [[0, 0], [-1j, 0]]) == 0

    def test_involution(self, rng):
        a = random_complex(rng, 4, 3)
        assert max_dev(conj_transpose(conj_transpose(a)), a) == 0

    def test_product_reversal(self, rng):
        a, b = random_complex(rng, 3, 3), random_complex(rng, 3, 3)
        lhs = conj_transpose(matmul(a, b))
        rhs = matmul(conj_transpose(b), conj_transpose(a))
        assert max_dev(lhs, rhs) < 1e-10


class TestInverse:
    def test_involutory_metric(self):
        eta = np.diag([1.0, -1.0, -1.0, -1.0])
        assert max_dev(inverse(eta), eta) == 0

    def test_diagonal(self):
        assert max_dev(inverse([[2, 0], [0, 4]]), [[0.5, 0], [0, 0.25]]) == 0

    def test_zero_is_singular(self):
        with pytest.raises(Singular):
            inverse(np.zeros((3, 3)))

    def test_non_square(self, rng):
        with pytest.raises(DimensionMismatch):
            inverse(random_complex(rng, 2, 3))

    def test_round_trip(self, rng):
        a = random_invertible(rng, 4)
        assert max_dev(matmul(a, inverse(a)), np.eye(4)) < 1e-10


class TestSignature:
    def test_diag_read_off(self):
        assert signature(np.diag([1.0, -1.0])) == (1, 1)

    def test_minkowski(self):
        assert signature(np.diag([1.0, -1.0, -1.0, -1.0])) == (1, 3)

    def test_off_diagonal(self):
        # eigenvalues of [[0,1],[1,0]] are +-1 by hand
        assert signature([[0, 1], [1, 0]]) == (1, 1)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            signature([[0, 1], [0, 0]])

    def test_degenerate(self):
        with pytest.raises(DegenerateMetric):
            signature(np.diag([1.0, 0.0]))

    def test_congruence_invariance(self, rng):
        # Sylvester's law of inertia, dimensions up to 6
        for n in range(2, 7):
            h = random_hermitian_invertible(rng, n)
            expected = signature(h)
            for _ in range(10):
                t = random_invertible(rng, n)
                assert signature(t.conj().T @ h @ t) == expected


class TestExpm:
    def test_zero_is_exactly_identity(self):
        assert (expm(np.zeros((3, 3))) == np.eye(3)).all()

    def test_diagonal(self):
        got = expm(np.diag([1.0, -2.0]))
        assert max_dev(got, np.diag([math.e, math.exp(-2.0)])) < 1e-12

    def test_rotation_closed_form(self):
        theta = 0.731
        got = expm(theta * np.array([[0.0, -1.0], [1.0, 0.0]]))
        want = [
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ]
        assert max_dev(got, want) < 1e-12

    def test_inverse_pairing(self, rng):
        for _ in range(10):
            a = random_complex(rng, 4, 4)
            assert max_dev(matmul(expm(a), expm(-a)), np.eye(4)) < 1e-9

    def test_non_square(self, rng):
        with pytest.raises(DimensionMismatch):
            expm(random_complex(rng, 2, 3))

    def test_scipy_loaded_on_first_call(self):
        # importing the library and its CLI leaves scipy unloaded; expm
        # loads it and agrees with scipy's own exponential
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import braket, braket.cli\n"
            "assert 'scipy' not in sys.modules, 'scipy imported with braket'\n"
            "a = np.array([[0.3, -1.2j], [0.5, 0.1 + 0.2j]])\n"
            "got = braket.expm(a)\n"
            "import scipy.linalg\n"
            "assert np.array_equal(got, scipy.linalg.expm(a))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestKron:
    def test_identities(self):
        assert max_dev(kron(np.eye(2), np.eye(3)), np.eye(6)) == 0

    def test_diagonal(self):
        got = kron(np.diag([1.0, -1.0]), np.eye(2))
        assert max_dev(got, np.diag([1.0, 1.0, -1.0, -1.0])) == 0

    def test_mixed_product(self, rng):
        a, b, c, d = (random_complex(rng, 2, 2) for _ in range(4))
        lhs = matmul(kron(a, b), kron(c, d))
        rhs = kron(matmul(a, c), matmul(b, d))
        assert max_dev(lhs, rhs) < 1e-12


def test_tolerances_validation():
    tols = DEFAULT_TOLS
    assert tols.eq_tol == 1e-10 and tols.herm_tol == 1e-10
    assert tols.sig_tol == 1e-9 and tols.sym_tol == 1e-8
    with pytest.raises(AttributeError):
        tols.eq_tol = 0.0
