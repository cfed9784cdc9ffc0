import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braket import (
    DEFAULT_TOLS,
    DegenerateMetric,
    DimensionMismatch,
    InvalidArgument,
    MetricOperator,
    NotHermitian,
    Singular,
    conj_transpose,
    expm,
    inverse,
    kron,
    matmul,
    signature,
)
from braket.entries import _monomial_of, _monomial_signature
from braket.linalg import _PADE_THETA, _entries, max_abs
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

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgument):
            inverse([[np.nan]])

    def test_infinity_rejected(self):
        # numpy alone inverts this to diag(1, 0)
        with pytest.raises(InvalidArgument):
            inverse(np.diag([1.0, np.inf]))

    def test_signed_permutation(self):
        # a monomial matrix: 1/vals at the transposed positions
        a = np.array([[0, 2j, 0], [0, 0, -4], [0.5, 0, 0]])
        want = [[0, 0, 2], [-0.5j, 0, 0], [0, -0.25, 0]]
        assert max_dev(inverse(a), want) == 0


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

    def test_nan_rejected(self):
        # NaN is neither above nor below zero, so eigvalsh alone counts it as negative
        with pytest.raises(InvalidArgument):
            signature([[np.nan]])

    def test_three_cycle_is_degenerate(self):
        # monomial and hermitian within herm_tol, but no pairing of indices:
        # its entries are below sig_tol, and eigvalsh finds it degenerate
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 2] = a[2, 0] = 1e-11
        assert _monomial(a.astype(complex)) is not None
        with pytest.raises(DegenerateMetric):
            signature(a)

    def test_congruence_invariance(self, rng):
        # Sylvester's law of inertia, dimensions up to 6
        for n in range(2, 7):
            h = random_hermitian_invertible(rng, n)
            expected = signature(h)
            for _ in range(10):
                t = random_invertible(rng, n)
                assert signature(t.conj().T @ h @ t) == expected


# Magnitudes on both sides of sig_tol (1e-9), none within a factor 2 of it.
_ABOVE_SIG_TOL = [2.5e-9, 0.3, 1.0, 7.0]
_BELOW_SIG_TOL = [1e-12, 4e-10]


@st.composite
def hermitian_monomials(draw, min_dim=1):
    """A random involutive permutation filled with real fixed points and
    complex 2-cycle values paired with their conjugates."""
    n = draw(st.integers(min_dim, 64))
    perm = draw(st.permutations(range(n)))
    n_pairs = draw(st.integers(0, n // 2))
    mags = draw(st.lists(st.sampled_from(_ABOVE_SIG_TOL), min_size=n, max_size=n))
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        mags[k] = draw(st.sampled_from(_BELOW_SIG_TOL))
    phases = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n))
    m = np.zeros((n, n), dtype=complex)
    for k in range(n_pairs):
        p, q = perm[2 * k], perm[2 * k + 1]
        m[p, q] = mags[k] * complex(math.cos(phases[k]), math.sin(phases[k]))
        m[q, p] = m[p, q].conjugate()
    for k in range(2 * n_pairs, n):
        m[perm[k], perm[k]] = math.copysign(mags[k], phases[k])
    return m


def _monomial(m):
    """(cols, vals) of a dense monomial m, read from its entries; None
    when m is not monomial."""
    return _monomial_of(m.shape[0], *_entries(m))


def _from_entries(m) -> MetricOperator:
    """The metric with the entries of m: the route every bundle metric takes."""
    return MetricOperator._from_entries(m.shape[0], _entries(m))


def _relative_dev(got, want) -> float:
    """Deviation relative to the largest entry: the inverse of a 2.5e-9
    entry is 4e8, where one ulp is already above eq_tol."""
    return max_dev(got, want) / max(1.0, float(np.max(np.abs(want))))


def _check_inverse(m, invert=inverse):
    """invert agrees with numpy's inverse, raising Singular exactly when the
    smallest singular value is below sig_tol."""
    if np.linalg.svd(m, compute_uv=False)[-1] < DEFAULT_TOLS.sig_tol:
        with pytest.raises(Singular):
            invert(m)
    else:
        assert _relative_dev(invert(m), np.linalg.inv(m)) <= DEFAULT_TOLS.eq_tol


def _check_signature(m, count=signature):
    """count agrees with the eigvalsh count, or raises DegenerateMetric
    where eigvalsh finds an eigenvalue below sig_tol."""
    eigs = np.linalg.eigvalsh(m)
    if np.any(np.abs(eigs) < DEFAULT_TOLS.sig_tol):
        with pytest.raises(DegenerateMetric):
            count(m)
    else:
        n_plus = int(np.sum(eigs > 0))
        assert count(m) == (n_plus, m.shape[0] - n_plus)


def _check_hermiticity(m):
    """signature, MetricOperator and the entries route raise NotHermitian
    exactly where the dense deviation max_abs(m - m^H) exceeds herm_tol."""
    assert _monomial(m) is not None
    dense = float(np.max(np.abs(m - m.conj().T))) > DEFAULT_TOLS.herm_tol
    for route in (signature, MetricOperator, _from_entries):
        try:
            route(m)
        except NotHermitian:
            raised = True
        except (DegenerateMetric, Singular):
            raised = False
        else:
            raised = False
        assert raised == dense, route


class TestMonomialRoute:
    # the entries route of MetricOperator and _monomial_signature, which
    # every bundle metric takes, against the dense numpy results

    @settings(max_examples=60, deadline=None)
    @given(hermitian_monomials())
    def test_inverse(self, m):
        assert _monomial(m) is not None
        _check_inverse(m, lambda m: _from_entries(m).eta_inv)

    @settings(max_examples=60, deadline=None)
    @given(hermitian_monomials())
    def test_signature(self, m):
        assert _monomial(m) is not None
        _check_signature(m, lambda m: _monomial_signature(*_monomial(m)))

    @settings(max_examples=60, deadline=None)
    @given(hermitian_monomials(), st.data())
    def test_hermiticity_of_perturbed_partner(self, m, data):
        # one non-zero moved off its partner's conjugate, by a step on
        # either side of herm_tol
        i, j = data.draw(st.sampled_from(np.argwhere(m != 0).tolist()))
        step = data.draw(st.sampled_from([0.4, 0.9, 1.1, 3.0])) * DEFAULT_TOLS.herm_tol
        m[i, j] += step * np.exp(1j * data.draw(st.floats(-math.pi, math.pi)))
        _check_hermiticity(m)

    @settings(max_examples=30, deadline=None)
    @given(hermitian_monomials(), st.lists(st.sampled_from([4e-11, 9e-11, 1.1e-10, 5e-10, 1.0]),
                                           min_size=3, max_size=3))
    def test_hermiticity_of_three_cycle(self, m, cycle):
        # a 3-cycle has no mirrored entries, so each entry is its own deviation
        n = m.shape[0]
        m = np.pad(m, (0, 3))
        m[n, n + 1], m[n + 1, n + 2], m[n + 2, n] = cycle
        _check_hermiticity(m)

    @settings(max_examples=60, deadline=None)
    @given(hermitian_monomials(min_dim=2), st.data())
    def test_extra_entry_takes_general_path(self, m, data):
        # one more non-zero (with its mirror, to stay hermitian) breaks the
        # one-per-row pattern: the metric takes the dense check whichever
        # form it is given in, and gives numpy's inverse
        zeros = np.argwhere(m == 0)
        i, j = zeros[data.draw(st.integers(0, len(zeros) - 1))]
        m[i, j] = data.draw(st.sampled_from(_ABOVE_SIG_TOL + _BELOW_SIG_TOL))
        m[j, i] = m[i, j]
        assert _monomial(m) is None
        for route in (MetricOperator, _from_entries):
            _check_inverse(m, lambda m: route(m).eta_inv)
        _check_inverse(m)
        _check_signature(m)


# 1-norm bands: below theta_3, between consecutive Pade thresholds, and
# past theta_13 up to four scaling-and-squaring steps
_EXPM_BANDS = [1e-8, *sorted(_PADE_THETA.values()),
               *(_PADE_THETA[13] * 2.0**s for s in range(1, 5))]


@st.composite
def expm_inputs(draw):
    """Random complex matrices of dims 1-40, half of them anti-hermitian,
    scaled to a 1-norm in a drawn band."""
    n = draw(st.integers(1, 40))
    band = draw(st.integers(0, len(_EXPM_BANDS) - 2))
    norm = draw(st.floats(_EXPM_BANDS[band], _EXPM_BANDS[band + 1]))
    a = random_complex(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, n)
    if draw(st.booleans()):
        a = a - a.conj().T
    return a * (norm / max_abs(np.abs(a).sum(axis=0)))


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

    @pytest.mark.parametrize("a", [
        [[math.nan, 0.0], [0.0, 1.0]],
        [[0.0, math.inf], [0.0, 0.0]],
        [[-math.inf]],
    ])
    def test_non_finite_entry(self, a):
        with pytest.raises(InvalidArgument):
            expm(a)

    @pytest.mark.parametrize("a", [
        np.full((2, 2), 1e308),  # the 1-norm is past the float range
        [[710.0]],  # e^710 is past the float range
        np.full((3, 3), 300.0),  # e^900 on the all-ones direction
    ])
    def test_overflow(self, a):
        with pytest.raises(InvalidArgument):
            expm(a)

    def test_library_loads_no_scipy(self):
        # the library, its CLI and a gauge-group element leave scipy unloaded
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import braket, braket.cli\n"
            "a = np.array([[0.3, -1.2j], [0.5, 0.1 + 0.2j]])\n"
            "assert np.isfinite(braket.expm(a)).all()\n"
            "m = braket.MetricOperator(np.diag([1.0, 1.0, -1.0, -1.0]))\n"
            "rng = np.random.default_rng(3)\n"
            "p = braket.GaugeParams.from_real_parameters(rng.normal(size=(4, 4)),\n"
            "                                            rng.normal(size=(4, 4)))\n"
            "u = braket.group_element(p, m)\n"
            "assert braket.is_symmetry(u, m, braket.DEFAULT_TOLS.sym_tol)\n"
            "assert 'scipy' not in sys.modules, 'scipy loaded'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @settings(max_examples=200, deadline=None)
    @given(expm_inputs())
    @example(np.array([[0.0, 40j], [40j, 0.0]]))  # anti-hermitian, scaled by 2^-3
    def test_against_scipy(self, a):
        # scipy's exponential is the oracle, over every Pade band and four
        # scaling-and-squaring steps
        got, back = expm(a), expm(-a)
        want = scipy.linalg.expm(a)
        assert max_abs(got - want) <= 1e-12 * max_abs(want)
        eye = np.eye(a.shape[0])
        assert max_abs(got @ back - eye) <= 1e-12 * max_abs(got) * max_abs(back)
        if (a == -a.conj().T).all():
            assert max_abs(got.conj().T @ got - eye) <= 1e-12


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
