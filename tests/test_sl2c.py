import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from braket import (
    DEFAULT_TOLS,
    Basis,
    CoupledRep,
    EqualWeights,
    InvalidArgument,
    InvalidWeights,
    MetricOperator,
    NotHermitian,
    Singular,
    Weight,
    WrongRepShape,
    build_rep,
    build_rep_diag,
    chiral_projectors,
    clebsch_gordan,
    default_epsilon,
    dirac_adjoint,
    is_additive,
    is_semi_hermitian,
    orthonormal_basis,
    rep_signature,
    rotation_basis,
    signature,
    su2_generators,
)
from braket import cg, cli
from braket.linalg import _dense
from braket.operators import KindedOperator, OperatorKind
from braket.serialize import dump_json, dump_rep, rep_from_json, rep_to_json
from braket.sl2c import _blocks, _cg_block, _rotation_block_labels
from conftest import max_dev

EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0

# every bundle with dimension <= 16
DIAG_WEIGHTS = [0, 1, 2, 3]
PAIR_WEIGHTS = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (2, 1), (3, 1)]


def mix(x):
    """c2 x c2 for the involution c2 = [[1, 1], [1, -1]]/sqrt(2) that makes
    the orthonormal basis, from the quadrants [[P, Q], [R, S]] of x:
    1/2 [[P+Q+R+S, P-Q+R-S], [P+Q-R-S, P-Q-R+S]]."""
    n = x.shape[0] // 2
    rows = np.concatenate((x[:n] + x[n:], x[:n] - x[n:]))
    return 0.5 * np.concatenate((rows[:, :n] + rows[:, n:], rows[:, :n] - rows[:, n:]), axis=1)


def all_reps(epsilon=None):
    reps = [build_rep_diag(Weight(tj), epsilon) for tj in DIAG_WEIGHTS]
    reps += [build_rep(Weight(a), Weight(b), epsilon) for a, b in PAIR_WEIGHTS]
    return reps


def reps_in_every_basis(epsilon=None):
    """all_reps() in the canonical, rotation and (pairs only) orthonormal bases."""
    canonical = all_reps(epsilon)
    rotated = [rotation_basis(rep)[1] for rep in canonical]
    return canonical + rotated + [orthonormal_basis(r) for r in rotated if not r.is_diagonal]


def cg_blocks():
    """(left, right) weights of every tensor block of all_reps(), plus those
    of (12, 11) and the tensor square of 12."""
    reps = all_reps() + [build_rep(Weight(12), Weight(11)), build_rep_diag(Weight(12))]
    return [block for rep in reps for block in _blocks(rep.j1, rep.j2)]


def full_cg_block(jl, jr):
    """Reference fill of a CG block: every row of every column."""
    n = jl.dim * jr.dim
    ref = np.zeros((n, n), dtype=complex)
    col = 0
    for ts in range(jl.twice_j + jr.twice_j, abs(jl.twice_j - jr.twice_j) - 2, -2):
        for tsig in range(ts, -ts - 2, -2):
            for p in range(jl.dim):
                for q in range(jr.dim):
                    ref[p * jr.dim + q, col] = clebsch_gordan(
                        jl.j,
                        Fraction(jl.twice_j - 2 * p, 2),
                        jr.j,
                        Fraction(jr.twice_j - 2 * q, 2),
                        Fraction(ts, 2),
                        Fraction(tsig, 2),
                    ).value
            col += 1
    return ref


def pair_signature(tj1, tj2):
    n = (tj1 + 1) * (tj2 + 1)
    return (n, n)


def diag_signature(tj):
    # (n, m) for integer weights, (m, n) for half-integers, with
    # n = (j+1)(2j+1) and m = j(2j+1)
    n = (tj + 2) * (tj + 1) // 2
    m = tj * (tj + 1) // 2
    return (n, m) if tj % 2 == 0 else (m, n)


class TestBuild:
    def test_dimensions(self):
        assert build_rep(Weight(1), Weight(0)).dim == 4
        assert build_rep(Weight(2), Weight(1)).dim == 12
        assert build_rep_diag(Weight(1)).dim == 4
        assert build_rep_diag(Weight(2)).dim == 9

    def test_default_epsilons(self):
        assert default_epsilon(Weight(1), Weight(0)) == 1
        assert default_epsilon(Weight(2), Weight(1)) == -1
        assert default_epsilon(Weight(3), Weight(1)) == -1
        assert default_epsilon(Weight(1), Weight(1)) == -1
        assert default_epsilon(Weight(2), Weight(2)) == 1

    def test_equal_weights_rejected(self):
        with pytest.raises(EqualWeights):
            build_rep(Weight(1), Weight(1))

    def test_bad_epsilon(self):
        with pytest.raises(InvalidArgument):
            build_rep(Weight(1), Weight(0), epsilon=2)

    def test_trivial_rep(self):
        rep = build_rep_diag(Weight(0))
        assert rep.dim == 1
        assert rep_signature(rep) == (1, 0)

    def test_m_n_commute(self):
        for rep in all_reps():
            for a in range(3):
                for b in range(3):
                    comm = rep.M[a] @ rep.N[b] - rep.N[b] @ rep.M[a]
                    assert max_dev(comm, np.zeros_like(comm)) < 1e-12

    def test_m_n_are_su2(self):
        for rep in all_reps():
            for fam in (rep.M, rep.N):
                for a in range(3):
                    for b in range(3):
                        comm = fam[a] @ fam[b] - fam[b] @ fam[a]
                        want = sum(1j * EPS[a, b, c] * fam[c] for c in range(3))
                        assert max_dev(comm, want) < 1e-12

    def test_i_k_built_from_m_n(self):
        for rep in reps_in_every_basis():
            for a in range(3):
                assert max_dev(rep.I[a], rep.M[a] + rep.N[a]) == 0
                assert max_dev(rep.K[a], -1j * (rep.M[a] - rep.N[a])) == 0

    def test_adjoint_exchange(self):
        # M+ = eta N eta_inv entrywise, and symmetrically
        for rep in all_reps():
            eta, eta_inv = rep.metric.eta, rep.metric.eta_inv
            for a in range(3):
                assert max_dev(rep.M[a].conj().T, eta @ rep.N[a] @ eta_inv) < 1e-10
                assert max_dev(rep.N[a].conj().T, eta @ rep.M[a] @ eta_inv) < 1e-10

    def test_boost_rotation_algebra(self):
        for rep in all_reps():
            for a in range(3):
                for b in range(3):
                    cases = (
                        (rep.I, rep.I, rep.I, 1j),
                        (rep.I, rep.K, rep.K, 1j),
                        (rep.K, rep.K, rep.I, -1j),
                    )
                    for left, right, out, coeff in cases:
                        comm = left[a] @ right[b] - right[b] @ left[a]
                        want = sum(coeff * EPS[a, b, c] * out[c] for c in range(3))
                        assert max_dev(comm, want) < 1e-10

    def test_rotations_and_boosts_self_adjoint(self):
        for rep in all_reps():
            for a in range(3):
                for fam in (rep.I, rep.K):
                    op = KindedOperator(fam[a], OperatorKind.DOWN_DOWN)
                    assert is_semi_hermitian(op, rep.metric, 1e-10)


class TestSignatures:
    def test_fundamental_spinor_case(self):
        assert rep_signature(build_rep(Weight(1), Weight(0))) == (2, 2)

    @pytest.mark.parametrize("tj1,tj2", PAIR_WEIGHTS)
    def test_symmetric_signatures(self, tj1, tj2):
        rep = build_rep(Weight(tj1), Weight(tj2))
        assert rep_signature(rep) == pair_signature(tj1, tj2)

    @pytest.mark.parametrize("tj", DIAG_WEIGHTS)
    def test_diag_signatures(self, tj):
        rep = build_rep_diag(Weight(tj))
        assert rep_signature(rep) == diag_signature(tj)

    def test_epsilon_flip_swaps_signature(self):
        rep = build_rep_diag(Weight(1), epsilon=1)
        assert rep_signature(rep) == (3, 1)  # default epsilon gives (1, 3)


class TestMetricFromEntries:
    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_matches_the_dense_kernel(self, epsilon):
        # a bundle metric is checked, inverted and counted from its entries;
        # the dense LAPACK kernel agrees on every bundle
        for rep in reps_in_every_basis(epsilon):
            eta = rep.metric.eta
            assert rep_signature(rep) == signature(eta)
            assert max_dev(eta @ rep.metric.eta_inv, np.eye(rep.dim)) <= DEFAULT_TOLS.eq_tol

    @pytest.mark.parametrize(
        "index, error, match",
        [([0], Singular, "singular value"), ([0, 1], NotHermitian, "hermitian"),
         ([0, 2], NotHermitian, "hermitian")],
        ids=["too-few-entries", "two-in-one-row", "repeated-column"],
    )
    def test_rejects_non_monomial(self, index, error, match):
        # entries that are not monomial are checked as the dense matrix is
        entries = (index, [1 + 0j] * len(index))
        with pytest.raises(error, match=match):
            MetricOperator._from_entries(2, entries)
        with pytest.raises(error, match=match):
            MetricOperator(_dense(2, entries))


class TestChiralProjectors:
    def test_block_structure(self):
        left, right = chiral_projectors(build_rep(Weight(1), Weight(0)))
        assert int(np.trace(left.mat).real) == 2
        assert int(np.trace(right.mat).real) == 2
        assert max_dev(left.mat + right.mat, np.eye(4)) == 0
        assert is_additive(left, right, 1e-12)

    def test_dirac_adjoint_exchanges(self):
        for tj1, tj2 in ((1, 0), (2, 1)):
            rep = build_rep(Weight(tj1), Weight(tj2))
            left, right = chiral_projectors(rep)
            bar_left = dirac_adjoint(left.op, rep.metric)
            assert max_dev(bar_left.mat, right.mat) < 1e-12

    def test_not_self_adjoint(self):
        rep = build_rep(Weight(1), Weight(0))
        left, right = chiral_projectors(rep)
        assert not is_semi_hermitian(left.op, rep.metric, 1e-6)
        assert not is_semi_hermitian(right.op, rep.metric, 1e-6)

    def test_rejected_for_tensor_square(self):
        with pytest.raises(WrongRepShape):
            chiral_projectors(build_rep_diag(Weight(1)))

    def test_chiral_subspaces_not_metric_invariant(self):
        # the common-invariant-subspace witness: eta does not preserve
        # the chiral blocks, so generators and metric share no subspace
        for tj1, tj2 in ((1, 0), (3, 1)):
            rep = build_rep(Weight(tj1), Weight(tj2))
            left, _ = chiral_projectors(rep)
            eta = rep.metric.eta
            leak = eta @ left.mat - left.mat @ eta @ left.mat
            assert max_dev(leak, np.zeros_like(leak)) > 0.5

    def test_exchange_in_every_basis(self):
        for tj1, tj2 in ((1, 0), (4, 3), (5, 2)):
            rep = build_rep(Weight(tj1), Weight(tj2))
            _, rot = rotation_basis(rep)
            orth = orthonormal_basis(rot)
            eye, zero = np.eye(rep.dim), np.zeros((rep.dim, rep.dim))
            for bundle in (rep, rot, orth):
                left, right = chiral_projectors(bundle)
                assert max_dev(left.mat + right.mat, eye) < 1e-12
                assert max_dev(left.mat @ right.mat, zero) < 1e-12
                bar_left = dirac_adjoint(left.op, bundle.metric)
                assert max_dev(bar_left.mat, right.mat) < 1e-12
            # the orthonormal projectors are the rotation ones conjugated by c2
            for got, x in zip(chiral_projectors(orth), chiral_projectors(rot)):
                assert np.array_equal(got.mat, mix(x.mat)), (tj1, tj2)


def spectral_rotation_metric(rep_rot):
    """Assemble the rotation-basis metric directly from the labels:
    diagonal pair blocks with entries epsilon * (-1)^(s - j1 - j2)."""
    dim = rep_rot.dim
    eta = np.zeros((dim, dim), dtype=complex)
    tjsum = rep_rot.j1.twice_j + rep_rot.j2.twice_j
    if rep_rot.is_diagonal:
        for idx, lab in enumerate(rep_rot.labels):
            eta[idx, idx] = rep_rot.epsilon * (-1) ** ((tjsum - lab["twice_s"]) // 2)
        return eta
    n = dim // 2
    for idx in range(n):
        lab = rep_rot.labels[idx]
        partner = n + idx  # same (s, sigma) slot in the mirrored block
        assert rep_rot.labels[partner]["twice_s"] == lab["twice_s"]
        assert rep_rot.labels[partner]["twice_sigma"] == lab["twice_sigma"]
        sign = rep_rot.epsilon * (-1) ** ((tjsum - lab["twice_s"]) // 2)
        eta[idx, partner] = sign
        eta[partner, idx] = sign
    return eta


class TestRotationBasis:
    @pytest.mark.parametrize("tj1, tj2, digest", [
        (4, 3, "17f4114c75b590ac06234333dfaf65c1ad98c4a8"),  # dim 40
        (12, 11, "cd935c115a35bf04d34efbc448dd79450bf42e16"),  # dim 312
    ])
    def test_change_bytes_pinned(self, tj1, tj2, digest):
        # the sha1 of C's bytes as the public six-Fraction call made them:
        # the twice-label kernel must give every entry to the last bit
        c, _ = rotation_basis(build_rep(Weight(tj1), Weight(tj2)))
        assert hashlib.sha1(c.tobytes()).hexdigest() == digest

    def test_requires_canonical(self):
        rep = build_rep(Weight(1), Weight(0))
        _, rot = rotation_basis(rep)
        with pytest.raises(WrongRepShape):
            rotation_basis(rot)

    def test_change_is_orthogonal(self):
        # basis changes conjugate by the adjoint, which needs C+ C = 1; the
        # orthonormal change c2 is its own inverse, and mix conjugates by it
        for rep in all_reps() + [build_rep(Weight(8), Weight(7))]:
            c, rot = rotation_basis(rep)
            assert max_dev(c.conj().T @ c, np.eye(rep.dim)) < 1e-12
            if not rep.is_diagonal:
                eye = np.eye(rep.dim // 2)
                c2 = np.block([[eye, eye], [eye, -eye]]) / np.sqrt(2.0)
                assert max_dev(c2.conj().T @ c2, np.eye(rep.dim)) < 1e-12
                assert max_dev(c2 @ c2, np.eye(rep.dim)) < 1e-12
                for x in rep.M + rep.N + rot.M + rot.N + (rep.metric.eta, rot.metric.eta):
                    assert max_dev(mix(x), c2 @ x @ c2) < 1e-12

    def test_cg_block_matches_full_fill(self):
        for jl, jr in cg_blocks():
            got, want = _cg_block(jl, jr), full_cg_block(jl, jr)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (jl, jr)
            assert got.tobytes() == want.tobytes(), (jl, jr)  # signed zeros too

    def test_cg_block_calls_only_selection_rule_entries(self, monkeypatch):
        calls = []

        def counting(tj1, tl1, tj2, tl2, ts, tsig):
            calls.append(tl1 + tl2 == tsig)
            return kernel(tj1, tl1, tj2, tl2, ts, tsig)

        # _cg_block looks the twice-label kernel up in braket.cg on each call
        kernel = cg._clebsch_gordan
        monkeypatch.setattr("braket.cg._clebsch_gordan", counting)
        for jl, jr in cg_blocks():
            calls.clear()
            _cg_block(jl, jr)
            assert calls and all(calls), (jl, jr)

    def test_total_spin_diagonalized(self):
        for rep in all_reps():
            _, rot = rotation_basis(rep)
            i2 = sum(m @ m for m in rot.I)
            i3 = rot.I[2]
            for idx, lab in enumerate(rot.labels):
                s = lab["twice_s"] / 2.0
                sigma = lab["twice_sigma"] / 2.0
                col = np.zeros(rot.dim)
                col[idx] = 1.0
                assert max_dev(i2[:, idx], s * (s + 1) * col) < 1e-10
                assert max_dev(i3[:, idx], sigma * col) < 1e-10

    def test_metric_matches_spectral_form(self):
        for rep in all_reps():
            _, rot = rotation_basis(rep)
            assert max_dev(rot.metric.eta, spectral_rotation_metric(rot)) < 1e-10

    def test_signature_preserved(self):
        rep = build_rep(Weight(3), Weight(1))
        _, rot = rotation_basis(rep)
        assert rep_signature(rot) == rep_signature(rep)


# The rep-ladder shapes of the benchmark (twice-j1, twice-j2), equal entries
# for the tensor square, plus the dim-1200 pair (24, 23).
LADDER_SHAPES = [(1, 0), (4, 3), (8, 7), (12, 11), (12, 12), (24, 23)]


def closed_form(tj1, tj2, basis=Basis.ROTATION, epsilon=None):
    if tj1 == tj2:
        return build_rep_diag(Weight(tj1), epsilon, basis)
    return build_rep(Weight(tj1), Weight(tj2), epsilon, basis)


def exchange(d_left, d_right):
    """Permutation sending y (x) x to x (x) y for x in C^d_left, y in C^d_right."""
    p, q = np.divmod(np.arange(d_left * d_right), d_right)
    s = np.zeros((d_left * d_right, d_right * d_left))
    s[p * d_right + q, q * d_left + p] = 1.0
    return s


def cg_rotated(tj1, tj2, epsilon):
    """M, N and the metric of the canonical (tj1, tj2) bundle moved to
    total-spin labels by the Clebsch-Gordan columns C: the rotation bundle
    by the CG path. C is block diagonal and real, so each tensor block
    (jl, jr) gives C^T (J (x) 1) C for M and C^T (1 (x) J) C for N, and the
    metric pairs the blocks by C0^T (epsilon S) C1, S the slot exchange.
    The canonical bundle is never built: its metric check is cubic."""
    blocks = _blocks(Weight(tj1), Weight(tj2))
    cs = [_cg_block(jl, jr).real for jl, jr in blocks]

    def conj(c, x):  # C^T x C in real arithmetic, skipping a zero part
        out = np.zeros(x.shape, dtype=complex)
        for part in ("real", "imag"):
            if np.any(getattr(x, part)):
                setattr(out, part, c.T @ getattr(x, part) @ c)
        return out

    def moved(generator):
        return [
            block_diag(*(conj(c, generator(jl, jr, a)) for (jl, jr), c in zip(blocks, cs)))
            for a in range(3)
        ]

    m = moved(lambda jl, jr, a: np.kron(su2_generators(jl).J[a], np.eye(jr.dim)))
    n = moved(lambda jl, jr, a: np.kron(np.eye(jl.dim), su2_generators(jr).J[a]))
    pair = epsilon * cs[0].T @ exchange(tj1 + 1, tj2 + 1) @ cs[-1]
    if len(blocks) == 1:
        eta = pair
    else:
        zero = np.zeros_like(pair)
        eta = np.block([[zero, pair], [pair.T, zero]])
    return m + n + [eta]


def assert_matches_cg_oracle(tj1, tj2):
    rot = closed_form(tj1, tj2)
    assert rot.basis == Basis.ROTATION
    for got, want in zip(rot.M + rot.N + (rot.metric.eta,), cg_rotated(tj1, tj2, rot.epsilon)):
        assert max_dev(got, want) < DEFAULT_TOLS.eq_tol, (tj1, tj2)
    return rot


def pattern_mask(rot):
    """True where a rotation-basis generator may be non-zero: same tensor
    block, and s and sigma each differing by at most one."""
    lab = lambda key: np.array([x[key] for x in rot.labels])
    block, ts, tsig = lab("twice_jl"), lab("twice_s"), lab("twice_sigma")
    near = lambda v: np.abs(v[:, None] - v[None, :]) <= 2
    return (block[:, None] == block[None, :]) & near(ts) & near(tsig)


def numpy_rotation_block(jl, jr):
    """(rows, cols, values) of the real (I3, I+), (A3, A+) and (B3, B+) of
    one tensor block in its total-spin basis, with D = A + B, the closed
    form evaluated on whole numpy arrays (see sl2c._rotation_block for the
    formulas)."""
    labels = _rotation_block_labels(jl, jr)
    ts = np.array([lab["twice_s"] for lab in labels])
    tsig = np.array([lab["twice_sigma"] for lab in labels])
    s, sig = ts / 2.0, tsig / 2.0
    k0, c = (jl.twice_j - jr.twice_j) / 2.0, (jl.twice_j + jr.twice_j) / 2.0 + 1.0
    n = len(ts)
    i = np.arange(n)
    a = k0 * c / (s * (s + 1)) if k0 else np.zeros(n)

    def b(t):
        return np.sqrt((t * t - k0 * k0) * (c * c - t * t) / (t * t * (4 * t * t - 1)))

    m = tsig < ts
    root = np.sqrt((s - sig) * (s + sig + 1))[m]
    ip = (i[m] - 1, i[m], root)
    ap = (i[m] - 1, i[m], root * a[m])
    low = ts > ts[-1]
    m = low & (abs(tsig) < ts)
    mirrored = np.sqrt(s * s - sig * sig)[m] * b(s[m])
    b3 = [(i[m] + ts[m], i[m], mirrored), (i[m], i[m] + ts[m], mirrored)]
    m = low & (tsig <= ts - 4)
    bp = [(i[m] + ts[m] - 1, i[m], np.sqrt((s - sig) * (s - sig - 1))[m] * b(s[m]))]
    m = ts < ts[0]
    bp.append((i[m] - ts[m] - 3, i[m], -np.sqrt((s + sig + 1) * (s + sig + 2))[m] * b(s[m] + 1)))
    joined = lambda parts: tuple(map(np.concatenate, zip(*parts)))
    return ((i, i, sig), ip), ((i, i, sig * a), ap), (joined(b3), joined(bp))


def dense_bundle(m, n, eta):
    """M, N, I, K and the metric, I and K formed from whole arrays."""
    i = [a + b for a, b in zip(m, n)]
    k = [1j * (b - a) for a, b in zip(m, n)]
    return [*m, *n, *i, *k, eta]


def dense_canonical(tj1, tj2, epsilon):
    """The canonical bundle by numpy's arithmetic on dense matrices: the
    su(2) ladder, J- = J+^H, kron with the complex identity, and epsilon
    times the exchange (its conjugate transpose below)."""

    def su2(tj):
        jj, d = tj / 2.0, tj + 1
        plus = np.zeros((d, d), dtype=complex)
        for row in range(d - 1):
            lam = jj - row - 1
            plus[row, row + 1] = np.sqrt(jj * (jj + 1) - lam * (lam + 1))
        minus = plus.conj().T
        j3 = np.diag(np.array([jj - k for k in range(d)], dtype=complex))
        return (plus + minus) / 2.0, (plus - minus) / 2.0j, j3

    blocks = [(tj1, tj1)] if tj1 == tj2 else [(tj1, tj2), (tj2, tj1)]
    eye = lambda tj: np.eye(tj + 1, dtype=complex)
    m = [block_diag(*(np.kron(su2(l)[a], eye(r)) for l, r in blocks)) for a in range(3)]
    n = [block_diag(*(np.kron(eye(l), su2(r)[a]) for l, r in blocks)) for a in range(3)]
    swap = exchange(tj1 + 1, tj2 + 1).astype(complex)
    dim, size = m[0].shape[0], swap.shape[0]
    eta = np.zeros((dim, dim), dtype=complex)
    eta[dim - size :, :size] = epsilon * swap.conj().T
    eta[:size, dim - size :] = epsilon * swap
    return dense_bundle(m, n, eta)


def dense_closed_form(tj1, tj2, epsilon):
    """M, N, I, K and the metric of the rotation bundle, and those of the
    orthonormal one for a pair, by the dense arithmetic the bundle's
    entries reproduce: the I, A and B matrices of every block filled
    densely from its own closed form, the families formed from whole
    arrays. The rotation bundle is (I + sign (A + B))/2 block by block;
    the orthonormal one is the sigma_x form of block 0,
    (1 x I + sign (sigma_x x A + 1 x B))/2, with the metric sigma_z x W."""
    blocks = _blocks(Weight(tj1), Weight(tj2))
    n = (tj1 + 1) * (tj2 + 1)
    dim = n * len(blocks)
    pieces = []  # per block: I3, I+, A3, A+, B3, B+
    for jl, jr in blocks:
        arrays = [np.zeros((n, n)) for _ in range(6)]
        parts = [part for piece in numpy_rotation_block(jl, jr) for part in piece]
        for x, (rows, cols, values) in zip(arrays, parts):
            x[rows, cols] = values
        pieces.append(arrays)

    def cartesian(x3, xp):
        x2 = np.zeros(xp.shape, dtype=complex)
        x2.imag = (xp.T - xp) / 2
        return ((xp + xp.T).astype(complex) / 2, x2, x3.astype(complex))

    def rotation(sign):
        i3, ip, a3, ap, b3, bp = (block_diag(*parts) for parts in zip(*pieces))
        return cartesian((i3 + sign * (a3 + b3)) / 2, (ip + sign * (ap + bp)) / 2)

    def orthonormal(sign):
        i3, ip, a3, ap, b3, bp = pieces[0]
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        form = lambda i, a, b: np.kron(np.eye(2), (i + sign * b) / 2) + np.kron(sigma_x, sign * a / 2)
        return cartesian(form(i3, a3, b3), form(ip, ap, bp))

    rot = closed_form(tj1, tj2, epsilon=epsilon)
    signs = [epsilon * (-1) ** ((tj1 + tj2 - lab["twice_s"]) // 2) for lab in rot.labels[:n]]
    eta = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(n)
    eta[idx, idx + dim - n] = eta[idx + dim - n, idx] = signs
    want = [dense_bundle(rotation(1), rotation(-1), eta)]
    if len(blocks) == 2:
        eta = np.diag(np.concatenate((signs, np.negative(signs)))).astype(complex)
        want.append(dense_bundle(orthonormal(1), orthonormal(-1), eta))
    return want


def assert_entries_match_dense_arithmetic(tj1, tj2, epsilon):
    # the bundle is built from entries in pure Python; in every basis each
    # dense matrix made from them is numpy's dense computation to the last
    # bit, with its zeros unsigned (x + 0 turns a -0.0 part into 0.0 and
    # leaves every other bit alone), and the text written from them is the
    # dict encoding
    want = dict(zip([Basis.ROTATION, Basis.ORTHONORMAL], dense_closed_form(tj1, tj2, epsilon)))
    want[Basis.CANONICAL] = dense_canonical(tj1, tj2, epsilon)
    for basis, matrices in want.items():
        rep = closed_form(tj1, tj2, basis, epsilon)
        got = [*rep.M, *rep.N, *rep.I, *rep.K, rep.metric.eta]
        assert [x.tobytes() for x in got] == [(x + 0).tobytes() for x in matrices], basis
        assert dump_rep(rep) == dump_json(rep_to_json(rep)), basis


class TestClosedForm:
    @pytest.mark.parametrize("tj1, tj2", LADDER_SHAPES)
    def test_matches_cg_oracle(self, tj1, tj2):
        assert_matches_cg_oracle(tj1, tj2)

    def test_matches_the_cg_path_in_every_basis(self):
        # rotation_basis still returns C; C^+ X C of the canonical bundle is
        # its closed-form bundle, and the orthonormal one is mixed from it
        for rep in all_reps():
            c, rot = rotation_basis(rep)
            moved = [c.conj().T @ x @ c for x in rep.M + rep.N + (rep.metric.eta,)]
            for got, want in zip(rot.M + rot.N + (rot.metric.eta,), moved):
                assert max_dev(got, want) < DEFAULT_TOLS.eq_tol
            built = closed_form(rep.j1.twice_j, rep.j2.twice_j, epsilon=rep.epsilon)
            assert built.labels == rot.labels
            if not rep.is_diagonal:
                orth = closed_form(rep.j1.twice_j, rep.j2.twice_j, Basis.ORTHONORMAL)
                assert orth.basis == Basis.ORTHONORMAL
                assert orth.labels == orthonormal_basis(rot).labels
                for got, x in zip(orth.M + orth.N + (orth.metric.eta,), moved):
                    assert max_dev(got, mix(x)) < DEFAULT_TOLS.eq_tol

    @pytest.mark.parametrize(
        "tj1, tj2, epsilon",
        [(1, 0, 1), (4, 3, -1), (5, 2, 1), (8, 7, 1), (6, 1, -1), (12, 12, 1), (7, 7, -1), (0, 0, 1)],
    )
    def test_entries_match_dense_arithmetic_bitwise(self, tj1, tj2, epsilon):
        assert_entries_match_dense_arithmetic(tj1, tj2, epsilon)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(tj1=st.integers(0, 12), tj2=st.integers(0, 12), epsilon=st.sampled_from([1, -1]))
    def test_entries_match_dense_arithmetic_sweep(self, tj1, tj2, epsilon):
        assert_entries_match_dense_arithmetic(tj1, tj2, epsilon)

    @pytest.mark.parametrize("epsilon", [1, -1])
    @pytest.mark.parametrize("tj1, tj2", [(1, 0), (4, 3), (5, 2), (3, 3), (2, 2)])
    def test_zeros_are_unsigned(self, tj1, tj2, epsilon):
        # the dense computation puts -0.0 in K's real parts where M - N is
        # negative and in the epsilon = -1 canonical metric's upper block;
        # no bundle holds one, and its text spells none
        bases = [Basis.CANONICAL, Basis.ROTATION] + ([Basis.ORTHONORMAL] if tj1 != tj2 else [])
        for basis in bases:
            rep = closed_form(tj1, tj2, basis, epsilon)
            for x in (*rep.M, *rep.N, *rep.I, *rep.K, rep.metric.eta):
                assert not np.signbit(x.real[x.real == 0]).any(), basis
                assert not np.signbit(x.imag[x.imag == 0]).any(), basis
            assert not re.search(r"-0\.0[,\]]", dump_rep(rep)), basis

    def test_flipped_epsilon(self):
        for tj1, tj2 in ((2, 1), (3, 3)):
            rot = closed_form(tj1, tj2)
            flipped = closed_form(tj1, tj2, epsilon=-rot.epsilon)
            assert np.array_equal(flipped.metric.eta, -rot.metric.eta)
            assert max_dev(flipped.metric.eta, cg_rotated(tj1, tj2, -rot.epsilon)[-1]) < 1e-12

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(tj1=st.integers(0, 20), tj2=st.integers(0, 20))
    def test_random_shapes(self, tj1, tj2):
        dim = (tj1 + 1) ** 2 if tj1 == tj2 else 2 * (tj1 + 1) * (tj2 + 1)
        assume(dim <= 400)
        rot = assert_matches_cg_oracle(tj1, tj2)
        i1, i2, i3 = rot.I
        assert max_dev(i1 @ i2 - i2 @ i1, 1j * i3) < DEFAULT_TOLS.eq_tol
        want = diag_signature(tj1) if tj1 == tj2 else pair_signature(tj1, tj2)
        assert rep_signature(rot) == want

    @pytest.mark.parametrize("tj1, tj2", LADDER_SHAPES[:-1] + [(5, 2), (6, 0), (3, 3)])
    def test_exact_zeros(self, tj1, tj2):
        rot = closed_form(tj1, tj2)
        outside = ~pattern_mask(rot)
        for x in rot.M + rot.N + rot.I + rot.K:
            assert not np.any(x[outside])
        if tj1 != tj2:
            eta = orthonormal_basis(rot).metric.eta
            assert np.array_equal(eta, np.diag(np.diagonal(eta)))
            assert set(np.diagonal(eta).tolist()) == {1, -1}

    @pytest.mark.parametrize(
        "flags",
        [
            ("--twice-j1", "4", "--twice-j2", "3", "--basis", "orthonormal"),
            ("--twice-j1", "4", "--twice-j2", "3", "--basis", "rotation"),
            ("--twice-j1", "4", "--basis", "rotation"),
        ],
    )
    def test_cli_makes_no_cg_calls(self, monkeypatch, capsys, flags):
        calls = []

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        # every coefficient, public or from _cg_block, passes the kernel
        kernel = cg._clebsch_gordan
        monkeypatch.setattr("braket.cg._clebsch_gordan", counting)
        assert cli.main(["rep", *flags]) == 0
        assert capsys.readouterr().out
        assert calls == []

    def test_unknown_basis(self):
        with pytest.raises(InvalidArgument, match="basis"):
            build_rep(Weight(1), Weight(0), basis="spherical")

    def test_orthonormal_rejected_for_tensor_square(self):
        with pytest.raises(WrongRepShape):
            build_rep_diag(Weight(2), basis=Basis.ORTHONORMAL)


class TestOrthonormalBasis:
    def test_metric_diagonal_signs(self):
        rep = build_rep(Weight(1), Weight(0))
        _, rot = rotation_basis(rep)
        orth = orthonormal_basis(rot)
        diag = np.diagonal(orth.metric.eta)
        off = orth.metric.eta - np.diag(diag)
        assert max_dev(off, np.zeros_like(off)) < 1e-12
        assert max_dev(sorted(diag.real), [-1, -1, 1, 1]) < 1e-12

    def test_signature_matches_canonical(self):
        for tj1, tj2 in PAIR_WEIGHTS:
            rep = build_rep(Weight(tj1), Weight(tj2))
            _, rot = rotation_basis(rep)
            orth = orthonormal_basis(rot)
            diag = np.diagonal(orth.metric.eta).real
            read_off = (int(np.sum(diag > 0)), int(np.sum(diag < 0)))
            assert read_off == rep_signature(rep)

    def test_plus_minus_norms(self):
        # the two combinations (|0;s,sig> +- |1;s,sig>)/sqrt(2) carry
        # opposite unit norms under the pair-block metric
        rep = build_rep(Weight(2), Weight(0))
        _, rot = rotation_basis(rep)
        orth = orthonormal_basis(rot)
        n = rep.dim // 2
        eta_rot = rot.metric.eta
        for idx in range(n):
            plus = np.zeros(rep.dim)
            plus[idx] = plus[n + idx] = 1 / np.sqrt(2)
            minus = np.zeros(rep.dim)
            minus[idx], minus[n + idx] = 1 / np.sqrt(2), -1 / np.sqrt(2)
            want_plus = orth.metric.eta[idx, idx]
            want_minus = orth.metric.eta[n + idx, n + idx]
            assert abs(plus @ eta_rot @ plus - want_plus) < 1e-12
            assert abs(minus @ eta_rot @ minus - want_minus) < 1e-12
            assert abs(want_plus + want_minus) < 1e-12

    def test_rejects_tensor_square(self):
        _, rot = rotation_basis(build_rep_diag(Weight(1)))
        with pytest.raises(WrongRepShape):
            orthonormal_basis(rot)

    def test_rejects_canonical_input(self):
        with pytest.raises(WrongRepShape):
            orthonormal_basis(build_rep(Weight(1), Weight(0)))

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_rotations_are_exact(self, epsilon):
        # I = 1 x I of block 0 on the sign quadrants: I3 is diag(sigma) to
        # the last bit, and no rotation mixes the + and - states
        for tj1 in range(1, 13):
            for tj2 in range(tj1):
                orth = build_rep(Weight(tj1), Weight(tj2), epsilon, Basis.ORTHONORMAL)
                n = orth.dim // 2
                sigma = [lab["twice_sigma"] / 2 for lab in orth.labels]
                assert np.array_equal(orth.I[2], np.diag(sigma)), (tj1, tj2)
                for x in orth.I:
                    assert not x[:n, n:].any() and not x[n:, :n].any(), (tj1, tj2)

    def test_generators_stay_self_adjoint(self):
        rep = build_rep(Weight(1), Weight(0))
        _, rot = rotation_basis(rep)
        orth = orthonormal_basis(rot)
        for bundle in (rot, orth):
            for a in range(3):
                for fam in (bundle.I, bundle.K):
                    op = KindedOperator(fam[a], OperatorKind.DOWN_DOWN)
                    assert is_semi_hermitian(op, bundle.metric, 1e-10)


def by_route(tj1, tj2, basis, epsilon):
    """The bundle reached from the canonical one through rotation_basis
    and orthonormal_basis."""
    rep = closed_form(tj1, tj2, Basis.CANONICAL, epsilon)
    if basis != Basis.CANONICAL:
        rep = rotation_basis(rep)[1]
    return orthonormal_basis(rep) if basis == Basis.ORTHONORMAL else rep


def contents(rep):
    return rep.labels, rep.metric._entries, rep._mn


class TestValue:
    # a bundle is fixed by, and compares equal on, (j1, j2, epsilon, basis)

    @pytest.mark.parametrize("epsilon", [1, -1])
    @pytest.mark.parametrize("tj1, tj2", [(1, 0), (4, 3), (2, 5), (3, 3), (0, 0)])
    def test_routes_agree(self, tj1, tj2, epsilon):
        bases = [Basis.CANONICAL, Basis.ROTATION] + ([Basis.ORTHONORMAL] if tj1 != tj2 else [])
        for basis in bases:
            built = closed_form(tj1, tj2, basis, epsilon)
            routed = by_route(tj1, tj2, basis, epsilon)
            assert built == routed and hash(built) == hash(routed), basis
            assert contents(built) == contents(routed), basis

    def test_labels_normalised(self):
        rep = CoupledRep(Weight(4), Weight(3), None, "rotation")
        assert rep.epsilon == default_epsilon(Weight(4), Weight(3)) == -1
        assert rep.basis is Basis.ROTATION
        assert rep == CoupledRep(Weight(4), Weight(3), -1, Basis.ROTATION)
        assert rep == build_rep(Weight(4), Weight(3), basis="rotation")
        assert len({rep, CoupledRep(Weight(4), Weight(3), -1, "rotation")}) == 1

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_loaded_bundle_equals_built(self, epsilon):
        for rep in reps_in_every_basis(epsilon):
            back = rep_from_json(json.loads(dump_rep(rep)))
            assert back == rep and hash(back) == hash(rep)

    def test_epsilon_and_basis_distinguish(self):
        reps = [
            CoupledRep(Weight(2), Weight(1), epsilon, basis)
            for epsilon in (1, -1)
            for basis in Basis
        ]
        assert len(set(reps)) == len(reps) == 6
        assert all(a != b for i, a in enumerate(reps) for b in reps[i + 1 :])
        assert CoupledRep(Weight(2), Weight(1)) != CoupledRep(Weight(1), Weight(2))

    def test_bad_basis(self):
        with pytest.raises(InvalidArgument, match="unknown basis 'sideways'"):
            CoupledRep(Weight(1), Weight(0), basis="sideways")

    def test_bad_epsilon(self):
        with pytest.raises(InvalidArgument, match="epsilon"):
            CoupledRep(Weight(1), Weight(0), 2)

    def test_orthonormal_tensor_square(self):
        with pytest.raises(WrongRepShape, match="orthonormal in the rotation basis"):
            CoupledRep(Weight(2), Weight(2), basis=Basis.ORTHONORMAL)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_rep(1, 0),
            lambda: build_rep(Weight(1), 0),
            lambda: build_rep_diag(2),
            lambda: CoupledRep(Weight(1), 1.5),
        ],
        ids=["build_rep", "second-weight", "build_rep_diag", "constructor"],
    )
    def test_weights_must_be_weights(self, make):
        with pytest.raises(InvalidWeights):
            make()


class TestLabels:
    def test_canonical_label_counts(self):
        rep = build_rep(Weight(2), Weight(1))
        assert len(rep.labels) == rep.dim
        first = rep.labels[0]
        assert first == {"twice_jl": 2, "twice_jr": 1, "twice_ml": 2, "twice_mr": 1}
        mirrored = rep.labels[rep.dim // 2]
        assert mirrored["twice_jl"] == 1 and mirrored["twice_jr"] == 2

    def test_rotation_label_multiplicities(self):
        _, rot = rotation_basis(build_rep_diag(Weight(2)))
        counts = {}
        for lab in rot.labels:
            counts[lab["twice_s"]] = counts.get(lab["twice_s"], 0) + 1
        assert counts == {0: 1, 2: 3, 4: 5}

    def test_orthonormal_labels(self):
        _, rot = rotation_basis(build_rep(Weight(1), Weight(0)))
        orth = orthonormal_basis(rot)
        signs = [lab["sign"] for lab in orth.labels]
        assert signs == [1, 1, -1, -1]
