"""Coupled finite-dimensional sl(2,C) representations with invariant metrics.

A two-weight bundle lives on (K^j1 x K^j2) + (K^j2 x K^j1) and carries
commuting block generators M (left tensor slot) and N (right slot). Only
M and N are stored; the rotations I = M + N and the boosts K = -i(M - N)
are derived from them on access. The invariant metric is epsilon times
the block-swap pairing, which makes I and K self-adjoint and exchanges
the adjoints of M and N. For equal weights the carrier is the single
tensor square K^j x K^j with the slot-swap metric.

Both shapes are assembled by one path over the bundle's tensor blocks:
((j, j),) for a tensor square, ((j1, j2), (j2, j1)) for a pair.

Bases: canonical (tensor-product labels), rotation (total-spin labels
|s sigma>, diagonalizing I^2 and I3) and orthonormal (a diagonal +-1
metric; only for differing weights, as the rotation basis of an
equal-weight bundle is already orthonormal). The canonical bundle is
built from Kronecker products of su(2) generators. The rotation bundle
is built straight from the closed-form generator elements of Gel'fand,
Minlos & Shapiro, so it holds exact zeros wherever the selection rules
put them, and no Clebsch-Gordan coefficient is computed; it equals
C^+ X C for the Clebsch-Gordan change C that rotation_basis returns. The
orthonormal bundle is the rotation one conjugated by the block-mixing
involution c2, done as sums of quadrants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .cg import clebsch_gordan
from .errors import EqualWeights, InvalidArgument, WrongRepShape
from .linalg import kron, signature
from .projections import Projector
from .spaces import MetricOperator
from .su2 import Weight, su2_generators

__all__ = [
    "Basis",
    "CoupledRep",
    "default_epsilon",
    "build_rep",
    "build_rep_diag",
    "chiral_projectors",
    "rotation_basis",
    "orthonormal_basis",
    "rep_signature",
]


class Basis(str, Enum):
    """The basis a bundle is expressed in; members compare equal to their names."""

    CANONICAL = "canonical"
    ROTATION = "rotation"
    ORTHONORMAL = "orthonormal"


@dataclass(frozen=True, eq=False)
class CoupledRep:
    """A full representation bundle in one fixed basis."""

    j1: Weight
    j2: Weight
    M: tuple[np.ndarray, np.ndarray, np.ndarray]
    N: tuple[np.ndarray, np.ndarray, np.ndarray]
    metric: MetricOperator
    epsilon: int
    basis: Basis
    labels: tuple[dict, ...]

    @property
    def dim(self) -> int:
        """Dimension of the carrier space, read off the metric."""
        return self.metric.dim

    @property
    def is_diagonal(self) -> bool:
        """Equal-weight bundles live on a single tensor square."""
        return self.j1 == self.j2

    @property
    def I(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rotation generators I_a = M_a + N_a."""
        return tuple(m + n for m, n in zip(self.M, self.N))

    @property
    def K(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Boost generators K_a = -i(M_a - N_a)."""
        # Written as i(N - M): a product with -1j gives every zero entry a
        # -0.0 part, which the JSON writer then has to spell out.
        return tuple(1j * (n - m) for m, n in zip(self.M, self.N))


def default_epsilon(j1: Weight, j2: Weight) -> int:
    """Sign choice (-1)^(j1+j2-|j1-j2|); (-1)^(2j) for equal weights."""
    return -1 if min(j1.twice_j, j2.twice_j) % 2 else 1


def _check_epsilon(epsilon) -> int:
    if epsilon not in (-1, 1):
        raise InvalidArgument(f"epsilon must be +1 or -1, got {epsilon!r}")
    return int(epsilon)


def _blocks(j1: Weight, j2: Weight) -> tuple[tuple[Weight, Weight], ...]:
    """(left, right) weights of the bundle's tensor blocks, in basis order."""
    return ((j1, j1),) if j1 == j2 else ((j1, j2), (j2, j1))


def _exchange(d_left: int, d_right: int) -> np.ndarray:
    """Permutation sending y (x) x to x (x) y for x in C^d_left, y in C^d_right."""
    s = np.zeros((d_left * d_right, d_right * d_left), dtype=complex)
    for p in range(d_left):
        for q in range(d_right):
            s[p * d_right + q, q * d_left + p] = 1.0
    return s


def _block_diag(*mats: np.ndarray) -> np.ndarray:
    rows, cols = sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=np.result_type(*mats))
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def _mix(x: np.ndarray) -> np.ndarray:
    """c2 x c2 for the involution c2 = [[1, 1], [1, -1]]/sqrt(2), which mixes
    two blocks of size n into (b0 +- b1)/sqrt(2); c2 is real, symmetric and
    its own inverse. On the quadrants [[P, Q], [R, S]] of x this is
    1/2 [[P+Q+R+S, P-Q+R-S], [P+Q-R-S, P-Q-R+S]], so no matmul is needed.
    """
    n = x.shape[0] // 2
    rows = np.concatenate((x[:n] + x[n:], x[:n] - x[n:]))
    return 0.5 * np.concatenate((rows[:, :n] + rows[:, n:], rows[:, :n] - rows[:, n:]), axis=1)


def _canonical_block_labels(jl: Weight, jr: Weight) -> list[dict]:
    return [
        {
            "twice_jl": jl.twice_j,
            "twice_jr": jr.twice_j,
            "twice_ml": jl.twice_j - 2 * p,
            "twice_mr": jr.twice_j - 2 * q,
        }
        for p in range(jl.dim)
        for q in range(jr.dim)
    ]


def _spin_range(j1: Weight, j2: Weight) -> list[int]:
    """Total twice-spins, descending from j1+j2 to |j1-j2|."""
    return list(range(j1.twice_j + j2.twice_j, abs(j1.twice_j - j2.twice_j) - 2, -2))


def _rotation_block_labels(jl: Weight, jr: Weight) -> list[dict]:
    return [
        {
            "twice_jl": jl.twice_j,
            "twice_jr": jr.twice_j,
            "twice_s": ts,
            "twice_sigma": tsig,
        }
        for ts in _spin_range(jl, jr)
        for tsig in range(ts, -ts - 2, -2)
    ]


def _canonical(j1: Weight, j2: Weight, epsilon: int) -> CoupledRep:
    """The bundle of weights (j1, j2) in the canonical basis; in every
    tensor block M acts on the left slot and N on the right one."""
    blocks = _blocks(j1, j2)
    gens = {w: su2_generators(w).J for block in blocks for w in block}
    eye = {w: np.eye(w.dim, dtype=complex) for w in gens}
    m_gens = tuple(
        _block_diag(*(kron(gens[jl][a], eye[jr]) for jl, jr in blocks)) for a in range(3)
    )
    n_gens = tuple(
        _block_diag(*(kron(eye[jl], gens[jr][a]) for jl, jr in blocks)) for a in range(3)
    )

    # epsilon times the exchange pairing the first block with the last. For
    # a tensor square they are one block, the exchange is symmetric and the
    # second assignment stands.
    dim = sum(jl.dim * jr.dim for jl, jr in blocks)
    swap = _exchange(j1.dim, j2.dim)
    n = swap.shape[0]
    eta = np.zeros((dim, dim), dtype=complex)
    eta[dim - n :, :n] = epsilon * swap.conj().T
    eta[:n, dim - n :] = epsilon * swap

    labels = [lab for jl, jr in blocks for lab in _canonical_block_labels(jl, jr)]
    return CoupledRep(
        j1=j1,
        j2=j2,
        M=m_gens,
        N=n_gens,
        metric=MetricOperator(eta),
        epsilon=epsilon,
        basis=Basis.CANONICAL,
        labels=tuple(labels),
    )


def _rotation_block(jl: Weight, jr: Weight) -> tuple[np.ndarray, ...]:
    """Real (I3, I+, D3, D+) of one tensor block in its total-spin basis.

    I is the spin-s matrix on each total spin s. D = M - N is the vector
    operator of Gel'fand, Minlos & Shapiro (1963) and Naimark (1964); with
    k0 = jl - jr, c = jl + jr + 1,
        A_s = k0 c / (s(s+1)),
        B_s = sqrt((s^2 - k0^2)(c^2 - s^2) / (s^2 (4s^2 - 1))),
    its elements are
        <s sig|D3|s sig>       = sig A_s,
        <s-1 sig|D3|s sig>     = sqrt(s^2 - sig^2) B_s, and the mirror,
        <s sig+1|D+|s sig>     = sqrt((s - sig)(s + sig + 1)) A_s,
        <s-1 sig+1|D+|s sig>   = sqrt((s - sig)(s - sig - 1)) B_s,
        <s+1 sig+1|D+|s sig>   = -sqrt((s + sig + 1)(s + sig + 2)) B_{s+1}.
    A_s is 0 when k0 = 0, where s = 0 would make it 0/0, and B_s is needed
    only above the lowest spin |k0|, so its 0/0 at s = 1/2 = |k0| never
    arises. Only these entries are written; every other entry is an exact
    zero. In the basis order (s descending, then sig descending) the state
    (s, sig) at index i has (s, sig+1) at i - 1, (s-1, sig) at i + 2s,
    (s-1, sig+1) at i + 2s - 1 and (s+1, sig+1) at i - 2s - 3.
    """
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

    i3, ip, d3, dp = (np.zeros((n, n)) for _ in range(4))
    i3[i, i] = sig
    d3[i, i] = sig * a
    m = tsig < ts  # sig < s
    root = np.sqrt((s - sig) * (s + sig + 1))[m]
    ip[i[m] - 1, i[m]] = root
    dp[i[m] - 1, i[m]] = root * a[m]
    low = ts > ts[-1]  # s above the lowest spin
    m = low & (abs(tsig) < ts)
    d3[i[m] + ts[m], i[m]] = d3[i[m], i[m] + ts[m]] = np.sqrt(s * s - sig * sig)[m] * b(s[m])
    m = low & (tsig <= ts - 4)
    dp[i[m] + ts[m] - 1, i[m]] = np.sqrt((s - sig) * (s - sig - 1))[m] * b(s[m])
    m = ts < ts[0]  # s below the highest spin
    dp[i[m] - ts[m] - 3, i[m]] = -np.sqrt((s + sig + 1) * (s + sig + 2))[m] * b(s[m] + 1)
    return i3, ip, d3, dp


def _rotation(j1: Weight, j2: Weight, epsilon: int) -> CoupledRep:
    """The bundle of weights (j1, j2) in the rotation basis, from the closed
    form of each tensor block; M = (I + D)/2 and N = (I - D)/2.

    The metric pairs (block 0; s, sig) with (block 1; s, sig), or each
    state with itself in a tensor square, with weight
    epsilon (-1)^(j1 + j2 - s).
    """
    blocks = _blocks(j1, j2)
    parts = zip(*(_rotation_block(jl, jr) for jl, jr in blocks))
    i3, ip, d3, dp = (_block_diag(*mats) for mats in parts)

    def family(sign):  # M for +1, N for -1
        x3, xp = (i3 + sign * d3) / 2, (ip + sign * dp) / 2
        # x2 = (x+ - x-)/(2i), filled through its imaginary part so that every
        # real part is +0.0, which the JSON writer leaves unwritten
        x2 = np.zeros(xp.shape, dtype=complex)
        x2.imag = (xp.T - xp) / 2
        return ((xp + xp.T).astype(complex) / 2, x2, x3.astype(complex))

    labels = [lab for jl, jr in blocks for lab in _rotation_block_labels(jl, jr)]
    n = len(labels) // len(blocks)
    tjsum = j1.twice_j + j2.twice_j
    signs = [epsilon * (-1) ** ((tjsum - lab["twice_s"]) // 2) for lab in labels[:n]]
    eta = np.zeros((len(labels), len(labels)), dtype=complex)
    k = np.arange(n)
    off = len(labels) - n  # 0 for a tensor square: its metric is diagonal
    eta[k, k + off] = eta[k + off, k] = signs
    return CoupledRep(
        j1=j1,
        j2=j2,
        M=family(1),
        N=family(-1),
        metric=MetricOperator(eta),
        epsilon=epsilon,
        basis=Basis.ROTATION,
        labels=tuple(labels),
    )


def _build(j1: Weight, j2: Weight, epsilon: int, basis) -> CoupledRep:
    try:
        basis = Basis(basis)
    except ValueError:
        raise InvalidArgument(f"unknown basis {basis!r}") from None
    if basis == Basis.CANONICAL:
        return _canonical(j1, j2, epsilon)
    rot = _rotation(j1, j2, epsilon)
    return rot if basis == Basis.ROTATION else orthonormal_basis(rot)


def build_rep(
    j1: Weight, j2: Weight, epsilon: int | None = None, basis: Basis = Basis.CANONICAL
) -> CoupledRep:
    """Two-weight bundle on (K^j1 x K^j2) + (K^j2 x K^j1) in the given basis.

    In the canonical basis each block is ordered left slot major with
    magnetic labels descending, and the metric is epsilon times the
    off-diagonal pair of slot-exchange blocks, which couples each basis
    vector with its mirrored tensor slot in the other block. The rotation
    and orthonormal bundles are built from the closed form.
    """
    if j1 == j2:
        raise EqualWeights("equal weights form a tensor square; use build_rep_diag")
    epsilon = default_epsilon(j1, j2) if epsilon is None else _check_epsilon(epsilon)
    return _build(j1, j2, epsilon, basis)


def build_rep_diag(
    j: Weight, epsilon: int | None = None, basis: Basis = Basis.CANONICAL
) -> CoupledRep:
    """Equal-weight bundle on the tensor square K^j x K^j in the given basis.

    The canonical metric is epsilon times the tensor-slot swap. The
    rotation basis is already orthonormal, so the orthonormal basis is
    rejected.
    """
    epsilon = default_epsilon(j, j) if epsilon is None else _check_epsilon(epsilon)
    return _build(j, j, epsilon, basis)


def chiral_projectors(rep: CoupledRep) -> tuple[Projector, Projector]:
    """Projectors onto the two tensor-order summands of a two-weight bundle.

    They are complementary and additive but not self-adjoint: the metric
    exchanges them under Dirac conjugation, which is exactly why the
    bundle has no common invariant subspace of generators and metric.
    """
    if rep.is_diagonal:
        raise WrongRepShape("equal-weight bundles have no chiral split")
    n = rep.dim // 2
    left = np.zeros((rep.dim, rep.dim), dtype=complex)
    left[:n, :n] = np.eye(n)
    right = np.eye(rep.dim, dtype=complex) - left
    if rep.basis == Basis.ORTHONORMAL:
        left, right = _mix(left), _mix(right)
    return Projector.from_matrix(left), Projector.from_matrix(right)


def _cg_block(jl: Weight, jr: Weight) -> np.ndarray:
    """Columns of Clebsch-Gordan coefficients carrying (jl, jr) tensor
    labels into total-spin labels, both in descending order.

    Only entries with m_l + m_r = sigma can be nonzero, so each column
    pairs every left label with at most one right label; the rest stay
    the exact zeros a full fill would write. The block is square: the
    total spins hold as many states as the tensor product.
    """
    n = jl.dim * jr.dim
    c = np.zeros((n, n), dtype=complex)
    col = 0
    for ts in _spin_range(jl, jr):
        for tsig in range(ts, -ts - 2, -2):
            for p in range(jl.dim):
                tml = jl.twice_j - 2 * p
                tmr = tsig - tml
                if abs(tmr) > jr.twice_j:
                    continue
                q = (jr.twice_j - tmr) // 2
                c[p * jr.dim + q, col] = clebsch_gordan(
                    jl.j,
                    Fraction(tml, 2),
                    jr.j,
                    Fraction(tmr, 2),
                    Fraction(ts, 2),
                    Fraction(tsig, 2),
                ).value
            col += 1
    return c


def rotation_basis(rep: CoupledRep) -> tuple[np.ndarray, CoupledRep]:
    """Change a canonical bundle to the basis diagonalizing I^2 and I3.

    Returns the basis-change matrix C (columns are the new basis vectors
    in canonical components, built from Clebsch-Gordan coefficients)
    together with the rotation-basis bundle, which is built from the
    closed form and equals C^+ X C for every matrix X of the bundle. Labels
    run over total spin s descending, then sigma descending, block by
    block.
    """
    if rep.basis != Basis.CANONICAL:
        raise WrongRepShape(f"expected a canonical-basis bundle, got {rep.basis.value!r}")
    c = _block_diag(*(_cg_block(jl, jr) for jl, jr in _blocks(rep.j1, rep.j2)))
    return c, _rotation(rep.j1, rep.j2, rep.epsilon)


def orthonormal_basis(rep: CoupledRep) -> CoupledRep:
    """Diagonalize the metric of a rotation-basis two-weight bundle.

    New basis vectors are (|block0; s,sigma> +- |block1; s,sigma>)/sqrt(2);
    the metric becomes diagonal with entries +-1 and the signature can be
    read off directly. Equal-weight bundles are already orthonormal in the
    rotation basis and are rejected here.
    """
    if rep.is_diagonal:
        raise WrongRepShape("equal-weight bundles are orthonormal in the rotation basis")
    if rep.basis != Basis.ROTATION:
        raise WrongRepShape(f"expected a rotation-basis bundle, got {rep.basis.value!r}")
    n = rep.dim // 2
    labels = [
        {"sign": sign, "twice_s": lab["twice_s"], "twice_sigma": lab["twice_sigma"]}
        for sign in (1, -1)
        for lab in rep.labels[:n]
    ]
    return CoupledRep(
        j1=rep.j1,
        j2=rep.j2,
        M=tuple(map(_mix, rep.M)),
        N=tuple(map(_mix, rep.N)),
        metric=MetricOperator(_mix(rep.metric.eta)),
        epsilon=rep.epsilon,
        basis=Basis.ORTHONORMAL,
        labels=tuple(labels),
    )


def rep_signature(rep: CoupledRep) -> tuple[int, int]:
    """Eigenvalue signature (n_plus, n_minus) of the bundle's metric."""
    return signature(rep.metric.eta)
