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

Basis pipeline: canonical (tensor-product labels) -> rotation (total-spin
labels via Clebsch-Gordan columns, diagonalizing I^2 and I3) ->
orthonormal (diagonal +-1 metric; only needed when the weights differ,
the rotation basis of an equal-weight bundle is already orthonormal).
Both basis changes are unitary, so generators move by conjugation with
the adjoint of the change.
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
        return tuple(-1j * (m - n) for m, n in zip(self.M, self.N))


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
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def _c2(n: int) -> np.ndarray:
    """The involution mixing two blocks of size n into (b0 +- b1)/sqrt(2).

    It is real, symmetric and its own inverse.
    """
    eye = np.eye(n, dtype=complex)
    return np.block([[eye, eye], [eye, -eye]]) / np.sqrt(2.0)


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


def build_rep(j1: Weight, j2: Weight, epsilon: int | None = None) -> CoupledRep:
    """Two-weight bundle on (K^j1 x K^j2) + (K^j2 x K^j1), canonical basis.

    Inside each block the basis is ordered left slot major with magnetic
    labels descending. The metric is epsilon times the off-diagonal pair
    of slot-exchange blocks, which couples each basis vector with its
    mirrored tensor slot in the other block.
    """
    if j1 == j2:
        raise EqualWeights("equal weights form a tensor square; use build_rep_diag")
    epsilon = default_epsilon(j1, j2) if epsilon is None else _check_epsilon(epsilon)
    return _canonical(j1, j2, epsilon)


def build_rep_diag(j: Weight, epsilon: int | None = None) -> CoupledRep:
    """Equal-weight bundle on the tensor square K^j x K^j, canonical basis.

    The metric is epsilon times the tensor-slot swap.
    """
    epsilon = default_epsilon(j, j) if epsilon is None else _check_epsilon(epsilon)
    return _canonical(j, j, epsilon)


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
        c2 = _c2(n)
        left, right = c2 @ left @ c2, c2 @ right @ c2
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


def _transform(rep: CoupledRep, c: np.ndarray, basis: Basis, labels) -> CoupledRep:
    """Move a bundle to the basis given by the columns of the unitary c."""
    c_adj = c.conj().T
    move = lambda mats: tuple(c_adj @ m @ c for m in mats)
    return CoupledRep(
        j1=rep.j1,
        j2=rep.j2,
        M=move(rep.M),
        N=move(rep.N),
        metric=MetricOperator(c_adj @ rep.metric.eta @ c),
        epsilon=rep.epsilon,
        basis=basis,
        labels=tuple(labels),
    )


def rotation_basis(rep: CoupledRep) -> tuple[np.ndarray, CoupledRep]:
    """Change a canonical bundle to the basis diagonalizing I^2 and I3.

    Returns the basis-change matrix (columns are the new basis vectors in
    canonical components, built from Clebsch-Gordan coefficients) together
    with the transformed bundle. Column labels run over total spin s
    descending, then sigma descending, block by block.
    """
    if rep.basis != Basis.CANONICAL:
        raise WrongRepShape(f"expected a canonical-basis bundle, got {rep.basis.value!r}")
    blocks = _blocks(rep.j1, rep.j2)
    c = _block_diag(*(_cg_block(jl, jr) for jl, jr in blocks))
    labels = [lab for jl, jr in blocks for lab in _rotation_block_labels(jl, jr)]
    return c, _transform(rep, c, Basis.ROTATION, labels)


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
    return _transform(rep, _c2(n), Basis.ORTHONORMAL, labels)


def rep_signature(rep: CoupledRep) -> tuple[int, int]:
    """Eigenvalue signature (n_plus, n_minus) of the bundle's metric."""
    return signature(rep.metric.eta)
