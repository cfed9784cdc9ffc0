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

A bundle holds each generator as its entries (see linalg): the rotation
and orthonormal ones hold a few per column, as the selection rules allow
only Delta s, Delta sigma in {0, +-1}, and their metric one per row. Every
entry is computed by the same float operations as on the dense matrices,
so the dense M, N, I and K made on access, and the JSON text, are those
of the dense computation to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import EqualWeights, InvalidArgument, WrongRepShape
from .linalg import _dense, _entries, _monomial_signature, _written, kron, signature
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


@dataclass(frozen=True, eq=False, init=False)
class CoupledRep:
    """A full representation bundle in one fixed basis.

    M and N are given as three square matrices each, dense or as entries
    (see linalg), and held as entries. The public M, N, I and K are dense
    arrays made on first access; I and K are derived from M and N.
    """

    j1: Weight
    j2: Weight
    metric: MetricOperator
    epsilon: int
    basis: Basis
    labels: tuple[dict, ...]
    _mn: tuple = field(init=False, repr=False)  # entries of M1, M2, M3, N1, N2, N3

    def __init__(self, j1, j2, M, N, metric, epsilon, basis, labels):
        mn = tuple(_entries(x) if isinstance(x, np.ndarray) else x for x in (*M, *N))
        fields = dict(j1=j1, j2=j2, metric=metric, epsilon=epsilon, basis=basis,
                      labels=labels, _mn=mn)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        """Dimension of the carrier space, read off the metric."""
        return self.metric.dim

    @property
    def is_diagonal(self) -> bool:
        """Equal-weight bundles live on a single tensor square."""
        return self.j1 == self.j2

    @cached_property
    def _families(self) -> dict[str, tuple]:
        """Entries of M, N, I and K, in payload order; I and K are taken on
        the union of M's and N's positions."""
        m, n = self._mn[:3], self._mn[3:]
        return {
            "M": m,
            "N": n,
            "I": tuple(_combine(a, b, np.add) for a, b in zip(m, n)),
            # Written as i(N - M): a product with -1j gives every zero entry
            # a -0.0 part, which the JSON writer then has to spell out.
            "K": tuple(_combine(a, b, lambda x, y: 1j * (y - x)) for a, b in zip(m, n)),
        }

    def _dense_family(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        out = tuple(_dense(self.dim, e) for e in self._families[name])
        for x in out:
            x.setflags(write=False)
        return out

    @cached_property
    def M(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generators M_a acting on the left tensor slot."""
        return self._dense_family("M")

    @cached_property
    def N(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generators N_a acting on the right tensor slot."""
        return self._dense_family("N")

    @cached_property
    def I(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rotation generators I_a = M_a + N_a."""
        return self._dense_family("I")

    @cached_property
    def K(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Boost generators K_a = -i(M_a - N_a)."""
        return self._dense_family("K")


def _sorted(index: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries from distinct flat indices in any order."""
    order = np.argsort(index, kind="stable")
    return index[order], values[order]


def _pruned(index: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries whose value is not +0."""
    keep = _written(values)
    return index[keep], values[keep]


def _union(*indices: np.ndarray) -> np.ndarray:
    """Ascending distinct flat indices of all the arrays (np.union1d would
    load numpy.ma)."""
    u = np.sort(np.concatenate(indices))
    keep = np.ones(u.size, dtype=bool)
    keep[1:] = u[1:] != u[:-1]
    return u[keep]


def _on(positions: np.ndarray, entries) -> np.ndarray:
    """The values of entries at positions, an ascending superset of their
    indices, with +0 at the others."""
    index, values = entries
    out = np.zeros(positions.size, dtype=values.dtype)
    out[np.searchsorted(positions, index)] = values
    return out


def _combine(a, b, op):
    """Entries of the elementwise op(A, B) of the matrices with entries a
    and b, computed on the union of their positions; op(+0, +0) is +0, as
    it is for every op used here, so every other entry is +0 as densely."""
    u = _union(a[0], b[0])
    return _pruned(u, op(_on(u, a), _on(u, b)))


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
    p, q = np.divmod(np.arange(d_left * d_right), d_right)
    s = np.zeros((d_left * d_right, d_right * d_left), dtype=complex)
    s[p * d_right + q, q * d_left + p] = 1.0
    return s


def _mix(x: np.ndarray) -> np.ndarray:
    """c2 x c2 for the involution c2 = [[1, 1], [1, -1]]/sqrt(2), which mixes
    two blocks of size n into (b0 +- b1)/sqrt(2); c2 is real, symmetric and
    its own inverse. On the quadrants [[P, Q], [R, S]] of x this is
    1/2 [[P+Q+R+S, P-Q+R-S], [P+Q-R-S, P-Q-R+S]], so no matmul is needed.
    """
    n = x.shape[0] // 2
    rows = np.concatenate((x[:n] + x[n:], x[:n] - x[n:]))
    return 0.5 * np.concatenate((rows[:, :n] + rows[:, n:], rows[:, :n] - rows[:, n:]), axis=1)


def _mix_entries(dim: int, entries):
    """Entries of _mix(X) from the entries of X.

    Each entry of a quadrant of X lands at its place in all four
    quadrants; every value is made from the four quadrants' values there
    by _mix's own operations, so it is _mix's value to the last bit.
    """
    index, values = entries
    n = dim // 2
    rows, cols = np.divmod(index, dim)
    local = (rows % n) * n + cols % n
    at = _union(local)
    # the four quadrants' values at each place, +0 where a quadrant has none
    p, q, r, s = quadrants = np.zeros((4, at.size), dtype=values.dtype)
    quadrants[2 * (rows >= n) + (cols >= n), np.searchsorted(at, local)] = values
    top, bottom = (p + r, q + s), (p - r, q - s)
    mixed = (
        0.5 * (top[0] + top[1]),
        0.5 * (top[0] - top[1]),
        0.5 * (bottom[0] + bottom[1]),
        0.5 * (bottom[0] - bottom[1]),
    )
    lr, lc = np.divmod(at, n)
    places = (lr * dim + lc, lr * dim + lc + n, (lr + n) * dim + lc, (lr + n) * dim + lc + n)
    return _pruned(*_sorted(np.concatenate(places), np.concatenate(mixed)))


def _block_diag_entries(mats) -> tuple[np.ndarray, np.ndarray]:
    """Entries of the block-diagonal matrix of these dense square blocks."""
    dim = sum(len(m) for m in mats)
    parts, offset = [], 0
    for m in mats:
        index, values = _entries(m)
        rows, cols = np.divmod(index, len(m))
        parts.append(((rows + offset) * dim + cols + offset, values))
        offset += len(m)
    return tuple(map(np.concatenate, zip(*parts)))


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
        _block_diag_entries([kron(gens[jl][a], eye[jr]) for jl, jr in blocks]) for a in range(3)
    )
    n_gens = tuple(
        _block_diag_entries([kron(eye[jl], gens[jr][a]) for jl, jr in blocks]) for a in range(3)
    )

    # epsilon times the exchange pairing the first block with the last. For
    # a tensor square they are one block, the exchange is symmetric and the
    # second assignment stands. It is built dense: with epsilon = -1 the
    # product gives the zeros of the upper block a -0.0 part, which the
    # JSON text spells out.
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


def _rotation_block(jl: Weight, jr: Weight, offset: int) -> tuple[tuple, ...]:
    """Real (I3, I+, D3, D+) of one tensor block in its total-spin basis,
    each as the (rows, cols, values) of its entries, the block starting at
    index offset.

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
    i = np.arange(n) + offset
    a = k0 * c / (s * (s + 1)) if k0 else np.zeros(n)

    def b(t):
        return np.sqrt((t * t - k0 * k0) * (c * c - t * t) / (t * t * (4 * t * t - 1)))

    i3 = (i, i, sig)
    d3 = [(i, i, sig * a)]
    m = tsig < ts  # sig < s
    root = np.sqrt((s - sig) * (s + sig + 1))[m]
    ip = (i[m] - 1, i[m], root)
    dp = [(i[m] - 1, i[m], root * a[m])]
    low = ts > ts[-1]  # s above the lowest spin
    m = low & (abs(tsig) < ts)
    mirrored = np.sqrt(s * s - sig * sig)[m] * b(s[m])
    d3 += [(i[m] + ts[m], i[m], mirrored), (i[m], i[m] + ts[m], mirrored)]
    m = low & (tsig <= ts - 4)
    dp.append((i[m] + ts[m] - 1, i[m], np.sqrt((s - sig) * (s - sig - 1))[m] * b(s[m])))
    m = ts < ts[0]  # s below the highest spin
    dp.append((i[m] - ts[m] - 3, i[m], -np.sqrt((s + sig + 1) * (s + sig + 2))[m] * b(s[m] + 1)))
    return i3, ip, _joined(d3), _joined(dp)


def _joined(parts) -> tuple:
    """One (rows, cols, values) from several."""
    return tuple(map(np.concatenate, zip(*parts)))


def _rotation(j1: Weight, j2: Weight, epsilon: int) -> CoupledRep:
    """The bundle of weights (j1, j2) in the rotation basis, from the closed
    form of each tensor block; M = (I + D)/2 and N = (I - D)/2.

    The metric pairs (block 0; s, sig) with (block 1; s, sig), or each
    state with itself in a tensor square, with weight
    epsilon (-1)^(j1 + j2 - s).
    """
    blocks = _blocks(j1, j2)
    labels = [lab for jl, jr in blocks for lab in _rotation_block_labels(jl, jr)]
    dim = len(labels)
    n = dim // len(blocks)
    parts = zip(*(_rotation_block(jl, jr, k * n) for k, (jl, jr) in enumerate(blocks)))
    i3, ip, d3, dp = (
        _sorted(rows * dim + cols, values) for rows, cols, values in map(_joined, parts)
    )

    def family(sign):  # M for +1, N for -1
        def half(x, y):
            return (x + sign * y) / 2

        xp = _combine(ip, dp, half)
        rows, cols = np.divmod(xp[0], dim)
        xt = _sorted(cols * dim + rows, xp[1])  # the transpose of x+
        # x2 = (x+ - x-)/(2i), filled through its imaginary part so that every
        # real part is +0.0, which the JSON writer leaves unwritten
        x2 = _combine(xp, xt, _imaginary_half_difference)
        return (
            _combine(xp, xt, lambda x, t: (x + t).astype(complex) / 2),
            x2,
            _combine(i3, d3, lambda x, y: half(x, y).astype(complex)),
        )

    tjsum = j1.twice_j + j2.twice_j
    signs = [epsilon * (-1) ** ((tjsum - lab["twice_s"]) // 2) for lab in labels[:n]]
    k = np.arange(n)
    off = dim - n  # 0 for a tensor square: its metric is diagonal
    pairs = (k * dim + k + off, np.asarray(signs, dtype=complex))
    if off:
        pairs = _joined([pairs, ((k + off) * dim + k, pairs[1])])
    return CoupledRep(
        j1=j1,
        j2=j2,
        M=family(1),
        N=family(-1),
        metric=MetricOperator._from_entries(dim, pairs),
        epsilon=epsilon,
        basis=Basis.ROTATION,
        labels=tuple(labels),
    )


def _imaginary_half_difference(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros(x.size, dtype=complex)
    out.imag = (t - x) / 2
    return out


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
    from .projections import Projector

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
    from .cg import clebsch_gordan

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
    blocks = [_cg_block(jl, jr) for jl, jr in _blocks(rep.j1, rep.j2)]
    c = _dense(rep.dim, _block_diag_entries(blocks))
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
    mixed = [_mix_entries(rep.dim, e) for e in rep._mn]
    return CoupledRep(
        j1=rep.j1,
        j2=rep.j2,
        M=mixed[:3],
        N=mixed[3:],
        metric=MetricOperator._from_entries(rep.dim, _mix_entries(rep.dim, rep.metric._entries)),
        epsilon=rep.epsilon,
        basis=Basis.ORTHONORMAL,
        labels=tuple(labels),
    )


def rep_signature(rep: CoupledRep) -> tuple[int, int]:
    """Eigenvalue signature (n_plus, n_minus) of the bundle's metric, read
    off its non-zeros when it is monomial, as every built bundle's is."""
    mono = rep.metric._mono
    return signature(rep.metric.eta) if mono is None else _monomial_signature(*mono)
