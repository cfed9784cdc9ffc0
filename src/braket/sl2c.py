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

A bundle holds each generator as its entries (see entries): the rotation
and orthonormal ones hold a few per column, as the selection rules allow
only Delta s, Delta sigma in {0, +-1}, and their metric one per row. Every
bundle is built, checked and written in pure Python, so `braket rep`
loads no numpy; numpy is imported by the functions that make or read
dense arrays (M, N, I and K on access, _cg_block, rotation_basis,
chiral_projectors). Every entry is computed by the float operations of
the dense numpy computation, numpy's complex products and divisions
written out in full, so the dense M, N, I and K made on access, and the
JSON text, are those of the dense computation to the last bit, signed
zeros included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import sqrt

from .entries import _combine, _halved, _monomial_signature, _pair, _product, _written
from .errors import EqualWeights, InvalidArgument, WrongRepShape
from .spaces import MetricOperator
from .su2 import Weight, _generator_entries

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

    M and N are given as three square matrices each, as entries (an
    (index, values) tuple, see entries) or dense, and held as entries.
    The public M, N, I and K are dense arrays made on first access, which
    is when numpy is loaded; I and K are derived from M and N.
    """

    j1: Weight
    j2: Weight
    metric: MetricOperator
    epsilon: int
    basis: Basis
    labels: tuple[dict, ...]
    _mn: tuple = field(init=False, repr=False)  # entries of M1, M2, M3, N1, N2, N3

    def __init__(self, j1, j2, M, N, metric, epsilon, basis, labels):
        mn = tuple(x if isinstance(x, tuple) else _dense_entries(x) for x in (*M, *N))
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
        pairs = [(dict(zip(*a)), dict(zip(*b))) for a, b in zip(m, n)]
        return {
            "M": m,
            "N": n,
            "I": tuple(_combine(a, b, lambda x, y: x + y) for a, b in pairs),
            # Written as i(N - M): a product with -1j gives every zero entry
            # a -0.0 part, which the JSON writer then has to spell out.
            "K": tuple(_combine(a, b, lambda x, y: _product(1j, y - x)) for a, b in pairs),
        }

    def _dense_family(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        from .linalg import _dense

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


def _dense_entries(x) -> tuple[list, list]:
    """The entries of a dense matrix given to CoupledRep; loads numpy."""
    from .linalg import _entries

    return _entries(x)


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


def _mix(x: np.ndarray) -> np.ndarray:
    """c2 x c2 for the involution c2 = [[1, 1], [1, -1]]/sqrt(2), which mixes
    two blocks of size n into (b0 +- b1)/sqrt(2); c2 is real, symmetric and
    its own inverse. On the quadrants [[P, Q], [R, S]] of x this is
    1/2 [[P+Q+R+S, P-Q+R-S], [P+Q-R-S, P-Q-R+S]], so no matmul is needed.
    """
    import numpy as np

    n = x.shape[0] // 2
    rows = np.concatenate((x[:n] + x[n:], x[:n] - x[n:]))
    return 0.5 * np.concatenate((rows[:, :n] + rows[:, n:], rows[:, :n] - rows[:, n:]), axis=1)


def _mix_entries(dim: int, entries) -> tuple[list, list]:
    """Entries of _mix(X) from the entries of X.

    Each entry of a quadrant of X lands at its place in all four
    quadrants; every value is made from the four quadrants' values there
    by _mix's own complex operations, so it is _mix's value to the last
    bit.
    """
    n = dim // 2
    places = {}  # local place -> the values of quadrants P, Q, R, S there
    for k, value in zip(*entries):
        row, col = divmod(k, dim)
        quadrants = places.setdefault((row % n) * n + col % n, [0j, 0j, 0j, 0j])
        quadrants[2 * (row >= n) + (col >= n)] = value
    out = {}
    for local, (p, q, r, s) in places.items():
        at = (local // n) * dim + local % n
        top, bottom = (p + r, q + s), (p - r, q - s)
        out[at] = _product(0.5, top[0] + top[1])
        out[at + n] = _product(0.5, top[0] - top[1])
        out[at + n * dim] = _product(0.5, bottom[0] + bottom[1])
        out[at + n * dim + n] = _product(0.5, bottom[0] - bottom[1])
    return _pair(out)


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
    tensor block M acts on the left slot and N on the right one.

    Each value is the one numpy's kron and complex products give on the
    dense matrices, so the signed zeros they make are entries too.
    """
    blocks = _blocks(j1, j2)
    gens = {w: _generator_entries(w) for block in blocks for w in block}
    dim = sum(jl.dim * jr.dim for jl, jr in blocks)
    m_gens = tuple(_slot_generator(blocks, gens, a, 0, dim) for a in range(3))
    n_gens = tuple(_slot_generator(blocks, gens, a, 1, dim) for a in range(3))

    # epsilon times the exchange S (y (x) x -> x (x) y) pairing the first
    # block with the last, S^H below and S above; for a tensor square they
    # are one block and S stands. With epsilon = -1 the zeros of S times
    # epsilon have a -0.0 part, so all of that block is entries.
    n = j1.dim * j2.dim
    perm = [q * j1.dim + p for p, q in (divmod(r, j2.dim) for r in range(n))]  # S[r, perm[r]] = 1
    eta = {}
    if dim != n:
        inv = [0] * n
        for r, c in enumerate(perm):
            inv[c] = r
        _place(eta, dim, dim - n, 0, inv, epsilon, -0.0)
    _place(eta, dim, 0, dim - n, perm, epsilon, 0.0)

    labels = [lab for jl, jr in blocks for lab in _canonical_block_labels(jl, jr)]
    return CoupledRep(
        j1=j1,
        j2=j2,
        M=m_gens,
        N=n_gens,
        metric=MetricOperator._from_entries(dim, _pair(eta)),
        epsilon=epsilon,
        basis=Basis.CANONICAL,
        labels=tuple(labels),
    )


def _slot_generator(blocks, gens: dict, a: int, slot: int, dim: int) -> tuple[list, list]:
    """Entries of generator a on tensor slot 0 (M) or 1 (N) of every block:
    kron(J_a, 1) or kron(1, J_a), block diagonal.

    A +0 entry of J_a times either entry of the identity is +0, so only
    J_a's entries are visited; each times the identity's (1, 0) lands on
    the diagonal, and times its (0, 0) everywhere else in its slot, where
    it is not +0 only when its real part is negative.
    """
    out, offset = {}, 0
    for block in blocks:
        w, e = block[slot], block[1 - slot].dim  # the generator's weight, the identity's size
        d = w.dim
        for k, v in zip(*gens[w][a]):
            p, pp = divmod(k, d)
            one, zero = _product(v, 1.0), _product(v, 0.0)
            for q in range(e):
                for qq in range(e) if _written(zero) else (q,):
                    if slot == 0:
                        row, col = p * e + q, pp * e + qq
                    else:
                        row, col = q * d + p, qq * d + pp
                    out[(offset + row) * dim + offset + col] = one if q == qq else zero
        offset += d * e
    return _pair(out)


def _place(eta: dict, dim: int, row0: int, col0: int, cols: list, epsilon: int, imag: float):
    """Put epsilon times the block with (1, imag) at (r, cols[r]) and
    (0, imag) elsewhere at (row0, col0); imag is -0.0 for a conjugated
    exchange. The zeros are written only when the product is not +0."""
    one = _product(float(epsilon), complex(1.0, imag))
    zero = _product(float(epsilon), complex(0.0, imag))
    n = len(cols)
    for r, c in enumerate(cols):
        base = (row0 + r) * dim + col0
        if _written(zero):
            for cc in range(n):
                eta[base + cc] = zero
        eta[base + c] = one


def _rotation_block(jl: Weight, jr: Weight, offset: int, dim: int) -> tuple[dict, ...]:
    """Real (I3, I+, D3, D+) of one tensor block in its total-spin basis,
    each as {flat index: float} in a dim x dim matrix, the block starting
    at index offset; a +0 value may be among them.

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
    spins = _spin_range(jl, jr)
    k0, c = (jl.twice_j - jr.twice_j) / 2.0, (jl.twice_j + jr.twice_j) / 2.0 + 1.0

    def b(t):
        return sqrt((t * t - k0 * k0) * (c * c - t * t) / (t * t * (4 * t * t - 1)))

    i3, ip, d3, dp = {}, {}, {}, {}
    i = offset
    for ts in spins:
        s = ts / 2.0
        a = k0 * c / (s * (s + 1)) if k0 else 0.0
        b_s = b(s) if ts > spins[-1] else None  # s above the lowest spin
        b_up = b(s + 1) if ts < spins[0] else None  # s below the highest spin
        for tsig in range(ts, -ts - 2, -2):
            sig = tsig / 2.0
            at = i * dim + i
            i3[at] = sig
            d3[at] = sig * a
            if tsig < ts:
                root = sqrt((s - sig) * (s + sig + 1))
                ip[at - dim] = root
                dp[at - dim] = root * a
            if b_s is not None and abs(tsig) < ts:
                d3[at + ts * dim] = d3[at + ts] = sqrt(s * s - sig * sig) * b_s
            if b_s is not None and tsig <= ts - 4:
                dp[at + (ts - 1) * dim] = sqrt((s - sig) * (s - sig - 1)) * b_s
            if b_up is not None:
                dp[at - (ts + 3) * dim] = -sqrt((s + sig + 1) * (s + sig + 2)) * b_up
            i += 1
    return i3, ip, d3, dp


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
    i3, ip, d3, dp = {}, {}, {}, {}
    for k, (jl, jr) in enumerate(blocks):
        for whole, part in zip((i3, ip, d3, dp), _rotation_block(jl, jr, k * n, dim)):
            whole.update(part)

    def family(sign):  # M for +1, N for -1
        def half(x, y):
            return (x + sign * y) / 2

        xp = dict(zip(*_combine(ip, dp, half, 0.0)))
        xt = {(k % dim) * dim + k // dim: v for k, v in xp.items()}  # the transpose of x+
        return (
            _combine(xp, xt, lambda x, t: _halved(complex(x + t)), 0.0),
            # x2 = (x+ - x-)/(2i), filled through its imaginary part so that
            # every real part is +0.0, which the JSON writer leaves unwritten
            _combine(xp, xt, lambda x, t: complex(0.0, (t - x) / 2), 0.0),
            _combine(i3, d3, lambda x, y: complex(half(x, y)), 0.0),
        )

    tjsum = j1.twice_j + j2.twice_j
    off = dim - n  # 0 for a tensor square: its metric is diagonal
    pairs = {}
    for k, lab in enumerate(labels[:n]):
        sign = complex(epsilon * (-1) ** ((tjsum - lab["twice_s"]) // 2))
        pairs[k * dim + k + off] = pairs[(k + off) * dim + k] = sign
    return CoupledRep(
        j1=j1,
        j2=j2,
        M=family(1),
        N=family(-1),
        metric=MetricOperator._from_entries(dim, _pair(pairs)),
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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    c, offset = np.zeros((rep.dim, rep.dim), dtype=complex), 0
    for jl, jr in _blocks(rep.j1, rep.j2):
        n = jl.dim * jr.dim
        c[offset : offset + n, offset : offset + n] = _cg_block(jl, jr)
        offset += n
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
    if mono is None:
        from .linalg import signature

        return signature(rep.metric.eta)
    return _monomial_signature(*mono)
