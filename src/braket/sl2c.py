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

A bundle is the frozen value CoupledRep(j1, j2, epsilon, basis): it
compares and hashes on these four labels, and builds all else from them
when it is made. build_rep, build_rep_diag, rotation_basis and
orthonormal_basis check their arguments and make it.

Bases: canonical (tensor-product labels), rotation (total-spin labels
|s sigma>, diagonalizing I^2 and I3) and orthonormal (a diagonal +-1
metric; only for differing weights, as the rotation basis of an
equal-weight bundle is already orthonormal). The canonical bundle is
built from Kronecker products of su(2) generators. The rotation and
orthonormal bundles are built straight from the closed-form generator
elements of Gel'fand, Minlos & Shapiro, evaluated once on the (j1, j2)
block, so they hold exact zeros wherever the selection rules put them,
and no Clebsch-Gordan coefficient is computed. With D = M - N = A + B,
the A terms sit where I does and the B terms elsewhere, and the mirrored
block (j2, j1) is the first with A negated. So both bases place the
block's I and B on the diagonal quadrants, A by sigma_z and the metric
by sigma_x in the rotation basis, and the other way round in the
orthonormal one, which is the rotation one conjugated by the involution
c2 = (sigma_x + sigma_z)/sqrt(2). The rotation bundle equals C^+ X C
for the Clebsch-Gordan change C that rotation_basis returns.

A bundle holds each generator as its entries (see entries): the rotation
and orthonormal ones hold a few per column, as the selection rules allow
only Delta s, Delta sigma in {0, +-1}, and their metric one per row. Every
bundle is built, checked and written in pure Python, so `braket rep`
loads no numpy; numpy is imported by the functions that make or read
dense arrays (M, N, I and K on access, _cg_block, rotation_basis,
chiral_projectors). The non-zero values of the canonical and rotation
entries are those of the dense numpy computation to the last bit; the
orthonormal ones are halves of the block's closed-form values, which
c2 X c2 computed densely matches up to its own rounding. Zeros are
unsigned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import sqrt

from .entries import _cartesian, _combine, _monomial_signature, _pair
from .errors import EqualWeights, InvalidArgument, InvalidWeights, WrongRepShape
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


@dataclass(frozen=True)
class CoupledRep:
    """The bundle of weights (j1, j2) with sign epsilon in one fixed basis.

    These four labels fix it. epsilon None stands for default_epsilon(j1,
    j2); basis is a Basis or its name. The labels, metric and the entries
    of M and N (see entries) are built when it is made: by _canonical in
    the canonical basis and by _closed_form in the other two.
    The public M, N, I and K are dense arrays made on first access, which
    is when numpy is loaded; I and K are derived from M and N.
    """

    j1: Weight
    j2: Weight
    epsilon: int | None = None
    basis: Basis = Basis.CANONICAL
    labels: tuple[dict, ...] = field(init=False, compare=False, repr=False)
    metric: MetricOperator = field(init=False, compare=False, repr=False)
    _mn: tuple = field(init=False, compare=False, repr=False)  # entries of M1, M2, M3, N1, N2, N3

    def __post_init__(self):
        if not (isinstance(self.j1, Weight) and isinstance(self.j2, Weight)):
            raise InvalidWeights(f"weights must be Weight, got {self.j1!r} and {self.j2!r}")
        epsilon = self.epsilon
        epsilon = default_epsilon(self.j1, self.j2) if epsilon is None else _check_epsilon(epsilon)
        try:
            basis = Basis(self.basis)
        except ValueError:
            raise InvalidArgument(f"unknown basis {self.basis!r}") from None
        if basis == Basis.ORTHONORMAL and self.is_diagonal:
            raise WrongRepShape("equal-weight bundles are orthonormal in the rotation basis")
        labels, metric, mn = (_canonical(self.j1, self.j2, epsilon) if basis == Basis.CANONICAL
                              else _closed_form(self.j1, self.j2, epsilon, basis))
        fields = dict(epsilon=epsilon, basis=basis, labels=tuple(labels),
                      metric=MetricOperator._from_entries(len(labels), metric), _mn=tuple(mn))
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
            "K": tuple(_combine(a, b, lambda x, y: 1j * (y - x)) for a, b in pairs),
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


def _canonical(j1: Weight, j2: Weight, epsilon: int):
    """Labels, metric entries and M, N entries of the bundle of weights
    (j1, j2) in the canonical basis; in every tensor block M acts on the
    left slot and N on the right one."""
    blocks = _blocks(j1, j2)
    gens = {w: _generator_entries(w) for block in blocks for w in block}
    dim = sum(jl.dim * jr.dim for jl, jr in blocks)
    mn = [_slot_generator(blocks, gens, a, slot, dim) for slot in (0, 1) for a in range(3)]

    # epsilon times the exchange S (y (x) x -> x (x) y) pairing the first
    # block with the last, S^T below and S above; for a tensor square they
    # are one block and S stands.
    n = j1.dim * j2.dim
    off = dim - n
    eta = {}
    for r in range(n):
        p, q = divmod(r, j2.dim)
        c = q * j1.dim + p  # S[r, c] = 1
        eta[r * dim + c + off] = eta[(c + off) * dim + r] = epsilon

    labels = [lab for jl, jr in blocks for lab in _canonical_block_labels(jl, jr)]
    return labels, _pair(eta), mn


def _slot_generator(blocks, gens: dict, a: int, slot: int, dim: int) -> tuple[list, list]:
    """Entries of generator a on tensor slot 0 (M) or 1 (N) of every block:
    kron(J_a, 1) or kron(1, J_a), block diagonal."""
    out, offset = {}, 0
    for block in blocks:
        w, e = block[slot], block[1 - slot].dim  # the generator's weight, the identity's size
        d = w.dim
        for k, v in zip(*gens[w][a]):
            p, pp = divmod(k, d)
            for q in range(e):
                if slot == 0:
                    row, col = p * e + q, pp * e + q
                else:
                    row, col = q * d + p, q * d + pp
                out[(offset + row) * dim + offset + col] = v
        offset += d * e
    return _pair(out)


def _rotation_block(jl: Weight, jr: Weight) -> tuple[tuple[dict, dict], ...]:
    """Real (I3, I+), (A3, A+) and (B3, B+) of the tensor block (jl, jr) in
    its total-spin basis, each as {local flat index: float} in its n x n
    matrix; a zero value may be among them.

    I is the spin-s matrix on each total spin s. D = M - N = A + B is the
    vector operator of Gel'fand, Minlos & Shapiro (1963) and Naimark
    (1964); with k0 = jl - jr, c = jl + jr + 1,
        A_s = k0 c / (s(s+1)),
        B_s = sqrt((s^2 - k0^2)(c^2 - s^2) / (s^2 (4s^2 - 1))),
    its elements are
        <s sig|D3|s sig>       = sig A_s,
        <s-1 sig|D3|s sig>     = sqrt(s^2 - sig^2) B_s, and the mirror,
        <s sig+1|D+|s sig>     = sqrt((s - sig)(s + sig + 1)) A_s,
        <s-1 sig+1|D+|s sig>   = sqrt((s - sig)(s - sig - 1)) B_s,
        <s+1 sig+1|D+|s sig>   = -sqrt((s + sig + 1)(s + sig + 2)) B_{s+1}.
    The A terms sit exactly where I does, and flip sign with k0; the B
    terms sit where I does not, and depend on k0^2 alone. So the mirrored
    block (jr, jl) is this one with A negated.
    A_s is 0 when k0 = 0, where s = 0 would make it 0/0, and B_s is needed
    only above the lowest spin |k0|, so its 0/0 at s = 1/2 = |k0| never
    arises. Only these entries are written; every other entry is an exact
    zero. In the basis order (s descending, then sig descending) the state
    (s, sig) at index i has (s, sig+1) at i - 1, (s-1, sig) at i + 2s,
    (s-1, sig+1) at i + 2s - 1 and (s+1, sig+1) at i - 2s - 3.
    """
    spins = _spin_range(jl, jr)
    n = jl.dim * jr.dim
    k0, c = (jl.twice_j - jr.twice_j) / 2.0, (jl.twice_j + jr.twice_j) / 2.0 + 1.0

    def b(t):
        return sqrt((t * t - k0 * k0) * (c * c - t * t) / (t * t * (4 * t * t - 1)))

    i3, ip, a3, ap, b3, bp = {}, {}, {}, {}, {}, {}
    i = 0
    for ts in spins:
        s = ts / 2.0
        a = k0 * c / (s * (s + 1)) if k0 else 0.0
        b_s = b(s) if ts > spins[-1] else None  # s above the lowest spin
        b_up = b(s + 1) if ts < spins[0] else None  # s below the highest spin
        for tsig in range(ts, -ts - 2, -2):
            sig = tsig / 2.0
            at = i * n + i
            i3[at] = sig
            a3[at] = sig * a
            if tsig < ts:
                root = sqrt((s - sig) * (s + sig + 1))
                ip[at - n] = root
                ap[at - n] = root * a
            if b_s is not None and abs(tsig) < ts:
                b3[at + ts * n] = b3[at + ts] = sqrt(s * s - sig * sig) * b_s
            if b_s is not None and tsig <= ts - 4:
                bp[at + (ts - 1) * n] = sqrt((s - sig) * (s - sig - 1)) * b_s
            if b_up is not None:
                bp[at - (ts + 3) * n] = -sqrt((s + sig + 1) * (s + sig + 2)) * b_up
            i += 1
    return (i3, ip), (a3, ap), (b3, bp)


# 2 x 2 sign patterns {quadrant: sign} placing an n x n piece in a bundle
_SIGMA_Z = {(0, 0): 1, (1, 1): -1}
_SIGMA_X = {(0, 1): 1, (1, 0): 1}


def _place(out: dict, dim: int, n: int, quadrant: tuple[int, int], items) -> None:
    """Write the (local flat index, value) items of an n x n piece into
    quadrant (row, col) of the dim x dim matrix out, {flat index: value}."""
    base = (quadrant[0] * dim + quadrant[1]) * n
    for k, v in items:
        row, col = divmod(k, n)
        out[base + row * dim + col] = v


def _closed_form(j1: Weight, j2: Weight, epsilon: int, basis: Basis):
    """Labels, metric entries and M, N entries of the bundle of weights
    (j1, j2) in the rotation or orthonormal basis: the (j1, j2) block's
    I, A and B placed by the basis' sign patterns (see the module
    docstring) in M = (1 x I + tau x A + 1 x B)/2 and N = (1 x I - tau x A
    - 1 x B)/2, and the weight epsilon (-1)^(j1 + j2 - s) of each state
    placed by the metric's pattern."""
    block = _rotation_block_labels(j1, j2)
    n = len(block)
    if j1 == j2:  # a tensor square is the one block (0, 0)
        labels, tau, weight = block, {(0, 0): 1}, {(0, 0): 1}
    elif basis == Basis.ROTATION:
        labels, tau, weight = block + _rotation_block_labels(j2, j1), _SIGMA_Z, _SIGMA_X
    else:  # (|block0; s,sig> +- |block1; s,sig>)/sqrt(2), labelled by their sign
        labels = [{"sign": sign, "twice_s": lab["twice_s"], "twice_sigma": lab["twice_sigma"]}
                  for sign in (1, -1) for lab in block]
        tau, weight = _SIGMA_X, _SIGMA_Z
    dim = len(labels)
    (i3, ip), (a3, ap), (b3, bp) = _rotation_block(j1, j2)

    def generator(sign, i, a, b):  # (1 x I + sign (tau x A + 1 x B))/2
        out = {}
        for q in range(dim // n):  # A sits where I does, B elsewhere
            t = sign * tau.get((q, q), 0)
            _place(out, dim, n, (q, q), ((k, (v + t * a[k]) / 2) for k, v in i.items()))
            _place(out, dim, n, (q, q), ((k, sign * v / 2) for k, v in b.items()))
        for q, t in tau.items():
            if q[0] != q[1]:
                _place(out, dim, n, q, ((k, sign * t * v / 2) for k, v in a.items()))
        return out

    def family(sign):  # M for +1, N for -1
        raising = generator(sign, ip, ap, bp)
        return (*_cartesian(dim, raising), _pair(generator(sign, i3, a3, b3)))

    tjsum = j1.twice_j + j2.twice_j
    weights = [(k * n + k, epsilon * (-1) ** ((tjsum - lab["twice_s"]) // 2))
               for k, lab in enumerate(block)]
    metric = {}
    for q, t in weight.items():
        _place(metric, dim, n, q, ((k, t * v) for k, v in weights))
    return labels, _pair(metric), (*family(1), *family(-1))


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
    return CoupledRep(j1, j2, epsilon, basis)


def build_rep_diag(
    j: Weight, epsilon: int | None = None, basis: Basis = Basis.CANONICAL
) -> CoupledRep:
    """Equal-weight bundle on the tensor square K^j x K^j in the given basis.

    The canonical metric is epsilon times the tensor-slot swap. The
    rotation basis is already orthonormal, so the orthonormal basis is
    rejected.
    """
    return CoupledRep(j, j, epsilon, basis)


def chiral_projectors(rep: CoupledRep) -> tuple[Projector, Projector]:
    """Projectors onto the two tensor-order summands of a two-weight bundle.

    They are complementary and additive but not self-adjoint: the metric
    exchanges them under Dirac conjugation, which is exactly why the
    bundle has no common invariant subspace of generators and metric.
    """
    from .linalg import _dense
    from .projections import Projector

    if rep.is_diagonal:
        raise WrongRepShape("equal-weight bundles have no chiral split")
    dim, n = rep.dim, rep.dim // 2
    tau = _SIGMA_X if rep.basis == Basis.ORTHONORMAL else _SIGMA_Z
    out = []
    for sign in (1, -1):  # (1 + sign tau)/2 on the quadrants, the identity in each
        entries = {}
        for q in ((0, 0), (0, 1), (1, 0), (1, 1)):
            c = ((q[0] == q[1]) + sign * tau.get(q, 0)) / 2
            _place(entries, dim, n, q, ((k * n + k, c) for k in range(n)))
        out.append(Projector.from_matrix(_dense(dim, _pair(entries))))
    return tuple(out)


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
    return c, replace(rep, basis=Basis.ROTATION)


def orthonormal_basis(rep: CoupledRep) -> CoupledRep:
    """Diagonalize the metric of a rotation-basis two-weight bundle.

    New basis vectors are (|block0; s,sigma> +- |block1; s,sigma>)/sqrt(2);
    the metric becomes diagonal with entries +-1 and the signature can be
    read off directly. Equal-weight bundles are already orthonormal in the
    rotation basis and are rejected here.
    """
    # the constructor rejects a tensor square in any basis
    if rep.basis != Basis.ROTATION and not rep.is_diagonal:
        raise WrongRepShape(f"expected a rotation-basis bundle, got {rep.basis.value!r}")
    return replace(rep, basis=Basis.ORTHONORMAL)


def rep_signature(rep: CoupledRep) -> tuple[int, int]:
    """Eigenvalue signature (n_plus, n_minus) of the bundle's metric, read
    off the d non-zeros of that monomial metric."""
    return _monomial_signature(*rep.metric._mono)
