"""Basis transformations, symmetry tests and gauge-group generators.

A general invertible operator T moves all four dual bases at once; the
metric matrix picks up the congruence T+ . eta . T, which preserves its
signature. Transformations with T+ . eta . T = eta are the symmetries of
the metric: they leave every scalar-product component expression invariant
and form the pseudo-unitary gauge group of the metric. Its Lie algebra is
spanned here by three generator families: the raw rank-1 family X_ij, the
traceless family H_ij, and the self-adjoint pair A_ij / S_ij.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidArgument
from .linalg import DEFAULT_TOLS, _finite_square, as_matrix, expm, inverse, max_abs
from .operators import KindedOperator, OperatorKind, identity_down
from .spaces import MetricOperator, _read_only, _ReadOnly

__all__ = [
    "BasisChange",
    "GaugeParams",
    "transform_metric",
    "transform_operator",
    "symmetry_deviation",
    "is_symmetry",
    "generator_x",
    "generator_h",
    "generators_a_s",
    "group_element",
    "transform_generator",
    "orthonormalizing_change",
]


class BasisChange(_ReadOnly):
    """An invertible ket-down operator matrix acting on all dual bases."""

    def __init__(self, t):
        t = as_matrix(t)
        if t.shape[0] != t.shape[1]:
            raise DimensionMismatch(f"basis change must be square, got {t.shape}")
        # inverse raises Singular if t is not invertible within sig_tol
        self.__dict__.update(t=_read_only(t.copy()), t_inv=_read_only(inverse(t)))

    @property
    def dim(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class GaugeParams:
    """Complex parameter matrix omega for the exponential parametrisation.

    Gauge (symmetry) flows need omega[i,j] + conj(omega[j,i]) = 0, i.e.
    the real part antisymmetric and the imaginary part symmetric; that
    leaves exactly n*n real parameters.
    """

    omega: np.ndarray

    def __post_init__(self):
        w = as_matrix(self.omega)
        if w.shape[0] != w.shape[1]:
            raise DimensionMismatch(f"omega must be square, got {w.shape}")
        w = _finite_square(w).copy()
        w.setflags(write=False)
        object.__setattr__(self, "omega", w)

    @property
    def dim(self) -> int:
        return self.omega.shape[0]

    def satisfies_gauge_constraint(self) -> bool:
        return max_abs(self.omega + self.omega.conj().T) <= DEFAULT_TOLS.eq_tol

    @classmethod
    def from_real_parameters(cls, re_anti, im_sym) -> "GaugeParams":
        """Build a constrained omega from an antisymmetric real part and a
        symmetric imaginary part (entered as full matrices)."""
        re_anti, im_sym = as_matrix(re_anti), as_matrix(im_sym)
        n = re_anti.shape[0]
        if re_anti.shape != (n, n) or im_sym.shape != (n, n):
            raise DimensionMismatch(
                f"expected two square matrices of one size, got {re_anti.shape} and {im_sym.shape}"
            )
        if re_anti.imag.any() or im_sym.imag.any():
            raise InvalidArgument("real parameters must have no imaginary part")
        re_anti, im_sym = re_anti.real, im_sym.real
        re_part = (re_anti - re_anti.T) / 2.0
        im_part = (im_sym + im_sym.T) / 2.0
        return cls(re_part + 1j * im_part)


def transform_metric(bc: BasisChange, m: MetricOperator) -> MetricOperator:
    """Congruence eta' = T+ . eta . T; hermitian, invertible, same signature."""
    _match(bc, m.dim)
    return MetricOperator(bc.t.conj().T @ m.eta @ bc.t)


def transform_operator(bc: BasisChange, x: KindedOperator) -> KindedOperator:
    """Matrix of the operator in the transformed system of dual bases.

    dd: T^-1 . A . T        uu: T+ . B . (T^-1)+
    du: like the metric     ud: like the inverse metric
    """
    _match(bc, x.dim)
    t, tinv = bc.t, bc.t_inv
    if x.kind == OperatorKind.DOWN_DOWN:
        mat = tinv @ x.mat @ t
    elif x.kind == OperatorKind.UP_UP:
        mat = t.conj().T @ x.mat @ tinv.conj().T
    elif x.kind == OperatorKind.DOWN_UP:
        mat = t.conj().T @ x.mat @ t
    else:
        mat = tinv @ x.mat @ tinv.conj().T
    return KindedOperator(mat, x.kind)


def symmetry_deviation(u, m: MetricOperator) -> float:
    """Largest entry of U+ . eta . U - eta; zero for an exact symmetry."""
    u = as_matrix(u)
    if u.shape != (m.dim, m.dim):
        raise DimensionMismatch(f"expected {m.dim}x{m.dim}, got {u.shape}")
    return max_abs(u.conj().T @ m.eta @ u - m.eta)


def is_symmetry(u, m: MetricOperator, tol: float) -> bool:
    """Semi-unitarity test: U+ . eta . U = eta within tol."""
    return symmetry_deviation(u, m) <= tol


def _check_index(i: int, n: int):
    if isinstance(i, bool) or not isinstance(i, int):
        raise IndexOutOfRange(f"index {i!r} is not an int")
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"index {i} outside 1..{n}")


def generator_x(i: int, j: int, m: MetricOperator) -> KindedOperator:
    """Rank-1 generator with entries (X_ij)^k_l = delta^k_i eta_jl.

    These have real matrix elements in orthonormal bases and satisfy
    bar(X_ij) = X_ji; they parametrise the general linear group via
    T(omega) = exp(omega^ij X_ij). Indices are 1-based basis labels.
    """
    n = m.dim
    _check_index(i, n)
    _check_index(j, n)
    mat = np.zeros((n, n), dtype=complex)
    mat[i - 1, :] = m.eta[j - 1, :]
    return KindedOperator(mat, OperatorKind.DOWN_DOWN)


def generator_h(i: int, j: int, m: MetricOperator) -> KindedOperator:
    """Traceless generator H_ij = X_ij - (1/N) eta_ji . I.

    Both the trace and the inverse-metric contraction of the family
    vanish, which is what cuts the general linear algebra down to the
    special linear one.
    """
    n = m.dim
    x = generator_x(i, j, m)
    shift = (m.eta[j - 1, i - 1] / n) * np.eye(n, dtype=complex)
    return KindedOperator(x.mat - shift, OperatorKind.DOWN_DOWN)


def generators_a_s(
    i: int, j: int, m: MetricOperator
) -> tuple[KindedOperator, KindedOperator]:
    """Self-adjoint gauge-algebra generators (A_ij, S_ij).

    A_ij = (i/2)(X_ij - X_ji) + (1/N) Im(eta_ji) . I
    S_ij = -(1/2)(X_ij + X_ji) + (1/N) Re(eta_ji) . I

    Both are semi-hermitian; the antisymmetric A family alone generates
    the (pseudo-)orthogonal subgroup.
    """
    n = m.dim
    xij = generator_x(i, j, m).mat
    xji = generator_x(j, i, m).mat
    eye = np.eye(n, dtype=complex)
    eta_ji = m.eta[j - 1, i - 1]
    a = 0.5j * (xij - xji) + (eta_ji.imag / n) * eye
    s = -0.5 * (xij + xji) + (eta_ji.real / n) * eye
    return (
        KindedOperator(a, OperatorKind.DOWN_DOWN),
        KindedOperator(s, OperatorKind.DOWN_DOWN),
    )


def group_element(
    p: GaugeParams, m: MetricOperator, require_gauge: bool = False
) -> np.ndarray:
    """Exponential map exp(sum_ij omega^ij X_ij) to a group element.

    Any omega gives a general linear transformation; when omega satisfies
    the gauge constraint the result is a symmetry of the metric. Pass
    require_gauge=True to reject unconstrained parameters up front.
    """
    n = m.dim
    if p.dim != n:
        raise DimensionMismatch(f"omega dim {p.dim} != metric dim {n}")
    if require_gauge and not p.satisfies_gauge_constraint():
        raise InvalidArgument("omega violates the gauge constraint")
    # sum_ij omega^ij (X_ij)^k_l = sum_j omega^kj eta_jl, i.e. omega . eta
    return expm(p.omega @ m.eta)


def transform_generator(
    bc: BasisChange, x: KindedOperator, m: MetricOperator
) -> KindedOperator:
    """Transformation law X' = T . X . bar(T) of the rank-1 generators.

    bar(T) = eta_inv . T+ . eta; for a semi-unitary T this collapses to
    the adjoint action T . X . T^-1.
    """
    _match(bc, m.dim)
    _match(bc, x.dim)
    bar_t = m.eta_inv @ bc.t.conj().T @ m.eta
    return KindedOperator(bc.t @ x.mat @ bar_t, x.kind)


def orthonormalizing_change(m: MetricOperator) -> BasisChange:
    """A basis change carrying the metric to diagonal +-1 form.

    Eigendecompose eta = Q L Q+ and scale each eigencolumn by
    1/sqrt(|lambda|); the congruence then leaves only the eigenvalue
    signs, ordered descending (all +1 entries first).
    """
    eigvals, eigvecs = np.linalg.eigh(m.eta)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    return BasisChange(eigvecs / np.sqrt(np.abs(eigvals)))


def _match(bc: BasisChange, dim: int):
    if bc.dim != dim:
        raise DimensionMismatch(f"basis change dim {bc.dim} != {dim}")
