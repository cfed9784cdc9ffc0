"""Dense complex matrix kernel.

Products, adjoints, inverses, hermitian eigen-signatures, matrix
exponentials and Kronecker products, all on plain 2-D complex ndarrays.
The numeric thresholds are the fixed constants of DEFAULT_TOLS; only
checks that judge the caller's own data take an explicit tol. Everything
here is a pure function; inputs are never mutated.

inverse and signature first look at the input's non-zeros. A monomial
matrix (exactly one non-zero in every row and every column, such as
every bundle metric: a signed permutation, or diag(+-1) in the
orthonormal basis) is inverted and its signature read off in O(d^2),
with no SVD, dense inverse or eigendecomposition; every other matrix
takes the dense LAPACK route. Both reject NaN and infinite entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, DimensionMismatch, InvalidArgument, NotHermitian, Singular

__all__ = [
    "DEFAULT_TOLS",
    "as_matrix",
    "as_vector",
    "max_abs",
    "matmul",
    "conj_transpose",
    "inverse",
    "signature",
    "expm",
    "kron",
]


@dataclass(frozen=True)
class _Tolerances:
    """The library's fixed numeric thresholds.

    eq_tol   entrywise equality of matrices and scalars
    herm_tol allowed deviation from hermiticity
    sig_tol  eigenvalue / pivot zero threshold
    sym_tol  metric preservation after an exponential map
    """

    eq_tol: float = 1e-10
    herm_tol: float = 1e-10
    sig_tol: float = 1e-9
    sym_tol: float = 1e-8


DEFAULT_TOLS = _Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"matrix dimensions must be >= 1, got {m.shape}")
    return m


def as_vector(a, dim: int | None = None) -> np.ndarray:
    """Coerce input to a 1-D complex ndarray, optionally of fixed length."""
    v = np.asarray(a, dtype=complex)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected length {dim}, got {v.shape[0]}")
    return v


def max_abs(a) -> float:
    """Largest entry magnitude; the norm behind every entrywise check."""
    return float(np.max(np.abs(a)))


def _require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit inner-dimension check."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def conj_transpose(a) -> np.ndarray:
    """Entrywise conjugate transpose."""
    return as_matrix(a).conj().T.copy()


def _finite_square(a) -> np.ndarray:
    m = _require_square(as_matrix(a))
    if not np.isfinite(m).all():
        raise InvalidArgument("matrix has a NaN or infinite entry")
    return m


def _monomial(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(cols, vals) with vals[i] = m[i, cols[i]] the only non-zero of row i
    and of column cols[i], or None when m is not monomial."""
    n = m.shape[0]
    nz = m != 0
    if np.count_nonzero(nz) != n:
        return None
    # row-major order, so one non-zero per row iff rows = 0..n-1
    rows, cols = np.divmod(np.flatnonzero(nz), n)
    if not np.array_equal(rows, np.arange(n)):
        return None
    hit = np.zeros(n, dtype=bool)
    hit[cols] = True
    if not hit.all():
        return None
    return cols, m[rows, cols]


def inverse(a) -> np.ndarray:
    """Inverse of a square matrix with finite entries.

    Raises Singular when the smallest singular value falls below sig_tol,
    which is the library-wide notion of "no inverse exists". A monomial
    matrix is inverted by putting 1/vals at the transposed positions; its
    singular values are the magnitudes of its non-zeros, so no SVD is run.
    """
    m = _finite_square(a)
    mono = _monomial(m)
    svals = np.linalg.svd(m, compute_uv=False) if mono is None else np.abs(mono[1])
    smin = float(np.min(svals))
    if smin < DEFAULT_TOLS.sig_tol:
        raise Singular(f"smallest singular value {smin:.3e} below {DEFAULT_TOLS.sig_tol:.3e}")
    if mono is None:
        return np.linalg.inv(m)
    cols, vals = mono
    out = np.zeros(m.shape, dtype=complex)
    out[cols, np.arange(m.shape[0])] = 1 / vals
    return out


def signature(h) -> tuple[int, int]:
    """Counts (n_plus, n_minus) of positive/negative eigenvalues.

    The input must have finite entries and be hermitian within herm_tol;
    an eigenvalue with magnitude below sig_tol makes the matrix degenerate
    and is rejected, so n_plus + n_minus always equals the dimension.

    A hermitian monomial matrix pairs each index with itself or with one
    partner, so it needs no eigendecomposition: a diagonal entry is an
    eigenvalue, and each off-diagonal pair gives one +|c| and one -|c|,
    c read from the lower triangle as eigvalsh does.
    """
    m = _finite_square(h)
    if max_abs(m - m.conj().T) > DEFAULT_TOLS.herm_tol:
        raise NotHermitian("signature requires a hermitian matrix")
    mono = _monomial(m)
    n = m.shape[0]
    if mono is None:
        eigs = np.linalg.eigvalsh(m)
    else:
        # A cycle of three or more indices has no mirrored entries, so its
        # entries are within herm_tol < sig_tol of zero, and the one in the
        # lower triangle marks the matrix degenerate, as eigvalsh would.
        cols, vals = mono
        i = np.arange(n)
        pairs = np.abs(vals[cols < i])
        eigs = np.concatenate((vals[cols == i].real, pairs, -pairs))
    if np.any(np.abs(eigs) < DEFAULT_TOLS.sig_tol):
        raise DegenerateMetric(f"eigenvalue below zero threshold {DEFAULT_TOLS.sig_tol:.3e}")
    n_plus = int(np.sum(eigs > 0))
    return n_plus, n - n_plus


def expm(a) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring); expm(0) is exactly I.

    scipy is imported on first use, so importing the library does not
    pay for it.
    """
    m = _require_square(as_matrix(a))
    if not m.any():
        return np.eye(m.shape[0], dtype=complex)
    import scipy.linalg

    return scipy.linalg.expm(m)


def kron(a, b) -> np.ndarray:
    """Kronecker product, left factor major: (i_a, i_b) -> i_a * rows(b) + i_b."""
    return np.kron(as_matrix(a), as_matrix(b))
