"""Dense complex matrix kernel.

Products, adjoints, inverses, hermitian eigen-signatures, matrix
exponentials and Kronecker products, all on plain 2-D complex ndarrays.
The numeric thresholds are the fixed constants of DEFAULT_TOLS; only
checks that judge the caller's own data take an explicit tol. Everything
here is a pure function; inputs are never mutated.

inverse and signature first look at the input's non-zeros. A monomial
matrix (exactly one non-zero in every row and every column, such as
every bundle metric: a signed permutation, or diag(+-1) in the
orthonormal basis) is tested for hermiticity, inverted and its signature
read off from its d non-zeros, with no SVD, dense inverse or
eigendecomposition; every other matrix takes the dense LAPACK route.
Both reject NaN and infinite entries.

A sparse matrix is held as its entries: (index, values), the ascending
flat indices i * cols + j and the complex values there. The entries of a
dense matrix are all that are not +0 (a -0.0 part is kept), so that a
writer spelling out the entries and +0 everywhere else reproduces the
dense text.
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


def _written(values: np.ndarray) -> np.ndarray:
    """True where a float or complex value is not +0, the one value whose
    bits are all clear."""
    bits = np.ascontiguousarray(values).view(np.int64)
    return bits.reshape(values.size, values.itemsize // 8).any(axis=1)


def _entries(m) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a dense matrix: every one that is not +0."""
    flat = np.ascontiguousarray(m, dtype=complex).reshape(-1)
    index = np.flatnonzero(_written(flat))
    return index, flat[index]


def _dense(dim: int, entries) -> np.ndarray:
    """The dim x dim matrix with these entries and +0 elsewhere."""
    index, values = entries
    out = np.zeros(dim * dim, dtype=complex)
    out[index] = values
    return out.reshape(dim, dim)


def _monomial_of(dim: int, index: np.ndarray, values: np.ndarray):
    """(cols, vals) of the dim x dim matrix whose non-zeros are these
    entries, when it is monomial (row i holds its one non-zero vals[i] at
    column cols[i], and every column is hit once); otherwise None."""
    if index.size != dim:
        return None
    rows, cols = np.divmod(index, dim)
    if not np.array_equal(rows, np.arange(dim)):
        return None
    hit = np.zeros(dim, dtype=bool)
    hit[cols] = True
    if not hit.all():
        return None
    return cols, values


def _monomial(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(cols, vals) with vals[i] = m[i, cols[i]] the only non-zero of row i
    and of column cols[i], or None when m is not monomial."""
    n = m.shape[0]
    if np.count_nonzero(m) != n:
        return None
    index = np.flatnonzero(m)
    return _monomial_of(n, index, m.reshape(-1)[index])


def _monomial_herm_dev(cols: np.ndarray, vals: np.ndarray) -> float:
    """max_abs(m - m^H) of a monomial m, from its (cols, vals) in O(d).

    Entry (i, cols[i]) faces the conjugate of (cols[i], i), which is
    vals[cols[i]] when cols[cols[i]] == i and zero otherwise; every other
    entry of m - m^H is zero or the negated conjugate of one of these.
    """
    mirrored = cols[cols] == np.arange(cols.size)
    return max_abs(vals - np.where(mirrored, vals[cols].conj(), 0))


def _require_nonsingular(svals: np.ndarray):
    smin = float(np.min(svals))
    if smin < DEFAULT_TOLS.sig_tol:
        raise Singular(f"smallest singular value {smin:.3e} below {DEFAULT_TOLS.sig_tol:.3e}")


def _check_monomial_metric(cols: np.ndarray, vals: np.ndarray):
    """The checks a metric passes, on a monomial's (cols, vals): hermitian,
    finite and non-singular, in that order, as on the dense route."""
    if _monomial_herm_dev(cols, vals) > DEFAULT_TOLS.herm_tol:
        raise NotHermitian("metric matrix must be hermitian")
    if not np.isfinite(vals).all():
        raise InvalidArgument("matrix has a NaN or infinite entry")
    # the singular values of a monomial matrix are the magnitudes of its non-zeros
    _require_nonsingular(np.abs(vals))


def _monomial_inverse(cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    out = np.zeros((cols.size, cols.size), dtype=complex)
    out[cols, np.arange(cols.size)] = 1 / vals
    return out


def _monomial_signature(cols: np.ndarray, vals: np.ndarray) -> tuple[int, int]:
    """signature of a hermitian monomial matrix.

    It pairs each index with itself or with one partner, so a diagonal
    entry is an eigenvalue and each off-diagonal pair gives one +|c| and
    one -|c|, c read from the lower triangle as eigvalsh does. A cycle of
    three or more indices has no mirrored entries, so its entries are
    within herm_tol < sig_tol of zero, and the one in the lower triangle
    marks the matrix degenerate, as eigvalsh would.
    """
    i = np.arange(cols.size)
    pairs = np.abs(vals[cols < i])
    return _count_signs(np.concatenate((vals[cols == i].real, pairs, -pairs)))


def _count_signs(eigs: np.ndarray) -> tuple[int, int]:
    if np.any(np.abs(eigs) < DEFAULT_TOLS.sig_tol):
        raise DegenerateMetric(f"eigenvalue below zero threshold {DEFAULT_TOLS.sig_tol:.3e}")
    n_plus = int(np.sum(eigs > 0))
    return n_plus, eigs.size - n_plus


def inverse(a) -> np.ndarray:
    """Inverse of a square matrix with finite entries.

    Raises Singular when the smallest singular value falls below sig_tol,
    which is the library-wide notion of "no inverse exists". A monomial
    matrix is inverted by putting 1/vals at the transposed positions; its
    singular values are the magnitudes of its non-zeros, so no SVD is run.
    """
    m = _finite_square(a)
    mono = _monomial(m)
    if mono is None:
        _require_nonsingular(np.linalg.svd(m, compute_uv=False))
        return np.linalg.inv(m)
    _require_nonsingular(np.abs(mono[1]))
    return _monomial_inverse(*mono)


def signature(h) -> tuple[int, int]:
    """Counts (n_plus, n_minus) of positive/negative eigenvalues.

    The input must have finite entries and be hermitian within herm_tol;
    an eigenvalue with magnitude below sig_tol makes the matrix degenerate
    and is rejected, so n_plus + n_minus always equals the dimension. A
    monomial matrix is checked and counted from its non-zeros alone.
    """
    m = _finite_square(h)
    mono = _monomial(m)
    dev = max_abs(m - m.conj().T) if mono is None else _monomial_herm_dev(*mono)
    if dev > DEFAULT_TOLS.herm_tol:
        raise NotHermitian("signature requires a hermitian matrix")
    if mono is None:
        return _count_signs(np.linalg.eigvalsh(m))
    return _monomial_signature(*mono)


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
