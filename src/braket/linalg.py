"""Dense complex matrix kernel.

Products, adjoints, inverses, hermitian eigen-signatures, matrix
exponentials and Kronecker products, all on plain 2-D complex ndarrays.
The numeric thresholds are the fixed constants of DEFAULT_TOLS; only
checks that judge the caller's own data take an explicit tol. Everything
here is a pure function; inputs are never mutated. inverse and
signature reject NaN and infinite entries.

DEFAULT_TOLS lives in entries, with the numpy-free helpers that check a
bundle metric from its entries; _entries and _dense here convert between
a dense matrix and its entries.
"""

from __future__ import annotations

import numpy as np

from .entries import DEFAULT_TOLS, _count_signs, _require_nonsingular
from .errors import DimensionMismatch, InvalidArgument, NotHermitian

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


def _entries(m) -> tuple[list, list]:
    """The entries (see entries) of a dense matrix: every one that is not
    +0, the one value whose bits are all clear."""
    flat = np.ascontiguousarray(m, dtype=complex).reshape(-1)
    index = np.flatnonzero(flat.view(np.int64).reshape(flat.size, 2).any(axis=1))
    return index.tolist(), flat[index].tolist()


def _dense(dim: int, entries) -> np.ndarray:
    """The dim x dim matrix with these entries and +0 elsewhere."""
    index, values = entries
    out = np.zeros(dim * dim, dtype=complex)
    out[index] = values
    return out.reshape(dim, dim)


def inverse(a) -> np.ndarray:
    """Inverse of a square matrix with finite entries.

    Raises Singular when the smallest singular value falls below sig_tol,
    which is the library-wide notion of "no inverse exists".
    """
    m = _finite_square(a)
    _require_nonsingular(np.linalg.svd(m, compute_uv=False).tolist())
    return np.linalg.inv(m)


def signature(h) -> tuple[int, int]:
    """Counts (n_plus, n_minus) of positive/negative eigenvalues.

    The input must have finite entries and be hermitian within herm_tol;
    an eigenvalue with magnitude below sig_tol makes the matrix degenerate
    and is rejected, so n_plus + n_minus always equals the dimension.
    """
    m = _finite_square(h)
    if max_abs(m - m.conj().T) > DEFAULT_TOLS.herm_tol:
        raise NotHermitian("signature requires a hermitian matrix")
    return _count_signs(np.linalg.eigvalsh(m).tolist())


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
