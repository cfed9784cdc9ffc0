"""Dense complex matrix kernel.

Products, adjoints, inverses, hermitian eigen-signatures, matrix
exponentials and Kronecker products, all on plain 2-D complex ndarrays.
The numeric thresholds are the fixed constants of DEFAULT_TOLS; only
checks that judge the caller's own data take an explicit tol. Everything
here is a pure function; inputs are never mutated. inverse, signature
and expm reject NaN and infinite entries. numpy is the only dependency:
expm is Higham's scaling-and-squaring Pade exponential in numpy, so no
braket module loads scipy.

DEFAULT_TOLS lives in entries, with the numpy-free helpers that check a
bundle metric from its entries; _entries, _dense and _flat here convert
between a dense matrix or vector and its entries.
"""

from __future__ import annotations

import math

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
    """The entries (see entries) of a dense matrix or vector, by the one
    zero rule of entries._pair: the values that are not zero, plus 0j, so
    a -0.0 is no entry and a -0.0 part of one becomes 0.0."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    index = np.flatnonzero(flat)
    return index.tolist(), (flat[index] + 0j).tolist()


def _flat(size: int, entries) -> np.ndarray:
    """The 1-D array of this size with these entries and +0 elsewhere."""
    index, values = entries
    out = np.zeros(size, dtype=complex)
    out[index] = values
    return out


def _dense(dim: int, entries) -> np.ndarray:
    """The dim x dim matrix with these entries and +0 elsewhere."""
    return _flat(dim * dim, entries).reshape(dim, dim)


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


# Higham's scaling-and-squaring exponential (SIAM J. Matrix Anal. Appl. 26
# (2005) 1179). The [m/m] Pade approximant is r_m = (V - U)^-1 (V + U), with
# V the even and U the odd part of the numerator sum_k b_k A^k. _PADE_THETA[m]
# is the largest 1-norm at which r_m meets double-precision backward error.
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


def _pade_rows(m: int, b: tuple) -> np.ndarray:
    """Coefficients of the even powers A^2, A^4, ... as rows, so that one
    product with their stack forms every combination degree m needs; the
    A^0 terms b_1 and b_0 go on the diagonal afterwards. m <= 9: rows
    (U / A, V) on A^2 .. A^(m-1). m = 13: rows (U_hi, U_lo, V_hi, V_lo) on
    A^2, A^4, A^6, where U = A (A^6 U_hi + U_lo) and V = A^6 V_hi + V_lo."""
    if m < 13:
        return np.array([b[3::2], b[2::2]])
    return np.array([b[9::2], b[3:9:2], b[8::2], b[2:8:2]])


_PADE_ROWS = {m: _pade_rows(m, b) for m, b in _PADE_B.items()}


def _plus_diagonal(m: np.ndarray, c: float) -> np.ndarray:
    """m + c I, written into m."""
    m.flat[:: m.shape[0] + 1] += c
    return m


def expm(a) -> np.ndarray:
    """Matrix exponential by Higham's scaling-and-squaring Pade method.

    The degree m in (3, 5, 7, 9, 13) is the smallest whose theta_m bounds
    the 1-norm; past theta_13 the matrix is scaled by 2^-s and the result
    squared s times. expm(0) is exactly I. A NaN or infinite entry, a
    1-norm past the float range or an exponential that overflows raises
    InvalidArgument.
    """
    m = _finite_square(a)
    n = m.shape[0]
    # an overflow is reported below, as InvalidArgument
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(m).sum(axis=0).max())
        if norm == 0:
            return np.eye(n, dtype=complex)
        if not math.isfinite(norm):
            raise InvalidArgument("matrix 1-norm overflows")
        degree = next((d for d in (3, 5, 7, 9) if norm <= _PADE_THETA[d]), 13)
        s = max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if degree == 13 else 0
        if s:
            m = m * 2.0**-s
        b, rows = _PADE_B[degree], _PADE_ROWS[degree]
        powers = np.empty((rows.shape[1], n, n), dtype=complex)
        np.matmul(m, m, out=powers[0])
        for k in range(1, len(powers)):
            np.matmul(powers[k - 1], powers[0], out=powers[k])
        c = (rows @ powers.reshape(len(powers), -1)).reshape(-1, n, n)
        if degree == 13:
            u = m @ _plus_diagonal(powers[2] @ c[0] + c[1], b[1])
            v = _plus_diagonal(powers[2] @ c[2] + c[3], b[0])
        else:
            u = m @ _plus_diagonal(c[0], b[1])
            v = _plus_diagonal(c[1], b[0])
        x = np.linalg.solve(v - u, v + u)
        for _ in range(s):
            x = x @ x
    if not np.isfinite(x).all():
        raise InvalidArgument("matrix exponential overflows")
    return x


def kron(a, b) -> np.ndarray:
    """Kronecker product, left factor major: (i_a, i_b) -> i_a * rows(b) + i_b."""
    return np.kron(as_matrix(a), as_matrix(b))
