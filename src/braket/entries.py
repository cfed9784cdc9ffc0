"""Sparse matrices held as entries, and the library's numeric thresholds.

A matrix is held as its entries: (index, values), the ascending flat
indices i * cols + j as a list of ints and the Python complex values
there. A zero has no sign in the bra-ket calculus, and the one rule for
it is here: _pair and _combine keep a value only when it is not zero,
and store it plus 0j, which turns a -0.0 part into 0.0 and leaves every
other bit alone. Every other position holds 0.

Everything here is pure Python and imports no numpy: a bundle is built,
checked and written from its entries alone, and the operator algebra and
the expression language compute on entries with the kernel below
(_product, _adjoint, _scale, _sum, _trace, _only). A ket is a d x 1
matrix and a bra a 1 x d one, so a vector's entries have the same flat
indices either way. The dense conversions, linalg._entries, _dense and
_flat, load numpy when they are called.

A monomial matrix has exactly one non-zero in every row and every
column, as every bundle metric does (a signed permutation, or diag(+-1)
in the orthonormal basis). It is described by (cols, vals), row i
holding vals[i] at column cols[i], and the helpers below check it as a
metric and read its signature from these d values alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, isnan, nan
from operator import add

from .errors import DegenerateMetric, InvalidArgument, NotHermitian, Singular


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


def _combine(a: dict, b: dict, op) -> tuple[list, list]:
    """Entries of op(x, y) over the union of the indices of a and b, two
    {index: value}, x and y read from them with 0 where one has none.
    op(0, 0) is 0 for every op used, so the positions in neither are 0."""
    index, values = [], []
    for k in sorted(a.keys() | b.keys()):
        x = op(a.get(k, 0), b.get(k, 0))
        if x != 0:
            index.append(k)
            values.append(x + 0j)
    return index, values


def _pair(entries: dict) -> tuple[list, list]:
    """The (index, values) of an {index: value}, ascending, with the zero
    values left out."""
    index = [k for k in sorted(entries) if entries[k] != 0]
    return index, [entries[k] + 0j for k in index]


def _sum(a, b) -> tuple[list, list]:
    """Entries of the sum of two matrices of one shape."""
    return _combine(dict(zip(*a)), dict(zip(*b)), add)


def _scale(alpha: complex, a) -> tuple[list, list]:
    """Entries of alpha times a matrix."""
    return _pair({k: alpha * v for k, v in zip(*a)})


def _adjoint(a, rows: int, cols: int) -> tuple[list, list]:
    """Entries of the conjugate transpose of a rows x cols matrix."""
    return _pair({(k % cols) * rows + k // cols: v.conjugate() for k, v in zip(*a)})


def _product(a, b, inner: int, cols: int) -> tuple[list, list]:
    """Entries of the product of a matrix with `inner` columns and an
    inner x cols one. Each entry of the result sums its terms in ascending
    k, as the dense sum over k does without its zero terms."""
    rows_b = {}
    for k, v in zip(*b):
        r, c = divmod(k, cols)
        rows_b.setdefault(r, []).append((c, v))
    out = {}
    for k, x in zip(*a):
        i, r = divmod(k, inner)
        for c, y in rows_b.get(r, ()):
            key = i * cols + c
            out[key] = out.get(key, 0) + x * y
    return _pair(out)


def _trace(a, dim: int) -> complex:
    """Trace of a dim x dim matrix: its diagonal values summed in order."""
    return sum((v for k, v in zip(*a) if k % (dim + 1) == 0), 0j)


def _only(a) -> complex:
    """The value of a 1 x 1 matrix."""
    return a[1][0] if a[1] else 0j


def _finite(values) -> bool:
    """Whether no value has a NaN or infinite part."""
    return all(isfinite(v.real) and isfinite(v.imag) for v in values)


def _cartesian(dim: int, raising: dict) -> tuple[tuple[list, list], tuple[list, list]]:
    """Entries of x1 = (x+ + x-)/2 and x2 = (x+ - x-)/(2i), x- = x+^T, for a
    real raising matrix x+ as {index: value}, no entry on the diagonal or
    facing another: v at an index of x+ puts v/2 in x1 and -iv/2 in x2
    there, and v/2 and iv/2 at its mirror."""
    x1, x2 = {}, {}
    for k, v in raising.items():
        mirror = (k % dim) * dim + k // dim
        x1[k] = x1[mirror] = v / 2
        x2[k], x2[mirror] = complex(0.0, -v / 2), complex(0.0, v / 2)
    return _pair(x1), _pair(x2)


def _max_abs(values) -> float:
    """Largest magnitude among the values, 0.0 for none, NaN if one is NaN
    (as numpy's max, whatever the order)."""
    mags = list(map(abs, values))
    return nan if any(map(isnan, mags)) else max(mags, default=0.0)


def _monomial_of(dim: int, index: list, values: list):
    """(cols, vals) of the dim x dim matrix whose non-zeros are these
    entries, when it is monomial; otherwise None."""
    if len(index) != dim:
        return None
    cols = []
    for row, k in enumerate(index):
        r, c = divmod(k, dim)
        if r != row:
            return None
        cols.append(c)
    if len(set(cols)) != dim:
        return None
    return cols, values


def _monomial_herm_dev(cols: list, vals: list) -> float:
    """max_abs(m - m^H) of a monomial m, from its (cols, vals) in O(d).

    Entry (i, cols[i]) faces the conjugate of (cols[i], i), which is
    vals[cols[i]] when cols[cols[i]] == i and zero otherwise; every other
    entry of m - m^H is zero or the negated conjugate of one of these.
    """
    return _max_abs(
        v - vals[c].conjugate() if cols[c] == i else v for i, (c, v) in enumerate(zip(cols, vals))
    )


def _require_nonsingular(svals):
    smin = min(svals)
    if smin < DEFAULT_TOLS.sig_tol:
        raise Singular(f"smallest singular value {smin:.3e} below {DEFAULT_TOLS.sig_tol:.3e}")


def _check_monomial_metric(cols: list, vals: list):
    """The checks a metric passes, on a monomial's (cols, vals): hermitian,
    finite and non-singular, in that order, as on the dense route."""
    if _monomial_herm_dev(cols, vals) > DEFAULT_TOLS.herm_tol:
        raise NotHermitian("metric matrix must be hermitian")
    if not _finite(vals):
        raise InvalidArgument("matrix has a NaN or infinite entry")
    # the singular values of a monomial matrix are the magnitudes of its non-zeros
    _require_nonsingular(map(abs, vals))


def _monomial_signature(cols: list, vals: list) -> tuple[int, int]:
    """signature of a hermitian monomial matrix.

    It pairs each index with itself or with one partner, so a diagonal
    entry is an eigenvalue and each off-diagonal pair gives one +|c| and
    one -|c|, c read from the lower triangle as eigvalsh does. A cycle of
    three or more indices has no mirrored entries, so its entries are
    within herm_tol < sig_tol of zero, and the one in the lower triangle
    marks the matrix degenerate, as eigvalsh would.
    """
    diagonal = [v.real for i, (c, v) in enumerate(zip(cols, vals)) if c == i]
    pairs = [abs(v) for i, (c, v) in enumerate(zip(cols, vals)) if c < i]
    return _count_signs(diagonal + pairs + [-p for p in pairs])


def _count_signs(eigs: list) -> tuple[int, int]:
    if any(abs(e) < DEFAULT_TOLS.sig_tol for e in eigs):
        raise DegenerateMetric(f"eigenvalue below zero threshold {DEFAULT_TOLS.sig_tol:.3e}")
    n_plus = sum(e > 0 for e in eigs)
    return n_plus, len(eigs) - n_plus
