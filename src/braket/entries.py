"""Sparse matrices held as entries, and the library's numeric thresholds.

A matrix is held as its entries: (index, values), the ascending flat
indices i * cols + j as a list of ints and the Python complex values
there. Every value that is not +0 is kept (a -0.0 part is kept too), so
that a writer spelling out the entries and +0 everywhere else reproduces
the text of the dense matrix.

Everything here is pure Python and imports no numpy: a bundle is built,
checked and written from its entries alone. The dense conversions,
linalg._entries and linalg._dense, load numpy when they are called.

A monomial matrix has exactly one non-zero in every row and every
column, as every bundle metric does (a signed permutation, or diag(+-1)
in the orthonormal basis). It is described by (cols, vals), row i
holding vals[i] at column cols[i], and the helpers below check it as a
metric and read its signature from these d values alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, isfinite

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


def _written(x) -> bool:
    """True when a float or complex value is not +0, the one value whose
    bits are all clear."""
    return x != 0 or copysign(1.0, x.real) < 0 or copysign(1.0, x.imag) < 0


def _product(a, b) -> complex:
    """a * b as numpy multiplies two complex numbers, a float taken with a
    +0 imaginary part: (ar br - ai bi, ar bi + ai br). Python's own
    mixed real/complex rules give other signed zeros (and changed in
    Python 3.14), so every product is written out."""
    return complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _halved(z) -> complex:
    """z / 2 as numpy divides a complex by 2 + 0j: ((zr + zi 0) 0.5,
    (zi - zr 0) 0.5)."""
    return complex((z.real + z.imag * 0.0) * 0.5, (z.imag - z.real * 0.0) * 0.5)


def _combine(a: dict, b: dict, op, zero=0j) -> tuple[list, list]:
    """Entries of op(x, y) over the union of the indices of a and b, two
    {index: value}, x and y read from them with zero where one has none.
    op(zero, zero) is +0 for every op used, so the positions in neither
    are +0, as they are in the dense computation."""
    index, values = [], []
    for k in sorted(a.keys() | b.keys()):
        x = op(a.get(k, zero), b.get(k, zero))
        if x or _written(x):
            index.append(k)
            values.append(x)
    return index, values


def _pair(entries: dict) -> tuple[list, list]:
    """The (index, values) of an {index: value}, ascending, with the +0
    values left out."""
    index = [k for k in sorted(entries) if entries[k] or _written(entries[k])]
    return index, [entries[k] for k in index]


def _max_abs(values) -> float:
    """Largest magnitude among the values, 0.0 for none."""
    return max(map(abs, values), default=0.0)


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
    if not all(isfinite(v.real) and isfinite(v.imag) for v in vals):
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
