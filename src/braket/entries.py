"""Sparse matrices held as entries, and the library's numeric thresholds.

A matrix is held as its entries: (index, values), the ascending flat
indices i * cols + j as a list of ints and the Python complex values
there. A zero has no sign in the bra-ket calculus, and the one rule for
it is here: _pair and _kept keep a value only when it is not zero,
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

Every command loads this module, so the read-only base of every library
value is here too: _ReadOnly, and _Value for those that compare by value.
"""

from __future__ import annotations

from itertools import repeat
from math import hypot, isfinite, isnan, nan
from operator import add

from .errors import DegenerateMetric, InvalidArgument, NotHermitian, Singular


class _ReadOnly:
    """A value whose attributes are set once, when it is made, through its
    __dict__ (cached properties too); assigning or deleting one raises
    dataclasses.FrozenInstanceError. It compares and hashes by identity."""

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Value(_ReadOnly):
    """A read-only value that compares, hashes and prints by its _fields, in
    order, as a frozen dataclass does: == with another type is
    NotImplemented."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{self.__class__.__qualname__}({args})"


class _Tolerances(_Value):
    """The library's fixed numeric thresholds.

    eq_tol   entrywise equality of matrices and scalars
    herm_tol allowed deviation from hermiticity
    sig_tol  eigenvalue / pivot zero threshold
    sym_tol  metric preservation after an exponential map
    """

    _fields = ("eq_tol", "herm_tol", "sig_tol", "sym_tol")

    def __init__(self, eq_tol: float = 1e-10, herm_tol: float = 1e-10, sig_tol: float = 1e-9,
                 sym_tol: float = 1e-8):
        self.__dict__.update(eq_tol=eq_tol, herm_tol=herm_tol, sig_tol=sig_tol, sym_tol=sym_tol)


DEFAULT_TOLS = _Tolerances()


def _aligned(a, b) -> tuple[list, list, list]:
    """The union of the positions of two matrices of one shape, ascending,
    and the values of each there, 0 where it has none; matrices holding the
    same positions are read as they are."""
    if a[0] == b[0]:
        return a[0], a[1], b[1]
    da, db = dict(zip(*a)), dict(zip(*b))
    index = sorted(da.keys() | db.keys())
    return index, list(map(da.get, index, repeat(0))), list(map(db.get, index, repeat(0)))


def _kept(index: list, values: list) -> tuple[list, list]:
    """The entries of these values at these ascending positions, with the
    zero values left out."""
    kept = [i for i, x in enumerate(values) if x != 0]
    return [index[i] for i in kept], [values[i] + 0j for i in kept]


def _pair(entries: dict) -> tuple[list, list]:
    """The (index, values) of an {index: value}, ascending, with the zero
    values left out."""
    index = [k for k in sorted(entries) if entries[k] != 0]
    return index, [entries[k] + 0j for k in index]


def _sum(a, b) -> tuple[list, list]:
    """Entries of the sum of two matrices of one shape."""
    index, x, y = _aligned(a, b)
    return _kept(index, list(map(add, x, y)))


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


def _hypots(values: list) -> list:
    """The magnitudes of the values, for when abs raises OverflowError: a
    finite value whose magnitude is past the float range counts as inf, as
    math.hypot gives it."""
    return [hypot(v.real, v.imag) for v in values]


def _max_abs(values: list) -> float:
    """Largest magnitude among a list of values, 0.0 for none, NaN if one
    is NaN (as numpy's max, whatever the order), inf if one is past the
    float range."""
    try:
        mags = list(map(abs, values))
    except OverflowError:
        mags = _hypots(values)
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
        [v - vals[c].conjugate() if cols[c] == i else v for i, (c, v) in enumerate(zip(cols, vals))]
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
    try:
        _require_nonsingular(map(abs, vals))
    except OverflowError:
        _require_nonsingular(_hypots(vals))


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
