"""JSON serialization of matrices, vectors, operators, environments and
representation bundles.

Matrix schema: {"rows": R, "cols": C, "data": [[re, im], ...]} with data
row-major. Numbers round-trip losslessly (shortest-repr float printing).
Malformed payloads raise SchemaError; integer fields reject bools.

A bundle payload is fixed by its weights, epsilon and basis: rep_from_json
rebuilds the bundle from them through sl2c and checks every other field
against it, comparing each payload matrix with the rebuilt bundle's
entries, so the loader constructs no bundle of its own and makes no
dense matrix of the rebuilt one.

`dump_rep(rep)` is the text of `dump_json(rep_to_json(rep))`, made by one
writer that yields it a matrix at a time, straight from the bundle's
entries (see entries): each run of zeros between them is written as one
repeated string, and no dense matrix or Python list per entry is made.
A bundle's non-zero values are those of the dense computation and its
zeros are unsigned, so its text spells every zero 0.0; a payload that
spells some of them -0.0 loads all the same, as values are compared
within eq_tol. The `braket rep` command writes these pieces as they
come. The writer, rep_to_json (each matrix from its entries) and
dump_json are pure Python; the functions that make or read dense arrays
(the matrix codec and rep_from_json) import numpy when called, and the
bundle functions import sl2c then.

Vectors, operators and environments are read and written on their
entries (see entries), in pure Python and with the matrix codec's
checks, so a value writes the same bytes whether it was made dense or
from entries. An environment's metric is made from its entries, and
MetricOperator picks its check: a monomial metric (one non-zero in
every row and column) loads no numpy; any other needs an SVD.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain
from math import copysign
from typing import TYPE_CHECKING

from .entries import DEFAULT_TOLS, _pair
from .errors import DimensionMismatch, InvalidArgument, NotHermitian, SchemaError, Singular
from .spaces import MetricOperator, OperatorKind, Variance, VarVector

if TYPE_CHECKING:
    from .dsl import Environment
    from .operators import KindedOperator
    from .sl2c import CoupledRep

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "operator_to_json",
    "operator_from_json",
    "rep_to_json",
    "dump_rep",
    "rep_from_json",
    "environment_to_json",
    "environment_from_json",
    "load_json",
    "dump_json",
]

def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _pairs(v: np.ndarray) -> list[list[float]]:
    """[re, im] pairs of a 1-D complex array, as plain Python floats."""
    import numpy as np

    return np.stack((v.real, v.imag), axis=-1).tolist()


# json.dumps spells the non-finite floats differently from float.__repr__.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# The text of a +0 pair with its separator, repeated once per zero entry.
_ZERO_PAIR = "[0.0, 0.0], "


def _matrix_text(rows: int, cols: int, entries) -> str:
    """json.dumps(matrix_to_json(m)) of the rows x cols matrix m with these
    entries and +0 elsewhere; only the entries are formatted.

    A bundle's matrices repeat a few thousand values over up to 10^5
    entries, and shortest-repr formatting is the costly step, so each
    distinct non-zero float is formatted once; the zeros, which compare
    equal whatever their sign, are spelled by it. A bundle's gaps take a
    few dozen lengths, and each run of +0 pairs is made once.
    """
    texts, runs = {}, {}

    def text(x: float) -> str:
        if not x:
            return "-0.0" if copysign(1.0, x) < 0 else "0.0"
        t = texts.get(x)
        if t is None:
            t = float.__repr__(x)
            t = texts[x] = _NON_FINITE.get(t, t)
        return t

    parts = [f'{{"rows": {rows}, "cols": {cols}, "data": [']
    last = -1
    for k, z in zip(*entries):
        gap = k - last - 1
        if gap:
            run = runs.get(gap)
            if run is None:
                run = runs[gap] = _ZERO_PAIR * gap
            parts.append(run)
        parts.append(f"[{text(z.real)}, {text(z.imag)}], ")
        last = k
    if rows * cols - last - 1:
        parts.append(_ZERO_PAIR * (rows * cols - last - 1))
    parts[-1] = parts[-1][:-2]  # the separator after the last pair
    parts.append("]}")
    return "".join(parts)


def _complex_list(data, what: str) -> list[complex]:
    """The values of a list of [re, im] pairs, each one checked."""
    _require(
        isinstance(data, list) and len(data) >= 1, f"{what}: expected a list of [re, im] pairs"
    )
    out = []
    for k, pair in enumerate(data):
        _require(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair),
            f"{what}: entry {k} is not a [re, im] pair",
        )
        try:
            out.append(complex(pair[0], pair[1]))
        except OverflowError:
            raise SchemaError(f"{what}: entry {k} does not fit a float") from None
    return out


def _from_pairs(data, what: str) -> np.ndarray:
    import numpy as np

    # Whole-list checks first; _complex_list is the one that names a bad
    # entry, so any payload failing them falls through to it.
    if (
        isinstance(data, list)
        and set(map(type, data)) == {list}
        and set(map(len, data)) == {2}
        and set(map(type, chain.from_iterable(data))) <= {int, float}
    ):
        try:
            flat = np.fromiter(chain.from_iterable(data), dtype=float, count=2 * len(data))
        except OverflowError:
            pass
        else:
            out = np.empty(len(data), dtype=complex)
            # Filled part by part: re + 1j*im would turn a -0.0 real part into +0.0.
            out.real, out.imag = flat[0::2], flat[1::2]
            return out
    return np.array(_complex_list(data, what), dtype=complex)


def _entry_pairs(size: int, entries) -> list[list[float]]:
    """[re, im] pairs of the 1-D array of this size with these entries and
    +0 elsewhere, as _pairs writes that array."""
    pairs = [[0.0, 0.0] for _ in range(size)]
    for k, z in zip(*entries):
        pairs[k] = [z.real, z.imag]
    return pairs


def _matrix_shape(obj) -> tuple[int, int]:
    """rows and cols of a matrix payload, its keys checked."""
    _require(isinstance(obj, dict), "matrix: expected an object")
    for key in ("rows", "cols", "data"):
        _require(key in obj, f"matrix: missing key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    _require(
        _is_int(rows) and _is_int(cols) and rows >= 1 and cols >= 1,
        "matrix: rows/cols must be positive integers",
    )
    return rows, cols


def matrix_to_json(m) -> dict:
    import numpy as np

    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": _pairs(m.reshape(-1)),
    }


def _matrix_json(dim: int, entries) -> dict:
    """matrix_to_json of the dim x dim matrix with these entries and +0
    elsewhere, made in pure Python."""
    return {"rows": dim, "cols": dim, "data": _entry_pairs(dim * dim, entries)}


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = _matrix_shape(obj)
    flat = _from_pairs(obj["data"], "matrix data")
    _require(flat.shape[0] == rows * cols, "matrix: data length != rows*cols")
    return flat.reshape(rows, cols)


def _matrix_values(obj) -> tuple[int, int, list[complex]]:
    """rows, cols and the row-major values of a matrix payload, read in
    pure Python with matrix_from_json's checks."""
    rows, cols = _matrix_shape(obj)
    values = _complex_list(obj["data"], "matrix data")
    _require(len(values) == rows * cols, "matrix: data length != rows*cols")
    return rows, cols, values


def vector_to_json(v: VarVector) -> dict:
    return {"variance": v.variance.value, "components": _entry_pairs(v.dim, v._entries)}


def vector_from_json(obj) -> VarVector:
    _require(isinstance(obj, dict), "vector: expected an object")
    _require("variance" in obj and "components" in obj, "vector: missing keys")
    try:
        variance = Variance(obj["variance"])
    except ValueError:
        raise SchemaError(f"vector: unknown variance {obj['variance']!r}") from None
    values = _complex_list(obj["components"], "vector components")
    return VarVector._from_entries(len(values), _pair(dict(enumerate(values))), variance)


def operator_to_json(x: KindedOperator) -> dict:
    return {"kind": x.kind.value, "matrix": _matrix_json(x.dim, x._entries)}


def operator_from_json(obj) -> KindedOperator:
    from .operators import KindedOperator

    _require(isinstance(obj, dict), "operator: expected an object")
    _require("kind" in obj and "matrix" in obj, "operator: missing keys")
    try:
        kind = OperatorKind(obj["kind"])
    except ValueError:
        raise SchemaError(f"operator: unknown kind {obj['kind']!r}") from None
    rows, cols, values = _matrix_values(obj["matrix"])
    if rows != cols:
        raise DimensionMismatch(f"operator matrix must be square, got {(rows, cols)}")
    return KindedOperator._from_entries(rows, _pair(dict(enumerate(values))), kind)


def _rep_fields(rep: CoupledRep, metric, generators: dict) -> dict:
    """The bundle's payload, keys in output order, with the given encoded
    metric and generator families."""
    from .sl2c import rep_signature

    out = {"twice_j1": rep.j1.twice_j}
    if not rep.is_diagonal:
        out["twice_j2"] = rep.j2.twice_j
    n_plus, n_minus = rep_signature(rep)
    out.update(
        {
            "epsilon": rep.epsilon,
            "basis": rep.basis,
            "dim": rep.dim,
            "metric": metric,
            "generators": generators,
            "signature": [n_plus, n_minus],
            "labels": [dict(lab) for lab in rep.labels],
        }
    )
    return out


def rep_to_json(rep: CoupledRep) -> dict:
    """The bundle's payload, each matrix made from its entries."""
    generators = {
        name: [_matrix_json(rep.dim, e) for e in family] for name, family in rep._families.items()
    }
    return _rep_fields(rep, _matrix_json(rep.dim, rep.metric._entries), generators)


# Stands for a matrix in the payload's frame; json.dumps writes it as "\u0000".
_SLOT = "\0"


def _rep_chunks(rep: CoupledRep) -> Iterator[str]:
    """The text of dump_json(rep_to_json(rep)), one matrix at a time.

    The frame around the matrices, signature included, is made before
    the first piece is yielded, so a bundle that fails a check yields
    nothing.
    """
    families = rep._families
    frame = dump_json(_rep_fields(rep, _SLOT, {name: [_SLOT] * 3 for name in families}))
    pieces = iter(frame.split(json.dumps(_SLOT)))
    yield next(pieces)
    matrices = [rep.metric._entries] + [e for family in families.values() for e in family]
    for entries, piece in zip(matrices, pieces, strict=True):
        yield _matrix_text(rep.dim, rep.dim, entries)
        yield piece


def dump_rep(rep: CoupledRep) -> str:
    """dump_json(rep_to_json(rep)), byte for byte, written straight from
    the bundle's entries."""
    return "".join(_rep_chunks(rep))


def rep_from_json(obj) -> CoupledRep:
    """The bundle a payload names by its weights, epsilon and basis.

    After the schema checks, every payload matrix is parsed and its shape
    checked before the bundle is built, so a small payload cannot make the
    loader build a large bundle. The built bundle is returned once the
    payload's matrices (within eq_tol), labels and signature match it.
    """
    from .sl2c import Basis, build_rep, build_rep_diag, rep_signature
    from .su2 import Weight

    _require(isinstance(obj, dict), "rep: expected an object")
    for key in ("twice_j1", "epsilon", "basis", "dim", "metric", "generators", "labels"):
        _require(key in obj, f"rep: missing key {key!r}")
    for key in ("twice_j1", "twice_j2"):
        twice_j = obj.get(key, 0)
        _require(_is_int(twice_j) and twice_j >= 0, f"rep: {key} must be a non-negative integer")
    j1 = Weight(obj["twice_j1"])
    j2 = Weight(obj.get("twice_j2", obj["twice_j1"]))
    _require("twice_j2" not in obj or j1 != j2, "rep: twice_j2 equal to twice_j1 must be omitted")
    epsilon = obj["epsilon"]
    _require(_is_int(epsilon) and epsilon in (-1, 1), "rep: epsilon must be +1 or -1")
    try:
        basis = Basis(obj["basis"])
    except ValueError:
        raise SchemaError(f"rep: unknown basis {obj['basis']!r}") from None
    _require(
        j1 != j2 or basis != Basis.ORTHONORMAL, "rep: a tensor square has no orthonormal basis"
    )
    dim = obj["dim"]
    _require(_is_int(dim) and dim >= 1, "rep: dim must be a positive integer")
    want = j1.dim**2 if j1 == j2 else 2 * j1.dim * j2.dim
    _require(dim == want, f"rep: dim {dim} does not match the weights, which give {want}")
    if "signature" in obj:
        sig = obj["signature"]
        _require(
            isinstance(sig, list) and len(sig) == 2 and all(map(_is_int, sig)),
            "rep: signature must be a pair of integers",
        )
    gens = obj["generators"]
    _require(isinstance(gens, dict), "rep: generators must be an object")
    metric = matrix_from_json(obj["metric"])
    _require(metric.shape == (dim, dim), "rep: metric shape != dim")
    mats = {"metric": (metric,)}
    for name in ("M", "N", "I", "K"):
        _require(name in gens, f"rep: missing generator family {name!r}")
        family = gens[name]
        _require(isinstance(family, list) and len(family) == 3, f"rep: {name} needs 3 matrices")
        mats[name] = tuple(matrix_from_json(m) for m in family)
        _require(all(m.shape == (dim, dim) for m in mats[name]), f"rep: {name} matrix shape != dim")
    rep = build_rep_diag(j1, epsilon, basis) if j1 == j2 else build_rep(j1, j2, epsilon, basis)
    built = {"metric": (rep.metric._entries,), **rep._families}
    for name, family in mats.items():
        _require(
            all(_deviation(a, e) <= DEFAULT_TOLS.eq_tol for a, e in zip(family, built[name])),
            f"rep: {name} does not match the bundle of these weights, epsilon and basis",
        )
    _require(obj["labels"] == list(rep.labels), "rep: labels do not match the bundle")
    if "signature" in obj:
        _require(tuple(sig) == rep_signature(rep), "rep: signature does not match the metric")
    return rep


def _deviation(m: np.ndarray, entries) -> float:
    """max_abs(m - b) for the matrix b with these entries and +0 elsewhere,
    made by subtracting the values at their indices, so b is never made."""
    from .linalg import max_abs

    index, values = entries
    diff = m.reshape(-1).copy()
    diff[index] -= values
    return max_abs(diff)


def environment_to_json(env: Environment) -> dict:
    return {
        "dimension": env.dimension,
        "metric": _matrix_json(env.metric.dim, env.metric._entries),
        "vectors": {name: vector_to_json(v) for name, v in env.vectors.items()},
        "operators": {name: operator_to_json(x) for name, x in env.operators.items()},
    }


def environment_from_json(obj) -> Environment:
    """The environment a payload describes, read in pure Python.

    The metric is made from its entries by MetricOperator._from_entries,
    which picks its check from the value: a monomial metric loads no
    numpy, any other is checked with an SVD.
    """
    from .dsl import Environment

    _require(isinstance(obj, dict), "environment: expected an object")
    for key in ("dimension", "metric"):
        _require(key in obj, f"environment: missing key {key!r}")
    dim = obj["dimension"]
    _require(_is_int(dim) and dim >= 1, "environment: dimension must be a positive integer")
    vectors = obj.get("vectors", {})
    operators = obj.get("operators", {})
    _require(isinstance(vectors, dict), "environment: vectors must be an object")
    _require(isinstance(operators, dict), "environment: operators must be an object")
    rows, cols, values = _matrix_values(obj["metric"])
    vectors = {name: vector_from_json(v) for name, v in vectors.items()}
    operators = {name: operator_from_json(x) for name, x in operators.items()}
    # MetricOperator and Environment reject a bad metric and a size that
    # contradicts the dimension; in a payload, either is a schema fault
    try:
        if rows != cols:
            raise DimensionMismatch(f"metric must be square, got {(rows, cols)}")
        metric = MetricOperator._from_entries(rows, _pair(dict(enumerate(values))))
        return Environment(dimension=dim, metric=metric, vectors=vectors, operators=operators)
    except (DimensionMismatch, InvalidArgument, NotHermitian, Singular) as exc:
        raise SchemaError(f"environment: {exc}") from exc


def dump_json(payload) -> str:
    return json.dumps(payload)


def load_json(text: str | bytes):
    """The value of a JSON text; bytes are read as UTF-8. A text that is not
    JSON, not UTF-8 or nested too deeply to read raises SchemaError."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
