"""JSON serialization of matrices, vectors, operators, environments and
representation bundles.

Matrix schema: {"rows": R, "cols": C, "data": [[re, im], ...]} with data
row-major. Numbers round-trip losslessly (shortest-repr float printing).
Malformed payloads raise SchemaError.
"""

from __future__ import annotations

import json

import numpy as np

from .dsl import Environment
from .errors import SchemaError
from .linalg import DEFAULT_TOLS, max_abs
from .operators import KindedOperator, OperatorKind
from .sl2c import Basis, CoupledRep, rep_signature
from .spaces import MetricOperator, Variance, VarVector
from .su2 import Weight

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "operator_to_json",
    "operator_from_json",
    "rep_to_json",
    "rep_from_json",
    "environment_to_json",
    "environment_from_json",
    "load_json",
    "dump_json",
]

def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _pairs(v: np.ndarray) -> list[list[float]]:
    """[re, im] pairs of a 1-D complex array, as plain Python floats."""
    return np.stack((v.real, v.imag), axis=-1).tolist()


def _from_pairs(data, what: str) -> np.ndarray:
    _require(isinstance(data, list) and len(data) >= 1, f"{what}: expected a list of [re, im] pairs")
    out = np.empty(len(data), dtype=complex)
    for k, pair in enumerate(data):
        _require(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair),
            f"{what}: entry {k} is not a [re, im] pair",
        )
        out[k] = complex(pair[0], pair[1])
    return out


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": _pairs(m.reshape(-1)),
    }


def matrix_from_json(obj) -> np.ndarray:
    _require(isinstance(obj, dict), "matrix: expected an object")
    for key in ("rows", "cols", "data"):
        _require(key in obj, f"matrix: missing key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    _require(
        isinstance(rows, int) and isinstance(cols, int) and rows >= 1 and cols >= 1,
        "matrix: rows/cols must be positive integers",
    )
    flat = _from_pairs(obj["data"], "matrix data")
    _require(flat.shape[0] == rows * cols, "matrix: data length != rows*cols")
    return flat.reshape(rows, cols)


def vector_to_json(v: VarVector) -> dict:
    return {"variance": v.variance.value, "components": _pairs(v.components)}


def vector_from_json(obj) -> VarVector:
    _require(isinstance(obj, dict), "vector: expected an object")
    _require("variance" in obj and "components" in obj, "vector: missing keys")
    try:
        variance = Variance(obj["variance"])
    except ValueError:
        raise SchemaError(f"vector: unknown variance {obj['variance']!r}") from None
    return VarVector(_from_pairs(obj["components"], "vector components"), variance)


def operator_to_json(x: KindedOperator) -> dict:
    return {"kind": x.kind.value, "matrix": matrix_to_json(x.mat)}


def operator_from_json(obj) -> KindedOperator:
    _require(isinstance(obj, dict), "operator: expected an object")
    _require("kind" in obj and "matrix" in obj, "operator: missing keys")
    try:
        kind = OperatorKind(obj["kind"])
    except ValueError:
        raise SchemaError(f"operator: unknown kind {obj['kind']!r}") from None
    return KindedOperator(matrix_from_json(obj["matrix"]), kind)


def rep_to_json(rep: CoupledRep) -> dict:
    out = {"twice_j1": rep.j1.twice_j}
    if not rep.is_diagonal:
        out["twice_j2"] = rep.j2.twice_j
    n_plus, n_minus = rep_signature(rep)
    out.update(
        {
            "epsilon": rep.epsilon,
            "basis": rep.basis,
            "dim": rep.dim,
            "metric": matrix_to_json(rep.metric.eta),
            "generators": {
                name: [matrix_to_json(m) for m in mats]
                for name, mats in (("M", rep.M), ("N", rep.N), ("I", rep.I), ("K", rep.K))
            },
            "signature": [n_plus, n_minus],
            "labels": [dict(lab) for lab in rep.labels],
        }
    )
    return out


def rep_from_json(obj) -> CoupledRep:
    _require(isinstance(obj, dict), "rep: expected an object")
    for key in ("twice_j1", "epsilon", "basis", "dim", "metric", "generators", "labels"):
        _require(key in obj, f"rep: missing key {key!r}")
    _require(isinstance(obj["twice_j1"], int), "rep: twice_j1 must be an integer")
    j1 = Weight(obj["twice_j1"])
    j2 = j1
    if "twice_j2" in obj:
        _require(isinstance(obj["twice_j2"], int), "rep: twice_j2 must be an integer")
        j2 = Weight(obj["twice_j2"])
        _require(j1 != j2, "rep: twice_j2 equal to twice_j1 must be omitted")
    _require(obj["epsilon"] in (-1, 1), "rep: epsilon must be +1 or -1")
    try:
        basis = Basis(obj["basis"])
    except ValueError:
        raise SchemaError(f"rep: unknown basis {obj['basis']!r}") from None
    dim = obj["dim"]
    _require(isinstance(dim, int) and dim >= 1, "rep: dim must be a positive integer")
    gens = obj["generators"]
    _require(isinstance(gens, dict), "rep: generators must be an object")
    mats = {}
    for name in ("M", "N", "I", "K"):
        _require(name in gens, f"rep: missing generator family {name!r}")
        family = gens[name]
        _require(isinstance(family, list) and len(family) == 3, f"rep: {name} needs 3 matrices")
        mats[name] = tuple(matrix_from_json(m) for m in family)
        for m in mats[name]:
            _require(m.shape == (dim, dim), f"rep: {name} matrix shape != dim")
    metric = matrix_from_json(obj["metric"])
    _require(metric.shape == (dim, dim), "rep: metric shape != dim")
    if "signature" in obj:
        sig = obj["signature"]
        _require(
            isinstance(sig, list) and len(sig) == 2 and all(isinstance(s, int) for s in sig),
            "rep: signature must be a pair of integers",
        )
    labels = obj["labels"]
    _require(isinstance(labels, list) and len(labels) == dim, "rep: need one label per dimension")
    _require(all(isinstance(lab, dict) for lab in labels), "rep: labels must be objects")
    rep = CoupledRep(
        j1=j1,
        j2=j2,
        M=mats["M"],
        N=mats["N"],
        metric=MetricOperator(metric),
        epsilon=int(obj["epsilon"]),
        basis=basis,
        labels=tuple(labels),
    )
    # I and K are not stored; the payload's copies must match M and N.
    for name, derived in (("I", rep.I), ("K", rep.K)):
        _require(
            all(max_abs(a - b) <= DEFAULT_TOLS.eq_tol for a, b in zip(mats[name], derived)),
            f"rep: {name} does not match the value derived from M and N",
        )
    if "signature" in obj:
        _require(tuple(sig) == rep_signature(rep), "rep: signature does not match the metric")
    return rep


def environment_to_json(env: Environment) -> dict:
    return {
        "dimension": env.dimension,
        "metric": matrix_to_json(env.metric.eta),
        "vectors": {name: vector_to_json(v) for name, v in env.vectors.items()},
        "operators": {name: operator_to_json(x) for name, x in env.operators.items()},
    }


def environment_from_json(obj) -> Environment:
    _require(isinstance(obj, dict), "environment: expected an object")
    for key in ("dimension", "metric"):
        _require(key in obj, f"environment: missing key {key!r}")
    dim = obj["dimension"]
    _require(isinstance(dim, int) and dim >= 1, "environment: dimension must be a positive integer")
    vectors = obj.get("vectors", {})
    operators = obj.get("operators", {})
    _require(isinstance(vectors, dict), "environment: vectors must be an object")
    _require(isinstance(operators, dict), "environment: operators must be an object")
    return Environment(
        dimension=dim,
        metric=MetricOperator(matrix_from_json(obj["metric"])),
        vectors={name: vector_from_json(v) for name, v in vectors.items()},
        operators={name: operator_from_json(x) for name, x in operators.items()},
    )


def dump_json(payload) -> str:
    return json.dumps(payload)


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
