"""Output checks, run outside the timed window.

Each check returns None when the output is right and a one-line reason
when it is not. Expected values come from closed forms or from numpy, never
from the program under test.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from inputs import matrix_from_json

GOLDEN_TOL = 1e-12
COMMUTATOR_TOL = 1e-10
NUMPY_TOL = 1e-9


def _json(out: bytes):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"unparseable output: {exc}"


def closed_form_signature(twice_j1: int, twice_j2: int | None) -> set[tuple[int, int]]:
    """(n, n) for a two-weight bundle [j1, j2] of dim 2n; for the tensor
    square [j], ((j+1)(2j+1), j(2j+1)) in either order."""
    if twice_j2 is None:
        d = twice_j1 + 1
        big, small = d * (d + 1) // 2, d * (d - 1) // 2
        return {(big, small), (small, big)}
    n = (twice_j1 + 1) * (twice_j2 + 1)
    return {(n, n)}


def check_rep(out: bytes, dim: int, commutator: bool) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    if payload.get("dim") != dim:
        return f"dim {payload.get('dim')} != {dim}"
    sig = tuple(payload["signature"])
    if sig not in closed_form_signature(payload["twice_j1"], payload.get("twice_j2")):
        return f"signature {sig} is not the closed form"
    eta = matrix_from_json(payload["metric"])
    diag = eta.diagonal()
    off = float(np.max(np.abs(eta - np.diag(diag))))
    if off > GOLDEN_TOL or float(np.max(np.abs(np.abs(diag) - 1))) > GOLDEN_TOL:
        return "metric is not diag(+-1)"
    if int(np.sum(diag.real > 0)) != sig[0]:
        return "signature disagrees with the metric's diagonal"
    if commutator:
        i1, i2, i3 = (matrix_from_json(m) for m in payload["generators"]["I"])
        residual = float(np.max(np.abs(i1 @ i2 - i2 @ i1 - 1j * i3)))
        if residual > COMMUTATOR_TOL:
            return f"[I1, I2] - i I3 residual {residual:.3e}"
    return None


def _numbers(payload) -> np.ndarray:
    if payload["type"] == "scalar":
        return np.asarray([complex(*payload["value"])])
    if payload["type"] == "vector":
        return np.asarray([complex(*p) for p in payload["components"]])
    return matrix_from_json(payload["matrix"]).reshape(-1)


def golden_dev(got: dict, want: dict) -> float:
    """Largest entry deviation between two eval payloads; inf on a shape,
    type, kind or variance mismatch."""
    for key in ("type", "kind", "variance"):
        if got.get(key) != want.get(key):
            return float("inf")
    a, b = _numbers(got), _numbers(want)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b)))


def check_eval(out: bytes, expect: dict) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    dev = golden_dev(payload, expect)
    return None if dev < GOLDEN_TOL else f"eval deviates from golden by {dev:.3e}"


def check_su2(out: bytes, twice_j: int) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    j1, j2, j3 = (matrix_from_json(m) for m in payload["J"])
    want3 = np.diag(np.arange(twice_j, -twice_j - 1, -2) / 2.0)
    if np.max(np.abs(j3 - want3)) > NUMPY_TOL:
        return "J3 is not diag(j, ..., -j)"
    if np.max(np.abs(j1 @ j2 - j2 @ j1 - 1j * j3)) > NUMPY_TOL:
        return "[J1, J2] != i J3"
    return None


def check_cg(out: bytes, squared: tuple[int, int]) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    if payload != {"sign": 1, "squared": str(Fraction(*squared))}:
        return f"cg {payload} != +sqrt({Fraction(*squared)})"
    return None


def check_signature(out: bytes, h: np.ndarray) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    eigs = np.linalg.eigvalsh(h)
    want = [int(np.sum(eigs > 0)), int(np.sum(eigs < 0))]
    return None if payload == want else f"signature {payload} != {want}"


def check_symmetry(out: bytes, u: np.ndarray, eta: np.ndarray) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    dev = float(np.max(np.abs(u.conj().T @ eta @ u - eta)))
    if payload.get("symmetry") is not True:
        return f"symmetry reported {payload.get('symmetry')}, numpy deviation {dev:.3e}"
    if abs(payload["max_deviation"] - dev) > GOLDEN_TOL:
        return f"max_deviation {payload['max_deviation']:.3e} != numpy {dev:.3e}"
    return None


def check_transform(out: bytes, a: np.ndarray, eta: np.ndarray, t: np.ndarray) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    moved = np.linalg.solve(t, a @ t)
    metric = t.conj().T @ eta @ t
    for name, want in (("matrix", moved), ("metric", metric)):
        got = matrix_from_json(payload[name])
        dev = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        if dev > NUMPY_TOL:
            return f"transform {name} deviates from numpy by {dev:.3e}"
    return None
