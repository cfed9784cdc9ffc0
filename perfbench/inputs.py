"""Inputs of the three workloads, generated from the workload seed.

Only numpy is used here. The harness builds every input in this module and
hands the program nothing but the resulting files, command lines and
arrays, so the program never sees the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GOLDEN = Path("tests") / "data" / "eval_golden.json"

# (label, rep flags, expected dim): the fresh-process ladder, in run order.
LADDER = [
    ("rep_small", ["--twice-j1", "1", "--twice-j2", "0", "--basis", "orthonormal"], 4),
    ("rep_40", ["--twice-j1", "4", "--twice-j2", "3", "--basis", "orthonormal"], 40),
    ("rep_144", ["--twice-j1", "8", "--twice-j2", "7", "--basis", "orthonormal"], 144),
    ("rep_top", ["--twice-j1", "12", "--twice-j2", "11", "--basis", "orthonormal"], 312),
    ("rep_square", ["--twice-j1", "12", "--basis", "rotation"], 169),
]

# Exact CG orthogonality identities: for twice-j1 T and twice-j2 T/2, four
# normalisations (s = s') and four orthogonalities (s != s') at sigma = 0.
# Fixed rather than seeded, so the failures of the known radical defect at
# twice-j >= 80 repeat exactly from run to run.
CG_TWICE_J = (20, 40, 60, 80, 100, 120)


def cg_identities() -> list[tuple[int, int, int, int]]:
    """(twice_j1, twice_j2, twice_s, twice_s') for every identity."""
    out = []
    for tj1 in CG_TWICE_J:
        tj2 = tj1 // 2
        spins = list(range(tj1 + tj2, tj1 - tj2 - 2, -2))
        n = len(spins)
        for ts in (spins[0], spins[n // 3], spins[2 * n // 3], spins[-1]):
            out.append((tj1, tj2, ts, ts))
        for ts, tsp in ((spins[0], spins[1]), (spins[1], spins[-1]),
                        (spins[n // 2], spins[-1]), (spins[-2], spins[-1])):
            out.append((tj1, tj2, ts, tsp))
    return out


def load_golden(root: Path) -> dict:
    return json.loads((root / GOLDEN).read_text())


def matrix_json(m) -> dict:
    """A matrix in the program's JSON schema (row-major [re, im] pairs)."""
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def matrix_from_json(obj) -> np.ndarray:
    pairs = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(obj["rows"], obj["cols"])


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _complex(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


CLI_DIM = 6


def cli_matrices(seed: int) -> dict:
    """Seeded matrices for the signature, check-symmetry and transform commands.

    h is hermitian with eigenvalue magnitudes in [0.5, 2]; u is a Cayley
    transform of an eta-antihermitian matrix, hence a symmetry of eta; t is
    diagonally dominated, hence well conditioned.
    """
    rng = _rng(seed, 1)
    n = CLI_DIM
    n_plus = int(rng.integers(1, n))
    signs = np.array([1.0] * n_plus + [-1.0] * (n - n_plus))
    q, _ = np.linalg.qr(_complex(rng, n, n))
    h = q @ np.diag(signs * rng.uniform(0.5, 2.0, n)) @ q.conj().T
    eta = np.diag(rng.permutation(signs)).astype(complex)
    s = 0.05 * _complex(rng, n, n)
    x = eta @ (s - s.conj().T)
    eye = np.eye(n)
    u = np.linalg.solve(eye - x, eye + x)
    return {
        "h": (h + h.conj().T) / 2,
        "eta": eta,
        "u": u,
        "a": _complex(rng, n, n),
        "t": _complex(rng, n, n) + 3 * n * eye,
    }


def cg_command(seed: int) -> tuple[list[str], tuple[int, int]]:
    """A `cg` command with a closed-form value, and (numerator, denominator)
    of its exact square; the sign is +1 in the Condon-Shortley convention.

    <j1, m + 1/2; 1/2, -1/2 | j1 + 1/2, m>^2 = (j1 - m + 1/2) / (2 j1 + 1).
    Negative labels are written as decimals: argparse reads "-1/2" as a flag.
    """
    rng = _rng(seed, 2)
    tj1 = int(rng.integers(1, 10))
    tsig = int(rng.choice(np.arange(-tj1 - 1, tj1, 2)))
    half = lambda t: str(t / 2)
    argv = ["cg", "--j1", half(tj1), "--l1", half(tsig + 1), "--j2", "0.5",
            "--l2", "-0.5", "--s", half(tj1 + 1), "--sigma", half(tsig)]
    return argv, (tj1 - tsig + 1, 2 * (tj1 + 1))


GAUGE_SIGNATURES = ((2, 2), (8, 8))
PROJ_DIM = 16
PROJ_RANK = 4


def warm_inputs(seed: int) -> dict:
    """Seeded gauge parameters, projector metric and subspace vectors."""
    rng = _rng(seed, 3)
    gauge = []
    for p, q in GAUGE_SIGNATURES:
        n = p + q
        gauge.append((p, q, 0.3 * rng.normal(size=(n, n)), 0.3 * rng.normal(size=(n, n))))
    n_plus = int(rng.integers(PROJ_RANK + 2, PROJ_DIM - 2))
    signs = rng.permutation([1.0] * n_plus + [-1.0] * (PROJ_DIM - n_plus))
    # Columns near the positive subspace keep V+ eta V well conditioned.
    basis = np.eye(PROJ_DIM)[:, signs > 0][:, :PROJ_RANK]
    vectors = basis + 0.05 * _complex(rng, PROJ_DIM, PROJ_RANK)
    return {"gauge": gauge, "signs": signs, "vectors": vectors}
