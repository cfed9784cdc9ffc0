#!/usr/bin/env python3
"""Print sha1 digests of outputs that a change should leave alone, one line
each: `sha1  bytes  what`.

- `braket rep` stdout for the five rungs of the benchmark's rep ladder
  (perfbench/inputs.py LADDER), the (5/2, 1) pair in the canonical basis
  with epsilon +1 and -1, the canonical tensor square of 3/2 with epsilon
  -1, the rotation tensor square of 2 and the rotation (5/2, 1) pair with
  epsilon -1;
- `braket cg` stdout for six label sets: two spin-1/2 couplings,
  (3 1; 2 -2 | 3 -1), (121/2 7/2; 30 -3 | 145/2 1/2), (400 0; 400 0 |
  400 0) and the selection-rule zero (1 1; 1 1 | 1 0);
- `braket su2` stdout for twice-j 1, 4 and 12;
- `braket eval` stdout for the 20 golden cases of
  tests/data/eval_golden.json and for four scalar expressions on its
  `flat` environment whose parts could be signed zeros, each environment
  written to a temporary file (the line names the environment, not the
  file);
- the bytes of the basis change C that `rotation_basis` returns for the
  canonical (2, 3/2), (6, 11/2) and (12, 23/2) bundles, dims 40, 312 and
  1200;
- `braket signature`, `check-symmetry` and `transform` stdout on the
  matrices of perfbench/inputs.py `cli_matrices(1)`, and `transform` of
  x = eta = diag(1, -1) by the swap t = [[0, 1], [1, 0]], whose products
  hold signed zeros (the line names the matrices, not their files);
- after those, `braket cg` for each of the label sets above that holds a
  negative fraction, given as its own argument (`--l2 -1/2`), whose
  digest equals that of the `=` form;
- per ladder rung, its `rep` text read back and written again in this
  process, `dump_rep(rep_from_json(load_json(text)))` plus the newline
  the command ends with, whose digest equals the rung's `rep` line;
- and `transform --kind uu`, `du` and `ud` on the matrices of
  `cli_matrices(1)`, so that the basis-change law is pinned for every
  operator kind, not only for the default dd.

Each command runs through `braket.cli.main` in this process, and its text
is hashed as it is written. Run it against two checkouts and compare the
lines to see which outputs a change moved:

    PYTHONPATH=src python scripts/rep_digests.py

Exits with status 1 if any command fails.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
import numpy as np  # noqa: E402
from perfbench.inputs import GOLDEN, LADDER, cli_matrices, matrix_json  # noqa: E402

from braket import Weight, build_rep, cli, rotation_basis  # noqa: E402
from braket.serialize import dump_rep, load_json, rep_from_json  # noqa: E402

REP_COMMANDS = [flags for _, flags, _ in LADDER] + [
    ["--twice-j1", "5", "--twice-j2", "2", "--epsilon", "1"],
    ["--twice-j1", "5", "--twice-j2", "2", "--epsilon", "-1"],
    ["--twice-j1", "3", "--epsilon", "-1"],
    ["--twice-j1", "4", "--twice-j2", "4", "--basis", "rotation"],
    ["--twice-j1", "5", "--twice-j2", "2", "--basis", "rotation", "--epsilon", "-1"],
]

# the values of CG_FLAGS: (j1, l1, j2, l2, s, sigma)
CG_FLAGS = ("--j1", "--l1", "--j2", "--l2", "--s", "--sigma")
CG_LABELS = [
    ("1/2", "1/2", "1/2", "-1/2", "1", "0"),
    ("1/2", "-1/2", "1/2", "1/2", "0", "0"),
    ("3", "1", "2", "-2", "3", "-1"),
    ("121/2", "7/2", "30", "-3", "145/2", "1/2"),
    ("400", "0", "400", "0", "400", "0"),
    ("1", "1", "1", "1", "1", "0"),
]

# twice-j1, twice-j2 of the canonical bundles whose rotation_basis C is hashed
ROTATION_SHAPES = [(4, 3), (12, 11), (24, 23)]

# scalar expressions on the golden `flat` environment whose results a
# product, a sum or a conjugate of complex numbers could spell with -0.0
SCALAR_EXPRS = ["adj((1+0i))", "bar(bd:x kd:x)", "(0-0i)", "bd:e1 kd:e2 * (-1+0i)"]

# commands on matrix files, each argument after a flag naming a matrix of
# cli_matrices(1) or diag and swap below
MATRIX_COMMANDS = [
    ["signature", "--matrix", "h"],
    ["check-symmetry", "--matrix", "u", "--metric", "eta"],
    ["transform", "--matrix", "a", "--metric", "eta", "--t", "t"],
    ["transform", "--matrix", "diag", "--metric", "diag", "--t", "swap"],
]

# transform of every other operator kind, printed last
KIND_COMMANDS = [
    ["transform", "--matrix", "a", "--metric", "eta", "--t", "t", "--kind", kind]
    for kind in ("uu", "du", "ud")
]


class _Digest:
    """A text sink that keeps only the sha1 and the size of what it gets."""

    def __init__(self):
        self.sha1, self.size = hashlib.sha1(), 0

    def write(self, text: str) -> None:
        data = text.encode()
        self.sha1.update(data)
        self.size += len(data)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def flush(self) -> None:
        pass


def _cli_digest(argv: list[str], what: str | None = None) -> bool:
    """Print the digest line of one command, named by what (its argv by
    default); True if it succeeded."""
    sink = _Digest()
    with redirect_stdout(sink):
        code = cli.main(argv)
    print(f"{sink.sha1.hexdigest()}  {sink.size}  {what or ' '.join(argv)}")
    return code == 0


def _eval_digests() -> bool:
    """The digest lines of the golden eval cases and of SCALAR_EXPRS; True
    if all succeeded."""
    golden = json.loads((ROOT / GOLDEN).read_text())
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, env in golden["environments"].items():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(env))
        for case in golden["cases"] + [{"env": "flat", "expr": e} for e in SCALAR_EXPRS]:
            path = Path(tmp) / f"{case['env']}.json"
            what = f"eval --env {case['env']} {case['expr']!r}"
            ok &= _cli_digest(["eval", "--env", str(path), case["expr"]], what)
    return ok


def _matrix_digests(commands: list[list[str]]) -> bool:
    """The digest lines of these commands on matrix files; True if all
    succeeded."""
    mats = cli_matrices(1)
    mats.update(diag=np.diag([1.0, -1.0]), swap=np.array([[0.0, 1.0], [1.0, 0.0]]))
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, m in mats.items():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(matrix_json(m)))
        for argv in commands:
            paths = [str(Path(tmp) / f"{a}.json") if a in mats else a for a in argv]
            ok &= _cli_digest(paths, " ".join(argv))
    return ok


def _round_trip_digests() -> bool:
    """The digest line of each ladder rung's `rep` text after a round trip
    through rep_from_json in this process; True if all succeeded."""
    ok = True
    for _, flags, _ in LADDER:
        out = io.StringIO()
        with redirect_stdout(out):
            ok &= cli.main(["rep", *flags]) == 0
        data = (dump_rep(rep_from_json(load_json(out.getvalue()))) + "\n").encode()
        print(f"{hashlib.sha1(data).hexdigest()}  {len(data)}  rep round trip {' '.join(flags)}")
    return ok


def main() -> int:
    ok = True
    for flags in REP_COMMANDS:
        ok &= _cli_digest(["rep", *flags])
    for labels in CG_LABELS:
        ok &= _cli_digest(["cg", *(f"{flag}={value}" for flag, value in zip(CG_FLAGS, labels))])
    for twice_j in ("1", "4", "12"):
        ok &= _cli_digest(["su2", "--twice-j", twice_j])
    ok &= _eval_digests()
    for tj1, tj2 in ROTATION_SHAPES:
        c, _ = rotation_basis(build_rep(Weight(tj1), Weight(tj2)))
        data = c.tobytes()
        print(f"{hashlib.sha1(data).hexdigest()}  {len(data)}  rotation_basis C dim {c.shape[0]}")
    ok &= _matrix_digests(MATRIX_COMMANDS)
    for labels in CG_LABELS:
        if any(x.startswith("-") and "/" in x for x in labels):
            ok &= _cli_digest(["cg", *(x for pair in zip(CG_FLAGS, labels) for x in pair)])
    ok &= _round_trip_digests()
    ok &= _matrix_digests(KIND_COMMANDS)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
