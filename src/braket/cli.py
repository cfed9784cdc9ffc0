"""Command-line interface.

Every subcommand prints one JSON payload to stdout. Exit codes: 0 on
success, 1 on a domain error (reported to stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .cg import clebsch_gordan
from .errors import BraketError
from .linalg import DEFAULT_TOLS, signature
from .serialize import (
    dump_json,
    dump_rep,
    environment_from_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    operator_to_json,
    vector_to_json,
)
from .sl2c import Basis, build_rep, build_rep_diag
from .spaces import MetricOperator, VarVector
from .su2 import Weight, su2_generators
from .dsl import eval_source
from .operators import KindedOperator, OperatorKind
from .transforms import BasisChange, symmetry_deviation, transform_metric, transform_operator

__all__ = ["main"]


def _half_integer(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


def _load_matrix(path: str):
    return matrix_from_json(load_json(Path(path).read_text()))


def _cmd_su2(args) -> dict:
    irrep = su2_generators(Weight(args.twice_j))
    return {"twice_j": args.twice_j, "J": [matrix_to_json(m) for m in irrep.J]}


def _cmd_cg(args) -> dict:
    value = clebsch_gordan(args.j1, args.l1, args.j2, args.l2, args.s, args.sigma)
    return {"sign": value.sign, "squared": str(value.squared)}


def _cmd_rep(args) -> str:
    if args.twice_j2 is None or args.twice_j2 == args.twice_j1:
        # the orthonormal basis of a tensor square is rejected here
        rep = build_rep_diag(Weight(args.twice_j1), args.epsilon, args.basis)
    else:
        rep = build_rep(Weight(args.twice_j1), Weight(args.twice_j2), args.epsilon, args.basis)
    return dump_rep(rep)


def _cmd_signature(args) -> list:
    n_plus, n_minus = signature(_load_matrix(args.matrix))
    return [n_plus, n_minus]


def _cmd_check_symmetry(args) -> dict:
    u = _load_matrix(args.matrix)
    metric = MetricOperator(_load_matrix(args.metric))
    deviation = symmetry_deviation(u, metric)
    return {"symmetry": deviation <= DEFAULT_TOLS.sym_tol, "max_deviation": deviation}


def _cmd_eval(args) -> dict:
    env = environment_from_json(load_json(Path(args.env).read_text()))
    result = eval_source(args.expr, env)
    if isinstance(result, VarVector):
        payload = vector_to_json(result)
        payload["type"] = "vector"
        return payload
    if isinstance(result, KindedOperator):
        payload = operator_to_json(result)
        payload["type"] = "operator"
        return payload
    z = complex(result)
    return {"type": "scalar", "value": [z.real, z.imag]}


def _cmd_transform(args) -> dict:
    mat = _load_matrix(args.matrix)
    metric = MetricOperator(_load_matrix(args.metric))
    change = BasisChange(_load_matrix(args.t))
    moved = transform_operator(change, KindedOperator(mat, OperatorKind(args.kind)))
    new_metric = transform_metric(change, metric)
    return {
        "kind": args.kind,
        "matrix": matrix_to_json(moved.mat),
        "metric": matrix_to_json(new_metric.eta),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braket",
        description="Bra-ket calculus over indefinite metrics: su(2) and "
        "coupled sl(2,C) representation bundles, signatures, symmetry "
        "checks and an expression evaluator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("su2", help="emit canonical su(2) generator matrices")
    p.add_argument("--twice-j", type=int, required=True)
    p.set_defaults(func=_cmd_su2)

    p = sub.add_parser("cg", help="exact Clebsch-Gordan coefficient")
    for flag in ("--j1", "--l1", "--j2", "--l2", "--s", "--sigma"):
        p.add_argument(flag, type=_half_integer, required=True)
    p.set_defaults(func=_cmd_cg)

    p = sub.add_parser("rep", help="emit a coupled representation bundle")
    p.add_argument("--twice-j1", type=int, required=True)
    p.add_argument("--twice-j2", type=int, default=None,
                   help="second weight; omit (or repeat --twice-j1) for the tensor-square bundle")
    p.add_argument("--epsilon", type=int, choices=(-1, 1), default=None)
    p.add_argument("--basis", choices=[b.value for b in Basis], default=Basis.CANONICAL.value)
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("signature", help="eigenvalue signature of an hermitian matrix")
    p.add_argument("--matrix", required=True, help="path to a matrix JSON file")
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("check-symmetry", help="semi-unitarity of U w.r.t. a metric")
    p.add_argument("--matrix", required=True)
    p.add_argument("--metric", required=True)
    p.set_defaults(func=_cmd_check_symmetry)

    p = sub.add_parser("eval", help="evaluate a bra-ket expression in an environment")
    p.add_argument("--env", required=True, help="path to an environment JSON file")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("transform", help="basis-transform an operator and its metric")
    p.add_argument("--matrix", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--t", required=True, help="path to the basis-change matrix")
    p.add_argument("--kind", choices=[k.value for k in OperatorKind], default="dd")
    p.set_defaults(func=_cmd_transform)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # Only the text outlives this block, so the payload is freed before
        # printing; for large bundles that lowers peak memory. `rep` returns
        # its text, written without building the payload.
        text = args.func(args)
        if not isinstance(text, str):
            text = dump_json(text)
    except (BraketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
