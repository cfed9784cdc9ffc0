"""Command-line interface.

Every subcommand prints one JSON payload to stdout. Exit codes: 0 on
success, 1 on a domain error or an I/O failure, such as a reader closing
stdout early (reported to stderr), 2 on a usage error.

Each subcommand imports what it runs, so a command loads only its own
part of the library; `rep` writes its payload a matrix at a time. `rep`,
`cg`, `su2`, `eval` on an environment whose metric is monomial (one
non-zero in every row and column, as diag(+-1) is) and `check-symmetry`
on a monomial metric compute on entries (see entries) and load no numpy;
`signature`, `transform`, and `eval` and `check-symmetry` on any other
metric, load it. A JSON payload with a NaN or infinite part, which JSON
cannot spell, is refused as a domain error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from collections.abc import Iterator

from .errors import BraketError, DimensionMismatch, InvalidArgument

__all__ = ["main"]

# The values of sl2c.Basis and spaces.OperatorKind, in their order, spelt
# out so that building the parser loads neither module.
_BASES = ("canonical", "rotation", "orthonormal")
_KINDS = ("dd", "uu", "du", "ud")

# A negative number or fraction, such as -1, -0.5 or -1/2, which the cg
# parser reads as a value, not a flag; argparse's own pattern has no -p/q.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")


def _half_integer(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


def _load_json(path: str):
    from .serialize import load_json

    with open(path, "rb") as f:
        return load_json(f.read())


def _load_matrix(path: str):
    from .serialize import matrix_from_json

    return matrix_from_json(_load_json(path))


def _load_entries(path: str) -> tuple[tuple[int, int], tuple[list, list]]:
    from .serialize import _matrix_entries

    return _matrix_entries(_load_json(path))


# U+ . eta . U on entries beats importing numpy (about 150 ms) up to about
# 64^3 multiplications: 87 ms for a dense u at d = 64, 400 ms at d = 96
# (2-vCPU Xeon, CPython 3.11).
_ENTRIES_PRODUCT_LIMIT = 64**3


def _cmd_su2(args) -> tuple[str]:
    from .serialize import _matrix_text
    from .su2 import Weight, _generator_entries

    j = Weight(args.twice_j)
    matrices = ", ".join(_matrix_text(j.dim, j.dim, e) for e in _generator_entries(j))
    return (f'{{"twice_j": {args.twice_j}, "J": [{matrices}]}}',)


def _cmd_cg(args) -> dict:
    from .cg import clebsch_gordan

    value = clebsch_gordan(args.j1, args.l1, args.j2, args.l2, args.s, args.sigma)
    return {"sign": value.sign, "squared": str(value.squared)}


def _cmd_rep(args) -> Iterator[str]:
    from .serialize import _rep_chunks
    from .sl2c import build_rep, build_rep_diag
    from .su2 import Weight

    if args.twice_j2 is None or args.twice_j2 == args.twice_j1:
        # the orthonormal basis of a tensor square is rejected here
        rep = build_rep_diag(Weight(args.twice_j1), args.epsilon, args.basis)
    else:
        rep = build_rep(Weight(args.twice_j1), Weight(args.twice_j2), args.epsilon, args.basis)
    return _rep_chunks(rep)


def _cmd_signature(args) -> list:
    from .linalg import signature

    n_plus, n_minus = signature(_load_matrix(args.matrix))
    return [n_plus, n_minus]


def _cmd_check_symmetry(args) -> dict:
    from .entries import DEFAULT_TOLS
    from .operators import KindedOperator, OperatorKind, symmetry_deviation
    from .spaces import MetricOperator

    shape, u = _load_entries(args.matrix)
    metric_shape, eta = _load_entries(args.metric)
    if metric_shape[0] != metric_shape[1]:
        raise DimensionMismatch(f"metric must be square, got {metric_shape}")
    metric = MetricOperator._from_entries(metric_shape[0], eta)
    d = metric.dim
    if shape != (d, d):
        raise DimensionMismatch(f"expected {d}x{d}, got {shape}")
    # Against a monomial eta, which pairs row k with one row s(k), (U+ eta) U
    # takes sum_k n_k n_s(k) multiplications for the row counts n_k of U, at
    # most sum_k n_k^2.
    rows = Counter(k // d for k in u[0]).values()
    if metric._mono is not None and sum(n * n for n in rows) <= _ENTRIES_PRODUCT_LIMIT:
        u = KindedOperator._from_entries(d, u, OperatorKind.DOWN_DOWN)
    else:
        from .linalg import _dense

        u = _dense(d, u)
    deviation = symmetry_deviation(u, metric)
    return {"symmetry": deviation <= DEFAULT_TOLS.sym_tol, "max_deviation": deviation}


def _cmd_eval(args) -> dict:
    from .dsl import eval_source
    from .operators import KindedOperator
    from .serialize import environment_from_json, operator_to_json, vector_to_json
    from .spaces import VarVector

    env = environment_from_json(_load_json(args.env))
    result = eval_source(args.expr, env)
    if isinstance(result, VarVector):
        payload = vector_to_json(result)
        payload["type"] = "vector"
        return payload
    if isinstance(result, KindedOperator):
        payload = operator_to_json(result)
        payload["type"] = "operator"
        return payload
    return {"type": "scalar", "value": [result.real, result.imag]}


def _cmd_transform(args) -> dict:
    from .operators import KindedOperator, OperatorKind
    from .serialize import _matrix_json
    from .spaces import MetricOperator
    from .transforms import BasisChange, transform_metric, transform_operator

    mat = _load_matrix(args.matrix)
    metric = MetricOperator(_load_matrix(args.metric))
    change = BasisChange(_load_matrix(args.t))
    moved = transform_operator(change, KindedOperator(mat, OperatorKind(args.kind)))
    new_metric = transform_metric(change, metric)
    return {
        "kind": args.kind,
        "matrix": _matrix_json(moved.dim, moved._entries),
        "metric": _matrix_json(new_metric.dim, new_metric._entries),
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
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.set_defaults(func=_cmd_cg)

    p = sub.add_parser("rep", help="emit a coupled representation bundle")
    p.add_argument("--twice-j1", type=int, required=True)
    p.add_argument("--twice-j2", type=int, default=None,
                   help="second weight; omit (or repeat --twice-j1) for the tensor-square bundle")
    p.add_argument("--epsilon", type=int, choices=(-1, 1), default=None)
    p.add_argument("--basis", choices=_BASES, default="canonical")
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
    p.add_argument("--kind", choices=_KINDS, default="dd")
    p.set_defaults(func=_cmd_transform)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        out = args.func(args)
        if isinstance(out, (dict, list)):
            # serialize.dump_json's text and check, without loading serialize for `cg`
            try:
                out = [json.dumps(out, allow_nan=False)]
            except ValueError:
                raise InvalidArgument("result has a NaN or infinite part") from None
        # `rep` yields its text in pieces, after every check has run, so a
        # failing command writes nothing to stdout
        sys.stdout.writelines(out)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except (BraketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
