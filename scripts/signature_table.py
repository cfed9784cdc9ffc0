#!/usr/bin/env python3
"""Print the metric signatures of coupled representation bundles next to
their closed forms.

Two-weight bundles [j1, j2] always come out symmetric, (n, n) with
n = (2j1+1)(2j2+1); tensor squares [j] give ((j+1)(2j+1), j(2j+1)) for
integer weights and the swap for half-integers. Usage:

    python scripts/signature_table.py [--max-twice-j 4]

Exits with status 1 if any row disagrees with its closed form.
"""

import argparse
import sys

from braket import Weight, build_rep, build_rep_diag, rep_signature


def closed_form_pair(tj1: int, tj2: int) -> tuple[int, int]:
    n = (tj1 + 1) * (tj2 + 1)
    return n, n


def closed_form_diag(tj: int) -> tuple[int, int]:
    n = (tj + 2) * (tj + 1) // 2
    m = tj * (tj + 1) // 2
    return (n, m) if tj % 2 == 0 else (m, n)


def rows(max_twice_j: int):
    """(name, bundle, closed-form signature) for every bundle up to max_twice_j."""
    for tj in range(0, max_twice_j + 1):
        yield f"[{tj}/2]", build_rep_diag(Weight(tj)), closed_form_diag(tj)
    for tj1 in range(1, max_twice_j + 1):
        for tj2 in range(0, tj1):
            rep = build_rep(Weight(tj1), Weight(tj2))
            yield f"[{tj1}/2,{tj2}/2]", rep, closed_form_pair(tj1, tj2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-twice-j", type=int, default=4)
    args = parser.parse_args()

    print(f"{'bundle':>12} {'dim':>4} {'epsilon':>7} {'signature':>11} {'closed form':>12}")
    all_ok = True
    for name, rep, want in rows(args.max_twice_j):
        got = rep_signature(rep)
        all_ok &= got == want
        tag = "ok" if got == want else "MISMATCH"
        print(f"{name:>12} {rep.dim:>4} {rep.epsilon:>7} {str(got):>11} {str(want):>12} {tag}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
