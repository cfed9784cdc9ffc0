"""The in-process side of the benchmark: one warmed-up process calling braket.

    python perfbench/warm.py MODE --root DIR --seed N [--seconds S]
                             [--commands FILE] [--spans FILE]

Every mode imports braket and builds its inputs, runs one warm-up pass and
prints "ready"; the parent takes the time to that line as set-up. Then:

  setup   exits.
  run     runs untraced api passes for --seconds.
  sweep   runs, traced, the in-process sweep: each command of --commands
          through cli.main, then one api pass.
  trace   alternates untraced and traced api passes, TRACE_PAIRS of each,
          then runs the sweep; the spans are those of the last traced
          pass and the sweep.

The last line of stdout is a JSON summary. Traced modes write their spans
to --spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import inputs
from oracles import GOLDEN_TOL, closed_form_signature, golden_dev
from spans import Tracer

import braket
from braket import cg, cli, dsl, projections, serialize, sl2c, transforms

# Op ids of the api pass in a trace, clear of the sweep's command indices.
API_OP_BASE = 1000
TRACE_PAIRS = 5


def _payload(value) -> dict:
    """An evaluator result in the CLI's eval payload form, without serialize."""
    if isinstance(value, braket.VarVector):
        pairs = [[z.real, z.imag] for z in value.components]
        return {"type": "vector", "variance": value.variance.value, "components": pairs}
    if isinstance(value, braket.KindedOperator):
        return {"type": "operator", "kind": value.kind.value,
                "matrix": inputs.matrix_json(value.mat)}
    z = complex(value)
    return {"type": "scalar", "value": [z.real, z.imag]}


class ApiPass:
    """The seeded api-warm inputs and one pass over them."""

    def __init__(self, root: Path, seed: int):
        golden = inputs.load_golden(root)
        envs = {name: serialize.environment_from_json(p)
                for name, p in golden["environments"].items()}
        self.cases = [(envs[c["env"]], c["expr"], c["expect"]) for c in golden["cases"]]
        w = inputs.warm_inputs(seed)
        self.gauge = [
            (braket.MetricOperator(np.diag([1.0] * p + [-1.0] * q)),
             braket.GaugeParams.from_real_parameters(re_anti, im_sym))
            for p, q, re_anti, im_sym in w["gauge"]
        ]
        self.metric16 = braket.MetricOperator(np.diag(w["signs"]))
        self.n_plus16 = int(np.sum(w["signs"] > 0))
        self.vectors = w["vectors"]
        _, rot = sl2c.rotation_basis(sl2c.build_rep(braket.Weight(4), braket.Weight(3)))
        self.bundle = sl2c.orthonormal_basis(rot)
        self.identities = inputs.cg_identities()
        self.tracer: Tracer | None = None

    def _op(self, k: int):
        if self.tracer is not None:
            self.tracer.op = API_OP_BASE + k

    def run(self):
        """One pass: a list of (kind, seconds) and a list of failures."""
        ops, failures = [], []

        def record(kind, t0, error, **extra):
            ops.append((kind, time.perf_counter() - t0))
            if error:
                failures.append({"kind": kind, "error": error, **extra})

        k = 0
        for env, expr, expect in self.cases:
            self._op(k)
            t0 = time.perf_counter()
            value = dsl.evaluate(dsl.parse(expr), env)
            t1 = time.perf_counter()
            ops.append(("dsl", t1 - t0))
            dev = golden_dev(_payload(value), expect)
            if not dev < GOLDEN_TOL:
                failures.append({"kind": "dsl", "error": f"{expr!r} deviates by {dev:.3e}"})
            k += 1

        for metric, params in self.gauge:
            self._op(k)
            t0 = time.perf_counter()
            u = transforms.group_element(params, metric)
            ok = transforms.is_symmetry(u, metric, braket.DEFAULT_TOLS.sym_tol)
            record("gauge", t0, None if ok else f"group element at dim {metric.dim} "
                   "is not a symmetry")
            k += 1

        self._op(k)
        m, tol = self.metric16, braket.DEFAULT_TOLS.eq_tol
        t0 = time.perf_counter()
        plus, minus = projections.orthonormal_split(m)
        split_perp = projections.is_perp(plus, minus, m, tol)
        p = projections.subspace_projector(m, self.vectors)
        q = braket.Projector.from_matrix(np.eye(m.dim) - p.mat)
        sub_perp = projections.is_perp(p, q, m, tol)
        error = None
        if not (split_perp and sub_perp):
            error = "complementary projectors are not perp"
        elif abs(np.trace(plus.mat) - self.n_plus16) > 1e-9:
            error = "P_plus rank differs from the signature"
        elif abs(np.trace(p.mat) - inputs.PROJ_RANK) > 1e-9:
            error = "subspace projector has the wrong rank"
        record("projector", t0, error)
        k += 1

        for tj1, tj2, ts, tsp in self.identities:
            self._op(k)
            t0 = time.perf_counter()
            total = _cg_identity(tj1, tj2, ts, tsp)
            want = {1: Fraction(1)} if ts == tsp else {}
            record("cg_identity", t0, None if total == want else
                   f"identity (twice j1, j2, s, s') = ({tj1}, {tj2}, {ts}, {tsp}) "
                   f"sums to {len(total)} radical terms, want {want}",
                   twice_j1=tj1)
            k += 1

        self._op(k)
        rep = self.bundle
        t0 = time.perf_counter()
        payload = serialize.rep_to_json(rep)
        back = serialize.rep_from_json(serialize.load_json(serialize.dump_json(payload)))
        t1 = time.perf_counter()
        ops.append(("roundtrip", t1 - t0))
        same = all(
            np.array_equal(a, b)
            for fam in ("M", "N", "I", "K")
            for a, b in zip(getattr(rep, fam), getattr(back, fam))
        ) and np.array_equal(rep.metric.eta, back.metric.eta) and back.labels == rep.labels
        sig = tuple(payload["signature"])
        if not same:
            failures.append({"kind": "roundtrip", "error": "round trip is not the identity"})
        elif sig not in closed_form_signature(rep.j1.twice_j, rep.j2.twice_j):
            failures.append({"kind": "roundtrip", "error": f"signature {sig} is not the closed form"})
        return ops, failures


def _cg_identity(tj1: int, tj2: int, ts: int, tsp: int) -> dict:
    """sum over l1 + l2 = 0 of <j1 l1; j2 l2 | s 0><j1 l1; j2 l2 | s' 0>,
    exactly, as radical_sum reports it."""
    j1, j2, s, sp, zero = Fraction(tj1, 2), Fraction(tj2, 2), Fraction(ts, 2), Fraction(tsp, 2), Fraction(0)
    terms = []
    for tl1 in range(min(tj1, tj2), -min(tj1, tj2) - 2, -2):
        l1, l2 = Fraction(tl1, 2), Fraction(-tl1, 2)
        terms.append(cg.clebsch_gordan(j1, l1, j2, l2, s, zero)
                     * cg.clebsch_gordan(j1, l1, j2, l2, sp, zero))
    return cg.radical_sum(terms)


def sweep(commands: list[list[str]], api: ApiPass, tracer: Tracer):
    """Each command through cli.main in-process, then one api pass, traced."""
    outputs = []
    for k, argv in enumerate(commands):
        tracer.op = k
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.span("cli.main"):
                code = cli.main(argv)
        outputs.append((code, out.getvalue()))
    ops, failures = api.run()
    return outputs, ops, failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "sweep", "trace"))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--commands", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    api = ApiPass(args.root, args.seed)
    api.run()  # warm-up
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    summary = {"passes": [], "ops": [], "failures": []}

    def timed_pass():
        ops, failures = api.run()
        summary["passes"].append(sum(dt for _, dt in ops))
        summary["ops"].extend(ops)
        summary["failures"].extend(failures)

    if args.mode == "run":
        start = time.perf_counter()
        while True:
            timed_pass()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(summary["passes"]) > args.seconds:
                break
    else:
        commands = json.loads(args.commands.read_text())
        tracer = Tracer()
        if args.mode == "trace":
            # Alternate untraced and traced passes; keep the last traced one.
            for _ in range(TRACE_PAIRS):
                timed_pass()
                tracer.reset()
                tracer.install()
                api.tracer = tracer
                timed_pass()
                tracer.uninstall()
                api.tracer = None
        tracer.install()
        api.tracer = tracer
        outputs, ops, failures = sweep(commands, api, tracer)
        tracer.uninstall()
        tracer.dump(args.spans)
        summary["outputs"] = outputs
        summary["sweep_ops"] = len(ops)
        summary["sweep_failures"] = failures
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
