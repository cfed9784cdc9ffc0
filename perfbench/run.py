"""The braket benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a braket checkout; the library is imported from
./src. One client, closed loop: every operation starts after the previous
one ended, and nothing runs in parallel. Workloads:

  rep-ladder  fresh `python -m braket.cli rep` processes over a ladder of
              weights, dim 4 to 312, and a dim-169 tensor square.
  cli-small   fresh processes for the 20 golden `eval` cases and one each
              of su2, cg, signature, check-symmetry and transform, in a
              seeded order, on seeded inputs written at set-up.
  api-warm    one warmed-up process calling the library: DSL, gauge
              group, projectors, exact CG identities, JSON round trip.

With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 it reports per-layer metrics from spans around the public
functions of each braket module (see spans.py). Lines before it give the
per-workload figures by name.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import inputs
import oracles
from child import spawn
from spans import LAYERS, Profile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rep-ladder", "cli-small", "api-warm")
SETUPS = 3
IMPORT_PROBES = 3
# ROADMAP item 3: radical_sum leaves exact zeros non-zero once factorial
# arguments pass 101, which the CG identities reach from twice-j1 = 80 on.
# These failures are counted in `failed`; only other failures make a run
# incorrect.
KNOWN_RADICAL_DEFECT_TWICE_J = 80


@dataclass
class Op:
    kind: str
    args: list[str]
    check: Callable[[bytes], str | None]  # a reason when the output is wrong


class Tally:
    """Samples, failures and memory across one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.passes: list[float] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.peak_rss_mb = 0.0
        self.verified: dict[tuple, bytes] = {}

    def check(self, op: Op, returncode: int, out: bytes):
        self.attempted += 1
        # The commands are deterministic, so a byte-identical repeat of an
        # output that passed its check passes too; only the first pass pays
        # for parsing the 17 MB top rung.
        if returncode == 0 and self.verified.get(tuple(op.args)) == out:
            return
        if returncode != 0:
            reason = f"exit status {returncode}"
        else:
            try:
                reason = op.check(out)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                reason = f"malformed output: {exc!r}"
        if reason:
            self.failures.append({"kind": op.kind, "args": op.args, "error": reason})
        else:
            self.verified[tuple(op.args)] = out

    def unexpected(self) -> list[dict]:
        return [f for f in self.failures
                if not (f["kind"] == "cg_identity"
                        and f.get("twice_j1", 0) >= KNOWN_RADICAL_DEFECT_TWICE_J)]


class Bench:
    def __init__(self, seed: int, seconds: float, work: Path):
        self.seed, self.seconds, self.work = seed, seconds, work

    def spawn(self, argv, **kw):
        return spawn(argv, ROOT, self.work / "stderr.txt", **kw)

    # -- inputs ------------------------------------------------------------

    def ladder_ops(self) -> list[Op]:
        return [
            Op(label, ["rep", *flags],
               partial(oracles.check_rep, dim=dim, commutator=label == "rep_top"))
            for label, flags, dim in inputs.LADDER
        ]

    def cli_ops(self) -> list[Op]:
        """Write the cli-small input files; return the commands in seeded order."""
        golden = inputs.load_golden(ROOT)
        files = {}
        for name, env in golden["environments"].items():
            files[name] = self.work / f"env_{name}.json"
            files[name].write_text(json.dumps(env))
        mats = inputs.cli_matrices(self.seed)
        for name, m in mats.items():
            files[name] = self.work / f"{name}.json"
            files[name].write_text(json.dumps(inputs.matrix_json(m)))
        f = {k: str(v) for k, v in files.items()}
        ops = [
            Op("eval", ["eval", "--env", f[case["env"]], case["expr"]],
               partial(oracles.check_eval, expect=case["expect"]))
            for case in golden["cases"]
        ]
        cg_args, squared = inputs.cg_command(self.seed)
        ops += [
            Op("command", ["su2", "--twice-j", "1"], partial(oracles.check_su2, twice_j=1)),
            Op("command", cg_args, partial(oracles.check_cg, squared=squared)),
            Op("command", ["signature", "--matrix", f["h"]],
               partial(oracles.check_signature, h=mats["h"])),
            Op("command", ["check-symmetry", "--matrix", f["u"], "--metric", f["eta"]],
               partial(oracles.check_symmetry, u=mats["u"], eta=mats["eta"])),
            Op("command", ["transform", "--matrix", f["a"], "--metric", f["eta"], "--t", f["t"]],
               partial(oracles.check_transform, a=mats["a"], eta=mats["eta"], t=mats["t"])),
        ]
        order = np.random.default_rng([self.seed, 4]).permutation(len(ops))
        return [ops[k] for k in order]

    def small_rep_ops(self) -> list[Op]:
        """The two small rep shapes the in-process sweep adds to cli-small."""
        return [
            Op("rep_small", ["rep", "--twice-j1", "1", "--twice-j2", "0", "--basis", "orthonormal"],
               partial(oracles.check_rep, dim=4, commutator=True)),
            Op("rep_square", ["rep", "--twice-j1", "2", "--basis", "rotation"],
               partial(oracles.check_rep, dim=9, commutator=True)),
        ]

    # -- fresh processes -----------------------------------------------------

    def setup_fresh(self, make_ops) -> tuple[list[Op], float]:
        """Build the inputs and start one warm-up interpreter; median of SETUPS."""
        times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            ops = make_ops()
            r = self.spawn([sys.executable, "-c", "import braket"])
            times.append(time.perf_counter() - t0)
            if r.returncode != 0:
                raise RuntimeError("cannot import braket from ./src")
        return ops, statistics.median(times)

    def fresh_op(self, op: Op, tally: Tally, spans_file: Path | None = None) -> float:
        """Run one operation in a fresh process, traced if spans_file is given."""
        if spans_file is None:
            argv = [sys.executable, "-m", "braket.cli", *op.args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), *op.args]
        r = self.spawn(argv)
        tally.samples[op.kind].append(r.wall_s)
        tally.peak_rss_mb = max(tally.peak_rss_mb, r.maxrss_mb)
        tally.check(op, r.returncode, r.stdout)
        return r.wall_s

    def fresh_run(self, ops: list[Op], tally: Tally):
        start = time.perf_counter()
        while True:
            tally.passes.append(sum(self.fresh_op(op, tally) for op in ops))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(tally.passes) > self.seconds:
                return

    # -- the warm worker -----------------------------------------------------

    def worker(self, mode: str, **opts):
        argv = [sys.executable, str(HERE / "warm.py"), mode, "--root", str(ROOT),
                "--seed", str(self.seed), "--seconds", str(self.seconds)]
        for key, value in opts.items():
            argv += [f"--{key}", str(value)]
        r = self.spawn(argv, ready_line=True)
        if r.returncode != 0:
            err = (self.work / "stderr.txt").read_text()[-2000:]
            raise RuntimeError(f"warm worker {mode} failed:\n{err}")
        lines = r.stdout.splitlines()
        return r, json.loads(lines[-1]) if mode != "setup" else None

    def absorb_worker(self, r, summary: dict, tally: Tally):
        for kind, dt in summary["ops"]:
            tally.samples[kind].append(dt)
        tally.attempted += len(summary["ops"]) + summary.get("sweep_ops", 0)
        tally.failures += summary["failures"] + summary.get("sweep_failures", [])
        tally.peak_rss_mb = max(tally.peak_rss_mb, r.maxrss_mb)

    # -- end to end ----------------------------------------------------------

    def end_to_end(self, workload: str):
        tally = Tally()
        if workload == "api-warm":
            ready = [self.worker("setup")[0].ready_s for _ in range(SETUPS - 1)]
            r, summary = self.worker("run")
            ready.append(r.ready_s)
            setup_s = statistics.median(ready)
            self.absorb_worker(r, summary, tally)
            tally.passes = summary["passes"]
        else:
            make = self.ladder_ops if workload == "rep-ladder" else self.cli_ops
            ops, setup_s = self.setup_fresh(make)
            self.fresh_run(ops, tally)
        medians = {k: statistics.median(v) for k, v in tally.samples.items()}
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(tally.passes), "s"),
            "peak_rss_mb": (tally.peak_rss_mb, "MB"),
            # Each kind of operation weighs the same, however often it runs.
            "op_gmean_ms": (1e3 * statistics.geometric_mean(medians.values()), "ms"),
            "op_ceiling_ms": (1e3 * max(medians.values()), "ms"),
        }
        print_detail(workload, tally, medians)
        return tally, metrics

    # -- traced --------------------------------------------------------------

    def import_layer(self) -> dict:
        walls = [self.spawn([sys.executable, "-c", "import braket"]).wall_s
                 for _ in range(IMPORT_PROBES)]
        self.spawn([sys.executable, "-X", "importtime", "-c", "import braket"])
        scipy_us = 0
        for line in (self.work / "stderr.txt").read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.linalg":
                scipy_us = int(parts[1])
        return {"import.braket_s": (statistics.median(walls), "s"),
                "import.scipy_linalg_s": (scipy_us / 1e6, "s")}

    def traced(self, workload: str):
        tally, profile = Tally(), Profile()
        metrics = self.import_layer()
        cli = self.cli_ops()
        sweep = cli + self.small_rep_ops()
        commands = self.work / "commands.json"
        commands.write_text(json.dumps([op.args for op in sweep]))
        spans_file = self.work / "spans.npz"
        if workload == "api-warm":
            r, summary = self.worker("trace", commands=commands, spans=spans_file)
            untraced = statistics.median(summary["passes"][0::2])
            traced = statistics.median(summary["passes"][1::2])
        else:
            # Each operation runs untraced, then traced, so that both sides
            # of the overhead ratio see the same machine.
            ops = self.ladder_ops() if workload == "rep-ladder" else cli
            untraced = traced = 0.0
            for k, op in enumerate(ops):
                untraced += self.fresh_op(op, tally)
                traced += self.fresh_op(op, tally, self.work / f"spans{k}.npz")
                profile.add_file(self.work / f"spans{k}.npz")
            r, summary = self.worker("sweep", commands=commands, spans=spans_file)
        self.absorb_worker(r, summary, tally)
        for op, (code, out) in zip(sweep, summary["outputs"]):
            tally.check(op, code, out.encode())
        profile.add_file(spans_file)

        ident_failed = sum(f["kind"] == "cg_identity" for f in summary["sweep_failures"])
        inproc = [dur for op, dur, _ in profile.cli_main if 0 <= op < len(cli)]
        longest = max(profile.cli_main, key=lambda e: e[1])
        for name in ("cg.clebsch_gordan", "linalg.inverse", "dsl.parse"):
            metrics[f"{name}.calls"] = (profile.calls[name], "count")
        for name in ("cg.clebsch_gordan", "cg.radical_sum", "sl2c.build_rep",
                     "sl2c.build_rep_diag", "sl2c.orthonormal_basis", "linalg.inverse",
                     "linalg.signature", "linalg.expm", "serialize.rep_to_json",
                     "serialize.dump_json", "serialize.load_json", "serialize.rep_from_json",
                     "serialize.environment_from_json", "dsl.parse", "dsl.evaluate",
                     "transforms.group_element", "transforms.is_symmetry",
                     "projections.orthonormal_split", "projections.subspace_projector"):
            metrics[f"{name}.busy_s"] = (profile.busy[name], "s")
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (profile.layer_self[layer], "s")
        metrics.update({
            "sl2c.rotation_basis.self_s": (profile.self_time["sl2c.rotation_basis"], "s"),
            "cg.radical_sum.failed": (ident_failed, "count"),
            "serialize.bytes_out": (profile.bytes_out, "B"),
            "cli.main_inproc_ms": (1e3 * statistics.median(inproc), "ms"),
            "trace.overhead_frac": (traced / untraced - 1, "ratio"),
            "trace.layers_cover_frac": (longest[2] / longest[1], "ratio"),
        })
        print(f"# traced pass {traced:.4f} s, untraced pass {untraced:.4f} s; "
              f"longest cli.main {longest[1]:.4f} s, of which library self time "
              f"{longest[2]:.4f} s")
        return tally, metrics


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    (whole percent, value); None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100 * (k + 1) // n, sorted(values)[k]


def print_detail(workload: str, tally: Tally, medians: dict):
    """The per-workload figures by name, one per line, before the result."""
    lines = []
    if workload == "rep-ladder":
        for kind in ("rep_small", "rep_top", "rep_square"):
            lines.append((f"{kind}_s", medians[kind], "s"))
    elif workload == "cli-small":
        every = [dt for v in tally.samples.values() for dt in v]
        lines.append(("cmd_p50_ms", 1e3 * statistics.median(every), f"ms (n={len(every)})"))
        if tail(every):
            pct, value = tail(every)
            lines.append((f"cmd_p{pct}_ms", 1e3 * value, f"ms (n={len(every)})"))
    else:
        lines.append(("dsl_eval_us", 1e6 * medians["dsl"], "us"))
        lines.append(("cg_exact_ms", 1e3 * medians["cg_identity"], "ms"))
        per_pass = len(tally.samples["gauge"]) // len(tally.passes)
        gauge = tally.samples["gauge"]
        geometry = [sum(gauge[k * per_pass:(k + 1) * per_pass]) + proj
                    for k, proj in enumerate(tally.samples["projector"])]
        lines.append(("geometry_ms", 1e3 * statistics.median(geometry), "ms"))
        lines.append(("roundtrip_ms", 1e3 * medians["roundtrip"], "ms"))
    lines.append(("failed_frac", len(tally.failures) / tally.attempted, "ratio"))
    lines.append(("passes", len(tally.passes), "count"))
    for name, value, unit in lines:
        print(f"# {workload} {name} {value:.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so that the child being waited on is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (ROOT / "src" / "braket" / "cli.py", ROOT / inputs.GOLDEN)
               if not p.is_file()]
    if missing:
        print(f"error: not a braket checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        bench = Bench(args.seed, args.seconds, work)
        if args.trace:
            tally, metrics = bench.traced(args.workload)
        else:
            tally, metrics = bench.end_to_end(args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for text, count in Counter(json.dumps(f) for f in tally.failures).items():
        print(f"# failed x{count}: {text}")
    result = {
        "correct": not tally.unexpected(),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
