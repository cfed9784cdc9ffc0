"""Fresh-process runner: one child at a time, stdout read to the end, rusage from wait4."""

from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_TIMEOUT_S = 120.0


@dataclass
class ChildResult:
    wall_s: float
    returncode: int
    stdout: bytes
    maxrss_mb: float
    ready_s: float | None = None


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


def spawn(
    argv: list[str], root: Path, stderr_path: Path, ready_line: bool = False
) -> ChildResult:
    """Run argv in root, with braket importable from root/src, to completion,
    and time it from fork to reap.

    The whole of stdout is read before the clock stops, since printing the
    payload is part of the command. stderr goes to a file so that neither
    pipe can fill and stall the child. With ready_line, the time until the
    child's first line of stdout is kept as ready_s. A child that outlives
    CHILD_TIMEOUT_S is killed and reaped before the error propagates.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    proc = None
    try:
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            )
            ready = None
            if ready_line:
                head = proc.stdout.readline()
                ready = time.perf_counter() - t0
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        if ready_line:
            out = head + out
        return ChildResult(wall, proc.returncode, out, usage.ru_maxrss / 1024.0, ready)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if proc is not None and proc.returncode is None:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            proc.stdout.close()
