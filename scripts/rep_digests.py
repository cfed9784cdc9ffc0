#!/usr/bin/env python3
"""Print the sha1 and the size of `braket rep`'s stdout for a fixed set of
commands, one line each: `sha1  bytes  argv`.

The commands are the five rungs of the benchmark's rep ladder
(perfbench/inputs.py LADDER), the (5/2, 1) pair in the canonical basis
with epsilon +1 and -1, the canonical tensor square of 3/2 with epsilon
-1, the rotation tensor square of 2 and the rotation (5/2, 1) pair with
epsilon -1. Each runs through `braket.cli.main` in this process, and its
text is hashed as it is written. Run it against two checkouts and compare
the lines to see which outputs a change moved:

    PYTHONPATH=src python scripts/rep_digests.py

Exits with status 1 if any command fails.
"""

import hashlib
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.inputs import LADDER  # noqa: E402

from braket import cli  # noqa: E402

COMMANDS = [flags for _, flags, _ in LADDER] + [
    ["--twice-j1", "5", "--twice-j2", "2", "--epsilon", "1"],
    ["--twice-j1", "5", "--twice-j2", "2", "--epsilon", "-1"],
    ["--twice-j1", "3", "--epsilon", "-1"],
    ["--twice-j1", "4", "--twice-j2", "4", "--basis", "rotation"],
    ["--twice-j1", "5", "--twice-j2", "2", "--basis", "rotation", "--epsilon", "-1"],
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


def main() -> int:
    failed = False
    for flags in COMMANDS:
        argv = ["rep", *flags]
        sink = _Digest()
        with redirect_stdout(sink):
            code = cli.main(argv)
        failed |= code != 0
        print(f"{sink.sha1.hexdigest()}  {sink.size}  {' '.join(argv)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
