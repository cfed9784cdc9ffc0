"""Run one braket command under the span tracer.

    python perfbench/traced_cli.py SPANS_FILE ARG...

behaves like `python -m braket.cli ARG...` and also writes the spans of
the command, with cli.main as their root, to SPANS_FILE.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    from braket import cli

    tracer = Tracer()
    tracer.install()
    with tracer.span("cli.main"):
        code = cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
