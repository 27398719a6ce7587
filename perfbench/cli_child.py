"""Run one `headsparse` subcommand with span tracing and write the spans.

    python3 perfbench/cli_child.py SPANS_JSON PHASE -- SUBCOMMAND [ARGS...]

The wrappers are installed before `headsparse.cli.main` runs, and the spans
are written out when it returns; the exit code is the subcommand's own.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer  # noqa: E402


def main() -> int:
    span_file, phase, sep, *argv = sys.argv[1:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer(phase=phase)
    tracer.install()
    import headsparse.cli

    try:
        return headsparse.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main())
