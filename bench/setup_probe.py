"""Measure one set-up: imports, parser construction and one warm-up request per subcommand.

Run as a fresh process by bench/run.py:

    python3 bench/setup_probe.py <src dir> '<JSON list of argument lists>'

Prints the elapsed seconds and, after them, the median time of the host
reference kernel in this process; exits 1 if a warm-up request fails.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, warmups = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from treemajority import cli

    cli.build_parser()
    for argv in warmups:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                print(f"warm-up request failed: {argv}", file=sys.stderr)
                return 1
    elapsed = time.perf_counter() - START
    import hostref

    print(repr(elapsed), repr(hostref.median_reference(31)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
