"""Time set-up in a fresh interpreter: from ``import homebench`` until the
``run`` command enters ``loop.run_benchmark``. That span covers the package
import and the task, scene and plan-factory loading and validation that
``cli.cmd_run`` does before the first episode.

Usage: python3 bench/setup_probe.py SRC_DIR HOMEBENCH_ARG...

Prints the seconds on its last line and exits 0, without running any
episode.
"""

import sys
import time


class _Entered(Exception):
    pass


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import homebench.cli as cli

    entered = []

    def stop(*args, **kwargs):
        entered.append(time.perf_counter())
        raise _Entered

    # cmd_run calls the name it imported from loop
    cli.run_benchmark = stop
    try:
        code = cli.main(argv)
    except _Entered:
        code = 0
    if not entered:
        print(f"error: run_benchmark was never entered (exit {code})", file=sys.stderr)
        return 1
    print(entered[0] - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
