"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload imdb-cold --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` repeats the run with every layer wrapped in spans and
prints the per-layer metrics instead.  Each invocation is one fresh
interpreter running one workload, so nothing leaks between workloads.
The program is imported from ``src/`` next to this directory; without it
the benchmark exits with an error and prints no result.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program() -> None:
    """Put ``src/`` and this package on the path; refuse any other copy
    of the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path[:1] = [SRC, ROOT]
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


if __name__ == "__main__":
    _import_program()
    from perfbench import cli

    sys.exit(cli.main())
