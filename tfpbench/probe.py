"""One set-up sample: a fresh interpreter imports tfpsolve and replays a
workload's warm-up op through ``tfpsolve.cli.main``.

    python3 probe.py <repo root> '<json list of [argv, expected exit code]>'

Exits 0 when every call returns its expected exit code.  The caller times the
whole process.
"""

import contextlib
import io
import json
import os
import sys


def main() -> int:
    root, steps = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, os.path.join(root, "src"))
    from tfpsolve.cli import main as cli_main

    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli_main(argv) for argv, _ in steps]
    return 0 if codes == [want for _, want in steps] else 1


if __name__ == "__main__":
    raise SystemExit(main())
