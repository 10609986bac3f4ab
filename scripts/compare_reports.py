"""Compare the CLI reports of this checkout with those of another one.

Runs, in one subprocess per checkout (with PYTHONPATH=<checkout>/src),
``vibox.cli.main`` in-process over ``list`` and over ``solve`` and
``certify`` on every registry problem, once with default options and once
with ``--seed 5 --radius 3`` (``certify`` also with ``--samples 12``; ``solve``
has no ``--samples``).  Prints each call whose exit code or stdout differs
between the checkouts, or whose argv only one of them makes, and exits 1 if
there is any; stderr (timings) is not compared.

    python scripts/compare_reports.py <other-checkout>
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
OPTIONS = {"solve": ["--seed", "5", "--radius", "3"],
           "certify": ["--seed", "5", "--samples", "12", "--radius", "3"]}


def calls():
    from vibox.registry import problem_ids

    yield ["list"]
    for command, options in OPTIONS.items():
        for pid in problem_ids():
            yield [command, pid]
            yield [command, pid, *options]


def emit():
    """Print [argv, exit code, stdout] for every call as one JSON list."""
    from vibox.cli import main

    out = []
    for argv in calls():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        out.append([argv, code, buf.getvalue()])
    print(json.dumps(out))


def run(checkout) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    done = subprocess.run([sys.executable, __file__, "--emit"], env=env, check=True,
                          capture_output=True, text=True)
    return {tuple(argv): (code, stdout) for argv, code, stdout in json.loads(done.stdout)}


def main(argv) -> int:
    if argv == ["--emit"]:
        emit()
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    mine, other = run(HERE), run(argv[0])
    differ = [key for key in sorted(mine.keys() | other.keys())
              if mine.get(key) != other.get(key)]
    for key in differ:
        print("differs:", " ".join(key))
    print(f"{len(differ)} of {len(mine.keys() | other.keys())} calls differ "
          f"between {HERE} and {Path(argv[0]).resolve()}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
