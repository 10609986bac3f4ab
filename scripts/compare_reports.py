"""Compare the CLI reports of this checkout with those of another one.

Runs, in one subprocess per checkout (with PYTHONPATH=<checkout>/src),
``vibox.cli.main`` in-process over ``list`` and over ``solve`` and
``certify`` on every registry problem, once with default options and once
with ``--seed 5 --radius 3`` (``certify`` also with ``--samples 12``; ``solve``
has no ``--samples``).  The same calls run on problem files too: this
checkout writes every registry problem once with ``save_problem`` into a
temporary directory that both subprocesses read, so the file loader is
compared and the ``provenance`` fields (the paths) match.  Prints each call
whose exit code or stdout differs between the checkouts, or whose argv only
one of them makes, and exits 1 if there is any; stderr (timings) is not
compared.

    python scripts/compare_reports.py <other-checkout>
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
OPTIONS = {"solve": ["--seed", "5", "--radius", "3"],
           "certify": ["--seed", "5", "--samples", "12", "--radius", "3"]}


def calls(problem_dir):
    from vibox.registry import problem_ids

    problems = [*problem_ids(), *sorted(str(f) for f in Path(problem_dir).glob("*.json"))]
    yield ["list"]
    for command, options in OPTIONS.items():
        for problem in problems:
            yield [command, problem]
            yield [command, problem, *options]


def save_registry(problem_dir):
    """Write every registry problem of this checkout into problem_dir."""
    sys.path.insert(0, str(HERE / "src"))
    from vibox import get_problem, save_problem
    from vibox.registry import problem_ids

    for pid in problem_ids():
        save_problem(get_problem(pid), Path(problem_dir) / f"{pid}.json")


def emit(problem_dir):
    """Print [argv, exit code, stdout] for every call as one JSON list."""
    from vibox.cli import main

    out = []
    for argv in calls(problem_dir):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        out.append([argv, code, buf.getvalue()])
    print(json.dumps(out))


def run(checkout, problem_dir) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    done = subprocess.run([sys.executable, __file__, "--emit", problem_dir], env=env,
                          check=True, capture_output=True, text=True)
    return {tuple(argv): (code, stdout) for argv, code, stdout in json.loads(done.stdout)}


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit(argv[1])
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as problem_dir:
        save_registry(problem_dir)
        mine, other = run(HERE, problem_dir), run(argv[0], problem_dir)
    differ = [key for key in sorted(mine.keys() | other.keys())
              if mine.get(key) != other.get(key)]
    for key in differ:
        print("differs:", " ".join(key))
    print(f"{len(differ)} of {len(mine.keys() | other.keys())} calls differ "
          f"between {HERE} and {Path(argv[0]).resolve()}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
