"""Time the phases of ``vibox solve`` on the solve-large and games-multistart families.

The batches are seeds 1 and 2 of ``solve-large`` (12 files each, m of 400
to 1000, ``--starts 1``) and the first 200 games of ``games-multistart``
seed 1 (``--starts 8``), written once by ``perfbench/workloads.py``, which is
imported and not changed.  Each checkout named on the command line is
measured in rounds, one fresh process per checkout and round, the checkouts
alternating within a round so that host drift falls on them alike.  In each
round every instance is called twice through ``vibox.cli.main`` with stdout
captured, as the benchmark calls it:

- ``cli_ms``: the plain call;
- ``timed_cli_ms`` and ``phases_ms``: the call with the module attributes
  of ``PHASES`` wrapped in timers, each phase the self time of its wrapped
  calls (their time less that of the wrapped calls inside them), so the
  phases add up to the ``main`` call, ``calls``: how often each
  wrapped attribute ran, and ``trial_points``: the rows of the stacks that
  ``_trial`` evaluated, so that the speculative points of the line search's
  batched steps show next to its calls.

The phases, in the order of a call: ``argparse`` (``main`` less
``cmd_solve``: parsing, dispatch and the stdout flush), ``report`` (the
rest of ``cmd_solve``: the report skeleton and records), ``read``
(``load_problem`` less the parse and the build: the file read and the
release of its bytes), ``opening_count`` (``_parse_json`` less the parse:
the guard that picks the parser), ``parse`` (``orjson.loads`` or
``json.loads``), ``build`` (``problem_from_dict``: the arrays and the
problem), ``multistart`` (start points, deduplication and the corner-ray
path), ``stack_bookkeeping`` (``_solve_stack`` less its parts: the first
normal-map evaluation, the step kinds, the regularized steps and the
per-row records), ``merit_gradient``, ``free_block_gather``
(``newton_directions`` and ``_newton_directions``, which the solver's loop
calls, less the LU solves and the column norms: the gather of each free
block, the back-substitution and the singularity flags),
``lu_solves`` (``_solve_blocks``), ``column_norms`` (every ``np.einsum``
call of the solver), ``line_search`` (``_line_search`` less its trials),
``normal_map_trials`` (``_trial``, which ``solver`` imports from
``normal_map``: the line-search trials and the corner-ray path's final
Newton trial), ``classify`` and ``emit`` (``_emit``).

Each round makes one untimed pass over every batch first.  Each figure is
the median over the rounds per instance, summed over a batch, so one figure
is the time of one pass; ``calls_per_s`` is instances over the ``cli_ms``
pass time, unscaled, unlike the benchmark's.  Host data and the median
reference-task time of ``perfbench/hostspeed.py`` (taken at most every
0.1 s between instances) go with the results.

    python scripts/solve_layers.py NAME=CHECKOUT [NAME=CHECKOUT ...] [--rounds N]
        [--out BENCH_solve.json]

``NAME=.`` measures this checkout.  The output file holds one entry per NAME,
identified by the sha256 of its ``src/vibox/*.py`` (as ``perfbench/run.py``
computes it); an existing file keeps the entries of the names not measured
again.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as in the benchmark

import contextlib
import functools
import io
import json
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from certify_layers import run_checkouts, summed_medians  # noqa: E402

BATCHES = {  # name: (workload, seed, instances taken from the start of the batch)
    "solve-large seed 1": ("solve-large", 1, None),
    "solve-large seed 2": ("solve-large", 2, None),
    "games-multistart seed 1, first 200": ("games-multistart", 1, 200),
}
# (phase, module of vibox, attribute): the attribute is wrapped in a timer; a
# dotted one is an attribute of a module that the vibox module imported, which
# is then replaced, for that module alone, by a copy with the attribute wrapped.
# A checkout that lacks an attribute has it skipped.
PHASES = (
    ("argparse", "cli", "main"),
    ("report", "cli", "cmd_solve"),
    ("read", "cli", "load_problem"),
    ("opening_count", "problem_io", "_parse_json"),
    ("parse", "problem_io", "orjson.loads"),
    ("parse", "problem_io", "json.loads"),
    ("build", "problem_io", "problem_from_dict"),
    ("multistart", "cli", "multistart"),
    ("stack_bookkeeping", "solver", "_solve_stack"),
    ("merit_gradient", "solver", "merit_gradient"),
    ("free_block_gather", "solver", "newton_directions"),
    ("free_block_gather", "solver", "_newton_directions"),
    ("lu_solves", "solver", "_solve_blocks"),
    ("column_norms", "solver", "np.einsum"),
    ("line_search", "solver", "_line_search"),
    ("normal_map_trials", "solver", "_trial"),
    ("classify", "cli", "classify"),
    ("emit", "cli", "_emit"),
)
NAMES = list(dict.fromkeys(name for name, _, _ in PHASES))
TRIALS = "normal_map_trials"  # the phase whose stacks' rows are counted as trial points


class Clock:
    """Self time and calls per phase, over the wrapped calls since reset()."""

    def __init__(self):
        self.open = []  # per wrapped call in progress: the time of the wrapped calls inside it
        self.reset()

    def reset(self):
        self.self_s, self.calls = Counter(), Counter()
        self.trial_points = 0

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            if name == TRIALS:
                self.trial_points += len(args[1])  # _trial(p, v): the rows of v
            self.open.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                self.self_s[name] += spent - self.open.pop()
                self.calls[name] += 1
                if self.open:
                    self.open[-1] += spent
        return timed


def install(clock):
    """Wrap every attribute of PHASES; returns a function that undoes it."""
    import vibox.cli
    import vibox.problem_io
    import vibox.solver

    modules = {"cli": vibox.cli, "problem_io": vibox.problem_io, "solver": vibox.solver}
    undo = []
    for name, mod, attr in PHASES:
        owner = modules[mod]
        if not hasattr(owner, attr.split(".")[0]):
            continue
        if "." in attr:
            inner, attr = attr.split(".")
            imported = getattr(owner, inner)
            copy = types.ModuleType(imported.__name__)
            copy.__dict__.update(imported.__dict__)
            undo.append((owner, inner, imported))
            setattr(owner, inner, copy)
            owner = copy
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, clock.wrap(name, getattr(owner, attr)))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return uninstall


def call(argv) -> float:
    from vibox.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        main(argv)
        return time.perf_counter() - t0


def measure_pass(batch, clock):
    """Per instance: the plain and the timed call, and the phases of the timed one."""
    out = {"cli_ms": [], "timed_cli_ms": [], "phases_ms": {n: [] for n in NAMES},
           "calls": {n: [] for n in NAMES}, "trial_points": [], "reference_ms": []}
    last = -hostspeed.EVERY_S
    for argv in batch:
        if time.perf_counter() - last >= hostspeed.EVERY_S:
            out["reference_ms"].append(1e3 * hostspeed.reference_s())
            last = time.perf_counter()
        out["cli_ms"].append(1e3 * call(argv))
        clock.reset()
        uninstall = install(clock)
        try:
            out["timed_cli_ms"].append(1e3 * call(argv))
        finally:
            uninstall()
        for n in NAMES:
            out["phases_ms"][n].append(1e3 * clock.self_s[n])
            out["calls"][n].append(clock.calls[n])
        out["trial_points"].append(clock.trial_points)
    return out


def emit(manifest):
    """One round in this process: print {batch: measure_pass(...)} as JSON."""
    batches = json.loads(Path(manifest).read_text())
    clock = Clock()
    for batch in batches.values():  # untimed: imports, first BLAS calls, the page cache
        for argv in batch:
            call(argv)
    print(json.dumps({name: measure_pass(batch, clock) for name, batch in batches.items()}))


def summarize(rounds):
    """Per batch: per-instance medians over the rounds, summed over the batch."""
    out = {}
    for name in BATCHES:
        passes = [r[name] for r in rounds]
        med = functools.partial(summed_medians, passes)
        cli_ms = med(lambda q: q["cli_ms"])
        out[name] = {
            "instances": len(passes[0]["cli_ms"]),
            "cli_ms": round(cli_ms, 3),
            "calls_per_s": round(1e3 * len(passes[0]["cli_ms"]) / cli_ms, 3),
            "timed_cli_ms": round(med(lambda q: q["timed_cli_ms"]), 3),
            "phases_ms": {n: round(med(lambda q: q["phases_ms"][n]), 3) for n in NAMES},
            "calls": {n: med(lambda q: q["calls"][n]) for n in NAMES},
            "trial_points": med(lambda q: q["trial_points"]),
            "reference_ms": round(statistics.median(
                [t for q in passes for t in q["reference_ms"]]), 3),
        }
    return out


def write_batches(workdir) -> str:
    """Write the batches under workdir once; returns the path of their argv lists."""
    batches = {}
    for name, (workload, seed, count) in BATCHES.items():
        batch = workloads.generate(workload, seed, f"{workdir}/{workload}-seed{seed}")
        batches[name] = [inst.argv for inst in batch[:count]]
    manifest = Path(workdir) / "batches.json"
    manifest.write_text(json.dumps(batches))
    return str(manifest)


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit(argv[1])
        return 0
    fields = {"description": __doc__.split("\n\n")[0],
              "batches": {name: {"workload": w, "seed": s, "instances": c or "all"}
                          for name, (w, s, c) in BATCHES.items()}}
    doc = run_checkouts(argv, __file__, "BENCH_solve.json", write_batches, summarize, "batches",
                        fields)
    for name, entry in doc["checkouts"].items():
        for batch, s in entry["batches"].items():
            top = sorted(s["phases_ms"].items(), key=lambda kv: -kv[1])[:4]
            print(f"{name} {batch}: {s['cli_ms']:.1f} ms per pass, {s['calls_per_s']:.2f} calls/s, "
                  f"{s['calls'][TRIALS]} trials of {s['trial_points']} points; "
                  + ", ".join(f"{n} {v:.1f}" for n, v in top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
