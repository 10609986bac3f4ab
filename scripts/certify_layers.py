"""Time each existence condition of ``vibox certify`` on the certify-mixed family.

For seeds 1 and 2 of the ``certify-mixed`` benchmark family (written by
``perfbench/workloads.py``, which is imported and not changed), each checkout
named on the command line is measured in rounds, one fresh process per
checkout and round, the checkouts alternating within a round so that host
drift falls on them alike.  In each round every instance is measured four
ways, with the ``certify`` defaults (seed 42, 30 samples, radius 10, tol
1e-8):

- ``alone_ms``: each condition's checker run by itself, outside any
  ``certify_problem`` call;
- ``in_call_ms``: the same checker's time inside one ``certify_problem``
  call over all conditions (the checkers of ``CONDITIONS`` wrapped with a
  timer for that call);
- ``certify_problem_ms``: one unwrapped ``certify_problem`` call;
- ``cli_ms``: one ``vibox.cli.main(["certify", <file>])`` call with stdout
  captured, as the benchmark makes it (load, check and emit).

Each round makes one untimed pass over a seed's batch first, so that no
figure includes imports or the first use of a cached subset table.  Each
figure is the time of one pass, summed over the 20 instances of a seed's
batch in one round, and is given as its quartiles over the rounds,
``[q1, median, q3]``, so that a change can be told from the spread of the
rounds.  ``calls_per_s`` is instances over the ``cli_ms`` pass time of each
round, unscaled, unlike the benchmark's.  Host data and the median reference-task time of
``perfbench/hostspeed.py`` (taken between instances) go with the results.

    python scripts/certify_layers.py NAME=CHECKOUT [NAME=CHECKOUT ...] [--rounds N]
        [--out BENCH_certify.json]

``NAME=.`` measures this checkout.  The output file holds one entry per NAME,
identified by the sha256 of its ``src/vibox/*.py`` (as ``perfbench/run.py``
computes it); an existing file keeps the entries of the names not measured
again.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as in the benchmark

import argparse
import contextlib
import hashlib
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))
import hostspeed  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)
WORKLOAD = "certify-mixed"
FIGURES = ("certify_problem_ms", "cli_ms")


def measure_pass(batch):
    """{figure: [ms per instance]} and {condition: {alone/in_call: [ms per instance]}}
    for one pass over the batch, plus the reference-task times taken."""
    from vibox import certificates
    from vibox.cli import main
    from vibox.problem_io import load_problem

    settings = certificates._Settings(42, 30, 10.0, 1e-8)
    conds = list(certificates.CONDITIONS)
    layers = {c: {"alone": [], "in_call": []} for c in conds}
    calls = {f: [] for f in FIGURES}
    refs = []
    for inst in batch:
        refs.append(hostspeed.reference_s())
        p = load_problem(inst.path)
        spent = dict.fromkeys(conds, 0.0)
        for c, (check, game_only) in certificates.CONDITIONS.items():
            if game_only and not p.is_game:
                continue
            t0 = time.perf_counter()
            check(p, settings)
            spent[c] = time.perf_counter() - t0
        for c in conds:
            layers[c]["alone"].append(1e3 * spent[c])
        timed, spent = {}, dict.fromkeys(conds, 0.0)
        for c, (check, game_only) in certificates.CONDITIONS.items():
            def run(p, s, c=c, check=check):
                t0 = time.perf_counter()
                try:
                    return check(p, s)
                finally:
                    spent[c] += time.perf_counter() - t0
            timed[c] = (run, game_only)
        original = certificates.CONDITIONS
        certificates.CONDITIONS = timed
        try:
            certificates.certify_problem(p)
        finally:
            certificates.CONDITIONS = original
        for c in conds:
            layers[c]["in_call"].append(1e3 * spent[c])
        t0 = time.perf_counter()
        certificates.certify_problem(p)
        calls["certify_problem_ms"].append(1e3 * (time.perf_counter() - t0))
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(inst.argv)
        calls["cli_ms"].append(1e3 * (time.perf_counter() - t0))
    return {"calls": calls, "layers": layers, "reference_ms": [1e3 * r for r in refs]}


def emit(workdir):
    """One round in this process: print {seed: measure_pass(...)} as JSON."""
    out = {}
    for seed in SEEDS:
        batch = workloads.generate(WORKLOAD, seed, f"{workdir}/seed{seed}")
        measure_pass(batch)  # untimed: imports, first BLAS calls, cached subset tables
        out[seed] = measure_pass(batch)
    print(json.dumps(out))


def source_sha256(checkout) -> str:
    src = hashlib.sha256()
    for f in sorted((Path(checkout) / "src" / "vibox").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return src.hexdigest()


def host():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}",
            "blas_threads": 1}


def summed_medians(passes, get) -> float:
    """The per-instance medians over the passes of get(pass), summed."""
    return sum(statistics.median(v) for v in zip(*(get(q) for q in passes)))


def quartiles(totals, digits=3) -> list:
    """[q1, median, q3] of one figure's per-round totals."""
    return [round(float(v), digits) for v in np.percentile(totals, [25, 50, 75])]


def summarize(rounds):
    """Per seed: the quartiles over the rounds of each figure's pass time."""
    out = {}
    for seed in map(str, SEEDS):
        passes = [r[seed] for r in rounds]
        n = len(passes[0]["calls"]["cli_ms"])
        calls = {f: [sum(q["calls"][f]) for q in passes] for f in FIGURES}
        conds = {k: {c: [sum(q["layers"][c][k]) for q in passes] for c in passes[0]["layers"]}
                 for k in ("alone", "in_call")}
        out[seed] = {
            "instances": n,
            **{f"{k}_ms": {c: quartiles(v) for c, v in conds[k].items()} for k in conds},
            **{f"checker_sum_{k}_ms": quartiles(np.sum(list(conds[k].values()), axis=0))
               for k in conds},
            **{f: quartiles(v) for f, v in calls.items()},
            "calls_per_s": quartiles([1e3 * n / t for t in calls["cli_ms"]], 2),
            "reference_ms": round(statistics.median(
                [t for q in passes for t in q["reference_ms"]]), 3),
        }
    return out


def run_checkouts(argv, script, out_name, prepare, summarize, key, fields) -> dict:
    """Measure the checkouts that argv names (NAME=CHECKOUT ..., --rounds N,
    --out FILE, by default out_name in the repository) and write the output
    file; returns its document.

    Each round runs ``script --emit prepare(workdir)`` once per checkout, a
    fresh process with the checkout's ``src`` first on PYTHONPATH, the
    checkouts alternating within a round, and reads the JSON it prints.
    Each checkout's entry gets {key: summarize(its rounds)}; fields (its
    "description" heads the help) and the host go at the top of the file,
    whose entries of names not measured again are kept."""
    ap = argparse.ArgumentParser(description=fields["description"])
    ap.add_argument("checkouts", nargs="+", help="NAME=CHECKOUT")
    ap.add_argument("--rounds", type=int, default=9)
    ap.add_argument("--out", default=str(HERE / out_name))
    args = ap.parse_args(argv)
    named = dict(arg.split("=", 1) for arg in args.checkouts)
    rounds = {name: [] for name in named}
    with tempfile.TemporaryDirectory() as workdir:
        emit_arg = prepare(workdir)
        for k in range(args.rounds):
            order = list(named) if k % 2 == 0 else list(reversed(named))
            for name in order:
                env = {**os.environ, "PYTHONPATH": str(Path(named[name]).resolve() / "src")}
                done = subprocess.run([sys.executable, script, "--emit", emit_arg], env=env,
                                      check=True, capture_output=True, text=True)
                rounds[name].append(json.loads(done.stdout))
            print(f"round {k + 1} of {args.rounds} done", file=sys.stderr)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update({**fields, "host": host()})
    doc.setdefault("checkouts", {})
    for name, path in named.items():
        doc["checkouts"][name] = {"source_sha256": source_sha256(path),
                                  "rounds": args.rounds, key: summarize(rounds[name])}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit(argv[1])
        return 0
    fields = {"description": __doc__.split("\n\n")[0], "workload": WORKLOAD, "seeds": list(SEEDS),
              "certify": {"seed": 42, "samples": 30, "radius": 10.0, "tol": 1e-8}}
    doc = run_checkouts(argv, __file__, "BENCH_certify.json", lambda workdir: workdir, summarize,
                        "seeds", fields)
    for name, entry in doc["checkouts"].items():
        for seed, s in entry["seeds"].items():
            print(f"{name} seed {seed}, medians: checker sum alone "
                  f"{s['checker_sum_alone_ms'][1]:.1f} ms, in call "
                  f"{s['checker_sum_in_call_ms'][1]:.1f} ms, certify_problem "
                  f"{s['certify_problem_ms'][1]:.1f} ms, {s['calls_per_s'][1]:.1f} calls/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
