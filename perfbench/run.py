"""Benchmark of the vibox CLI on seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; it works in the checkout that holds it.  It writes the
workload's problem files under .perfbench/, calls ``vibox.cli.main(argv)`` in
this process with stdout captured, checks the output of each instance with
plain numpy, and calls the batch round after round for --seconds, requiring
every later call to repeat the first output exactly.  With --trace 0 it
reports the end-to-end metrics from each instance's median call time; with
--trace 1 it makes each call twice, traced and untraced, and reports
per-layer metrics per pass of the batch plus the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object.  See perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads: the workload runs in one
# single-threaded process, and the set-up probes inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import check
import hostspeed
import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = ".perfbench"
SETUP_RUNS = 9

END_TO_END = {"setup_s": "s", "calls_per_s": "1/s", "call_p50_ms": "ms", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "linalg.svd.in_solver.self_s": "s",
    "linalg.solve.in_solver.self_s": "s",
    "problem_io.load_problem.self_s": "s",
    "normal_map.normal_map.calls": "count",
    "normal_map.normal_map.self_s": "s",
    "model.F.calls": "count",
    "model.F.self_s": "s",
    "solver.solve.self_s": "s",
    "solver.multistart.self_s": "s",
    "solver.classify.self_s": "s",
    "projection.projection_jacobian_element.self_s": "s",
    "normal_map.normal_map_jacobian_element.self_s": "s",
    "projection.project.calls": "count",
    "solver.iterations": "count",
    "solver.linesearch_trials": "count",
    "solver.linesearch_accept_ratio": "ratio",
    "solver.steps.newton": "count",
    "solver.steps.regularized": "count",
    "solver.steps.gradient": "count",
    "solver.steps.picard": "count",
    "solver.status.solved": "count",
    "solver.status.max-iters": "count",
    "solver.status.line-search-stall": "count",
    "solver.status.singular-jacobian-fallback-exhausted": "count",
    "certificates.pmatrix_minors.self_s": "s",
    "certificates.principal_minor_det.calls": "count",
    "linalg.det.in_certificates.self_s": "s",
    "certificates.principal_submatrix_sigma_sweep.self_s": "s",
    "certificates.maximal_rank_tsearch.self_s": "s",
    "linalg.svd.in_certificates.calls": "count",
    "linalg.svd.in_certificates.self_s": "s",
    "certificates.uniform_pmatrix_sampled.self_s": "s",
    "certificates.uniform_pfunction_search.self_s": "s",
    "certificates.block_pfunction_search.self_s": "s",
    "certificates.growth_l0lp_fit.self_s": "s",
    "certificates.p_upsilon_check.self_s": "s",
    "certificates.pl_condition_check.self_s": "s",
    "certificates.hessian_block_convexity.self_s": "s",
    "normal_map.coercivity_probe.self_s": "s",
    "certificates.decided_ratio": "ratio",
    "cli.emit.self_s": "s",
    "trace.overhead": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(argv) -> tuple[float, float]:
    """Seconds for `import vibox` plus one CLI call in a fresh process, and the
    median reference-task time right after it."""
    done = subprocess.run([sys.executable, "perfbench/setup_probe.py", *argv],
                          capture_output=True, text=True, timeout=120, check=True)
    setup_s, ref_s = map(float, done.stdout.split()[-2:])
    return setup_s, ref_s


def run_call(cli, inst) -> check.Call:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(inst.argv)
    except Exception as e:  # a crash is a counted failure, not the end of the run
        error = type(e).__name__
    return check.Call(code, out.getvalue(), error, time.perf_counter() - t0)


def metadata(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    src = hashlib.sha256()
    for name in sorted(os.listdir("src/vibox")):
        if name.endswith(".py"):
            with open(f"src/vibox/{name}", "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"seed": seed, "commit": git_commit(), "source_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(f".git/{ref}"):
            with open(f".git/{ref}") as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


class Record:
    """Per-instance call times of a run, the first output of each instance,
    and whether every later call repeated that output exactly."""

    def __init__(self, batch):
        self.batch = batch
        self.first = [None] * len(batch)
        self.keys = [None] * len(batch)
        self.times = [[] for _ in batch]  # untraced calls
        self.marks = [[] for _ in batch]  # their host-speed probe marks
        self.traced = [[] for _ in batch]
        self.repeatable = True

    def add(self, k, call, traced=False, mark=None):
        key = (call.code, call.error, hashlib.sha256(call.out.encode()).digest())
        if self.first[k] is None:
            self.first[k], self.keys[k] = call, key
        elif key != self.keys[k]:
            self.repeatable = False
        if traced:
            self.traced[k].append(call.seconds)
        else:
            self.times[k].append(call.seconds)
            self.marks[k].append(mark)

    def check(self):
        """Failure reasons and facts of the first call of each instance, and
        the report digest of one pass."""
        reasons = dict.fromkeys(check.REASONS, 0)
        errors = Counter(c.error for c in self.first if c.error is not None)
        results = [check.check(inst, call) for inst, call in zip(self.batch, self.first)]
        for reason, _ in results:
            if reason is not None:
                reasons[reason] += 1
        digest = hashlib.sha256("".join(c.out for c in self.first).encode()).hexdigest()
        return reasons, dict(errors), digest, [f for _, f in results]


def properties(batch, facts):
    games = [i for i in batch if i.blocks is not None]
    coords = sum(f.coords for f in facts)
    requested = sum(f.requested for f in facts)
    props = {
        "instances": len(batch),
        "active_share": sum(f.active for f in facts) / coords if coords else 0.0,
        "pmatrix_share": sum(i.pmatrix is True for i in batch) / len(batch),
        "planted_share": sum(i.pmatrix is False for i in batch) / len(batch),
        "games": len(games),
    }
    if games:
        props["nonconvex_game_share"] = sum(i.nonconvex for i in games) / len(games)
        props["boundary_game_share"] = sum(i.boundary for i in games) / len(games)
        props["unequal_blocks_share"] = sum(len(set(i.blocks)) > 1 for i in games) / len(games)
    return props, (sum(f.decided for f in facts) / requested if requested else 0.0)


def measure(cli, batch, seconds, tracer=None):
    """Call the instances of the batch in turn, round after round, for
    `seconds`; the first pass over the batch is always completed.

    With a tracer, each call runs twice back to back, traced and untraced in
    alternating order, so that the tracing overhead comes from pairs close in
    time.  Traced runs make whole rounds only, at least one, while another
    round of the mean length so far still ends within `seconds`, so that the
    per-layer figures are per pass of the batch.  Untraced runs take
    host-speed probes between calls (``hostspeed.Probes``).
    """
    rec, layers = Record(batch), []
    t0 = time.perf_counter()
    if tracer is None:
        probes, k = hostspeed.Probes(), 0
        while k < len(batch) or time.perf_counter() - t0 < seconds:
            i = k % len(batch)
            mark = probes.mark()
            rec.add(i, run_call(cli, batch[i]), mark=mark)
            k += 1
        probes.close()
        return rec, layers, probes
    while True:
        tracer.reset()
        for k, inst in enumerate(batch):
            for on in (k % 2 == 1, k % 2 == 0):
                if on:
                    tracer.install()
                try:
                    rec.add(k, run_call(cli, inst), traced=on)
                finally:
                    tracer.uninstall()
        layers.append(tracer.collect())
        if (time.perf_counter() - t0) * (1 + 1 / len(layers)) > seconds:
            return rec, layers, None


def per_layer(rec, layers, decided_ratio):
    """Per-layer figures averaged over traced passes (counts repeat exactly)."""
    on = sum(sum(t) for t in rec.traced)
    off = sum(sum(t) for t in rec.times)
    out = {}
    for name in PER_LAYER:
        out[name] = float(np.mean([layer.get(name, 0) for layer in layers]))
    out["certificates.decided_ratio"] = decided_ratio
    out["trace.overhead"] = on / off - 1.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile("src/vibox/cli.py"):
        print("error: the vibox sources (src/vibox) are not in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = f"{OUT}/work/{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    batch = workloads.generate(args.workload, args.seed, workdir)
    warmup = workloads.generate(args.workload, args.seed, workdir + "-warmup", warmup=True)

    setup = [probe_setup(warmup[0].argv) for _ in range(SETUP_RUNS)] if not args.trace else []
    setup_s = [t * hostspeed.REF_S / r for t, r in setup]
    import vibox.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"error: vibox was imported from {cli.__file__}", file=sys.stderr)
        return 2
    for inst in warmup:
        run_call(cli, inst)
    calibration_s = hostspeed.loop_s(2_000_000)

    tracer = Tracer() if args.trace else None
    rec, layers, probes = measure(cli, batch, args.seconds, tracer)

    reasons, errors, digest, facts = rec.check()
    props, decided_ratio = properties(batch, facts)
    # Every instance is one operation: its later calls must repeat its first
    # output exactly, so they are re-measurements, not further operations.
    attempted, failed = len(batch), sum(reasons.values())
    correct = rec.repeatable and not any(reasons[r] for r in check.WRONG_ANSWER)
    samples = [len(t) for t in rec.times]
    extra = {}
    if args.trace:
        values, units = per_layer(rec, layers, decided_ratio), PER_LAYER
    else:
        # Median call time of each instance, at the reference host speed
        # (hostspeed.py) and as measured; every instance weighs once, however
        # many calls a partial last round gave it.
        inst_s = [statistics.median(t * probes.scale(j) for t, j in zip(ts, js))
                  for ts, js in zip(rec.times, rec.marks)]
        wall_s = [statistics.median(t) for t in rec.times]
        values = {"setup_s": statistics.median(setup_s),
                  "calls_per_s": len(batch) / sum(inst_s),
                  "call_p50_ms": 1e3 * statistics.median(inst_s),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END
        extra["wall"] = {"setup_s": statistics.median(t for t, _ in setup),
                         "calls_per_s": len(batch) / sum(wall_s),
                         "call_p50_ms": 1e3 * statistics.median(wall_s)}
        extra["reference_s"] = {"median": statistics.median(probes.times),
                                "min": min(probes.times), "max": max(probes.times),
                                "count": len(probes.times)}
        if len(batch) >= 100:
            # The highest percentile with at least ten instances beyond it.
            extra["call_p90_ms"] = 1e3 * statistics.quantiles(inst_s, n=10)[-1]
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    report = {"workload": args.workload, "trace": args.trace, "correct": correct,
              "repeatable": rec.repeatable, "metrics": metrics,
              "fail_rate": failed / attempted, "fail_reasons": reasons, "exceptions": errors,
              "batch": len(batch), "calls": sum(samples) + sum(map(len, rec.traced)),
              "calls_per_instance": [min(samples), max(samples)],
              "traced_passes": len(layers), "report_sha256": digest,
              "setup_runs": [{"s": t, "reference_s": r} for t, r in setup],
              "properties": props, "meta": dict(metadata(args.seed), calibration_s=calibration_s),
              **extra}
    os.makedirs(f"{OUT}/results", exist_ok=True)
    stem = f"{OUT}/results/{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if tracer is not None:
        np.savez_compressed(stem + "-spans.npz", **tracer.spans())

    print_summary(report)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_summary(r):
    lo, hi = r["calls_per_instance"]
    print(f"{r['workload']} seed={r['meta']['seed']} trace={r['trace']}: {r['calls']} calls, "
          f"{lo}-{hi} untraced per instance of {r['batch']}, "
          f"correct={r['correct']} repeatable={r['repeatable']}")
    for name, m in r["metrics"].items():
        print(f"  {name:<52} {m['value']:>12.6g} {m['unit']}")
    if "call_p90_ms" in r:
        print(f"  {'call_p90_ms':<52} {r['call_p90_ms']:>12.6g} ms ({r['batch']} instances)")
    if not r["trace"]:
        wall, ref = r["wall"], r["reference_s"]
        print(f"  as measured: setup_s {wall['setup_s']:.6g} s, calls_per_s "
              f"{wall['calls_per_s']:.6g} 1/s, call_p50_ms {wall['call_p50_ms']:.6g} ms; "
              f"reference task {1e3 * ref['median']:.4g} ms median "
              f"({1e3 * ref['min']:.4g}-{1e3 * ref['max']:.4g}, {ref['count']} probes)")
    reasons = ", ".join(f"{k} {v}" for k, v in r["fail_reasons"].items() if v) or "none"
    errors = ", ".join(f"{k} {v}" for k, v in r["exceptions"].items())
    print(f"  {'fail_rate':<52} {r['fail_rate']:>12.6g} ({reasons}"
          + (f"; exceptions: {errors})" if errors else ")"))
    print("  properties " + " ".join(f"{k}={v:.4g}" for k, v in r["properties"].items()))
    print(f"  report sha256 {r['report_sha256']}")
    meta = " ".join(f"{k}={v}" for k, v in r["meta"].items() if k != "source_sha256")
    print(f"  host {meta}")


if __name__ == "__main__":
    sys.exit(main())
