"""Command-line surface: solve, certify, report, list.

Reports are emitted to stdout as JSON with sorted keys so that identical
configurations produce byte-identical output; timing and diagnostics go to
stderr.  Problem arguments name either a builtin registry id or a problem
file (see problem_io for the file schema).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import certify_problem
from .model import EvaluationError
from .problem_io import ProblemFileError, load_problem
from .registry import REGISTRY, get_problem
from .solver import classify, multistart

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_SOLVED = 2
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _number(convert, ok, expected):
    """An argparse type: convert(text) when ok accepts the value, else a usage
    error naming what was expected."""
    def parse(text):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_COUNT = _number(int, lambda n: n >= 1, "an integer >= 1")
_SEED = _number(int, lambda n: n >= 0, "an integer >= 0")
_POSITIVE = _number(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")  # NaN fails


def resolve_problem(name):
    if name in REGISTRY:
        return get_problem(name), f"builtin:{name}"
    if Path(name).exists():
        return load_problem(name), str(name)
    raise KeyError(f"unknown problem id or file: {name!r}")


def _emit(doc):
    """Print doc as json.dumps(doc, indent=2, sort_keys=True) writes it."""
    try:
        text = _json_text(doc, "\n")
    except (TypeError, RecursionError):  # json.dumps decides: it writes, or raises its error
        text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)


def _json_text(o, pad) -> str:
    """o as json.dumps(o, indent=2, sort_keys=True) writes it, each line after
    its first starting with pad (a line break and the indentation), for the
    types a report holds: str, None, bool, int, float, and lists, tuples and
    dicts with str keys of these.  TypeError on any other."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return (float.__repr__(o) if math.isfinite(o)
                else "NaN" if o != o else "Infinity" if o > 0.0 else "-Infinity")
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        try:  # a list of floats in one step
            text = ("," + inner).join(map(float.__repr__, o))
        except TypeError:  # an entry that is not a float
            text = None
        if text is None or "n" in text:  # or a nan or an inf, which json spells otherwise
            text = ("," + inner).join([_json_text(v, inner) for v in o])
        return "[" + inner + text + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        return "{" + inner + ("," + inner).join([
            f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
            for k, v in sorted(o.items())]) + pad + "}"
    raise TypeError(f"{type(o).__name__} is not a report type")


def _report_skeleton(command, problem_id, provenance, config):
    return {
        "artifact": {"name": "vibox", "version": __version__},
        "command": command,
        "problem": {"id": problem_id, "provenance": provenance},
        "config": config,
    }


# A mapping that overflows is reported as one error line (EvaluationError), not
# also as numpy's RuntimeWarning.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


@_QUIET_OVERFLOW
def cmd_solve(args) -> int:
    try:
        p, provenance = resolve_problem(args.problem)
    except (KeyError, ProblemFileError) as e:
        print(f"error: {e.args[0]}", file=sys.stderr)  # str(KeyError) would quote it
        return EXIT_USAGE
    t0 = time.perf_counter()
    try:
        results = multistart(p, starts=args.starts, seed=args.seed, radius=args.radius,
                             tol=args.tol)
    except EvaluationError as e:
        print(f"error: {args.problem}: F is non-finite at a start point ({e})",
              file=sys.stderr)
        return EXIT_USAGE
    doc = _report_skeleton("solve", args.problem, provenance,
                           {"seed": args.seed, "starts": args.starts, "tol": args.tol,
                            "radius": args.radius})
    doc["results"] = []
    for res in results:
        rec = {"status": res.status, "x": res.x.tolist(), "v": res.v.tolist(),
               "residual": res.residual, "classification": classify(p, res),
               "iterations": res.iterations, "steps": list(res.steps)}
        if args.trace:
            rec["trace"] = list(res.trace)
        doc["results"].append(rec)
    _emit(doc)
    print(f"solved {args.problem} in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return EXIT_OK if any(r.solved for r in results) else EXIT_NOT_SOLVED


@_QUIET_OVERFLOW
def cmd_certify(args) -> int:
    t0 = time.perf_counter()
    try:
        p, provenance = resolve_problem(args.problem)
        conditions = args.conditions.split(",") if args.conditions else None
        reports, skipped = certify_problem(p, conditions, seed=args.seed,
                                           samples=args.samples, radius=args.radius,
                                           tol=args.tol)
    except (KeyError, ProblemFileError) as e:
        print(f"error: {e.args[0]}", file=sys.stderr)  # str(KeyError) would quote it
        return EXIT_USAGE
    except EvaluationError as e:
        print(f"error: {args.problem}: F or its Jacobian is non-finite at a sampled point ({e})",
              file=sys.stderr)
        return EXIT_USAGE
    doc = _report_skeleton("certify", args.problem, provenance,
                           {"seed": args.seed, "samples": args.samples,
                            "radius": args.radius, "tol": args.tol,
                            "conditions": args.conditions or "all"})
    doc["certificates"] = [r.to_dict() for r in reports]
    doc["skipped"] = skipped
    _emit(doc)
    print(f"certified {args.problem} in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    verdicts = [r.verdict for r in reports]
    if "fail" in verdicts:
        return EXIT_FAIL
    if "inconclusive" in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _report_rows(path) -> list[tuple]:
    """(problem, condition, verdict, margin) for each certificate of one report
    file; the problem id and condition ids must be strings, so rows sort."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    pid = doc["problem"]["id"]
    rows = [(pid, cert["condition"], cert["verdict"], cert["margin"])
            for cert in doc.get("certificates", [])]
    if not all(isinstance(r[0], str) and isinstance(r[1], str) for r in rows):
        raise TypeError("problem id and condition ids must be strings")
    return rows


def cmd_report(args) -> int:
    rows = []
    for path in args.files:
        try:
            rows += _report_rows(path)
        except (OSError, ValueError, RecursionError, KeyError, TypeError) as e:
            # ValueError covers json.JSONDecodeError and UnicodeDecodeError
            print(f"warning: skipping {path}: {e}", file=sys.stderr)
    rows.sort(key=lambda r: (r[0], r[1]))
    header = ("problem", "condition", "verdict", "margin")
    if args.format == "delimited":
        print("\t".join(header))
        for row in rows:
            print("\t".join("" if v is None else str(v) for v in row))
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str("" if v is None else v).ljust(w)
                            for v, w in zip(row, widths)))
    return EXIT_OK


def cmd_list(args) -> int:
    for pid in sorted(REGISTRY):
        kind = "game" if REGISTRY[pid]().is_game else "vi"
        print(f"{pid}\t{kind}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; it names a command, and
    main runs the module's cmd_<command> as it is at call time."""
    parser = _Parser(prog="vibox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=_SEED, default=42)
        sp.add_argument("--radius", type=_POSITIVE, default=10.0,
                        help="sampling radius for unbounded coordinates")

    sp = sub.add_parser("solve", help="solve a VI or game problem")
    sp.add_argument("problem")
    common(sp)
    sp.add_argument("--starts", type=_COUNT, default=8)
    sp.add_argument("--tol", type=_POSITIVE, default=1e-10)
    sp.add_argument("--trace", action="store_true", help="include residual traces")

    sp = sub.add_parser("certify", help="run existence-condition checkers")
    sp.add_argument("problem")
    common(sp)
    sp.add_argument("--samples", type=_COUNT, default=30)
    sp.add_argument("--tol", type=_POSITIVE, default=1e-8)
    sp.add_argument("--conditions", help="comma-separated condition ids (default: all)")

    sp = sub.add_parser("report", help="merge run reports into a comparison table")
    sp.add_argument("files", nargs="*")
    sp.add_argument("--format", choices=("text", "delimited"), default="text")

    sub.add_parser("list", help="list builtin problems")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a reader that is gone raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader closed it (`vibox certify ... | head -1`): the output
        # cannot be delivered.  Point stdout at devnull so that the flush at
        # exit does not fail again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
