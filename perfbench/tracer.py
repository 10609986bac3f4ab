"""Span tracer wrapped around vibox's functions at their import sites.

Each wrapped call appends (name, parent, start, end) to flat in-memory
arrays.  Self time (a span's duration minus that of its direct children) and
the caller split of numpy.linalg calls are computed from those arrays after
a pass, never while it runs.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Public functions of these modules are traced under "<module>.<function>".
TRACED_MODULES = ("vibox.cli", "vibox.solver", "vibox.normal_map", "vibox.certificates",
                  "vibox.projection", "vibox.problem_io")
PRIVATE = {("vibox.cli", "_emit"): "cli.emit"}  # private functions traced under a name
LINALG = ("svd", "solve", "det", "eigvalsh")
STEP_KINDS = ("newton", "regularized", "gradient", "picard")
STATUSES = ("solved", "max-iters", "line-search-stall", "singular-jacobian-fallback-exhausted")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.solves: list = []  # SolveResult of every solver.solve call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        """Drop the spans and solve results recorded so far."""
        self.name_id, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.solves.clear()

    def wrap(self, name, fn, observe=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every import site of the traced functions, Mapping.__call__ and
        numpy.linalg.{svd,solve,det,eigvalsh}."""
        from vibox.model import Mapping

        wrapped = {}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("vibox."):
                continue
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                name = PRIVATE.get((obj.__module__, obj.__name__))
                if name is None and obj.__module__ in TRACED_MODULES \
                        and not obj.__name__.startswith("_"):
                    name = f"{obj.__module__[len('vibox.'):]}.{obj.__name__}"
                if name is None:
                    continue
                if obj not in wrapped:
                    observe = self.solves.append if name == "solver.solve" else None
                    wrapped[obj] = self.wrap(name, obj, observe)
                self._patch(mod, attr, wrapped[obj])
        self._patch(Mapping, "__call__", self.wrap("model.F", Mapping.__call__))
        for fn in LINALG:
            self._patch(np.linalg, fn, self.wrap(f"linalg.{fn}", getattr(np.linalg, fn)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict:
        return {"names": np.array(self.names), "name_id": np.array(self.name_id),
                "parent": np.array(self.parent), "start": np.array(self.start),
                "end": np.array(self.end)}

    def collect(self) -> dict:
        """Per-layer figures for the spans and solves recorded since reset()."""
        nid, parent = np.array(self.name_id, dtype=np.int64), np.array(self.parent)
        dur = np.array(self.end) - np.array(self.start)
        k = len(self.names)
        inner = parent >= 0
        own = dur - np.bincount(parent[inner], weights=dur[inner], minlength=nid.size)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        out = {}
        for j, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[j])
            out[f"{name}.self_s"] = float(self_s[j])
        # numpy.linalg spans split by the module of the span that called them.
        module = np.array([n.split(".")[0] for n in self.names] + ["top"])
        caller = np.where(inner, nid[np.maximum(parent, 0)], k)
        for j, name in enumerate(self.names):
            if name.startswith("linalg."):
                mine = nid == j
                for mod in np.unique(module[caller[mine]]):
                    sel = mine & (module[caller] == mod)
                    out[f"{name}.in_{mod}.calls"] = int(sel.sum())
                    out[f"{name}.in_{mod}.self_s"] = float(own[sel].sum())
        # Every solve makes one normal-map evaluation at its start and one per
        # line-search trial.
        in_solve = ((nid == self._ids.get("normal_map.normal_map", -1))
                    & (caller == self._ids.get("solver.solve", -1)))
        iterations = sum(r.iterations for r in self.solves)
        trials = int(in_solve.sum()) - len(self.solves)
        out["solver.iterations"] = iterations
        out["solver.linesearch_trials"] = trials
        out["solver.linesearch_accept_ratio"] = iterations / trials if trials else 0.0
        steps = Counter(s for r in self.solves for s in r.steps)
        status = Counter(r.status for r in self.solves)
        out.update({f"solver.steps.{s}": steps[s] for s in STEP_KINDS})
        out.update({f"solver.status.{s}": status[s] for s in STATUSES})
        return out
