"""Outside-in phase tracer: wraps the program's public functions in place.

Nothing under ``src/`` is edited.  ``Tracer.installed()`` replaces each
target below in the class that defines it, or, for a module-level
function, in every ``xmodlab`` module (the package included) that binds
the same object, and restores every binding on exit.  Submodules are
reached through ``sys.modules`` because the package attribute
``xmodlab.induce`` is the re-exported function, not the submodule.

A span records its name, start, end, parent span and job.  Self time is a
span's duration minus the time its child spans cover, and minus the
calibration samples taken inside it (``exclude``); a job's self times are
turned into ``ref`` with that job's own kernel time.  Targets of kind
``count`` are too frequent for a span and are only counted.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SPAN, COUNT = "span", "count"


def _walked(args, result):
    return {"perm.GroupHom.walked": args[1].order()}


def _pairs(args, result):
    m, q = args[0].M.order(), args[0].Q.order()
    return {"xmod.validate.pairs": m * q + m * m}


def _cosets(args, result):
    n = result.ncosets
    return {"fp.cosets": n, "fp.table_cells": n * len(result.table[0]) if n else 0}


def _presentation(args, result):
    pres = result.presentation
    return {
        "induce.gens": pres.ngens,
        "induce.relators": len(pres.relators),
        "induce.relator_letters": sum(len(w) for w in pres.relators),
    }


# (layer name, module, attribute path in the module, kind, extra counts)
TARGETS = (
    ("perm.PermGroup", "perm", "PermGroup.__init__", SPAN, None),
    ("perm.GroupHom", "perm", "GroupHom.__init__", SPAN, _walked),
    ("perm.elements", "perm", "PermGroup.elements", SPAN, None),
    ("perm.mul", "perm", "Permutation.__mul__", COUNT, None),
    ("perm.quotient", "perm", "quotient", SPAN, None),
    ("perm.normal_closure", "perm", "normal_closure", SPAN, None),
    ("perm.isomorphic", "perm", "isomorphic", SPAN, None),
    ("perm.fingerprint", "perm", "fingerprint", SPAN, None),
    ("fp.todd_coxeter", "fp", "todd_coxeter", SPAN, _cosets),
    ("fp.perm_rep", "fp", "perm_rep", SPAN, None),
    ("xmod.CrossedModule", "xmod", "CrossedModule.__init__", SPAN, None),
    ("xmod.act", "xmod", "CrossedModule.act", COUNT, None),
    ("xmod.validate", "xmod", "validate", SPAN, _pairs),
    ("xmod.pi1", "xmod", "pi1", SPAN, None),
    ("xmod.pi2", "xmod", "pi2", SPAN, None),
    ("xmod.xmod_isomorphic", "xmod", "xmod_isomorphic", SPAN, None),
    ("xmod.json", "xmod", "xmod_from_json", SPAN, None),
    ("xmod.json", "xmod", "xmod_to_json", SPAN, None),
    ("induce.induced_presentation", "induce", "induced_presentation", SPAN,
     _presentation),
    ("induce.naming", "induce", "small_group_name", SPAN, None),
    ("induce.naming", "induce", "match_catalogue", SPAN, None),
    ("induce.induce", "induce", "induce", SPAN, None),
    ("squares.square", "squares", "square", COUNT, None),
    ("squares.compose", "squares", "compose_h", SPAN, None),
    ("squares.compose", "squares", "compose_v", SPAN, None),
    ("squares.interchange", "squares", "interchange_exhaustive", SPAN, None),
    ("squares.interchange", "squares", "interchange_sampled", SPAN, None),
    ("squares.materialize", "squares", "DoubleGroupoidView.squares", SPAN, None),
    ("squares.gamma", "squares", "gamma", SPAN, None),
    ("cli.main", "cli", "main", SPAN, None),
)

# Per-layer metrics: (name, unit, the end-to-end metric and workload it
# should move).  BENCHMARK.json lists the same names in the same order.
_ALL = "cost_ref on s4_table and s5_induce"
METRICS = (
    ("perm.PermGroup.calls", "count", _ALL),
    ("perm.PermGroup.self_ref", "ref", _ALL + " (Schreier-Sims)"),
    ("perm.GroupHom.calls", "count", _ALL),
    ("perm.GroupHom.self_ref", "ref", _ALL + " (Cayley walks)"),
    ("perm.GroupHom.walked", "count", _ALL + " (sum of source orders)"),
    ("perm.elements.calls", "count", _ALL),
    ("perm.elements.self_ref", "ref", _ALL),
    ("perm.mul.calls", "count", _ALL + "; squares_calculus via gamma and JSON"),
    ("perm.quotient.self_ref", "ref", "cost_ref on s5_induce"),
    ("perm.normal_closure.self_ref", "ref", "cost_ref on s5_induce"),
    ("xmod.pi1.self_ref", "ref", "cost_ref on s5_induce"),
    ("xmod.pi2.self_ref", "ref", "cost_ref on s5_induce"),
    ("perm.isomorphic.self_ref", "ref", "cost_ref on s4_table; setup_s"),
    ("perm.fingerprint.self_ref", "ref", "cost_ref on s4_table; setup_s"),
    ("induce.naming.self_ref", "ref", "cost_ref on s4_table; setup_s"),
    ("xmod.xmod_isomorphic.self_ref", "ref", "cost_ref on s4_table"),
    ("fp.todd_coxeter.self_ref", "ref", "cost_ref, peak_rss_mb on s5_induce"),
    ("fp.cosets", "count", "cost_ref, peak_rss_mb on s5_induce"),
    ("fp.table_cells", "count", "cost_ref, peak_rss_mb on s5_induce"),
    ("fp.perm_rep.self_ref", "ref", "cost_ref, peak_rss_mb on s5_induce"),
    ("induce.induced_presentation.self_ref", "ref", "cost_ref on s5_induce"),
    ("induce.gens", "count", "cost_ref, peak_rss_mb on s5_induce"),
    ("induce.relators", "count", "cost_ref, peak_rss_mb on s5_induce"),
    ("induce.relator_letters", "count", "cost_ref, peak_rss_mb on s5_induce"),
    ("xmod.validate.self_ref", "ref", _ALL),
    ("xmod.validate.pairs", "count", _ALL + " (|M||Q| + |M|^2)"),
    ("xmod.CrossedModule.calls", "count", "cost_ref on squares_calculus, s4_table"),
    ("xmod.CrossedModule.self_ref", "ref", "cost_ref on squares_calculus, s4_table"),
    ("xmod.json.self_ref", "ref", "cost_ref on squares_calculus; setup_s there"),
    ("xmod.act.calls", "count", "cost_ref on squares_calculus"),
    ("squares.square.calls", "count", "cost_ref on squares_calculus"),
    ("squares.compose.calls", "count", "cost_ref on squares_calculus"),
    ("squares.compose.self_ref", "ref", "cost_ref on squares_calculus"),
    ("squares.interchange.self_ref", "ref", "cost_ref on squares_calculus"),
    ("squares.materialize.self_ref", "ref", "cost_ref on squares_calculus"),
    ("squares.gamma.self_ref", "ref", "cost_ref on squares_calculus"),
    ("induce.induce.self_ref", "ref", _ALL + " (remainder, near 0)"),
    ("cli.main.self_ref", "ref", "cost_ref on s4_table (remainder, near 0)"),
    ("trace.overhead", "ratio", "none: traced cost_ref over untraced cost_ref"),
)


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job)
        self.self_s = defaultdict(float)  # (job, layer) -> seconds
        self.counts = defaultdict(int)
        self.job = ""
        self.kernel_s = {}  # job -> its kernel time, for converting to ref
        self._stack = []  # [span index, start, child seconds]
        self._counters = {}

    def _span(self, name, fn, extra):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            result, done = None, False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.self_s[self.job, name] += duration - frame[2]
                self.counts[name + ".calls"] += 1
                spans[index] = (name, frame[1], end, parent, self.job)
                if extra is not None and done:
                    for key, value in extra(args, result).items():
                        self.counts[key] += value

        return wrapper

    def exclude(self, seconds: float) -> None:
        """Bill ``seconds`` spent inside the open span to no layer."""
        if self._stack:
            self._stack[-1][2] += seconds

    def _count(self, name, fn):
        # read once, when the patches come off
        tick = self._counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        patches = []
        try:
            for name, module, path, kind, extra in TARGETS:
                owner_name, _, attr = path.rpartition(".")
                mod = sys.modules["xmodlab." + module]
                owner = getattr(mod, owner_name) if owner_name else mod
                original = owner.__dict__[attr]
                if kind == SPAN:
                    wrapper = self._span(name, original, extra)
                else:
                    wrapper = self._count(name, original)
                if owner_name:
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for modname, other in list(sys.modules.items()):
                    if modname != "xmodlab" and not modname.startswith("xmodlab."):
                        continue
                    for binding, value in list(vars(other).items()):
                        if value is original:
                            patches.append((other, binding, original))
                            setattr(other, binding, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
            for name, counter in self._counters.items():
                self.counts[name + ".calls"] += next(counter)
            self._counters.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{job}\n")

    def metrics(self, overhead: float) -> dict:
        """Every per-layer metric; layers the pass never entered read 0."""
        self_ref = defaultdict(float)
        for (job, layer), seconds in self.self_s.items():
            self_ref[layer + ".self_ref"] += seconds / self.kernel_s[job]
        out = {}
        for name, unit, _ in METRICS:
            if name == "trace.overhead":
                value = overhead
            elif name.endswith(".self_ref"):
                value = self_ref.get(name, 0.0)
            else:
                value = self.counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out
