"""Span tracing of the zipstrata layers from outside the package.

The tracer wraps the public functions of each layer module and the public
methods of ``WeylGroup``, and records one span per wrapped call: name, start,
end, parent span and the command it belongs to.  Spans stay in memory, in
flat arrays, and are written out once at the end of the run.

Modules import with ``from .x import name``, so one function can be bound in
several modules (``cli.zip_from_cochar`` and ``zipdatum.zip_from_cochar``).
Every binding that refers to a wrapped function is replaced.  The tracer
reads only arguments and public results, never private state of the library.
"""
from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

import zipstrata

LAYERS = ("rootsystem", "weyl", "zipdatum", "strata", "cones", "sections",
          "golden", "cli")

# Vector arithmetic called inside inner loops; it is not a layer entry point,
# and wrapping it would multiply its cost.  Its time counts to the caller.
NOT_WRAPPED = {"rootsystem": {"dot", "vadd", "vneg"}}


class Tracer:
    def __init__(self):
        self.names = []                 # span name by name id
        self._name_ids = {}
        self.name_id = array("i")       # per span: index into names
        self.parent = array("i")        # per span: parent span index, -1 at the top
        self.command = array("i")       # per span: command index
        self.start = array("q")         # per span: perf_counter_ns at entry
        self.end = array("q")           # per span: perf_counter_ns at exit
        self.stack = []
        self.current = -1               # index of the running command
        self.commands = []              # (command id, first span, end span)
        self.solver = {}                # span index -> (rows in, feasible)
        self.bruhat_pairs = set()       # distinct (u, w) of the running command
        self.bruhat_distinct = []       # per command: distinct (u, w) pairs

    # -- recording ---------------------------------------------------------------
    def begin_command(self, cid):
        self.current = len(self.commands)
        self.commands.append([cid, len(self.name_id), len(self.name_id)])

    def end_command(self):
        self.commands[self.current][2] = len(self.name_id)
        self.bruhat_distinct.append(len(self.bruhat_pairs))
        self.bruhat_pairs = set()

    def _wrap(self, fn, span_name, hook=None):
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        ids, parents, commands = self.name_id, self.parent, self.command
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            commands.append(tracer.current)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _solver_hook(self, idx, args, result):
        self.solver[idx] = (len(args[0]), result.feasible)

    def _bruhat_hook(self, idx, args, result):
        self.bruhat_pairs.add((args[1], args[2]))

    def install(self):
        """Wrap every layer entry point at every place its name is bound."""
        modules = {layer: importlib.import_module("zipstrata." + layer) for layer in LAYERS}
        weyl_group = modules["weyl"].WeylGroup
        hooks = {"cones.feasible_strict": self._solver_hook,
                 "weyl.bruhat_leq": self._bruhat_hook}
        wrapped = {}                    # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not inspect.isfunction(obj) or obj.__module__ != mod.__name__
                        or name.startswith("_") or name in NOT_WRAPPED.get(layer, ())):
                    continue
                if layer == "weyl" and hasattr(weyl_group, name):
                    continue            # module-level alias delegating to the method
                span = "%s.%s" % (layer, name)
                wrapped[id(obj)] = (obj, self._wrap(obj, span, hooks.get(span)))
        for name, obj in list(vars(weyl_group).items()):
            if inspect.isfunction(obj) and (name == "__init__" or not name.startswith("_")):
                span = "weyl.WeylGroup.init" if name == "__init__" else "weyl." + name
                setattr(weyl_group, name, self._wrap(obj, span, hooks.get(span)))
        for mod in (zipstrata, *modules.values()):
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    # -- aggregation -------------------------------------------------------------
    def command_metrics(self, k):
        """Per-layer numbers for command k, times in seconds."""
        _cid, lo, hi = self.commands[k]
        names, parents = self.names, self.parent
        child_ns = [0] * (hi - lo)      # per span: time covered by its children
        context = [None] * (hi - lo)    # per span: layer of its nearest non-weyl span
        calls, covered, cover_end = {}, {}, {}
        self_ns = dict.fromkeys(LAYERS, 0)
        strata_compose = 0
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child_ns[p - lo] += self.end[i] - self.start[i]
        for i in range(lo, hi):
            name = names[self.name_id[i]]
            layer = name.split(".", 1)[0]
            dur = self.end[i] - self.start[i]
            self_ns[layer] += dur - child_ns[i - lo]
            calls[name] = calls.get(name, 0) + 1
            # same-name spans either nest or are disjoint: count the outermost
            if self.start[i] >= cover_end.get(name, 0):
                covered[name] = covered.get(name, 0) + dur
                cover_end[name] = self.end[i]
            p = parents[i]
            if layer != "weyl":
                context[i - lo] = layer
            elif p >= lo:
                context[i - lo] = context[p - lo]
            if name == "weyl.compose" and context[i - lo] == "strata":
                strata_compose += 1
        solver = [v for i, v in self.solver.items() if lo <= i < hi]

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return covered.get(name, 0) / 1e9

        return {
            "weyl.compose.calls": c("weyl.compose"),
            "weyl.compose.s": s("weyl.compose"),
            "weyl.inverse.calls": c("weyl.inverse"),
            "weyl.galois.calls": c("weyl.galois"),
            "weyl.length.calls": c("weyl.length"),
            "weyl.self_s": self_ns["weyl"] / 1e9,
            "weyl.bruhat_leq.calls": c("weyl.bruhat_leq"),
            "weyl.bruhat_leq.distinct": self.bruhat_distinct[k],
            "weyl.elements.calls": c("weyl.elements"),
            "weyl.elements.s": s("weyl.elements"),
            "weyl.min_coset_reps.s": s("weyl.min_coset_reps"),
            "weyl.lower_reflections.calls": c("weyl.lower_reflections"),
            "weyl.lower_reflections.s": s("weyl.lower_reflections"),
            "strata.hasse_diagram.s": s("strata.hasse_diagram"),
            "strata.self_s": self_ns["strata"] / 1e9,
            "strata.weyl_compose_calls": strata_compose,
            "strata.cross_label.calls": c("strata.cross_label"),
            "cones.feasible_strict.calls": c("cones.feasible_strict"),
            "cones.feasible_strict.s": s("cones.feasible_strict"),
            "cones.rows_in": sum(n for n, _f in solver),
            "cones.rows_in_max": max((n for n, _f in solver), default=0),
            "cones.infeasible": sum(1 for _n, f in solver if not f),
            "cones.kernel_basis.calls": c("cones.kernel_basis"),
            "sections.purity_report.s": s("sections.purity_report"),
            "sections.section_cone.calls": c("sections.section_cone"),
            "sections.n_alpha.calls": c("sections.n_alpha"),
            "sections.n_alpha.s": s("sections.n_alpha"),
            "sections.r_w.calls": c("sections.r_w"),
            "sections.self_s": self_ns["sections"] / 1e9,
            "rootsystem.build_root_datum.calls": c("rootsystem.build_root_datum"),
            "rootsystem.build_root_datum.s": s("rootsystem.build_root_datum"),
            "weyl.WeylGroup.init.calls": c("weyl.WeylGroup.init"),
            "zipdatum.zip_from_cochar.calls": c("zipdatum.zip_from_cochar"),
            "zipdatum.zip_from_cochar.s": s("zipdatum.zip_from_cochar"),
            "zipdatum.flag_datum.s": s("zipdatum.flag_datum"),
            "zipdatum.validate_frame.calls": c("zipdatum.validate_frame"),
            "golden.golden_report.s": s("golden.golden_report"),
            "cli.main.self_s": self_ns["cli"] / 1e9,
            "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
        }

    def write(self, path):
        """Write every span, once, as JSON columns."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "commands": self.commands,
                       "name_id": self.name_id.tolist(), "parent": self.parent.tolist(),
                       "command": self.command.tolist(),
                       "start_ns": self.start.tolist(), "end_ns": self.end.tolist()}, fh)


def pass_metrics(per_command):
    """Sum the per-command numbers of one pass into per-layer metrics."""
    out = {}
    for m in per_command:
        for key, value in m.items():
            if key == "self_s":
                continue
            if key == "cones.rows_in_max":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    bruhat = out.pop("weyl.bruhat_leq.distinct")
    infeasible = out.pop("cones.infeasible")
    calls = out["weyl.bruhat_leq.calls"]
    solves = out["cones.feasible_strict.calls"]
    out["weyl.bruhat_leq.distinct_ratio"] = bruhat / calls if calls else 0.0
    out["cones.infeasible_ratio"] = infeasible / solves if solves else 0.0
    return out
