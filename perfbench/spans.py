"""Spans recorded from outside the program, around calls into its layers.

The tracer replaces a function or method with a timing wrapper wherever its
callers look it up: a module-level function is rebound in every `chanhom`
module that holds it by name (for example `wall_faces` in `microsim`,
`macrosim` and `twoscale`), a method is rebound on its class.  Nothing under
`src/` changes; `uninstall` puts every original back.

Each span records the run id, its own id, the parent span's id, the name,
start and end (ns, `time.perf_counter_ns`) and one optional count (the
unknowns of a solve, the bytes of a field CSV).  Spans stay in memory until
the caller writes them out.
"""

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute path, detail) -- detail counts work per call
TRACED = (
    ("geometry.build_micro_geometry", "chanhom.geometry", "build_micro_geometry", None),
    ("grid.build_micro_grid", "chanhom.grid", "build_micro_grid", None),
    ("grid.wall_faces", "chanhom.grid", "wall_faces", None),
    ("linsolve.solve_spd", "chanhom.linsolve", "solve_spd", "unknowns"),
    ("microsim.MicroSimulation.init", "chanhom.microsim", "MicroSimulation.__init__", None),
    ("microsim.step", "chanhom.microsim", "MicroSimulation.step", None),
    ("microsim.explicit_rate", "chanhom.microsim", "MicroSimulation.explicit_rate", None),
    ("macrosim.MacroSimulation.init", "chanhom.macrosim", "MacroSimulation.__init__", None),
    ("macrosim.step", "chanhom.macrosim", "MacroSimulation.step", None),
    ("macrosim.explicit_rate", "chanhom.macrosim", "MacroSimulation.explicit_rate", None),
    ("harness.field_csv", "chanhom.harness", "micro_field_csv", "bytes"),
    ("harness.field_csv", "chanhom.harness", "macro_bulk_csv", "bytes"),
    ("harness.field_csv", "chanhom.harness", "macro_cells_csv", "bytes"),
    ("harness.field_csv", "chanhom.harness", "macro_traces_csv", "bytes"),
    ("harness.StudyWriter.write", "chanhom.harness", "StudyWriter.write", None),
    ("harness.compute_report", "chanhom.harness", "compute_report", None),
    ("harness.rederive_report", "chanhom.harness", "rederive_report", None),
    ("harness.verify_operators", "chanhom.harness", "verify_operators", None),
    ("twoscale.Unfolder.init", "chanhom.twoscale", "Unfolder.__init__", None),
    ("twoscale.ts_error", "chanhom.twoscale", "ts_error", None),
    ("twoscale.shift_diagnostic", "chanhom.twoscale", "shift_diagnostic", None),
    ("twoscale.trace_inequality_diagnostic", "chanhom.twoscale",
     "trace_inequality_diagnostic", None),
)

ROOT_SPAN = "study"
_SOLVE_PARENTS = {"microsim.step": "micro", "macrosim.step": "macro"}

_DETAIL = {
    "unknowns": lambda args, kwargs, out: len(args[1] if len(args) > 1 else kwargs["b"]),
    "bytes": lambda args, kwargs, out: len(out),  # field CSVs are ASCII
}


class Tracer:
    def __init__(self):
        self.spans = []   # [run_id, span_id, parent_id, name, start_ns, end_ns, detail]
        self.run_id = None
        self._stack = []
        self._restore = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name):
        rec = [self.run_id, len(self.spans), self._stack[-1] if self._stack else None,
               name, 0, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec[1])
        rec[4] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn, detail):
        count = _DETAIL[detail] if detail else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if count is not None:
                rec[6] = count(args, kwargs, out)
            return out

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every traced callable where the program looks it up."""
        chanhom_modules = [mod for key, mod in sys.modules.items()
                           if key == "chanhom" or key.startswith("chanhom.")]
        for name, module, attr, detail in TRACED:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, orig, self._wrap(name, orig, detail))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, detail)
            for mod in chanhom_modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._rebind(mod, key, orig, wrapped)

    def _rebind(self, holder, key, orig, wrapped):
        setattr(holder, key, wrapped)
        self._restore.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    def write(self, path):
        keys = ("run", "id", "parent", "name", "start_ns", "end_ns", "detail")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one run id

def span_names():
    return sorted({name for name, *_ in TRACED})


def _pmax(values):
    """Highest percentile with at least ten samples beyond it (max below 11)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def layer_metrics(spans, run_id):
    """Totals, self times, call counts and solve latencies for one traced op.

    Returns the metrics and the set of span names that fired.
    """
    mine = [rec for rec in spans if rec[0] == run_id]
    by_id = {rec[1]: rec for rec in mine}
    child_ns = dict.fromkeys(by_id, 0)
    for rec in mine:
        if rec[2] is not None:
            child_ns[rec[2]] += rec[5] - rec[4]

    total, self_t, calls, detail = {}, {}, {}, {}
    solves = {"": [], "micro": [], "macro": []}
    solve_unknowns = dict.fromkeys(solves, 0)
    for rec in mine:
        name, dur = rec[3], rec[5] - rec[4]
        total[name] = total.get(name, 0) + dur
        self_t[name] = self_t.get(name, 0) + dur - child_ns[rec[1]]
        calls[name] = calls.get(name, 0) + 1
        detail[name] = detail.get(name, 0) + rec[6]
        if name == "linsolve.solve_spd":
            parent = by_id[rec[2]][3] if rec[2] is not None else None
            for side in ("", _SOLVE_PARENTS.get(parent)):
                if side is not None:
                    solves[side].append(dur / 1e6)
                    solve_unknowns[side] += rec[6]

    def sec(table, name):
        return table.get(name, 0) / 1e9

    out = {}
    for side, durs in solves.items():
        pre = "linsolve.solve_spd" + (f".{side}" if side else "")
        out[f"{pre}.s"] = sum(durs) / 1e3
        out[f"{pre}.calls"] = len(durs)
        out[f"{pre}.p50_ms"] = statistics.median(durs) if durs else 0.0
        out[f"{pre}.pmax_ms"] = _pmax(durs) if durs else 0.0
        out[f"{pre}.unknowns"] = solve_unknowns[side]
    for name in ("microsim.MicroSimulation.init", "microsim.explicit_rate",
                 "grid.build_micro_grid", "grid.wall_faces", "geometry.build_micro_geometry",
                 "macrosim.MacroSimulation.init", "macrosim.explicit_rate",
                 "harness.field_csv", "harness.StudyWriter.write", "twoscale.Unfolder.init",
                 "twoscale.ts_error", "twoscale.shift_diagnostic",
                 "twoscale.trace_inequality_diagnostic", "harness.compute_report",
                 "harness.verify_operators"):
        out[f"{name}.s"] = sec(total, name)
    for name in ("microsim.step", "macrosim.step", "harness.rederive_report"):
        out[f"{name}.self_s"] = sec(self_t, name)
    for name in ("microsim.explicit_rate", "grid.wall_faces"):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["harness.field_csv.bytes"] = detail.get("harness.field_csv", 0)

    roots = [rec for rec in mine if rec[3] == ROOT_SPAN]
    root_ns = sum(rec[5] - rec[4] for rec in roots)
    named_ns = sum(child_ns[rec[1]] for rec in roots)
    out["trace.attributed_share"] = named_ns / root_ns if root_ns else 0.0
    return out, set(calls)
