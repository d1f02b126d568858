"""Per-module spans for a traced benchmark unit, recorded from outside tsvplan.

Each public function of a tsvplan module is replaced, at every module
attribute that refers to it (the names its callers look up), by a wrapper
that times the call. Spans nest through an explicit stack, so each span's
self time is its duration minus the time its child spans cover. Only
per-name totals and a few counts are kept in memory; `report()` returns them
when the unit ends.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "design_io": ["parse_design", "emit_design", "write_design",
                  "write_thermal_maps", "write_report", "format_trace"],
    "model": ["move_farm", "reshape_farm", "validate"],
    "thermal": ["rasterize", "build_network", "system_matrix",
                "solve_steady_state", "couple_leakage", "solve_design",
                "field_stats"],
    "metrics": ["cost", "total_efficiency", "adjacent_block_pairs",
                "pair_efficiency", "path_conductivity", "wirelength",
                "floorplan_area", "ratio_penalty"],
    "anneal": ["gen_move", "sa_placement", "calibrate_t_initial", "layer_pass",
               "summarize", "optimize_stack"],
    "sweeps": ["run_sweep", "with_memory_layers", "set_farm_conductivity",
               "format_sweep_table"],
}
METHODS = {"anneal": {"Evaluator": ["solve", "cost"]},
           "metrics": {"CostWeights": ["calibrated"]}}
COMMANDS = ["optimize", "sweep"]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []   # one [child seconds] cell per open span

    def wrap(self, fn, name, observe=None):
        """Time every call of fn under `name`; observe(args, kwargs, result,
        error) may return another span name (to split one function's calls)
        and add to self.counts."""
        stack = self._stack

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                key = name
                if observe is not None:
                    key = observe(args, kwargs, result, error) or name
                self.calls[key] += 1
                self.total_s[key] += duration
                self.self_s[key] += duration - cell[0]

        return traced

    def install(self):
        """Wrap the public functions of every layer where tsvplan looks them up."""
        import tsvplan.cli as cli
        modules = [m for n, m in sys.modules.items()
                   if n == "tsvplan" or n.startswith("tsvplan.")]
        for layer, names in LAYERS.items():
            source = sys.modules[f"tsvplan.{layer}"]
            for fname in names:
                fn = getattr(source, fname)
                wrapper = self.wrap(fn, f"{layer}.{fname}", self._observer(fname, fn))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
        for layer, classes in METHODS.items():
            source = sys.modules[f"tsvplan.{layer}"]
            for cname, methods in classes.items():
                cls = getattr(source, cname)
                for mname in methods:
                    raw = inspect.getattr_static(cls, mname)
                    name = f"{layer}.{cname}.{mname}"
                    if isinstance(raw, classmethod):
                        setattr(cls, mname, classmethod(self.wrap(raw.__func__, name)))
                    else:
                        setattr(cls, mname, self.wrap(raw, name))
        for command in COMMANDS:
            cmd = cli.main.commands[command]
            cmd.callback = self.wrap(cmd.callback, f"cli.{command}")

    def _observer(self, fname, fn):
        counts = self.counts
        if fname == "solve_steady_state":
            signature = inspect.signature(fn)

            def observe(args, kwargs, result, error):
                network = signature.bind(*args, **kwargs).arguments["network"]
                counts["thermal.unknowns_total"] += network.grid.num_cells
            return observe
        if fname in ("couple_leakage", "solve_design"):
            # a design solve is cold when the caller passes no warm field x0
            signature = inspect.signature(fn)

            def observe(args, kwargs, result, error):
                if result is not None and fname == "couple_leakage":
                    counts["thermal.leakage_iters"] += result.iterations
                warm = signature.bind(*args, **kwargs).arguments.get("x0") is not None
                return f"thermal.{fname}.{'warm' if warm else 'cold'}"
            return observe
        if fname in ("move_farm", "reshape_farm"):
            def observe(args, kwargs, result, error):
                counts["model.legal"] += error is None
            return observe
        if fname == "run_sweep":
            def observe(args, kwargs, result, error):
                for point in result or ():
                    counts["sweeps.points"] += 1
                    counts["sweeps.failed_points"] += point.status != "ok"
            return observe
        return None

    def report(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}
