"""Spans around swcopt's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
swcopt module that binds it (and ``LPInstance.to_scipy`` on its class).
A wrapper records a span only while an operation is open (``Tracer.op``),
so output checks run between operations leave no spans.  Spans are kept
in memory and written as JSONL at the end of the run.  A span's self time
is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _paths_drawn(arguments, paths):
    return {"paths_drawn": len(paths)}


def _tree_nodes(arguments, tree):
    counts = tree.node_counts()
    return {"tree_nodes": sum(counts), "tree_nodes.stage1": counts[0]}


def _lp_size(arguments, result):
    model = result[0]
    return {"lp_rows": model.nrows, "lp_cols": model.ncols, "lp_nnz": int(model.data.size)}


def _cost_paths(arguments, costs):
    return {"paths": len(costs)}


def _iterations(arguments, res):
    return {"iterations": int(res.iterations)}


def _validated(arguments, violation):
    paths = arguments["L"] * arguments["N"]
    return {"paths_validated": paths, "paths_violated": round(violation * paths)}


#: (module, function, counter) for every traced function; a counter maps the
#: call's arguments (defaults applied) and result to counts.  The span name
#: is the module's short name and the function's name.
TRACED = (
    ("swcopt.sampling", "draw_paths", _paths_drawn),
    ("swcopt.sampling", "build_prefix_tree", _tree_nodes),
    ("swcopt.builders", "build_swc", _lp_size),
    ("swcopt.builders", "scenario_costs", _cost_paths),
    ("swcopt.builders", "sws_value", None),
    ("swcopt.builders", "swct_value", None),
    ("swcopt.builders", "exact_value", None),
    ("swcopt.lp", "LPInstance.to_scipy", None),
    ("swcopt.lp", "solve_highs", _iterations),
    ("swcopt.simplex", "solve_builtin", _iterations),
    ("swcopt.validation", "empirical_violation", _validated),
    ("swcopt.validation", "rvpi", None),
    ("swcopt.inventory", "inventory_benchmark", None),
)

SOLVERS = ("lp.solve_highs", "simplex.solve_builtin")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._op: str | None = None

    @contextmanager
    def op(self, name: str):
        """Record spans of the calls made inside this block under `name`."""
        self._op = name
        try:
            yield
        finally:
            self._op = None

    def install(self) -> None:
        importlib.import_module("swcopt")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "swcopt" or name.startswith("swcopt."))]
        for module_name, qualname, count in TRACED:
            module = sys.modules[module_name]
            span = f"{module_name.rpartition('.')[2]}.{qualname.rpartition('.')[2]}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(span, getattr(cls, attr), count))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(span, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "parent": self._stack[-1]["id"] if self._stack else None,
                    "op": self._op, "name": name, "counts": {}}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                arguments = signature.bind(*args, **kwargs)
                arguments.apply_defaults()
                span["counts"] = count(arguments.arguments, result)
            return result
        return wrapper

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def layer_metrics(self, ops: list[str], first_round: list[str]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.

        Times are per operation, averaged over the operations `ops`; counts
        are totals over the operations `first_round`, which are fixed by
        the seed, so they repeat exactly between runs.
        """
        ops_set, first = set(ops), set(first_round)
        by_id = {s["id"]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        validated = 0
        for s in self.spans:
            duration = s["end"] - s["start"]
            if s["op"] in ops_set:
                busy[s["name"]] += duration
                own[s["name"]] += duration - child_time[s["id"]]
                if s["name"] == "validation.empirical_violation":
                    validated += s["counts"]["paths_validated"]
            if s["op"] in first:
                counts[s["name"]] += 1
                for key, value in s["counts"].items():
                    counts[f"{s['name']}.{key}"] += value
                parent = by_id.get(s["parent"])
                if s["name"] in SOLVERS and parent and parent["name"] == "builders.scenario_costs":
                    counts["scenario_costs.solver_calls"] += 1
            if s["op"] == "setup" and s["name"] == "inventory.inventory_benchmark":
                busy["setup.inventory_benchmark"] += duration
        n = max(1, len(ops))

        def per_op(total):
            return (total / n, "s")

        def count(key):
            return (counts[key], "count")

        return {
            "sampling.draw_paths.s": per_op(busy["sampling.draw_paths"]),
            "sampling.paths_drawn": count("sampling.draw_paths.paths_drawn"),
            "sampling.build_prefix_tree.s": per_op(busy["sampling.build_prefix_tree"]),
            "sampling.tree_nodes": count("sampling.build_prefix_tree.tree_nodes"),
            "sampling.tree_nodes.stage1": count("sampling.build_prefix_tree.tree_nodes.stage1"),
            "builders.build_swc.s": per_op(busy["builders.build_swc"]),
            "builders.lp_rows": count("builders.build_swc.lp_rows"),
            "builders.lp_cols": count("builders.build_swc.lp_cols"),
            "builders.lp_nnz": count("builders.build_swc.lp_nnz"),
            "builders.scenario_costs.self_s": per_op(own["builders.scenario_costs"]),
            "builders.scenario_costs.paths": count("builders.scenario_costs.paths"),
            "builders.scenario_costs.solver_calls": count("scenario_costs.solver_calls"),
            "builders.sws_value.s": per_op(busy["builders.sws_value"]),
            "builders.swct_value.s": per_op(busy["builders.swct_value"]),
            "builders.exact_value.s": per_op(busy["builders.exact_value"]),
            "lp.to_scipy.s": per_op(busy["lp.to_scipy"]),
            "lp.solve_highs.self_s": per_op(own["lp.solve_highs"]),
            "lp.solve_highs.calls": count("lp.solve_highs"),
            "lp.highs_iterations": count("lp.solve_highs.iterations"),
            "simplex.solve_builtin.s": per_op(busy["simplex.solve_builtin"]),
            "simplex.solve_builtin.calls": count("simplex.solve_builtin"),
            "simplex.iterations": count("simplex.solve_builtin.iterations"),
            "validation.empirical_violation.s": per_op(busy["validation.empirical_violation"]),
            "validation.paths_validated": count("validation.empirical_violation.paths_validated"),
            "validation.paths_violated": count("validation.empirical_violation.paths_violated"),
            "validation.us_per_path": (
                1e6 * busy["validation.empirical_violation"] / validated if validated else 0.0, "us"
            ),
            "validation.rvpi.s": per_op(busy["validation.rvpi"]),
            "inventory.inventory_benchmark.s": (busy["setup.inventory_benchmark"], "s"),
        }

