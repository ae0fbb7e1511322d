"""The benchmark's workloads, on the five-stage inventory model.

Constructing a workload is its set-up; ``round(k)`` then returns the same
list of operations for every k.  An operation is one timed call into
swcopt's public API, made the way the experiment harness makes it, plus an
untimed check of its output.  Inputs depend only on the benchmark seed:
round k of seed s uses instance seed 1000*s + k, whose training paths come
from the stream [instance seed, 0] and validation paths from
[instance seed, 1], as in the harness.  Modules are called through their
attributes so that the traced run can wrap them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from swcopt import builders, inventory, sampling, validation
from swcopt.complexity import sample_complexity

import checks
import reference

STAGES = 5
BETA = 0.001
SWC_EPS = 0.01            # N = 1884, the largest level the default grid runs
SWC_VALIDATION_PATHS = 300
VALIDATION_BATCH = 2000
FIXED_EPS = 0.3           # N = 63, the fixed solution of the validation workload
FIXED_TRAIN_SEED = [63, 4]  # a solution that violates on about 2% of paths
#: paths per operation checked against the independent recourse LP
SUBSAMPLE = 8


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass(frozen=True)
class Solution:
    value: float
    x1: np.ndarray
    gamma: float


def instance_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def _subsample(n_paths: int, seed: int) -> np.ndarray:
    """Indices of the paths checked against the independent recourse LP."""
    return np.sort(np.random.default_rng([seed, 2]).choice(n_paths, SUBSAMPLE, replace=False))


def _check_violation(problem, sol: Solution, violation: float, n_paths: int, s: int) -> list[str]:
    """Recompute every path's cost of the validation batch [s, 1]: the
    violated share must equal the reported one exactly, and the subsample's
    costs must match the independent recourse LP."""
    paths = sampling.draw_paths(problem.uncertainty, n_paths, [s, 1])
    costs = builders.scenario_costs(problem, paths, x1=sol.x1)
    sub = _subsample(n_paths, s)
    ref = [reference.path_cost(problem, reference.flat_path(paths[i]), sol.x1) for i in sub]
    tol = validation.VIOLATION_TOL
    return (checks.violation_share(violation, costs, sol.gamma, tol)
            + checks.costs_agree(costs[sub], ref, sol.gamma, tol))


def _solve_swc(problem, paths) -> tuple[Solution, int]:
    """SwC solution over the paths, with the solved LP's column count."""
    value, x1, gamma, res = builders.solve_swc_paths(problem, paths)
    return Solution(value, x1, gamma), len(res.x)


class SwcInstances:
    """One seeded experiment instance per round at eps = 0.01, made as the
    harness's instance task makes it: draw N training paths, solve the SwC
    LP over their prefix tree with HiGHS, and validate on a few hundred
    fresh paths; with bounds, also the wait-and-see (sws) and
    deterministic-tail (swct) bounds on the same draws."""

    def __init__(self, seed: int, variant: str, bounds: bool):
        self.seed = seed
        self.bounds = bounds
        self.problem = inventory.inventory_benchmark(STAGES, variant)
        self.ro = builders.exact_value(self.problem, "ro")
        self.N = sample_complexity(SWC_EPS, BETA, inventory.BENCHMARK_N0)

    def round(self, k: int) -> list[Operation]:
        s = instance_seed(self.seed, k)
        return [Operation("instance", lambda: self._instance(s), lambda out: self._check(s, out))]

    def _instance(self, s: int) -> dict:
        problem = self.problem
        train = sampling.draw_paths(problem.uncertainty, self.N, [s, 0])
        sol, cols = _solve_swc(problem, train)
        out = {
            "train": train, "cols": cols, "sol": sol,
            "gap": validation.optimality_gap(sol.value, self.ro),
            "violation": validation.empirical_violation(
                problem, sol.x1, sol.gamma, L=1, N=SWC_VALIDATION_PATHS, seed=[s, 1]
            ),
        }
        if self.bounds:
            out["sws"] = builders.sws_value(problem, train)[0]
            out["swct"] = builders.swct_value(problem, [p.stages[0] for p in train])
        return out

    def _check(self, s: int, out: dict) -> list[str]:
        problem, sol, train = self.problem, out["sol"], out["train"]
        # the tree and the LP are rebuilt here only for their sizes
        tree = sampling.build_prefix_tree(train)
        nodes = tree.node_counts()
        rows = builders.build_swc(problem, tree)[0].nrows
        fails = checks.tree_shape(nodes, self.N, checks.lattice_sizes(problem.uncertainty))
        fails += checks.lp_size(rows, out["cols"], problem.dims, nodes)
        xis = [reference.flat_path(train[i]) for i in _subsample(len(train), s)]
        fails += checks.swc_bounds(
            sol.value, sol.gamma,
            [reference.path_cost(problem, xi) for xi in xis],
            [reference.path_cost(problem, xi, sol.x1) for xi in xis],
        )
        fails += _check_violation(problem, sol, out["violation"], SWC_VALIDATION_PATHS, s)
        if self.bounds:
            fails += checks.bound_chain(sol.value, out["sws"], out["swct"])
        return fails


class FixedSolutionValidation:
    """Validation throughput: each round draws a fresh batch of 2000 paths
    and measures the violation of two fixed solutions on it, an SwC
    solution at N = 63 and the RO vertex-tree solution."""

    def __init__(self, seed: int):
        self.seed = seed
        self.problem = problem = inventory.inventory_benchmark(STAGES)
        self.ro_solution = _solve_swc(problem, builders.vertex_paths(problem.uncertainty))[0]
        n = sample_complexity(FIXED_EPS, BETA, inventory.BENCHMARK_N0)
        train = sampling.draw_paths(problem.uncertainty, n, FIXED_TRAIN_SEED)
        self.swc_solution = _solve_swc(problem, train)[0]

    def round(self, k: int) -> list[Operation]:
        s = instance_seed(self.seed, k)
        return [
            Operation(f"violation-{name}", lambda sol=sol: self._violation(sol, s),
                      lambda v, sol=sol: self._check(sol, s, v))
            for name, sol in (("swc63", self.swc_solution), ("ro", self.ro_solution))
        ]

    def _violation(self, sol: Solution, s: int) -> float:
        return validation.empirical_violation(
            self.problem, sol.x1, sol.gamma, L=1, N=VALIDATION_BATCH, seed=[s, 1]
        )

    def _check(self, sol: Solution, s: int, violation: float) -> list[str]:
        if sol is self.ro_solution:
            fails = checks.close(sol.value, checks.PUBLISHED["ro"], 1e-6, "RO solution value")
            if violation != 0.0:
                fails.append(f"RO solution violated on a {violation!r} share of paths")
        else:
            fails = checks.at_most(violation, FIXED_EPS, "N=63 violation above eps")
        return fails + _check_violation(self.problem, sol, violation, VALIDATION_BATCH, s)


class ExactReferences:
    """The exact vertex-tree references ro, rws, rt and rvpi on the
    builtin simplex, as the acceptance gate computes them.  These inputs
    are fixed: the seed does not enter."""

    def __init__(self, seed: int):
        self.problem = inventory.inventory_benchmark(STAGES)
        self.ro = builders.exact_value(self.problem, "ro")
        self._highs: dict | None = None

    def round(self, k: int) -> list[Operation]:
        return [Operation("references", self._references, self._check)]

    def _references(self) -> dict:
        values = {m: builders.exact_value(self.problem, m, solver="builtin") for m in ("ro", "rws", "rt")}
        values["rvpi"] = validation.rvpi(self.problem, solver="builtin")
        return values

    def _check(self, values: dict) -> list[str]:
        if self._highs is None:
            self._highs = {"ro": self.ro}
            for mode in ("rws", "rt"):
                self._highs[mode] = builders.exact_value(self.problem, mode)
        return checks.exact_references(values, self._highs)


WORKLOADS = {
    "swc-continuous": lambda seed: SwcInstances(seed, "continuous", bounds=False),
    "swc-integer-bounds": lambda seed: SwcInstances(seed, "integer", bounds=True),
    "validation": FixedSolutionValidation,
    "exact-references": ExactReferences,
}
