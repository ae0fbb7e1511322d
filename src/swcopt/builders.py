"""Deterministic-equivalent builders.

Turns a multistage robust model plus scenario data into concrete LPs:

* build_swc          -- the sampled problem with per-prefix certificates and
                        a single worst-case budget row per distinct path;
* build_deterministic-- one fully anticipative path;
* sws_value          -- sampled wait-and-see bound (max over per-path minima);
* swct_value         -- sampled bound with certificates over first-stage
                        draws and a deterministic tail;
* exact_value        -- vertex-tree references for the full worst case (RO
                        mode), the anticipative worst case (RWS), and the
                        relaxation that reveals everything after stage one (RT).

Vertex-based exact references need worst cases at support vertices: true
when T, W and c are constant (uncertainty only in h, as in the shipped
benchmark) or every support is discrete; exact_value checks this.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import LPInstance, SolveResult, SolverError, Status, get_solver, require_optimal
from .model import (LE, DiscreteSupport, MultistageRobustLP, ScenarioPath, ScenarioPaths,
                    UncertaintySet, validate)
from .sampling import ScenarioPrefixTree, build_prefix_tree

DEFAULT_LEAF_CAP = 4096

EXACT_MODES = ("ro", "rws", "rt")

CHUNK_ROWS = 40000  # rows per stacked LP in scenario_costs


@dataclass(frozen=True)
class VariableIndexMap:
    """Column layout of a certificate LP: the budget variable, the
    first-stage block, and one certificate block per tree node."""

    gamma: int
    x1: range
    starts: tuple[np.ndarray, ...]  # starts[t-2][j]: first column of node j's stage-t block
    widths: tuple[int, ...]  # columns per stage-t block, t = 2..H

    def stage_blocks(self, t: int) -> list[range]:
        w = self.widths[t - 2]
        return [range(s, s + w) for s in self.starts[t - 2].tolist()]

    @property
    def blocks(self) -> dict[tuple[int, int], range]:
        """(decision stage t, node index) -> columns."""
        return {(t, j): rng for t in range(2, len(self.starts) + 2)
                for j, rng in enumerate(self.stage_blocks(t))}


def _check_problem(problem: MultistageRobustLP) -> None:
    errs = validate(problem)
    if errs:
        raise ValueError("invalid model: " + "; ".join(errs))


def _check_widths(problem: MultistageRobustLP, paths: ScenarioPaths) -> None:
    if paths.widths != (want := tuple(s.dim for s in problem.uncertainty.stages)):
        raise ValueError(f"paths have stage dimensions {paths.widths}, the model expects {want}")


def _span(starts: np.ndarray, width: int) -> np.ndarray:
    return (starts[:, None] + np.arange(width)).ravel()


class _Assembly:
    """An LP under vectorised assembly.  Every call fills the rows or the
    columns of K equally shaped blocks at once (block k starting at row
    r0[k] or column c0[k]) and records their nonzeros as COO entries."""

    def __init__(self, problem: MultistageRobustLP, nrows: int, ncols: int):
        self.problem = problem
        self.coo = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
        self.senses = np.empty(nrows, dtype="<U2")
        self.rhs = np.empty(nrows)
        self.lower = np.empty(ncols)
        self.obj = np.zeros(ncols)
        self.names = np.empty(ncols, dtype=object)

    def entries(self, r0: np.ndarray, c0: np.ndarray, M: np.ndarray) -> None:
        """Nonzeros of the K stacked blocks M, shape (K, m, n)."""
        k, i, j = np.nonzero(M)
        self.coo.append((r0[k] + i, c0[k] + j, M[k, i, j]))

    def rows(self, r0: np.ndarray, senses, rhs: np.ndarray) -> None:
        idx = _span(r0, len(senses))
        self.senses[idx] = np.tile(np.asarray(senses, dtype="<U2"), len(r0))
        self.rhs[idx] = np.broadcast_to(rhs, (len(r0), len(senses))).ravel()

    def columns(self, t: int, c0: np.ndarray, tag: str, obj=0.0) -> None:
        """Stage-t decision blocks; block k's names get the suffix f"{tag}{k}"
        (no suffix for an empty tag, which names a single block)."""
        nt = self.problem.dims.n[t - 1]
        idx = _span(c0, nt)
        self.lower[idx] = np.tile(np.where(self.problem.nonneg[t - 1], 0.0, -np.inf), len(c0))
        self.obj[idx] = np.broadcast_to(obj, (len(c0), nt)).ravel()
        tags = np.char.add(tag, np.arange(len(c0)).astype(str))[:, None] if tag else ""
        self.names[idx] = np.char.add(self.problem.default_names()[t - 1], tags).ravel()

    def first_stage(self, r0: np.ndarray, c0: np.ndarray, tag: str, obj=0.0) -> None:
        p = self.problem
        self.columns(1, c0, tag, obj)
        self.entries(r0, c0, np.broadcast_to(p.A, (len(r0),) + p.A.shape))
        self.rows(r0, p.senses1, p.h1)

    def stage(self, t: int, X: np.ndarray, r0: np.ndarray, c0: np.ndarray,
              prev: np.ndarray | None, x1: np.ndarray | None = None) -> None:
        """Rows T x^{t-1} + W x^t (sense) h of stage t at K nodes with
        uncertainty X (K, D).  With prev None the previous stage is the
        fixed x1, whose term T x1 moves to the right-hand side."""
        blk = self.problem.stage_block(t)
        T, W, h = blk.T.eval_many(X), blk.W.eval_many(X), blk.h.eval_many(X)
        if prev is None:
            h = h - T @ x1
        else:
            self.entries(r0, prev, T)
        self.entries(r0, c0, W)
        self.rows(r0, blk.senses, h)

    def build(self) -> LPInstance:
        r, c, v = (np.concatenate(parts) for parts in zip(*self.coo))
        order = np.lexsort((c, r))
        nrows, ncols = len(self.rhs), len(self.obj)
        return LPInstance(
            ncols=ncols,
            lower=self.lower,
            upper=np.full(ncols, np.inf),
            obj=self.obj,
            indptr=np.concatenate([[0], np.cumsum(np.bincount(r, minlength=nrows))]),
            indices=c[order],
            data=v[order],
            senses=tuple(self.senses.tolist()),
            rhs=self.rhs,
            names=tuple(self.names.tolist()),
        )


def build_swc(
    problem: MultistageRobustLP, tree: ScenarioPrefixTree
) -> tuple[LPInstance, VariableIndexMap]:
    """Scenario-with-certificates LP over the sampled prefix tree.

    Variables: budget gamma, the first-stage block, then one certificate
    block per tree node in breadth-first order.  Rows: the first-stage
    rows, the stage rows of every node (emitted once however many paths
    share the node), then one worst-case budget row per distinct path.
    """
    _check_problem(problem)
    _check_widths(problem, tree.paths)
    H, n, m = problem.H, problem.dims.n, problem.dims.m
    K = tree.node_counts()
    col0 = np.cumsum([1 + n[0], *np.multiply(K, n[1:])])  # first column of each level, then ncols
    row0 = np.cumsum([m[0], *np.multiply(K, m[1:])])      # first row of each level, then budget rows
    lp = _Assembly(problem, row0[-1] + K[-1], col0[-1])
    lp.lower[0], lp.obj[0], lp.names[0] = -np.inf, 1.0, "gamma"
    lp.first_stage(np.zeros(1, np.int64), np.ones(1, np.int64), "")
    starts = []
    for level in range(1, H):
        t, k = level + 1, np.arange(K[level - 1])
        X = tree.nodes[level - 1]
        c0 = col0[level - 1] + n[t - 1] * k
        # stage-2 rows always read x1 (relaxed groupings carry parent[0] = range(K))
        prev = np.ones_like(k) if level == 1 else starts[-1][tree.parent[level - 1]]
        lp.columns(t, c0, f"_n{level}_")
        lp.stage(t, X, row0[level - 1] + m[t - 1] * k, c0, prev)
        starts.append(c0)
    # budget rows -gamma + c1'x1 + sum_t c_t(xi)'x_t <= 0, one per leaf; c1 kept whole, zeros too
    budget = row0[-1] + np.arange(K[-1])
    lp.coo.append((np.repeat(budget, 1 + n[0]), np.tile(np.arange(1 + n[0]), K[-1]),
                   np.tile(np.concatenate([[-1.0], problem.c1]), K[-1])))
    node = np.arange(K[-1])  # each leaf's node at the current level, walking up to level 1
    for t in range(H, 1, -1):
        cost = problem.stage_block(t).c.eval_many(X)  # X holds the leaves' full paths
        lp.entries(budget, starts[t - 2][node], cost[:, None, :])
        node = tree.parent[t - 2][node]
    lp.rows(budget, (LE,), 0.0)
    return lp.build(), VariableIndexMap(0, range(1, 1 + n[0]), tuple(starts), n[1:])


def build_deterministic(problem: MultistageRobustLP, path: ScenarioPath) -> LPInstance:
    """Fully anticipative single-scenario LP (all stages decided knowing the path)."""
    _check_problem(problem)
    return _separable_blocks(problem, [path], None)[0]


def _separable_blocks(
    problem: MultistageRobustLP,
    paths,
    x1: np.ndarray | None,
) -> tuple[LPInstance, np.ndarray, int]:
    """Block-diagonal stack of per-path LPs (independent blocks, summed
    objective).  With x1 fixed the blocks are the recourse problems over
    stages 2..H; otherwise each block is the full deterministic LP.  Path
    i's columns are tagged "_s{i}".  Returns the LP, the first column of
    every block and the block width."""
    paths = ScenarioPaths.of(paths)
    _check_widths(problem, paths)
    first = 0 if x1 is None else 1  # index of the first decision stage in a block
    col_off = np.cumsum([0, *problem.dims.n[first:]])
    row_off = np.cumsum([0, *problem.dims.m[first:]])
    P, X = len(paths), paths.values
    c0, r0 = col_off[-1] * np.arange(P), row_off[-1] * np.arange(P)
    lp = _Assembly(problem, P * row_off[-1], P * col_off[-1])
    prev = None
    if x1 is None:
        lp.first_stage(r0, c0, "_s", problem.c1)
        prev = c0
    for t in range(2, problem.H + 1):
        s = t - 1 - first
        ct = c0 + col_off[s]
        lp.columns(t, ct, "_s", problem.stage_block(t).c.eval_many(X))
        lp.stage(t, X, r0 + row_off[s], ct, prev, x1)
        prev = ct
    return lp.build(), c0, int(col_off[-1])


def scenario_costs(problem: MultistageRobustLP, paths, solver="highs",
                   x1: np.ndarray | None = None) -> np.ndarray:
    """Optimal cost of every path's own LP; +inf where infeasible.

    With x1 given, the cost is c1'x1 plus the optimal recourse over stages
    2..H along the path.  Paths are stacked into block-diagonal LPs of about
    CHUNK_ROWS rows (the blocks are independent, so per-block optima are
    read off the stacked solution); a stack that is not solved to
    optimality falls back to per-path solves.
    """
    paths = ScenarioPaths.of(paths)
    solve = get_solver(solver)
    const = 0.0 if x1 is None else float(problem.c1 @ x1)
    rows_per = sum(problem.dims.m[1:]) + (problem.dims.m[0] if x1 is None else 0)
    per_chunk = max(1, CHUNK_ROWS // max(1, rows_per))
    out = np.empty(len(paths))
    for lo in range(0, len(paths), per_chunk):
        batch = paths[lo : lo + per_chunk]
        lp, _, width = _separable_blocks(problem, batch, x1)
        res = solve(lp)
        if res.status is Status.OPTIMAL:
            # blocks are contiguous and of equal width; a stacked matmul takes one
            # dot product per block, as the BLAS dot of its slices would
            cost = lp.obj.reshape(-1, 1, width) @ res.x.reshape(-1, width, 1)
            out[lo : lo + len(batch)] = const + cost.ravel()
        else:
            out[lo : lo + len(batch)] = [_single_cost(problem, batch[k : k + 1], solve, x1, const)
                                         for k in range(len(batch))]
    return out


def _single_cost(problem, path: ScenarioPaths, solve, x1, const) -> float:
    res = solve(_separable_blocks(problem, path, x1)[0])
    if res.status is Status.OPTIMAL:
        return const + float(res.objective)
    if res.status is Status.INFEASIBLE:
        return np.inf
    if res.status is Status.UNBOUNDED:
        return -np.inf
    raise SolverError(f"scenario solve ended with {res.status.value}")


def sws_value(problem: MultistageRobustLP, paths, solver="highs") -> tuple[float, int]:
    """Sampled wait-and-see bound: worst per-path anticipative optimum.

    Returns (value, index of the worst path).  A path with no feasible
    anticipative decision is reported by index in the raised error.
    """
    costs = scenario_costs(problem, paths, solver, x1=None)
    bad = np.nonzero(np.isinf(costs) & (costs > 0))[0]
    if bad.size:
        raise RuntimeError(f"deterministic subproblem infeasible for path index {bad[0]}")
    worst = int(np.argmax(costs))
    return float(costs[worst]), worst


def hybrid_paths(uncertainty: UncertaintySet, xi1_samples, tail=None) -> ScenarioPaths:
    """Paths (xi1_i, tail) with a deterministic tail for stages 2..H-1
    (defaults to the per-stage nominal points)."""
    if tail is None:
        tail = [uncertainty.nominal(t) for t in range(2, uncertainty.n_stages + 1)]
    tail = [np.atleast_1d(np.asarray(v, dtype=float)) for v in tail]
    if len(tail) != max(0, uncertainty.n_stages - 1):
        raise ValueError(f"tail covers {len(tail)} stages, expected {uncertainty.n_stages - 1}")
    xi1 = np.asarray(xi1_samples, dtype=float).reshape(len(xi1_samples), -1)
    return ScenarioPaths(np.hstack([xi1, *(np.broadcast_to(v, (len(xi1), v.size)) for v in tail)]),
                         (xi1.shape[1], *(v.size for v in tail)))


def swct_value(
    problem: MultistageRobustLP,
    xi1_samples,
    tail=None,
    solver="highs",
) -> float:
    """Certificate bound over first-stage draws with a deterministic tail.

    Builds the same certificate LP as build_swc on the hybrid paths; only
    xi^1 varies across samples, so certificates are shared per distinct
    first-stage draw at every later stage.
    """
    paths = hybrid_paths(problem.uncertainty, xi1_samples, tail)
    lp, _ = build_swc(problem, build_prefix_tree(paths))
    res = require_optimal(get_solver(solver)(lp), "swct")
    return float(res.objective)


def relaxed_grouping(paths) -> ScenarioPrefixTree:
    """Certificate grouping with nonanticipativity dropped after stage one:
    every distinct full path (a prefix-tree leaf; exact duplicates share)
    keeps its own certificates at every stage.  For the two-stage relaxation."""
    tree = build_prefix_tree(paths)
    full, S = tree.nodes[-1], tree.n_stages
    levels = tuple(full[:, :end] for end in np.cumsum(tree.paths.widths))
    return ScenarioPrefixTree(tree.paths, levels, np.repeat(tree.path_to_node[:, -1:], S, axis=1),
                              (np.arange(len(full)),) * S)


def vertex_paths(uncertainty: UncertaintySet, leaf_cap: int = DEFAULT_LEAF_CAP) -> ScenarioPaths:
    """Cartesian product of per-stage support vertices, in itertools.product
    order (the last stage varies fastest)."""
    per_stage = [np.stack(uncertainty.vertices(t)) for t in range(1, uncertainty.n_stages + 1)]
    total = math.prod(len(v) for v in per_stage)
    if total > leaf_cap:
        raise ValueError(f"vertex tree has {total} leaves, above the cap {leaf_cap}")
    combos = np.indices([len(v) for v in per_stage]).reshape(len(per_stage), total)
    return ScenarioPaths(np.hstack([v[k] for v, k in zip(per_stage, combos)]),
                         tuple(v.shape[1] for v in per_stage))


def exact_value(
    problem: MultistageRobustLP,
    mode: str,
    solver="highs",
    leaf_cap: int = DEFAULT_LEAF_CAP,
) -> float:
    """Vertex-tree reference value.

    ro  -- full worst case with nonanticipative shared certificates (the
           swc builder fed every vertex path);
    rws -- anticipative worst case (max over per-vertex-path optima);
    rt  -- relaxation where everything is revealed after stage one: shared
           first-stage block, per-vertex-path certificates.

    Raises ValueError unless T, W and c are constant or every support is discrete.
    """
    mode = mode.lower()
    if mode not in EXACT_MODES:
        raise ValueError(f"mode must be one of {EXACT_MODES}, got {mode!r}")
    if not all(isinstance(s, DiscreteSupport) for s in problem.uncertainty.stages) and any(
            amap.terms for blk in problem.stages for amap in (blk.T, blk.W, blk.c)):
        raise ValueError("exact references need worst cases at support vertices: T, W and c "
                         "must be constant unless every support is discrete")
    paths = vertex_paths(problem.uncertainty, leaf_cap)
    if mode == "rws":
        value, _ = sws_value(problem, paths, solver)
        return value
    grouping = build_prefix_tree(paths) if mode == "ro" else relaxed_grouping(paths)
    lp, _ = build_swc(problem, grouping)
    res = require_optimal(get_solver(solver)(lp), f"exact {mode}")
    return float(res.objective)


def solve_swc_paths(problem: MultistageRobustLP, paths,
                    solver="highs") -> tuple[float, np.ndarray, float, SolveResult]:
    """Convenience: build the prefix tree and solve; returns
    (value, x1, gamma, raw result)."""
    tree = build_prefix_tree(paths)
    lp, vmap = build_swc(problem, tree)
    res = require_optimal(get_solver(solver)(lp), "swc")
    x1 = res.x[vmap.x1.start : vmap.x1.stop]
    return float(res.objective), x1, float(res.x[vmap.gamma]), res
