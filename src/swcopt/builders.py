"""Deterministic-equivalent builders.

Turns a multistage robust model plus scenario data into concrete LPs:

* build_swc          -- the sampled problem with per-prefix certificates and
                        a single worst-case budget row per distinct path;
* solve_swc_paths    -- build_swc solved over sampled paths;
* build_deterministic-- one fully anticipative path;
* sws_value          -- sampled wait-and-see bound (max over per-path minima);
* swct_value         -- sampled bound with certificates over first-stage
                        draws and the nominal tail;
* exact_value        -- vertex-tree references for the full worst case (RO
                        mode), the anticipative worst case (RWS), and the
                        relaxation that reveals everything after stage one (RT).

All four certificate LPs (SwC, SwCT, RO, RT) are solved by _solve_grouping,
which picks one of three exact methods by the tree's shape:

* generation over leaves (_generate) when no prefix is shared below stage
  one (continuous demand, hybrid trees, the RT grouping);
* the L-shaped core method (_solve_core) when prefixes are shared, T, W
  and c are constant and some non-leaf node has a single leaf below it: a
  master over the shared nodes' certificates, with every leaf's unshared
  tail entering as optimality and feasibility cuts priced on basis pools;
  the master is an lp.GrowingLP, so on HiGHS each round's cuts are added
  to one model and re-solved from its last basis;
* one solve of the whole LP otherwise (uncertain T, W or c, a tree whose
  every non-leaf node is shared such as the RO vertex tree), and whenever
  one of the methods above gives up (_solve_core lists why).

Vertex-based exact references need worst cases at support vertices: true
when T, W and c are constant (uncertainty only in h, as in the shipped
benchmark) or every support is discrete; exact_value checks this.
"""
from __future__ import annotations

import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .lp import (GrowingLP, LPInstance, SolveResult, SolverError, Status, get_solver,
                 require_optimal)
from .model import (EQ, GE, LE, DiscreteSupport, MultistageRobustLP, ScenarioPath, ScenarioPaths,
                    UncertaintySet, validate)
from .sampling import ScenarioPrefixTree, build_prefix_tree

LEAF_CAP = 4096  # most leaves of a vertex tree

EXACT_MODES = ("ro", "rws", "rt")

CHUNK_ROWS = 40000  # rows per stacked LP in scenario_costs
WALK_PATHS = 16  # unresolved paths walked by dual simplex pivots per pricing pass
WALK_PIVOTS = 64  # pivots a walk may take before its path is solved instead
CERTIFY_BLOCK = 8192  # paths priced on the basis pool at once, bounding memory
POOL_TOL = 1e-9  # relative tolerance of the basis pool's checks
FIRST_LEAVES = 8  # leaves in _solve_grouping's first master
ADD_LEAVES = 20  # most violated leaves added to the working set per round
LEAF_TOL = 1e-9  # absolute budget excess at which a leaf counts as violated
PRICING_SUMS = ("solved", "certified", "pivots", "fallback", "warm")  # summed by solve_swc

log = logging.getLogger(__name__)


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


def _recourse_is_constant(problem: MultistageRobustLP) -> bool:
    """Whether T, W and c of every stage 2..H are constant, so that only the
    right-hand sides h depend on the uncertainty."""
    return not any(amap.terms for blk in problem.stages for amap in (blk.T, blk.W, blk.c))


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

    def entries(self, r0: np.ndarray, c0: np.ndarray, M: np.ndarray) -> None:
        """Nonzeros of the K stacked blocks M, shape (K, m, n)."""
        k, i, j = np.nonzero(M)
        self.coo.append((r0[k] + i, c0[k] + j, M[k, i, j]))

    def rows(self, r0: np.ndarray, senses, rhs: np.ndarray) -> None:
        idx = _span(r0, len(senses))
        self.senses[idx] = np.tile(senses, len(r0))
        self.rhs[idx] = np.broadcast_to(rhs, (len(r0), len(senses))).ravel()

    def columns(self, t: int, c0: np.ndarray, obj=0.0) -> None:
        """Stage-t decision blocks."""
        nt = self.problem.dims.n[t - 1]
        idx = _span(c0, nt)
        self.lower[idx] = np.tile(np.where(self.problem.nonneg[t - 1], 0.0, -np.inf), len(c0))
        self.obj[idx] = np.broadcast_to(obj, (len(c0), nt)).ravel()

    def first_stage(self, r0: np.ndarray, c0: np.ndarray, obj=0.0) -> None:
        p = self.problem
        self.columns(1, c0, obj)
        self.entries(r0, c0, np.broadcast_to(p.A, (len(r0),) + p.A.shape))
        self.rows(r0, p.senses1, p.h1)

    def stage(self, t: int, X: np.ndarray, r0: np.ndarray, c0: np.ndarray,
              prev: np.ndarray | None, state: np.ndarray | None = None) -> None:
        """Rows T x^{t-1} + W x^t (sense) h of stage t at K nodes with
        uncertainty X (K, D).  With prev None the previous stage is the
        fixed state (one vector, or one row per node), whose term T x^{t-1}
        moves to the right-hand side."""
        blk = self.problem.stage_block(t)
        T, W, h = blk.T.eval_many(X), blk.W.eval_many(X), blk.h.eval_many(X)
        if prev is None:
            h = h - (T @ state if state.ndim == 1 else (T @ state[:, :, None])[:, :, 0])
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
            senses=self.senses,
            rhs=self.rhs,
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
    lp.lower[0], lp.obj[0] = -np.inf, 1.0
    lp.first_stage(np.zeros(1, np.int64), np.ones(1, np.int64))
    starts = _certificate_blocks(lp, tree, [np.arange(k) for k in K])
    X = tree.nodes[-1]
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


def _certificate_blocks(lp: _Assembly, tree: ScenarioPrefixTree,
                        picks: list[np.ndarray]) -> list[np.ndarray]:
    """The columns and stage rows of one certificate block per picked node
    (picks[level-1]: node indices of that level, whose parents are picked),
    level by level after gamma, x1 and the first-stage rows.  Returns per
    level every node's first column, -1 where it is not picked."""
    n, m = lp.problem.dims.n, lp.problem.dims.m
    col, row = 1 + n[0], m[0]
    starts = []
    for level, j in enumerate(picks, start=1):
        t, k = level + 1, np.arange(j.size)
        c0 = col + n[t - 1] * k
        # stage-2 rows always read x1 (relaxed groupings carry parent[0] = range(K))
        prev = np.ones_like(k) if level == 1 else starts[-1][tree.parent[level - 1][j]]
        lp.columns(t, c0)
        lp.stage(t, tree.nodes[level - 1][j], row + m[t - 1] * k, c0, prev)
        starts.append(np.full(tree.n_nodes(level), -1))
        starts[-1][j] = c0
        col, row = col + n[t - 1] * j.size, row + m[t - 1] * j.size
    return starts


def build_deterministic(problem: MultistageRobustLP, path: ScenarioPath) -> LPInstance:
    """Fully anticipative single-scenario LP (all stages decided knowing the path)."""
    _check_problem(problem)
    return _separable_blocks(problem, [path], None)[0]


def _state_rows(state: np.ndarray | None, idx) -> np.ndarray | None:
    """The states of the paths idx: one vector shared by every path, or one row each."""
    return state if state is None or state.ndim == 1 else state[idx]


def _separable_blocks(
    problem: MultistageRobustLP,
    paths,
    state: np.ndarray | None,
    s: int = 2,
) -> tuple[LPInstance, np.ndarray, int]:
    """Block-diagonal stack of per-path LPs (independent blocks, summed
    objective).  With state None each block is the full deterministic LP;
    otherwise it is the tail over decision stages s..H given the stage-(s-1)
    decisions `state` (one vector for every path, such as a fixed x1, or one
    row per path), whose term T_s state moves to the right-hand side.
    Returns the LP, the first column of every block and the block width."""
    paths = ScenarioPaths.of(paths)
    _check_widths(problem, paths)
    first = 1 if state is None else s  # first decision stage of a block
    col_off = np.cumsum([0, *problem.dims.n[first - 1:]])
    row_off = np.cumsum([0, *problem.dims.m[first - 1:]])
    P, X = len(paths), paths.values
    c0, r0 = col_off[-1] * np.arange(P), row_off[-1] * np.arange(P)
    lp = _Assembly(problem, P * row_off[-1], P * col_off[-1])
    prev = None
    if state is None:
        lp.first_stage(r0, c0, problem.c1)
        prev = c0
    for t in range(max(first, 2), problem.H + 1):
        ct = c0 + col_off[t - first]
        lp.columns(t, ct, problem.stage_block(t).c.eval_many(X))
        lp.stage(t, X, r0 + row_off[t - first], ct, prev, state)
        prev = ct
    return lp.build(), c0, int(col_off[-1])


def scenario_costs(problem: MultistageRobustLP, paths, solver="highs",
                   x1: np.ndarray | None = None) -> np.ndarray:
    """Optimal cost of every path's own LP; +inf where infeasible.

    With x1 given, the cost is c1'x1 plus the optimal recourse over stages
    2..H along the path.

    When T, W and c of stages 2..H are constant, the paths' LPs differ only
    in their right-hand sides b(xi), and most paths are priced without a
    solve on a pool of optimal bases (_BasisPool).  The pools belong to the
    problem (MultistageRobustLP.pools), one per solver and per LP (the
    whole LP without x1, the recourse LP with it), and last as long as it:
    every pricing call on the problem, this one and those of
    solve_swc_paths, sws_value and swct_value, first prices its paths on
    the bases and rays earlier calls found, so a warm call often needs no
    solve and no walk.  While the pool holds no basis the solver is called
    on one path to seed it (again on the next path while it still holds
    none); an infeasible seed path is seeded instead by its LP at b = 0,
    which z = 0 satisfies.  Each pass then walks up to WALK_PATHS
    unresolved paths (an infeasible seed path first) from the seed by dual
    simplex pivots to bases that price them, adds those bases to the pool,
    and prices every unresolved path on them.  A walk that ends on a row
    with no entering column keeps that row's Farkas ray y in the pool, and
    every path with y'b above its tolerance (_rhs_tol) is infeasible
    without a solve.  A walk that
    takes more than WALK_PIVOTS pivots, or whose basis the pool refuses,
    leaves its path to a one-path solve (a fallback).  Once the pool
    refuses a basis the solver ended on, the call's unresolved paths are
    solved in stacks, as below, not one solve per path.

    Other models, and solvers that report no basis (the external one),
    solve every path in block-diagonal stacks (the blocks are independent,
    so per-block optima are read off the stacked solution) of at most about
    CHUNK_ROWS rows.  A stack that is not solved to optimality is split in
    halves, recursively.  A one-path solve's status is its path's (-inf if
    unbounded; SolverError on an iteration limit).

    Each call logs one DEBUG record on the "swcopt.builders" logger: paths,
    paths solved and certified, the bases and rays its pool holds at the
    end (kept, rays) and the bases the call rejected, LP solves (of them
    seeds and fallbacks), dual simplex pivots, the paths whose own one-path
    solve was not optimal, by status, and the bases the pool held when the
    call began, warm (also as the record's `scenario_costs` dict).
    """
    cost = _path_costs(problem, ScenarioPaths.of(paths), get_solver(solver), x1)[0]
    return cost + (0.0 if x1 is None else float(problem.c1 @ x1))


def _pools(problem: MultistageRobustLP, solve, s: int | None) -> dict:
    """The problem's basis pool for the solver and the per-path LP whose
    first decision stage is s (None for the whole LP, with stage 1): a dict
    with "optimal" -> _BasisPool once a basis was offered, and "bases":
    False once one of the solver's optimal results on the LP carried no
    basis.  The LPs of one s differ only in b(xi, state) when T, W and c
    are constant, so their pool serves every later call; each solver keeps
    its own, so no solver prices on another's bases."""
    return problem.pools.setdefault(solve, {}).setdefault(s, {})


def _path_costs(problem: MultistageRobustLP, paths: ScenarioPaths, solve,
                state: np.ndarray | None, s: int = 2,
                recourse: bool = False) -> tuple[np.ndarray, np.ndarray | None, dict, bool]:
    """scenario_costs' loop over the per-path LPs _separable_blocks(problem,
    paths, state, s) builds, so without the constant c1'x1 of a fixed x1.
    Returns each path's optimal cost, its optimal solution laid out as one
    block (with recourse: the solver's solution for a solved path, z_B =
    B^-1 b(xi) of its pooled basis for a priced one, zeros where the path
    has no optimal solution), the call's statistics, and whether the pool
    could run: T, W and c are constant and every optimal solve had a basis.

    The pool is the problem's for the solver and this LP (_pools), so the
    call first prices every path on the bases and rays earlier calls left
    there and walks from their seed without a solve.  In pooled mode the
    solver sees one path at a time: a seed while the pool holds no basis
    (and its LP at b = 0 when that path is infeasible), or a fallback after
    a walk.  Each unresolved path is priced on the pool's bases and then
    tested against its rays, each new basis or ray once.  An infeasible
    seed path is walked from the b = 0 basis in the first pass, with the
    other paths, so that its ray is in the pool for _solve_core's
    feasibility cut.  After a refused solver
    basis the rest of the call goes to the stacks of non-pooled mode; the
    returned flag does not change.  An optimal solve without a basis is
    recorded in the pools ("bases": False), so that later calls with the
    solver stack the most paths from their first solve."""
    first = 1 if state is None else s
    rows_per = sum(problem.dims.m[first - 1:])
    per_chunk = max(1, CHUNK_ROWS // max(1, rows_per))
    pools = _pools(problem, solve, None if state is None else s)
    pool0 = pools.get("optimal")
    warm, rejected0 = (0, 0) if pool0 is None else (len(pool0.duals), pool0.rejected)
    constant = rows_per > 0 and _recourse_is_constant(problem)
    marks = [0, 0]  # the pool's bases and rays that every unresolved path has been priced on
    done = np.zeros(len(paths), bool)
    out = np.empty(len(paths))
    sol = np.zeros((len(paths), sum(problem.dims.n[first - 1:]))) if recourse else None
    failed, count = Counter(), Counter()
    refused = False  # the pool refused a solver's basis: stack the rest of the call

    def rhs(idx: np.ndarray) -> np.ndarray:
        return _path_rhs(problem, paths.values[idx], _state_rows(state, idx), s)

    def run(idx: np.ndarray) -> tuple[LPInstance, SolveResult]:
        """Solve the paths idx as one stack and record its costs, or a
        one-path stack's status."""
        X, st = paths.values[idx], _state_rows(state, idx)
        lp, _, width = _separable_blocks(problem, ScenarioPaths(X, paths.widths), st, s)
        res = solve(lp)
        count["solves"] += 1
        if res.status is Status.OPTIMAL:
            # blocks are contiguous and of equal width; a stacked matmul takes one
            # dot product per block, as the BLAS dot of its slices would
            Z = res.x.reshape(-1, width)
            out[idx] = (lp.obj.reshape(-1, 1, width) @ Z[:, :, None]).ravel()
            done[idx] = True
            count["solved"] += idx.size
            if recourse:
                sol[idx] = Z
            if res.basis is None:  # the solver reports no basis, now and in later calls
                pools["bases"] = False
        elif idx.size == 1 and res.status in (Status.INFEASIBLE, Status.UNBOUNDED):
            out[idx] = np.inf if res.status is Status.INFEASIBLE else -np.inf
            done[idx] = True
            count["solved"] += 1
            failed[res.status.value] += 1
        elif idx.size == 1:
            raise SolverError(f"scenario solve ended with {res.status.value}")
        return lp, res

    def offer(lp: LPInstance, res: SolveResult, cost: float) -> None:
        """Offer the basis of the solver's result on the one-path LP lp."""
        nonlocal refused
        if "optimal" not in pools:
            pools["optimal"] = _BasisPool(lp)
        pool = pools["optimal"]
        refused |= not pool.offer(pool.local(res.basis), lp.rhs, cost)

    def recheck() -> None:
        pool = pools.get("optimal")
        if pool is not None and marks != [len(pool.duals), len(pool.rays)]:
            _certify(problem, paths, state, s, pool, *marks, np.flatnonzero(~done), out, sol,
                     done)
            marks[:] = len(pool.duals), len(pool.rays)

    def ready() -> bool:
        return "optimal" in pools and bool(pools["optimal"].duals)

    def pooled() -> bool:
        return constant and pools.get("bases", True)

    if pooled():
        recheck()  # bases and rays kept by earlier calls
    while pooled() and not refused and (todo := np.flatnonzero(~done)).size:
        if not ready():
            lp, res = run(todo[:1])
            count["seeds"] += 1
            infeasible = res.status is Status.INFEASIBLE
            if infeasible:
                # z = 0 is feasible at b = 0, and an optimal basis there is dual
                # feasible for every b: walking from it finds the path's ray
                lp = replace(lp, rhs=np.zeros(lp.nrows))
                res = solve(lp)
                count["solves"] += 1
                count["seeds"] += 1
            if res.status is Status.OPTIMAL and res.basis is None:
                pools["bases"] = False
            elif res.status is Status.OPTIMAL:
                offer(lp, res, res.objective if infeasible else out[todo[0]])
            if not (infeasible and ready()):
                continue  # walk before pricing, so the first pricing pass has the walks' bases
        walked = todo[:WALK_PATHS]  # an infeasible seed path among them, for its ray
        count["pivots"] += pools["optimal"].grow(rhs(walked))
        recheck()
        for i in walked[~done[walked]].tolist():
            if refused:
                break
            lp, res = run(np.array([i]))
            count["fallback"] += 1
            if res.status is Status.OPTIMAL and res.basis is not None:
                offer(lp, res, out[i])
    todo = np.flatnonzero(~done)
    for lo in range(0, todo.size, per_chunk):
        pending = [todo[lo : lo + per_chunk]]
        while pending:
            idx = pending.pop()
            if run(idx)[1].status is not Status.OPTIMAL and idx.size > 1:
                pending += [idx[idx.size // 2:], idx[: idx.size // 2]]
    pool = pools.get("optimal")
    stats = {"paths": len(paths), "solved": count["solved"],
             "certified": len(paths) - count["solved"],
             "kept": 0 if pool is None else len(pool.duals),
             "rays": 0 if pool is None else len(pool.rays),
             "rejected": 0 if pool is None else pool.rejected - rejected0,
             "solves": count["solves"], "seeds": count["seeds"], "fallback": count["fallback"],
             "pivots": count["pivots"], "failed": dict(failed), "warm": warm}
    log.debug("scenario_costs: %(paths)d paths, %(solved)d solved, %(certified)d certified, "
              "%(kept)d bases kept, %(rays)d rays, %(rejected)d rejected, %(solves)d solves "
              "(%(seeds)d seeds, %(fallback)d fallback), %(pivots)d pivots, failed paths "
              "%(failed)s, %(warm)d bases warm",
              stats, extra={"scenario_costs": stats})
    return out, sol, stats, pooled()


def _path_rhs(problem: MultistageRobustLP, X: np.ndarray, state: np.ndarray | None,
              s: int = 2) -> np.ndarray:
    """Right-hand sides of the blocks _separable_blocks stacks for the paths
    X (K, D) and state, in its row order, without assembling an LP: (K, rows
    per block).  T must be constant; T_s state moves to stage s's side as there."""
    parts = [] if state is not None else [np.broadcast_to(problem.h1, (len(X), problem.dims.m[0]))]
    for t in range(2 if state is None else s, problem.H + 1):
        blk = problem.stage_block(t)
        h = blk.h.eval_many(X)
        if t == s and state is not None:
            h = h - (blk.T.base @ state if state.ndim == 1 else state @ blk.T.base.T)
        parts.append(h)
    return np.hstack(parts)


def _certify(problem, paths, state, s, pool: "_BasisPool", first: int, first_ray: int,
             todo: np.ndarray, out: np.ndarray, sol: np.ndarray | None, done: np.ndarray) -> None:
    """Price the unresolved paths todo on the pool's bases from `first` on,
    and test the rest against its rays from `first_ray` on, CERTIFY_BLOCK
    paths at a time; mark the priced and separated ones done.  A priced
    path gets its cost in out (and, unless sol is None, its basic solution
    in sol), a path that a ray y separates (y'b above the tolerance) cost
    +inf."""
    rays = np.array(pool.rays[first_ray:]).reshape(-1, pool.m)
    for lo in range(0, todo.size, CERTIFY_BLOCK):
        idx = todo[lo : lo + CERTIFY_BLOCK]
        B = _path_rhs(problem, paths.values[idx], _state_rows(state, idx), s)
        tol = _rhs_tol(B)
        which, cost = pool.price(B, tol, first)
        priced = which >= 0
        out[idx[priced]] = cost[priced]
        if sol is not None:
            sol[idx[priced]] = pool.solutions(B[priced], which[priced])
        infeasible = ~priced & np.any(B @ rays.T > tol[:, None], axis=1)
        out[idx[infeasible]] = np.inf
        done[idx[priced | infeasible]] = True


def _rhs_tol(B: np.ndarray) -> np.ndarray:
    """The basis pool's absolute tolerance for each right-hand side of B
    (K, m): POOL_TOL relative to its largest entry, at least POOL_TOL."""
    return POOL_TOL * np.maximum(1.0, np.max(np.abs(B), axis=1))


class _BasisPool:
    """Optimal bases of the per-path LP  min c'z  s.t.  A z = b,  z_j >= 0 for
    the bounded j and z_j = 0 for the fixed j, when A and c are the same on
    every path and only b varies: the stacked LP's block (columns with
    lower bound 0 or -inf and no upper bound) with one slack per row
    appended, fixed at 0 on an = row.

    A basis B with dual-feasible y = c_B B^-1 is optimal for every b with
    B^-1 b >= 0 on its bounded basic variables and = 0 on its fixed ones
    (its critical region), with cost y'b and basic solution z_B = B^-1 b.
    The first basis (the seed) is the one a solver ends on for one path
    (SolveResult.basis), or for that path's LP at b = 0 when the path is
    infeasible (z = 0 is feasible there, so its optimum is 0 when the LP
    is bounded).  Since c and A do not change, every pooled basis is dual
    feasible for every b, so a path outside the pool's regions is a few
    dual simplex pivots away from the seed (grow).  A basis joins the pool
    only if B is square with a condition number of at most 1/POOL_TOL, y
    is dual feasible, b lies in the region and, for a solver's basis, y'b
    reproduces its own path's cost, each within the relative tolerance
    POOL_TOL.

    A walk that ends on a row with no entering column leaves a Farkas ray
    in the pool (rays): y with y'A <= 0 on the bounded columns and y'A = 0
    on the free ones (within POOL_TOL), so that y'b > 0 holds for no
    feasible b, and y'b above b's tolerance proves b infeasible."""

    def __init__(self, lp: LPInstance):
        self.A = np.hstack([lp._csr().toarray(), np.diag(np.where(lp.senses == GE, -1.0, 1.0))])
        self.c = np.concatenate([lp.obj, np.zeros(lp.nrows)])
        self.fixed = np.concatenate([np.zeros(lp.ncols, bool), lp.senses == EQ])
        self.bounded = np.concatenate([np.isfinite(lp.lower), lp.senses != EQ])
        self.dual_tol = POOL_TOL * max(1.0, float(np.max(np.abs(self.c))))
        self.n, self.m = lp.ncols, lp.nrows
        self.bases: list[np.ndarray] = []     # basic columns of A, ascending
        self.seed: np.ndarray | None = None   # B^-1 of bases[0], where walks start
        # rows of B^-1 whose product with b must be >= 0: the bounded basic
        # variables', and the fixed ones' with both signs
        self.inverses: list[np.ndarray] = []
        self.duals: list[np.ndarray] = []     # y = c_B B^-1
        self.primal: list[tuple[np.ndarray, np.ndarray]] = []  # LP basic columns, their B^-1 rows
        self.hits: list[int] = []            # paths each basis has priced
        self.rays: list[np.ndarray] = []      # Farkas rays y over the rows, found by walks
        self.rejected = 0

    def local(self, basis: np.ndarray) -> np.ndarray:
        """The columns of A of a one-path LP's basis in SolveResult.basis's
        convention (row i's slack is -1-i)."""
        return np.sort(np.where(basis >= 0, basis, self.n - 1 - basis))

    def price(self, B: np.ndarray, tol: np.ndarray,
              first: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """For right-hand sides B (K, m) with tolerances tol (_rhs_tol(B)):
        a basis from `first` on that is primal feasible (-1 where none is),
        and its y'b.  The bases are tried in order of the paths they have
        priced, most first (by index on ties), so that the pool's common
        regions, which depend on the calls it has served, come first."""
        which = np.full(len(B), -1)
        cost = np.full(len(B), np.nan)
        for k in sorted(range(first, len(self.duals)), key=lambda k: -self.hits[k]):
            idx = np.flatnonzero(which < 0)
            idx = idx[np.all(B[idx] @ self.inverses[k].T >= -tol[idx, None], axis=1)]
            which[idx] = k
            cost[idx] = B[idx] @ self.duals[k]
            self.hits[k] += idx.size
        return which, cost

    def solutions(self, B: np.ndarray, which: np.ndarray) -> np.ndarray:
        """The basic solutions of right-hand sides B (K, m) on the bases
        `which`, over the LP's columns (slacks dropped): (K, ncols)."""
        Z = np.zeros((len(B), self.n))
        for k in np.unique(which).tolist():
            idx = np.flatnonzero(which == k)
            cols, rows = self.primal[k]
            Z[np.ix_(idx, cols)] = B[idx] @ rows.T
        return Z

    def offer(self, basis: np.ndarray, b: np.ndarray, cost: float | None = None) -> bool:
        """Add the basis (columns of A, ascending) if it passes the checks
        for right-hand side b; cost None skips the cost check."""
        Bm = self.A[:, basis]
        ok = basis.size == self.m and np.linalg.cond(Bm) <= 1.0 / POOL_TOL
        if ok:
            Binv = np.linalg.inv(Bm)
            y = self.c[basis] @ Binv
            d = self.c - y @ self.A  # reduced costs; a fixed column's may take either sign
            d[basis] = d[self.fixed] = 0.0
            fixed = Binv[self.fixed[basis]]
            inv = np.vstack([Binv[self.bounded[basis]], fixed, -fixed])
            ok = not (np.any(np.where(self.bounded, d, -np.abs(d)) < -self.dual_tol)
                      or np.any(inv @ b < -POOL_TOL * max(1.0, float(np.max(np.abs(b)))))
                      or (cost is not None and abs(y @ b - cost) > POOL_TOL * max(1.0, abs(cost))))
        if not ok:
            self.rejected += 1
            return False
        if not self.bases:
            self.seed = Binv
        self.bases.append(basis)
        self.inverses.append(inv)
        self.duals.append(y)
        self.hits.append(0)
        self.primal.append((basis[basis < self.n], Binv[basis < self.n]))
        return True

    def grow(self, B: np.ndarray) -> int:
        """Walk each right-hand side of B (K, m) from the seed by dual
        simplex pivots until its basis is primal feasible, and offer each
        new basis a walk ends on.  The leaving variable is the violated
        basic one of smallest index (Bland), the entering column the dual
        ratio test's (smallest index on ties); walks on the same basis and
        row share one pivot.  A walk also ends on a row r with no entering
        column, whose ray sign * B^-1[r] (sign that of the violation) joins
        rays, or after WALK_PIVOTS pivots.  Intermediate bases are not
        kept.  Returns the pivots taken."""
        tol = _rhs_tol(B)
        bases, binvs = [self.bases[0]], [self.seed]
        index = {bases[0].tobytes(): 0}
        moves = {}  # (basis, leaving position, direction) -> next basis, -1 for a Farkas row
        at = np.zeros(len(B), np.int64)
        steps = np.zeros(len(B), np.int64)
        live = np.ones(len(B), bool)
        ends = {}  # basis a walk ended on -> one of its right-hand sides
        while live.any():
            for k in np.unique(at[live]).tolist():
                w = np.flatnonzero(live & (at == k))
                basis = bases[k]
                Z = B[w] @ binvs[k].T
                bad = ((self.bounded[basis] & (Z < -tol[w, None]))
                       | (self.fixed[basis] & (np.abs(Z) > tol[w, None])))
                has = bad.any(axis=1)
                if not has.all():
                    ends.setdefault(k, w[~has][0])
                    live[w[~has]] = False
                w, r = w[has], np.argmax(bad[has], axis=1)  # bases are ascending: Bland's row
                sign = np.sign(Z[has, r]).astype(np.int64)
                for row, sgn in set(zip(r.tolist(), sign.tolist())):
                    key = (k, row, sgn)
                    if key not in moves:
                        step = self._pivot(basis, binvs[k], row, sgn)
                        if step is None:
                            self.rays.append(sgn * binvs[k][row])
                        elif step[0].tobytes() not in index:
                            index[step[0].tobytes()] = len(bases)
                            bases.append(step[0])
                            binvs.append(step[1])
                        moves[key] = -1 if step is None else index[step[0].tobytes()]
                    sel = w[(r == row) & (sign == sgn)]
                    if moves[key] < 0:
                        live[sel] = False
                    else:
                        at[sel], steps[sel] = moves[key], steps[sel] + 1
            live &= steps <= WALK_PIVOTS
        pooled = {b.tobytes() for b in self.bases}
        for k, i in ends.items():
            if bases[k].tobytes() not in pooled:
                self.offer(bases[k], B[i])
        return sum(nxt >= 0 for nxt in moves.values())

    def _pivot(self, basis: np.ndarray, Binv: np.ndarray, r: int,
               sign: int) -> tuple[np.ndarray, np.ndarray] | None:
        """One dual simplex pivot: the basic variable at position r leaves
        towards 0 (from below for sign -1, from above, a fixed one, for
        sign +1).  Returns the new basis, ascending, and its B^-1, or None
        if no column can enter."""
        a = sign * (Binv[r] @ self.A)
        d = self.c - (self.c[basis] @ Binv) @ self.A
        enter = np.where(self.bounded, a > POOL_TOL, np.abs(a) > POOL_TOL) & ~self.fixed
        enter[basis] = False
        if not enter.any():
            return None
        cand = np.flatnonzero(enter)
        ratio = np.where(self.bounded[cand], np.maximum(d[cand], 0.0), np.abs(d[cand]))
        q = cand[np.argmin(ratio / np.abs(a[cand]))]
        u = Binv @ self.A[:, q]
        E = Binv - np.outer(u / u[r], Binv[r])  # product-form update of B^-1
        E[r] = Binv[r] / u[r]
        new = basis.copy()
        new[r] = q
        order = np.argsort(new)
        return new[order], E[order]


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


def hybrid_paths(uncertainty: UncertaintySet, xi1_samples) -> ScenarioPaths:
    """Paths (xi1_i, nominal tail): each first-stage draw followed by the
    per-stage nominal points of stages 2..H-1."""
    tail = [uncertainty.nominal(t) for t in range(2, uncertainty.n_stages + 1)]
    xi1 = np.asarray(xi1_samples, dtype=float).reshape(len(xi1_samples), -1)
    return ScenarioPaths(np.hstack([xi1, *(np.broadcast_to(v, (len(xi1), v.size)) for v in tail)]),
                         (xi1.shape[1], *(v.size for v in tail)))


def swct_value(problem: MultistageRobustLP, xi1_samples, solver="highs") -> float:
    """Certificate bound over first-stage draws with the nominal tail: the
    SwC LP of the hybrid paths, one certificate chain per distinct draw."""
    return solve_swc_paths(problem, hybrid_paths(problem.uncertainty, xi1_samples), solver)[0]


def relaxed_grouping(paths) -> ScenarioPrefixTree:
    """Certificate grouping with nonanticipativity dropped after stage one:
    every distinct full path (a prefix-tree leaf; exact duplicates share)
    keeps its own certificates at every stage.  For the two-stage relaxation."""
    tree = build_prefix_tree(paths)
    full, S = tree.nodes[-1], tree.n_stages
    levels = tuple(full[:, :end] for end in np.cumsum(tree.paths.widths))
    return ScenarioPrefixTree(tree.paths, levels, np.repeat(tree.path_to_node[:, -1:], S, axis=1),
                              (np.arange(len(full)),) * S)


def vertex_paths(uncertainty: UncertaintySet) -> ScenarioPaths:
    """Cartesian product of per-stage support vertices, in itertools.product
    order (the last stage varies fastest); ValueError above LEAF_CAP paths."""
    per_stage = [np.stack(uncertainty.vertices(t)) for t in range(1, uncertainty.n_stages + 1)]
    total = math.prod(len(v) for v in per_stage)
    if total > LEAF_CAP:
        raise ValueError(f"vertex tree has {total} leaves, above the cap {LEAF_CAP}")
    combos = np.indices([len(v) for v in per_stage]).reshape(len(per_stage), total)
    return ScenarioPaths(np.hstack([v[k] for v, k in zip(per_stage, combos)]),
                         tuple(v.shape[1] for v in per_stage))


def exact_value(
    problem: MultistageRobustLP,
    mode: str,
    solver="highs",
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
    if not (_recourse_is_constant(problem)
            or all(isinstance(s, DiscreteSupport) for s in problem.uncertainty.stages)):
        raise ValueError("exact references need worst cases at support vertices: T, W and c "
                         "must be constant unless every support is discrete")
    paths = vertex_paths(problem.uncertainty)
    if mode == "rws":
        value, _ = sws_value(problem, paths, solver)
        return value
    grouping = build_prefix_tree(paths) if mode == "ro" else relaxed_grouping(paths)
    return float(_solve_grouping(problem, grouping, get_solver(solver)).objective)


def solve_swc_paths(problem: MultistageRobustLP, paths,
                    solver="highs") -> tuple[float, np.ndarray, float, SolveResult]:
    """Solve the SwC LP over the paths' prefix tree; returns (value, x1,
    gamma, result), result.x in build_swc's column layout for the whole tree.
    The tree is solved as _solve_grouping describes."""
    res = _solve_grouping(problem, build_prefix_tree(paths), get_solver(solver))
    n1 = problem.dims.n[0]
    return float(res.objective), res.x[1 : 1 + n1], float(res.x[0]), res


def _solve_grouping(problem: MultistageRobustLP, grouping: ScenarioPrefixTree,
                    solve) -> SolveResult:
    """build_swc's LP of the grouping, solved; result.x in its column layout.

    One of three methods, each exact:

    * "generated" when every stage-1 node has one leaf (no shared prefix,
      or the relaxed grouping): each leaf's budget row constrains (x1,
      gamma) through its own recourse alone, so the LP is solved by
      generation over leaves (_generate);
    * "core" when prefixes are shared, T, W and c are constant, and some
      non-leaf node has a single leaf below it: an L-shaped master over the
      shared nodes, with every leaf's unshared tail entering as cuts
      (_solve_core);
    * "monolithic", one solve of the whole LP, otherwise: uncertain T, W
      or c, a tree whose every non-leaf node is shared (the RO vertex
      tree), or a method above that gives up and names why.

    result.objective is gamma; for the first two, result.iterations sums
    the master solves and result.time_s is the whole loop.

    Each call logs one DEBUG record on the "swcopt.builders" logger: the
    method, rounds, leaves, the last master's rows and columns and the
    summed master iterations; a generated solve adds the leaves solved and
    certified by pricing over all rounds, a core solve its core nodes per
    stage, its optimality and feasibility cuts, the dominated cuts it
    dropped, and the tails solved and certified by pricing; both add the
    pricing's dual simplex pivots and fallback solves, summed over its
    scenario_costs records (pivots, fallback_solves; all also as the
    record's `solve_swc` dict, which also sums their warm bases, warm, and
    where a core solve also lists the master's iterations per round,
    master_iterations).  A monolithic solve after a method gave up adds
    why, `fallback`.
    """
    K = grouping.node_counts()
    found = None
    if K[0] == K[-1]:
        found = _generate(problem, grouping, solve)
    elif _recourse_is_constant(problem):
        core = _core_nodes(grouping)
        if not all(c.all() for c in core):
            found = _solve_core(problem, grouping, core, solve)
    if not isinstance(found, tuple):
        lp, _ = build_swc(problem, grouping)
        res = require_optimal(solve(lp), "swc")
        stats = {"method": "monolithic", "rounds": 1, "leaves": K[-1], "rows": lp.nrows,
                 "cols": lp.ncols, "iterations": res.iterations}
        if found is not None:
            stats["fallback"] = found
    else:
        res, stats = found
    message = ("solve_swc: %(method)s, %(rounds)d rounds, %(leaves)d leaves, "
               "master %(rows)d x %(cols)d, %(iterations)d iterations")
    if "fallback" in stats:
        message += ", fallback %(fallback)s"
    if stats["method"] == "core":
        message += (", core nodes %(core)s, cuts %(optimality_cuts)d optimality + "
                    "%(feasibility_cuts)d feasibility, %(dropped)d dropped, "
                    "tails %(solved)d solved + %(certified)d certified")
    elif stats["method"] == "generated":
        message += ", pricing %(solved)d solved + %(certified)d certified"
    if stats["method"] != "monolithic":
        message += ", %(pivots)d pivots, %(fallback_solves)d fallback solves"
    log.debug(message, stats, extra={"solve_swc": stats})
    return res


def _generate(problem: MultistageRobustLP, tree: ScenarioPrefixTree,
              solve) -> tuple[SolveResult, dict] | str:
    """_solve_grouping's generation over the leaves of a grouping with one
    leaf per stage-1 node: a master build_swc LP over a working set of
    leaves (the first FIRST_LEAVES at the start), then every leaf priced at
    the master's x1 by scenario_costs' loop, adding the ADD_LEAVES most
    violated leaves outside the set (cost above gamma by more than
    LEAF_TOL) until none is.  The leaves' recourse LPs share A and c in
    every round, only b(xi, x1) moving with x1, and with every other
    pricing call on the problem at a fixed x1 (validation among them): all
    price on the problem's basis pool for that LP (_pools).  So a round
    prices on the bases and rays of earlier rounds and calls and walks from
    their seed without a solve, and a solver that reports no basis gets the
    most leaves per stack once one call has seen that.  The master is a
    relaxation whose (x1, gamma) ends feasible for every leaf, so its value
    is the LP's optimum; x holds each leaf's recourse from the last pricing
    pass.  Each master is the relaxed grouping of its working set, the
    same LP as its prefix tree when no prefix is shared.  Gives up,
    returning "unbounded tail", when a leaf's recourse is unbounded at the
    master's x1 (its budget row is slack, but no recourse vector comes from
    pricing)."""
    t0 = time.perf_counter()
    leaves = ScenarioPaths(tree.nodes[-1], tree.paths.widths)
    work = np.arange(min(FIRST_LEAVES, len(leaves)))
    rounds = iterations = 0
    counts = Counter()
    while True:
        lp, vmap = build_swc(problem, relaxed_grouping(ScenarioPaths(leaves.values[work],
                                                                     leaves.widths)))
        master = require_optimal(solve(lp), "swc master")
        rounds, iterations = rounds + 1, iterations + master.iterations
        x1, gamma = master.x[vmap.x1.start : vmap.x1.stop], float(master.x[vmap.gamma])
        cost, Z, stats, _ = _path_costs(problem, leaves, solve, x1, recourse=True)
        counts.update({k: stats[k] for k in PRICING_SUMS})
        if np.any(cost == -np.inf):
            return "unbounded tail"
        excess = (cost + float(problem.c1 @ x1)) - gamma
        excess[work] = 0.0
        new = np.flatnonzero(excess > LEAF_TOL)
        if not new.size:
            break
        work = np.concatenate([work, new[np.argsort(-excess[new], kind="stable")[:ADD_LEAVES]]])
    # build_swc's layout: gamma, x1, then stage by stage one block per leaf
    cut = np.cumsum([0, *problem.dims.n[1:]])
    x = np.concatenate([[gamma], x1, *(Z[:, a:b].ravel() for a, b in zip(cut[:-1], cut[1:]))])
    res = SolveResult(Status.OPTIMAL, gamma, x, iterations, time.perf_counter() - t0)
    return res, {"method": "generated", "rounds": rounds, "leaves": len(work), "rows": lp.nrows,
                 "cols": lp.ncols, "iterations": iterations, "solved": counts["solved"],
                 "certified": counts["certified"], "pivots": counts["pivots"],
                 "fallback_solves": counts["fallback"], "warm": counts["warm"]}


def _core_nodes(tree: ScenarioPrefixTree) -> list[np.ndarray]:
    """The core of a grouping: for each level 1..S-1, which nodes have at
    least two distinct leaves below them.  A core node's parent is core."""
    below = np.ones(tree.node_counts()[-1])
    core = []
    for level in range(tree.n_stages - 1, 0, -1):
        below = np.bincount(tree.parent[level], weights=below, minlength=tree.n_nodes(level))
        core.insert(0, below >= 2)
    return core


def _core_master(problem: MultistageRobustLP, tree: ScenarioPrefixTree, core: list[np.ndarray],
                 lower: float) -> tuple[LPInstance, list[np.ndarray]]:
    """The core master's structural LP: min gamma over gamma >= lower, x1
    with its first-stage rows, and one certificate block with its stage
    rows per core node (build_swc's layout restricted to the core, without
    budget rows).  Also returns, per level, each node's first master column
    (-1 off the core)."""
    n, m = problem.dims.n, problem.dims.m
    picks = [np.flatnonzero(c) for c in core]
    ncols = 1 + n[0] + sum(len(j) * n[k] for k, j in enumerate(picks, start=1))
    nrows = m[0] + sum(len(j) * m[k] for k, j in enumerate(picks, start=1))
    lp = _Assembly(problem, nrows, ncols)
    lp.lower[0], lp.obj[0] = lower, 1.0
    lp.first_stage(np.zeros(1, np.int64), np.ones(1, np.int64))
    starts = _certificate_blocks(lp, tree, picks)
    return lp.build(), starts


def _tail_duals(pool: "_BasisPool | None", B: np.ndarray,
                infeasible: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The duals of the right-hand sides B (K, m) of the pool's LP, with
    their index in the pool: for feasible ones, those of the pooled basis
    that prices each; for infeasible ones, the pooled ray y that separates
    each the most (largest y'b, the first on a tie).  None when there is
    no pool or a row has none (its basis was rejected or never reported,
    or no ray separates it)."""
    if pool is None:
        return None
    if not infeasible:
        which, _ = pool.price(B, _rhs_tol(B))
        return None if np.any(which < 0) else (which, np.asarray(pool.duals)[which])
    rays = np.array(pool.rays).reshape(-1, pool.m)
    gap = B @ rays.T
    if not rays.size or np.any(np.max(gap, axis=1) <= _rhs_tol(B)):
        return None
    which = np.argmax(gap, axis=1)
    return which, rays[which]


def _tightest(keys: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The rows <= rhs to keep of cuts whose coefficients are equal where
    their keys (K, q) are: in each group of equal keys the one with the
    smallest right-hand side (the first on a tie), which implies the
    others.  Returns their indices, ascending."""
    order = np.lexsort((rhs, *keys.T[::-1]))
    k = keys[order]
    lead = np.concatenate([[True], np.any(k[1:] != k[:-1], axis=1)])
    return np.sort(order[lead])


def _solve_core(problem: MultistageRobustLP, tree: ScenarioPrefixTree, core: list[np.ndarray],
                solve) -> tuple[SolveResult, dict] | str:
    """_solve_grouping's L-shaped method (Van Slyke & Wets 1969) over the
    core of a shared grouping with constant T, W and c.

    The master (_core_master) holds gamma, x1 and the core nodes'
    certificates; it is a GrowingLP, so on HiGHS every round re-solves one
    model from its last basis after the round's cuts.  A leaf whose deepest
    core node is at level d has an unshared tail: its certificates of stages
    d+2..H, which no other leaf uses.  So the whole LP is the master plus, per
    leaf, c1'x1 + its core ancestors' costs + Q(b) <= gamma, with Q the
    optimal tail cost at right-hand side b = b(xi, x_d) (x_d the state at its
    deepest core node, x1 when d = 0).  The tail LPs of one depth share A and
    c, with each other in every round and with every other pricing call on the
    problem whose LP starts at the same stage, so each depth prices on the
    problem's basis pool for that LP (_pools; at depth 0 the one of
    validation at a fixed x1, and the anticipative pass that of sws_value),
    and every dual vector y of a pooled basis gives Q(b) >= y'b for all b.
    Each round prices every tail at the master's point with scenario_costs'
    loop and adds, for each leaf over gamma by more than LEAF_TOL, the
    optimality cut y'b(xi, x_d) with y the duals of the pooled basis that
    prices it, and for each infeasible tail the feasibility cut sigma'b(xi,
    x_d) <= 0 with sigma the pool's Farkas ray that separates it the most
    (_tail_duals): sigma'b <= 0 holds wherever the tail is feasible.  The
    bound gamma >= max over leaves of the anticipative optimum keeps the first
    masters bounded.

    Within a round, the new cuts of one kind from leaves with the same
    deepest core node have the same columns, and those priced on the same
    pooled basis or ray the same duals, so the same coefficients: they differ
    only in their right-hand sides y'h(xi), and the one with the smallest
    implies the rest.  The round adds that one of each group (_tightest)
    and counts the others as dropped.  The master after the round has the
    same feasible set as with every cut, and the loop ends as before, so
    the method stays exact.  Only added cuts count as held, so a leaf whose
    cut was dropped and that is still over later offers its cut again.

    The loop ends when no leaf is over, or over only by a cut the master
    already holds (so within the master solver's tolerance); the master is
    then exact, and x has build_swc's layout: the core blocks from the
    master and every other node's block from its leaf's tail solution.
    Gives up, for the caller to solve the whole LP, and returns why:
    "unbounded tail", "no pooled dual" when no pooled basis prices a tail
    that needs a cut, or no pooled ray separates an infeasible one
    (_tail_duals), or the anticipative pass saw no basis,
    or "repeated feasibility cut" when an infeasible tail only repeats a
    cut the master already holds."""
    t0 = time.perf_counter()
    n, S = problem.dims.n, tree.n_stages
    leaves = ScenarioPaths(tree.nodes[-1], tree.paths.widths)
    anticipative, _, _, pooled = _path_costs(problem, leaves, solve, None)
    if not np.all(np.isfinite(anticipative)):
        return "unbounded tail"  # or an infeasible leaf, whose whole LP is infeasible
    if not pooled:
        return "no pooled dual"  # the solver reports no basis, so no pool can fill
    master, first_col = _core_master(problem, tree, core, float(np.max(anticipative)))
    anc = [np.arange(len(leaves))]  # anc[k-1]: each leaf's level-k node
    for level in range(S - 1, 0, -1):
        anc.insert(0, tree.parent[level][anc[0]])
    depth = sum(c[a].astype(int) for c, a in zip(core, anc))
    groups = []  # per depth d: its leaves, their cut columns and the cuts' cost part
    for d in range(S):
        g = np.flatnonzero(depth == d)
        if g.size:
            cols = np.hstack([np.zeros((g.size, 1), np.int64),
                              np.broadcast_to(np.arange(1, 1 + n[0]), (g.size, n[0])),
                              *(first_col[k - 1][anc[k - 1][g]][:, None] + np.arange(n[k])
                                for k in range(1, d + 1))])
            coef = np.concatenate([[-1.0], problem.c1,
                                   *(problem.stage_block(t).c.base for t in range(2, d + 2))])
            groups.append((d, g, cols, coef))
    seen, tails, master_iterations = set(), [], []
    lp = GrowingLP(master, solve)
    counts = Counter()
    while True:
        res = require_optimal(lp.solve(), "swc core master")
        master_iterations.append(res.iterations)
        gamma, added, tails = float(res.x[0]), 0, []
        for d, g, cols, coef in groups:
            s, ns = d + 2, n[d]
            T = problem.stage_block(s).T.base
            X = leaves.values[g]
            state = res.x[cols[:, -ns:]]  # x1, or the deepest core node's block
            cost, Z, stats, _ = _path_costs(problem, ScenarioPaths(X, leaves.widths), solve,
                                            state, s, recourse=True)
            counts.update({k: stats[k] for k in PRICING_SUMS})
            if np.any(cost == -np.inf):
                return "unbounded tail"
            tails.append(Z)
            over = np.flatnonzero(np.isfinite(cost) & (res.x[cols] @ coef + cost > LEAF_TOL))
            for kind, idx in (("optimal", over), ("feasibility", np.flatnonzero(cost == np.inf))):
                if not idx.size:
                    continue
                found = _tail_duals(_pools(problem, solve, s).get("optimal"),
                                    _path_rhs(problem, X[idx], state[idx], s),
                                    kind == "feasibility")
                if found is None:
                    return "no pooled dual"
                which, Y = found
                new = np.array([(kind, i, y.tobytes()) not in seen
                                for i, y in zip(g[idx].tolist(), Y)], dtype=bool)
                if kind == "feasibility" and not new.all():
                    # the master holds this cut already, within its tolerance
                    return "repeated feasibility cut"
                idx, which, Y = idx[new], which[new], Y[new]
                if not idx.size:
                    continue
                rhs = -np.sum(Y * _path_rhs(problem, X[idx], np.zeros((idx.size, ns)), s), axis=1)
                # one deepest core node (so the same columns) and one pooled
                # basis or ray (so the same duals): the same coefficients
                node = anc[d - 1][g[idx]] if d else np.zeros(idx.size, np.int64)
                keep = _tightest(np.column_stack([node, which]), rhs)
                counts["dropped"] += idx.size - keep.size
                idx, Y, rhs = idx[keep], Y[keep], rhs[keep]
                seen.update((kind, i, y.tobytes()) for i, y in zip(g[idx].tolist(), Y))
                if kind == "optimal":
                    vals = np.tile(coef, (idx.size, 1))
                    vals[:, -ns:] -= Y[:, : T.shape[0]] @ T
                    lp.add_rows(cols[idx], vals, rhs)
                else:
                    lp.add_rows(cols[idx, -ns:], -Y[:, : T.shape[0]] @ T, rhs)
                counts[kind] += idx.size
                added += idx.size
        if not added:
            break
    # build_swc's layout: core blocks from the master, every other block from a tail
    K = tree.node_counts()
    col0 = np.cumsum([1 + n[0], *np.multiply(K, n[1:])])
    x = np.empty(col0[-1])
    x[: 1 + n[0]] = res.x[: 1 + n[0]]
    for level, c in enumerate(core, start=1):
        j = np.flatnonzero(c)
        x[_span(col0[level - 1] + n[level] * j, n[level])] = res.x[_span(first_col[level - 1][j],
                                                                          n[level])]
    for (d, g, _, _), Z in zip(groups, tails):
        off = 0
        for level in range(d + 1, S + 1):
            node = anc[level - 1][g]
            x[_span(col0[level - 1] + n[level] * node, n[level])] = Z[:, off : off + n[level]].ravel()
            off += n[level]
    iterations = sum(master_iterations)
    result = SolveResult(Status.OPTIMAL, gamma, x, iterations, time.perf_counter() - t0)
    return result, {"method": "core", "rounds": len(master_iterations), "leaves": K[-1],
                    "rows": lp.nrows, "cols": lp.ncols, "iterations": iterations,
                    "master_iterations": master_iterations,
                    "core": [int(c.sum()) for c in core],
                    "optimality_cuts": counts["optimal"], "feasibility_cuts": counts["feasibility"],
                    "dropped": counts["dropped"], "solved": counts["solved"],
                    "certified": counts["certified"], "pivots": counts["pivots"],
                    "fallback_solves": counts["fallback"], "warm": counts["warm"]}
