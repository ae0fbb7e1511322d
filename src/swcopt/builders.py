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
which picks generation over leaves or one solve of the whole LP.

Vertex-based exact references need worst cases at support vertices: true
when T, W and c are constant (uncertainty only in h, as in the shipped
benchmark) or every support is discrete; exact_value checks this.
"""
from __future__ import annotations

import logging
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .lp import LPInstance, SolveResult, SolverError, Status, get_solver, require_optimal
from .model import (EQ, LE, DiscreteSupport, MultistageRobustLP, ScenarioPath, ScenarioPaths,
                    UncertaintySet, validate)
from .sampling import ScenarioPrefixTree, build_prefix_tree

DEFAULT_LEAF_CAP = 4096

EXACT_MODES = ("ro", "rws", "rt")

CHUNK_ROWS = 40000  # rows per stacked LP in scenario_costs
FIRST_BATCH = 32  # paths in scenario_costs' first stack when a basis pool runs
CERTIFY_BLOCK = 8192  # paths priced on the basis pool at once, bounding memory
POOL_TOL = 1e-9  # relative tolerance of the basis pool's checks
FIRST_LEAVES = 8  # leaves in _solve_grouping's first master
ADD_LEAVES = 20  # most violated leaves added to the working set per round
LEAF_TOL = 1e-9  # absolute budget excess at which a leaf counts as violated

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
    2..H along the path.  Unresolved paths are solved in block-diagonal
    stacks (the blocks are independent, so per-block optima are read off
    the stacked solution) of at most about CHUNK_ROWS rows; a stack that is
    not solved to optimality falls back to per-path solves.

    When T, W and c of stages 2..H are constant, the paths' LPs differ only
    in their right-hand sides b(xi).  The first stack then holds FIRST_BATCH
    paths and each later one at most twice as many as the one before.  After
    each stack the optimal bases of its solved paths that pass a self-check
    join a pool (_BasisPool).  An unresolved path whose b(xi) keeps a pooled
    basis primal feasible is optimal on that basis, and gets its cost
    y'b(xi) without a solve.  Other models solve every path.

    Each call logs one DEBUG record on the "swcopt.builders" logger: paths,
    paths solved and certified, bases kept and rejected, and the per-path
    fallback solves by status (also as the record's `scenario_costs` dict).
    """
    return _path_costs(problem, ScenarioPaths.of(paths), get_solver(solver), x1)[0]


def _path_costs(problem: MultistageRobustLP, paths: ScenarioPaths, solve,
                x1: np.ndarray | None,
                recourse: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """scenario_costs' loop.  With recourse, also returns each path's
    optimal solution of its LP, laid out as one _separable_blocks block: the
    stack's solution for a solved path, z_B = B^-1 b(xi) of its pooled basis
    for a priced one, and zeros where the path has no optimal solution."""
    const = 0.0 if x1 is None else float(problem.c1 @ x1)
    rows_per = sum(problem.dims.m[1:]) + (problem.dims.m[0] if x1 is None else 0)
    per_chunk = max(1, CHUNK_ROWS // max(1, rows_per))
    pooled = rows_per > 0 and _recourse_is_constant(problem)
    pool = None
    fallback = Counter()
    out = np.empty(len(paths))
    sol = np.zeros((len(paths), sum(problem.dims.n[0 if x1 is None else 1:]))) if recourse else None
    todo = np.arange(len(paths))
    size = min(FIRST_BATCH, per_chunk) if pooled else per_chunk
    solved = 0
    while todo.size:
        batch, todo, size = todo[:size], todo[size:], min(2 * size, per_chunk)
        solved += batch.size
        X = paths.values[batch]
        lp, _, width = _separable_blocks(problem, ScenarioPaths(X, paths.widths), x1)
        res = solve(lp)
        if res.status is Status.OPTIMAL:
            # blocks are contiguous and of equal width; a stacked matmul takes one
            # dot product per block, as the BLAS dot of its slices would
            Z = res.x.reshape(-1, width)
            cost = (lp.obj.reshape(-1, 1, width) @ Z[:, :, None]).ravel()
        else:
            Z, cost = np.zeros((len(batch), width)), np.empty(len(batch))
            for k in range(len(batch)):
                cost[k], single = _single_cost(problem, ScenarioPaths(X[k : k + 1], paths.widths),
                                               solve, x1)
                fallback[single.status.value] += 1
                if single.status is Status.OPTIMAL:
                    Z[k] = single.x
        out[batch] = const + cost
        if recourse:
            sol[batch] = Z
        if pooled and todo.size:
            pool = pool or _BasisPool(_separable_blocks(problem, paths[:1], x1)[0])
            first = len(pool.duals)
            ok = np.isfinite(cost)
            pool.harvest(Z[ok], _path_rhs(problem, X[ok], x1), cost[ok])
            todo = _certify(problem, paths, x1, pool, first, todo, const, out, sol)
    stats = {"paths": len(paths), "solved": solved, "certified": len(paths) - solved,
             "kept": len(pool.duals) if pool else 0, "rejected": pool.rejected if pool else 0,
             "fallback": dict(fallback)}
    log.debug("scenario_costs: %(paths)d paths, %(solved)d solved, %(certified)d certified, "
              "%(kept)d bases kept, %(rejected)d rejected, fallback solves %(fallback)s",
              stats, extra={"scenario_costs": stats})
    return out, sol


def _single_cost(problem, path: ScenarioPaths, solve, x1) -> tuple[float, SolveResult]:
    """The optimal cost of one path's LP (without c1'x1; +inf if infeasible,
    -inf if unbounded) and the solve's result."""
    res = solve(_separable_blocks(problem, path, x1)[0])
    if res.status is Status.OPTIMAL:
        return float(res.objective), res
    if res.status is Status.INFEASIBLE:
        return np.inf, res
    if res.status is Status.UNBOUNDED:
        return -np.inf, res
    raise SolverError(f"scenario solve ended with {res.status.value}")


def _path_rhs(problem: MultistageRobustLP, X: np.ndarray, x1: np.ndarray | None) -> np.ndarray:
    """Right-hand sides of the blocks _separable_blocks stacks for the paths
    X (K, D), in its row order, without assembling an LP: (K, rows per block).
    T must be constant; with x1 fixed, T x1 moves to stage 2's side as there."""
    parts = [] if x1 is not None else [np.broadcast_to(problem.h1, (len(X), problem.dims.m[0]))]
    for t in range(2, problem.H + 1):
        blk = problem.stage_block(t)
        h = blk.h.eval_many(X)
        parts.append(h - blk.T.base @ x1 if t == 2 and x1 is not None else h)
    return np.hstack(parts)


def _certify(problem, paths, x1, pool: "_BasisPool", first: int, todo: np.ndarray,
             const: float, out: np.ndarray, sol: np.ndarray | None) -> np.ndarray:
    """Price the unresolved paths todo on the pool's bases from `first` on,
    CERTIFY_BLOCK paths at a time; writes their costs to out (and, unless sol
    is None, their basic solutions to sol) and returns the paths that are
    still unresolved."""
    if first == len(pool.duals):
        return todo
    left = []
    for lo in range(0, todo.size, CERTIFY_BLOCK):
        idx = todo[lo : lo + CERTIFY_BLOCK]
        B = _path_rhs(problem, paths.values[idx], x1)
        which, cost = pool.price(B, first)
        priced = which >= 0
        out[idx[priced]] = const + cost[priced]
        if sol is not None:
            sol[idx[priced]] = pool.solutions(B[priced], which[priced])
        left.append(idx[~priced])
    return np.concatenate(left)


class _BasisPool:
    """Optimal bases of the per-path LP  min c'z  s.t.  A z = b,  z_j >= 0 for
    the bounded j, when A and c are the same on every path and only b
    varies: the stacked LP's block with one slack per inequality row
    appended (its columns have lower bound 0 or -inf and no upper bound).

    A basis B with dual-feasible y = c_B B^-1 is optimal for every b with
    B^-1 b >= 0 on its bounded basic variables (its critical region), with
    cost y'b and basic solution z_B = B^-1 b.  So a basis read off one
    solved path prices every path in its region.  A basis joins the pool
    only if B is square and nonsingular, y is dual feasible, and B^-1 b
    reproduces its own path's cost; each test uses the relative tolerance
    POOL_TOL."""

    def __init__(self, lp: LPInstance):
        m = lp.nrows
        self.M = np.zeros((m, lp.ncols))
        np.add.at(self.M, (np.repeat(np.arange(m), np.diff(lp.indptr)), lp.indices), lp.data)
        senses = np.asarray(lp.senses, dtype="<U2")
        self.ineq = np.flatnonzero(senses != EQ)
        self.sign = np.where(senses[self.ineq] == LE, 1.0, -1.0)
        S = np.zeros((m, self.ineq.size))
        S[self.ineq, np.arange(self.ineq.size)] = self.sign
        self.A = np.hstack([self.M, S])
        self.c = np.concatenate([lp.obj, np.zeros(self.ineq.size)])
        self.bounded = np.concatenate([np.isfinite(lp.lower), np.ones(self.ineq.size, bool)])
        self.dual_tol = POOL_TOL * max(1.0, float(np.max(np.abs(self.c))))
        self.n = lp.ncols
        self.inverses: list[np.ndarray] = []  # rows of B^-1 of the bounded basic variables
        self.duals: list[np.ndarray] = []     # y = c_B B^-1
        self.primal: list[tuple[np.ndarray, np.ndarray]] = []  # LP basic columns, their B^-1 rows
        self.rejected = 0

    def harvest(self, X: np.ndarray, B: np.ndarray, costs: np.ndarray) -> None:
        """Offer the basis of each solved path (solution row of X, right-hand
        side row of B, cost), skipping paths that a basis kept in this call
        already prices."""
        left = np.arange(len(X))
        while left.size:
            i, left = left[0], left[1:]
            if self._offer(X[i], B[i], costs[i]):
                left = left[self.price(B[left], len(self.duals) - 1)[0] < 0]
            else:
                self.rejected += 1

    def price(self, B: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
        """For right-hand sides B (K, m): the first of the bases from `first`
        on that is primal feasible (-1 where none is), and its y'b."""
        tol = POOL_TOL * np.maximum(1.0, np.max(np.abs(B), axis=1))
        which = np.full(len(B), -1)
        cost = np.full(len(B), np.nan)
        for k in range(first, len(self.duals)):
            idx = np.flatnonzero(which < 0)
            idx = idx[np.all(B[idx] @ self.inverses[k].T >= -tol[idx, None], axis=1)]
            which[idx] = k
            cost[idx] = B[idx] @ self.duals[k]
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

    def _offer(self, x: np.ndarray, b: np.ndarray, cost: float) -> bool:
        # the vertex's nonzero variables, and every free one, come first; a
        # degenerate vertex has fewer than m of them and needs completing
        z = np.concatenate([x, self.sign * (b - self.M @ x)[self.ineq]])
        support = ~self.bounded | (z > POOL_TOL * max(1.0, float(np.max(np.abs(z)))))
        basis = self._basis(np.flatnonzero(support), np.flatnonzero(~support))
        if basis is None:
            return False
        Bm = self.A[:, basis]
        if np.linalg.cond(Bm) > 1.0 / POOL_TOL:
            return False
        Binv = np.linalg.inv(Bm)
        y = self.c[basis] @ Binv
        d = self.c - y @ self.A
        d[basis] = 0.0
        if np.any(np.where(self.bounded, d, -np.abs(d)) < -self.dual_tol):
            return False
        inv = Binv[self.bounded[basis]]
        if np.any(inv @ b < -POOL_TOL * max(1.0, float(np.max(np.abs(b))))):
            return False
        if abs(y @ b - cost) > POOL_TOL * max(1.0, abs(cost)):
            return False
        self.inverses.append(inv)
        self.duals.append(y)
        self.primal.append((basis[basis < self.n], Binv[basis < self.n]))
        return True

    def _basis(self, support: np.ndarray, rest: np.ndarray) -> np.ndarray | None:
        """m columns of A: an independent subset of the support, picked by QR
        with column pivoting, then completed from the rest by the same
        pivoting on their part orthogonal to the columns already picked."""
        from scipy.linalg import qr

        m = self.A.shape[0]
        chosen, Q = support[:0], np.zeros((m, 0))
        if support.size:
            Q, R, piv = qr(self.A[:, support], mode="economic", pivoting=True)
            d = np.abs(np.diag(R))
            r = int(np.count_nonzero(d > POOL_TOL * d[0]))
            chosen, Q = support[piv[:r]], Q[:, :r]
        need = m - chosen.size
        if need and rest.size >= need:
            P = self.A[:, rest] - Q @ (Q.T @ self.A[:, rest])
            _, R, piv = qr(P, mode="economic", pivoting=True)
            chosen = np.concatenate([chosen, rest[piv[:need]]])
        return chosen if chosen.size == m else None


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
    if not (_recourse_is_constant(problem)
            or all(isinstance(s, DiscreteSupport) for s in problem.uncertainty.stages)):
        raise ValueError("exact references need worst cases at support vertices: T, W and c "
                         "must be constant unless every support is discrete")
    paths = vertex_paths(problem.uncertainty, leaf_cap)
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

    When every stage-1 node has one leaf (no shared prefix, or the relaxed
    grouping), each leaf's budget row constrains (x1, gamma) through its own
    recourse alone, so the LP is solved by generation over leaves: a master
    build_swc LP over a working set of leaves (the first FIRST_LEAVES at the
    start), then every leaf priced at the master's x1 by scenario_costs'
    loop, adding the ADD_LEAVES most violated leaves outside the set (cost
    above gamma by more than LEAF_TOL) until none is.  The master is a
    relaxation whose (x1, gamma) ends feasible for every leaf, so its value
    is the LP's optimum.  result.x then holds each leaf's recourse from the
    last pricing pass; result.iterations sums the master solves and
    result.time_s is the whole loop.  A grouping with shared prefixes, or a
    leaf with unbounded recourse at the master's x1, gets one solve of the
    whole LP.

    Each call logs one DEBUG record on the "swcopt.builders" logger: the
    method, rounds, working-set leaves, the last master's rows and columns
    and the summed master iterations (also as the record's `solve_swc` dict).
    """
    K = grouping.node_counts()
    found = _generate(problem, grouping, solve) if K[0] == K[-1] else None
    if found is None:
        lp, _ = build_swc(problem, grouping)
        res = require_optimal(solve(lp), "swc")
        stats = {"method": "monolithic", "rounds": 1, "leaves": K[-1], "rows": lp.nrows,
                 "cols": lp.ncols, "iterations": res.iterations}
    else:
        res, stats = found
    log.debug("solve_swc: %(method)s, %(rounds)d rounds, %(leaves)d leaves, "
              "master %(rows)d x %(cols)d, %(iterations)d iterations",
              stats, extra={"solve_swc": stats})
    return res


def _generate(problem: MultistageRobustLP, tree: ScenarioPrefixTree,
              solve) -> tuple[SolveResult, dict] | None:
    """_solve_grouping's generation over the leaves of a grouping with one
    leaf per stage-1 node; None when a leaf's recourse is unbounded at the
    master's x1 (its budget row is slack, but no recourse vector comes from
    pricing).  Each master is the relaxed grouping of its working set, the
    same LP as its prefix tree when no prefix is shared."""
    t0 = time.perf_counter()
    leaves = ScenarioPaths(tree.nodes[-1], tree.paths.widths)
    work = np.arange(min(FIRST_LEAVES, len(leaves)))
    rounds = iterations = 0
    while True:
        lp, vmap = build_swc(problem, relaxed_grouping(ScenarioPaths(leaves.values[work],
                                                                     leaves.widths)))
        master = require_optimal(solve(lp), "swc master")
        rounds, iterations = rounds + 1, iterations + master.iterations
        x1, gamma = master.x[vmap.x1.start : vmap.x1.stop], float(master.x[vmap.gamma])
        cost, Z = _path_costs(problem, leaves, solve, x1, recourse=True)
        if np.any(cost == -np.inf):
            return None
        excess = cost - gamma
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
                 "cols": lp.ncols, "iterations": iterations}
