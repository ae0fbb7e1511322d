"""Self-contained two-phase revised simplex with Bland's anti-cycling rule.

Desk-scale by design: dense basis inverse maintained by product-form
updates with a full refactorization every 64 pivots.  The standard form is
built from the LP's sparse rows with array operations; each independent
block (connected component of rows and columns) is solved on its own, and
one whose standardized size exceeds the limit is refused before it is made
dense (route those to HiGHS or an external solver) unless force=True.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .lp import LPInstance, SolveResult, SolverError, Status, row_excess
from .model import EQ, LE

if TYPE_CHECKING:
    from scipy import sparse

REFACTOR_EVERY = 64
DEFAULT_SIZE_LIMIT = 6000
_PIVOT_TOL = 1e-9
# a stack takes the first of these that any of its blocks reports
_STATUS_ORDER = (Status.INFEASIBLE, Status.ITERATION_LIMIT, Status.UNBOUNDED)


class BuiltinSizeLimitError(SolverError):
    """Raised when an instance is too large for the dense builtin solver."""


@dataclass
class _StandardForm:
    """A z = b, z >= 0, min c'z, with the original x = const + R @ z[:R.shape[1]].
    Rows: the LP's nonempty ones, then a bound row per boxed column."""

    A: sparse.csr_matrix    # (m, n), before the flip below
    flip: np.ndarray        # rows negated, in the dense blocks, so that b >= 0
    b: np.ndarray
    c: np.ndarray
    slack_plus: np.ndarray  # per row: slack column with +1 coefficient, or -1
    R: sparse.csr_matrix    # (ncols, structural columns): +-1 per column, two if free
    const: np.ndarray       # bound shifts
    var: np.ndarray         # per column: its LP column, or -1-i for row i's slack,
                            # or for a bound row's slack, its boxed column
    row_var: np.ndarray     # per row: -1-i for the LP's row i, a bound row its column
    boxed: np.ndarray       # per LP column
    empty: np.ndarray       # the LP's empty rows

    def dense(self, rows, cols) -> np.ndarray:
        A = self.A[rows][:, cols].toarray()
        A[self.flip[rows]] *= -1.0
        return A

    def original(self, z: np.ndarray) -> np.ndarray:
        return self.const + self.R @ z[: self.R.shape[1]]

    def basis(self, basic: np.ndarray) -> np.ndarray:
        """The LP's basis (SolveResult.basis) of this form's basis `basic`
        (columns, and -1-r for a dependent row r the solve dropped): a boxed
        column is basic only with its bound row's slack, else it is at a
        bound; the slacks of dropped and of empty rows are basic."""
        var = np.concatenate([self.var[basic[basic >= 0]], self.row_var[-1 - basic[basic < 0]]])
        count = np.bincount(var[var >= 0], minlength=self.boxed.size)
        return np.sort(np.concatenate([np.flatnonzero(count > self.boxed), var[var < 0],
                                       -1 - self.empty]))


def _standardize(lp: LPInstance) -> _StandardForm | None:
    """Rewrite into equality standard form with nonnegative variables.

    Returns None when a trivially empty row is inconsistent (infeasible).
    """
    from scipy import sparse

    lo, hi = lp.lower, lp.upper
    free = np.isinf(lo) & np.isinf(hi)
    upper_only = np.isinf(lo) & ~free
    boxed = ~np.isinf(lo) & ~np.isinf(hi)
    const = np.where(free, 0.0, np.where(upper_only, hi, lo))
    width = 1 + free
    start = np.cumsum(width) - width
    nstd = int(width.sum())
    sign = np.ones(nstd)
    sign[start[upper_only]] = -1.0
    sign[start[free] + 1] = -1.0
    R = sparse.csr_matrix((sign, np.arange(nstd), np.concatenate([[0], np.cumsum(width)])),
                          shape=(lp.ncols, nstd))

    rows = lp._csr()
    AR = rows @ R  # sums each row's terms in stored order and drops exact zeros
    r = lp.rhs - rows @ const
    empty = np.diff(AR.indptr) == 0
    if (empty & ~(row_excess(lp.senses, 0.0, r) <= 1e-12)).any():
        return None

    nbox = int(boxed.sum())
    box = sparse.csr_matrix((np.ones(nbox), start[boxed], np.arange(nbox + 1)), shape=(nbox, nstd))
    senses = np.concatenate([lp.senses[~empty], np.full(nbox, LE)])
    b = np.concatenate([r[~empty], (hi - lo)[boxed]])
    has_slack = senses != EQ
    n_slack = int(has_slack.sum())
    slack = sparse.csr_matrix(
        (np.where(senses[has_slack] == LE, 1.0, -1.0), np.arange(n_slack),
         np.concatenate([[0], np.cumsum(has_slack)])), shape=(senses.size, n_slack))
    A = sparse.hstack([sparse.vstack([AR[~empty], box]), slack], format="csr")
    flip = b < 0
    b[flip] = -b[flip]
    # the slack enters with +1 on a <= row, or on a >= row that the flip negated
    slack_plus = np.where(has_slack & ((senses == LE) != flip), nstd + np.cumsum(has_slack) - 1, -1)
    c = np.concatenate([R.T @ lp.obj, np.zeros(n_slack)])
    row_var = np.concatenate([-1 - np.flatnonzero(~empty), np.flatnonzero(boxed)])
    var = np.concatenate([np.repeat(np.arange(lp.ncols), width), row_var[has_slack]])
    return _StandardForm(A, flip, b, c, slack_plus, R, const, var, row_var, boxed,
                         np.flatnonzero(empty))


class _Core:
    """Revised simplex over one coefficient matrix, shared by both phases."""

    def __init__(self, A: np.ndarray, b: np.ndarray, tol: float, max_iter: int):
        self.A = A
        self.b = b
        self.tol = tol
        self.max_iter = max_iter
        self.iterations = 0
        self.basis: np.ndarray
        self.B_inv: np.ndarray
        self.xB: np.ndarray

    def set_basis(self, basis: np.ndarray) -> None:
        self.basis = basis.copy()
        self.refactor()

    def refactor(self) -> None:
        B = self.A[:, self.basis]
        try:
            self.B_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivots
            raise SolverError("basis became singular") from exc
        self.xB = self.B_inv @ self.b

    def run(self, c: np.ndarray, allowed: np.ndarray, on_leave=None) -> Status:
        """Minimize c'x from the current basis; Bland's rule throughout."""
        A, tol = self.A, self.tol
        since_refactor = 0
        while True:
            if self.iterations >= self.max_iter:
                return Status.ITERATION_LIMIT
            if since_refactor >= REFACTOR_EVERY:
                self.refactor()
                since_refactor = 0
            y = c[self.basis] @ self.B_inv
            reduced = c - y @ A
            reduced[~allowed] = 0.0
            reduced[self.basis] = 0.0
            entering = np.nonzero(reduced < -tol)[0]
            if entering.size == 0:
                return Status.OPTIMAL
            j = int(entering[0])
            d = self.B_inv @ A[:, j]
            pos = d > _PIVOT_TOL
            if not pos.any():
                return Status.UNBOUNDED
            xB_pos = np.maximum(self.xB, 0.0)
            ratios = np.full(d.shape, np.inf)
            ratios[pos] = xB_pos[pos] / d[pos]
            theta = ratios.min()
            ties = np.nonzero(ratios <= theta + 1e-12 * (1.0 + abs(theta)))[0]
            r = int(ties[np.argmin(self.basis[ties])])
            leaving = int(self.basis[r])
            self.basis[r] = j
            self.xB -= theta * d
            self.xB[r] = theta
            piv = d[r]
            self.B_inv[r] /= piv
            d_others = d.copy()
            d_others[r] = 0.0
            self.B_inv -= np.outer(d_others, self.B_inv[r])
            self.iterations += 1
            since_refactor += 1
            if on_leave is not None:
                on_leave(leaving)


def _blocks(A) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, columns) of each connected component of A's row-column graph."""
    from scipy import sparse
    from scipy.sparse import csgraph

    m, n = A.shape
    coo = A.tocoo()
    graph = sparse.coo_matrix((np.ones(coo.nnz), (coo.row, m + coo.col)), shape=(m + n, m + n))
    _, labels = csgraph.connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    return [(g[g < m], g[g >= m] - m) for g in groups]


def solve_builtin(lp: LPInstance, tol: float = 1e-9, max_iter: int | None = None,
                  size_limit: int = DEFAULT_SIZE_LIMIT, force: bool = False) -> SolveResult:
    """Two-phase revised simplex, one solve per independent block (max_iter
    and size_limit apply per block).  Optimal solutions satisfy every row and
    bound within tol; Bland's rule makes the pivot sequence deterministic."""
    t0 = time.perf_counter()
    std = _standardize(lp)
    if std is None:
        return SolveResult(Status.INFEASIBLE, None, None, 0, time.perf_counter() - t0)
    blocks = _blocks(std.A)
    m, n = max(((r.size, c.size) for r, c in blocks), key=sum, default=(0, 0))
    if not force and m + n > size_limit:
        raise BuiltinSizeLimitError(f"standardized block has {m} rows + {n} cols > limit "
                                    f"{size_limit}; use solver='highs', an external solver, "
                                    "or force=True")
    z = np.zeros(std.A.shape[1])
    iterations, statuses, basic = 0, set(), []
    for rows, cols in blocks:
        # slack columns sit in their row's block; renumber them within it
        sp = std.slack_plus[rows]
        sp = np.where(sp >= 0, np.searchsorted(cols, sp), -1)
        status, z_k, its, basis = _solve_block(std.dense(rows, cols), std.b[rows], std.c[cols],
                                               sp, tol, max_iter)
        iterations += its
        statuses.add(status)
        if z_k is not None:
            z[cols] = z_k
            basic += [cols[basis[basis >= 0]], -1 - rows[-1 - basis[basis < 0]]]
    elapsed = time.perf_counter() - t0
    for status in _STATUS_ORDER:
        if status in statuses:
            return SolveResult(status, None, None, iterations, elapsed)
    x = std.original(z)
    return SolveResult(Status.OPTIMAL, float(lp.obj @ x), x, iterations, elapsed,
                       std.basis(np.concatenate([np.empty(0, np.int64), *basic])))


def _solve_block(A: np.ndarray, b: np.ndarray, c: np.ndarray, slack_plus: np.ndarray,
                 tol: float, max_iter: int | None
                 ) -> tuple[Status, np.ndarray | None, int, np.ndarray | None]:
    """Two-phase simplex on one dense block; returns (status, z, iterations,
    basis: its columns, and -1-r for each row r dropped as dependent)."""
    m, n = A.shape
    if max_iter is None:
        max_iter = 50 * (m + n)
    # initial basis: row slack where it has +1 coefficient, else artificial
    art = np.flatnonzero(slack_plus < 0)
    basis = slack_plus.copy()
    basis[art] = n + np.arange(art.size)
    A = np.hstack([A, np.zeros((m, art.size))])
    A[art, basis[art]] = 1.0

    core = _Core(A, b, tol, max_iter)
    core.set_basis(basis)
    allowed = np.ones(A.shape[1], dtype=bool)
    redundant = []

    if art.size:
        c1 = np.zeros(A.shape[1])
        c1[n:] = 1.0

        def drop_artificial(leaving: int) -> None:
            if leaving >= n:
                allowed[leaving] = False

        status = core.run(c1, allowed, on_leave=drop_artificial)
        if status is Status.ITERATION_LIMIT:
            return status, None, core.iterations, None
        feas_gap = float(c1[core.basis] @ np.maximum(core.xB, 0.0))
        if status is not Status.OPTIMAL or feas_gap > tol * (1.0 + abs(b).max(initial=0.0)) * 100:
            return Status.INFEASIBLE, None, core.iterations, None
        core, redundant = _purge_artificials(core, n, allowed)

    allowed2 = np.ones(core.A.shape[1], dtype=bool)
    allowed2[n:] = False  # any artificial column still present stays out
    status = core.run(np.concatenate([c, np.zeros(core.A.shape[1] - n)]), allowed2)
    if status is not Status.OPTIMAL:
        return status, None, core.iterations, None
    z = np.zeros(core.A.shape[1])
    z[core.basis] = np.maximum(core.xB, 0.0)
    return status, z[:n], core.iterations, np.concatenate([core.basis,
                                                           -1 - np.array(redundant, np.int64)])


def _purge_artificials(core: _Core, n: int, allowed: np.ndarray) -> tuple[_Core, list[int]]:
    """Pivot zero-level artificials out of the basis; drop rows that prove
    linearly dependent.  Returns the core, rebuilt when rows were dropped,
    and those rows (an artificial sits in its own row's position)."""
    redundant = []
    for r in range(core.basis.size):
        if core.basis[r] < n:
            continue
        row = core.B_inv[r] @ core.A[:, :n]
        candidates = np.nonzero(np.abs(row) > 1e-7)[0]
        in_basis = set(core.basis.tolist())
        picked = next((int(j) for j in candidates if j not in in_basis and allowed[j]), -1)
        if picked < 0:
            redundant.append(r)
            continue
        d = core.B_inv @ core.A[:, picked]
        piv = d[r]
        core.basis[r] = picked
        core.B_inv[r] /= piv
        d_others = d.copy()
        d_others[r] = 0.0
        core.B_inv -= np.outer(d_others, core.B_inv[r])
        core.xB = core.B_inv @ core.b
    if not redundant:
        return core, redundant
    keep_rows = np.setdiff1d(np.arange(core.basis.size), np.array(redundant, dtype=np.int64))
    new = _Core(core.A[keep_rows][:, :], core.b[keep_rows], core.tol, core.max_iter)
    new.iterations = core.iterations
    new.set_basis(core.basis[keep_rows])
    return new, redundant
