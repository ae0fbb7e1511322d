"""Deterministic LP container and solver front ends.

An LPInstance holds a minimization problem with per-variable bounds and
sparse constraint rows tagged <=, = or >=.  Solvers: the self-contained
two-phase simplex (simplex.solve_builtin), HiGHS here (solve_highs), and
the external subprocess adapter (interchange.solve_external).

solve_highs calls the HiGHS binding that scipy bundles
(scipy.optimize._highspy._core), the one linprog(method="highs") calls,
with the model and options linprog would pass, so its results are
linprog's bit for bit.  The model goes over as arrays: _colwise builds
the column-wise matrix and row bounds linprog would build from
to_scipy's parts, in one numpy pass, and the binding's array passModel
reads them without a copy per element.  to_scipy stays as the oracle of
that construction.  GrowingLP is an LP that gains <= rows between
solves; on HiGHS it keeps one model, so a re-solve after added rows starts
from the last basis.
"""
from __future__ import annotations

import enum
import functools
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .model import LE, EQ, GE, _freeze


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


class SolverError(RuntimeError):
    """Base class for solver configuration/runtime failures."""


@dataclass
class SolveResult:
    """One solve's outcome.  basis: the optimal basis, its nrows basic
    variables sorted, in HiGHS's convention (j >= 0 column j, -1-i row i's
    slack); from solve_highs and solve_builtin, None from other solvers."""

    status: Status
    objective: float | None
    x: np.ndarray | None
    iterations: int = 0
    time_s: float = 0.0
    basis: np.ndarray | None = None


def row_excess(senses, activity: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """How far each row's activity lies past its right-hand side in the
    direction its sense forbids; positive only where the row is violated."""
    senses = np.asarray(senses, dtype="<U2")
    excess = activity - rhs
    return np.where(senses == GE, -excess, np.where(senses == EQ, np.abs(excess), excess))


class LPBuilder:
    """Incremental assembly, one row at a time (the interchange parser and
    the tests use it); freeze with .build()."""

    def __init__(self):
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._obj: list[float] = []
        self._names: list[str] = []
        self._row_cols: list[np.ndarray] = []
        self._row_vals: list[np.ndarray] = []
        self._senses: list[str] = []
        self._rhs: list[float] = []
        self._row_names: list[str] = []

    @property
    def ncols(self) -> int:
        return len(self._obj)

    @property
    def nrows(self) -> int:
        return len(self._rhs)

    def add_var(self, lower=0.0, upper=np.inf, obj=0.0, name=None) -> int:
        if lower > upper:
            raise ValueError(f"variable bounds crossed: [{lower}, {upper}]")
        j = len(self._obj)
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._obj.append(float(obj))
        self._names.append(name if name is not None else f"x{j}")
        return j

    def add_row(self, cols: Sequence[int], vals: Sequence[float], sense: str, rhs: float,
                name=None) -> int:
        cols = np.asarray(cols, dtype=np.int64)
        if cols.size and (cols.min() < 0 or cols.max() >= self.ncols):
            raise ValueError("row references an undefined variable")
        i = len(self._rhs)
        self._row_cols.append(cols)
        self._row_vals.append(np.asarray(vals, dtype=float))
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        self._row_names.append(name if name is not None else f"c{i}")
        return i

    def build(self) -> "LPInstance":
        nnz = np.array([c.size for c in self._row_cols], dtype=np.int64)
        indptr = np.concatenate([[0], np.cumsum(nnz)])
        indices = (
            np.concatenate(self._row_cols) if self._row_cols else np.empty(0, dtype=np.int64)
        )
        data = np.concatenate(self._row_vals) if self._row_vals else np.empty(0)
        return LPInstance(
            ncols=self.ncols,
            lower=np.array(self._lower),
            upper=np.array(self._upper),
            obj=np.array(self._obj),
            indptr=indptr,
            indices=indices,
            data=data,
            senses=tuple(self._senses),
            rhs=np.array(self._rhs),
            names=tuple(self._names),
            row_names=tuple(self._row_names),
        )


@dataclass(frozen=True)
class LPInstance:
    """min obj'x  s.t.  rows (sense) rhs,  lower <= x <= upper."""

    ncols: int
    lower: np.ndarray
    upper: np.ndarray
    obj: np.ndarray
    indptr: np.ndarray   # CSR row pointers
    indices: np.ndarray
    data: np.ndarray
    senses: np.ndarray   # <=, = or >= per row, from any sequence; held read-only as "<U2"
    rhs: np.ndarray
    names: tuple[str, ...] = ()
    row_names: tuple[str, ...] = ()

    def __post_init__(self):
        senses = np.asarray(self.senses)
        if senses.shape != (len(self.rhs),):
            raise ValueError(f"{senses.size} row senses for {len(self.rhs)} rows")
        unknown = senses[~np.isin(senses, (LE, EQ, GE))].tolist()
        if unknown:
            raise ValueError(f"unknown row sense {unknown[0]!r}")
        object.__setattr__(self, "senses", _freeze(senses, "<U2"))

    @property
    def nrows(self) -> int:
        return len(self.rhs)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.indices[s:e], self.data[s:e]

    def _csr(self, data: np.ndarray | None = None):
        """The rows as a scipy CSR matrix, optionally with other entry values."""
        from scipy import sparse

        return sparse.csr_matrix(
            (self.data if data is None else data, self.indices, self.indptr),
            shape=(self.nrows, self.ncols),
        )

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        return self._csr() @ x

    def max_violation(self, x: np.ndarray) -> float:
        """Worst constraint/bound violation of x (0 means feasible)."""
        excess = row_excess(self.senses, self.row_activity(x), self.rhs)
        return float(max(np.max(excess, initial=0.0), np.max(self.lower - x, initial=0.0),
                         np.max(x - self.upper, initial=0.0)))

    def to_scipy(self):
        """Split rows into (A_ub, b_ub, A_eq, b_eq); >= rows enter A_ub negated.
        A part without rows is None."""
        sign = np.where(self.senses == GE, -1.0, 1.0)
        A = self._csr(self.data * np.repeat(sign, np.diff(self.indptr)))
        A.sum_duplicates()  # canonical rows: sorted columns, repeats summed
        eq = self.senses == EQ
        return (A[~eq] if (~eq).any() else None, (sign * self.rhs)[~eq],
                A[eq] if eq.any() else None, self.rhs[eq])


HIGHS_SCIPY = "1.17"  # the oldest scipy release known to ship the binding solve_highs calls

#: HiGHS model status -> Status, as linprog(method="highs") maps them; any
#: other model status (kUnboundedOrInfeasible among them) is a SolverError
_HIGHS_STATUS = {
    "kOptimal": Status.OPTIMAL,
    "kInfeasible": Status.INFEASIBLE,
    "kModelError": Status.INFEASIBLE,
    "kUnbounded": Status.UNBOUNDED,
    "kIterationLimit": Status.ITERATION_LIMIT,
    "kTimeLimit": Status.ITERATION_LIMIT,
}


def _highs_core():
    """scipy's bundled HiGHS binding, the one linprog(method="highs") calls."""
    try:
        from scipy.optimize._highspy import _core

        _core._Highs.addRows, _core._Highs.getBasicVariables
    except (ImportError, AttributeError) as exc:
        import scipy

        raise SolverError(f"solve_highs needs scipy >= {HIGHS_SCIPY}, whose "
                          f"scipy.optimize._highspy._core has _Highs.addRows and "
                          f"_Highs.getBasicVariables; found scipy {scipy.__version__}") from exc
    return _core


def _colwise(lp: LPInstance) -> tuple[np.ndarray, ...]:
    """lp's rows as HiGHS's column-wise arrays (start, with ncols + 1
    entries, index and value) and row bounds (lower, upper), in to_scipy's
    row order: <= rows and negated >= rows, then = rows.  Entries are sorted
    by column, then row; explicit zeros stay.  Repeated entries of a row are
    summed by scipy's sum_duplicates, so in its order; without them, which
    is the rule for the builders' LPs, all of it is one numpy pass."""
    sign, eq = np.where(lp.senses == GE, -1.0, 1.0), lp.senses == EQ
    perm = np.argsort(eq, kind="stable")  # to_scipy's rows, in order
    row = np.empty(lp.nrows, np.int64)
    row[perm] = np.arange(lp.nrows)
    indices, data = lp.indices, lp.data * np.repeat(sign, np.diff(lp.indptr))
    rows = np.repeat(row, np.diff(lp.indptr))
    key = indices.astype(np.int64) * lp.nrows + rows
    order = np.argsort(key)
    if np.any(np.diff(key[order]) == 0):  # repeated entries
        A = lp._csr(data)
        A.sum_duplicates()
        indices, data = A.indices, A.data
        rows = np.repeat(row, np.diff(A.indptr))
        order = np.argsort(indices.astype(np.int64) * lp.nrows + rows)
    start = np.zeros(lp.ncols + 1, np.int64)
    np.cumsum(np.bincount(indices, minlength=lp.ncols), out=start[1:])
    upper = (sign * lp.rhs)[perm]
    return start, rows[order], data[order], np.where(eq[perm], upper, -np.inf), upper


def _load_highs(lp: LPInstance):
    """A HiGHS instance holding lp as linprog(method="highs") passes it:
    to_scipy's rows (<= and negated >= rows, then = rows) column-wise, built
    by _colwise and handed over as arrays, and linprog's options (presolve,
    dual simplex, no output).  Inputs linprog refuses raise ValueError: no
    columns, or inf or nan in the objective, the matrix or the right-hand
    sides; nan bounds, which linprog would read as absent, are refused too."""
    if lp.ncols == 0:
        raise ValueError("an LP needs at least one column")
    for what, values in (("objective", lp.obj), ("matrix", lp.data), ("right-hand side", lp.rhs)):
        if not np.isfinite(values).all():
            raise ValueError(f"LP {what} must not contain inf or nan")
    if np.isnan(lp.lower).any() or np.isnan(lp.upper).any():
        raise ValueError("LP bounds must not contain nan")
    core = _highs_core()
    start, index, value, row_lower, row_upper = _colwise(lp)
    options = core.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    highs = core._Highs()
    highs.passOptions(options)
    # an empty integrality array is refused: all zeros reads as all continuous
    loaded = highs.passModel(
        lp.ncols, lp.nrows, value.size, int(core.MatrixFormat.kColwise),
        int(core.ObjSense.kMinimize), 0.0, lp.obj, lp.lower, lp.upper, row_lower, row_upper,
        start[:-1].astype(np.int32), index.astype(np.int32), value,
        np.zeros(lp.ncols, np.int32)) != core.HighsStatus.kError
    return highs, loaded


def _run_highs(highs, loaded: bool) -> SolveResult:
    """Run HiGHS on its model (from its last basis, if it has one) and read
    the result as linprog does; a model that failed to load is infeasible."""
    core = _highs_core()
    t0 = time.perf_counter()
    if not loaded:
        return SolveResult(Status.INFEASIBLE, None, None, 0, time.perf_counter() - t0)
    ran = highs.run() != core.HighsStatus.kError
    model_status = highs.getModelStatus()
    status = _HIGHS_STATUS.get(model_status.name)
    if status is None or (status is Status.OPTIMAL and not ran):
        raise SolverError(f"HiGHS failed: {highs.modelStatusToString(model_status)}")
    info = highs.getInfo()
    nit = (info.simplex_iteration_count or info.ipm_iteration_count) if ran else 0
    if status is not Status.OPTIMAL:
        return SolveResult(status, None, None, nit, time.perf_counter() - t0)
    x = np.array(highs.getSolution().col_value)
    return SolveResult(status, float(info.objective_function_value), x, nit,
                       time.perf_counter() - t0)


def solve_highs(lp: LPInstance) -> SolveResult:
    """Solve with scipy's bundled HiGHS, called directly: the model, options
    and status mapping of linprog(method="highs"), so the same x, objective
    and iteration count, without linprog's input checks, copies and dual
    read-out; deterministic for fixed input.  An optimal result carries
    HiGHS's final basis, its rows mapped back from to_scipy's order."""
    t0 = time.perf_counter()
    highs, loaded = _load_highs(lp)
    res = _run_highs(highs, loaded)
    if res.status is Status.OPTIMAL:
        # getBasicVariables crashes on a model without entries (HiGHS drops
        # those up to 1e-9), whose every row slack is basic
        status, basic = (highs.getBasicVariables() if highs.getNumNz()
                         else (None, np.arange(-lp.nrows, 0)))
        if status != _highs_core().HighsStatus.kError:
            rows = np.argsort(lp.senses == EQ, kind="stable")
            basic, slack = basic.astype(np.int64), basic < 0  # HiGHS row k is lp's rows[k]
            basic[slack] = -1 - rows[-1 - basic[slack]]
            res.basis = np.sort(basic)
    return replace(res, time_s=time.perf_counter() - t0)


SolverFn = Callable[[LPInstance], SolveResult]


class GrowingLP:
    """An LP that gains <= rows between solves, as an L-shaped master gains
    cuts.  With solve_highs it keeps one HiGHS model: the rows go to it by
    addRows, and a solve after an optimal one restarts HiGHS from its last
    basis, so the dual simplex only works off the rows added since; a warm
    run that does not end optimal is repeated cold, and the cold run's
    result is returned.  Every other run is cold: HiGHS's state after a
    run that was not optimal can make a warm run report a wrong optimum.
    With any other solver each solve solves the LP with every row added so
    far.  The first solve is the solver's solve of the LP as given either
    way."""

    def __init__(self, lp: LPInstance, solve: SolverFn):
        self._lp, self._solve, self._rows = lp, solve, []
        # compared at call time, so a solve_highs wrapped in place keeps this route
        self._highs = _load_highs(lp) if solve is solve_highs else None
        self._warm = False  # whether HiGHS's last run ended optimal, a basis to restart from
        self.nrows, self.ncols = lp.nrows, lp.ncols

    def add_rows(self, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray) -> None:
        """Append the rows vals[i] @ x[cols[i]] <= rhs[i]; cols and vals are
        (q, w), rhs is (q,)."""
        self._rows.append((cols, vals, rhs))
        self.nrows += len(rhs)

    def solve(self) -> SolveResult:
        rows, self._rows = self._rows, []
        if rows:
            cols, vals, rhs = zip(*rows)
            counts = np.concatenate([np.full(len(b), c.shape[1]) for c, b in zip(cols, rhs)])
            indices = np.concatenate([c.ravel() for c in cols])
            data, rhs = np.concatenate([v.ravel() for v in vals]), np.concatenate(rhs)
            if not (np.isfinite(data).all() and np.isfinite(rhs).all()):
                raise ValueError("added rows must not contain inf or nan")
        if self._highs is None:
            if rows:
                lp = self._lp
                self._lp = replace(
                    lp, indptr=np.concatenate([lp.indptr, lp.indptr[-1] + np.cumsum(counts)]),
                    indices=np.concatenate([lp.indices, indices]),
                    data=np.concatenate([lp.data, data]), rhs=np.concatenate([lp.rhs, rhs]),
                    senses=np.concatenate([lp.senses, np.full(rhs.size, LE)]))
            return self._solve(self._lp)
        highs, loaded = self._highs
        if rows and loaded:
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int32)
            added = highs.addRows(rhs.size, np.full(rhs.size, -np.inf), rhs, data.size, starts,
                                  indices.astype(np.int32), data)
            if added == _highs_core().HighsStatus.kError:
                raise SolverError("HiGHS refused the added rows")
        if self._warm:
            try:
                res = _run_highs(highs, loaded)
                if res.status is Status.OPTIMAL:
                    return res
            except SolverError:
                pass
        # a cold run decides a warm run's other outcomes, and every run after
        # one that was not optimal
        highs.clearSolver()
        self._warm = False
        res = _run_highs(highs, loaded)
        self._warm = res.status is Status.OPTIMAL
        return res


def get_solver(spec: "str | SolverFn | None" = None) -> SolverFn:
    """Resolve a solver selector to a callable.

    "builtin" -> two-phase simplex; "highs" (default) -> scipy/HiGHS;
    "external" or "external:<command>" -> subprocess adapter (command from
    the suffix or the SWC_EXTERNAL_SOLVER environment variable).  A selector
    resolves to the same callable every time, the key of a problem's basis
    pools (MultistageRobustLP.pools).
    """
    if spec is None:
        return solve_highs
    if callable(spec):
        return spec
    if spec == "highs":
        return solve_highs
    if spec == "builtin":
        from .simplex import solve_builtin

        return solve_builtin
    if spec == "external" or spec.startswith("external:"):
        return _external(spec.partition(":")[2] or None)
    raise ValueError(f"unknown solver selector {spec!r}")


@functools.cache
def _external(command: str | None) -> SolverFn:
    from .interchange import solve_external

    return lambda lp: solve_external(lp, command)


def require_optimal(res: SolveResult, context: str = "") -> SolveResult:
    if res.status is not Status.OPTIMAL:
        where = f" ({context})" if context else ""
        raise SolverError(f"expected an optimal solution{where}, got {res.status.value}")
    return res
