"""Deterministic LP container and solver front ends.

An LPInstance holds a minimization problem with per-variable bounds and
sparse constraint rows tagged <=, = or >=.  Solvers: the self-contained
two-phase simplex (simplex.solve_builtin), scipy's HiGHS wrapper here, and
the external subprocess adapter (interchange.solve_external).
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import LE, EQ, GE


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


class SolverError(RuntimeError):
    """Base class for solver configuration/runtime failures."""


@dataclass
class SolveResult:
    status: Status
    objective: float | None
    x: np.ndarray | None
    iterations: int = 0
    time_s: float = 0.0


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
        if sense not in (LE, EQ, GE):
            raise ValueError(f"unknown sense {sense!r}")
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
    senses: tuple[str, ...]
    rhs: np.ndarray
    names: tuple[str, ...] = ()
    row_names: tuple[str, ...] = ()

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
        senses = np.asarray(self.senses, dtype="<U2")
        sign = np.where(senses == GE, -1.0, 1.0)
        A = self._csr(self.data * np.repeat(sign, np.diff(self.indptr)))
        A.sum_duplicates()  # canonical rows: sorted columns, repeats summed
        eq = senses == EQ
        return (A[~eq] if (~eq).any() else None, (sign * self.rhs)[~eq],
                A[eq] if eq.any() else None, self.rhs[eq])


def solve_highs(lp: LPInstance) -> SolveResult:
    """Solve through scipy's HiGHS interface; deterministic for fixed input."""
    from scipy.optimize import linprog

    t0 = time.perf_counter()
    A_ub, b_ub, A_eq, b_eq = lp.to_scipy()
    res = linprog(
        lp.obj,
        A_ub=A_ub, b_ub=b_ub if A_ub is not None else None,
        A_eq=A_eq, b_eq=b_eq if A_eq is not None else None,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
    )
    elapsed = time.perf_counter() - t0
    nit = int(getattr(res, "nit", 0) or 0)
    if res.status == 0:
        return SolveResult(Status.OPTIMAL, float(res.fun), np.asarray(res.x), nit, elapsed)
    if res.status == 2:
        return SolveResult(Status.INFEASIBLE, None, None, nit, elapsed)
    if res.status == 3:
        return SolveResult(Status.UNBOUNDED, None, None, nit, elapsed)
    if res.status == 1:
        return SolveResult(Status.ITERATION_LIMIT, None, None, nit, elapsed)
    raise SolverError(f"HiGHS failed: {res.message}")


SolverFn = Callable[[LPInstance], SolveResult]


def get_solver(spec: "str | SolverFn | None" = None) -> SolverFn:
    """Resolve a solver selector to a callable.

    "builtin" -> two-phase simplex; "highs" (default) -> scipy/HiGHS;
    "external" or "external:<command>" -> subprocess adapter (command from
    the suffix or the SWC_EXTERNAL_SOLVER environment variable).
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
        from .interchange import solve_external

        command = spec.partition(":")[2] or None
        return lambda lp: solve_external(lp, command)
    raise ValueError(f"unknown solver selector {spec!r}")


def require_optimal(res: SolveResult, context: str = "") -> SolveResult:
    if res.status is not Status.OPTIMAL:
        where = f" ({context})" if context else ""
        raise SolverError(f"expected an optimal solution{where}, got {res.status.value}")
    return res
