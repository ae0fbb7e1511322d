"""Independent per-path recourse LP, used only to check swcopt's outputs.

Builds one path's LP directly from the model's stage data (A, h1, c1 and
the StageBlock maps T, W, h, c) as dense arrays and solves it with
``scipy.optimize.linprog``.  It shares no assembly code with swcopt: it
goes through neither ``swcopt.lp`` nor ``swcopt.builders``, and it
evaluates the affine coefficient maps from their base and term arrays
itself.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def _evaluate(amap, xi: np.ndarray) -> np.ndarray:
    """base + sum_k xi[idx_k] * term_k of an affine coefficient map."""
    out = np.array(amap.base, dtype=float)
    for idx, term in amap.terms:
        out = out + xi[idx] * np.asarray(term, dtype=float)
    return out


def flat_path(path) -> np.ndarray:
    """A scenario path's stage values as one flat vector."""
    return np.array([v for stage in path.stages for v in stage], dtype=float)


def path_cost(problem, xi: np.ndarray, x1: np.ndarray | None = None) -> float:
    """Optimal cost along one path given as a flat uncertainty vector.

    Without x1 this is the fully anticipative optimum over all stages.  With
    x1 it is c1'x1 plus the optimal recourse over stages 2..H, x1 entering
    the stage-2 rows as a constant.  Returns +inf when infeasible and -inf
    when unbounded.
    """
    H = problem.dims.H
    n = problem.dims.n
    first = 1 if x1 is None else 2
    offset = {}
    ncols = 0
    for t in range(first, H + 1):
        offset[t] = ncols
        ncols += n[t - 1]
    c = np.zeros(ncols)
    rows, rhs, senses = [], [], []

    def add_rows(t, own, prev, b, row_senses):
        """Rows own @ x_t (+ prev @ x_{t-1}) (sense) b."""
        for i in range(len(b)):
            row = np.zeros(ncols)
            row[offset[t]:offset[t] + n[t - 1]] = own[i]
            if prev is not None:
                row[offset[t - 1]:offset[t - 1] + n[t - 2]] = prev[i]
            rows.append(row)
            rhs.append(b[i])
            senses.append(row_senses[i])

    const = 0.0
    if x1 is None:
        c[offset[1]:offset[1] + n[0]] = problem.c1
        add_rows(1, np.asarray(problem.A), None, np.asarray(problem.h1), problem.senses1)
    else:
        const = float(np.dot(problem.c1, x1))
    revealed = 0
    for t in range(2, H + 1):
        revealed += problem.uncertainty.stages[t - 2].dim
        blk = problem.stages[t - 2]
        prefix = xi[:revealed]
        T, W, h = _evaluate(blk.T, prefix), _evaluate(blk.W, prefix), _evaluate(blk.h, prefix)
        c[offset[t]:offset[t] + n[t - 1]] = _evaluate(blk.c, prefix)
        if t == 2 and x1 is not None:
            add_rows(t, W, None, h - T @ np.asarray(x1, dtype=float), blk.senses)
        else:
            add_rows(t, W, T, h, blk.senses)

    A = np.array(rows)
    b = np.array(rhs)
    sense = np.array(senses)
    ub = sense != "="
    sign = np.where(sense[ub] == ">=", -1.0, 1.0)
    eq = sense == "="
    bounds = []
    for t in range(first, H + 1):
        for k in range(n[t - 1]):
            bounds.append((0.0, None) if problem.nonneg[t - 1][k] else (None, None))
    res = linprog(
        c,
        A_ub=A[ub] * sign[:, None] if ub.any() else None,
        b_ub=b[ub] * sign if ub.any() else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 0:
        return const + float(res.fun)
    if res.status == 2:
        return np.inf
    if res.status == 3:
        return -np.inf
    raise RuntimeError(f"reference recourse LP ended with status {res.status}: {res.message}")
