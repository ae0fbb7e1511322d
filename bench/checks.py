"""Output checks of the benchmark: properties of the method, not copies of
one run's output.

Every check returns a list of failure messages; an empty list means the
output passed.  Comparisons allow REL_TOL relative to max(1, |reference|),
far below the 1% moves the benchmark's own tests make to show that each
check can fail.
"""
from __future__ import annotations

import math

import numpy as np

from swcopt.model import IntegerBoxSupport

#: published five-stage inventory references (continuous demand)
PUBLISHED = {"ro": 2207.554108, "rws": 1831.891109, "rt": 1831.891109, "rvpi": 375.663}

#: relative slack for solver noise in the inequality and agreement checks
REL_TOL = 1e-6


def _slack(reference: float) -> float:
    return REL_TOL * max(1.0, abs(reference))


def at_most(value: float, bound: float, what: str) -> list[str]:
    """value <= bound, up to solver noise."""
    if value <= bound + _slack(bound):
        return []
    return [f"{what}: {value!r} exceeds {bound!r}"]


def close(value: float, reference: float, tol: float, what: str, relative=False) -> list[str]:
    """|value - reference| <= tol (times max(1, |reference|) when relative)."""
    limit = tol * max(1.0, abs(reference)) if relative else tol
    if abs(value - reference) <= limit:
        return []
    return [f"{what}: {value!r} differs from {reference!r} by more than {limit:.3g}"]


def swc_bounds(value: float, gamma: float, anticipative, recourse) -> list[str]:
    """The SwC value is at most the published RO and at least every
    anticipative optimum of a training path; every training path's
    recourse cost at the returned x1 fits the budget gamma."""
    out = at_most(value, PUBLISHED["ro"], "SwC value above published RO")
    for i, cost in enumerate(anticipative):
        out += at_most(cost, value, f"anticipative optimum of subsample path {i} above SwC value")
    for i, cost in enumerate(recourse):
        out += at_most(cost, gamma, f"recourse cost of training path {i} above gamma")
    return out


def bound_chain(swc: float, sws: float, swct: float) -> list[str]:
    """On the same draws sws <= swc; sws <= rws and swct <= rt (published)."""
    out = at_most(sws, swc, "sws above swc")
    out += at_most(sws, PUBLISHED["rws"], "sws above published rws")
    out += at_most(swct, PUBLISHED["rt"], "swct above published rt")
    return out


def lattice_sizes(uncertainty) -> list[float]:
    """Number of distinct prefixes through each stage that integer
    supports allow (inf once a stage is not an integer box)."""
    sizes, total = [], 1.0
    for sup in uncertainty.stages:
        if isinstance(sup, IntegerBoxSupport):
            total *= float(np.prod(sup.upper - sup.lower + 1))
        else:
            total = math.inf
        sizes.append(total)
    return sizes


def tree_shape(node_counts, n_paths: int, lattice) -> list[str]:
    """Stage-t node counts never decrease with t and are bounded by the
    path count and by the support lattice."""
    out = []
    for t, count in enumerate(node_counts, start=1):
        if t > 1 and count < node_counts[t - 2]:
            out.append(f"tree: stage {t} has {count} nodes, fewer than stage {t - 1}")
        if count > n_paths:
            out.append(f"tree: stage {t} has {count} nodes for {n_paths} paths")
        if count > lattice[t - 1]:
            out.append(f"tree: stage {t} has {count} nodes, lattice allows {lattice[t - 1]:g}")
    return out


def lp_size(rows: int, cols: int, dims, node_counts) -> list[str]:
    """rows = m1 + sum_t m_t*nodes_t + leaves and cols = 1 + n1 +
    sum_t n_t*nodes_t, where nodes_t counts the tree level revealed before
    stage-t decisions (t = 2..H)."""
    want_rows = dims.m[0] + sum(m * k for m, k in zip(dims.m[1:], node_counts)) + node_counts[-1]
    want_cols = 1 + dims.n[0] + sum(n * k for n, k in zip(dims.n[1:], node_counts))
    out = []
    if rows != want_rows:
        out.append(f"LP has {rows} rows, the tree implies {want_rows}")
    if cols != want_cols:
        out.append(f"LP has {cols} columns, the tree implies {want_cols}")
    return out


def costs_agree(program, reference, gamma: float, tol_violation: float) -> list[str]:
    """Path by path, swcopt's recourse cost matches the independent LP and
    both give the same violation indicator (cost > gamma + tol_violation)."""
    out = []
    for i, (mine, ref) in enumerate(zip(program, reference)):
        if (mine > gamma + tol_violation) != (ref > gamma + tol_violation):
            out.append(f"path {i}: violation indicator differs (cost {mine!r}, reference {ref!r})")
        elif not (mine == ref or abs(mine - ref) <= _slack(ref)):
            out.append(f"path {i}: cost {mine!r} differs from reference {ref!r}")
    if len(program) != len(reference):
        out.append(f"{len(program)} program costs for {len(reference)} reference costs")
    return out


def violation_share(violation: float, costs, gamma: float, tol_violation: float) -> list[str]:
    """The reported violation is exactly the share of the batch's path
    costs above gamma + tol_violation."""
    share = float(np.mean(np.asarray(costs) > gamma + tol_violation))
    if violation == share:
        return []
    return [f"violation {violation!r} differs from the share {share!r} of "
            f"{len(costs)} recomputed path costs above gamma"]


def exact_references(builtin: dict, highs: dict) -> list[str]:
    """Builtin-simplex references match the published values (1e-6; rvpi
    1e-3) and HiGHS (1e-7 relative), and rws <= rt <= ro."""
    out = []
    for mode in ("ro", "rws", "rt"):
        out += close(builtin[mode], PUBLISHED[mode], 1e-6, f"builtin {mode} vs published")
        out += close(builtin[mode], highs[mode], 1e-7, f"builtin {mode} vs HiGHS", relative=True)
    out += close(builtin["rvpi"], PUBLISHED["rvpi"], 1e-3, "builtin rvpi vs published")
    out += at_most(builtin["rws"], builtin["rt"], "rws above rt")
    out += at_most(builtin["rt"], builtin["ro"], "rt above ro")
    return out
