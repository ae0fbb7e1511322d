"""Independent test oracles.

Nothing here reuses solver internals from the package: the LP oracle
enumerates basic solutions and extreme rays of its own standard form, and
the nested oracle builds a per-node budget LP by direct recursion over the
support tree (a different deterministic equivalent than the certificate
builder it cross-checks).
"""
from __future__ import annotations

import itertools

import numpy as np

from swcopt.builders import _check_problem
from swcopt.lp import LPBuilder, LPInstance, get_solver
from dataclasses import dataclass
from typing import Sequence

from swcopt.model import (
    EQ,
    GE,
    LE,
    DiscreteSupport,
    MultistageRobustLP,
    ScenarioPath,
    UncertaintySet,
)

FEAS_TOL = 1e-9


def _oracle_standard_form(lp: LPInstance):
    """Equality form A z = b, z >= 0, min c z + const; built independently
    of the package's own standardization."""
    col_map = []  # per original var: list of (z col, coef)
    const = []
    ncols = 0
    extra = []  # (z col, width) upper-bound rows for boxed vars
    for j in range(lp.ncols):
        lo, hi = lp.lower[j], lp.upper[j]
        if np.isneginf(lo) and np.isposinf(hi):
            col_map.append([(ncols, 1.0), (ncols + 1, -1.0)])
            const.append(0.0)
            ncols += 2
        elif np.isposinf(hi):
            col_map.append([(ncols, 1.0)])
            const.append(lo)
            ncols += 1
        elif np.isneginf(lo):
            col_map.append([(ncols, -1.0)])
            const.append(hi)
            ncols += 1
        else:
            col_map.append([(ncols, 1.0)])
            const.append(lo)
            extra.append((ncols, hi - lo))
            ncols += 1
    rows = []
    for i in range(lp.nrows):
        cols, vals = lp.row(i)
        coefs = np.zeros(ncols)
        rhs = lp.rhs[i]
        for c, v in zip(cols, vals):
            rhs -= v * const[c]
            for z, a in col_map[c]:
                coefs[z] += v * a
        rows.append((coefs, lp.senses[i], rhs))
    for z, width in extra:
        coefs = np.zeros(ncols)
        coefs[z] = 1.0
        rows.append((coefs, LE, width))
    n_slack = sum(1 for _, s, _ in rows if s != EQ)
    A = np.zeros((len(rows), ncols + n_slack))
    b = np.zeros(len(rows))
    k = ncols
    for i, (coefs, s, rhs) in enumerate(rows):
        A[i, :ncols] = coefs
        b[i] = rhs
        if s == LE:
            A[i, k] = 1.0
            k += 1
        elif s == GE:
            A[i, k] = -1.0
            k += 1
    c = np.zeros(A.shape[1])
    offset = 0.0
    for j in range(lp.ncols):
        offset += lp.obj[j] * const[j]
        for z, a in col_map[j]:
            c[z] += lp.obj[j] * a
    return A, b, c, offset


def _independent_rows(M: np.ndarray) -> list[int]:
    keep: list[int] = []
    for i in range(M.shape[0]):
        if np.linalg.matrix_rank(M[keep + [i]], tol=1e-10) == len(keep) + 1:
            keep.append(i)
    return keep


def _basic_solutions(A: np.ndarray, b: np.ndarray):
    """All basic solutions of A z = b (A full row rank); yields (cols, z_B)."""
    m, n = A.shape
    if m == 0:
        return np.empty((1, 0), dtype=int), np.empty((1, 0))
    combos = np.array(list(itertools.combinations(range(n), m)))
    mats = A[:, combos].transpose(1, 0, 2)
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-9
    if not ok.any():
        return np.empty((0, m), dtype=int), np.empty((0, m))
    rhs = np.broadcast_to(b, (int(ok.sum()), m))[..., None]
    sols = np.linalg.solve(mats[ok], rhs)[..., 0]
    return combos[ok], sols


def oracle_solve(lp: LPInstance):
    """Enumerate vertices and extreme rays; returns (status str, objective)."""
    A, b, c, offset = _oracle_standard_form(lp)
    keep = _independent_rows(A)
    if len(keep) < A.shape[0]:
        # a dependent row must also be consistent in its right-hand side
        Ak = A[keep]
        for i in range(A.shape[0]):
            if i in keep:
                continue
            lam, *_ = np.linalg.lstsq(Ak.T, A[i], rcond=None)
            if np.linalg.norm(Ak.T @ lam - A[i]) > 1e-7:
                continue  # actually independent numerically; rank tol artifact
            if abs(lam @ b[keep] - b[i]) > 1e-7 * (1 + abs(b[i])):
                return "infeasible", None
        A, b = Ak, b[keep]
    m, n = A.shape
    if n < m:
        z, res, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.linalg.norm(A @ z - b) > 1e-8 or np.any(z < -FEAS_TOL):
            return "infeasible", None
        return "optimal", float(c @ z + offset)
    cols, sols = _basic_solutions(A, b)
    feas = np.all(sols >= -FEAS_TOL, axis=1)
    if not feas.any():
        return "infeasible", None
    # extreme rays: vertices of {A d = 0, sum d = 1, d >= 0}
    aug = np.vstack([A, np.ones(n)])
    keep_aug = _independent_rows(aug)
    aug_b = np.concatenate([np.zeros(m), [1.0]])[keep_aug]
    rcols, rsols = _basic_solutions(aug[keep_aug], aug_b)
    if rcols.shape[0]:
        rfeas = np.all(rsols >= -FEAS_TOL, axis=1)
        for cset, d in zip(rcols[rfeas], rsols[rfeas]):
            if np.dot(c[cset], d) < -1e-9:
                return "unbounded", None
    best = np.inf
    for cset, z in zip(cols[feas], sols[feas]):
        best = min(best, float(np.dot(c[cset], z)))
    return "optimal", best + offset


def random_lp(rng: np.random.Generator, max_vars: int = 8, max_rows: int = 8) -> LPInstance:
    """Random small LP mixing senses, bound kinds and objective signs, so
    that optimal, infeasible and unbounded cases all occur."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    b = LPBuilder()
    for j in range(n):
        kind = rng.random()
        if kind < 0.70:
            lo, hi = 0.0, np.inf
        elif kind < 0.85:
            lo, hi = 0.0, float(rng.uniform(0.5, 4.0))
        elif kind < 0.95:
            lo, hi = -np.inf, np.inf
        else:
            lo, hi = float(rng.uniform(-2.0, 0.0)), np.inf
        obj = float(rng.normal(0.6, 1.0)) if rng.random() < 0.8 else float(rng.normal(-0.5, 0.5))
        b.add_var(lo, hi, obj, f"v{j}")
    for i in range(m):
        cols = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)
        vals = rng.normal(0, 1, size=cols.size)
        u = rng.random()
        if u < 0.5:
            sense, rhs = LE, float(rng.uniform(0.5, 4.0))
        elif u < 0.8:
            sense, rhs = GE, float(rng.uniform(-1.0, 2.0))
        else:
            sense, rhs = EQ, float(rng.uniform(0.0, 2.0))
        b.add_row(sorted(cols), vals, sense, rhs)
    return b.build()


# ---------------------------------------------------------------------------
# nested min-max oracle over a fully discrete support tree

def nested_minmax_value(problem: MultistageRobustLP, solver="builtin") -> float:
    """Value of the nested min-sup recursion, built directly as a per-node
    budget LP (each node bounds its children's cost-to-go separately)."""
    H = problem.H
    uns = problem.uncertainty
    for t in range(1, uns.n_stages + 1):
        if not isinstance(uns.stages[t - 1], DiscreteSupport):
            raise ValueError("nested oracle needs fully discrete supports")
    b = LPBuilder()
    x1 = []
    for k in range(problem.dims.n[0]):
        lo = 0.0 if problem.nonneg[0][k] else -np.inf
        x1.append(b.add_var(lo, np.inf, float(problem.c1[k]), f"r_x1_{k}"))
    for i in range(problem.dims.m[0]):
        nz = np.nonzero(problem.A[i])[0]
        b.add_row([x1[j] for j in nz], problem.A[i][nz], problem.senses1[i], problem.h1[i])
    theta_root = b.add_var(-np.inf, np.inf, 1.0, "r_theta")

    def recurse(t: int, prefix: tuple, parent_cols, theta_parent: int) -> None:
        for point in uns.vertices(t - 1):
            new_prefix = prefix + (tuple(float(v) for v in point),)
            xi = np.array([v for stage in new_prefix for v in stage])
            blk = problem.stage_block(t)
            T, W, h, c = blk.T(xi), blk.W(xi), blk.h(xi), blk.c(xi)
            cols = []
            for k in range(problem.dims.n[t - 1]):
                lo = 0.0 if problem.nonneg[t - 1][k] else -np.inf
                cols.append(b.add_var(lo, np.inf, 0.0))
            for i in range(problem.dims.m[t - 1]):
                rc, rv = [], []
                nzT = np.nonzero(T[i])[0]
                rc += [parent_cols[j] for j in nzT]
                rv += list(T[i][nzT])
                nzW = np.nonzero(W[i])[0]
                rc += [cols[j] for j in nzW]
                rv += list(W[i][nzW])
                b.add_row(rc, rv, blk.senses[i], h[i])
            # theta_parent >= c'x_t (+ theta_child):  c'x + theta - theta_parent <= 0
            rc = [theta_parent]
            rv = [-1.0]
            nz = np.nonzero(c)[0]
            rc += [cols[j] for j in nz]
            rv += list(c[nz])
            if t < H:
                theta_child = b.add_var(-np.inf, np.inf, 0.0)
                rc.append(theta_child)
                rv.append(1.0)
                recurse(t + 1, new_prefix, cols, theta_child)
            b.add_row(rc, rv, LE, 0.0)

    recurse(2, (), x1, theta_root)
    res = get_solver(solver)(b.build())
    if res.x is None:
        raise RuntimeError(f"nested oracle solve failed: {res.status}")
    return float(res.objective)


def random_discrete_problem(rng: np.random.Generator, H: int) -> MultistageRobustLP:
    """Random fully-discrete multistage model, feasible and bounded by
    construction (positive demand-row coefficients, positive costs)."""
    from swcopt.model import (
        AffineMap,
        StageBlock,
        StageDims,
        UncertaintySet,
    )

    n = [int(rng.integers(1, 4)) for _ in range(H)]
    supports = []
    for _ in range(H - 1):
        k = int(rng.integers(2, 4))
        pts = np.sort(rng.uniform(0.0, 1.0, size=k))
        supports.append(DiscreteSupport(tuple(np.array([p]) for p in pts)))
    # stage 1: one demand row  a'x >= b
    a = rng.uniform(0.5, 1.5, size=n[0])
    A = a.reshape(1, -1)
    h1 = np.array([rng.uniform(1.0, 3.0)])
    c1 = rng.uniform(0.5, 2.0, size=n[0])
    blocks = []
    m = [1]
    for t in range(2, H + 1):
        nt, np_ = n[t - 1], n[t - 2]
        xi_idx = t - 2  # scalar uncertainty per stage
        T = rng.uniform(-0.4, 0.4, size=(1, np_))
        W = rng.uniform(0.5, 1.5, size=(1, nt))
        h_base = np.array([rng.uniform(1.0, 2.0)])
        h_term = np.array([rng.uniform(0.2, 0.8)])
        c_base = rng.uniform(0.5, 2.0, size=nt)
        c_term = rng.uniform(-0.2, 0.2, size=nt)  # stays positive on [0,1] support
        blocks.append(
            StageBlock(
                T=AffineMap(T),
                W=AffineMap(W),
                h=AffineMap(h_base, ((xi_idx, h_term),)),
                c=AffineMap(c_base, ((xi_idx, c_term),)),
                senses=(GE,),
            )
        )
        m.append(1)
    return MultistageRobustLP(
        dims=StageDims(H, tuple(n), tuple(m)),
        A=A,
        h1=h1,
        c1=c1,
        senses1=(GE,),
        stages=tuple(blocks),
        uncertainty=UncertaintySet(tuple(supports)),
    )


# ---------------------------------------------------------------------------
# tuple-path reference sampling and grouping
#
# Paths as ScenarioPath tuples and the prefix tree keyed by tuple-of-tuple
# prefixes in dictionaries: the representation swcopt.sampling and
# swcopt.builders used before paths became one (N, D) array, kept as the
# oracle of the differential tests in test_sampling.py and test_assembly.py.

PrefixKey = tuple[tuple[float, ...], ...]


def flatten_prefix(prefix: tuple[tuple[float, ...], ...]) -> np.ndarray:
    return np.array([v for stage in prefix for v in stage], dtype=float)


def draw_paths(uncertainty: UncertaintySet, N: int, seed, sampler=None) -> list[ScenarioPath]:
    """Draw N iid scenario paths, each stage independently uniform on its support.

    Deterministic for a fixed seed (any value accepted by
    ``numpy.random.default_rng``).  A non-uniform distribution plugs in as
    ``sampler(support, rng, size) -> (size, dim) array``, called once per
    stage; the default defers to each support's own uniform draw.
    """
    if N < 1:
        raise ValueError(f"need at least one path, got N={N}")
    rng = np.random.default_rng(seed)
    if sampler is None:
        per_stage = [
            uncertainty.sample_stage(t, rng, N) for t in range(1, uncertainty.n_stages + 1)
        ]
    else:
        per_stage = [sampler(sup, rng, N) for sup in uncertainty.stages]
    return [ScenarioPath.of([draws[i] for draws in per_stage]) for i in range(N)]


@dataclass(frozen=True)
class ScenarioPrefixTree:
    """Sampled paths grouped by shared prefixes.

    nodes[t-1] lists the distinct realized prefixes through stage t in
    first-seen order; path_to_node[i][t-1] maps path i to its stage-t node;
    parent[t-1][j] is node j's stage-(t-1) node (parent[0] is all zeros,
    pointing at the root that holds the first-stage decisions).
    """

    leaf_paths: tuple[ScenarioPath, ...]
    nodes: tuple[tuple[PrefixKey, ...], ...]
    path_to_node: tuple[tuple[int, ...], ...]
    parent: tuple[tuple[int, ...], ...]

    @property
    def n_stages(self) -> int:
        return len(self.nodes)

    @property
    def n_paths(self) -> int:
        return len(self.leaf_paths)

    def n_nodes(self, t: int) -> int:
        return len(self.nodes[t - 1])

    def node_prefix(self, t: int, j: int) -> PrefixKey:
        return self.nodes[t - 1][j]

    def node_counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.nodes)


def build_prefix_tree(paths: Sequence[ScenarioPath]) -> ScenarioPrefixTree:
    """Group paths by the exact-equality prefix rule."""
    if not paths:
        raise ValueError("cannot build a prefix tree from zero paths")
    S = paths[0].n_stages
    if any(p.n_stages != S for p in paths):
        raise ValueError("all paths must have the same stage count")
    nodes: list[list[PrefixKey]] = [[] for _ in range(S)]
    index: list[dict[PrefixKey, int]] = [{} for _ in range(S)]
    parent: list[list[int]] = [[] for _ in range(S)]
    path_to_node: list[list[int]] = []
    for p in paths:
        assignment = []
        prev = 0
        for t in range(1, S + 1):
            key = p.prefix(t)
            j = index[t - 1].get(key)
            if j is None:
                j = len(nodes[t - 1])
                index[t - 1][key] = j
                nodes[t - 1].append(key)
                parent[t - 1].append(prev)
            assignment.append(j)
            prev = j
        path_to_node.append(assignment)
    return ScenarioPrefixTree(
        leaf_paths=tuple(paths),
        nodes=tuple(tuple(level) for level in nodes),
        path_to_node=tuple(tuple(a) for a in path_to_node),
        parent=tuple(tuple(level) for level in parent),
    )


def relaxed_grouping(paths: list[ScenarioPath]) -> ScenarioPrefixTree:
    """Certificate grouping with nonanticipativity dropped after stage one:
    every distinct full path keeps its own certificates at every stage
    (exact duplicates still share).  Used for the two-stage relaxation."""
    if not paths:
        raise ValueError("cannot group zero paths")
    S = paths[0].n_stages
    if any(p.n_stages != S for p in paths):
        raise ValueError("all paths must have the same stage count")
    distinct: dict[tuple, int] = {}
    owner: list[int] = []
    reps: list[ScenarioPath] = []
    for p in paths:
        key = p.stages
        j = distinct.get(key)
        if j is None:
            j = len(reps)
            distinct[key] = j
            reps.append(p)
        owner.append(j)
    nodes = tuple(tuple(p.prefix(t) for p in reps) for t in range(1, S + 1))
    path_to_node = tuple(tuple(owner[i] for _ in range(S)) for i in range(len(paths)))
    parent = tuple(tuple(range(len(reps))) for _ in range(S))
    return ScenarioPrefixTree(tuple(paths), nodes, path_to_node, parent)


# ---------------------------------------------------------------------------
# row-wise reference builders
#
# The certificate, deterministic and stacked per-path LPs built one variable
# and one row at a time through LPBuilder: the assembly swcopt.builders used
# before its vectorised emitter, kept as the oracle of the differential test
# in test_assembly.py.  First-stage columns of stacked blocks carry the
# per-path tag "_s{i}", as later stages do, and build_swc returns its column
# layout as the plain triple (gamma, x1, blocks).

def _add_first_stage(b: LPBuilder, problem: MultistageRobustLP, names, obj_c1=False,
                     tag: str = "") -> range:
    cols = []
    for k in range(problem.dims.n[0]):
        lo = 0.0 if problem.nonneg[0][k] else -np.inf
        obj = float(problem.c1[k]) if obj_c1 else 0.0
        cols.append(b.add_var(lo, np.inf, obj, f"{names[0][k]}{tag}"))
    for i in range(problem.dims.m[0]):
        row = problem.A[i]
        nz = np.nonzero(row)[0]
        b.add_row([cols[j] for j in nz], row[nz], problem.senses1[i], problem.h1[i])
    return range(cols[0], cols[-1] + 1) if cols else range(0, 0)


def _add_stage_rows(
    b: LPBuilder,
    problem: MultistageRobustLP,
    t: int,
    xi: np.ndarray,
    prev_cols: range,
    cols: range,
) -> None:
    blk = problem.stage_block(t)
    T, W, h = blk.T(xi), blk.W(xi), blk.h(xi)
    for i in range(problem.dims.m[t - 1]):
        r_cols, r_vals = [], []
        nzT = np.nonzero(T[i])[0]
        r_cols += [prev_cols[j] for j in nzT]
        r_vals += list(T[i][nzT])
        nzW = np.nonzero(W[i])[0]
        r_cols += [cols[j] for j in nzW]
        r_vals += list(W[i][nzW])
        b.add_row(r_cols, r_vals, blk.senses[i], h[i])


def _add_stage_vars(b: LPBuilder, problem: MultistageRobustLP, t: int, tag: str, names,
                    obj: np.ndarray | None = None) -> range:
    cols = []
    for k in range(problem.dims.n[t - 1]):
        lo = 0.0 if problem.nonneg[t - 1][k] else -np.inf
        coef = float(obj[k]) if obj is not None else 0.0
        cols.append(b.add_var(lo, np.inf, coef, f"{names[t - 1][k]}{tag}"))
    return range(cols[0], cols[-1] + 1)


def build_swc(
    problem: MultistageRobustLP, tree: ScenarioPrefixTree
) -> tuple[LPInstance, tuple[int, range, dict]]:
    """Scenario-with-certificates LP over the sampled prefix tree.

    Variables: budget gamma, the first-stage block, then one certificate
    block per tree node in breadth-first order.  Rows shared by several
    paths through a common prefix are emitted once.
    """
    _check_problem(problem)
    H = problem.H
    if tree.n_stages != H - 1:
        raise ValueError(f"tree has {tree.n_stages} stages, problem expects {H - 1}")
    names = problem.default_names()
    b = LPBuilder()
    gamma = b.add_var(-np.inf, np.inf, 1.0, "gamma")
    x1 = _add_first_stage(b, problem, names)

    blocks: dict[tuple[int, int], range] = {}
    for level in range(1, H):  # tree level = uncertainty stage; decision stage level+1
        for j in range(tree.n_nodes(level)):
            blocks[(level + 1, j)] = _add_stage_vars(b, problem, level + 1, f"_n{level}_{j}", names)

    for level in range(1, H):
        t = level + 1
        for j in range(tree.n_nodes(level)):
            xi = flatten_prefix(tree.node_prefix(level, j))
            prev = x1 if level == 1 else blocks[(t - 1, tree.parent[level - 1][j])]
            _add_stage_rows(b, problem, t, xi, prev, blocks[(t, j)])

    # one worst-case budget row per distinct full path (leaf node)
    for leaf in range(tree.n_nodes(H - 1)):
        cols = [gamma] + list(x1)
        vals = [-1.0] + list(problem.c1)
        node = leaf
        chain = [node]
        for level in range(H - 1, 1, -1):
            node = tree.parent[level - 1][node]
            chain.append(node)
        chain.reverse()  # stage-1..stage-(H-1) nodes along this leaf's history
        prefix = tree.node_prefix(H - 1, leaf)
        for t in range(2, H + 1):
            xi = flatten_prefix(prefix[: t - 1])
            c_t = problem.stage_block(t).c(xi)
            rng = blocks[(t, chain[t - 2])]
            nz = np.nonzero(c_t)[0]
            cols += [rng[k] for k in nz]
            vals += list(c_t[nz])
        b.add_row(cols, vals, LE, 0.0)
    return b.build(), (gamma, x1, blocks)


def build_deterministic(problem: MultistageRobustLP, path: ScenarioPath) -> LPInstance:
    """Fully anticipative single-scenario LP (all stages decided knowing the path)."""
    _check_problem(problem)
    names = problem.default_names()
    b = LPBuilder()
    x1 = _add_first_stage(b, problem, names, obj_c1=True)
    prev = x1
    for t in range(2, problem.H + 1):
        xi = path.flat(t - 1)
        cols = _add_stage_vars(b, problem, t, "", names, obj=problem.stage_block(t).c(xi))
        _add_stage_rows(b, problem, t, xi, prev, cols)
        prev = cols
    return b.build()


def _separable_blocks(
    problem: MultistageRobustLP,
    paths: list[ScenarioPath],
    x1: np.ndarray | None,
) -> tuple[LPInstance, list[range], list[float]]:
    """Block-diagonal stack of per-path LPs (independent blocks, summed
    objective).  With x1 fixed the blocks are the recourse problems over
    stages 2..H; otherwise each block is the full deterministic LP."""
    names = problem.default_names()
    b = LPBuilder()
    block_cols: list[range] = []
    consts: list[float] = []
    for i, path in enumerate(paths):
        start = b.ncols
        if x1 is None:
            prev = _add_first_stage(b, problem, names, obj_c1=True, tag=f"_s{i}")
            const = 0.0
        else:
            prev = None
            const = float(problem.c1 @ x1)
        for t in range(2, problem.H + 1):
            xi = path.flat(t - 1)
            cols = _add_stage_vars(
                b, problem, t, f"_s{i}", names, obj=problem.stage_block(t).c(xi)
            )
            if t == 2 and x1 is not None:
                blk = problem.stage_block(2)
                T, W, h = blk.T(xi), blk.W(xi), blk.h(xi)
                shift = T @ x1
                for r in range(problem.dims.m[1]):
                    nz = np.nonzero(W[r])[0]
                    b.add_row([cols[j] for j in nz], W[r][nz], blk.senses[r], h[r] - shift[r])
            else:
                _add_stage_rows(b, problem, t, xi, prev, cols)
            prev = cols
        block_cols.append(range(start, b.ncols))
        consts.append(const)
    return b.build(), block_cols, consts


def row_activity(lp: LPInstance, x: np.ndarray) -> np.ndarray:
    out = np.zeros(lp.nrows)
    for i in range(lp.nrows):
        cols, vals = lp.row(i)
        out[i] = vals @ x[cols]
    return out


def max_violation(lp: LPInstance, x: np.ndarray) -> float:
    """Worst constraint/bound violation of x (0 means feasible)."""
    act = row_activity(lp, x)
    worst = 0.0
    for i, s in enumerate(lp.senses):
        r = lp.rhs[i]
        if s == LE:
            worst = max(worst, act[i] - r)
        elif s == GE:
            worst = max(worst, r - act[i])
        else:
            worst = max(worst, abs(act[i] - r))
    worst = max(worst, float(np.max(lp.lower - x, initial=0.0)))
    worst = max(worst, float(np.max(x - lp.upper, initial=0.0)))
    return worst


def to_scipy(lp: LPInstance):
    """Split rows into (A_ub, b_ub, A_eq, b_eq) sparse matrices, row by row."""
    from scipy import sparse

    r_ub, c_ub, v_ub, b_ub = [], [], [], []
    r_eq, c_eq, v_eq, b_eq = [], [], [], []
    for i, s in enumerate(lp.senses):
        cols, vals = lp.row(i)
        if s == EQ:
            r_eq.append(np.full(cols.size, len(b_eq)))
            c_eq.append(cols)
            v_eq.append(vals)
            b_eq.append(lp.rhs[i])
        else:
            sign = 1.0 if s == LE else -1.0
            r_ub.append(np.full(cols.size, len(b_ub)))
            c_ub.append(cols)
            v_ub.append(sign * vals)
            b_ub.append(sign * lp.rhs[i])

    def _mat(rows, cols, vals, m):
        if m == 0:
            return None
        return sparse.csr_matrix(
            (np.concatenate(vals) if vals else [],
             (np.concatenate(rows) if rows else [], np.concatenate(cols) if cols else [])),
            shape=(m, lp.ncols),
        )

    A_ub = _mat(r_ub, c_ub, v_ub, len(b_ub))
    A_eq = _mat(r_eq, c_eq, v_eq, len(b_eq))
    return A_ub, np.array(b_ub), A_eq, np.array(b_eq)
