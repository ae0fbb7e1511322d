"""Path sampling and the nonanticipativity prefix tree.

Sampled paths are grouped by exact-equality prefixes: two paths share a
stage-t node iff they agree at every stage <= t.  Continuous draws collide
with probability zero, integer and discrete draws collide exactly, so no
tolerance is involved.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ScenarioPaths, UncertaintySet


def draw_paths(uncertainty: UncertaintySet, N: int, seed, sampler=None) -> ScenarioPaths:
    """Draw N iid scenario paths, each stage independently uniform on its support.

    Deterministic for a fixed seed (any value accepted by
    ``numpy.random.default_rng``).  A non-uniform distribution plugs in as
    ``sampler(support, rng, size) -> (size, dim) array``, called once per
    stage; the default defers to each support's own uniform draw.
    """
    if N < 1:
        raise ValueError(f"need at least one path, got N={N}")
    rng = np.random.default_rng(seed)
    per_stage = []
    for t, support in enumerate(uncertainty.stages, start=1):
        draws = uncertainty.sample_stage(t, rng, N) if sampler is None else sampler(support, rng, N)
        draws = np.asarray(draws, dtype=float)
        if draws.shape[:1] != (N,) or draws.size != N * support.dim:
            raise ValueError(f"stage {t}: sampler returned shape {draws.shape}, "
                             f"expected ({N}, {support.dim})")
        per_stage.append(draws.reshape(N, support.dim))
    return ScenarioPaths(np.hstack(per_stage), tuple(s.dim for s in uncertainty.stages))


@dataclass(frozen=True, eq=False)
class ScenarioPrefixTree:
    """Sampled paths grouped by shared prefixes.

    nodes[t-1] holds the distinct realized prefixes through stage t, one
    (K_t, D_<=t) row per node in first-seen order; path_to_node[i, t-1] is
    path i's stage-t node; parent[t-1][j] is node j's stage-(t-1) node
    (parent[0] is all zeros, pointing at the root that holds the
    first-stage decisions).
    """

    paths: ScenarioPaths
    nodes: tuple[np.ndarray, ...]
    path_to_node: np.ndarray
    parent: tuple[np.ndarray, ...]

    @property
    def n_stages(self) -> int:
        return len(self.nodes)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def n_nodes(self, t: int) -> int:
        return len(self.nodes[t - 1])

    def node_prefix(self, t: int, j: int) -> tuple[tuple[float, ...], ...]:
        """Node j's prefix through stage t as one tuple per stage."""
        return ScenarioPaths(self.nodes[t - 1][j : j + 1], self.paths.widths[:t])[0].stages

    def node_counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.nodes)


def build_prefix_tree(paths) -> ScenarioPrefixTree:
    """Group paths by the exact-equality prefix rule.

    One lexsort orders the paths lexicographically; a stage-t node starts
    at every sorted row whose stage <= t columns differ from the row
    before it (== comparison, so 0.0 and -0.0 share a node).  Nodes are
    then numbered in the order their first path appears.
    """
    paths = ScenarioPaths.of(paths)
    X = paths.values
    N, D = X.shape
    order = np.lexsort(X.T[::-1])
    rows = X[order]
    changed = rows[1:] != rows[:-1]
    # first differing column between consecutive sorted rows (D: none)
    first_diff = np.where(changed.any(axis=1), changed.argmax(axis=1), D)
    path_to_node = np.empty((N, len(paths.widths)), dtype=np.int64)
    nodes, parent = [], []
    for t, end in enumerate(np.cumsum(paths.widths), start=1):
        new = np.concatenate([[True], first_diff < end])
        first = np.minimum.reduceat(order, np.flatnonzero(new))  # each node's first path
        label = np.argsort(np.argsort(first))  # node number in first-seen order
        path_to_node[order, t - 1] = label[np.cumsum(new) - 1]
        first_seen = np.sort(first)
        nodes.append(X[first_seen, :end])
        parent.append(np.zeros(len(first), np.int64) if t == 1
                      else path_to_node[first_seen, t - 2])
    return ScenarioPrefixTree(paths, tuple(nodes), path_to_node, tuple(parent))
