"""Differential test: the vectorised LP assembly against the row-wise oracle.

Every field of every LPInstance the builders emit must equal, bit for bit,
the one the row-wise reference builders in oracles.py emit for the same
input; so must the sparse split that feeds HiGHS.  The certificate LPs are
compared from draw to LP: the array paths and their lexsort prefix tree
feed the builder, the oracle's tuple paths and dict tree feed the oracle
builder.  Intended differences: the builders leave row_names empty (the
interchange writer then names rows c0, c1, ... as the oracle does, so the
written files are identical), and build_deterministic is the one-path
stack, so its columns carry the tag "_s0".  Row activities and the worst
violation sum in another order than the row loop and may differ from it by
rounding.
"""
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from swcopt.builders import (
    _separable_blocks,
    build_deterministic,
    build_swc,
    relaxed_grouping,
    vertex_paths,
)
from swcopt.interchange import write_interchange
from swcopt.inventory import inventory_benchmark
from swcopt.lp import LPInstance
from swcopt.model import ScenarioPath
from swcopt.sampling import build_prefix_tree, draw_paths


def _same_array(a, b, what):
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), what


def assert_same_lp(new: LPInstance, old: LPInstance, names=None):
    assert new.row_names == ()
    if names is None:
        assert write_interchange(new) == write_interchange(old)
    for field in dataclasses.fields(LPInstance):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if field.name == "names" and names is not None:
            b = names
        if field.name == "row_names":
            b = ()
        if isinstance(a, np.ndarray):
            _same_array(a, b, field.name)
        else:
            assert a == b, field.name
    # row activities in another summation order: equal within rounding
    x = np.random.default_rng(new.ncols).uniform(-1.0, 3.0, new.ncols)
    np.testing.assert_allclose(new.row_activity(x), oracles.row_activity(new, x),
                               rtol=1e-12, atol=1e-9)
    assert new.max_violation(x) == pytest.approx(oracles.max_violation(new, x), rel=1e-12, abs=1e-9)
    # the sparse split handed to HiGHS
    for a, b in zip(new.to_scipy(), oracles.to_scipy(new)):
        if a is None or b is None:
            assert a is None and b is None
        elif isinstance(a, np.ndarray):
            _same_array(a, b, "rhs split")
        else:
            assert a.shape == b.shape
            for part in ("indptr", "indices", "data"):
                _same_array(getattr(a, part), getattr(b, part), part)


def assert_same_swc(problem, paths, old_paths):
    """Both groupings of the paths: array tree and builder against the
    oracle's tuple tree and row-wise builder."""
    for group, old_group in ((build_prefix_tree, oracles.build_prefix_tree),
                             (relaxed_grouping, oracles.relaxed_grouping)):
        new, vmap = build_swc(problem, group(paths))
        old, (gamma, x1, blocks) = oracles.build_swc(problem, old_group(old_paths))
        assert_same_lp(new, old)
        assert (vmap.gamma, vmap.x1, vmap.blocks) == (gamma, x1, blocks)


def draw_both(uncertainty, N, seed):
    """The array draw and the oracle's tuple draw of the same paths."""
    paths, old_paths = draw_paths(uncertainty, N, seed), oracles.draw_paths(uncertainty, N, seed)
    assert list(paths) == old_paths
    return paths, old_paths


def assert_same_stacks(problem, paths, x1):
    for fixed in (None, x1):
        new, starts, width = _separable_blocks(problem, paths, fixed)
        old, block_cols, _ = oracles._separable_blocks(problem, paths, fixed)
        assert_same_lp(new, old)
        assert [range(s, s + width) for s in starts] == block_cols
    det = oracles.build_deterministic(problem, paths[0])
    assert_same_lp(build_deterministic(problem, paths[0]), det,
                   names=tuple(f"{nm}_s0" for nm in det.names))


@settings(max_examples=30, deadline=None)
@given(
    H=st.integers(2, 4),
    N=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    free=st.lists(st.booleans(), min_size=4, max_size=4),
    zero_cost=st.booleans(),
)
def test_random_discrete_models_match_rowwise_oracle(H, N, seed, free, zero_cost):
    rng = np.random.default_rng(seed)
    problem = oracles.random_discrete_problem(rng, H)
    # free variables at some stages, and an explicit zero in c1
    nonneg = tuple(tuple(not free[t] or k > 0 for k in range(nt))
                   for t, nt in enumerate(problem.dims.n))
    c1 = problem.c1.copy()
    if zero_cost:
        c1[0] = 0.0
    problem = dataclasses.replace(problem, nonneg=nonneg, c1=c1)
    paths, old_paths = draw_both(problem.uncertainty, N, seed)  # few support points: prefixes repeat
    assert_same_swc(problem, paths, old_paths)
    assert_same_stacks(problem, paths, rng.uniform(0.0, 2.0, problem.dims.n[0]))


@pytest.mark.parametrize("variant", ["continuous", "integer"])
@pytest.mark.parametrize("N", [1, 63])
def test_inventory_matches_rowwise_oracle(variant, N):
    problem = inventory_benchmark(5, variant)
    paths, old_paths = draw_both(problem.uncertainty, N, [N, 0])
    assert_same_swc(problem, paths, old_paths)
    assert_same_stacks(problem, paths, np.array([120.0, 94.0, 0.0]))


def test_vertex_trees_match_rowwise_oracle():
    problem = inventory_benchmark(5)
    paths = vertex_paths(problem.uncertainty)
    per_stage = [problem.uncertainty.vertices(t) for t in range(1, 5)]
    old_paths = [ScenarioPath.of(combo) for combo in itertools.product(*per_stage)]
    assert list(paths) == old_paths
    assert_same_swc(problem, paths, old_paths)
    assert_same_stacks(problem, paths, np.array([120.0, 94.0, 0.0]))
