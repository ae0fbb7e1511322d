"""The benchmark's output checks pass on swcopt's real outputs and fail
when one of those outputs is moved by about 1%.

    PYTHONPATH=src python -m pytest -q bench/selftest_checks.py
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from swcopt import builders, inventory, sampling, validation

import checks
import reference
from checks import PUBLISHED


@pytest.fixture(scope="module")
def continuous():
    """An N=63 SwC solution with independent costs on 8 training paths."""
    problem = inventory.inventory_benchmark(5)
    train = sampling.draw_paths(problem.uncertainty, 63, [5, 0])
    value, x1, gamma, _ = builders.solve_swc_paths(problem, train)
    xis = [reference.flat_path(p) for p in train[:8]]
    anticipative = [reference.path_cost(problem, xi) for xi in xis]
    recourse = [reference.path_cost(problem, xi, x1) for xi in xis]
    return problem, value, x1, gamma, anticipative, recourse


@pytest.fixture(scope="module")
def integer():
    """An integer-demand SwC instance with its tree, LP size and bounds."""
    problem = inventory.inventory_benchmark(5, "integer")
    train = sampling.draw_paths(problem.uncertainty, 200, [5, 0])
    tree = sampling.build_prefix_tree(train)
    model, _ = builders.build_swc(problem, tree)
    value = builders.solve_swc_paths(problem, train)[0]
    sws = builders.sws_value(problem, train)[0]
    swct = builders.swct_value(problem, [p.stages[0] for p in train])
    return problem, tree, model, value, sws, swct


def test_swc_bounds_reject_moved_values(continuous):
    _, value, _, gamma, anticipative, recourse = continuous
    assert checks.swc_bounds(value, gamma, anticipative, recourse) == []
    assert checks.swc_bounds(PUBLISHED["ro"] * 1.01, gamma, anticipative, recourse)
    assert checks.swc_bounds(0.99 * max(anticipative), gamma, anticipative, recourse)
    assert checks.swc_bounds(value, 0.99 * max(recourse), anticipative, recourse)


def test_reference_lp_matches_program_costs(continuous):
    problem, _, x1, _, _, recourse = continuous
    train = sampling.draw_paths(problem.uncertainty, 63, [5, 0])
    program = builders.scenario_costs(problem, train[:8], x1=x1)
    np.testing.assert_allclose(program, recourse, rtol=1e-9)


def test_costs_agree_rejects_a_cost_moved_across_gamma(continuous):
    problem, _, x1, gamma, _, _ = continuous
    paths = sampling.draw_paths(problem.uncertainty, 16, [5, 1])
    program = builders.scenario_costs(problem, paths, x1=x1)
    ref = [reference.path_cost(problem, reference.flat_path(p), x1) for p in paths]
    tol = validation.VIOLATION_TOL
    assert checks.costs_agree(program, ref, gamma, tol) == []
    # a budget just above path 0's cost, then that cost moved 1% across it
    budget = program[0] * 1.005
    assert checks.costs_agree(program, ref, budget, tol) == []
    moved = program.copy()
    moved[0] *= 1.01
    assert any("indicator" in f for f in checks.costs_agree(moved, ref, budget, tol))
    # a 1% move that stays on one side of the budget still breaks agreement
    assert any("differs" in f for f in checks.costs_agree(moved, ref, 1e9, tol))


def test_violation_share_rejects_a_moved_fraction(continuous):
    problem, _, x1, _, _, _ = continuous
    paths = sampling.draw_paths(problem.uncertainty, 16, [5, 1])
    costs = builders.scenario_costs(problem, paths, x1=x1)
    tol = validation.VIOLATION_TOL
    # a budget between the 8th and 9th smallest cost: half the paths violate
    budget = float(np.mean(np.sort(costs)[7:9]))
    assert checks.violation_share(0.5, costs, budget, tol) == []
    assert checks.violation_share(0.5 + 1 / 16, costs, budget, tol)
    assert checks.violation_share(0.0, costs, budget, tol)


def test_tree_and_lp_size_reject_wrong_counts(integer):
    problem, tree, model, *_ = integer
    nodes = list(tree.node_counts())
    lattice = checks.lattice_sizes(problem.uncertainty)
    assert lattice[0] == 45
    assert checks.tree_shape(nodes, tree.n_paths, lattice) == []
    assert checks.lp_size(model.nrows, model.ncols, problem.dims, nodes) == []
    assert checks.lp_size(model.nrows + 1, model.ncols, problem.dims, nodes)
    assert checks.lp_size(model.nrows, model.ncols - 1, problem.dims, nodes)
    assert checks.tree_shape([nodes[0], nodes[0] - 1] + nodes[2:], tree.n_paths, lattice)
    assert checks.tree_shape([46] + nodes[1:], tree.n_paths, lattice)
    assert checks.tree_shape(nodes, nodes[-1] - 1, lattice)


def test_bound_chain_rejects_moved_bounds(integer):
    *_, value, sws, swct = integer
    assert checks.bound_chain(value, sws, swct) == []
    assert checks.bound_chain(value, value * 1.01, swct)
    assert checks.bound_chain(PUBLISHED["rws"] * 1.1, PUBLISHED["rws"] * 1.01, swct)
    assert checks.bound_chain(value, sws, PUBLISHED["rt"] * 1.01)


def test_exact_references_reject_moved_values():
    problem = inventory.inventory_benchmark(5)
    highs = {m: builders.exact_value(problem, m) for m in ("ro", "rws", "rt")}
    values = dict(highs, rvpi=highs["ro"] - highs["rws"])
    assert checks.exact_references(values, highs) == []
    for mode in ("ro", "rws", "rt", "rvpi"):
        assert checks.exact_references(dict(values, **{mode: values[mode] * 1.01}), highs)
    unordered = checks.exact_references(dict(values, rws=values["rt"] * 1.01), highs)
    assert any("rws above rt" in f for f in unordered)


def test_validation_check_rejects_a_moved_result():
    """The validation workload's check recomputes the whole batch, so a
    timed result off by one path of 2000 fails it."""
    import workloads

    validation_workload = workloads.FixedSolutionValidation(seed=1)
    op = validation_workload.round(0)[0]
    violation = op.run()
    assert violation > 0
    assert op.check(violation) == []
    assert op.check(violation + 1 / workloads.VALIDATION_BATCH)
    assert op.check(0.0)
