import dataclasses
import time

import pytest

from swcopt.builders import build_swc, exact_value, vertex_paths
from swcopt.complexity import sample_complexity
from swcopt.inventory import (
    BENCHMARK_N0,
    INTEGER_DEMAND_INTERVALS,
    build_coc,
    integer_demand_supports,
    inventory_benchmark,
    nominal_demand,
    run_paper_grid,
    table_data,
)
from swcopt.lp import get_solver
from swcopt.model import validate
from swcopt.sampling import build_prefix_tree


def test_nominal_demand_published_values():
    assert nominal_demand(1) == pytest.approx(75.0, abs=1e-9)
    assert nominal_demand(2) == pytest.approx(100.0, abs=1e-9)
    assert nominal_demand(3) == pytest.approx(125.0, abs=1e-9)
    assert nominal_demand(4) == pytest.approx(143.3013, abs=1e-4)


def test_table_data_shapes():
    data = table_data(5)
    assert data.cum_lower == (47.0, 134.0, 188.0, 429.0)
    assert data.cum_upper == (94.0, 248.0, 370.0, 586.0)
    assert len(data.demand_nominal) == 4
    data2 = table_data(2)
    assert data2.cum_lower == (47.0,)
    with pytest.raises(ValueError):
        table_data(7)


def test_models_validate():
    for stages in (2, 3, 5):
        assert validate(inventory_benchmark(stages)) == []
    assert validate(inventory_benchmark(5, "integer")) == []


def test_dimensions():
    p = inventory_benchmark(5)
    assert p.dims.n == (3, 4, 4, 4, 3)
    assert p.dims.H == 5
    p2 = inventory_benchmark(2)
    assert p2.dims.n == (3, 3)


def test_vertex_paths_reproduce_published_grid():
    problem = inventory_benchmark(5)
    paths = vertex_paths(problem.uncertainty)
    assert len(paths) == 16
    first = [s[0] for s in paths[0].stages]
    assert first[:3] == [pytest.approx(52.5), pytest.approx(70.0), pytest.approx(87.5)]
    assert first[3] == pytest.approx(nominal_demand(4) * 0.7, abs=1e-9)
    last = [s[0] for s in paths[-1].stages]
    assert last[:3] == [pytest.approx(97.5), pytest.approx(130.0), pytest.approx(162.5)]
    assert last[3] == pytest.approx(nominal_demand(4) * 1.3, abs=1e-9)


def test_two_stage_vertices():
    problem = inventory_benchmark(2)
    verts = sorted(v[0] for v in problem.uncertainty.vertices(1))
    assert verts == [pytest.approx(52.5), pytest.approx(97.5)]


def test_benchmark_sample_sizes_match_grid():
    assert sample_complexity(0.3, 0.001, BENCHMARK_N0) == 63
    assert sample_complexity(0.00025, 0.001, BENCHMARK_N0) == 75352


def test_exact_references_builtin_solver_fast():
    problem = inventory_benchmark(5)
    t0 = time.perf_counter()
    ro = exact_value(problem, "ro", solver="builtin")
    rws = exact_value(problem, "rws", solver="builtin")
    rt = exact_value(problem, "rt", solver="builtin")
    elapsed = time.perf_counter() - t0
    assert ro == pytest.approx(2207.554108, abs=1e-3)
    assert rws == pytest.approx(1831.891109, abs=1e-3)
    assert rt == pytest.approx(1831.891109, abs=1e-3)
    assert elapsed < 5.0


def test_cost_linearization_tight_on_binding_path():
    problem = inventory_benchmark(5)
    d = table_data(5)
    tree = build_prefix_tree(vertex_paths(problem.uncertainty))
    lp, vmap = build_swc(problem, tree)
    res = get_solver("highs")(lp)
    x = res.x
    gamma = x[vmap.gamma]
    x1 = x[vmap.x1.start : vmap.x1.stop]
    # locate a binding worst-case path and check x_c = max(d*x_o + h*s, d*x_o - p*s)
    found_binding = False
    for leaf in range(tree.n_nodes(4)):
        chain = [leaf]
        node = leaf
        for level in range(4, 1, -1):
            node = tree.parent[level - 1][node]
            chain.append(node)
        chain.reverse()
        total = problem.c1 @ x1
        blocks = [x[vmap.blocks[(t, chain[t - 2])].start : vmap.blocks[(t, chain[t - 2])].stop]
                  for t in range(2, 6)]
        total += sum(blk[1] if len(blk) == 4 else blk[0] for blk in blocks)
        if abs(total - gamma) > 1e-6:
            continue
        found_binding = True
        for t, blk in zip(range(2, 6), blocks):
            if len(blk) == 4:
                xo, xc, si = blk[0], blk[1], blk[2]
                want = max(d.order_cost * xo + d.holding_cost * si,
                           d.order_cost * xo - d.backlog_cost * si)
            else:
                xc, si = blk[0], blk[1]
                want = max(d.holding_cost * si, -d.backlog_cost * si)
            assert xc == pytest.approx(want, abs=1e-6)
    assert found_binding


def test_integer_intervals_follow_published_endpoints():
    sups = integer_demand_supports(5)
    got = [(int(s.lower[0]), int(s.upper[0])) for s in sups]
    assert got == [(53, 97), (70, 130), (88, 163), (100, 186)]
    assert INTEGER_DEMAND_INTERVALS[2] == (87.5, 163.0)


def test_integer_variant_exact_chain():
    problem = inventory_benchmark(5, "integer")
    ro = exact_value(problem, "ro")
    rws = exact_value(problem, "rws")
    rt = exact_value(problem, "rt")
    assert rws <= rt + 1e-7 <= ro + 2e-7
    # close cousins of the continuous references
    assert ro == pytest.approx(2207.554108, rel=0.02)


def test_order_bound_rows_emitted_when_finite():
    data = dataclasses.replace(table_data(2), order_upper=(80.0,), order_lower=(5.0,))
    problem = build_coc(data)
    assert validate(problem) == []
    # two extra first-stage rows beyond the four standard ones
    assert problem.dims.m[0] == 6


def test_run_paper_grid_smoke(tmp_path, caplog):
    with caplog.at_level("WARNING", logger="swcopt.inventory"):
        report = run_paper_grid(
            variant="continuous", stages=2, out_dir=tmp_path,
            epsilons=(0.3, 0.01), instances=2, base_seed=7, jobs=1, L=2,
            max_samples=100, compute_bounds=False,
        )
    assert "skipping eps=0.01" in caplog.text
    assert (tmp_path / "results_eps0.3.csv").exists()
    assert (tmp_path / "summary_eps0.3.csv").exists()
    refs = (tmp_path / "references.csv").read_text().splitlines()
    assert refs[0] == "mode,value"
    modes = {ln.split(",")[0] for ln in refs[1:]}
    assert modes == {"ro", "rws", "rt"}
    assert len(report.rows_for(0.3)) == 2
