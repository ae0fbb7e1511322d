import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from swcopt.lp import get_solver

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"
_spec = importlib.util.spec_from_file_location("sweep", TOOL)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def test_three_models_print_one_line(capsys):
    sweep.main(["3"])
    line = json.loads(capsys.readouterr().out)
    assert list(line) == ["models", "calls", "solves", "seeds", "fallback", "pivots", "rejected",
                          "rays"]
    assert line["models"] == 3 and line["calls"] == 9
    # the solver sees only seeds and fallbacks
    assert line["solves"] == line["seeds"] + line["fallback"] > 0


@pytest.mark.parametrize("argv", [["x"], ["3", "4"], ["-1"]])
def test_a_bad_seed_count_is_refused(argv):
    with pytest.raises(SystemExit, match="usage"):
        sweep.main(argv)


@pytest.mark.parametrize("seeds", [range(3), [282]], ids=["first-three", "model-282"])
def test_no_pool_holds_a_ray_twice(seeds):
    # the sweep's 3-model run, and model 282, whose walks end twice on e_6:
    # every pool keeps each ray once
    rays = 0
    for seed in seeds:
        problem, paths, fixed = sweep.model(seed)
        for x1 in fixed:
            sweep.scenario_costs(problem, paths, x1=x1)
        for pool in (p["optimal"] for p in problem.pools[get_solver("highs")].values()):
            assert len(np.unique(pool.rays, axis=0)) == len(pool.rays)
            rays += len(pool.rays)
    assert rays > 0
