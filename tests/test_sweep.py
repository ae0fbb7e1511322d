import importlib.util
import json
from pathlib import Path

import pytest

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
