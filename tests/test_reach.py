import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_cases_parse_with_and_without_batches():
    assert reach.parse("integer:18838") == ("integer", 18838, None)
    assert reach.parse("continuous:18838:100") == ("continuous", 18838, 100)


@pytest.mark.parametrize("case", ["integer", "integer:", "mixed:63", "integer:63:",
                                  "integer:63:x", "integer:63:0", "integer:0",
                                  "integer:63:1:2"])
def test_a_bad_case_is_refused_before_any_solve(case, monkeypatch):
    monkeypatch.setattr(reach.subprocess, "run", lambda *a, **k: pytest.fail("a case ran"))
    with pytest.raises(SystemExit, match="is not VARIANT:N or VARIANT:N:L"):
        reach.main(["integer:63", case])


def test_a_case_with_batches_prints_its_time_per_path(capfd):
    reach.main(["continuous:63:2"])
    line = json.loads(capfd.readouterr().out)
    assert line["N"] == 63 and line["L"] == 2
    for run, seconds in ((line["cold"], line["validation_cold_s"]), (line, line["validation_s"])):
        per_path = run["validation_us_per_path"]
        assert per_path > 0
        # validation_s is rounded to the millisecond, the time per path is not
        assert abs(per_path * 2 * 63 / 1e6 - seconds) <= 5e-4
