import importlib.util
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
