import json
import subprocess
import sys

import pytest

from swcopt.builders import build_deterministic
from swcopt.cli import main
from swcopt.inventory import inventory_benchmark
from swcopt.lp import get_solver
from swcopt.sampling import draw_paths


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "swcopt.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_complexity_prints_published_size(capsys):
    assert main(["complexity", "--eps", "0.3", "--beta", "0.001", "--n0", "4"]) == 0
    assert capsys.readouterr().out.strip() == "63"


def test_complexity_exact_column(capsys):
    main(["complexity", "--eps", "0.3", "--beta", "0.001", "--n0", "4", "--exact"])
    formula, exact = capsys.readouterr().out.split()
    assert formula == "63"
    assert int(exact) <= 63


def test_exact_prints_reference(capsys):
    assert main(["exact", "--benchmark", "inventory", "--stages", "5", "--mode", "ro"]) == 0
    assert capsys.readouterr().out.strip() == "2207.554108"


def test_solve_swc_single_sample_matches_deterministic(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = main([
        "solve-swc", "--benchmark", "inventory", "--stages", "5",
        "--samples", "1", "--seed", "42", "--out", str(out),
    ])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    problem = inventory_benchmark(5)
    path = draw_paths(problem.uncertainty, 1, [42, 0])[0]
    det = get_solver("highs")(build_deterministic(problem, path))
    assert printed == pytest.approx(det.objective, abs=1e-6)
    payload = json.loads(out.read_text())
    assert payload["N"] == 1
    assert len(payload["x1"]) == 3


def test_solve_swc_from_problem_file(tmp_path, capsys):
    from swcopt.problem_io import save_problem

    pfile = tmp_path / "problem.json"
    save_problem(inventory_benchmark(2), pfile)
    code = main(["solve-swc", "--problem", str(pfile), "--samples", "1", "--seed", "6"])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    problem = inventory_benchmark(2)
    path = draw_paths(problem.uncertainty, 1, [6, 0])[0]
    det = get_solver("highs")(build_deterministic(problem, path))
    assert printed == pytest.approx(det.objective, abs=1e-6)


def test_validate_round_trip(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    main([
        "solve-swc", "--benchmark", "inventory", "--stages", "2",
        "--eps", "0.3", "--beta", "0.001", "--seed", "0", "--out", str(sol),
    ])
    capsys.readouterr()
    code = main([
        "validate", "--benchmark", "inventory", "--stages", "2",
        "--solution", str(sol), "--batches", "4", "--per-batch", "50",
    ])
    assert code == 0
    frac = float(capsys.readouterr().out.strip())
    assert 0.0 <= frac <= 0.3


def test_usage_error_exit_code():
    code, _, err = run_cli("complexity")
    assert code == 2


def test_solver_failure_exit_code():
    code, _, err = run_cli(
        "exact", "--benchmark", "inventory", "--stages", "2", "--mode", "ro",
        "--solver-cmd", "/nonexistent/lp-solver",
    )
    assert code == 3
    assert "error: solver" in err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"beta": 0.001, "n0": 4}))
    assert main(["--config", str(cfg), "complexity", "--eps", "0.3"]) == 0
    assert capsys.readouterr().out.strip() == "63"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n0": 9}))
    main(["--config", str(cfg), "complexity", "--eps", "0.3", "--beta", "0.001", "--n0", "4"])
    assert capsys.readouterr().out.strip() == "63"


def test_explicit_zero_overrides_config(tmp_path, capsys):
    cfg, out = tmp_path / "run.json", tmp_path / "sol.json"
    cfg.write_text(json.dumps({"seed": 5, "samples": 20}))
    assert main(["--config", str(cfg), "solve-swc", "--benchmark", "inventory", "--stages", "2",
                 "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 0 and payload["N"] == 20


def test_experiment_reruns_byte_identical(tmp_path):
    args = [
        "experiment", "--benchmark", "inventory", "--stages", "2",
        "--eps", "0.3", "--instances", "3", "--seed", "11",
        "--validation-batches", "2", "--jobs", "1",
    ]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    for name in ("results_eps0.3.csv", "summary_eps0.3.csv", "references.csv"):
        a = (tmp_path / "a" / name).read_text()
        b = (tmp_path / "b" / name).read_text()
        if name.startswith("results"):
            # runtime_ms is wall-clock; all value columns must agree byte for byte
            a = "\n".join(",".join(ln.split(",")[:-1]) for ln in a.splitlines())
            b = "\n".join(",".join(ln.split(",")[:-1]) for ln in b.splitlines())
        assert a == b


@pytest.mark.parametrize("code", [
    "import swcopt",
    "from swcopt.cli import main; assert main(['complexity', '--eps', '0.1']) == 0",
])
def test_startup_loads_no_scipy(code):
    # scipy (and the simplex's lazy csgraph import) stays out of start-up
    check = "; import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code + check], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
