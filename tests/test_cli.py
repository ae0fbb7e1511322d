import json
import subprocess
import sys

import pytest

from swcopt import validation
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


@pytest.mark.parametrize("argv", [
    ["complexity", "--eps", "1.5"],
    ["experiment", "--benchmark", "inventory", "--stages", "7", "--eps", "0.3", "--out", "x"],
    ["experiment", "--benchmark", "inventory", "--stages", "2", "--eps", "0.3",
     "--instances", "0", "--out", "x"],
    ["solve-swc", "--benchmark", "inventory", "--stages", "2", "--samples", "0"],
    ["validate", "--benchmark", "inventory", "--solution", "no-such-solution.json"],
    ["--config", "bad.json", "complexity", "--eps", "0.3"],
])
def test_invalid_values_exit_2_with_one_error_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{beta: 0.001}")
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "x").exists()


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"instance": 3}))
    argv = ["--config", str(cfg), "experiment", "--benchmark", "inventory", "--eps", "0.3",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "instance" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    # instances and bounds are experiment's: one file may serve several commands
    cfg.write_text(json.dumps({"beta": 0.001, "n0": 4, "instances": 2, "bounds": True}))
    assert main(["--config", str(cfg), "complexity", "--eps", "0.3"]) == 0
    assert capsys.readouterr().out.strip() == "63"


def test_config_numbers_are_parsed_as_their_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"eps": 0.3, "instances": 1, "validation_batches": 1}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "benchmark-inventory", "--stages", "2",
                 "--out", str(out)]) == 0
    assert (out / "results_eps0.3.csv").exists()
    cfg.write_text(json.dumps({"seed": 1.5}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "solve-swc", "--benchmark", "inventory", "--samples", "3"])
    assert exc.value.code == 2
    assert "--seed: invalid int value: '1.5'" in capsys.readouterr().err


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


def _csvs(out):
    # every file of an output directory, runtime_ms (wall clock) cut from the results
    files = {}
    for f in sorted(out.iterdir()):
        lines = f.read_text().splitlines()
        if f.name.startswith("results"):
            lines = [",".join(ln.split(",")[:-1]) for ln in lines]
        files[f.name] = lines
    return files


def test_experiment_reruns_byte_identical(tmp_path):
    args = [
        "experiment", "--benchmark", "inventory", "--stages", "2",
        "--eps", "0.3", "--instances", "3", "--seed", "11",
        "--validation-batches", "2", "--jobs", "1",
    ]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    a = _csvs(tmp_path / "a")
    assert sorted(a) == ["references.csv", "results_eps0.3.csv", "summary_eps0.3.csv"]
    assert a == _csvs(tmp_path / "b")


def test_benchmark_inventory_is_an_experiment_preset(tmp_path):
    flags = ["--stages", "2", "--eps", "0.3", "--instances", "2", "--validation-batches", "2"]
    assert main(["benchmark-inventory", *flags, "--out", str(tmp_path / "preset")]) == 0
    assert main(["experiment", "--benchmark", "inventory", "--bounds", "--seed", "20160001",
                 *flags, "--out", str(tmp_path / "plain")]) == 0
    preset, plain = _csvs(tmp_path / "preset"), _csvs(tmp_path / "plain")
    assert sorted(preset) == ["references.csv", "results_eps0.3.csv", "summary_eps0.3.csv"]
    assert preset == plain
    refs = preset["references.csv"]
    assert refs[0] == "mode,value"
    assert [ln.split(",")[0] for ln in refs[1:]] == ["ro", "rt", "rws"]
    assert [ln.split(",")[0] for ln in preset["results_eps0.3.csv"][1:]] == ["20160001", "20160002"]


def test_experiment_prints_failures_and_bound_flags(tmp_path, monkeypatch, capsys):
    real = validation.solve_swc_paths
    calls = {"n": 0}

    def flaky(problem, paths, solver):
        # the first instance's solve fails; the second instance runs
        calls["n"] += 1
        if calls["n"] == 1:
            raise validation.SolverError("synthetic failure")
        return real(problem, paths, solver)

    monkeypatch.setattr(validation, "solve_swc_paths", flaky)
    monkeypatch.setattr(validation, "sws_value", lambda problem, paths, solver: (1e9, 0))
    code = main(["experiment", "--benchmark", "inventory", "--stages", "2", "--eps", "0.3",
                 "--instances", "2", "--seed", "3", "--validation-batches", "1", "--bounds",
                 "--out", str(tmp_path)])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "failed: eps=0.3 instance=0: SolverError: synthetic failure"
    assert err[1].startswith("bound order: eps=0.3 seed=4: sws 1000000000.000000 > swc ")
    assert len(err) == 2


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
