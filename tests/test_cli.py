"""Command-line scripts reject bad arguments and malformed spec files
(exit 2) and fail ``--check-trace`` on a truncated journal (exit 1)."""

import functools
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("factor", ["0", "-3"])
def test_profile_solver_rejects_non_positive_factor(factor, capsys):
    script = load_script("profile_solver")
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--factor", factor, "--point", "0"])
    assert exit_info.value.code == 2
    assert "--factor: must be >= 1" in capsys.readouterr().err


def test_profile_solver_reports_the_build_beside_the_solve(capsys):
    script = load_script("profile_solver")
    assert script.main(["--factor", "250", "--point", "0", "--json"]) == 0
    build = json.loads(capsys.readouterr().out)["build"]
    assert set(build) == {"snapshot_s", "attach_goals_s", "gc_collections"}
    assert build["snapshot_s"] > 0.0 and len(build["gc_collections"]) == 3
    assert script.main(["--factor", "250", "--point", "0"]) == 0
    assert "build: snapshot" in capsys.readouterr().out


def test_run_experiments_has_no_baseline_flag(monkeypatch, capsys):
    script = load_script("run_experiments")
    monkeypatch.setattr("sys.argv", ["run_experiments.py", "--smoke",
                                     "--baseline", "baseline.json"])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --baseline" in capsys.readouterr().err


def test_run_chaos_check_trace_fails_on_a_truncated_journal(monkeypatch,
                                                            capsys):
    script = load_script("run_chaos")
    argv = ["run_chaos.py", "--scenario", "crash_single", "--arms", "sm",
            "--no-repeat", "--serial", "--check-trace"]
    monkeypatch.setattr("sys.argv", argv)
    assert script.main() == 0
    assert "0 failure(s)" in capsys.readouterr().out
    monkeypatch.setattr("sys.argv", argv + ["--capacity", "64"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "FAIL crash_single" in out
    assert "at --capacity 64" in out and "truncated trace" in out


def test_run_experiments_check_trace_fails_on_a_truncated_journal(
        monkeypatch, capsys, tmp_path):
    script = load_script("run_experiments")
    monkeypatch.setattr(script.runner, "run_traced", functools.partial(
        script.runner.run_traced, capacity=64))
    monkeypatch.setattr("sys.argv", [
        "run_experiments.py", "--smoke", "--trace-figure", "fig17:sm",
        "--trace", str(tmp_path / "trace.json"), "--check-trace"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "::error title=trace truncated::" in out
    assert "at capacity 64" in out


@pytest.mark.parametrize("script_name, argv", [
    ("run_chaos", ["--serial", "--scenario", "@{path}"]),
    ("run_fuzz", ["--replay", "{path}"]),
])
def test_malformed_spec_file_is_one_line_on_stderr_and_exit_2(
        script_name, argv, monkeypatch, capsys, tmp_path):
    """Duplicate regions used to run to completion and exit 0."""
    path = tmp_path / "spec.json"
    path.write_text('{"name": "dup", "actions": [], '
                    '"regions": ["FRC", "FRC"]}')
    script = load_script(script_name)
    monkeypatch.setattr("sys.argv", [f"{script_name}.py"] + [
        arg.format(path=path) for arg in argv])
    assert script.main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{script_name}.py: {path}: dup: regions must "
                            f"be distinct non-empty names, got "
                            f"['FRC', 'FRC']\n")
