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


@pytest.mark.parametrize("flag", [["--journal", "trace.jsonl"],
                                  ["--trace-figure", "fig18"],
                                  ["--check-trace"]])
def test_run_experiments_trace_flags_require_trace(flag, monkeypatch, capsys,
                                                   tmp_path):
    script = load_script("run_experiments")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", ["run_experiments.py", "--smoke",
                                     "--figures", "fig01", *flag])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 2
    assert f"{flag[0]} requires --trace" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_run_chaos_takes_its_arms_from_the_chaos_table(monkeypatch, capsys):
    """Every ``repro.chaos.ARMS`` entry is reachable, and every one runs
    by default; the script used to keep its own two-arm list."""
    from repro.chaos import ARMS
    script = load_script("run_chaos")
    argv = ["run_chaos.py", "--scenario", "crash_single", "--no-repeat",
            "--serial", "--check-trace"]
    for arms, expected in ((["--arms", "no_graceful"], ["no_graceful"]),
                           ([], list(ARMS))):
        monkeypatch.setattr("sys.argv", argv + arms)
        assert script.main() == 0
        out = capsys.readouterr().out
        assert [line.split()[2] for line in out.splitlines()
                if line.startswith("ok ")] == expected


@pytest.mark.parametrize("first, second", [
    ("crash_single", "@{path}"),    # a file spec named like a library one
    ("@{path}", "@{path}"),         # two files, one name
])
def test_run_chaos_rejects_a_scenario_named_twice(first, second, monkeypatch,
                                                  capsys, tmp_path):
    """A repeated name used to run one spec under both cells' name (or
    keep only the last file), never the other."""
    from repro.chaos import get
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(get("crash_single").to_dict()))
    script = load_script("run_chaos")
    monkeypatch.setattr("sys.argv", [
        "run_chaos.py", "--serial", "--no-repeat", "--arms", "sm",
        "--scenario", first.format(path=path), second.format(path=path)])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 2
    assert "scenario 'crash_single' is named twice" in capsys.readouterr().err


def test_run_chaos_journal_dir_fails_a_journal_that_reloads_differently(
        monkeypatch, capsys, tmp_path):
    import repro.obs.trace_export as trace_export
    script = load_script("run_chaos")
    argv = ["run_chaos.py", "--scenario", "crash_single", "--arms", "sm",
            "--no-repeat", "--serial", "--check-trace",
            "--journal-dir", str(tmp_path)]
    monkeypatch.setattr("sys.argv", argv)
    assert script.main() == 0
    assert "0 failure(s)" in capsys.readouterr().out
    written = trace_export.write_jsonl

    def write_one_more(journal, path):
        written(journal, path)
        with open(path, "a") as handle:
            handle.write('{"seq": 0, "kind": "I", "track": "x", "name": "y", '
                         '"t": 0.0}\n')

    monkeypatch.setattr(trace_export, "write_jsonl", write_one_more)
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "FAIL crash_single" in out
    assert "crash_single.sm.seed42.run1.jsonl reloads with digest" in out


def test_run_experiments_check_trace_fails_on_a_truncated_journal(
        monkeypatch, capsys, tmp_path):
    import repro.obs
    script = load_script("run_experiments")
    # run_traced journals at the default capacity; a tiny ring truncates.
    monkeypatch.setattr(repro.obs, "Observability", functools.partial(
        repro.obs.Observability, capacity=64))
    monkeypatch.setattr("sys.argv", [
        "run_experiments.py", "--smoke", "--trace-figure", "fig17:sm",
        "--trace", str(tmp_path / "trace.json"), "--check-trace"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "::error title=trace truncated::" in out
    assert "at capacity 64" in out


@pytest.mark.parametrize("expectations, needle", [
    ({"final_ready_min": None}, "'final_ready_min' must be a number"),
    ({"final_ready_min": 7}, "final_ready_min must be <= 1.0"),
    ({"failover_bound": -1}, "failover_bound must be >= 0.0"),
])
def test_run_chaos_malformed_expectations_exit_2(expectations, needle,
                                                  monkeypatch, capsys,
                                                  tmp_path):
    """A null final_ready_min used to raise TypeError out of from_dict:
    a traceback, not the one-line exit 2."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "bad", "actions": [],
                                "expectations": expectations}))
    script = load_script("run_chaos")
    monkeypatch.setattr("sys.argv", ["run_chaos.py", "--serial",
                                     "--scenario", f"@{path}"])
    assert script.main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"run_chaos.py: {path}: ")
    assert needle in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("script_name, argv", [
    ("run_chaos", ["--serial", "--scenario", "@{path}"]),
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
