"""The soft perf gate compares wall seconds of like-for-like figures."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent
          / "scripts" / "check_perf_regression.py")
spec = importlib.util.spec_from_file_location("check_perf_regression", SCRIPT)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def report(wall, events, headline=None):
    task = {"wall_seconds": wall, "events": events,
            "events_per_sec": events / wall,
            "headline": headline or {"requests_failed": 0}}
    return {"figures": {"fig17": {"wall_seconds": wall, "events": events,
                                  "events_per_sec": events / wall,
                                  "tasks": {"sm": task}}}}


def test_fewer_events_in_less_time_is_not_a_regression():
    """Events/s halves, wall falls: the figure got faster."""
    baseline = report(wall=10.0, events=1_000_000)
    faster = report(wall=8.0, events=400_000)
    assert gate.compare(faster, baseline, threshold=0.15) == []


def test_slower_wall_is_a_regression_whatever_the_event_rate():
    baseline = report(wall=10.0, events=1_000_000)
    slower = report(wall=12.5, events=2_000_000)
    [(figure, old, new, ratio)] = gate.compare(slower, baseline, 0.15)
    assert (figure, old, new) == ("fig17", 10.0, 12.5)
    assert ratio == 0.8
    assert gate.compare(report(11.0, 1_000_000), baseline, 0.15) == []


def test_only_the_same_work_is_compared():
    """A smoke run (other headline numbers) says nothing about wall."""
    baseline = report(wall=10.0, events=1_000_000)
    smoke = report(wall=50.0, events=10_000,
                   headline={"requests_failed": 3})
    assert gate.comparable_figures(smoke, baseline) == []
    assert gate.compare(smoke, baseline, 0.15) == []


def test_figures_only_report_passes_cleanly(tmp_path, monkeypatch, capsys):
    """A report with no per-section keys at all: with no section gate
    selected, none is looked for and none warns about being absent."""
    current = report(wall=10.0, events=1_000_000)
    assert set(current) == {"figures"}
    (tmp_path / "report.json").write_text(json.dumps(current))
    (tmp_path / "baseline.json").write_text(json.dumps(current))
    monkeypatch.setattr(sys, "argv", [
        "check_perf_regression.py", "--hard",
        "--report", str(tmp_path / "report.json"),
        "--baseline", str(tmp_path / "baseline.json")])
    assert gate.main() == 0
    out = capsys.readouterr().out
    assert "::warning" not in out
    assert "1 figure(s) within 15% of baseline speed (fig17)" in out
