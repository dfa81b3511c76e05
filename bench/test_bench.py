"""Self-test of the benchmark harness: ``python -m pytest bench/ -q``.

Outside ``testpaths``, so the tier-1 suite's time is unchanged.  Runs all
seven workloads once at ``--quick`` sizes (under a minute in total) and
checks what the harness promises about its own output.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def units(tmp_path_factory):
    """One plain and one traced quick unit of every workload."""
    spans_dir = tmp_path_factory.mktemp("spans")
    collected = {}
    for name in run.WORKLOAD_NAMES:
        spans_out = (str(spans_dir / f"{name}.json")
                     if name == "skew_scatter" else "")
        collected[name] = (
            run.run_unit(name, seed=3, quick=True),
            run.run_unit(name, seed=3, quick=True, trace=True,
                         spans_out=spans_out))
    collected["spans_file"] = str(spans_dir / "skew_scatter.json")
    return collected


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_outputs_are_correct_and_traced_equals_untraced(units, name):
    plain, traced = units[name]
    assert run.failed_checks([plain, traced]) == []
    assert plain["fingerprint"] == traced["fingerprint"]
    assert plain["attempted"] >= 1
    assert plain["ops"] >= 1 and plain["failed"] == 0
    assert plain["counts"]["solver.timed_out"] == 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_named_metric_is_present_with_a_unit(units, name):
    plain, traced = units[name]
    values = run.end_to_end([plain])
    for metric, unit, _, _, _, in_driver in catalogue.END_TO_END:
        assert unit
        if in_driver:
            assert values[metric] > 0, metric
    layers = run.per_layer([plain], [traced], [])
    assert set(layers) == set(catalogue.NAMES)
    for metric, value in layers.items():
        assert catalogue.UNIT[metric]
        assert value == value, f"{metric} is NaN"
        if not metric.endswith("_ratio"):
            assert value >= 0, metric


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_layer_self_times_fit_inside_the_traced_region(units, name):
    _, traced = units[name]
    spans = traced["spans"]
    assert spans["nesting_errors"] == 0
    attributed = sum(spans["busy_s"].values()) + spans["engine_self_s"]
    assert attributed <= traced["wall_raw_s"] * 1.0001


def test_event_workloads_attribute_engine_time_to_layers(units):
    for name in ("upgrade_event", "skew_scatter"):
        spans = units[name][1]["spans"]
        assert spans["engine_run_s"] > 0
        assert spans["engine_self_s"] / spans["engine_run_s"] <= 0.3, name


def test_dumped_spans_nest(units):
    with open(units["spans_file"]) as handle:
        dump = json.load(handle)
    start, end, parent = dump["start"], dump["end"], dump["parent"]
    assert len(start) == units["skew_scatter"][1]["spans"]["spans"] > 1000
    for i, p in enumerate(parent):
        assert end[i] >= start[i]
        if p >= 0:
            assert p < i and start[p] <= start[i] and end[i] <= end[p]


def test_catalogue_matches_benchmark_json():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import workloads
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        declared = json.load(f)
    assert [w["name"] for w in declared["workloads"]] == list(
        run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == [
        (name, unit, better, bound)
        for name, unit, _, better, bound, in_driver in catalogue.END_TO_END
        if in_driver]
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in catalogue.CATALOGUE]


def test_compare_verdicts():
    assert compare.verdict(0.30, 0.25, 0.05) == "worse"
    assert compare.verdict(-0.30, 0.25, 0.05) == "better"
    assert compare.verdict(0.05, 0.25, 0.05) == "same"
    assert compare.verdict(0.05, 0.25, 0.30) == "unresolved"
    assert compare.verdict(0.28, 0.25, 0.30) == "unresolved"
    assert compare.worsening(2.0, 2.2, "lower", False) == pytest.approx(0.1)
    assert compare.worsening(100.0, 90.0, "higher", False) == pytest.approx(0.1)
    assert compare.worsening(0.0, 0.003, "lower", True) == pytest.approx(0.003)
