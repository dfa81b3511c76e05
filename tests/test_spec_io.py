"""JSON round-trip and schedulability validation for scenario specs."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (ACTIONS, Expectations, FaultAction, ScenarioSpec,
                         SpecValidationError, all_scenarios, fig17_spec,
                         fig18_spec, fig19_spec, fig20_spec, load_spec,
                         run_scenario, validate_spec)
from repro.chaos.scenario import EXPECTATION_FIELDS, duration_of, param_of


def small_spec(**overrides):
    base = dict(
        name="io_test", title="io test",
        actions=(FaultAction(at=30.0, kind="crash_machine", duration=20.0,
                             params=(("index", 1), ("region", "FRC"))),),
        duration=150.0, regions=("FRC", "PRN"), machines_per_region=5,
        servers_per_region=3, shards=8, request_rate=2.0, settle=40.0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# -- round-trip ---------------------------------------------------------------

def test_every_library_scenario_round_trips():
    for spec in all_scenarios():
        data = spec.to_dict()
        # The wire form survives JSON serialization untouched.
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(data)))
        assert rebuilt == spec
        assert rebuilt.to_dict() == data


def test_round_trip_preserves_canonical_json():
    spec = small_spec()
    rebuilt = ScenarioSpec.from_dict(spec.to_dict())
    assert rebuilt.to_dict() == spec.to_dict()


def test_expectations_round_trip():
    exp = Expectations(availability_bound=12.5, failover_bound=None,
                       final_ready_min=0.75)
    assert Expectations.from_dict(exp.to_dict()) == exp


# -- rejection ----------------------------------------------------------------

def test_unknown_action_kind_rejected_with_known_list():
    with pytest.raises(ValueError) as excinfo:
        FaultAction.from_dict({"at": 1.0, "kind": "meteor_strike"})
    assert "meteor_strike" in str(excinfo.value)
    assert "crash_machine" in str(excinfo.value)


def test_unknown_fields_rejected():
    spec = small_spec()
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict(dict(spec.to_dict(), bogus=1))
    with pytest.raises(ValueError):
        FaultAction.from_dict({"at": 1.0, "kind": "crash_machine",
                               "when": 2.0})


def test_action_requires_numeric_times():
    with pytest.raises(ValueError):
        FaultAction.from_dict({"at": "soon", "kind": "crash_machine"})


# -- validation ---------------------------------------------------------------

def test_validate_rejects_action_outside_window():
    spec = small_spec(actions=(
        FaultAction(at=400.0, kind="crash_machine"),))
    with pytest.raises(SpecValidationError):
        validate_spec(spec)


def test_validate_rejects_unresolvable_region():
    spec = small_spec(actions=(
        FaultAction(at=30.0, kind="crash_region",
                    params=(("region", "ATL"),)),))
    with pytest.raises(SpecValidationError) as excinfo:
        validate_spec(spec)
    assert "ATL" in str(excinfo.value)


@pytest.mark.parametrize("kind, params, needle", [
    ("maintenance", {"impact": "BOGUS", "index": "abc"}, "'impact'"),
    ("maintenance", {"index": "abc"}, "'index'"),
    ("maintenance", {"notice": -5.0}, "'notice'"),
    ("crash_burst", {"mtbf": 0}, "'mtbf'"),
    ("crash_burst", {"mtbf": float("nan")}, "'mtbf'"),
    ("crash_burst", {"repair": -1.0}, "'repair'"),
    ("crash_machine", {"index": True}, "'index'"),
    ("crash_machine", {"colour": "red"}, "'colour'"),
    ("rolling_upgrade", {"concurrency": 0}, "'concurrency'"),
    ("rolling_upgrade", {"concurrency": 1.5}, "'concurrency'"),
    ("zk_expire", {"reconnect_after": "soon"}, "'reconnect_after'"),
    ("partition_pair", {"a": "FRC", "b": 7}, "'b'"),
    ("orchestrator_failover", {"region": "FRC"}, "'region'"),
    ("probe", {"check": "vibes"}, "'check'"),
])
def test_validate_rejects_malformed_params(kind, params, needle):
    """A wrong-typed, out-of-range or unknown param is named, with its
    kind, before anything is built — not found 10 sim-s into the run."""
    spec = small_spec(actions=(
        FaultAction(at=30.0, kind=kind,
                    params=tuple(sorted(params.items()))),))
    with pytest.raises(SpecValidationError) as excinfo:
        validate_spec(spec)
    assert repr(kind) in str(excinfo.value)
    assert needle in str(excinfo.value)


def test_executors_and_fitting_read_one_table_of_defaults():
    spec = small_spec(servers_per_region=5, machines_per_region=5)
    bare = FaultAction(at=0.0, kind="rolling_upgrade")
    assert param_of(spec, bare, "region") == "FRC"       # depends on spec
    assert param_of(spec, bare, "concurrency") == 2      # servers // 2
    assert param_of(spec, bare, "restart_duration") == 30.0
    written = FaultAction(at=0.0, kind="rolling_upgrade",
                          params=(("concurrency", 5),))
    assert param_of(spec, written, "concurrency") == 5
    assert duration_of(FaultAction(at=0.0, kind="crash_rack")) == 60.0
    assert duration_of(FaultAction(at=0.0, kind="crash_rack",
                                   duration=7.0)) == 7.0
    # Every default passes the check it is registered with.
    for kind, executor in ACTIONS.items():
        for name, param in executor.params.items():
            default = param_of(spec, FaultAction(at=0.0, kind=kind), name)
            assert default is None or param.problem(default, spec) == ""


def test_validate_rejects_more_servers_than_machines():
    spec = small_spec(servers_per_region=9, machines_per_region=5)
    with pytest.raises(SpecValidationError):
        validate_spec(spec)


def test_validate_accepts_every_library_scenario():
    for spec in all_scenarios():
        assert validate_spec(spec) is spec


# -- file layer ---------------------------------------------------------------

def test_dump_and_load_round_trip(tmp_path):
    spec = small_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict(), indent=1, sort_keys=True))
    assert load_spec(path) == spec


@pytest.mark.parametrize("build", [fig17_spec, fig18_spec, fig19_spec,
                                   fig20_spec])
def test_a_figure_is_a_spec_file(build, tmp_path):
    """A figure's tier-1 timeline survives the file layer whole: the
    loaded spec runs to the same behaviour as the one built in code."""
    spec = build()
    path = tmp_path / "figure.json"
    path.write_text(json.dumps(spec.to_dict()))
    loaded = load_spec(path)
    assert loaded == spec
    assert (run_scenario(loaded).behaviour_digest
            == run_scenario(spec).behaviour_digest)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SpecValidationError):
        load_spec(path)


def _doc(**overrides):
    return dict(small_spec().to_dict(), **overrides)


def _with_action(**fields):
    return _doc(actions=[dict({"at": 30.0, "kind": "crash_machine"},
                              **fields)])


NAN, INF = float("nan"), float("inf")

#: One malformed document per ``raise`` of the shape layer
#: (``FaultAction`` / ``Expectations`` / ``ScenarioSpec.from_dict``) and
#: of ``validate_spec``'s scenario-level checks, with a piece of the
#: message that names what is wrong.
MALFORMED = [
    # ScenarioSpec.from_dict
    ([], "scenario spec must be an object"),
    (_doc(bogus=1), "unknown scenario fields: ['bogus']"),
    (_doc(name=""), "non-empty string 'name'"),
    (_doc(name=7), "non-empty string 'name'"),
    (_doc(actions={}), "'actions' must be a list"),
    (_doc(regions="FRC"), "'regions' must be a non-empty list"),
    (_doc(regions=[]), "'regions' must be a non-empty list"),
    (_doc(regions=["FRC", 3]), "'regions' must be a non-empty list"),
    (_doc(replication="quorum"), "unknown replication 'quorum'"),
    (_doc(shards="many"), "'shards' must be a number"),
    (_doc(settle=True), "'settle' must be a number"),
    (_doc(shards=7.5), "'shards' must be a whole number"),
    (_doc(replica_count=NAN), "'replica_count' must be a whole number"),
    (_doc(machines_per_region=INF),
     "'machines_per_region' must be a whole number"),
    # FaultAction.from_dict
    (_doc(actions=[5]), "fault action must be an object"),
    (_with_action(when=2.0), "unknown fault-action fields: ['when']"),
    (_with_action(kind="meteor_strike"), "unknown action kind"),
    (_with_action(at="soon"), "'at' must be a number"),
    (_with_action(at=None), "'at' must be a number"),
    (_with_action(duration=False), "'duration' must be a number"),
    (_with_action(params=[1]), "'params' must be an object"),
    # Expectations.from_dict
    (_doc(expectations=[]), "expectations must be an object"),
    (_doc(expectations={"vibes": 1}), "unknown expectation fields"),
    (_doc(expectations={"failover_bound": "soon"}),
     "'failover_bound' must be a number or null"),
    (_doc(expectations={"availability_bound": True}),
     "'availability_bound' must be a number or null"),
    (_doc(expectations={"final_ready_min": "most"}),
     "must be a number, got 'most'"),
    # validate_spec: degenerate scenario scalars, named before any
    # engine exists.
    (_doc(duration=NAN, actions=[]), "duration must be finite"),
    (_doc(duration=0, actions=[]), "duration must be > 0.0"),
    (_doc(settle=NAN), "settle must be finite"),
    (_doc(settle=-1.0), "settle must be >= 0.0"),
    (_doc(request_rate=-1), "request_rate must be >= 0.0"),
    (_doc(request_rate=INF), "request_rate must be finite"),
    (_doc(zipf_skew=-0.5), "zipf_skew must be >= 0.0"),
    (_doc(failover_grace=-3), "failover_grace must be >= 0.0"),
    (_doc(zk_session_timeout=0), "zk_session_timeout must be > 0.0"),
    (_doc(restart_hint=NAN), "restart_hint must be finite"),
    (_doc(shards=0), "shards must be >= 1"),
    (_doc(replica_count=0), "replica_count must be >= 1"),
    (_doc(machines_per_region=0, servers_per_region=0),
     "machines_per_region must be >= 1"),
    (_doc(servers_per_region=9), "exceeds machines_per_region"),
    (_doc(regions=["FRC", "FRC"]), "regions must be distinct"),
    (_doc(regions=["FRC", ""]), "regions must be distinct non-empty"),
    # validate_spec: actions
    (_with_action(at=400.0), "is outside [0, 150.0]"),
    (_with_action(at=NAN), "is outside [0, 150.0]"),
    (_with_action(duration=-1.0), "finite non-negative duration"),
    (_with_action(duration=NAN), "finite non-negative duration"),
    (_with_action(duration=INF), "finite non-negative duration"),
    (_with_action(params={"index": INF}), "param 'index' must be int"),
    (_doc(actions=[{"at": 1.0, "kind": "crash_burst",
                    "params": {"mtbf": INF}}]),
     "param 'mtbf' must be finite"),
    # Expectations: the type in from_dict, the range in validate_spec
    # (scenario.EXPECTATION_FIELDS).
    (_doc(expectations={"final_ready_min": None}),
     "'final_ready_min' must be a number, got None"),
    (_doc(expectations={"final_ready_min": True}),
     "'final_ready_min' must be a number, got True"),
    (_doc(expectations={"final_ready_min": NAN}),
     "expectations final_ready_min must be finite"),
    (_doc(expectations={"final_ready_min": 7}),
     "expectations final_ready_min must be <= 1.0"),
    (_doc(expectations={"final_ready_min": -0.1}),
     "expectations final_ready_min must be >= 0.0"),
    (_doc(expectations={"availability_bound": -1}),
     "expectations availability_bound must be >= 0.0"),
    (_doc(expectations={"availability_bound": INF}),
     "expectations availability_bound must be finite"),
    (_doc(expectations={"failover_bound": -5.0}),
     "expectations failover_bound must be >= 0.0"),
    (_doc(expectations={"failover_bound": INF}),
     "expectations failover_bound must be finite"),
    # The title's type, and the fields a figure's spec forwards.
    (_doc(title=5), "scenario 'title' must be a string, got 5"),
    (_doc(max_concurrent_container_ops="half"),
     "'max_concurrent_container_ops' must be a number or null"),
    (_doc(preferred_regions=["FRC"] * 9),
     "preferred_regions names 9 shards, more than shards (8)"),
    (_doc(max_concurrent_container_ops=0),
     "max_concurrent_container_ops must be >= 1"),
    # preferred_regions: the type in from_dict, the regions in
    # validate_spec; a prefer_region's shard is named, never wrapped.
    (_doc(preferred_regions=["FRC", "LLA"]),
     "preferred_regions entry 'LLA' is not one of the regions"),
    (_doc(preferred_regions="FRC"),
     "'preferred_regions' must be a list of strings"),
    (_doc(preferred_regions=["FRC", 1]),
     "'preferred_regions' must be a list of strings"),
    (_doc(actions=[{"at": 1.0, "kind": "prefer_region",
                    "params": {"shard": 8, "region": "PRN"}}]),
     "param 'shard' must be <= 7, got 8"),
]


@pytest.mark.parametrize("document, needle", MALFORMED)
def test_load_rejects_malformed_document(tmp_path, document, needle):
    """Every way a spec file can be wrong is a one-line
    ``SpecValidationError`` that starts with the file and names the
    field — never a traceback from inside the harness, never a run."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    with pytest.raises(SpecValidationError) as excinfo:
        load_spec(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: ")
    assert needle in message
    assert "\n" not in message


def test_validate_rejects_unregistered_kind_built_in_code():
    """``from_dict`` stops an unknown kind on the way in from a file; a
    spec built in code reaches ``validate_spec`` with it."""
    spec = small_spec(actions=(FaultAction(at=1.0, kind="meteor_strike"),))
    with pytest.raises(SpecValidationError) as excinfo:
        validate_spec(spec)
    assert "meteor_strike" in str(excinfo.value)


def test_probe_is_a_known_kind():
    # The wire format must keep accepting every registered kind.
    action = FaultAction.from_dict(
        {"at": 5.0, "kind": "probe", "params": {"check": "ready_fraction"}})
    assert action.kind in ACTIONS


# -- arbitrary JSON -------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.just(10 ** 400),                 # a JSON number no double holds
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=5), children,
                                        max_size=3)),
    max_leaves=6)
SPEC_KEYS = sorted(small_spec().to_dict()) + ["bogus"]


@st.composite
def json_specs(draw):
    """A valid spec's JSON with any of its fields — or its expectations'
    or its action's — replaced by arbitrary JSON."""
    document = small_spec().to_dict()
    document.update(draw(st.dictionaries(st.sampled_from(SPEC_KEYS),
                                         JSON_VALUES, max_size=3)))
    if isinstance(document.get("expectations"), dict) and draw(st.booleans()):
        document["expectations"] = dict(document["expectations"], **draw(
            st.dictionaries(st.sampled_from(sorted(EXPECTATION_FIELDS)),
                            JSON_VALUES, min_size=1, max_size=2)))
    if isinstance(document.get("actions"), list) and draw(st.booleans()):
        action = dict({"at": 30.0, "kind": "crash_machine"}, **draw(
            st.dictionaries(st.sampled_from(["at", "kind", "duration",
                                             "params", "when"]),
                            JSON_VALUES | st.sampled_from(sorted(ACTIONS)),
                            min_size=1, max_size=2)))
        document["actions"] = [action]
    return document


@settings(max_examples=300, deadline=None)
@given(document=json_specs())
def test_any_json_document_validates_or_is_a_value_error(document):
    """Parsing then validating arbitrary JSON ends in a spec that
    validates (and round-trips) or in a ``ValueError`` — which is what
    ``load_spec`` turns into the one-line ``SpecValidationError`` the
    scripts print — never in another exception."""
    try:
        spec = validate_spec(ScenarioSpec.from_dict(document))
    except ValueError:
        return
    assert validate_spec(ScenarioSpec.from_dict(spec.to_dict())) == spec
