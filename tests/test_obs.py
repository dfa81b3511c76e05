"""The observability subsystem: tracer, metrics, exporters, TraceChecker.

Covers four layers:

* unit behaviour of the journal ring, the digest contract (hypothesis),
  and the metrics registry;
* exporter structure (Chrome/Perfetto JSON, JSONL roundtrip, also of a
  library chaos journal);
* the TraceChecker's invariants, both on fabricated bad journals
  (negative tests) and on real traced cluster runs;
* the determinism contract — two traced runs produce bit-identical
  journals (that tracing changes *nothing* about simulation behaviour
  is held on the library timelines, ``tests/test_chaos.py``).
"""

import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chaos import get, run_scenario
from repro.core.orchestrator import OrchestratorConfig
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.harness import SimCluster, deploy_app
from repro.metrics import Histogram, MetricsRegistry
from repro.obs import NO_OBS, NO_TRACER, Observability, get_default, use
from repro.obs.checker import TraceChecker, Violation
from repro.obs.tracer import Journal, TraceRecord, Tracer
from repro.obs.trace_export import (
    chrome_trace_events,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)


# -- helpers -----------------------------------------------------------------


def traced_app(shards=12, servers=4, seed=3, settle=60.0, **spec_kwargs):
    obs = Observability()
    with use(obs):
        cluster = SimCluster.build(regions=("FRC",),
                                   machines_per_region=servers + 2,
                                   seed=seed)
        spec = AppSpec(name="obsapp",
                       shards=uniform_shards(shards, shards * 10),
                       replication=ReplicationStrategy.PRIMARY_ONLY,
                       **spec_kwargs)
        app = deploy_app(cluster, spec, {"FRC": servers},
                         orchestrator_config=OrchestratorConfig(
                             failover_grace=15.0),
                         settle=settle)
    return obs, cluster, app


# -- tracer / journal units --------------------------------------------------


class TestJournal:
    def test_ring_eviction_and_dropped_count(self):
        tracer = Tracer(Journal(capacity=8))
        for index in range(20):
            tracer.instant("t", f"e{index}", float(index))
        journal = tracer.journal
        assert journal.appended == 20
        assert len(list(journal)) == 8
        assert journal.dropped == 12
        # Oldest records were evicted; the survivors are the last 8.
        assert [r.name for r in journal] == [
            f"e{i}" for i in range(12, 20)]

    def test_digest_is_deterministic(self):
        def fill(tracer):
            span = tracer.begin("a", "op", 1.0, {"k": 1})
            tracer.instant("b", "i", 1.5)
            tracer.end(span, 2.0, {"ok": 1}, track="a", name="op")

        t1, t2 = Tracer(Journal()), Tracer(Journal())
        fill(t1)
        fill(t2)
        assert t1.journal.digest() == t2.journal.digest()

    def test_track_digests_ignore_positions(self):
        """Same records on each track, interleaved across tracks in
        another order, which shifts their seq: digest() moves,
        track_digests() do not."""
        def behave(tracer, shards_first):
            if shards_first:
                tracer.instant("shards", "transition", 1.5, {"op": "add"})
            span = tracer.begin("net", "rpc", 1.0, {"dst": "a"})
            if not shards_first:
                tracer.instant("shards", "transition", 1.5, {"op": "add"})
            tracer.end(span, 2.0, {"ok": 1}, track="net", name="rpc")

        t1, t2 = Tracer(Journal()), Tracer(Journal())
        behave(t1, shards_first=False)
        behave(t2, shards_first=True)
        assert t1.journal.digest() != t2.journal.digest()
        assert t1.journal.track_digests() == t2.journal.track_digests()
        t2.instant("shards", "transition", 2.5, {"op": "drop"})
        assert t1.journal.track_digests() != t2.journal.track_digests()

    def test_track_digests_move_only_the_track_that_changed(self):
        """One hash per track, each over that track's rows alone: spans opened on another track renumber none of its spans
        (span ids count per track), so only the changed track's hash
        moves."""
        def behave(tracer, drains):
            for _ in range(drains):
                span = tracer.begin("orchestrator", "drain", 0.5)
                tracer.end(span, 0.6, {"outcome": "ok"},
                           track="orchestrator", name="drain")
            span = tracer.begin("migration", "graceful", 1.0, {"shard": "s"})
            tracer.instant("migration", "phase", 1.5,
                           {"span": span, "phase": "prepare"})
            tracer.end(span, 2.0, {"outcome": "ok"}, track="migration",
                       name="graceful")

        t1, t2, t3 = Tracer(Journal()), Tracer(Journal()), Tracer(Journal())
        behave(t1, drains=1)
        behave(t2, drains=3)
        behave(t3, drains=3)
        d1, d2 = t1.journal.track_digests(), t2.journal.track_digests()
        assert list(d1) == list(d2) == ["migration", "orchestrator"]
        assert d1["migration"] == d2["migration"]
        assert d1["orchestrator"] != d2["orchestrator"]
        assert d2 == t3.journal.track_digests()

    def test_null_tracer_records_nothing(self):
        span = NO_TRACER.begin("a", "op", 1.0)
        NO_TRACER.end(span)
        NO_TRACER.instant("a", "i")
        NO_TRACER.counter("a", "c", 1)
        assert NO_TRACER.journal.appended == 0
        assert not NO_TRACER.enabled

    def test_tracks_sorted_unique(self):
        tracer = Tracer(Journal())
        for track in ("net", "engine", "net", "shards"):
            tracer.instant(track, "x", 0.0)
        assert tracer.journal.tracks() == ["engine", "net", "shards"]

    @settings(max_examples=120, deadline=None)
    @given(capacity=st.integers(1, 8), data=st.data())
    def test_ring_window_is_a_fresh_journal_of_its_survivors(self, capacity,
                                                             data):
        """The columns trim lazily (on a read, or at twice ``capacity``
        on the write side); whenever it is read, the ring shows exactly
        its last ``capacity`` records, on either append path, around
        every trim boundary and with reads between the appends."""
        count = data.draw(st.sampled_from(
            (capacity, 2 * capacity - 1, 2 * capacity, 2 * capacity + 1))
            | st.integers(0, 40))
        rows = data.draw(st.lists(st.tuples(
            st.sampled_from(("net", "engine", "shards")),
            st.text(max_size=2), st.floats(0.0, 1e3),
            st.none() | st.dictionaries(_KEYS, st.integers(), max_size=2)),
            min_size=count, max_size=count))
        reads = set(data.draw(st.lists(st.integers(0, count), max_size=3)))
        via_tracer = data.draw(st.booleans())
        tracer = Tracer(Journal(capacity))
        ring = tracer.journal
        for seq, (track, name, time, args) in enumerate(rows):
            if seq in reads:
                ring.digest()
            if via_tracer:
                tracer.instant(track, name, time, args)
            else:
                ring.append(TraceRecord(seq, "I", track, name, time, 0,
                                        args))
        if via_tracer:   # the write side bounds the lists it grows
            assert len(ring._columns[0]) <= 2 * capacity
        first = max(0, count - capacity)
        fresh = Journal()
        for seq in range(first, count):
            fresh.append(TraceRecord(seq, "I", *rows[seq][:3], 0,
                                     rows[seq][3]))
        for _ in range(2):   # before the read trims, then after
            assert (len(ring), ring.dropped, ring.appended) == (
                count - first, first, count)
            assert list(ring) == list(fresh)
        assert ring.tracks() == fresh.tracks()
        assert ring.digest() == fresh.digest()
        assert ring.track_digests() == fresh.track_digests()


# -- the digest contract -----------------------------------------------------

#: Arg keys never end in "q", so ``key + "q"`` is a rename to a key no
#: record holds.
_KEYS = st.text(alphabet="abkxyz_", min_size=1, max_size=4)
_VALUES = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=False),
                    st.booleans(), st.none(), st.text(max_size=4),
                    st.lists(st.integers(), max_size=2))
#: kind, track, name, time, span, args (``seq`` is the record's position).
_ROWS = st.lists(st.tuples(
    st.sampled_from("BEIC"), st.sampled_from(("net", "shards", "chaos")),
    st.text(max_size=4), st.floats(0.0, 1e6), st.integers(0, 50),
    st.none() | st.dictionaries(_KEYS, _VALUES, max_size=4)), max_size=12)

#: One change per fixed field: (column index in a row, the change).
_FIELD_CHANGES = {
    "seq": (0, lambda seq: seq + 1_000),
    "kind": (1, lambda kind: "E" if kind == "I" else "I"),
    "track": (2, lambda track: track + "x"),
    "name": (3, lambda name: name + "x"),
    "time": (4, lambda time: math.nextafter(time, math.inf)),
    "span": (5, lambda span: span + 1),
}


def _journal(rows, capacity=1 << 20):
    """A journal of ``rows``, each ``(kind, track, name, time, span,
    args)`` (``seq`` its position) or a full seven-field row."""
    journal = Journal(capacity)
    for seq, row in enumerate(rows):
        fields = row if len(row) == 7 else (seq,) + tuple(row)
        journal.append(TraceRecord(*fields))
    return journal


def _digests(rows):
    """``digest()`` and the items of ``track_digests()``."""
    journal = _journal(rows)
    return journal.digest(), tuple(journal.track_digests().items())


def _with_args(rows, index, args):
    rows = list(rows)
    rows[index] = rows[index][:5] + (args,)
    return rows


class TestDigestContract:
    """``digest`` and the track digests see every record field, every arg
    value and its type; they do not see arg insertion order.  The track
    digests do not see ``seq``."""

    @settings(max_examples=80, deadline=None)
    @given(rows=_ROWS, rng=st.randoms())
    def test_insertion_order_is_invisible(self, rows, rng):
        def shuffled(args):
            if args is None:
                return None
            items = list(args.items())
            rng.shuffle(items)
            return dict(items)

        other = [row[:5] + (shuffled(row[5]),) for row in rows]
        assert _digests(rows) == _digests(other)

    @settings(max_examples=80, deadline=None)
    @given(rows=_ROWS.filter(bool), data=st.data(),
           field=st.sampled_from(sorted(_FIELD_CHANGES)))
    def test_a_one_field_change_moves_the_digest(self, rows, data, field):
        rows = [(seq,) + row for seq, row in enumerate(rows)]
        index = data.draw(st.integers(0, len(rows) - 1))
        column, change = _FIELD_CHANGES[field]
        changed = list(rows)
        fields = list(rows[index])
        fields[column] = change(fields[column])
        changed[index] = tuple(fields)
        before, after = _digests(rows), _digests(changed)
        assert before[0] != after[0]
        if field == "seq":
            assert before[1] == after[1]
        else:
            assert before[1] != after[1]

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS.filter(bool), data=st.data())
    def test_one_int_float_bool_and_str_hash_apart(self, rows, data):
        """``"[True]"`` is also the text of ``True``'s column when that
        record is the only one of its shape: the type tag keeps them
        apart."""
        index = data.draw(st.integers(0, len(rows) - 1))
        args = dict(rows[index][5] or {})
        values = (1, 1.0, True, "1", "[True]")
        seen = [_digests(_with_args(rows, index, {**args, "k": value}))
                for value in values]
        assert len({digest for digest, _ in seen}) == len(values)
        assert len({tracks for _, tracks in seen}) == len(values)

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS.filter(bool), data=st.data())
    def test_a_renamed_key_moves_the_digest(self, rows, data):
        index = data.draw(st.integers(0, len(rows) - 1))
        args = dict(rows[index][5] or {"a": 0})
        key = data.draw(st.sampled_from(sorted(args)))
        renamed = {(name + "q" if name == key else name): value
                   for name, value in args.items()}
        before = _digests(_with_args(rows, index, args))
        after = _digests(_with_args(rows, index, renamed))
        assert before[0] != after[0] and before[1] != after[1]

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS.filter(lambda rows: len(rows) >= 2), data=st.data())
    def test_args_stay_with_their_record(self, rows, data):
        first, second = data.draw(st.lists(
            st.integers(0, len(rows) - 1), min_size=2, max_size=2,
            unique=True))
        args = [rows[first][5], rows[second][5]]
        assume(repr(sorted((args[0] or {}).items()))
               != repr(sorted((args[1] or {}).items())))
        swapped = _with_args(_with_args(rows, first, args[1]), second,
                             args[0])
        before, after = _digests(rows), _digests(swapped)
        assert before[0] != after[0] and before[1] != after[1]

    @pytest.mark.parametrize("column", ["name", "arg"])
    def test_a_shifted_string_boundary_moves_the_digest(self, column):
        def two_records(first, second):
            if column == "name":
                return [("I", "net", first, 1.0, 0, None),
                        ("I", "net", second, 2.0, 0, None)]
            return [("I", "net", "x", 1.0, 0, {"s": first}),
                    ("I", "net", "x", 2.0, 0, {"s": second})]

        before = _digests(two_records("ab", "c"))
        after = _digests(two_records("a", "bc"))
        assert before[0] != after[0] and before[1] != after[1]

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS,
           order=st.permutations(("net", "shards", "chaos")))
    def test_track_digests_ignore_seq(self, rows, order):
        """The rows regrouped track by track, each track's own order
        kept: every seq moves with its row, and only ``digest`` sees
        it."""
        regrouped = sorted(rows, key=lambda row: order.index(row[1]))
        before, after = _digests(rows), _digests(regrouped)
        assert before[1] == after[1]
        assert (before[0] == after[0]) == (rows == regrouped)

    @settings(max_examples=40, deadline=None)
    @given(rows=_ROWS.filter(bool), dropped=st.integers(1, 20))
    def test_a_truncated_journal_hashes_like_its_survivors(self, rows,
                                                           dropped):
        """The digest covers the retained window: a ring that evicted
        ``dropped`` records equals a fresh journal of what it kept."""
        evicted = [("I", "net", "gone", 0.0, 0, {"a": index})
                   for index in range(dropped)]
        ring = _journal(evicted + rows, capacity=len(rows))
        assert ring.dropped == dropped
        fresh = Journal()
        for record in ring:
            fresh.append(record)
        assert ring.digest() == fresh.digest()
        assert ring.track_digests() == fresh.track_digests()
        assert [record.seq for record in fresh][0] == dropped


class TestMetricsRegistry:
    def test_gauge_and_histogram(self):
        """A gauge reports a number or, folded at snapshot time, a
        histogram's snapshot."""
        registry = MetricsRegistry()
        value = 7
        registry.gauge("g", lambda: value)
        hist = Histogram("h")
        for sample in (0.3, 1.5, 1_000_000.0):
            hist.observe(sample)
        registry.gauge("h", hist.snapshot)
        snap = registry.snapshot()
        assert snap["g"] == 7
        assert snap["h"]["total"] == 3
        assert snap["h"]["overflow"] == 1  # past the last bucket bound
        assert hist.mean == pytest.approx((0.3 + 1.5 + 1_000_000.0) / 3)

    def test_rpc_latency_gauge_reads_the_network_histogram(self):
        """The harness's ``net.rpc_latency_ms`` gauge and
        ``Observability.rpc_latency_ms`` read the one histogram the traced
        network feeds as each RPC settles."""
        obs, cluster, _app = traced_app()
        histogram = cluster.network.rpc_latency_ms
        assert obs.rpc_latency is histogram
        assert histogram.total > 0
        assert (obs.metrics.snapshot()["net.rpc_latency_ms"]
                == obs.rpc_latency_ms() == histogram.snapshot())

    def test_gauge_reregistration_wins(self):
        # A failover starts a fresh orchestrator that re-registers its
        # gauges under the same names; the latest binding must win.
        registry = MetricsRegistry()
        registry.gauge("g", lambda: 1)
        registry.gauge("g", lambda: 2)
        assert registry.snapshot()["g"] == 2


# -- exporters ---------------------------------------------------------------


class TestExport:
    def test_chrome_event_structure(self):
        tracer = Tracer(Journal())
        span = tracer.begin("net", "echo", 1.0, {"src": "a", "dst": "b"})
        tracer.end(span, 1.5, {"ok": 1}, track="net", name="echo")
        tracer.instant("solver", "counters", 2.0, {"moves": 1})
        tracer.counter("engine", "pending_events", 9, 2.5)
        events = chrome_trace_events(tracer.journal)
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        assert {"M", "b", "e", "i", "C"} == set(by_ph)
        begin = by_ph["b"][0]
        assert begin["name"] == "echo" and begin["ts"] == 1.0 * 1e6
        assert by_ph["i"][0]["args"] == {"moves": 1}
        assert by_ph["C"][0]["args"] == {"pending_events": 9}

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        obs, _cluster, _app = traced_app()
        path = tmp_path / "trace.json"
        write_chrome_trace(obs.journal, str(path))
        data = json.loads(path.read_text())
        assert data["traceEvents"]
        assert data["otherData"]["records"] == obs.journal.appended
        assert data["otherData"]["digest"] == obs.journal.digest()

    def test_jsonl_roundtrip_preserves_digest(self, tmp_path):
        obs, _cluster, _app = traced_app()
        path = tmp_path / "journal.jsonl"
        write_jsonl(obs.journal, str(path))
        loaded = read_jsonl(str(path))
        assert loaded.appended == obs.journal.appended
        assert loaded.digest() == obs.journal.digest()

    @pytest.mark.parametrize("arm", ["sm", "baseline"])
    def test_library_journal_roundtrip_keeps_both_digests(self, tmp_path,
                                                          arm):
        """A chaos journal (every track, the solver's included) reloaded
        from JSONL hashes as it did in the run: the typed columns would
        show an int reloaded as a float, or a float as an int."""
        path = tmp_path / "journal.jsonl"
        result = run_scenario(get("compound_storm"), arm=arm, seed=0,
                              journal_path=str(path))
        loaded = read_jsonl(str(path))
        assert loaded.appended == result.records
        assert loaded.digest() == result.digest
        assert loaded.track_digests() == result.tracks

    def test_jsonl_roundtrip_of_a_ring_that_dropped(self, tmp_path):
        tracer = Tracer(Journal(capacity=5))
        for index in range(13):
            tracer.instant("net" if index % 3 else "engine", "x",
                           index * 0.5, {"i": index})
        path = tmp_path / "journal.jsonl"
        write_jsonl(tracer.journal, str(path))
        loaded = read_jsonl(str(path))
        assert [record.seq for record in loaded][0] == 8 == \
            tracer.journal.dropped
        assert loaded.digest() == tracer.journal.digest()
        assert loaded.track_digests() == tracer.journal.track_digests()

    @pytest.mark.parametrize("bad_line, needle", [
        ('{"seq": 2, "kind": "I", "tr', "not JSON: Unterminated string"),
        ("[1, 2]", "a record is a JSON object, got list"),
        ('{"seq": 2, "kind": "I", "track": "x", "name": "y"}',
         "record lacks ['t']"),
        ('{"seq": "2", "kind": "I", "track": "x", "name": "y", "t": 1.0}',
         "seq must be int, got str"),
        ('{"seq": true, "kind": "I", "track": "x", "name": "y", "t": 1.0}',
         "seq must be int, got bool"),
        ('{"seq": 2, "kind": "E", "track": "x", "name": "y", "t": 1.0, '
         '"span": 1.0}', "span must be int, got float"),
        ('{"seq": 2, "kind": "I", "track": "x", "name": "y", "t": "1.0"}',
         "t must be int or float, got str"),
        ('{"seq": 2, "kind": "I", "track": "x", "name": "y", "t": false}',
         "t must be int or float, got bool"),
        ('{"seq": 2, "kind": "X", "track": "x", "name": "y", "t": 1.0}',
         "kind 'X' is not one of BEIC"),
        ('{"seq": 2, "kind": "I", "track": 3, "name": "y", "t": 1.0}',
         "track must be str, got int"),
        ('{"seq": 2, "kind": "I", "track": "x", "name": null, "t": 1.0}',
         "name must be str, got NoneType"),
        ('{"seq": 2, "kind": "I", "track": "x", "name": "y", "t": 1.0, '
         '"args": [1]}', "args must be dict, got list"),
        ('{"seq": 2, "kind": "I", "track": "x", "name": "y", "t": 1.0, '
         '"args": null}', "args must be dict, got NoneType"),
    ], ids=["truncated", "not an object", "missing field", "str seq",
            "bool seq", "float span", "str t", "bool t", "unknown kind",
            "int track", "null name", "list args", "null args"])
    def test_jsonl_malformed_line_names_file_and_line(self, tmp_path,
                                                      bad_line, needle):
        tracer = Tracer(Journal())
        tracer.instant("x", "first", 0.0)
        path = tmp_path / "journal.jsonl"
        write_jsonl(tracer.journal, str(path))
        with open(path, "a") as handle:
            handle.write("\n" + bad_line + "\n")   # a blank line 2
        with pytest.raises(ValueError) as excinfo:
            read_jsonl(str(path))
        message = str(excinfo.value)
        assert message.startswith(f"{path}:3: ")
        assert needle in message


# -- TraceChecker negative tests (fabricated bad journals) -------------------


class TestCheckerNegative:
    def test_double_completed_rpc_caught(self):
        tracer = Tracer(Journal())
        span = tracer.begin("net", "echo", 1.0, {"src": "a", "dst": "b"})
        tracer.end(span, 1.4, {"ok": 1}, track="net", name="echo")
        tracer.end(span, 2.0, {"ok": 0, "error": "Timeout"},
                   track="net", name="echo")
        violations = TraceChecker(tracer.journal).check()
        assert any(v.invariant == "single-completion" for v in violations)

    def test_torn_migration_caught(self):
        # An "ok" graceful migration that never journaled its handoff.
        tracer = Tracer(Journal())
        span = tracer.begin("migration", "graceful", 1.0,
                            {"shard": "s0", "from": "a", "to": "b"})
        for phase in ("prepare", "forward", "publish", "drop_old"):
            tracer.instant("migration", "phase", None,
                           {"span": span, "phase": phase})
        tracer.end(span, 2.0, {"outcome": "ok"},
                   track="migration", name="graceful")
        violations = TraceChecker(tracer.journal).check()
        assert any(v.invariant == "migration-protocol" for v in violations)

    def test_aborted_migration_is_not_torn(self):
        tracer = Tracer(Journal())
        span = tracer.begin("migration", "graceful", 1.0,
                            {"shard": "s0", "from": "a", "to": "b"})
        tracer.end(span, 1.1, {"outcome": "abort_prepare"},
                   track="migration", name="graceful")
        assert TraceChecker(tracer.journal).check() == []

    def test_double_primary_caught(self):
        tracer = Tracer(Journal())
        for replica, address in (("s0#0", "a"), ("s0#1", "b")):
            tracer.instant("shards", "transition", 1.0, {
                "app": "x", "op": "add", "shard": "s0",
                "replica": replica, "address": address,
                "role": "primary", "state": "ready"})
        violations = TraceChecker(tracer.journal).check()
        assert any(v.invariant == "primary-uniqueness" for v in violations)

    def test_map_coverage_miss_caught(self):
        obs, cluster, app = traced_app(settle=60.0)
        snapshot = app.orchestrator.table.snapshot()
        # The real journal covers the whole map ...
        checker = TraceChecker(obs.journal)
        assert checker.check_shard_map(snapshot) == []
        # ... but an empty journal covers none of it.
        missing = TraceChecker(Journal()).check_shard_map(snapshot)
        assert missing
        assert all(v.invariant == "map-coverage" for v in missing)


    @pytest.mark.parametrize("second, invariant", [
        # The next epoch starts before the previous one ended.
        ({"t0": 4.0, "t1": 9.0}, "fluid-epochs"),
        # 100 arrived; 60 + 30 were accounted for.
        ({"ok": 60.0, "failed": 30.0}, "fluid-conservation"),
        ({"healthy_share": 1.2}, "fluid-share"),
        ({"healthy_share": -0.1}, "fluid-share"),
    ])
    def test_fluid_epoch_faults_caught(self, second, invariant):
        def epoch(tracer, **overrides):
            args = {"app": "x", "client": "c", "t0": 0.0, "t1": 5.0,
                    "arrivals": 100.0, "ok": 100.0, "failed": 0.0,
                    "healthy_share": 1.0}
            args.update(overrides)
            tracer.instant("fluid", "epoch", args["t1"], args)

        clean = Tracer(Journal())
        epoch(clean)
        epoch(clean, t0=5.0, t1=10.0)
        # Another client's stream may cover the same interval.
        epoch(clean, client="d")
        assert TraceChecker(clean.journal).check() == []
        broken = Tracer(Journal())
        epoch(broken)
        epoch(broken, **{"t0": 5.0, "t1": 10.0, **second})
        violations = TraceChecker(broken.journal).check()
        assert [v.invariant for v in violations] == [invariant]
        assert "('x', 'c')" in violations[0].message


# -- integration: traced cluster runs ----------------------------------------


class TestTracedClusterRuns:
    def test_tracks_and_invariants(self):
        obs, cluster, _app = traced_app()
        tracks = obs.journal.tracks()
        assert {"shards", "solver"} <= set(tracks)
        # The engine journals nothing: it only lends the tracer its clock.
        assert "engine" not in tracks
        # ``net`` holds failed RPCs only.
        assert ("net" in tracks) == (cluster.network.rpcs_failed > 0)
        TraceChecker(obs.journal).assert_clean()

    def test_solver_track_carries_exactly_the_counts(self, monkeypatch):
        """A solve journals one ``counters`` instant and nothing the host
        clock measured: no ``setup`` stage, no per-step instant, and
        nothing again for a rebalance that reuses an unchanged solve."""
        from repro.solver.local_search import LocalSearch, SolveResult
        result = SolveResult(moves=2, evaluations=9, rounds=3, hot_servers=4,
                             solve_time=0.5, setup_time=0.25)
        tracer = Tracer(Journal())
        result.journal(tracer, 1.0, "app.")
        assert [(r.name, r.args) for r in tracer.journal] == [
            ("app.counters", {"evaluations": 9, "hot_servers": 4,
                              "moves": 2, "rounds": 3})]

        solves = []
        solve = LocalSearch.solve

        def counted(search):
            solves.append(solve(search))
            return solves[-1]

        monkeypatch.setattr(LocalSearch, "solve", counted)
        obs, _cluster, app = traced_app()
        solver = [r for r in obs.journal if r.track == "solver"]
        planned = [seen for _t, seen, _moves
                   in app.orchestrator.rebalance_history if seen is not None]
        assert solver and len(planned) > len(solves)  # some reuse a solve
        assert [(r.name, r.args) for r in solver] == [
            ("obsapp.counters", {"evaluations": s.evaluations,
                                 "hot_servers": s.hot_servers,
                                 "moves": s.moves, "rounds": s.rounds})
            for s in solves]

    def test_two_traced_runs_bit_identical(self):
        obs1, _c1, _a1 = traced_app()
        obs2, _c2, _a2 = traced_app()
        assert obs1.journal.appended == obs2.journal.appended
        assert obs1.journal.digest() == obs2.journal.digest()

    def test_default_context_plumbs_into_harness(self):
        assert get_default() is NO_OBS
        obs = Observability()
        with use(obs):
            assert get_default() is obs
            cluster = SimCluster.build(regions=("FRC",),
                                       machines_per_region=3, seed=1)
            assert cluster.obs is obs
            assert cluster.network.tracer is obs.tracer
        assert get_default() is NO_OBS


# -- satellite: every ACTIVE shard has a journaled transition ----------------


class TestMapCoverageAfterFailover:
    def test_failover_recreates_through_instrumented_path(self):
        obs, cluster, app = traced_app(shards=12, servers=5)
        victim = app.containers[0]
        hosted = app.orchestrator.table.shards_on(victim.address)
        assert hosted
        with use(obs):
            cluster.twines["FRC"].fail_machine(victim.machine.machine_id)
            cluster.run(until=cluster.engine.now + 60.0)
        assert app.ready_fraction() == 1.0
        # Emergency placement runs through the same AssignmentTable hooks:
        # every routable address in the final map has a READY transition.
        snapshot = app.orchestrator.table.snapshot()
        checker = TraceChecker(obs.journal)
        assert checker.check_shard_map(snapshot) == []
        checker.assert_clean()
        assert any(r.track == "orchestrator" and r.name == "failover"
                   for r in obs.journal)

    def test_mini_sm_partitions_share_instrumentation(self):
        from repro.core.mini_sm import ApplicationManager
        from repro.core.orchestrator import Orchestrator
        from repro.app.runtime import AppRuntime
        from repro.harness import _echo_handler_factory

        obs = Observability()
        with use(obs):
            cluster = SimCluster.build(regions=("FRC",),
                                       machines_per_region=10, seed=5)
            spec = AppSpec(name="big",
                           shards=uniform_shards(12, 120),
                           replication=ReplicationStrategy.PRIMARY_ONLY)
            manager = ApplicationManager(max_replicas_per_partition=6)
            partitions = manager.partition_app(spec, server_count=6)
            assert len(partitions) == 2
            # Per §6.1 every partition runs an independent orchestrator
            # over its sub-spec; their shard-state transitions reach the
            # one journal through the same AssignmentTable hooks.
            orchestrators = []
            for partition in partitions:
                runtime = AppRuntime(
                    engine=cluster.engine,
                    network=cluster.network,
                    zookeeper=cluster.zookeeper,
                    spec=partition.spec,
                    handler_factory=_echo_handler_factory,
                )
                containers = cluster.twines["FRC"].create_job(
                    partition.spec.name, 3)
                runtime.attach(containers)
                orchestrator = Orchestrator(
                    cluster.engine, cluster.network, cluster.zookeeper,
                    cluster.discovery, partition.spec, cluster.topology,
                    obs=obs)
                orchestrator.start()
                orchestrators.append(orchestrator)
            cluster.run(until=60.0)
        checker = TraceChecker(obs.journal)
        checker.assert_clean()
        for orchestrator in orchestrators:
            snapshot = orchestrator.table.snapshot()
            assert all(snapshot.primary_at(i) is not None
                       for i in range(len(snapshot)))
            assert checker.check_shard_map(snapshot) == []


class TestViolationType:
    def test_violation_formatting(self):
        violation = Violation(invariant="x", message="m", seq=3)
        assert "x" in str(violation) and "m" in str(violation)
        assert violation.as_dict() == {
            "invariant": "x", "message": "m", "seq": 3}
