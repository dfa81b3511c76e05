"""Unit tests for the example applications (handlers tested directly)."""

import pytest

from repro.apps.kvstore import KVStoreApp
from repro.apps.queue_service import QueueServiceApp
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards


class FakeContainer:
    def __init__(self, address="srv/0"):
        self.address = address


def kv_spec(shards=4, key_space=400):
    return AppSpec(name="kv", shards=uniform_shards(shards, key_space),
                   replication=ReplicationStrategy.PRIMARY_ONLY)


class TestKVStore:
    def test_put_get(self):
        app = KVStoreApp(kv_spec())
        handler = app.handler_factory(FakeContainer())
        handler("shard0", {"op": "put", "key": 5, "value": "v"})
        assert handler("shard0", {"op": "get", "key": 5})["value"] == "v"

    def test_writes_go_through_to_external_store(self):
        app = KVStoreApp(kv_spec())
        handler = app.handler_factory(FakeContainer())
        handler("shard0", {"op": "put", "key": 5, "value": "v"})
        assert app.external.data[5] == "v"

    def test_soft_state_rebuilds_from_external_store(self):
        app = KVStoreApp(kv_spec())
        app.external.put(7, "persisted")
        handler = app.handler_factory(FakeContainer("srv/1"))
        assert handler("shard0", {"op": "get", "key": 7})["value"] == "persisted"
        assert app.cache_rebuilds == 1

    def test_scan_within_shard(self):
        app = KVStoreApp(kv_spec())
        handler = app.handler_factory(FakeContainer())
        for key in (3, 7, 50):
            handler("shard0", {"op": "put", "key": key, "value": key})
        result = handler("shard0", {"op": "scan", "low": 0, "high": 10})
        assert result["items"] == [(3, 3), (7, 7)]

    def test_scan_across_shards_rejected(self):
        app = KVStoreApp(kv_spec())
        handler = app.handler_factory(FakeContainer())
        with pytest.raises(ValueError):
            handler("shard0", {"op": "scan", "low": 50, "high": 150})

    def test_key_outside_shard_rejected(self):
        app = KVStoreApp(kv_spec())
        handler = app.handler_factory(FakeContainer())
        with pytest.raises(ValueError):
            handler("shard0", {"op": "put", "key": 200, "value": "v"})

    def test_unknown_op(self):
        app = KVStoreApp(kv_spec())
        handler = app.handler_factory(FakeContainer())
        with pytest.raises(ValueError):
            handler("shard0", {"op": "nope"})


class TestQueueService:
    def _handler(self):
        spec = AppSpec(name="q", shards=uniform_shards(4, 400),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        app = QueueServiceApp(spec)
        return app, app.handler_factory(FakeContainer())

    def test_fifo_order(self):
        app, handler = self._handler()
        for index in range(5):
            handler("shard0", {"op": "enqueue", "queue": 10,
                               "message": f"m{index}"})
        delivered = [handler("shard0", {"op": "dequeue", "queue": 10})
                     for _ in range(5)]
        assert [d["message"] for d in delivered] == [
            "m0", "m1", "m2", "m3", "m4"]
        assert app.order_violations == 0

    def test_sequence_numbers_monotonic(self):
        _app, handler = self._handler()
        seqs = [handler("shard0", {"op": "enqueue", "queue": 1,
                                   "message": "x"})["seq"]
                for _ in range(3)]
        assert seqs == [0, 1, 2]

    def test_dequeue_empty(self):
        _app, handler = self._handler()
        assert handler("shard0", {"op": "dequeue", "queue": 1})["empty"]

    def test_depth(self):
        _app, handler = self._handler()
        handler("shard0", {"op": "enqueue", "queue": 1, "message": "x"})
        assert handler("shard0", {"op": "depth", "queue": 1})["depth"] == 1

    def test_queue_outside_shard_rejected(self):
        _app, handler = self._handler()
        with pytest.raises(ValueError):
            handler("shard0", {"op": "enqueue", "queue": 399, "message": "x"})

    def test_queue_id_must_be_int(self):
        _app, handler = self._handler()
        with pytest.raises(ValueError):
            handler("shard0", {"op": "enqueue", "queue": "nope"})

