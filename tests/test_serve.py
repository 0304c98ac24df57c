"""Unit tests for the serving layer: response cache and bounded dispatcher."""

import threading
import time

import pytest

from repro.serve.cache import CachedResponse, ResponseCache
from repro.serve.queue import BoundedDispatcher, QueueFullError
from repro.service.engine import AnonymizationService


def _response(dataset: str, body: bytes = b'{"ok": true}') -> CachedResponse:
    return CachedResponse(
        dataset=dataset, status=200, content_type="application/json", body=body
    )


class TestResponseCacheMemory:
    """The cache on its own, attached to no service."""

    def make(self, max_entries: int = 256) -> ResponseCache:
        return ResponseCache(max_entries=max_entries)

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            ResponseCache(max_entries=0)

    def test_key_is_order_insensitive_in_params(self):
        cache = self.make()
        a = cache.key("audit", "d", {"lam": 0.3, "delta": 0.3})
        b = cache.key("audit", "d", {"delta": 0.3, "lam": 0.3})
        assert a == b
        assert a.startswith("audit|d|v0|")

    def test_hit_miss_counters(self):
        cache = self.make()
        key = cache.key("audit", "d", {})
        assert cache.get(key) is None
        cache.put(key, _response("d"))
        assert cache.get(key) == _response("d")
        assert cache.hits == 1 and cache.misses == 1

    def test_disabled_cache_never_stores_or_serves(self):
        cache = self.make()
        key = cache.key("audit", "d", {})
        cache.enabled = False
        cache.put(key, _response("d"))
        assert len(cache) == 0
        assert cache.get(key) is None
        assert cache.hits == 0 and cache.misses == 0

    def test_eviction_is_oldest_first(self):
        cache = self.make(max_entries=2)
        keys = [cache.key("audit", "d", {"i": i}) for i in range(3)]
        for key in keys:
            cache.put(key, _response("d"))
        assert cache.get(keys[0]) is None  # evicted
        assert cache.get(keys[1]) is not None
        assert cache.get(keys[2]) is not None
        assert cache.evictions == 1

    def test_invalidate_drops_only_that_dataset(self):
        cache = self.make()
        key_a = cache.key("audit", "a", {})
        key_b = cache.key("audit", "b", {})
        cache.put(key_a, _response("a"))
        cache.put(key_b, _response("b"))
        assert cache.invalidate("a") == 1
        assert cache.get(key_a) is None
        assert cache.get(key_b) is not None
        assert cache.invalidations == 1

    def test_invalidate_bumps_the_version_in_new_keys(self):
        cache = self.make()
        old_key = cache.key("audit", "d", {})
        cache.invalidate("d")
        new_key = cache.key("audit", "d", {})
        assert old_key != new_key  # stale entries are unreachable by keying

    def test_fill_under_a_key_from_before_invalidation_is_unreachable(self):
        # A request keys its response, the dataset changes mid-flight, and the
        # stale body is stored afterwards: no key built from now on finds it.
        cache = self.make()
        stale_key = cache.key("audit", "d", {})
        cache.invalidate("d")
        cache.put(stale_key, _response("d", b'{"stale": true}'))
        assert cache.get(cache.key("audit", "d", {})) is None

    def test_invalidate_leaves_other_datasets_keys_unchanged(self):
        cache = self.make()
        before = cache.key("audit", "b", {"lam": 0.3})
        cache.invalidate("a")
        assert cache.key("audit", "b", {"lam": 0.3}) == before
        assert cache.key("audit", "a", {"lam": 0.3}).startswith("audit|a|v1|")

    def test_generation_counts_every_invalidation_even_when_empty(self):
        cache = self.make()
        assert cache.invalidate("d") == 0
        assert cache.invalidate("d") == 0
        assert cache.key("audit", "d", {}).startswith("audit|d|v2|")
        assert cache.invalidations == 0  # counts dropped entries, not calls

    def test_clear_keeps_counters(self):
        cache = self.make()
        key = cache.key("audit", "d", {})
        cache.put(key, _response("d"))
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_stats_payload_shape(self):
        cache = self.make()
        payload = cache.stats_payload()
        assert payload == {
            "enabled": True,
            "entries": 0,
            "max_entries": 256,
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "evictions": 0,
        }


class TestResponseCacheAttached:
    """The cache attached to a live service."""

    def test_attach_registers_the_invalidation_hook(self):
        service = AnonymizationService()
        cache = ResponseCache().attach(service)
        assert service.response_cache is cache
        service.register_synthetic("d", "adult", n_records=200, seed=1)
        key = cache.key("audit", "d", {})
        cache.put(key, _response("d"))
        service.register_synthetic("d", "adult", n_records=200, seed=2, replace=True)
        assert cache.get(key) is None  # the re-register invalidated it
        assert cache.invalidations == 1
        service.close()

    def test_reregister_changes_the_key_version(self):
        service = AnonymizationService()
        cache = ResponseCache().attach(service)
        service.register_synthetic("d", "adult", n_records=200, seed=1)
        cache.invalidate("d")  # refresh the version after the first register
        before = cache.key("audit", "d", {})
        service.register_synthetic("d", "adult", n_records=200, seed=2, replace=True)
        after = cache.key("audit", "d", {})
        assert before != after
        service.close()

    @pytest.mark.parametrize("mutation", ["reregister", "delta_base", "append"])
    def test_every_dataset_mutation_invalidates(self, mutation, tmp_path):
        service = AnonymizationService()
        cache = ResponseCache().attach(service)
        base_csv = tmp_path / "base.csv"
        base_csv.write_text(
            "City,Disease\n" + "".join(f"c{i % 3},{'flu' if i % 2 else 'cold'}\n"
                                       for i in range(24))
        )

        def delta_base(output: str, replace: bool) -> None:
            record = service.publish_delta_base(
                "d", base_csv, "Disease", "sps", tmp_path / output,
                seed=1, chunk_size=2, replace=replace,
            )
            assert record.status == "completed"

        if mutation == "reregister":
            service.register_synthetic("d", "adult", n_records=200, seed=1)
        else:
            delta_base("base.out.csv", replace=False)
        key = cache.key("audit", "d", {})
        cache.put(key, _response("d"))
        cache.put(cache.key("audit", "other", {}), _response("other"))

        if mutation == "reregister":
            service.register_synthetic("d", "adult", n_records=200, seed=2, replace=True)
        elif mutation == "delta_base":
            delta_base("rebase.out.csv", replace=True)
        else:
            assert service.append_rows("d", rows=[["c1", "flu"]]).status == "completed"
        assert cache.get(key) is None
        assert cache.key("audit", "d", {}) != key
        assert len(cache) == 1  # the other dataset's entry survives
        service.close()

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_invalidation_never_touches_the_store(self, backend, tmp_path, monkeypatch):
        path = tmp_path / "serve.db" if backend == "sqlite" else None
        service = AnonymizationService(snapshot_path=path)
        cache = ResponseCache().attach(service)
        service.register_synthetic("d", "adult", n_records=200, seed=1)
        key = cache.key("audit", "d", {})
        cache.put(key, _response("d"))

        def refuse(*args, **kwargs):
            raise AssertionError("the response cache opened a store transaction")

        monkeypatch.setattr(service.store, "transaction", refuse)
        assert cache.invalidate("d") == 1
        assert cache.get(cache.key("audit", "d", {})) is None
        monkeypatch.undo()
        service.close()

    def test_stats_folds_in_the_cache_block(self):
        service = AnonymizationService()
        assert "response_cache" not in service.stats()
        cache = ResponseCache().attach(service)
        stats = service.stats()
        assert stats["response_cache"] == cache.stats_payload()
        # The pre-existing keys survive (backward compatible payload).
        for key in ("version", "n_datasets", "n_jobs"):
            assert key in stats
        service.close()

    def test_restarted_cache_starts_empty_and_stores_nothing(self, tmp_path):
        path = tmp_path / "serve.db"
        service = AnonymizationService(snapshot_path=path)
        cache = ResponseCache().attach(service)
        service.register_synthetic("d", "adult", n_records=200, seed=1)
        key = cache.key("audit", "d", {})
        cache.put(key, _response("d"))
        service.close()

        revived = AnonymizationService(snapshot_path=path)
        cache2 = ResponseCache().attach(revived)
        assert len(cache2) == 0  # a restarted cache starts empty
        assert cache2.get(key) is None
        # Nothing of the cache ever reached the store.
        assert revived.store.namespaces() == ["datasets"]
        revived.close()


class TestBoundedDispatcher:
    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedDispatcher(workers=0)
        with pytest.raises(ValueError):
            BoundedDispatcher(queue_limit=0)

    def test_submit_resolves_the_future(self):
        dispatcher = BoundedDispatcher(workers=2).start()
        try:
            futures = [dispatcher.submit(lambda i=i: i * i) for i in range(8)]
            assert sorted(f.result(timeout=5) for f in futures) == [
                i * i for i in range(8)
            ]
            assert dispatcher.dispatched == 8
        finally:
            dispatcher.shutdown()

    def test_exceptions_propagate_through_the_future(self):
        dispatcher = BoundedDispatcher(workers=1).start()
        try:
            def boom():
                raise RuntimeError("kaput")

            future = dispatcher.submit(boom)
            with pytest.raises(RuntimeError, match="kaput"):
                future.result(timeout=5)
        finally:
            dispatcher.shutdown()

    def test_full_queue_rejects_immediately(self):
        dispatcher = BoundedDispatcher(workers=1, queue_limit=1, retry_after=7).start()
        release = threading.Event()
        try:
            dispatcher.submit(release.wait)  # occupies the single worker
            deadline = time.monotonic() + 5
            while dispatcher.depth and time.monotonic() < deadline:
                time.sleep(0.005)
            dispatcher.submit(release.wait)  # fills the single queue slot
            with pytest.raises(QueueFullError) as excinfo:
                dispatcher.submit(lambda: None)
            assert excinfo.value.limit == 1
            assert excinfo.value.retry_after == 7
            assert dispatcher.rejections == 1
        finally:
            release.set()
            dispatcher.shutdown()

    def test_queued_work_is_drained_on_shutdown(self):
        dispatcher = BoundedDispatcher(workers=1, queue_limit=4).start()
        release = threading.Event()
        dispatcher.submit(release.wait)
        queued = dispatcher.submit(lambda: "drained")
        release.set()
        dispatcher.shutdown()
        assert queued.result(timeout=1) == "drained"

    def test_submit_after_shutdown_rejects(self):
        dispatcher = BoundedDispatcher(workers=1).start()
        dispatcher.shutdown()
        with pytest.raises(QueueFullError):
            dispatcher.submit(lambda: None)

    def test_shutdown_is_idempotent(self):
        dispatcher = BoundedDispatcher(workers=1).start()
        dispatcher.shutdown()
        dispatcher.shutdown()

    def test_stats_payload_shape(self):
        dispatcher = BoundedDispatcher(workers=3, queue_limit=9)
        assert dispatcher.stats_payload() == {
            "workers": 3,
            "queue_limit": 9,
            "depth": 0,
            "dispatched": 0,
            "rejections": 0,
        }
