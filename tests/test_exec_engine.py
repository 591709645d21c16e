"""Unit tests for ``repro.exec``: pools, the enrichment cache, the
engine's policy handling, and the telemetry capture of cache stats."""

import time

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    SEQUENTIAL,
    EnrichmentCache,
    ExecutionEngine,
    ExecutionPolicy,
    ProcessPool,
    SerialPool,
    WorkerPool,
    make_pool,
)
from repro.obs import Telemetry


def _finish_after(item):
    """Process-pool task (module-level, so it pickles): sleep ``delay``
    seconds, then return ``index``."""
    index, delay = item
    time.sleep(delay)
    return index


class TestPools:
    def test_serial_pool_preserves_order(self):
        pool = SerialPool()
        assert pool.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]
        assert pool.workers == 1

    def test_process_pool_merge_ignores_completion_order(self):
        # Later-submitted tasks sleep less, so they finish first, yet
        # the merged result stays in submission order.
        items = [(index, (3 - index) * 0.05) for index in range(4)]
        with ProcessPool(4) as pool:
            assert pool.map(_finish_after, items) == [0, 1, 2, 3]

    def test_make_pool_picks_implementation(self):
        """The worker count alone picks the pool."""
        assert isinstance(make_pool(1), SerialPool)
        assert isinstance(make_pool(0), SerialPool)
        with make_pool(3) as pool:
            assert isinstance(pool, ProcessPool)
            assert pool.workers == 3

    def test_worker_pool_interface_is_abstract(self):
        with pytest.raises(NotImplementedError):
            WorkerPool().map(lambda x: x, [1])


class TestEnrichmentCache:
    def test_value_round_trip_counts_hit_and_miss(self):
        cache = EnrichmentCache()
        assert cache.get("whois", "a.com") is None
        cache.store("whois", "a.com", {"registrar": "x"})
        assert cache.get("whois", "a.com") == {"registrar": "x"}
        totals = cache.stats()["totals"]
        assert totals["hits"] == 1 and totals["misses"] == 1
        assert cache.stats()["hit_rate"] == pytest.approx(0.5)

    def test_peek_does_not_touch_counters(self):
        cache = EnrichmentCache()
        cache.store("hlr", "123", "rec")
        assert cache.peek("hlr", "123") == "rec"
        assert cache.peek("hlr", "456") is None
        totals = cache.stats()["totals"]
        assert totals["hits"] == 0 and totals["misses"] == 0

    def test_lookup_memoises_compute(self):
        """The precompute's pattern: ``get``, then compute and ``store``
        only on a miss, so a repeated subject computes once."""
        cache = EnrichmentCache()
        calls = []

        def lookup(subject):
            value = cache.get("vt", subject)
            if value is None:
                calls.append(subject)
                value = f"report:{subject}"
                cache.store("vt", subject, value)
            return value

        assert lookup("u") == lookup("u") == "report:u"
        assert calls == ["u"]
        assert cache.stats()["services"]["vt"] == {
            "hits": 1, "misses": 1, "stores": 1, "seeded": 0}

    def test_stats_shape(self):
        cache = EnrichmentCache()
        cache.store("openai", "hello", "ann")
        cache.get("openai", "hello")
        cache.get("vt", "u")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["services"]["openai"]["hits"] == 1
        assert stats["services"]["vt"]["misses"] == 1
        assert stats["totals"]["stores"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_seed_adopts_exported_entries_as_seeded(self):
        """A commit's exported triples seed a fresh cache: the values
        come back, counted as seeded rather than stored."""
        cache = EnrichmentCache()
        cache.store("openai", "hello", "ann")
        cache.store("virustotal", "http://x.test", "report")
        entries = cache.export_entries()
        assert entries == (("openai", "hello", "ann"),
                           ("virustotal", "http://x.test", "report"))
        fresh = EnrichmentCache()
        assert fresh.seed(entries) == 2
        assert fresh.export_entries() == entries
        assert fresh.peek("openai", "hello") == "ann"
        totals = fresh.stats()["totals"]
        assert totals["seeded"] == 2 and totals["stores"] == 0


class TestExecutionPolicy:
    def test_defaults_are_serial_with_cache(self):
        policy = ExecutionPolicy()
        assert policy.workers == 1 and policy.cache

    def test_sequential_reference_policy(self):
        assert SEQUENTIAL.workers == 1 and not SEQUENTIAL.cache

    def test_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(workers=0)

    def test_pool_field_accepts_only_process(self):
        assert ExecutionPolicy(workers=2, pool="process").workers == 2
        for kind in ("thread", "serial"):
            with pytest.raises(ConfigurationError):
                ExecutionPolicy(pool=kind)


class TestExecutionEngine:
    def test_build_cache_honours_policy(self):
        assert ExecutionEngine(SEQUENTIAL).build_cache() is None
        cache = ExecutionEngine(ExecutionPolicy(cache=True)).build_cache()
        assert isinstance(cache, EnrichmentCache)

    def test_pools_match_worker_count(self):
        with ExecutionEngine(ExecutionPolicy(workers=4)) as engine:
            assert engine.enrichment_pool().workers == 4

    def test_one_enrichment_pool_per_run(self):
        """Every call inside a run returns the pool the first built; a
        closed engine reports it once and builds a new one next run."""
        engine = ExecutionEngine(ExecutionPolicy(workers=2))
        with engine:
            pool = engine.enrichment_pool()
            assert engine.enrichment_pool() is pool
            assert len(engine.stats()["pools"]) == 1
        assert [p["kind"] for p in engine.stats()["pools"]] == \
            ["ProcessPool"]
        with engine:
            assert engine.enrichment_pool() is not pool
        assert len(engine.stats()["pools"]) == 2

    def test_close_shuts_down_pools(self):
        engine = ExecutionEngine(ExecutionPolicy(workers=2))
        pool = engine.enrichment_pool()
        engine.close()
        with pytest.raises(RuntimeError):
            pool.map(lambda x: x, [1])  # executor already shut down


class TestTelemetryCacheCapture:
    def test_capture_cache_snapshots_and_counts(self):
        telemetry = Telemetry.create()
        cache = EnrichmentCache()
        cache.store("openai", "text", "ann")
        cache.get("openai", "text")
        cache.get("openai", "other")
        telemetry.capture_cache(cache)
        assert telemetry.cache_snapshot == cache.stats()
        assert telemetry.cache_snapshot["services"]["openai"] == {
            "hits": 1, "misses": 1, "stores": 1, "seeded": 0}
        # The snapshot is the one account: no counter repeats it.
        assert telemetry.metrics.counters() == []
        table = telemetry.cache_table().to_text()
        assert "openai" in table and "50.0%" in table
        assert "Cache" in telemetry.summary()

    def test_disabled_telemetry_ignores_capture(self):
        telemetry = Telemetry(enabled=False)
        cache = EnrichmentCache()
        cache.store("s", "k", 1)
        telemetry.capture_cache(cache)
        assert telemetry.cache_snapshot == {}

    def test_trace_json_carries_cache_section(self):
        telemetry = Telemetry.create()
        cache = EnrichmentCache()
        cache.store("s", "k", 1)
        cache.get("s", "k")
        telemetry.capture_cache(cache)
        payload = telemetry.to_dict()
        assert payload["cache"]["totals"]["hits"] == 1
