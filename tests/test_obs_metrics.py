"""The metrics registry and the stats classes rebuilt as views over it."""

import pickle

import pytest

from repro.api import ExplorationLimits
from repro.cluster.stats import WorkerStats
from repro.obs.metrics import (
    Counter,
    CounterField,
    Gauge,
    Histogram,
    MetricsRegistry,
    bind_counters,
    counter_fields,
)
from repro.solver.cache import CacheStats, ConstraintCache
from repro.solver.solver import Solver, SolverStats

from conftest import branchy_program, make_executor


class TestPrimitives:
    def test_counter(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        c.value += 2
        assert c.value == 7

    def test_gauge(self):
        g = Gauge("q")
        g.set(3.5)
        assert g.value == 3.5

    def test_histogram(self):
        h = Histogram("lat")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert h.mean == pytest.approx(2.0)

    def test_empty_histogram_summary(self):
        assert Histogram("e").summary() == {
            "count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert "a" in reg and len(reg) == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_snapshot_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(4.0)
        snap = reg.snapshot()
        assert snap["c"] == 2
        assert snap["g"] == 1.5
        assert snap["h.count"] == 1 and snap["h.mean"] == 4.0


class TestCounterField:
    def test_view_class_round_trip(self):
        class Stats:
            hits = CounterField("demo_hits")

            def __init__(self, registry=None):
                bind_counters(self, counter_fields(type(self)), registry)

        reg = MetricsRegistry()
        stats = Stats(registry=reg)
        stats.hits += 3
        stats.hits = stats.hits + 1
        assert stats.hits == 4
        assert reg.snapshot()["demo_hits"] == 4
        # Class access returns the descriptor (introspection works).
        assert isinstance(Stats.hits, CounterField)

    def test_private_without_registry(self):
        class Stats:
            n = CounterField()

            def __init__(self):
                bind_counters(self, counter_fields(type(self)), None)

        a, b = Stats(), Stats()
        a.n += 1
        assert a.n == 1 and b.n == 0


class TestStatsViews:
    def test_solver_stats_equality_and_kwargs(self):
        s = SolverStats(queries=3, cache_hits=1)
        assert s.queries == 3 and s.cache_hits == 1
        assert s.snapshot()["queries"] == 3
        with pytest.raises(TypeError):
            SolverStats(bogus=1)

    def test_cache_stats_shapes(self):
        s = CacheStats(hits=2, misses=3)
        assert s.lookups == 5
        assert s.hit_rate == pytest.approx(0.4)
        assert s == CacheStats(hits=2, misses=3)

    def test_worker_stats_pickles_and_compares(self):
        stats = WorkerStats(worker_id=7)
        stats.useful_instructions += 10
        stats.transfers = 2
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert clone.worker_id == 7
        assert clone.useful_instructions == 10
        clone.replays += 1  # the detached copy is still mutable
        assert clone != stats

    def test_worker_stats_registry_visibility(self):
        reg = MetricsRegistry()
        stats = WorkerStats(worker_id=1, registry=reg)
        stats.jobs_imported += 4
        assert reg.snapshot()["worker_jobs_imported"] == 4

    def test_solver_and_caches_share_one_registry(self):
        solver = Solver()
        assert isinstance(solver.metrics, MetricsRegistry)
        cache = ConstraintCache(registry=solver.metrics)
        cache.stats.hits += 1
        snap = solver.metrics.snapshot()
        assert snap["constraint_cache_hits"] == 1
        assert "solver_queries" in snap

    def test_executor_counters_live_in_solver_registry(self):
        executor = make_executor(branchy_program(2))
        executor.run(limits=ExplorationLimits(max_paths=4))
        snap = executor.metrics.snapshot()
        assert snap["engine_instructions"] == executor.total_instructions
        assert snap["engine_instructions"] > 0
        assert snap["solver_queries"] == executor.solver.stats.queries
