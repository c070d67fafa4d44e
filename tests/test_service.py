"""Tests for the shared warm-cluster architecture (PR 10).

Covers :class:`repro.api.context.ClusterContext` (refcounted lifecycle,
per-query executor views), the session close()-vs-run() race fix, the
multi-tenant :class:`repro.service.QueryService` (admission, budget
policies, plan/result caches) and the QUERY/CANCEL/RESULT wire front
door behind ``repro serve-sql``.
"""

import glob
import threading
import time

import numpy as np
import pytest

from repro import ClusterContext, JoinSession, QueryService, RunConfig
from repro.core.optimizer import PLAN_CACHE, PlanCache, data_key
from repro.data import Database, Relation
from repro.distributed.metrics import CostBreakdown
from repro.engines import registry
from repro.engines.base import EngineOptions, EngineResult
from repro.errors import AdmissionError, ConfigError, NetError
from repro.knobs import env
from repro.obs.metrics import METRICS
from repro.engines.adj import PRECOMPUTE_CACHE
from repro.query import paper_query, parse_query
from repro.runtime.executor import ExecutorView
from repro.service import ResultCache, result_key
from repro.wcoj import leapfrog_join


def graph_case(query_name, seed=0, n=200, dom=40):
    query = paper_query(query_name)
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    rels = {}
    for a in query.atoms:
        rels.setdefault(a.relation,
                        Relation(a.relation, ("x", "y"), edges))
    return query, Database(rels.values())


def _cache_hits(svc, query, db):
    """Whether one query hits the (plan, precompute, result) caches: a
    forced run probes the first two, then a cached run the third."""
    before = METRICS.counter("core.precompute_cache_hits").value
    forced = svc.execute(query, db, use_cache=False)
    bags = METRICS.counter("core.precompute_cache_hits").value > before
    cached = svc.execute(query, db)
    assert forced.ok and cached.ok and forced.count == cached.count
    return (forced.extra["plan_cache"] == "hit", bags,
            cached.extra.get("result_cache") == "hit")


def threads_config(transport="pickle", workers=2):
    return RunConfig().replace(backend="threads", workers=workers,
                               transport=transport, samples=20)


def _plan_cache_counts():
    """(hits, misses) of the process-wide plan cache so far."""
    return (METRICS.counter("core.plan_cache_hits").value,
            METRICS.counter("core.plan_cache_misses").value)


@pytest.fixture
def slow_engine(monkeypatch):
    """A temporarily registered engine that sleeps, then counts."""
    monkeypatch.setattr(registry.ENGINES, "_entries",
                        dict(registry.ENGINES._entries))

    class Slow:
        name = "Slow"
        options_map = {}
        started = threading.Event()
        release = threading.Event()

        def run(self, query, db, cluster, executor=None):
            Slow.started.set()
            Slow.release.wait(timeout=5.0)
            return EngineResult(engine=self.name, query=query.name or "?",
                                count=leapfrog_join(query, db).count,
                                breakdown=CostBreakdown())

    registry.register("slow", Slow, summary="sleepy test engine")
    Slow.release.set()   # default: only a trivial pause
    return Slow


# -- ClusterContext lifecycle -------------------------------------------------

class TestClusterContext:
    def test_private_session_owns_context(self):
        session = JoinSession(config=threads_config())
        assert not session.shared
        q, db = graph_case("Q1")
        result = session.query_from(q, db).run("adj")
        assert result.ok
        assert session.executor_created
        session.close()
        assert session.context.closed

    def test_refcount_closes_on_last_release(self):
        ctx = ClusterContext(threads_config())
        s1 = JoinSession(context=ctx)
        s2 = JoinSession(context=ctx)
        assert s1.shared and s2.shared
        assert ctx.refs == 2
        q, db = graph_case("Q1")
        assert s1.query_from(q, db).run("adj").ok
        s1.close()
        assert not ctx.closed              # s2 still holds it
        assert ctx.executor_created
        assert s2.query_from(q, db).run("adj").ok   # still warm
        s2.close()
        assert ctx.closed

    def test_context_manager_holds_a_ref(self):
        with ClusterContext(threads_config()) as ctx:
            with JoinSession(context=ctx) as session:
                q, db = graph_case("Q1")
                assert session.query_from(q, db).run("adj").ok
            assert not ctx.closed
        assert ctx.closed

    def test_attach_rejects_resource_kwargs(self):
        with ClusterContext(threads_config()) as ctx:
            with pytest.raises(ConfigError, match="workers"):
                JoinSession(context=ctx, workers=4)
            with pytest.raises(ConfigError, match="transport"):
                JoinSession(context=ctx, transport="shm")

    def test_shared_sessions_get_epoch_stamped_views(self):
        with ClusterContext(threads_config()) as ctx:
            with JoinSession(context=ctx) as session:
                e1 = session.executor()
                e2 = session.executor()
                assert isinstance(e1, ExecutorView)
                assert isinstance(e2, ExecutorView)
                assert e1.epoch != e2.epoch
                assert e1.base is e2.base          # one shared pool
                assert e1.transport is not e2.transport
                e1.close()
                e2.close()

    def test_private_session_keeps_base_executor(self):
        """A private session keeps one base executor and, like a shared
        one, hands every run its own epoch view over it."""
        with JoinSession(config=threads_config()) as session:
            e1 = session.executor()
            e2 = session.executor()
            assert isinstance(e1, ExecutorView)
            assert isinstance(e2, ExecutorView)
            assert e1.epoch != e2.epoch
            assert e1.base is e2.base is session.context.executor()
            assert not isinstance(e1.base, ExecutorView)

    def test_query_ids_unique_across_sessions(self):
        with ClusterContext(threads_config()) as ctx:
            with JoinSession(context=ctx) as s1, \
                    JoinSession(context=ctx) as s2:
                ids = {s.next_query_id("Q1") for s in (s1, s2)
                       for _ in range(3)}
                assert len(ids) == 6

    def test_closed_context_refuses_attach(self):
        ctx = ClusterContext(threads_config())
        ctx.acquire()
        ctx.release()
        with pytest.raises(ConfigError, match="closed"):
            JoinSession(context=ctx)


# -- the close()-vs-run() race ------------------------------------------------

class TestCloseRace:
    def test_close_waits_for_inflight_run(self, slow_engine):
        """close() from another thread must not tear the transport down
        underneath a run that already started (the PR-10 regression)."""
        slow_engine.release.clear()
        slow_engine.started.clear()
        session = JoinSession(config=threads_config())
        q, db = graph_case("Q1")
        job = session.query_from(q, db)
        results = []
        runner = threading.Thread(
            target=lambda: results.append(job.run("slow")))
        runner.start()
        assert slow_engine.started.wait(timeout=5.0)
        closer = threading.Thread(target=session.close)
        closer.start()
        time.sleep(0.1)
        assert closer.is_alive()           # blocked on the active run
        assert not session.context.closed
        slow_engine.release.set()
        runner.join(timeout=5.0)
        closer.join(timeout=5.0)
        assert not closer.is_alive()
        assert results and results[0].ok
        assert results[0].count == leapfrog_join(q, db).count
        assert session.context.closed

    def test_closed_session_refuses_new_runs(self):
        session = JoinSession(config=threads_config())
        q, db = graph_case("Q1")
        job = session.query_from(q, db)
        session.close()
        with pytest.raises(ConfigError, match="closed"):
            job.run("adj")

    def test_close_idempotent_under_concurrency(self):
        session = JoinSession(config=threads_config())
        threads = [threading.Thread(target=session.close)
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert session.context.closed


# -- concurrent queries on one shared context ---------------------------------

class TestConcurrentQueries:
    @pytest.mark.parametrize("transport", ["pickle", "shm", "tcp"])
    def test_stress_mixed_queries_counts_identical_to_serial(
            self, transport):
        """8 mixed Q1/Q9 jobs from threads on one shared context: every
        count matches serial Leapfrog, nothing leaks."""
        shm_before = set(glob.glob("/dev/shm/*"))
        cases = [graph_case("Q1", seed=7, n=150, dom=30),
                 graph_case("Q9", seed=11, n=120, dom=25)]
        expected = [leapfrog_join(q, db).count for q, db in cases]
        ctx = ClusterContext(threads_config(transport=transport))
        results: list = [None] * 8
        errors: list = []

        def run_one(i):
            q, db = cases[i % 2]
            try:
                with JoinSession(context=ctx) as session:
                    results[i] = session.query_from(q, db).run("adj")
            except Exception as exc:     # surfaces in the main thread
                errors.append(exc)

        with ctx:
            threads = [threading.Thread(target=run_one, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not errors
            if transport == "tcp":
                # Every per-query epoch freed its blocks on teardown.
                assert ctx.store_blocks == ()
        assert ctx.closed
        for i, result in enumerate(results):
            assert result is not None and result.ok
            assert result.count == expected[i % 2]
            assert result.data_plane["transport"] == transport
        if transport == "shm":
            assert set(glob.glob("/dev/shm/*")) <= shm_before


# -- QueryService: admission, budgets, caches ---------------------------------

class TestQueryService:
    def test_eight_concurrent_queries_match_serial(self):
        """The acceptance bar: one warm service, >= 8 concurrent
        queries, per-query counts identical to serial."""
        cases = [graph_case("Q1", seed=3, n=150, dom=30),
                 graph_case("Q9", seed=5, n=120, dom=25)]
        expected = [leapfrog_join(q, db).count for q, db in cases]
        with QueryService(config=threads_config(),
                          max_concurrent=8) as svc:
            futures = [svc.submit(*cases[i % 2], engine="adj",
                                  use_cache=False)
                       for i in range(8)]
            outcomes = [f.result(timeout=60.0) for f in futures]
        for i, result in enumerate(outcomes):
            assert result.ok
            assert result.count == expected[i % 2]

    def test_warm_hit_ships_zero_bytes(self):
        q, db = graph_case("Q1")
        with QueryService(config=threads_config()) as svc:
            cold = svc.execute(q, db, engine="adj")
            assert cold.ok
            # The pickle transport ships partitions inline.
            assert cold.data_plane["shipped_bytes"] > 0
            warm = svc.execute(q, db, engine="adj")
            assert warm.ok and warm.count == cold.count
            assert warm.extra["result_cache"] == "hit"
            assert warm.data_plane["published_bytes"] == 0
            assert warm.data_plane["shipped_bytes"] == 0
            assert warm.data_plane["fetched_bytes"] == 0
            assert warm.data_plane["transport"] == "cache"

    def test_cache_keyed_on_fingerprint(self):
        q, db = graph_case("Q1")
        with QueryService() as svc:
            first = svc.execute(q, db)
            db.replace(Relation(q.atoms[0].relation, ("x", "y"),
                                np.array([[1, 2], [2, 3]])))
            fresh = svc.execute(q, db)
            assert fresh.extra.get("result_cache") != "hit"
            assert first.count != fresh.count

    def test_invalidate_drops_entries_for_one_database(self):
        q1, db1 = graph_case("Q1", seed=1)
        q2, db2 = graph_case("Q1", seed=2)
        with QueryService() as svc:
            svc.execute(q1, db1)
            svc.execute(q2, db2)
            assert len(svc.result_cache) == 2
            assert svc.invalidate(db1) == 1
            assert len(svc.result_cache) == 1
            assert svc.execute(q2, db2).extra["result_cache"] == "hit"

    def test_unread_relation_keeps_every_hit(self):
        q, db = graph_case("Q1", seed=21)
        PLAN_CACHE.clear()
        PRECOMPUTE_CACHE.clear()
        with QueryService() as svc:
            assert _cache_hits(svc, q, db) == (False, False, False)
            db.add(Relation("Unread", ("x", "y"), [[1, 2]]))
            assert _cache_hits(svc, q, db) == (True, True, True)

    def test_replace_misses_exactly_the_readers(self):
        rng = np.random.default_rng(22)
        db = Database(Relation(name, ("x", "y"),
                               rng.integers(0, 30, size=(150, 2)))
                      for name in "RSTUVW")
        reads_r = parse_query("A(a,b,c) :- R(a,b), S(b,c), T(a,c)")
        not_r = parse_query("B(a,b,c) :- U(a,b), V(b,c), W(a,c)")
        PLAN_CACHE.clear()
        PRECOMPUTE_CACHE.clear()
        with QueryService() as svc:
            for q in (reads_r, not_r):
                assert _cache_hits(svc, q, db) == (False, False, False)
            db.replace(Relation("R", ("x", "y"),
                                rng.integers(0, 30, size=(150, 2))))
            assert _cache_hits(svc, reads_r, db) == (False, False, False)
            assert _cache_hits(svc, not_r, db) == (True, True, True)

    def test_equal_content_rebuilt_hits(self):
        q, db = graph_case("Q1", seed=23)
        with QueryService() as svc:
            _cache_hits(svc, q, db)
            rebuilt = Database(Relation(r.name, r.attributes, r.data.copy())
                               for r in db)
            assert _cache_hits(svc, q, rebuilt) == (True, True, True)

    def test_use_cache_false_bypasses(self):
        q, db = graph_case("Q1")
        with QueryService() as svc:
            svc.execute(q, db)
            again = svc.execute(q, db, use_cache=False)
            assert again.extra.get("result_cache") != "hit"

    def test_plan_cache_reused_across_tenants(self):
        """One core plan-cache miss for the first tenant, then a hit for
        the second; the STAT entry count reads the core cache."""
        q, db = graph_case("Q1")
        PLAN_CACHE.clear()
        with QueryService() as svc:
            before = _plan_cache_counts()
            first = svc.execute(q, db, tenant="a", use_cache=False)
            assert _plan_cache_counts() == (before[0], before[1] + 1)
            second = svc.execute(q, db, tenant="b", use_cache=False)
            assert _plan_cache_counts() == (before[0] + 1, before[1] + 1)
            assert svc.stats()["plan_cache_entries"] == len(PLAN_CACHE) == 1
        assert (first.extra["plan_cache"], second.extra["plan_cache"]) \
            == ("miss", "hit")
        assert first.extra["plan"] == second.extra["plan"]

    def test_concurrent_submits_share_one_plan(self):
        """Four threads submit one query: every result carries the same
        plan and the right count; each run is one lookup, and the cache
        holds one entry however many misses raced."""
        q, db = graph_case("Q9", seed=13, n=120, dom=25)
        expected = leapfrog_join(q, db).count
        PLAN_CACHE.clear()
        before = _plan_cache_counts()
        with QueryService(config=threads_config(),
                          max_concurrent=4) as svc:
            barrier = threading.Barrier(4)
            futures: list = [None] * 4

            def submit(i):
                barrier.wait(timeout=10.0)
                futures[i] = svc.submit(q, db, engine="adj",
                                        use_cache=False)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            results = [f.result(timeout=60.0) for f in futures]
        hits, misses = (after - start for after, start
                        in zip(_plan_cache_counts(), before))
        assert hits + misses == 4 and misses >= 1
        assert len(PLAN_CACHE) == 1
        assert all(r.ok and r.count == expected for r in results)
        assert len({r.extra["plan"] for r in results}) == 1
        assert len({r.breakdown.optimization for r in results}) == 1

    def test_capacity_rejection_is_backpressure(self, slow_engine):
        slow_engine.release.clear()
        slow_engine.started.clear()
        q, db = graph_case("Q1", n=60, dom=20)
        with QueryService(max_concurrent=1, queue_depth=0) as svc:
            first = svc.submit(q, db, engine="slow")
            assert slow_engine.started.wait(timeout=5.0)
            with pytest.raises(AdmissionError) as exc:
                svc.submit(q, db, engine="slow")
            assert exc.value.reason == "capacity"
            slow_engine.release.set()
            assert first.result(timeout=10.0).ok
            # Capacity freed: admission works again.
            assert svc.execute(q, db, engine="slow").ok

    def test_budget_reject_policy(self):
        q, db = graph_case("Q1")
        with QueryService(tenant_budgets={"free": 1}) as svc:
            assert svc.execute(q, db, tenant="free",
                               use_cache=False).ok
            assert svc.tenant_remaining("free") <= 0
            with pytest.raises(AdmissionError) as exc:
                svc.execute(q, db, tenant="free", use_cache=False)
            assert exc.value.reason == "budget"
            assert exc.value.tenant == "free"
            # Another tenant is unaffected.
            assert svc.execute(q, db, tenant="paid",
                               use_cache=False).ok

    def test_budget_queue_policy_waits_for_refill(self):
        q, db = graph_case("Q1", n=80, dom=20)
        with QueryService(tenant_budgets={"t": 1},
                          budget_policy="queue",
                          budget_window=0.4) as svc:
            assert svc.execute(q, db, tenant="t", use_cache=False).ok
            # Over budget now — under "queue" this waits for the next
            # refill window instead of rejecting, then runs cleanly.
            second = svc.execute(q, db, tenant="t", use_cache=False)
            assert second.ok

    def test_budget_queue_without_window_rejects(self):
        q, db = graph_case("Q1", n=80, dom=20)
        with QueryService(tenant_budgets={"t": 1},
                          budget_policy="queue") as svc:
            svc.execute(q, db, tenant="t", use_cache=False)
            with pytest.raises(AdmissionError, match="no refill"):
                svc.execute(q, db, tenant="t", use_cache=False)

    def test_set_tenant_budget_replaces_the_budget(self):
        q, db = graph_case("Q1", n=80, dom=20)
        with QueryService(tenant_budgets={"t": 1}) as svc:
            assert svc.execute(q, db, tenant="t", use_cache=False).ok
            assert svc.tenant_remaining("t") <= 0
            svc.set_tenant_budget("t", 10 ** 9)
            assert svc.tenant_remaining("t") == 10 ** 9
            assert svc.tenant_remaining("new") is None
            svc.set_tenant_budget("new", 50)
            assert svc.tenant_remaining("new") == 50

    def test_set_tenant_budget_wakes_a_queued_request(self):
        q, db = graph_case("Q1", n=80, dom=20)
        with QueryService(tenant_budgets={"t": 1}, budget_policy="queue",
                          budget_window=60.0) as svc:
            assert svc.execute(q, db, tenant="t", use_cache=False).ok
            waits = METRICS.counter("service.budget_waits").value
            future = svc.submit(q, db, tenant="t", use_cache=False)
            deadline = time.monotonic() + 10.0
            while METRICS.counter("service.budget_waits").value == waits:
                assert time.monotonic() < deadline, "never queued"
                time.sleep(0.01)
            # The window refills in a minute; a new budget must not
            # wait for it.
            svc.set_tenant_budget("t", 10 ** 9)
            assert future.result(timeout=10.0).ok
            assert svc.tenant_remaining("t") < 10 ** 9

    def test_set_tenant_budget_applies_its_window(self):
        q, db = graph_case("Q1", n=80, dom=20)
        with QueryService(budget_policy="queue") as svc:
            svc.set_tenant_budget("t", 1, window_seconds=0.3)
            assert svc.execute(q, db, tenant="t", use_cache=False).ok
            assert svc.tenant_remaining("t") <= 0
            # Without the override the service has no window, and the
            # queue policy would reject; with it, the request waits.
            assert svc.execute(q, db, tenant="t", use_cache=False).ok
            time.sleep(0.35)
            assert svc.tenant_remaining("t") == 1

    def test_budget_downgrade_policy_trips_cleanly(self):
        q, db = graph_case("Q1")
        with QueryService(tenant_budgets={"t": 5},
                          budget_policy="downgrade") as svc:
            result = svc.execute(q, db, tenant="t", use_cache=False)
            assert not result.ok
            assert result.failure == "budget"   # clean failure, no crash
            # The downgraded tenant never affects other tenants.
            other = svc.execute(q, db, tenant="other", use_cache=False)
            assert other.ok
            assert other.count == leapfrog_join(q, db).count

    def test_downgraded_failure_not_cached(self):
        q, db = graph_case("Q1")
        with QueryService(tenant_budgets={"t": 5},
                          budget_policy="downgrade") as svc:
            svc.execute(q, db, tenant="t")
            assert len(svc.result_cache) == 0

    def test_closed_service_refuses_submissions(self):
        q, db = graph_case("Q1")
        svc = QueryService()
        svc.close()
        svc.close()                      # idempotent
        with pytest.raises(ConfigError, match="closed"):
            svc.submit(q, db)

    def test_service_on_shared_context_leaves_it_warm(self):
        ctx = ClusterContext(threads_config())
        q, db = graph_case("Q1")
        with ctx:
            with QueryService(context=ctx) as svc:
                assert svc.execute(q, db, engine="adj").ok
            assert not ctx.closed        # service released, caller holds
            with JoinSession(context=ctx) as session:
                assert session.query_from(q, db).run("adj").ok
        assert ctx.closed

    def test_context_and_config_are_exclusive(self):
        with ClusterContext(threads_config()) as ctx:
            with pytest.raises(ConfigError, match="not both"):
                QueryService(context=ctx, config=threads_config())

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_CONCURRENT", raising=False)
        monkeypatch.delenv("REPRO_RESULT_CACHE_BYTES", raising=False)
        assert env("REPRO_MAX_CONCURRENT") == 4
        assert env("REPRO_RESULT_CACHE_BYTES") == 64 << 20
        monkeypatch.setenv("REPRO_MAX_CONCURRENT", "9")
        monkeypatch.setenv("REPRO_RESULT_CACHE_BYTES", "1024")
        assert env("REPRO_MAX_CONCURRENT") == 9
        assert env("REPRO_RESULT_CACHE_BYTES") == 1024
        monkeypatch.setenv("REPRO_MAX_CONCURRENT", "zero")
        with pytest.raises(ConfigError, match="REPRO_MAX_CONCURRENT"):
            env("REPRO_MAX_CONCURRENT")
        monkeypatch.setenv("REPRO_MAX_CONCURRENT", "0")
        with pytest.raises(ConfigError, match=">= 1"):
            env("REPRO_MAX_CONCURRENT")


# -- cache unit behaviour -----------------------------------------------------

class TestCaches:
    def test_plan_cache_lru_eviction(self):
        """The core plan cache evicts its least recently used entry."""
        cache = PlanCache(capacity=2)
        calls = []

        def lookup(key):
            return cache.lookup(key, lambda: calls.append(key) or
                                f"report-{key}")

        assert lookup("a") == ("report-a", False)
        assert lookup("b") == ("report-b", False)
        assert lookup("a") == ("report-a", True)     # refresh a
        assert lookup("c") == ("report-c", False)    # evicts b
        assert len(cache) == 2
        assert lookup("a") == ("report-a", True)
        assert lookup("c") == ("report-c", True)
        assert lookup("b") == ("report-b", False)    # recomputed
        assert calls == ["a", "b", "c", "b"]

    def _result(self, count=5):
        return EngineResult(engine="ADJ", query="Q1", count=count,
                            breakdown=CostBreakdown())

    def test_result_cache_round_trip(self):
        cache = ResultCache()
        key = ("sig", "adj", None, "fp")
        assert cache.get(key) is None
        cache.put(key, self._result())
        hit = cache.get(key, query_id="q0001:Q1")
        assert hit.count == 5 and hit.ok
        assert hit.extra["result_cache"] == "hit"
        assert hit.extra["query_id"] == "q0001:Q1"
        assert hit.data_plane["transport"] == "cache"

    def test_result_cache_skips_failures_and_respects_zero_budget(self):
        cache = ResultCache()
        failed = self._result()
        failed.failure = "crash"
        cache.put(("k1",), failed)
        assert len(cache) == 0
        disabled = ResultCache(max_bytes=0)
        disabled.put(("k2",), self._result())
        assert len(disabled) == 0

    def test_result_cache_evicts_by_bytes(self):
        cache = ResultCache(max_bytes=1200)    # fits ~2 entries
        for i in range(4):
            cache.put((f"key-{i}",), self._result(i))
        assert len(cache) < 4
        assert cache.get((f"key-3",)) is not None   # newest survives

    def test_invalidate_matches_fingerprint_suffix(self):
        """invalidate(db) drops the entries that read a relation of
        ``db`` — by name and digest — and None drops all."""
        q, db = graph_case("Q1", seed=1)
        other_q, other = graph_case("Q1", seed=2)
        cache = ResultCache()
        cache.put(result_key(q, db, "adj"), self._result())
        cache.put(result_key(other_q, other, "adj"), self._result())
        read = db[q.atoms[0].relation]
        renamed = Relation("Elsewhere", read.attributes, read.data)
        assert cache.invalidate(Database([renamed])) == 0
        assert cache.invalidate(Database([read])) == 1
        assert cache.get(result_key(other_q, other, "adj")) is not None
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_result_key_separates_budget_clamps(self):
        q, db = graph_case("Q1")
        full = result_key(q, db, "adj", EngineOptions(work_budget=None))
        clamped = result_key(q, db, "adj", EngineOptions(work_budget=5))
        assert full != clamped
        assert full[0] == clamped[0] == data_key(q, db)


# -- the wire front door ------------------------------------------------------

class TestWireService:
    def test_query_round_trip_and_warm_cache(self):
        from repro.net.service import QueryServer, ServiceClient

        with QueryServer(port=0, max_concurrent=2) as server:
            with ServiceClient(server.host, server.port) as client:
                assert client.hello["service"] == "query-service"
                cold = client.run("Q1", dataset="wb")
                assert cold["ok"] and not cold["cached"]
                warm = client.run("Q1", dataset="wb")
                assert warm["ok"] and warm["cached"]
                assert warm["count"] == cold["count"]
                assert warm["data_plane"]["transport"] == "cache"
                text = client.run("T(a,b,c) :- R(a,b), S(b,c), T(a,c)",
                                  dataset="wb")
                assert text["ok"] and text["count"] == cold["count"]

    def test_case_cache_is_bounded(self):
        from repro.net.service import CASE_CAPACITY, QueryServer, \
            ServiceClient

        with QueryServer(port=0) as server:
            with ServiceClient(server.host, server.port) as client:
                runs = [client.run("Q1", scale=1e-5, seed=seed)
                        for seed in range(CASE_CAPACITY + 2)]
                assert len(server._cases) == CASE_CAPACITY
                # Seed 0's Database was evicted and is built again:
                # equal content, so its result is still cached.
                again = client.run("Q1", scale=1e-5, seed=0)
                assert again["cached"]
                assert again["count"] == runs[0]["count"]

    def test_over_budget_tenant_rejected_as_429(self):
        from repro.net.service import QueryServer, ServiceClient

        with QueryServer(port=0, tenant_budgets={"free": 1}) as server:
            with ServiceClient(server.host, server.port) as client:
                first = client.run("Q1", tenant="free", use_cache=False)
                assert first["ok"]
                assert first["tenant_remaining"] <= 0
                with pytest.raises(AdmissionError) as exc:
                    client.run("Q1", tenant="free", use_cache=False)
                assert exc.value.reason == "budget"
                # The service (and other tenants) survive the rejection.
                assert client.run("Q1", tenant="paid",
                                  use_cache=False)["ok"]

    def test_stat_and_expo_expose_service_metrics(self):
        from repro.net.service import QueryServer, ServiceClient

        with QueryServer(port=0) as server:
            with ServiceClient(server.host, server.port) as client:
                client.run("Q1")
                stats = client.stats()
                assert stats["service"] == "query-service"
                assert stats["result_cache_entries"] == 1
                assert "service.completed" in stats["metrics"]
                expo = client.expo()
                assert "repro_service_completed_total" in expo
                assert "service_max_concurrent" in expo

    def test_cancel_queued_ticket(self, slow_engine):
        from repro.net.service import QueryServer, ServiceClient

        slow_engine.release.clear()
        slow_engine.started.clear()
        q_small = {"n": 60, "dom": 20}
        with QueryServer(port=0, max_concurrent=1,
                         queue_depth=2) as server:
            replies = {}

            def run_named(ticket):
                with ServiceClient(server.host, server.port) as c:
                    try:
                        replies[ticket] = c.run(
                            "Q1", engine="slow", use_cache=False,
                            scale=4e-6, ticket=ticket)
                    except NetError as exc:
                        replies[ticket] = exc
            t_a = threading.Thread(target=run_named, args=("job-a",))
            t_a.start()
            assert slow_engine.started.wait(timeout=10.0)
            t_b = threading.Thread(target=run_named, args=("job-b",))
            t_b.start()
            with ServiceClient(server.host, server.port) as control:
                deadline = time.monotonic() + 5.0
                while control.stats()["queued"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                assert control.cancel("job-b")
                assert not control.cancel("no-such-ticket")
            slow_engine.release.set()
            t_a.join(timeout=15.0)
            t_b.join(timeout=15.0)
        assert replies["job-a"]["ok"]
        assert isinstance(replies["job-b"], NetError)
        assert "cancelled" in str(replies["job-b"])

    def test_client_rejects_non_service_endpoint(self):
        from repro.net.blockstore import BlockStoreServer
        from repro.net.service import ServiceClient

        with BlockStoreServer() as store:
            with pytest.raises(NetError, match="not a query service"):
                ServiceClient(store.host, store.port)

    def test_default_service_port(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_PORT", raising=False)
        assert env("REPRO_SERVICE_PORT") == 7075
        monkeypatch.setenv("REPRO_SERVICE_PORT", "7100")
        assert env("REPRO_SERVICE_PORT") == 7100
        monkeypatch.setenv("REPRO_SERVICE_PORT", "notaport")
        with pytest.raises(ConfigError, match="REPRO_SERVICE_PORT"):
            env("REPRO_SERVICE_PORT")
        monkeypatch.setenv("REPRO_SERVICE_PORT", "70000")
        with pytest.raises(ConfigError, match="PORT"):
            env("REPRO_SERVICE_PORT")
