"""Pipelined epochs: the one execution path every engine runs.

Streaming ``submit_tasks``, the failure-path regressions, and the two
headline invariants: for every engine and every query, a run with no
executor (a private in-process serial one) is bit-identical to the
parent commit's inline evaluation and to ``threads`` / ``processes`` /
``remote`` runs under every transport; and results do not depend on how
minting and execution interleave — draining the task stream before
dispatch (what ``benchmarks/e2e`` does to time publish and execute
apart) changes no count, ``level_tuples`` or data-plane total.  Failure
paths must leave the pool reusable after recoverable errors and must
never zero the epoch's data-plane counters.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Database, Relation
from repro.distributed import Cluster, HypercubeGrid
from repro.distributed.hcube import hcube_route
from repro.engines import (
    ADJ,
    BigJoin,
    HCubeJ,
    HCubeJCache,
    SparkSQLJoin,
    YannakakisJoin,
    run_engine_safely,
)
from repro.errors import BudgetExceeded, ConfigError, WorkerCrashed
from repro.query import paper_query
from repro.runtime import (
    ExecutorView,
    SerialExecutor,
    ThreadExecutor,
    create_executor,
    iter_routed_tasks,
    merge_task_results,
    run_streamed_tasks,
)
from repro.runtime.transport import SharedMemoryTransport
from repro.wcoj import leapfrog_join

TRANSPORTS = ("pickle", "shm", "tcp")


def graph_case(query_name, seed=0, n=150, dom=25):
    query = paper_query(query_name)
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    db = Database(Relation(a.relation, ("x", "y"), edges)
                  for a in query.atoms)
    return query, db


def engine_lineup():
    return (HCubeJ(), HCubeJCache(), BigJoin(), SparkSQLJoin(),
            YannakakisJoin(), ADJ(num_samples=10))


# -- top-level task functions (picklable) -------------------------------------

def _double(x):
    return x * 2


def _budget_trip(x):
    raise BudgetExceeded(100, 10)


def _boom(x):
    raise RuntimeError(f"boom on {x}")


# -- streaming executor API ---------------------------------------------------

class TestSubmitTasks:
    @pytest.mark.parametrize("backend",
                             ("serial", "threads", "processes"))
    def test_results_keep_submission_order(self, backend):
        with create_executor(backend, 2) as ex:
            assert list(ex.submit_tasks(_double, iter(range(7)))) \
                == [0, 2, 4, 6, 8, 10, 12]

    def test_lazy_source_is_consumed_lazily(self):
        """Pool backends submit tasks as the generator produces them —
        execution of early tasks starts before the stream ends."""
        started = threading.Event()

        def traced(x):
            started.set()
            return x

        minted = []

        def stream():
            yield 0
            # The first task should already be on the pool by the time
            # the second is minted (no barrier on the full list).
            started.wait(timeout=5.0)
            minted.append(started.is_set())
            yield 1

        with ThreadExecutor(2) as ex:
            assert list(ex.submit_tasks(traced, stream())) == [0, 1]
        assert minted == [True]

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_empty_stream(self, backend):
        with create_executor(backend, 2) as ex:
            assert list(ex.submit_tasks(_double, iter(()))) == []

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_crash_becomes_worker_crashed(self, backend):
        with create_executor(backend, 2) as ex:
            with pytest.raises(WorkerCrashed, match="boom"):
                list(ex.submit_tasks(_boom, iter([7])))

    def test_reproerror_passes_through(self):
        with ThreadExecutor(2) as ex:
            with pytest.raises(BudgetExceeded):
                list(ex.submit_tasks(_budget_trip, iter([1])))

    def test_reproerror_survives_the_trip_out_of_a_pool_child(self):
        """A structured ReproError raised in a ``processes`` child must
        unpickle in the coordinator (not break the result handler), and
        the pool must still be usable afterwards."""
        with create_executor("processes", 2) as ex:
            with pytest.raises(BudgetExceeded) as info:
                ex.map_tasks(_budget_trip, [1, 2])
            assert (info.value.work_done, info.value.budget) == (100, 10)
            assert ex.map_tasks(_double, [3, 4]) == [6, 8]

    def test_failure_stops_consuming_the_stream(self):
        """A mid-stream failure cancels pending work: the source is not
        drained to the end once a submitted task has failed."""
        minted = []

        def slow_stream():
            for i in range(20):
                minted.append(i)
                yield "boom" if i == 0 else i
                time.sleep(0.05)

        def fail_fast(x):
            if x == "boom":
                raise RuntimeError("boom fast")
            return x

        with ThreadExecutor(1) as ex:
            with pytest.raises(WorkerCrashed, match="boom fast"):
                list(ex.submit_tasks(fail_fast, slow_stream()))
        assert len(minted) < 20

    def test_source_failure_cancels_submitted_tasks(self):
        """The task *source* raising propagates unchanged."""
        def broken_stream():
            yield 1
            raise ValueError("mint failed")

        with ThreadExecutor(2) as ex:
            with pytest.raises(ValueError, match="mint failed"):
                list(ex.submit_tasks(_double, broken_stream()))

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(-1000, 1000), max_size=30))
    def test_streamed_equals_barrier(self, values):
        """Property: submit_tasks ≡ map_tasks for any task list."""
        with ThreadExecutor(2) as ex:
            assert list(ex.submit_tasks(_double, iter(values))) \
                == ex.map_tasks(_double, values)


class TestFailurePathRegressions:
    """The `map_tasks closes a healthy pool` bug (ISSUE 5, satellite 1)."""

    def test_recoverable_failure_keeps_pool_and_transport(self):
        transport = SharedMemoryTransport()
        with ThreadExecutor(2, transport=transport) as ex:
            transport.publish("k", np.arange(6, dtype=np.int64))
            with pytest.raises(BudgetExceeded):
                ex.map_tasks(_budget_trip, [1, 2])
            # The pool survived a recoverable error...
            assert ex._pool is not None
            assert ex.map_tasks(_double, [3]) == [6]
            # ...and the transport's epoch was NOT torn down mid-engine:
            # the current stats still hold the published block.
            assert transport.stats.published_blocks == 1
            assert transport.active_segments != ()

    def test_crash_closes_pool_but_never_transport(self):
        transport = SharedMemoryTransport()
        with ThreadExecutor(2, transport=transport) as ex:
            transport.publish("k", np.arange(6, dtype=np.int64))
            with pytest.raises(WorkerCrashed):
                ex.map_tasks(_boom, [1])
            assert ex._pool is None          # genuine crash: pool gone
            assert transport.stats.published_blocks == 1   # epoch alive
            # A fresh pool is created transparently on next use.
            assert ex.map_tasks(_double, [4]) == [8]

    def test_failure_before_transport_use_reports_no_stale_plane(self):
        """A failure that never touched the transport must not inherit
        the previous run's frozen epoch counters."""
        query, db = graph_case("Q1", seed=7)
        with create_executor("threads", 2, transport="shm") as ex:
            ok = run_engine_safely(HCubeJ(), query, db,
                                   Cluster(num_workers=2), executor=ex)
            assert ok.ok and ok.data_plane["published_bytes"] > 0
            # OOM trips inside hcube_route, before any publish happens.
            oom = run_engine_safely(
                HCubeJ(), query, db,
                Cluster(num_workers=2, memory_tuples_per_worker=1.0),
                executor=ex)
            assert oom.failure == "oom"
            assert oom.data_plane is None

    def test_serial_streaming_claims_no_overlap(self):
        """Inline execution between mints is not concurrency: the
        serial backend must report overlap_seconds == 0."""
        query, db = graph_case("Q1", seed=7)
        with create_executor("serial", 2, transport="shm") as ex:
            result = HCubeJ().run(query, db, Cluster(num_workers=2),
                                  executor=ex)
        assert result.ok
        assert result.telemetry.overlap_seconds == 0.0

    @pytest.mark.parametrize("pooled", (False, True))
    def test_budget_tripped_run_reports_real_data_plane(self, pooled):
        """Regression: a budget-failed run must report what it actually
        published, not zeros — on the in-process dispatcher and on the
        pool one."""
        query, db = graph_case("Q1", seed=7, n=300, dom=40)
        cluster = Cluster(num_workers=2)
        with create_executor("threads" if pooled else "serial", 2,
                             transport="shm") as ex:
            result = run_engine_safely(HCubeJ(work_budget=3), query, db,
                                       cluster, executor=ex)
            assert result.failure == "budget"
            plane = result.data_plane
            assert plane is not None and plane["transport"] == "shm"
            assert plane["published_bytes"] == sum(
                db[a.relation].nbytes for a in query.atoms)
            assert plane["freed_blocks"] == plane["published_blocks"] > 0
            # The executor survives for the next query of the session.
            assert ex.map_tasks(_double, [5]) == [10]


# -- streamed scheduler -------------------------------------------------------

def _routing(query_name="Q1", workers=3, seed=1):
    query, db = graph_case(query_name, seed=seed)
    shares = {a: 1 for a in query.attributes}
    shares[query.attributes[0]] = workers
    grid = HypercubeGrid(query, shares, workers)
    return query, db, hcube_route(query, db, grid)


class TestStreamedScheduler:
    def test_streamed_results_match_barrier_results(self):
        query, db, routing = _routing("Q9")
        truth = leapfrog_join(query, db).count
        with SerialExecutor(3) as ex:
            streamed = run_streamed_tasks(
                ex, iter_routed_tasks(routing, db, query.attributes,
                                      transport=ex.transport))
        merged = merge_task_results(streamed, query.num_attributes)
        assert merged.count == truth

    def test_parallel_routing_identical_to_serial(self):
        query, db = graph_case("Q9", seed=3)
        shares = {a: 1 for a in query.attributes}
        shares[query.attributes[0]] = 2
        shares[query.attributes[1]] = 2
        grid = HypercubeGrid(query, shares, 4)
        serial = hcube_route(query, db, grid, routing_threads=None)
        threaded = hcube_route(query, db, grid, routing_threads=4)
        assert serial.stats == threaded.stats
        assert serial.worker_loads == threaded.worker_loads
        for a_serial, a_threaded in zip(serial.atom_rows,
                                        threaded.atom_rows):
            for r_serial, r_threaded in zip(a_serial, a_threaded):
                np.testing.assert_array_equal(r_serial, r_threaded)

    def test_itemsize_respected_in_bytes_accounting(self):
        """Satellite: bytes_copied uses the relation's real dtype width,
        not a hardcoded 8 bytes/element."""
        query = paper_query("Q1")
        rng = np.random.default_rng(5)
        edges64 = rng.integers(0, 30, size=(200, 2))

        class StubRel:
            def __init__(self, name, data):
                self.name, self.data, self.arity = name, data, 2

        class StubDB:
            def __init__(self, dtype):
                self.dtype = dtype

            def __getitem__(self, name):
                return StubRel(name, edges64.astype(self.dtype))

        grid = HypercubeGrid(query, {a: 2 for a in query.attributes}, 4)
        wide = hcube_route(query, StubDB(np.int64), grid)
        narrow = hcube_route(query, StubDB(np.int32), grid)
        assert wide.stats.tuple_copies == narrow.stats.tuple_copies
        assert wide.stats.bytes_copied == 2 * narrow.stats.bytes_copied
        assert narrow.stats.bytes_copied \
            == narrow.stats.tuple_copies * 2 * 4


# -- engine parity: streamed ≡ drained-first -----------------------------------

class _DrainFirst(ExecutorView):
    """A view that mints every task before dispatching any of them."""

    def submit_tasks(self, fn, tasks):
        return self.base.submit_tasks(fn, list(tasks))


#: data_plane keys that must be identical between the two dispatch
#: orders (fetch counters are excluded: worker-side tcp fetch caching is
#: per-process and timing-dependent under streaming).
_PLANE_KEYS = ("published_blocks", "published_bytes", "shipped_refs",
               "shipped_bytes", "transport")


class TestPipelineParity:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("query_name", ["Q1", "Q9"])
    def test_all_engines_identical_to_barrier(self, query_name,
                                              transport):
        """Counts, level_tuples, modeled costs and data-plane totals do
        not depend on whether tasks are dispatched as they are minted or
        only after the whole stream is drained, for all six engines."""
        query, db = graph_case(query_name, seed=11)
        truth = leapfrog_join(query, db).count
        cluster = Cluster(num_workers=3)
        outcomes = {}
        with create_executor("threads", 2) as pool:
            for view in (ExecutorView, _DrainFirst):
                ex = view(pool, transport=transport)
                for engine in engine_lineup():
                    result = run_engine_safely(engine, query, db,
                                               cluster, executor=ex)
                    assert result.ok, (engine.name, transport, view,
                                       result.failure)
                    outcomes[(engine.name, view)] = result
        for engine in engine_lineup():
            drained = outcomes[(engine.name, _DrainFirst)]
            streamed = outcomes[(engine.name, ExecutorView)]
            assert streamed.count == drained.count == truth, engine.name
            assert streamed.breakdown.total == pytest.approx(
                drained.breakdown.total), engine.name
            if "level_tuples" in drained.extra:
                assert streamed.extra["level_tuples"] \
                    == drained.extra["level_tuples"], engine.name
            for key in _PLANE_KEYS:
                assert streamed.data_plane[key] == drained.data_plane[key], \
                    (engine.name, transport, key)

    def test_cache_hit_stats_match_barrier(self):
        query, db = graph_case("Q1", seed=13)
        cluster = Cluster(num_workers=2)
        with create_executor("serial", 2) as base:
            streamed, drained = (
                HCubeJCache().run(query, db, cluster,
                                  executor=view(base, transport="shm"))
                for view in (ExecutorView, _DrainFirst))
        assert streamed.count == drained.count
        assert streamed.extra["cache_hits"] == drained.extra["cache_hits"]
        assert streamed.extra["cache_misses"] \
            == drained.extra["cache_misses"]


# -- one execution path: default run ≡ parent's inline ≡ every backend ---------

#: What the parent commit's *inline* path (``executor=None``, before it
#: was deleted) produced on ``graph_case(query, seed=11)`` with 3
#: workers: (count, breakdown.total, level_tuples, leapfrog_work,
#: cache_hits, cache_misses); None where the engine reports no such key.
_PARENT_INLINE = {
    ("Q1", "HCubeJ"): (188, 0.0143685, [68, 136, 188], 2479, None, None),
    ("Q1", "HCubeJ+Cache"): (188, 0.0143685, [68, 136, 188], 2479, 0, 207),
    ("Q1", "BigJoin"): (188, 0.009444066666666666, [25, 136, 188],
                        None, None, None),
    ("Q1", "SparkSQL"): (188, 0.006575300000000001, None, None, None, None),
    ("Q1", "Yannakakis"): (188, 0.003503766666666667, None, None, None,
                           None),
    ("Q1", "ADJ"): (188, 0.010051100000000002, [68, 347, 188], 3483,
                    None, None),
    ("Q9", "HCubeJ"): (864, 0.024499000000000003, [63, 136, 731, 864],
                       12715, None, None),
    ("Q9", "HCubeJ+Cache"): (864, 0.023721500000000003,
                             [63, 136, 731, 864], 8175, 225, 708),
    ("Q9", "BigJoin"): (864, 0.014307599999999998, [25, 136, 731, 864],
                        None, None, None),
    ("Q9", "SparkSQL"): (864, 0.011817066666666667, None, None, None, None),
    ("Q9", "Yannakakis"): (864, 0.0053743, None, None, None, None),
    ("Q9", "ADJ"): (864, 0.017373466666666667, [63, 343, 1652, 864],
                    18255, None, None),
}


def _fingerprint(result):
    extra = result.extra
    return (result.count, result.breakdown.total,
            extra.get("level_tuples"), extra.get("leapfrog_work"),
            extra.get("cache_hits"), extra.get("cache_misses"))


def _assert_fingerprint(result, expected, context):
    count, total, *counters = _fingerprint(result)
    assert [count, *counters] == [expected[0], *expected[2:]], context
    assert total == pytest.approx(expected[1]), context


@pytest.fixture(scope="module")
def pools():
    """One warm executor per backend, shared by the module."""
    from repro.net import WorkerAgent

    with WorkerAgent(slots=2, mode="inline") as agent, \
            create_executor("serial", 2) as serial, \
            create_executor("threads", 2) as threads, \
            create_executor("processes", 2) as processes, \
            create_executor("remote", 2, hosts=(
                f"127.0.0.1:{agent.port}",)) as remote:
        yield serial, threads, processes, remote


class TestOneExecutionPath:
    @pytest.mark.parametrize("engine_index", range(6),
                             ids=[e.name for e in engine_lineup()])
    @pytest.mark.parametrize("query_name", ["Q1", "Q9"])
    def test_default_run_matches_every_backend(self, query_name,
                                               engine_index, pools):
        """``engine.run(q, db, cluster)`` reproduces the parent commit's
        inline numbers, and so does every backend x transport."""
        query, db = graph_case(query_name, seed=11)
        cluster = Cluster(num_workers=3)
        engine = engine_lineup()[engine_index]
        default = engine.run(query, db, cluster)
        _assert_fingerprint(default,
                            _PARENT_INLINE[(query_name, engine.name)],
                            "default")
        assert default.telemetry.backend == "serial"
        assert default.data_plane["transport"] == "pickle"
        for pool in pools:
            for transport in TRANSPORTS:
                result = engine.run(query, db, cluster,
                                    executor=ExecutorView(
                                        pool, transport=transport))
                _assert_fingerprint(result, _fingerprint(default),
                                    (pool.name, transport))
                assert result.telemetry.backend == pool.name
                assert result.data_plane["transport"] == transport


class TestRoutedEpoch:
    """The one route → mint → run sequence and its one partitioner."""

    @pytest.mark.parametrize("query_name", ["Q1", "Q9"])
    def test_counters_match_parent_one_round_internals(self, query_name):
        """``routed_epoch`` over the optimized-share grid merges to the
        numbers the parent's ``one_round_execute`` body produced."""
        from repro.distributed import optimize_shares
        from repro.engines.one_round import routed_epoch
        from repro.runtime import RuntimeTelemetry

        query, db = graph_case(query_name, seed=11)
        sizes = {a.relation: len(db[a.relation]) for a in query.atoms}
        grid = HypercubeGrid(query, optimize_shares(query, sizes, 3), 3)
        order = HCubeJ().run(query, db, Cluster(num_workers=3)).extra["order"]
        telemetry = RuntimeTelemetry(backend="serial", num_workers=3)
        with SerialExecutor(3) as ex:
            routing, merged = routed_epoch(query, db, grid, order, ex,
                                           telemetry, impl="push")
        count, _, level_tuples, work, _, _ = \
            _PARENT_INLINE[(query_name, "HCubeJ")]
        assert (merged.count, merged.level_tuples, merged.total_work) \
            == (count, level_tuples, work)
        assert merged.tasks == 3 and merged.rows == []
        assert routing.stats.tuple_copies >= sum(sizes.values())
        assert set(telemetry.phase_seconds) \
            == {"shuffle", "publish", "local_join"}

    @pytest.mark.parametrize("backend,transport", [("serial", "pickle"),
                                                   ("processes", "shm")])
    def test_sparksql_two_attribute_key_equals_natural_join(self, backend,
                                                            transport):
        """A keyed step co-partitions on the *first* join attribute only;
        matching on the rest of the key is the binary kernel's job."""
        from repro.data.relation import lexsorted_rows
        from repro.runtime import RuntimeTelemetry

        rng = np.random.default_rng(17)
        left = Relation("L", ("a", "b", "c"),
                        rng.integers(0, 6, size=(120, 3)))
        right = Relation("R", ("b", "d", "a"),
                         rng.integers(0, 6, size=(120, 3)))
        common = left.common_attributes(right)
        assert len(common) == 2
        expected = left.natural_join(right)
        cluster = Cluster(num_workers=3)
        with create_executor(backend, 2, transport=transport) as ex:
            telemetry = RuntimeTelemetry(backend=ex.name, num_workers=3)
            data_plane = {}
            out = SparkSQLJoin._partitioned_join(
                left, right, common, cluster, ex, telemetry, data_plane)
            # The step's epoch is torn down before the next one starts.
            assert getattr(ex.transport, "active_segments", ()) == ()
        assert out.attributes == expected.attributes
        assert len(expected) > 0
        assert np.array_equal(lexsorted_rows(out.data.copy()),
                              lexsorted_rows(expected.data.copy()))
        # One task per worker, empty slices included.
        assert telemetry.tasks_executed == 3
        assert data_plane["shipped_refs"] == 6

    def test_sparksql_step_with_an_empty_side_yields_an_empty_relation(self):
        """Every worker gets a task, empty slices included; the step's
        output keeps the joined schema."""
        from repro.runtime import RuntimeTelemetry

        left = Relation("L", ("a", "b"), [(1, 2), (3, 4)])
        right = Relation("R", ("b", "c"), np.empty((0, 2), dtype=np.int64))
        with SerialExecutor(2) as ex:
            telemetry = RuntimeTelemetry(backend=ex.name, num_workers=2)
            out = SparkSQLJoin._partitioned_join(
                left, right, ("b",), Cluster(num_workers=2), ex, telemetry,
                {})
        assert out.attributes == ("a", "b", "c")
        assert out.data.shape == (0, 3)
        assert telemetry.tasks_executed == 2

    def test_materializing_routed_tasks_survive_a_spawned_pool(self):
        import multiprocessing

        from repro.runtime import execute_worker_task

        query, db, routing = _routing("Q1", workers=2, seed=5)
        tasks = list(iter_routed_tasks(routing, db, query.attributes,
                                       kernel="binary", materialize=True))
        assert all(t.materialize and t.kernel == "binary" for t in tasks)
        inline = [execute_worker_task(t) for t in tasks]
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            spawned = pool.map(execute_worker_task, tasks)
        truth = leapfrog_join(query, db)
        assert sum(r.count for r in spawned) == truth.count > 0
        for here, there in zip(inline, spawned):
            assert there.ok and there.rows.shape == (there.count, 3)
            assert np.array_equal(here.rows, there.rows)


# ADJ at the parent of the frontier-Leapfrog change (sampler looping one
# recursive join per sample): the batched sampler must hand Algorithm 2
# the same estimates, hence the same plan and the same modeled seconds.
_PARENT_ADJ = {
    "Q5": dict(
        plan="plan[Q5]: traversal=(2, 1, 0), precompute=R1_R5_R6, R2_R3, "
             "ord=b<d<e<c<a",
        order=("b", "d", "e", "c", "a"), precomputed=("R1_R5_R6", "R2_R3"),
        count=309, level_tuples=[25, 100, 91, 187, 309], leapfrog_work=2705,
        explored_configurations=10,
        breakdown=(0.003986333333333333, 0.0006996666666666667,
                   0.0121423, 0.0005600000000000001)),
    "Q9": dict(
        plan="plan[Q9]: traversal=(0,), precompute=(none), ord=a<b<c<d",
        order=("a", "b", "c", "d"), precomputed=(),
        count=864, level_tuples=[63, 343, 1652, 864], leapfrog_work=18255,
        explored_configurations=2,
        breakdown=(0.0016836666666666666, 0.0, 0.0121088,
                   0.0035810000000000004)),
}


class TestAdjPlanUnchanged:
    @pytest.mark.parametrize("query_name", ["Q5", "Q9"])
    def test_adj_reports_the_parent_plan_and_ledger(self, query_name):
        query, db = graph_case(query_name, seed=11)
        result = ADJ(num_samples=10).run(query, db, Cluster(num_workers=3))
        expected = dict(_PARENT_ADJ[query_name])
        breakdown = expected.pop("breakdown")
        assert result.count == expected.pop("count")
        assert {k: result.extra[k] for k in expected} == expected
        b = result.breakdown
        assert (b.optimization, b.precompute, b.communication,
                b.computation) == pytest.approx(breakdown)


#: The parent commit's priced ledger, exactly, on ``graph_case(query,
#: seed=11)`` with 3 workers: ((optimization, precompute, communication,
#: computation), shuffled_tuples).  Pricing moved behind one function;
#: every float must survive the move bit for bit.
_PARENT_PHASES = {
    ("Q1", "HCubeJ"): ((1.05e-05, 0.0, 0.0136, 0.000758), 680),
    ("Q1", "HCubeJ+Cache"): ((1.05e-05, 0.0, 0.0136, 0.000758), 680),
    ("Q1", "BigJoin"): ((4.5e-06, 0.0, 0.0090324, 0.0004071666666666667), 162),
    ("Q1", "SparkSQL"): ((4.5e-06, 0.0, 0.0062278, 0.000343), 1139),
    ("Q1", "Yannakakis"): ((5e-07, 0.0004719333333333334, 0.003, 3.1333333333333334e-05), 0),
    ("Q1", "ADJ"): ((0.000311, 0.0, 0.009068000000000001, 0.0006720999999999999), 680),
    ("Q9", "HCubeJ"): ((1.8e-05, 0.0, 0.02176, 0.002721), 1088),
    ("Q9", "HCubeJ+Cache"): ((1.8e-05, 0.0, 0.02176, 0.0019435), 1088),
    ("Q9", "BigJoin"): ((8e-06, 0.0, 0.0121786, 0.002121), 893),
    ("Q9", "SparkSQL"): ((8e-06, 0.0, 0.010033400000000001, 0.0017756666666666667), 5167),
    ("Q9", "Yannakakis"): ((5e-07, 0.0022298, 0.003, 0.000144), 0),
    ("Q9", "ADJ"): ((0.0016836666666666666, 0.0, 0.0121088, 0.0035810000000000004), 1088),
}

#: ADJ's ``plan.estimated_cost`` for ``TestAdjPlanUnchanged``'s cases.
_PARENT_ADJ_ESTIMATED_COST = {"Q5": 0.0005875189054726367,
                              "Q9": 0.00011115065543071161}


class TestPhasesPinned:
    @pytest.mark.parametrize("engine_index", range(6),
                             ids=[e.name for e in engine_lineup()])
    @pytest.mark.parametrize("query_name", ["Q1", "Q9"])
    def test_every_phase_and_shuffle_equal_the_parent(self, query_name,
                                                      engine_index):
        query, db = graph_case(query_name, seed=11)
        engine = engine_lineup()[engine_index]
        result = engine.run(query, db, Cluster(num_workers=3))
        b = result.breakdown
        assert ((b.optimization, b.precompute, b.communication,
                 b.computation), result.shuffled_tuples) \
            == _PARENT_PHASES[(query_name, engine.name)]

    @pytest.mark.parametrize("query_name", ["Q5", "Q9"])
    def test_adj_estimated_cost_equals_the_parent(self, query_name):
        query, db = graph_case(query_name, seed=11)
        result = ADJ(num_samples=10).run(query, db, Cluster(num_workers=3))
        assert result.extra["estimated_cost"] \
            == _PARENT_ADJ_ESTIMATED_COST[query_name]


class TestCrashMidStream:
    def test_segments_reclaimed_after_midstream_crash(self, monkeypatch):
        """A crash while tasks are still streaming cancels pending work
        and the engine's teardown still reclaims every shm segment."""
        import repro.runtime.scheduler as scheduler_mod

        def crashing_task(task):
            raise RuntimeError("worker died mid-stream")

        monkeypatch.setattr(scheduler_mod, "execute_worker_task",
                            crashing_task)
        query, db = graph_case("Q1", seed=8)
        transport = SharedMemoryTransport()
        with ThreadExecutor(2, transport=transport) as ex:
            result = run_engine_safely(HCubeJ(), query, db,
                                       Cluster(num_workers=2),
                                       executor=ex)
        assert result.failure == "crash"
        assert transport.active_segments == ()
        plane = result.data_plane
        assert plane is not None and plane["published_bytes"] > 0
        assert plane["freed_blocks"] == plane["published_blocks"] > 0

    def test_tcp_store_stopped_after_midstream_crash(self, monkeypatch):
        import repro.runtime.scheduler as scheduler_mod
        from repro.net.transport import TcpTransport

        def crashing_task(task):
            raise RuntimeError("worker died mid-stream")

        monkeypatch.setattr(scheduler_mod, "execute_worker_task",
                            crashing_task)
        query, db = graph_case("Q1", seed=9)
        transport = TcpTransport()
        with ThreadExecutor(2, transport=transport) as ex:
            result = run_engine_safely(HCubeJ(), query, db,
                                       Cluster(num_workers=2),
                                       executor=ex)
        assert result.failure == "crash"
        # The owned block store is gone — no listening port left behind.
        assert transport.store_address is None
        plane = result.data_plane
        assert plane is not None
        assert plane["freed_blocks"] == plane["published_blocks"] > 0


# -- config / CLI surface -----------------------------------------------------

class TestPipelineConfig:
    def test_env_default(self, monkeypatch):
        """``REPRO_PIPELINE`` is no longer read: even a value the old
        parser rejected changes nothing, and the catalog drops it."""
        from repro.api.config import ENV_CATALOG

        assert "REPRO_PIPELINE" not in ENV_CATALOG
        monkeypatch.setenv("REPRO_PIPELINE", "sideways")
        query, db = graph_case("Q1", seed=7)
        with create_executor("threads", 2) as ex:
            result = HCubeJ().run(query, db, Cluster(num_workers=2),
                                  executor=ex)
        assert result.count == leapfrog_join(query, db).count

    def test_run_config_field(self):
        """The knob is gone from every constructor that carried it."""
        from repro.api import JoinSession, RunConfig

        assert "pipeline" not in RunConfig.__dataclass_fields__
        with pytest.raises(TypeError):
            RunConfig(pipeline=True)
        with pytest.raises(TypeError):
            create_executor("serial", pipeline=True)
        with pytest.raises(TypeError):
            JoinSession(workers=2, pipeline=False)
        assert not hasattr(SerialExecutor(1), "pipeline")

    def test_bad_max_workers_rejected(self):
        """Satellite: silent coercion of max_workers<1 is gone."""
        for bad in (0, -3):
            with pytest.raises(ConfigError, match="max_workers"):
                SerialExecutor(bad)
            with pytest.raises(ConfigError, match="max_workers"):
                ThreadExecutor(bad)
        assert SerialExecutor(None).max_workers == 1

    def test_cli_pipeline_flag(self, capsys):
        """``--pipeline`` is rejected and the run header drops the row."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "wb", "Q1", "--pipeline", "off"])
        capsys.readouterr()
        assert main(["run", "wb", "Q1", "--engine", "hcubej",
                     "--scale", "1e-5", "--samples", "10",
                     "--backend", "threads"]) == 0
        assert "pipeline" not in capsys.readouterr().out
