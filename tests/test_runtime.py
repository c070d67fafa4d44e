"""Tests for repro.runtime: executors, scheduler, worker tasks, failures.

Process-backend tests use small pools and small inputs; the crash tests
assert that a dying worker task surfaces as a clean engine failure
(:class:`WorkerCrashed` / ``failure="crash"``) rather than a hang.
"""

import os

import numpy as np
import pytest

from repro.data import Database, Relation
from repro.data.relation import sorted_set_rows
from repro.distributed import Cluster, HypercubeGrid, hcube_route
from repro.distributed.hcube import localized_query
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
from repro.query import Atom, JoinQuery, paper_query
from repro.runtime import (
    Executor,
    ExecutorView,
    ProcessExecutor,
    RuntimeTelemetry,
    SerialExecutor,
    ThreadExecutor,
    WorkerTask,
    WorkerTaskResult,
    available_parallelism,
    create_executor,
    execute_worker_task,
    executor_for,
    iter_routed_tasks,
    merge_task_results,
    resolve_array_ref,
    run_streamed_tasks,
)
from repro.wcoj import leapfrog_join

BACKENDS = ("serial", "threads", "processes")
TRANSPORTS = ("pickle", "shm")


def graph_case(query_name, seed=0, n=300, dom=40):
    query = paper_query(query_name)
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    db = Database(Relation(a.relation, ("x", "y"), edges)
                  for a in query.atoms)
    return query, db


# -- top-level task functions (picklable for process backends) ----------------

def _ok_task(x):
    return x * 2


def _raise_task(x):
    raise RuntimeError(f"boom on {x}")


def _exit_task(x):
    os._exit(13)  # simulates a worker process dying mid-task


def _repro_error_task(x):
    # A ReproError whose args survive pickling out of a pool child.
    raise ConfigError(f"recoverable on {x}")


def _slow_or_boom(x):
    if x == "boom":
        raise RuntimeError("boom fast")
    import time
    time.sleep(5)
    return x


# -- executors ----------------------------------------------------------------

class TestExecutors:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_preserves_order(self, backend):
        with create_executor(backend, 2) as ex:
            assert ex.map_tasks(_ok_task, [1, 2, 3]) == [2, 4, 6]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_task_exception_becomes_worker_crashed(self, backend):
        with create_executor(backend, 2) as ex:
            with pytest.raises(WorkerCrashed, match="boom"):
                ex.map_tasks(_raise_task, [7])

    @pytest.mark.parametrize("backend", (*BACKENDS, "remote"))
    def test_map_tasks_is_one_definition_with_one_contract(self, backend):
        """No backend overrides ``map_tasks``: it is ``submit_tasks``
        drained, so the failure contract is the dispatcher's — a crash
        becomes WorkerCrashed, a ReproError passes through and leaves
        the pool usable."""
        # ``local`` slots keep the remote backend in-process here; agent
        # round-trips are tests/test_net.py's subject.
        kwargs = {"hosts": ("local:2",)} if backend == "remote" else {}
        with create_executor(backend, 2, **kwargs) as ex:
            assert type(ex).map_tasks is Executor.map_tasks
            assert ExecutorView.map_tasks is Executor.map_tasks
            with pytest.raises(ConfigError, match="recoverable"):
                ex.map_tasks(_repro_error_task, [1, 2])
            assert ex.map_tasks(_ok_task, iter([3])) == [6]
            with pytest.raises(WorkerCrashed, match="boom"):
                ex.map_tasks(_raise_task, [7])
            assert ex.map_tasks(_ok_task, [4]) == [8]

    def test_failure_reported_before_slow_healthy_tasks(self):
        """The crashed task is named, without waiting out healthy ones."""
        import time
        start = time.perf_counter()
        with ThreadExecutor(2) as ex:
            with pytest.raises(WorkerCrashed, match="boom fast") as info:
                ex.map_tasks(_slow_or_boom, [0, "boom"])
        assert info.value.worker == 1
        assert time.perf_counter() - start < 5.0

    def test_dead_process_is_clean_failure_not_hang(self):
        with ProcessExecutor(2) as ex:
            with pytest.raises(WorkerCrashed):
                ex.map_tasks(_exit_task, [1])

    def test_empty_task_list(self):
        with create_executor("threads", 2) as ex:
            assert ex.map_tasks(_ok_task, []) == []

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            create_executor("quantum")

    def test_executor_for_cluster_hint(self):
        assert executor_for(Cluster(num_workers=2)).name == "serial"
        ex = executor_for(Cluster(num_workers=2, runtime="threads"))
        assert ex.name == "threads"
        # Pool backends are capped at the CPUs the process may use —
        # surplus threads are pure GIL contention.
        assert ex.max_workers == min(2, available_parallelism())
        ex = executor_for(Cluster(num_workers=64, runtime="threads"))
        assert ex.max_workers <= max(available_parallelism(), 1)
        ex = executor_for(Cluster(num_workers=64, runtime="processes"))
        assert ex.max_workers <= max(available_parallelism(), 1)

    def test_reuse_after_map(self):
        with create_executor("threads", 2) as ex:
            assert ex.map_tasks(_ok_task, [1]) == [2]
            assert ex.map_tasks(_ok_task, [2]) == [4]


# -- scheduler + worker tasks -------------------------------------------------

class TestScheduler:
    def _tasks(self, query_name="Q1", budget=None, workers=4):
        query, db = graph_case(query_name)
        shares = {a: 1 for a in query.attributes}
        shares[query.attributes[0]] = 2
        shares[query.attributes[1]] = 2
        grid = HypercubeGrid(query, shares, workers)
        routing = hcube_route(query, db, grid)
        return (list(iter_routed_tasks(routing, db, query.attributes,
                                       budget=budget)),
                leapfrog_join(query, db).count, query)

    def test_tasks_cover_all_cubes(self):
        tasks, _, query = self._tasks()
        assert sum(len(t.cubes) for t in tasks) == 4
        assert sorted({t.worker for t in tasks}) == sorted(
            t.worker for t in tasks)

    def test_worker_evaluation_reproduces_global_count(self):
        tasks, truth, query = self._tasks()
        results = [execute_worker_task(t) for t in tasks]
        merged = merge_task_results(results, query.num_attributes)
        assert merged.count == truth
        assert merged.level_tuples[-1] == truth

    def test_merged_levels_match_global_leapfrog(self):
        query, db = graph_case("Q9")
        grid = HypercubeGrid(query, {a: 1 for a in query.attributes[:-1]}
                             | {query.attributes[-1]: 3}, 3)
        tasks = list(iter_routed_tasks(hcube_route(query, db, grid), db,
                                       query.attributes))
        merged = merge_task_results(
            [execute_worker_task(t) for t in tasks], query.num_attributes)
        assert merged.count == leapfrog_join(query, db).count

    def test_budget_exceeded_raised_from_tasks(self):
        tasks, _, query = self._tasks(budget=5)
        results = [execute_worker_task(t) for t in tasks]
        assert any(r.failure == "budget" for r in results)
        with pytest.raises(BudgetExceeded):
            merge_task_results(results, query.num_attributes, budget=5)

    def test_crashed_task_raises_worker_crashed(self):
        tasks, _, query = self._tasks()
        # Corrupt one payload: arity mismatch makes the worker fail.
        tasks[0].cubes[0] = tuple(
            resolve_array_ref(ref)[:, :1] for ref in tasks[0].cubes[0])
        results = [execute_worker_task(t) for t in tasks]
        assert any(r.failure == "crash" for r in results)
        with pytest.raises(WorkerCrashed):
            merge_task_results(results, query.num_attributes)

    def test_task_result_records_phase_seconds(self):
        tasks, _, _ = self._tasks()
        res = execute_worker_task(tasks[0])
        assert res.ok
        assert res.total_seconds >= 0.0
        assert res.build_seconds >= 0.0 and res.join_seconds >= 0.0

    def test_run_worker_tasks_fills_telemetry(self):
        tasks, truth, query = self._tasks()
        telemetry = RuntimeTelemetry(backend="serial", num_workers=4)
        with SerialExecutor(4) as ex:
            results = run_streamed_tasks(ex, tasks, telemetry=telemetry)
        merged = merge_task_results(results, query.num_attributes)
        assert merged.count == truth
        assert "local_join" in telemetry.phase_seconds
        assert telemetry.tasks_executed == len(tasks)
        assert telemetry.straggler_seconds <= telemetry.worker_cpu_seconds


# -- engines across backends --------------------------------------------------

class TestEngineBackends:
    @pytest.mark.parametrize("query_name", ["Q1", "Q9"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_match_serial_counts(self, query_name, backend):
        """Triangle and 4-cycle counts are identical on every backend."""
        query, db = graph_case(query_name, seed=2)
        truth = leapfrog_join(query, db).count
        cluster = Cluster(num_workers=3)
        with create_executor(backend, 3) as ex:
            for engine in (HCubeJ(), BigJoin(), SparkSQLJoin()):
                result = run_engine_safely(engine, query, db, cluster,
                                           executor=ex)
                assert result.ok, (engine.name, result.failure)
                assert result.count == truth, (engine.name, backend)

    def test_runtime_path_matches_inline_modeled_costs(self):
        query, db = graph_case("Q1", seed=3)
        cluster = Cluster(num_workers=4)
        inline = HCubeJ().run(query, db, cluster)
        with SerialExecutor(4) as ex:
            routed = HCubeJ().run(query, db, cluster, executor=ex)
        assert routed.count == inline.count
        assert routed.breakdown.total == pytest.approx(
            inline.breakdown.total)
        assert routed.extra["level_tuples"] == inline.extra["level_tuples"]

    def test_telemetry_attached_to_every_run(self):
        query, db = graph_case("Q1", seed=4)
        cluster = Cluster(num_workers=2)
        default = HCubeJ().run(query, db, cluster)
        assert default.telemetry.backend == "serial"
        assert default.data_plane["transport"] == "pickle"
        with ThreadExecutor(2) as ex:
            result = HCubeJ().run(query, db, cluster, executor=ex)
        tel = result.telemetry
        assert tel is not None and tel.backend == "threads"
        assert "shuffle" in tel.phase_seconds
        assert "local_join" in tel.phase_seconds
        assert result.measured_seconds == pytest.approx(tel.total)

    def test_cache_engine_accepts_and_ignores_executor(self):
        query, db = graph_case("Q1", seed=5)
        cluster = Cluster(num_workers=2)
        truth = leapfrog_join(query, db).count
        with ThreadExecutor(2) as ex:
            result = HCubeJCache().run(query, db, cluster, executor=ex)
        assert result.count == truth

    def test_adj_runs_on_executor(self):
        query, db = graph_case("Q1", seed=6, n=150, dom=25)
        cluster = Cluster(num_workers=2)
        truth = leapfrog_join(query, db).count
        with ThreadExecutor(2) as ex:
            result = ADJ(num_samples=20).run(query, db, cluster,
                                             executor=ex)
        assert result.count == truth
        assert result.telemetry is not None

    def test_work_budget_fails_cleanly_on_executor(self):
        query, db = graph_case("Q1", seed=7)
        cluster = Cluster(num_workers=2)
        with ThreadExecutor(2) as ex:
            result = run_engine_safely(HCubeJ(work_budget=3), query, db,
                                       cluster, executor=ex)
        assert result.failure == "budget"

    @pytest.mark.parametrize("query_name", ["Q1", "Q9"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_all_engines_agree_across_transports(self, query_name,
                                                 transport):
        """Counts and modeled costs are transport-independent (all six
        engines, triangle and 4-cycle)."""
        query, db = graph_case(query_name, seed=11, n=200, dom=30)
        truth = leapfrog_join(query, db).count
        cluster = Cluster(num_workers=3)
        inline_totals = {}
        for engine in (HCubeJ(), HCubeJCache(), BigJoin(), SparkSQLJoin(),
                       YannakakisJoin(), ADJ(num_samples=15)):
            inline = run_engine_safely(engine, query, db, cluster)
            inline_totals[engine.name] = inline.breakdown.total
            assert inline.count == truth
        with create_executor("serial", 3, transport=transport) as ex:
            for engine in (HCubeJ(), HCubeJCache(), BigJoin(),
                           SparkSQLJoin(), YannakakisJoin(),
                           ADJ(num_samples=15)):
                result = run_engine_safely(engine, query, db, cluster,
                                           executor=ex)
                assert result.ok, (engine.name, transport, result.failure)
                assert result.count == truth, (engine.name, transport)
                assert result.breakdown.total == pytest.approx(
                    inline_totals[engine.name]), (engine.name, transport)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_yannakakis_and_cache_run_end_to_end(self, backend):
        """The two formerly coordinator-only engines now use the
        executor; counts are identical on every backend."""
        query, db = graph_case("Q9", seed=12, n=200, dom=30)
        truth = leapfrog_join(query, db).count
        cluster = Cluster(num_workers=3)
        with create_executor(backend, 3, transport="shm") as ex:
            for engine in (YannakakisJoin(), HCubeJCache()):
                result = run_engine_safely(engine, query, db, cluster,
                                           executor=ex)
                assert result.ok, (engine.name, backend, result.failure)
                assert result.count == truth, (engine.name, backend)
                assert result.telemetry is not None
                # Physical movement is reported and worker attribution
                # stays within the cluster even with more tasks/bags.
                plane = result.extra["data_plane"]
                assert plane["transport"] == "shm"
                assert plane["shipped_bytes"] > 0
                assert all(0 <= w < 3 for w in
                           result.telemetry.worker_seconds)

    def test_cache_hit_stats_match_inline(self):
        """Worker-local caches reproduce the inline hit/miss counters."""
        query, db = graph_case("Q1", seed=13)
        cluster = Cluster(num_workers=2)
        inline = HCubeJCache().run(query, db, cluster)
        with create_executor("serial", 2, transport="shm") as ex:
            routed = HCubeJCache().run(query, db, cluster, executor=ex)
        assert routed.count == inline.count
        assert routed.extra["cache_hits"] == inline.extra["cache_hits"]
        assert routed.extra["cache_misses"] == \
            inline.extra["cache_misses"]
        assert inline.extra["cache_hits"] + \
            inline.extra["cache_misses"] > 0

    def test_shm_ships_fewer_coordinator_bytes(self):
        """Regression: under shm, the data plane's ``bytes_copied`` is
        descriptor bytes (rows + header), not full array bytes."""
        query, db = graph_case("Q1", seed=14)
        cluster = Cluster(num_workers=3)
        planes = {}
        for transport in TRANSPORTS:
            with create_executor("serial", 3, transport=transport) as ex:
                result = HCubeJ().run(query, db, cluster, executor=ex)
            planes[transport] = result.extra["data_plane"]
        assert planes["shm"]["transport"] == "shm"
        assert planes["shm"]["shipped_refs"] == \
            planes["pickle"]["shipped_refs"]
        assert 0 < planes["shm"]["shipped_bytes"] < \
            planes["pickle"]["shipped_bytes"]
        # Sources are staged once under shm, never under pickle.
        assert planes["pickle"]["published_bytes"] == 0
        assert planes["shm"]["published_bytes"] == sum(
            db[a.relation].nbytes for a in query.atoms)

    def test_crashed_worker_is_clean_engine_failure(self, monkeypatch):
        """A worker that dies mid-run must yield failure='crash'."""
        import repro.runtime.scheduler as scheduler_mod

        def crashing_run(executor, tasks, **kwargs):
            raise WorkerCrashed(0, "simulated death")

        monkeypatch.setattr(scheduler_mod, "run_streamed_tasks",
                            crashing_run)
        query, db = graph_case("Q1", seed=8)
        cluster = Cluster(num_workers=2)
        with SerialExecutor(2) as ex:
            result = run_engine_safely(HCubeJ(), query, db, cluster,
                                       executor=ex)
        assert result.failure == "crash"
        assert "simulated death" in result.extra["crash_reason"]


# -- cluster / config satellites ----------------------------------------------

class TestClusterRuntime:
    def test_with_workers_keeps_new_fields(self):
        c = Cluster(num_workers=4, memory_tuples_per_worker=123.0,
                    runtime="threads")
        c2 = c.with_workers(9)
        assert c2.num_workers == 9
        assert c2.runtime == "threads"
        assert c2.memory_tuples_per_worker == 123.0
        assert c2.params is c.params

    def test_with_runtime(self):
        c = Cluster(num_workers=4).with_runtime("processes")
        assert c.runtime == "processes" and c.num_workers == 4

    def test_bad_runtime_rejected(self):
        with pytest.raises(ConfigError):
            Cluster(num_workers=2, runtime="teleport")

    def test_default_workers_non_integer_is_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "eight")
        with pytest.raises(ConfigError, match="REPRO_WORKERS"):
            Cluster()
        # ConfigError doubles as ValueError for legacy callers.
        with pytest.raises(ValueError):
            Cluster()


class TestTelemetry:
    def test_measure_context(self):
        tel = RuntimeTelemetry(backend="serial", num_workers=1)
        with tel.measure("phase_a"):
            pass
        with tel.measure("phase_a"):
            pass
        assert tel.phase_seconds["phase_a"] >= 0.0
        assert tel.total == pytest.approx(sum(tel.phase_seconds.values()))

    def test_as_row_and_str(self):
        tel = RuntimeTelemetry(backend="threads", num_workers=2)
        tel.record("shuffle", 0.5)
        row = tel.as_row()
        assert row["measured_shuffle"] == 0.5
        assert row["measured_total"] == 0.5
        assert "threads" in str(tel)

    def test_modeled_vs_measured(self):
        from repro.distributed import CostBreakdown
        from repro.runtime import modeled_vs_measured
        tel = RuntimeTelemetry(backend="processes", num_workers=2)
        tel.record("local_join", 1.0)
        rec = modeled_vs_measured(CostBreakdown(computation=2.0), tel)
        assert rec["modeled_seconds"] == 2.0
        assert rec["measured_seconds"] == 1.0
        rec = modeled_vs_measured(CostBreakdown(), None)
        assert rec["measured_seconds"] is None


class TestWorkerTaskPayload:
    def test_num_tuples(self):
        query, db = graph_case("Q1")
        task = WorkerTask(worker=0, query=query, order=query.attributes,
                          cubes=[tuple(db[a.relation].data
                                       for a in query.atoms)])
        assert task.num_tuples == sum(
            len(db[a.relation]) for a in query.atoms)

    def test_worker_task_roundtrips_through_pickle(self):
        import pickle
        query, db = graph_case("Q1", n=50)
        task = WorkerTask(worker=1, query=query, order=query.attributes,
                          cubes=[tuple(db[a.relation].data
                                       for a in query.atoms)])
        clone = pickle.loads(pickle.dumps(task))
        res = execute_worker_task(clone)
        assert res.ok and res.count == leapfrog_join(query, db).count


# -- one task shape: cubes, bags and partition pairs ---------------------------

def _crashed_result(task):
    return WorkerTaskResult(worker=task.worker, failure="crash",
                            failure_info=("Boom: simulated", ""))


class TestOneTaskShape:
    """A GHD bag and a SparkSQL partition pair are ``WorkerTask``s too."""

    def _bag(self, kernel, **fields):
        """Q1 as one bag: a single group of whole arrays, materialized
        in a non-default attribute order."""
        query, db = graph_case("Q1", seed=21, n=120, dom=20)
        task = WorkerTask(
            worker=1, query=localized_query(query),
            order=query.attributes[::-1],
            cubes=[tuple(db[a.relation].data for a in query.atoms)],
            kernel=kernel, materialize=True, **fields)
        return query, db, task

    def test_bag_task_rows_equal_materializing_leapfrog(self):
        query, db, task = self._bag("wcoj")
        truth = leapfrog_join(query, db, task.order, materialize=True)
        assert truth.count > 0
        res = execute_worker_task(task)
        assert res.ok and res.cubes_run == 1
        assert res.count == truth.count
        assert np.array_equal(res.rows, truth.relation.data)
        assert res.intersection_work == truth.stats.intersection_work
        assert res.build_seconds > 0.0      # reported by the kernel
        binary = execute_worker_task(self._bag("binary")[2])
        assert binary.ok and binary.count == truth.count
        assert np.array_equal(sorted_set_rows(binary.rows),
                              truth.relation.data)
        assert binary.build_seconds > 0.0   # its tries, built cold

    def test_count_only_task_ships_no_rows(self):
        _, _, task = self._bag("wcoj")
        task.materialize = False
        res = execute_worker_task(task)
        assert res.ok and res.count > 0 and res.rows is None

    def test_pair_task_rows_equal_natural_join(self):
        rng = np.random.default_rng(22)
        left = Relation("(R1#0><R2#1)", ("a", "b"),
                        rng.integers(0, 15, size=(80, 2)))
        right = Relation("R3#2", ("b", "c"),
                         rng.integers(0, 15, size=(60, 2)))
        truth = left.natural_join(right)
        task = WorkerTask(
            worker=0,
            query=JoinQuery([Atom(left.name, left.attributes),
                             Atom(right.name, right.attributes)]),
            order=truth.attributes, cubes=[(left.data, right.data)],
            kernel="binary", materialize=True)
        res = execute_worker_task(task)
        assert res.ok and res.count == len(truth) > 0
        assert Relation("out", truth.attributes, res.rows,
                        dedup=False) == truth
        merged = merge_task_results([res], len(task.order))
        assert merged.count == len(truth) and len(merged.rows) == 1

    def test_materializing_failures_are_encoded_then_typed_by_merge(self):
        _, _, over = self._bag("wcoj", budget=3)
        res = execute_worker_task(over)          # encoded, never raised
        assert res.failure == "budget" and res.rows is None
        with pytest.raises(BudgetExceeded):
            merge_task_results([res], 0)
        _, _, broken = self._bag("binary")
        broken.cubes[0] = tuple(a[:, :1] for a in broken.cubes[0])
        res = execute_worker_task(broken)
        assert res.failure == "crash" and res.rows is None
        with pytest.raises(WorkerCrashed) as exc:
            merge_task_results([res], 0)
        assert exc.value.worker == broken.worker

    @pytest.mark.parametrize("engine", [YannakakisJoin, SparkSQLJoin],
                             ids=lambda e: e.name)
    def test_engine_failures_surface_through_the_one_merge(
            self, engine, monkeypatch):
        """Q5 has more bags than the cluster has workers; the crash
        report still names a worker of the cluster."""
        import repro.runtime.scheduler as scheduler_mod

        query, db = graph_case("Q5", seed=23, n=120, dom=20)
        cluster = Cluster(num_workers=2)
        monkeypatch.setattr(scheduler_mod, "execute_worker_task",
                            _crashed_result)
        with pytest.raises(WorkerCrashed) as exc:
            engine().run(query, db, cluster)
        assert 0 <= exc.value.worker < cluster.num_workers
        assert "simulated" in exc.value.reason

    def test_yannakakis_bag_budget_is_a_clean_engine_failure(self):
        query, db = graph_case("Q9", seed=24)
        result = run_engine_safely(YannakakisJoin(work_budget=3), query,
                                   db, Cluster(num_workers=2))
        assert result.failure == "budget"

    def test_full_task_survives_pickle_and_a_spawned_pool(self):
        import multiprocessing
        import pickle

        _, _, task = self._bag(
            "wcoj", budget=10 ** 9, cache_capacity=64,
            trace={"enabled": True, "origin": "test"})
        clone = pickle.loads(pickle.dumps(task))
        for name in ("worker", "query", "order", "budget",
                     "cache_capacity", "trace", "kernel", "materialize"):
            assert getattr(clone, name) == getattr(task, name), name
        inline = execute_worker_task(clone)
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            spawned = pool.apply(execute_worker_task, (task,))
        assert inline.ok and spawned.ok
        assert spawned.count == inline.count > 0
        assert np.array_equal(spawned.rows, inline.rows)
        assert (spawned.cache_hits, spawned.cache_misses) \
            == (inline.cache_hits, inline.cache_misses)
        assert inline.cache_misses > 0
        # The trace context made the child record and ship its spans.
        names = {span["name"] for span in spawned.spans}
        assert {"worker_task", "kernel", "build_tries"} <= names
