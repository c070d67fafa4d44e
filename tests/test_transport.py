"""Tests for the pluggable data plane (repro.runtime.transport).

Covers: bit-for-bit round-trips through both transports (including empty
relations and arity-1 edge cases), descriptor-bytes accounting, segment
lifetime/cleanup rules (teardown is provable and idempotent, crash paths
included), and the REPRO_TRANSPORT environment default.
"""

import numpy as np
import pytest

from repro.data import Database, Relation
from repro.distributed import Cluster, HypercubeGrid, hcube_route
from repro.engines import HCubeJ, run_engine_safely
from repro.errors import ConfigError, WorkerCrashed
from repro.query import paper_query
from repro.runtime import (
    PickleTransport,
    SerialExecutor,
    SharedMemoryTransport,
    ThreadExecutor,
    create_executor,
    create_transport,
    execute_worker_task,
    iter_routed_tasks,
    merge_task_results,
    resolve_array_ref,
)
from repro.runtime.transport import REF_HEADER_BYTES
from repro.wcoj import leapfrog_join

TRANSPORTS = ("pickle", "shm")


def attach_fails(name: str) -> bool:
    from multiprocessing import shared_memory
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    seg.close()
    return False


class TestRoundTrip:
    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    @pytest.mark.parametrize("shape", [(7, 2), (5, 1), (0, 2), (0, 1),
                                       (1, 3)])
    def test_whole_array_bit_for_bit(self, transport_name, shape):
        rng = np.random.default_rng(0)
        arr = rng.integers(-2**40, 2**40, size=shape).astype(np.int64)
        with create_transport(transport_name) as t:
            key = t.publish("a", arr)
            out = resolve_array_ref(t.make_ref(key))
            assert out.dtype == arr.dtype
            assert np.array_equal(out, arr)

    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_row_subsets(self, transport_name):
        arr = np.arange(24, dtype=np.int64).reshape(12, 2)
        for rows in (slice(4, 4), slice(0, 1), slice(5, 11), slice(0, 12)):
            with create_transport(transport_name) as t:
                key = t.publish("a", arr)
                out = resolve_array_ref(t.make_ref(key, rows))
                assert np.array_equal(out, arr[rows])

    def test_resolved_array_survives_teardown(self):
        arr = np.arange(10, dtype=np.int64).reshape(5, 2)
        t = SharedMemoryTransport()
        ref = t.make_ref(t.publish("a", arr), slice(1, 4))
        out = resolve_array_ref(ref)
        t.teardown()
        assert np.array_equal(out, arr[1:4])  # never aliases the segment

    def test_plain_ndarray_passthrough(self):
        arr = np.ones((3, 2), dtype=np.int64)
        assert resolve_array_ref(arr) is arr


class TestAccounting:
    def test_pickle_ships_partition_bytes(self):
        arr = np.arange(40, dtype=np.int64).reshape(20, 2)
        t = PickleTransport()
        ref = t.make_ref(t.publish("a", arr), slice(0, 6))
        assert ref.payload_bytes == REF_HEADER_BYTES + 6 * 2 * 8
        assert t.stats.shipped_bytes == ref.payload_bytes
        assert t.stats.published_bytes == 0  # nothing staged out-of-band

    def test_shm_ships_descriptor_bytes(self):
        arr = np.arange(40, dtype=np.int64).reshape(20, 2)
        t = SharedMemoryTransport()
        key = t.publish("a", arr)
        ref = t.make_ref(key, slice(0, 6))
        # Descriptor: the header only — not the 6x2 matrix.
        assert ref.payload_bytes == REF_HEADER_BYTES
        assert t.stats.shipped_bytes == ref.payload_bytes
        assert t.stats.published_bytes == arr.nbytes
        assert t.stats.published_blocks == 1
        t.teardown()

    def test_publish_is_idempotent_per_key(self):
        arr = np.arange(8, dtype=np.int64).reshape(4, 2)
        t = SharedMemoryTransport()
        t.publish("a", arr)
        t.publish("a", arr)
        assert t.stats.published_blocks == 1
        assert len(t.active_segments) == 1
        t.teardown()


class TestLifetime:
    def test_teardown_unlinks_segments(self):
        arr = np.arange(8, dtype=np.int64).reshape(4, 2)
        t = SharedMemoryTransport()
        t.publish("a", arr)
        names = t.active_segments
        assert names
        t.teardown()
        assert t.active_segments == ()
        assert all(attach_fails(n) for n in names)

    def test_teardown_idempotent_and_restartable(self):
        arr = np.arange(8, dtype=np.int64).reshape(4, 2)
        t = SharedMemoryTransport()
        t.publish("a", arr)
        t.teardown()
        t.teardown()
        # A new epoch works after teardown.
        out = resolve_array_ref(t.make_ref(t.publish("a", arr)))
        assert np.array_equal(out, arr)
        t.teardown()

    def test_executor_close_tears_down_transport(self):
        t = SharedMemoryTransport()
        with SerialExecutor(2, transport=t) as ex:
            assert ex.transport is t
            t.publish("a", np.ones((3, 2), dtype=np.int64))
            assert t.active_segments
        assert t.active_segments == ()

    def test_empty_arrays_need_no_segment(self):
        t = SharedMemoryTransport()
        key = t.publish("e", np.empty((0, 2), dtype=np.int64))
        assert t.active_segments == ()
        out = resolve_array_ref(t.make_ref(key))
        assert out.shape == (0, 2)
        t.teardown()


class TestEnvDefault:
    def test_env_selects_transport(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "shm")
        assert create_transport().name == "shm"
        ex = create_executor("serial", 1)
        assert ex.transport.name == "shm"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "carrier-pigeon")
        with pytest.raises(ConfigError):
            create_transport()

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigError):
            create_transport("quantum")


class TestRoutedTasks:
    def _routing(self, query_name="Q1", workers=4):
        query = paper_query(query_name)
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 40, size=(300, 2))
        db = Database(Relation(a.relation, ("x", "y"), edges)
                      for a in query.atoms)
        shares = {a: 1 for a in query.attributes}
        shares[query.attributes[0]] = 2
        shares[query.attributes[1]] = 2
        grid = HypercubeGrid(query, shares, workers)
        return query, db, hcube_route(query, db, grid)

    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_routed_tasks_reproduce_global_count(self, transport_name):
        query, db, routing = self._routing()
        truth = leapfrog_join(query, db).count
        with create_transport(transport_name) as t:
            tasks = list(iter_routed_tasks(routing, db, query.attributes,
                                           transport=t))
            results = [execute_worker_task(task) for task in tasks]
        merged = merge_task_results(results, query.num_attributes)
        assert merged.count == truth

    def test_shm_cleanup_survives_worker_crash(self, monkeypatch):
        """Segments are released even when the run dies mid-flight."""
        import repro.runtime.scheduler as scheduler_mod

        def crashing_run(executor, tasks, **kwargs):
            raise WorkerCrashed(0, "simulated death")

        monkeypatch.setattr(scheduler_mod, "run_streamed_tasks",
                            crashing_run)
        query, db, _ = self._routing()
        t = SharedMemoryTransport()
        with ThreadExecutor(2, transport=t) as ex:
            result = run_engine_safely(HCubeJ(), query, db,
                                       Cluster(num_workers=2), executor=ex)
        assert result.failure == "crash"
        assert t.active_segments == ()
