"""The ``processes`` backend's home loop (repro.runtime.executor).

Each slot is one process and one duplex pipe: a task goes down the
pipe, its result or the exception it raised comes back, and a dead
process is EOF on the pipe.  Checked here: a raised exception keeps the
home, its heap and its resident inputs; a spawned home imports the task
path before it says it is ready; concurrent callers share the homes and
each gets its own results, in order; a home killed mid-task costs one
clean ``WorkerCrashed``.
"""

import multiprocessing
import os
import signal
import threading
import time
import types

import numpy as np
import pytest

import home_probe
from repro.data import Database, Relation
from repro.engines import HCubeJ, run_engine_safely
from repro.distributed import Cluster
from repro.errors import WorkerCrashed
from repro.query import paper_query
from repro.runtime import ProcessExecutor
from repro.wcoj import leapfrog_reference

START_METHODS = ("fork", "spawn")


def _pid(_task) -> int:
    return os.getpid()


def _echo(task):
    return task.value, os.getpid()


def _raise(task):
    raise RuntimeError(f"task on worker {task.worker} exploded")


def _sleep(task):
    time.sleep(task.value)
    return task.value


def _on(worker, value=None):
    return types.SimpleNamespace(worker=worker, value=value)


def triangle_case(seed=0, n=300, dom=40):
    query = paper_query("Q1")
    edges = np.random.default_rng(seed).integers(0, dom, size=(n, 2))
    return query, Database(Relation(a.relation, ("x", "y"), edges)
                           for a in query.atoms)


class TestRaisedIsNotCrashed:
    def test_a_raising_task_keeps_its_home_and_inputs(self):
        query, db = triangle_case(seed=1)
        with ProcessExecutor(2, transport="pickle") as ex:
            for _ in range(2):
                result = run_engine_safely(HCubeJ(order=("a", "b", "c")),
                                           query, db, Cluster(num_workers=2),
                                           executor=ex)
                assert result.ok
                assert result.count == len(leapfrog_reference(query, db))
            held = ex.residency.held(0)
            assert held
            pid = ex.map_tasks(_pid, [_on(0)])[0]
            with pytest.raises(WorkerCrashed,
                               match="RuntimeError: task on worker 0 "
                                     "exploded") as info:
                ex.map_tasks(_raise, [_on(0)])
            assert isinstance(info.value.__cause__, RuntimeError)
            assert ex.map_tasks(_pid, [_on(0)]) == [pid]
            assert ex.residency.held(0) == held


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the home's memory map from /proc")
def test_a_spawned_home_imports_the_task_path_before_it_is_ready():
    """``setup()`` returns once the home has imported the task path (and
    numpy with it) and the tcp resolver its coordinator loaded, so a
    spawned home — an agent's slot — pays for its imports when it
    starts, not inside the first task."""
    import repro.net.blockstore  # noqa: F401  (as a tcp coordinator has)

    before = set(multiprocessing.active_children())
    with ProcessExecutor(1, transport="pickle", start_method="spawn") as ex:
        ex.setup()
        homes = [p for p in multiprocessing.active_children()
                 if p not in before]
        assert len(homes) == 1
        with open(f"/proc/{homes[0].pid}/maps") as fh:
            assert "_multiarray_umath" in fh.read()
        assert ex.map_tasks(home_probe.loaded, [
            "repro.runtime.worker", "repro.net.blockstore"]) == [True, True]


@pytest.mark.parametrize("start_method", START_METHODS)
def test_concurrent_callers_get_their_own_results_in_order(start_method):
    """4 threads x 50 ``map_tasks`` calls over both slots of one
    executor: a caller that reads a reply owned by another hands it
    over, so every caller gets its own results, in order."""
    calls, threads = 50, 4
    failures = []
    with ProcessExecutor(2, transport="pickle",
                         start_method=start_method) as ex:
        homes = ex.map_tasks(_pid, [_on(0), _on(1)])

        def loop(name):
            try:
                for i in range(calls):
                    tasks = [_on(w, (name, i, w)) for w in (0, 1, 2, 3)]
                    got = ex.map_tasks(_echo, tasks)
                    want = [((name, i, w), homes[w % 2])
                            for w in (0, 1, 2, 3)]
                    if got != want:
                        failures.append((name, i, got))
            except Exception as exc:         # pragma: no cover - reported
                failures.append((name, repr(exc)))

        runners = [threading.Thread(target=loop, args=(n,), daemon=True)
                   for n in range(threads)]
        for runner in runners:
            runner.start()
        deadline = time.monotonic() + 60.0
        for runner in runners:
            runner.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(runner.is_alive() for runner in runners)
    assert failures == []


def test_a_home_killed_mid_task_is_one_clean_crash():
    with ProcessExecutor(2, transport="pickle") as ex:
        pids = ex.map_tasks(_pid, [_on(0), _on(1)])
        killer = threading.Timer(0.3, os.kill, (pids[0], signal.SIGKILL))
        killer.start()
        try:
            with pytest.raises(WorkerCrashed, match="home process died"):
                ex.map_tasks(_sleep, [_on(0, 30.0), _on(1, 0.0)])
        finally:
            killer.cancel()
        assert ex.residency.pids == (0, 0)
        again = ex.map_tasks(_pid, [_on(0), _on(1)])
        assert pids[0] not in again


def test_large_tasks_and_replies_to_one_home_do_not_deadlock():
    """Two multi-megabyte tasks for one home in one call: the second is
    written only once the first's (multi-megabyte) reply was read."""
    big = np.arange(1 << 20, dtype=np.int64)
    with ProcessExecutor(1, transport="pickle") as ex:
        got = ex.map_tasks(_echo, [_on(0, big), _on(0, big + 1)])
    assert [int(value[-1]) for value, _ in got] == [big[-1], big[-1] + 1]
