"""Worker-resident join inputs on home processes (repro.runtime.residency).

Every ``processes`` slot is a home process that keeps the inputs it
resolved, keyed by content; a warm query ships header-only ``resident``
refs and publishes nothing.  Checked on every transport: a warm query's
counts and work counters equal the cold run's, a replaced relation
misses exactly its own refs, a killed home process costs one clean
``WorkerCrashed``, evictions under concurrency are retried and stay
correct, and a spawned pool behaves like a forked one.
"""

import os
import signal
import threading
import time
import types

import numpy as np
import pytest

from repro import JoinSession
from repro.data import Database, Relation
from repro.distributed import Cluster, HypercubeGrid, hcube_route, \
    optimize_shares
from repro.engines import HCubeJ, run_engine_safely
from repro.obs.metrics import METRICS
from repro.query import paper_query
from repro.runtime import ProcessExecutor, iter_routed_tasks
from repro.runtime import residency
from repro.runtime.transport import REF_HEADER_BYTES
from repro.wcoj import leapfrog_reference

TRANSPORTS = ("pickle", "shm", "tcp")
ORDER = ("a", "b", "c")


def graph_case(seed=0, n=300, dom=40):
    query = paper_query("Q1")
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    db = Database(Relation(a.relation, ("x", "y"), edges)
                  for a in query.atoms)
    return query, db


def run(executor, query, db):
    """HCubeJ in a fixed order, so only the data decides the layouts."""
    return run_engine_safely(HCubeJ(order=ORDER), query, db,
                             Cluster(num_workers=2), executor=executor)


def counters(result):
    return (result.count, result.extra["level_tuples"],
            result.extra["leapfrog_work"], result.extra["worker_work"],
            result.extra["max_worker_tuples"], result.breakdown)


def header_only(plane):
    return (plane["published_bytes"] == plane["fetched_bytes"] == 0
            and plane["shipped_bytes"]
            == REF_HEADER_BYTES * plane["shipped_refs"])


def counter(name):
    return METRICS.counter(name).value


@pytest.fixture(params=TRANSPORTS)
def executor(request):
    with ProcessExecutor(2, transport=request.param) as ex:
        yield ex


class TestWarmQueries:
    def test_second_warm_query_publishes_nothing(self, executor):
        query, db = graph_case(seed=1)
        expected = len(leapfrog_reference(query, db))
        cold = run(executor, query, db)
        assert cold.ok and cold.count == expected > 0
        assert not header_only(cold.data_plane)
        hits = counter("runtime.resident_hits")
        for _ in range(2):
            warm = run(executor, query, db)
            assert warm.ok
            assert counters(warm) == counters(cold)
            assert header_only(warm.data_plane), warm.data_plane
        assert counter("runtime.resident_hits") > hits
        # Every slot reported what it holds.
        assert all(executor.residency.held(w) for w in (0, 1))
        assert all(pid > 0 for pid in executor.residency.pids)

    def test_a_replaced_relation_misses_exactly_its_own_refs(
            self, executor):
        query, db = graph_case(seed=2)
        assert run(executor, query, db).ok
        # Same size, other rows: the shares and the order stay, so only
        # R1's layout (and content keys) change.
        old = db["R1"]
        db.replace(Relation("R1", old.attributes, old.data[:, ::-1]))
        sizes = {a.relation: len(db[a.relation]) for a in query.atoms}
        grid = HypercubeGrid(query, optimize_shares(query, sizes, 2), 2)
        routing = hcube_route(query, db, grid, order=ORDER)
        tasks = list(iter_routed_tasks(routing, db, ORDER,
                                       transport=executor.transport))
        executor.transport.teardown()
        kinds = {}
        for task in tasks:
            for cube in task.cubes:
                for atom, ref in zip(routing.grid.query.atoms, cube):
                    kinds.setdefault(atom.relation, set()).add(
                        ref.kind == "resident")
        assert kinds == {"R1": {False}, "R2": {True}, "R3": {True}}
        result = run(executor, query, db)
        assert result.ok
        assert result.count == len(leapfrog_reference(query, db))
        if executor.transport.name != "pickle":
            assert result.data_plane["published_blocks"] == 1
            assert result.data_plane["published_bytes"] == db["R1"].nbytes

    def test_a_killed_home_process_costs_one_clean_crash(self, executor):
        query, db = graph_case(seed=3)
        expected = len(leapfrog_reference(query, db))
        cold = run(executor, query, db)
        assert run(executor, query, db).ok
        os.kill(executor.residency.pids[0], signal.SIGKILL)
        time.sleep(0.2)
        crashed = run(executor, query, db)
        assert crashed.failure == "crash"
        assert executor.residency.pids == (0, 0)   # forgotten with it
        again = run(executor, query, db)
        assert again.ok and again.count == expected
        assert again.data_plane == cold.data_plane   # republished


def _held_groups(_task) -> dict[str, list[int]]:
    """In a home process: the identity of every memoized trie it keeps
    (a binary step's key groups are trie nodes)."""
    cache = residency.resident_cache()
    held = {}
    for key in cache.keys():
        memo = cache.get(key)._trie
        if memo:
            held[key] = [id(trie.levels()) for _, trie in memo]
    return held


def test_a_warm_binary_query_groups_nothing_again(executor):
    """The binary kernel probes the tries its home process keeps: a
    warm query sorts and indexes nothing and keeps the cold run's counts
    and work."""
    query = paper_query("Q7")
    edges = np.random.default_rng(4).integers(0, 60, size=(400, 2))
    db = Database(Relation(a.relation, ("x", "y"), edges)
                  for a in query.atoms)

    def binary():
        return run_engine_safely(HCubeJ(order=ORDER, kernel="binary"),
                                 query, db, Cluster(num_workers=2),
                                 executor=executor)

    def held():
        return executor.map_tasks(
            _held_groups, [types.SimpleNamespace(worker=w) for w in (0, 1)])

    cold = binary()
    assert cold.ok and cold.count == len(leapfrog_reference(query, db))
    built = held()
    assert all(built)          # every slot keeps its inputs' groups
    warm = binary()
    assert warm.ok and counters(warm) == counters(cold)
    assert header_only(warm.data_plane)
    assert held() == built     # the same memo entries: none rebuilt


class TestRetries:
    def test_a_stale_view_is_retried_with_published_refs(self, executor):
        query, db = graph_case(seed=4)
        cold = run(executor, query, db)
        held = [executor.residency.held(w) for w in (0, 1)]
        executor._shutdown_pool()      # new processes hold nothing...
        executor.setup()

        class Stale:                    # ...but the view says otherwise
            resident_keys = None
            resident_stamp = (1, 1)
            resident_bytes = 0

        for slot, keys in enumerate(held):
            Stale.resident_keys = tuple(keys)
            executor.residency.report(slot, Stale)
        retried = counter("runtime.tasks_retried")
        misses = counter("runtime.resident_misses")
        result = run(executor, query, db)
        assert result.ok and counters(result) == counters(cold)
        assert counter("runtime.tasks_retried") - retried == 2
        assert counter("runtime.resident_misses") - misses == 2

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_tiny_budget_under_concurrent_queries(self, transport,
                                                  monkeypatch):
        cases = [graph_case(seed=s, n=400) for s in (5, 6)]
        expected = [len(leapfrog_reference(q, db)) for q, db in cases]
        with JoinSession(workers=2, backend="processes",
                         transport=transport) as session:
            session.query_from(*cases[0]).run("hcubej")
            both = int(METRICS.gauge("runtime.resident_bytes").value)
        # Room for one query's inputs per slot, not for both.
        monkeypatch.setattr(residency, "RESIDENT_BYTES", both * 3 // 4)
        before = {name: counter(name) for name in (
            "runtime.tasks_retried", "runtime.resident_evictions")}
        wrong = []
        done = threading.Event()

        def loop(session, case, want):
            job = session.query_from(*case)
            for _ in range(200):
                result = job.run("hcubej")
                if not (result.ok and result.count == want):
                    wrong.append((result.failure, result.count, want))
                if done.is_set():
                    return
                if counter("runtime.tasks_retried") \
                        > before["runtime.tasks_retried"]:
                    done.set()

        with JoinSession(workers=2, backend="processes",
                         transport=transport) as session:
            threads = [threading.Thread(target=loop,
                                        args=(session, case, want))
                       for case, want in zip(cases, expected)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert counter("runtime.resident_evictions") \
            > before["runtime.resident_evictions"]
        assert counter("runtime.tasks_retried") \
            > before["runtime.tasks_retried"]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_spawned_pool_keeps_its_inputs(transport):
    query, db = graph_case(seed=7)
    with ProcessExecutor(2, transport=transport,
                         start_method="spawn") as ex:
        cold = run(ex, query, db)
        warm = run(ex, query, db)
    assert cold.ok and cold.count == len(leapfrog_reference(query, db))
    assert counters(warm) == counters(cold)
    assert header_only(warm.data_plane)


def test_a_warm_tcp_epoch_opens_no_store_connection(monkeypatch):
    """Nothing staged: no connection, no STAT, no FREE."""
    from repro.net import transport as tcp

    query, db = graph_case(seed=8)
    with JoinSession(workers=2, backend="processes",
                     transport="tcp") as session:
        job = session.query_from(query, db)
        assert job.run("hcubej").ok
        opened = []
        real = tcp.BlockStoreClient

        def counting(*args, **kwargs):
            opened.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tcp, "BlockStoreClient", counting)
        warm = job.run("hcubej")
        assert warm.ok and header_only(warm.data_plane)
        assert opened == []
        assert warm.data_plane["freed_blocks"] == 0


def test_home_processes_share_the_coordinator_resource_tracker():
    """Home processes start before the first segment is published; they
    must still register attached segments with the coordinator's
    tracker, or theirs reports freed segments as leaked at exit."""
    import subprocess
    import sys

    script = (
        "import numpy as np\n"
        "from repro import JoinSession\n"
        "from repro.data import Database, Relation\n"
        "from repro.query import paper_query\n"
        "q = paper_query('Q1')\n"
        "e = np.random.default_rng(0).integers(0, 40, size=(300, 2))\n"
        "db = Database(Relation(a.relation, ('x', 'y'), e) for a in q.atoms)\n"
        "with JoinSession(workers=2, backend='processes',\n"
        "                 transport='shm') as s:\n"
        "    assert s.query_from(q, db).run('hcubej').ok\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_script_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "leaked" not in proc.stderr, proc.stderr


def _script_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    os.environ.get("PYTHONPATH")) if p))


def test_a_closed_session_exits_with_empty_stderr():
    """Closing a session joins its home processes, so nothing of the
    pool races the interpreter's exit (which printed an ignored EBADF
    from the process pool's exit hook in a few runs out of a hundred)."""
    import subprocess
    import sys

    script = (
        "import numpy as np\n"
        "from repro import JoinSession\n"
        "from repro.data import Database, Relation\n"
        "from repro.query import paper_query\n"
        "q = paper_query('Q1')\n"
        "e = np.random.default_rng(0).integers(0, 40, size=(300, 2))\n"
        "db = Database(Relation(a.relation, ('x', 'y'), e) for a in q.atoms)\n"
        "s = JoinSession(workers=2, backend='processes', transport='shm')\n"
        "assert s.query_from(q, db).run('hcubej').ok\n"
        "s.close()\n")
    for _ in range(5):      # 10 runs, two at a time
        procs = [subprocess.Popen([sys.executable, "-c", script],
                                  env=_script_env(), text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
                 for _ in range(2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert err == "", err
