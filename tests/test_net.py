"""Tests for repro.net: the multi-machine data plane.

Covers the frame protocol, block-store lifecycle edge cases (double
free, missing GET, no listening port after stop), the tcp transport's
epoch rules, the transport/backend registries' ConfigError contracts,
host-spec parsing, the worker-agent handshake, the remote executor
(mixed local+remote scheduling, heartbeats, crash handling, socket
teardown), and the acceptance criterion: all six engines return serial
counts over >= 2 loopback agents with descriptor-only shipping.
"""

import os
import pickle
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import JoinSession
from repro.errors import BlockNotFound, ConfigError, NetError, WorkerCrashed
from repro.net import (
    BlockStoreClient,
    BlockStoreServer,
    RemoteExecutor,
    TcpTransport,
    WorkerAgent,
    parse_host_specs,
)
from repro.net.blockstore import advertised_address
from repro.net.protocol import (
    OP_BYE,
    OP_DATA,
    OP_ERR,
    OP_EXPO,
    OP_HELLO,
    OP_OK,
    OP_PING,
    OP_PUT,
    OP_STAT,
    OP_TASK,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    connect,
    recv_frame,
    request,
    send_frame,
)
from repro.query import Atom, JoinQuery
from repro.runtime import (
    TRANSPORTS,
    WorkerTask,
    create_executor,
    create_transport,
    execute_worker_task,
    resolve_array_ref,
)
from repro.runtime.transport import REF_HEADER_BYTES


def port_listening(port: int, host: str = "127.0.0.1") -> bool:
    try:
        socket.create_connection((host, port), timeout=1.0).close()
        return True
    except OSError:
        return False


def double_task(x):
    """Top-level so remote agents can unpickle it by reference."""
    return 2 * x


def failing_task(x):
    raise RuntimeError(f"task {x} exploded")


def pid_task(_x):
    import os

    return os.getpid()


def exit_task(_x):
    import os

    os._exit(13)


def marked_sleep_task(args):
    """Touch ``path``, then sleep: the test knows the task has begun."""
    import time

    path, seconds = args
    open(path, "w").close()
    time.sleep(seconds)
    return seconds


@pytest.fixture
def agents():
    """Two running loopback worker agents (2 slots each).

    ``inline`` mode keeps execution on the serving thread — these tests
    exercise the protocol/scheduling/lifecycle paths, and skipping the
    per-test process-pool spawn keeps the suite fast.  The default
    (process-pool) execution path is covered by
    ``test_agent_runs_tasks_in_worker_processes`` and the subprocess
    walkthrough below.
    """
    pair = [WorkerAgent(slots=2, mode="inline").start(),
            WorkerAgent(slots=2, mode="inline").start()]
    yield pair
    for agent in pair:
        agent.stop()


def hosts_of(agents) -> list:
    return [f"127.0.0.1:{a.port}" for a in agents]


class TestFrames:
    def test_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            payload = bytes(range(256)) * 3
            send_frame(left, OP_PUT, {"block": "b", "shape": [3, 2]},
                       payload)
            op, meta, got = recv_frame(right)
            assert (op, meta["block"], meta["shape"], got) == \
                (OP_PUT, "b", [3, 2], payload)
        finally:
            left.close()
            right.close()

    def test_empty_meta_and_payload(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, OP_OK)
            assert recv_frame(right) == (OP_OK, {}, b"")
        finally:
            left.close()
            right.close()

    def test_clean_close_raises_eof(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(right)
        finally:
            right.close()

    def test_truncated_frame_raises_net_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall((1000).to_bytes(4, "big") + b"partial")
            left.close()
            with pytest.raises(NetError, match="truncated"):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(NetError, match="invalid frame length"):
                recv_frame(right)
        finally:
            left.close()
            right.close()


class TestBlockStore:
    def test_put_get_list_free_round_trip(self):
        arr = np.arange(24, dtype=np.int64).reshape(12, 2)
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                client.put("b1", arr)
                assert np.array_equal(client.get("b1"), arr)
                assert client.list() == {"b1": arr.nbytes}
                client.free("b1")
                assert client.list() == {}

    def test_get_missing_block_refused(self):
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                with pytest.raises(BlockNotFound):
                    client.get("never-put")

    def test_double_free_refused(self):
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                client.put("b1", np.ones((2, 2), dtype=np.int64))
                client.free("b1")
                with pytest.raises(BlockNotFound):
                    client.free("b1")

    def test_duplicate_put_refused(self):
        """Block ids are single-assignment within an epoch."""
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                client.put("b1", np.ones((2, 2), dtype=np.int64))
                with pytest.raises(NetError, match="already"):
                    client.put("b1", np.zeros((2, 2), dtype=np.int64))

    def test_stat_counts_served_bytes(self):
        arr = np.arange(10, dtype=np.int64).reshape(5, 2)
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                client.put("b", arr)
                client.get("b")
                client.get("b")
                stat = client.stat()
        assert stat["puts"] == 1 and stat["gets"] == 2
        assert stat["bytes_in"] == arr.nbytes
        assert stat["bytes_out"] == 2 * arr.nbytes

    def test_concurrent_clients_see_one_store(self):
        arr = np.arange(6, dtype=np.int64).reshape(3, 2)
        with BlockStoreServer() as srv:
            c1 = BlockStoreClient(srv.host, srv.port)
            c2 = BlockStoreClient(srv.host, srv.port)
            try:
                c1.put("from-c1", arr)
                assert np.array_equal(c2.get("from-c1"), arr)
            finally:
                c1.close()
                c2.close()

    def test_stop_leaves_no_listening_port(self):
        srv = BlockStoreServer().start()
        port = srv.port
        assert port_listening(port)
        srv.stop()
        assert not port_listening(port)
        srv.stop()   # idempotent


def _query_server():
    from repro.net import QueryServer

    return QueryServer(max_concurrent=1)


#: One factory per FrameServer subclass, keyed by the service it names.
SERVERS = {
    "blockstore": BlockStoreServer,
    "worker-agent": lambda: WorkerAgent(slots=1, mode="inline"),
    "query-service": _query_server,
}


class TestControlPlane:
    """HELLO/PING/STAT/EXPO/BYE and unknown-op: one answer everywhere."""

    @pytest.mark.parametrize("service", sorted(SERVERS))
    def test_every_server_answers_the_shared_ops(self, service):
        import os

        with SERVERS[service]() as server:
            sock = connect(*server.address)
            try:
                _op, hello, _ = request(sock, OP_HELLO)
                assert hello["version"] == PROTOCOL_VERSION
                assert hello["service"] == service
                assert hello["pid"] == os.getpid()
                assert request(sock, OP_PING)[0] == OP_OK
                _op, stat, _ = request(sock, OP_STAT)
                assert (stat["service"], stat["pid"]) == \
                    (service, os.getpid())
                op, meta, text = request(sock, OP_EXPO)
                assert op == OP_DATA
                assert meta["content_type"].startswith("text/plain")
                samples = [line for line in text.decode().splitlines()
                           if line and not line.startswith("#")]
                assert samples
                for line in samples:
                    float(line.rsplit(" ", 1)[1])
                with pytest.raises(NetError, match="unknown-op"):
                    request(sock, 99)
                assert request(sock, OP_BYE)[0] == OP_OK
                assert sock.recv(1) == b""      # the server hung up
            finally:
                sock.close()

    @pytest.mark.parametrize("service", sorted(SERVERS))
    def test_a_forked_child_does_not_keep_the_port_open(self, service):
        """A pool forked while a server runs must not hold its listening
        socket: ``stop()`` closes the port with the child still alive."""
        import multiprocessing
        import os
        from concurrent.futures import ProcessPoolExecutor

        server = SERVERS[service]().start()
        pool = ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork"))
        try:
            assert pool.submit(os.getpid).result() != os.getpid()
            server.stop()
            assert not port_listening(server.port)
        finally:
            server.stop()
            pool.shutdown()

    def test_query_service_refuses_a_newer_protocol(self):
        from repro.net import QueryServer, ServiceClient

        class NewerServer(QueryServer):
            def hello_meta(self):
                return dict(super().hello_meta(), version=2)

        with NewerServer(max_concurrent=1) as server:
            with pytest.raises(NetError, match="protocol 2.*speaks 1"):
                ServiceClient(*server.address)

    def test_remote_executor_refuses_a_newer_protocol(self):
        class NewerAgent(WorkerAgent):
            def hello_meta(self):
                return dict(super().hello_meta(), version=2)

        with NewerAgent(slots=1, mode="inline") as agent:
            label = f"127.0.0.1:{agent.port}"
            ex = RemoteExecutor(hosts=[label], transport="pickle")
            with pytest.raises(ConfigError, match=label):
                ex.map_tasks(double_task, [1])
            ex.close()


class TestAdvertisedAddress:
    """One rule for every store a worker dials: the advertise host
    wins, a wildcard bind dials loopback."""

    def test_rule(self, monkeypatch):
        class Bound:
            host, port = "0.0.0.0", 7070

        monkeypatch.delenv("REPRO_ADVERTISE_HOST", raising=False)
        assert advertised_address(Bound()) == ("127.0.0.1", 7070)
        Bound.host = "10.0.0.5"
        assert advertised_address(Bound()) == ("10.0.0.5", 7070)
        monkeypatch.setenv("REPRO_ADVERTISE_HOST", "worker-net.example")
        assert advertised_address(Bound()) == ("worker-net.example", 7070)

    def test_transport_and_shared_context_both_apply_it(self, monkeypatch):
        from repro import ClusterContext, RunConfig

        monkeypatch.setenv("REPRO_ADVERTISE_HOST", "localhost")
        transport = TcpTransport()
        try:
            transport.setup()
            assert transport.store_address[0] == "localhost"
        finally:
            transport.teardown()
        with ClusterContext(RunConfig(transport="tcp")) as ctx:
            view = ctx.checkout()
            view.setup()
            assert view.transport.store_address[0] == "localhost"
            view.close()


class TestTcpTransport:
    @pytest.mark.parametrize("shape", [(7, 2), (5, 1), (0, 2), (1, 3)])
    def test_whole_array_bit_for_bit(self, shape):
        rng = np.random.default_rng(0)
        arr = rng.integers(-2**40, 2**40, size=shape).astype(np.int64)
        with create_transport("tcp") as t:
            out = resolve_array_ref(t.make_ref(t.publish("a", arr)))
            assert out.dtype == arr.dtype
            assert np.array_equal(out, arr)

    def test_row_subsets(self):
        arr = np.arange(24, dtype=np.int64).reshape(12, 2)
        for rows in ([], [0], [11, 0, 5], list(range(12))):
            rows = np.asarray(rows, dtype=np.int64)
            with create_transport("tcp") as t:
                key = t.publish("a", arr)
                out = resolve_array_ref(t.make_ref(key, rows))
                assert np.array_equal(out, arr[rows])

    def test_refs_are_descriptor_only(self):
        """A tcp ref ships header+rows, never the partition matrix."""
        arr = np.arange(400, dtype=np.int64).reshape(200, 2)
        t = TcpTransport()
        try:
            ref = t.make_ref(t.publish("a", arr), np.arange(50))
            assert ref.kind == "tcp"
            assert ref.host and ref.port
            assert ref.payload_bytes == REF_HEADER_BYTES + 50 * 8
            assert t.stats.published_bytes == arr.nbytes
            # The same selection through pickle ships the whole slice.
            assert ref.payload_bytes < REF_HEADER_BYTES + 50 * 2 * 8
        finally:
            t.teardown()

    def test_publish_is_idempotent_per_key(self):
        arr = np.arange(8, dtype=np.int64).reshape(4, 2)
        t = TcpTransport()
        try:
            t.publish("a", arr)
            t.publish("a", arr)
            assert t.stats.published_blocks == 1
        finally:
            t.teardown()

    def test_resolved_array_survives_teardown(self):
        arr = np.arange(10, dtype=np.int64).reshape(5, 2)
        t = TcpTransport()
        ref = t.make_ref(t.publish("a", arr), np.array([3, 1]))
        out = resolve_array_ref(ref)
        t.teardown()
        assert np.array_equal(out, arr[[3, 1]])
        assert out.flags.writeable   # a private copy, not the cache

    def test_teardown_frees_blocks_and_closes_port(self):
        arr = np.arange(20, dtype=np.int64).reshape(10, 2)
        t = TcpTransport()
        resolve_array_ref(t.make_ref(t.publish("a", arr)))
        host, port = t.store_address
        assert port_listening(port, host)
        t.teardown()
        assert t.store_address is None
        assert not port_listening(port, host)
        epoch = t.last_epoch
        assert epoch.freed_blocks == 1
        assert epoch.fetched_blocks == 1
        assert epoch.fetched_bytes == arr.nbytes

    def test_teardown_idempotent_and_restartable(self):
        arr = np.arange(8, dtype=np.int64).reshape(4, 2)
        t = TcpTransport()
        t.publish("a", arr)
        t.teardown()
        t.teardown()
        out = resolve_array_ref(t.make_ref(t.publish("a", arr)))
        assert np.array_equal(out, arr)
        t.teardown()

    def test_fetch_cache_one_get_per_block(self):
        """Three refs to one block inside one task make one GET; the memo
        lasts that task only, so a second task GETs the block again."""
        arr = np.array([[0, 1], [1, 2], [0, 2], [2, 0], [1, 0]],
                       dtype=np.int64)
        triangle = JoinQuery([Atom("E@0", ("a", "b")),
                              Atom("E@1", ("b", "c")),
                              Atom("E@2", ("a", "c"))])
        t = TcpTransport()
        try:
            key = t.publish("e", arr)
            results = [execute_worker_task(WorkerTask(
                worker=0, query=triangle, order=("a", "b", "c"),
                cubes=[tuple(t.make_ref(key, rows) for rows in
                             (None, np.arange(3), np.asarray([0, 2, 4])))]))
                for _ in range(2)]
        finally:
            t.teardown()
        assert [r.count for r in results] == [1, 1]   # (0, 1, 2)
        assert t.last_epoch.fetched_blocks == 2   # one GET per task

    def test_external_store_not_stopped_by_teardown(self):
        arr = np.arange(8, dtype=np.int64).reshape(4, 2)
        with BlockStoreServer() as srv:
            t = TcpTransport(store=(srv.host, srv.port))
            resolve_array_ref(t.make_ref(t.publish("a", arr)))
            t.teardown()
            assert srv.blocks == ()          # our blocks were freed...
            assert port_listening(srv.port)  # ...the shared store lives


class TestTransportRegistry:
    def test_tcp_is_registered(self):
        assert "tcp" in TRANSPORTS.keys()
        t = create_transport("tcp")
        assert t.name == "tcp"
        t.teardown()

    def test_unknown_transport_names_registered_ones(self):
        with pytest.raises(ConfigError) as exc:
            create_transport("carrier-pigeon")
        for name in ("pickle", "shm", "tcp"):
            assert name in str(exc.value)

    def test_bad_env_value_raises_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "quantum")
        with pytest.raises(ConfigError) as exc:
            create_transport()
        for name in ("pickle", "shm", "tcp"):
            assert name in str(exc.value)

    def test_env_selects_tcp(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
        t = create_transport()
        assert t.name == "tcp"
        t.teardown()


class TestHostSpecs:
    def test_parse_remote_and_local(self):
        specs = parse_host_specs("10.0.0.1:7070, local:3 ,local")
        assert [s.kind for s in specs] == ["tcp", "local", "local"]
        assert specs[0].host == "10.0.0.1" and specs[0].port == 7070
        assert specs[1].slots == 3 and specs[2].slots == 1

    @pytest.mark.parametrize("bad", ["", "hostonly", "h:notaport",
                                     "h:0", "local:0", "local:x"])
    def test_bad_specs_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            parse_host_specs(bad if bad else [])

    def test_none_hosts_raise_with_hint(self):
        with pytest.raises(ConfigError, match="REPRO_HOSTS"):
            parse_host_specs(None)

    def test_remote_backend_without_hosts_is_config_error(self):
        from repro.api import RunConfig

        with pytest.raises(ConfigError, match="hosts"):
            RunConfig(backend="remote", hosts=None)

    def test_env_hosts_apply(self, monkeypatch):
        from repro.api import RunConfig

        monkeypatch.setenv("REPRO_HOSTS", "127.0.0.1:7070,local:2")
        cfg = RunConfig(backend="remote")
        assert cfg.hosts == ("127.0.0.1:7070", "local:2")

    def test_unknown_backend_lists_remote(self):
        from repro.runtime import create_executor

        with pytest.raises(ConfigError) as exc:
            create_executor("quantum")
        assert "remote" in str(exc.value)


class TestWorkerAgent:
    def test_handshake_advertises_slots_and_pid(self):
        import os

        with WorkerAgent(slots=3, mode="inline") as agent:
            sock = socket.create_connection((agent.host, agent.port))
            try:
                from repro.net.protocol import OP_HELLO

                _op, meta, _ = request(sock, OP_HELLO)
                assert meta["service"] == "worker-agent"
                assert meta["slots"] == 3
                assert meta["pid"] == os.getpid()
            finally:
                sock.close()

    def test_task_frames_run_and_reply(self):
        with WorkerAgent(mode="inline") as agent:
            sock = socket.create_connection((agent.host, agent.port))
            try:
                payload = pickle.dumps((double_task, 21))
                op, _meta, reply = request(sock, OP_TASK,
                                           payload=payload)
                assert op == OP_DATA
                assert pickle.loads(reply) == 42
            finally:
                sock.close()
        assert agent.tasks_run == 1

    def test_agent_runs_tasks_in_worker_processes(self):
        """Default mode executes on a process pool, not the GIL-bound
        serving thread — and the pool actually parallelizes per slot."""
        import os

        with WorkerAgent(slots=2) as agent:
            ex = RemoteExecutor(hosts=[f"127.0.0.1:{agent.port}"],
                                transport="pickle")
            try:
                pids = ex.map_tasks(pid_task, [1, 2, 3, 4])
            finally:
                ex.close()
        assert all(pid != os.getpid() for pid in pids)

    def test_failing_task_answers_err_and_agent_survives(self):
        with WorkerAgent(mode="inline") as agent:
            sock = socket.create_connection((agent.host, agent.port))
            try:
                send_frame(sock, OP_TASK,
                           payload=pickle.dumps((failing_task, 7)))
                op, meta, _ = recv_frame(sock)
                assert op == OP_ERR
                assert meta["error"] == "RuntimeError"
                assert "exploded" in meta["message"]
                # Same connection keeps working after the failure.
                op, _meta, reply = request(
                    sock, OP_TASK, payload=pickle.dumps((double_task, 1)))
                assert pickle.loads(reply) == 2
            finally:
                sock.close()
        assert agent.tasks_failed == 1 and agent.tasks_run == 1


@pytest.fixture
def home_agent():
    """A processes-mode agent with two slots behind a RemoteExecutor."""
    agent = WorkerAgent(slots=2).start()
    ex = RemoteExecutor(hosts=[f"127.0.0.1:{agent.port}"],
                        transport="pickle")
    yield agent, ex
    ex.close()
    agent.stop()


def one_at_a_time(ex, fn, tasks) -> list:
    """Run ``tasks`` one by one: the executor's free-slot queue then
    hands a two-slot agent's slots out in turn, 0, 1, 0, 1, ..."""
    return [ex.map_tasks(fn, [task])[0] for task in tasks]


class TestAgentHomes:
    """A processes-mode agent runs each slot's tasks in that slot's
    home process; a dead home restarts only its own slot."""

    def test_each_slot_runs_in_one_home(self, home_agent):
        _agent, ex = home_agent
        pids = one_at_a_time(ex, pid_task, range(10))
        slot0, slot1 = pids[0::2], pids[1::2]
        assert len(set(slot0)) == 1 and len(set(slot1)) == 1
        assert slot0[0] != slot1[0]
        assert os.getpid() not in pids

    def test_a_dead_home_restarts_only_its_slot(self, home_agent):
        _agent, ex = home_agent
        slot0, slot1 = one_at_a_time(ex, pid_task, range(2))
        with pytest.raises(WorkerCrashed, match="BrokenProcessPool"):
            ex.map_tasks(exit_task, [0])              # slot 0
        again1, again0 = one_at_a_time(ex, pid_task, range(2))
        assert again1 == slot1
        assert again0 not in (slot0, slot1)
        # The ERR frame names what the task raised, not the wrapper.
        with pytest.raises(WorkerCrashed,
                           match="RuntimeError: task 1 exploded"):
            ex.map_tasks(failing_task, [1])

    def test_stop_is_prompt_and_leaves_no_home(self, home_agent, tmp_path):
        agent, ex = home_agent
        homes = one_at_a_time(ex, pid_task, range(2))
        marker = tmp_path / "started"
        crashed = []

        def run():
            try:
                ex.map_tasks(marked_sleep_task, [(str(marker), 60.0)])
            except WorkerCrashed as exc:
                crashed.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        deadline = time.monotonic() + 10.0
        while not marker.exists():
            assert time.monotonic() < deadline, "the task never began"
            time.sleep(0.01)
        start = time.monotonic()
        agent.stop()
        assert time.monotonic() - start < 5.0
        for pid in homes:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        runner.join(timeout=10.0)
        assert not runner.is_alive() and len(crashed) == 1

    def test_a_stopped_agent_exits_with_empty_stderr(self):
        """Stopping an agent joins its homes, so nothing of them races
        the interpreter's exit."""
        script = (
            "from repro.net import RemoteExecutor, WorkerAgent\n"
            "agent = WorkerAgent(slots=2).start()\n"
            "ex = RemoteExecutor(hosts=[f'127.0.0.1:{agent.port}'],\n"
            "                    transport='pickle')\n"
            "assert ex.map_tasks(abs, [-3]) == [3]\n"
            "ex.close()\n"
            "agent.stop()\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (os.path.join(os.path.dirname(__file__), "..",
                                     "src"),
                        os.environ.get("PYTHONPATH")) if p))
        for _ in range(5):      # 10 runs, two at a time
            procs = [subprocess.Popen([sys.executable, "-c", script],
                                      env=env, text=True,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE)
                     for _ in range(2)]
            for proc in procs:
                _, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err
                assert err == "", err


class TestRemoteExecutor:
    def test_map_preserves_order_across_hosts(self, agents):
        ex = create_executor("remote", hosts=hosts_of(agents),
                             transport="pickle")
        try:
            out = ex.map_tasks(double_task, list(range(20)))
            assert out == [2 * i for i in range(20)]
            assert sum(a.tasks_run for a in agents) == 20
            # Both hosts actually participated.
            assert all(a.tasks_run > 0 for a in agents)
        finally:
            ex.close()

    def test_mixed_local_and_remote_slots(self, agents):
        ex = RemoteExecutor(hosts=[*hosts_of(agents), "local:2"],
                            transport="pickle")
        try:
            out = ex.map_tasks(double_task, list(range(30)))
            assert out == [2 * i for i in range(30)]
            assert sum(a.tasks_run for a in agents) < 30  # local ran some
        finally:
            ex.close()

    def test_remote_task_failure_is_worker_crashed(self, agents):
        from repro.errors import WorkerCrashed

        ex = RemoteExecutor(hosts=hosts_of(agents), transport="pickle")
        try:
            with pytest.raises(WorkerCrashed, match="exploded"):
                ex.map_tasks(failing_task, [1, 2, 3])
        finally:
            ex.close()

    def test_unreachable_host_is_config_error(self):
        # Bind-then-close to get a port with nothing listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        ex = RemoteExecutor(hosts=[f"127.0.0.1:{port}"],
                            transport="pickle", connect_timeout=1.0)
        with pytest.raises(ConfigError, match="serve"):
            ex.map_tasks(double_task, [1])
        ex.close()

    def test_heartbeat_marks_dead_host(self, agents):
        import time

        ex = RemoteExecutor(hosts=hosts_of(agents), transport="pickle",
                            heartbeat_interval=0.1)
        try:
            ex.setup()
            assert all(ex.host_status().values())
            agents[1].stop()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                status = ex.host_status()
                if not status[hosts_of(agents)[1]]:
                    break
                time.sleep(0.05)
            status = ex.host_status()
            assert status[hosts_of(agents)[0]]
            assert not status[hosts_of(agents)[1]]
        finally:
            ex.close()

    def test_dead_host_queued_slots_fail_with_host_label(self, agents):
        """Idle slots of a flagged host surface as WorkerCrashed (with
        the host label), never as an anonymous attribute error."""
        from repro.errors import WorkerCrashed

        label = hosts_of(agents)[0]
        ex = RemoteExecutor(hosts=[label], transport="pickle",
                            heartbeat_interval=0)
        try:
            ex.setup()
            ex._mark_dead(ex.host_specs[0])
            with pytest.raises(WorkerCrashed, match=label):
                ex.map_tasks(double_task, [1, 2, 3])
        finally:
            ex.close()

    def test_close_resets_dead_flags_for_reopen(self, agents):
        """A host flagged in one run gets a fresh start after close()."""
        ex = RemoteExecutor(hosts=hosts_of(agents), transport="pickle",
                            heartbeat_interval=0)
        try:
            ex.setup()
            ex._mark_dead(ex.host_specs[0])
            assert not ex.host_status()[hosts_of(agents)[0]]
            ex.close()
            assert ex.map_tasks(double_task, [1, 2]) == [2, 4]  # reopen
            assert all(ex.host_status().values())
        finally:
            ex.close()

    def test_agent_death_mid_session_crashes_cleanly(self, agents):
        """Executor close() releases sockets/blocks after a dead worker."""
        session = JoinSession(workers=2, backend="remote",
                              transport="tcp", hosts=hosts_of(agents),
                              scale=1e-5, samples=10)
        job = session.query("wb", "Q1")
        # Connections are established on the context's one base
        # executor (every run is a view over it)...
        session.context.executor().setup()
        for agent in agents:
            agent.stop()                # ...then every worker host dies
        result = job.run("hcubej")
        assert not result.ok and result.failure == "crash"
        assert "died" in result.extra["crash_reason"]
        # The failed run's epoch already freed its blocks.
        assert session.context.store_blocks == ()
        session.close()   # idempotent full teardown with dead workers


class TestSessionAcceptance:
    """ISSUE 4 acceptance: six engines, >= 2 agents, descriptor shipping."""

    def test_all_engines_match_serial_counts(self, agents, monkeypatch):
        # The CI matrix exports REPRO_TRANSPORT; clear it so this test
        # exercises the documented remote-backend default (tcp).
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        with JoinSession(workers=4, scale=1e-5, samples=10) as serial:
            base = serial.query("wb", "Q1").compare()
        assert base.agreed

        with JoinSession(workers=4, backend="remote",
                         hosts=hosts_of(agents), scale=1e-5,
                         samples=10) as session:
            assert session.transport_label == "tcp"
            report = session.query("wb", "Q1").compare()
        assert report.agreed, report.counts
        assert report.count == base.count
        assert {r.engine for r in report.results} == \
            {r.engine for r in base.results}
        # Both agents actually executed tasks.
        assert all(agent.tasks_run > 0 for agent in agents)

    def test_data_plane_shows_descriptor_only_shipping(self, agents):
        with JoinSession(workers=4, backend="remote", transport="tcp",
                         hosts=hosts_of(agents), scale=1e-5,
                         samples=10) as session:
            result = session.query("wb", "Q1").run("hcubej")
        assert result.ok
        plane = result.data_plane
        assert plane["transport"] == "tcp"
        # Partition bytes are accounted to the block store (fetched),
        # not to the coordinator's task payloads (shipped).
        assert plane["published_bytes"] > 0
        assert plane["fetched_bytes"] >= plane["published_bytes"]
        assert plane["shipped_bytes"] < plane["fetched_bytes"]
        assert plane["freed_blocks"] == plane["published_blocks"]

        # The same run over the pickle plane ships strictly more.
        with JoinSession(workers=4, backend="remote",
                         hosts=hosts_of(agents), transport="pickle",
                         scale=1e-5, samples=10) as session:
            inline = session.query("wb", "Q1").run("hcubej")
        assert inline.ok and inline.count == result.count
        assert plane["shipped_bytes"] < \
            inline.data_plane["shipped_bytes"]

    def test_session_exit_leaves_no_listening_ports(self, agents):
        with JoinSession(workers=2, backend="remote", transport="tcp",
                         hosts=hosts_of(agents), scale=1e-5,
                         samples=10) as session:
            ex = session.executor()
            ex.setup()
            ex.transport.setup()
            host, port = ex.transport.store_address
            assert port_listening(port, host)
        assert not port_listening(port, host)

    def test_remote_backend_agrees_under_shm_and_pickle(self, agents):
        """The remote backend runs every registered transport on
        loopback (shm only works because the agents share the host)."""
        counts = set()
        for transport in TRANSPORTS.keys():
            with JoinSession(workers=2, backend="remote",
                             hosts=hosts_of(agents), transport=transport,
                             scale=1e-5, samples=10) as session:
                result = session.query("wb", "Q1").run("adj")
            assert result.ok, (transport, result.failure)
            counts.add(result.count)
        assert len(counts) == 1


class TestServeCommand:
    def test_serve_starts_and_exits(self, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "0", "--slots", "2",
                     "--max-seconds", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "listening on 127.0.0.1:" in out
        assert "slots=2" in out
        assert "stopped" in out

    def test_serve_subprocess_two_terminal_walkthrough(self):
        """The README story: two `repro serve` processes, one driver."""
        import re
        import subprocess
        import sys

        procs = []
        try:
            hosts = []
            for _ in range(2):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve", "--port",
                     "0", "--slots", "1"],
                    stdout=subprocess.PIPE, text=True, bufsize=1)
                procs.append(proc)
                line = proc.stdout.readline()
                match = re.search(r"listening on ([\d.]+):(\d+)", line)
                assert match, f"no address line in {line!r}"
                hosts.append(f"{match.group(1)}:{match.group(2)}")
            with JoinSession(workers=2, backend="remote",
                             transport="tcp", hosts=hosts,
                             scale=1e-5, samples=10) as session:
                result = session.query("wb", "Q1").run("adj")
            assert result.ok
            assert result.data_plane["transport"] == "tcp"
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(timeout=10)
