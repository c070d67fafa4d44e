"""Row ranges, not row indices: the block-layout data plane.

A routed source is published once in its block layout
(:meth:`Relation.block_layout`, memoized per relation and grid), so an
(atom, cube) slice is a row range ``[lo, hi)`` of what was published:
refs carry the range in their header, a tcp worker GETs only its own
rows, and a warm query neither hashes nor sorts on the coordinator.
"""

import socket
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import repro.data.relation as relation_module
import repro.runtime.worker as worker_module
from repro import JoinSession
from repro.data import Database, Relation
from repro.distributed import HypercubeGrid, hcube_route
from repro.engines import registry
from repro.errors import NetError
from repro.net import BlockStoreClient, BlockStoreServer
from repro.net.protocol import OP_DATA, OP_GET, recv_frame, send_frame
from repro.query import Atom, JoinQuery
from repro.runtime import create_transport, iter_routed_tasks, \
    resolve_array_ref
from repro.runtime.transport import REF_HEADER_BYTES
from repro.wcoj import leapfrog_reference

ORDER = ("a", "b", "c")
TRANSPORTS = ("pickle", "shm", "tcp")


def triangle_case(seed=0, n=400, dom=40):
    """The directed triangle over one relation, rows shuffled: its later
    atoms read the first atom's layout hashed on other columns."""
    rng = np.random.default_rng(seed)
    edges = np.unique(rng.integers(0, dom, size=(n, 2)), axis=0)
    edges = edges[rng.permutation(len(edges))]
    query = JoinQuery([Atom("E", ("a", "b")), Atom("E", ("b", "c")),
                       Atom("E", ("c", "a"))], name="triangle")
    return query, Database([Relation("E", ("src", "dst"), edges,
                                     dedup=False)])


def path_case(seed=0, n=300, dom=60):
    """Two relations, one atom each: every slice is a range."""
    rng = np.random.default_rng(seed)
    query = JoinQuery([Atom("R", ("a", "b")), Atom("S", ("b", "c"))],
                      name="path")
    return query, Database(
        Relation(name, ("src", "dst"), rng.integers(0, dom, size=(n, 2)),
                 dedup=False) for name in ("R", "S"))


class CoordinatorWork:
    """Counts block-id computations and row sorts made outside worker
    tasks (the serial backend runs tasks on the calling thread)."""

    def __init__(self, monkeypatch):
        self.block_ids = self.sorts = 0
        local = threading.local()
        run_task = worker_module._execute_worker_task
        sort_rows = relation_module._sorted_rows
        group_rows = relation_module._group_rows
        row_keys = relation_module.row_keys
        block_ids = HypercubeGrid.tuple_block_ids

        def task(t):
            local.inside = True
            try:
                return run_task(t)
            finally:
                local.inside = False

        def outside():
            return not getattr(local, "inside", False)

        def sort(arr, dedup):
            self.sorts += outside()
            return sort_rows(arr, dedup)

        def group(arr, *args, **kwargs):
            self.sorts += outside()
            return group_rows(arr, *args, **kwargs)

        def keys(*arrays):
            self.sorts += outside()
            return row_keys(*arrays)

        def ids(grid, atom, data):
            self.block_ids += outside()
            return block_ids(grid, atom, data)

        monkeypatch.setattr(worker_module, "_execute_worker_task", task)
        monkeypatch.setattr(relation_module, "_sorted_rows", sort)
        monkeypatch.setattr(relation_module, "_group_rows", group)
        monkeypatch.setattr(relation_module, "row_keys", keys)
        monkeypatch.setattr(HypercubeGrid, "tuple_block_ids", ids)

    def reset(self):
        self.block_ids = self.sorts = 0


# -- refs ---------------------------------------------------------------------

@pytest.mark.parametrize("transport", ("shm", "tcp"))
def test_a_range_rides_in_rows(transport):
    """The range is the ref's ``rows`` selection (a slice), never a field
    a resolver that knows only row indices could ignore and read the
    whole block."""
    arr = np.arange(60, dtype=np.int64).reshape(20, 3)
    with create_transport(transport) as t:
        ref = t.make_ref(t.publish("a", arr), slice(np.int64(3), 11))
        assert ref.rows == slice(3, 11)
        assert type(ref.rows.start) is int
        assert np.array_equal(arr[ref.rows], resolve_array_ref(ref))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_range_ref_resolves_like_the_index_ref(transport):
    arr = np.arange(60, dtype=np.int64).reshape(20, 3)
    with create_transport(transport) as t:
        key = t.publish("a", arr)
        for lo, hi in ((0, 20), (3, 11), (19, 20), (7, 7)):
            ranged = t.make_ref(key, slice(lo, hi))
            indexed = t.make_ref(key, np.arange(lo, hi))
            assert ranged.num_rows == hi - lo
            assert np.array_equal(resolve_array_ref(ranged),
                                  resolve_array_ref(indexed))
            assert np.array_equal(resolve_array_ref(ranged), arr[lo:hi])
            if transport == "pickle":
                # The slice itself is shipped, nothing else.
                assert ranged.payload_bytes \
                    == REF_HEADER_BYTES + (hi - lo) * 3 * 8
            else:
                # A range is header-only; indices cost 8 bytes a row.
                assert ranged.payload_bytes == REF_HEADER_BYTES


def test_tcp_range_fetches_only_its_bytes():
    arr = np.arange(400, dtype=np.int64).reshape(200, 2)
    t = create_transport("tcp")
    try:
        key = t.publish("a", arr)
        out = resolve_array_ref(t.make_ref(key, slice(50, 80)))
    finally:
        t.teardown()
    assert np.array_equal(out, arr[50:80])
    assert t.last_epoch.fetched_blocks == 1
    assert t.last_epoch.fetched_bytes == 30 * 2 * 8


# -- the store ----------------------------------------------------------------

class TestRangedGet:
    ARR = np.arange(30, dtype=np.int64).reshape(10, 3)

    def test_ranged_get_counts_only_its_bytes(self):
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                client.put("b", self.ARR)
                part = client.get("b", (2, 5))
                empty = client.get("b", (4, 4))
                stat = client.stat()
        assert np.array_equal(part, self.ARR[2:5])
        assert empty.shape == (0, 3)
        assert stat["gets"] == 2
        assert stat["bytes_out"] == 3 * 3 * 8

    @pytest.mark.parametrize("rows", [[3, 11], [5, 2], [-1, 2], [0],
                                      ["0", 2], [0.5, 2], "0:2"])
    def test_out_of_range_get_is_refused(self, rows):
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                client.put("b", self.ARR)
                with pytest.raises(NetError, match="out-of-range"):
                    client.request(OP_GET, {"block": "b", "rows": rows})
                # The connection is still good, and nothing was counted.
                assert np.array_equal(client.get("b"), self.ARR)
                assert client.stat()["bytes_out"] == self.ARR.nbytes

    def test_get_without_rows_returns_the_whole_block(self):
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                client.put("b", self.ARR)
                whole = client.get("b")
                stat = client.stat()
        assert np.array_equal(whole, self.ARR)
        assert not whole.flags.writeable
        assert stat["bytes_out"] == self.ARR.nbytes


def test_receiving_a_frame_copies_its_payload_once():
    payload = np.ones(16 << 20, dtype=np.uint8)
    left, right = socket.socketpair()
    sender = threading.Thread(
        target=send_frame, args=(left, OP_DATA, {"block": "b"},
                                 memoryview(payload)))
    try:
        tracemalloc.start()
        sender.start()
        op, meta, got = recv_frame(right)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sender.join()
        left.close()
        right.close()
    assert (op, meta) == (OP_DATA, {"block": "b"})
    assert len(got) == payload.nbytes and got == payload.tobytes()
    assert peak < 2 * payload.nbytes


# -- the coordinator's memo ---------------------------------------------------

@pytest.mark.parametrize("make_case", [triangle_case, path_case])
@pytest.mark.parametrize("engine", ["hcubej", "adj"])
def test_warm_serial_run_hashes_and_sorts_nothing(make_case, engine,
                                                  monkeypatch):
    query, db = make_case()
    expected = len(leapfrog_reference(query, db))
    work = CoordinatorWork(monkeypatch)
    with JoinSession(workers=2, backend="serial", samples=20) as session:
        job = session.query_from(query, db)
        first = job.run(engine)
        if engine == "hcubej":          # the counters are live
            assert work.block_ids > 0 and work.sorts > 0
        work.reset()
        second = job.run(engine)
    assert (work.block_ids, work.sorts) == (0, 0)
    assert first.ok and second.count == first.count == expected


def test_replacing_a_relation_misses_the_memo(monkeypatch):
    query, db = path_case()
    grid = HypercubeGrid(query, {"a": 1, "b": 2, "c": 1}, 2)
    work = CoordinatorWork(monkeypatch)
    before = hcube_route(query, db, grid, order=ORDER)
    work.reset()
    hcube_route(query, db, grid, order=ORDER)
    assert work.block_ids == 0
    old = db["R"]
    db.replace(Relation("R", old.attributes, old.data[:-40], dedup=False))
    after = hcube_route(query, db, grid, order=ORDER)
    assert work.block_ids == 1           # R again; S still memoized
    assert after.layouts[0] is not before.layouts[0]
    assert after.layouts[1] is before.layouts[1]
    assert after.stats.tuple_copies == before.stats.tuple_copies - 40


def test_memo_stays_bounded():
    """A relation keeps one layout (the last grid's), and that layout
    the regroupings of the grid that read it last: the triangle's two
    later atoms."""
    query, db = triangle_case()
    rel = db["E"]
    for p in range(1, 9):
        grid = HypercubeGrid(query, {"a": p, "b": 2, "c": 9 - p}, 3)
        routing = hcube_route(query, db, grid, order=ORDER)
        layout = routing.layouts[0]
        assert rel._layout[1] is layout
        assert len(layout._groupings) <= 2
    # The newest grid is still memoized: routing it again is a hit.
    assert hcube_route(query, db, grid, order=ORDER).layouts[0] is layout
    # A grid with the same first-atom hashing but other later atoms
    # replaces the regroupings instead of adding to them.
    lead = query.atoms[0]
    other = JoinQuery([lead, Atom("E", ("a", "c"))], name="wedge")
    assert len(layout._groupings) == 2
    wedge = HypercubeGrid(other, {"a": 8, "b": 2, "c": 1}, 3)
    assert hcube_route(other, db, wedge, order=ORDER).layouts[0] is layout
    assert len(layout._groupings) == 1


def test_concurrent_routing_shares_one_bounded_memo():
    """Threads routing one relation over more grids than the memo holds
    (as a service's drivers do) agree with a private relation's routing
    and never break the memo: a lost race only lays a relation out, or
    regroups it, twice."""
    query, _ = triangle_case()
    edges = np.random.default_rng(0).integers(0, 10, size=(12, 2))

    def small_db():
        return Database([Relation("E", ("src", "dst"), edges)])

    grids = [HypercubeGrid(query, {"a": p, "b": 2, "c": 13 - p}, 3)
             for p in range(1, 13)]
    fresh = [hcube_route(query, small_db(), g, order=ORDER) for g in grids]
    db = small_db()
    errors = []

    def route(worker):
        try:
            for i in range(300):
                k = (worker + i) % len(grids)
                got = hcube_route(query, db, grids[k], order=ORDER)
                assert got.stats == fresh[k].stats
                cube = i % grids[k].num_cubes
                for ai in range(len(query.atoms)):
                    assert np.array_equal(got.rows_of(ai, cube),
                                          fresh[k].rows_of(ai, cube))
        except Exception as exc:          # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=route, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert db["E"]._layout is not None


def test_ranges_and_indices_select_the_routed_rows():
    """Every slice is the rows of its cube's block, as a range for the
    layout's own atom and as indices for the later ones."""
    query, db = triangle_case()
    grid = HypercubeGrid(query, {"a": 2, "b": 3, "c": 2}, 3)
    routing = hcube_route(query, db, grid, order=ORDER)
    kinds = [{type(sel) for sel in rows} for rows in routing.atom_rows]
    assert kinds == [{slice}, {np.ndarray}, {np.ndarray}]
    source = db["E"].data
    for ai, atom in enumerate(routing.grid.query.atoms):
        ids = grid.tuple_block_ids(atom, source)
        for cube in range(grid.num_cubes):
            want = source[ids == grid.cube_block_id(
                atom, grid.coordinate_of(cube))]
            got = routing.rows_of(ai, cube)
            assert got.tolist() == sorted(map(list, want.tolist()))
    tasks = list(iter_routed_tasks(routing, db, ORDER))
    assert {t.sorted_atoms for t in tasks} == {(True, True, False)}


# -- end to end ---------------------------------------------------------------

@pytest.mark.parametrize("transport", TRANSPORTS)
def test_directed_triangle_agrees_with_reference(transport):
    query, db = triangle_case(seed=3)
    expected = len(leapfrog_reference(query, db))
    with JoinSession(workers=3, backend="serial", transport=transport,
                     samples=20) as session:
        report = session.query_from(query, db).compare()
    assert {r.engine for r in report.results} \
        == {registry.display_name(k) for k in registry.available()}
    assert report.agreed, report.counts
    assert report.count == expected
