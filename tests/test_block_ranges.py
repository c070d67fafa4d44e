"""Row ranges: the block-layout data plane.

Each atom's source is published once in that atom's block layout
(:meth:`Relation.block_layout`, memoized on the relation), so an (atom,
cube) slice is a row range ``[lo, hi)`` of what was published — a
self-join's atoms read separate layouts of one relation: refs carry the
range in their header, a tcp worker GETs only its own rows, and a warm
query neither hashes nor sorts on the coordinator.
"""

import socket
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.wcoj.leapfrog import trie_order

ORDER = ("a", "b", "c")
TRANSPORTS = ("pickle", "shm", "tcp")


def triangle_case(seed=0, n=400, dom=40):
    """The directed triangle over one relation, rows shuffled: each atom
    reads its own layout of it."""
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
def test_a_range_ref_resolves_to_its_rows(transport):
    arr = np.arange(60, dtype=np.int64).reshape(20, 3)
    with create_transport(transport) as t:
        key = t.publish("a", arr)
        for lo, hi in ((0, 20), (3, 11), (19, 20), (7, 7)):
            ranged = t.make_ref(key, slice(lo, hi))
            assert ranged.num_rows == hi - lo
            assert np.array_equal(resolve_array_ref(ranged), arr[lo:hi])
            if transport == "pickle":
                # The slice itself is shipped, nothing else.
                assert ranged.payload_bytes \
                    == REF_HEADER_BYTES + (hi - lo) * 3 * 8
            else:
                # A range is header-only.
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
    """A relation keeps the layouts its last route read: one per atom of
    the triangle, whatever grids came before."""
    query, db = triangle_case()
    rel = db["E"]
    for p in range(1, 9):
        grid = HypercubeGrid(query, {"a": p, "b": 2, "c": 9 - p}, 3)
        routing = hcube_route(query, db, grid, order=ORDER)
        assert len({id(layout) for layout in routing.layouts}) == 3
        assert sorted(map(id, rel._layout.values())) \
            == sorted(map(id, routing.layouts))
    # The newest grid is still memoized: routing it again is a hit.
    again = hcube_route(query, db, grid, order=ORDER)
    assert all(a is b for a, b in zip(again.layouts, routing.layouts))
    # A grid that hashes the first atom alike but reads E otherwise
    # keeps that atom's layout and replaces the others.
    lead = query.atoms[0]
    other = JoinQuery([lead, Atom("E", ("a", "c"))], name="wedge")
    wedge = HypercubeGrid(other, {"a": 8, "b": 2, "c": 1}, 3)
    routed = hcube_route(other, db, wedge, order=ORDER)
    assert routed.layouts[0] is routing.layouts[0]
    assert sorted(map(id, rel._layout.values())) \
        == sorted(map(id, routed.layouts))


def test_concurrent_routing_shares_one_bounded_memo():
    """Threads routing one relation over more grids than the memo holds
    (as a service's drivers do) agree with a private relation's routing
    and never break the memo: a lost race only lays a relation out
    twice."""
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
    # The last route to prune the memo left its own layouts at most.
    assert 1 <= len(db["E"]._layout) <= len(query.atoms)


def test_every_slice_is_a_range_of_its_atoms_layout():
    """Every slice is the rows of its cube's block, a range of the
    atom's own layout, and every atom of a set is flagged sorted."""
    query, db = triangle_case()
    grid = HypercubeGrid(query, {"a": 2, "b": 3, "c": 2}, 3)
    routing = hcube_route(query, db, grid, order=ORDER)
    assert {type(sel) for rows in routing.atom_rows for sel in rows} \
        == {slice}
    source = db["E"].data
    for ai, atom in enumerate(query.atoms):
        ids = grid.tuple_block_ids(atom, source)
        mine = routing.grid.query.atoms[ai]
        columns = [atom.attributes.index(v) for v in mine.attributes]
        for cube in range(grid.num_cubes):
            want = source[ids == grid.cube_block_id(
                atom, grid.coordinate_of(cube))][:, columns]
            got = routing.rows_of(ai, cube)
            assert got.tolist() == sorted(map(list, want.tolist()))
    tasks = list(iter_routed_tasks(routing, db, ORDER))
    assert {t.sorted_atoms for t in tasks} == {(True, True, True)}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_self_join_slices_are_their_blocks_rows(data):
    """Random self-joins (2-3 atoms on one relation, random column
    orders, shares and trie order): every slice is exactly the rows
    whose block id, hashed row by row, is its cube's, lexsorted in its
    atom's trie order; every atom is flagged sorted."""
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, data.draw(st.integers(1, 12)),
                         size=(data.draw(st.integers(0, 80)), 2))
    db = Database([Relation("E", ("src", "dst"), edges)])
    pairs = st.permutations(("a", "b", "c")).map(lambda p: p[:2])
    atoms = [Atom("E", pair) for pair in
             data.draw(st.lists(pairs, min_size=2, max_size=3))]
    query = JoinQuery(atoms, name="self")
    shares = {v: data.draw(st.integers(1, 3)) for v in query.attributes}
    grid = HypercubeGrid(query, shares, data.draw(st.integers(1, 4)))
    order = tuple(data.draw(st.permutations(query.attributes)))
    routing = hcube_route(query, db, grid, order=order)
    source = db["E"].data
    for ai, atom in enumerate(query.atoms):
        mine = routing.grid.query.atoms[ai]
        assert mine.attributes == trie_order(atom.attributes, order)
        columns = [atom.attributes.index(v) for v in mine.attributes]
        ids = np.array([grid.tuple_block_ids(atom, row[None, :])[0]
                        for row in source], dtype=np.int64)
        for cube in range(grid.num_cubes):
            sel = routing.atom_rows[ai][cube]
            assert type(sel) is slice
            want = source[ids == grid.cube_block_id(
                atom, grid.coordinate_of(cube))][:, columns]
            got = routing.rows_of(ai, cube)
            assert got.tolist() == sorted(want.tolist())
    tasks = list(iter_routed_tasks(routing, db, order))
    assert {t.sorted_atoms for t in tasks} == {(True,) * len(atoms)}


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


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_self_join_on_home_processes_ships_ranges_then_nothing(
        transport):
    """On a real pool, a self-join's cold refs are header-only ranges
    under shm/tcp, and a warm run publishes and fetches nothing."""
    query, db = triangle_case(seed=5)
    expected = len(leapfrog_reference(query, db))
    with JoinSession(workers=2, backend="processes",
                     transport=transport) as session:
        job = session.query_from(query, db)
        cold, warm = job.run("hcubej"), job.run("hcubej")
    assert cold.count == warm.count == expected
    plane = cold.data_plane
    if transport != "pickle":
        # One layout per atom.
        assert plane["published_blocks"] == len(query.atoms)
        assert plane["shipped_bytes"] \
            == plane["shipped_refs"] * REF_HEADER_BYTES
    assert warm.data_plane["published_bytes"] == 0
    assert warm.data_plane["fetched_bytes"] == 0
    assert warm.data_plane["shipped_bytes"] \
        == warm.data_plane["shipped_refs"] * REF_HEADER_BYTES
