"""Cross-cutting property-based tests (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Relation
from repro.distributed import (
    HypercubeGrid,
    dup_factor,
    hcube_route,
    optimize_shares,
)
from repro.query import Predicate, SPJQuery, evaluate_spj, paper_query
from repro.wcoj import leapfrog_join, yannakakis_join
from repro.workloads import graph_database_for

edge_arrays = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    min_size=1, max_size=50,
).map(lambda rows: np.array(rows, dtype=np.int64))


def rel(name, attrs, data):
    return Relation(name, attrs, data)


class TestRelationAlgebraProperties:
    @settings(max_examples=40, deadline=None)
    @given(a=edge_arrays, b=edge_arrays)
    def test_join_commutative_up_to_schema(self, a, b):
        r = rel("R", ("x", "y"), a)
        s = rel("S", ("y", "z"), b)
        left = r.natural_join(s)
        right = s.natural_join(r).reorder(("x", "y", "z"))
        assert left == right

    @settings(max_examples=40, deadline=None)
    @given(a=edge_arrays, b=edge_arrays, c=edge_arrays)
    def test_join_associative(self, a, b, c):
        r = rel("R", ("x", "y"), a)
        s = rel("S", ("y", "z"), b)
        t = rel("T", ("z", "w"), c)
        left = r.natural_join(s).natural_join(t)
        right = r.natural_join(s.natural_join(t))
        assert left == right

    @settings(max_examples=40, deadline=None)
    @given(a=edge_arrays, b=edge_arrays)
    def test_semijoin_idempotent(self, a, b):
        r = rel("R", ("x", "y"), a)
        s = rel("S", ("y", "z"), b)
        once = r.semijoin(s)
        twice = once.semijoin(s)
        assert once == twice

    @settings(max_examples=40, deadline=None)
    @given(a=edge_arrays, b=edge_arrays)
    def test_semijoin_equals_join_projection(self, a, b):
        r = rel("R", ("x", "y"), a)
        s = rel("S", ("y", "z"), b)
        semi = r.semijoin(s)
        via_join = r.natural_join(s).project(("x", "y"))
        assert semi.as_set() == via_join.as_set()


class TestEngineEquivalenceProperties:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000),
           qname=st.sampled_from(["Q1", "Q4", "Q9", "Q11"]))
    def test_yannakakis_equals_leapfrog(self, seed, qname):
        q = paper_query(qname)
        rng = np.random.default_rng(seed)
        db = graph_database_for(q, rng.integers(0, 10, size=(60, 2)))
        assert len(yannakakis_join(q, db)) == leapfrog_join(q, db).count

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_valid_orders_all_agree(self, seed):
        from repro.ghd import optimal_hypertree
        q = paper_query("Q4")
        rng = np.random.default_rng(seed)
        db = graph_database_for(q, rng.integers(0, 8, size=(50, 2)))
        tree = optimal_hypertree(q)
        counts = set()
        for order in list(tree.valid_attribute_orders())[:6]:
            counts.add(leapfrog_join(q, db, order).count)
        assert len(counts) == 1


class TestHCubeProperties:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), workers=st.integers(1, 6))
    def test_locality_on_q4(self, seed, workers):
        q = paper_query("Q4")
        rng = np.random.default_rng(seed)
        db = graph_database_for(q, rng.integers(0, 9, size=(50, 2)))
        sizes = {a.relation: len(db[a.relation]) for a in q.atoms}
        shares = optimize_shares(q, sizes, num_cubes=workers)
        grid = HypercubeGrid(q, shares, workers)
        res = hcube_route(q, db, grid).materialize(db)
        total = sum(leapfrog_join(res.local_query, cdb).count
                    for cdb in res.cube_databases)
        assert total == leapfrog_join(q, db).count

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), workers=st.integers(1, 6),
           impl=st.sampled_from(["push", "pull", "merge"]),
           qname=st.sampled_from(["Q1", "Q4"]))
    def test_routing_equals_materializing_shuffle(self, seed, workers,
                                                  impl, qname):
        """Routed rows ≡ their materialization, oracle-checked.

        Each routed row set reproduces the relation slice whose block id
        matches the cube's coordinate — recomputed here independently of
        the routing code path — and ``materialize`` copies exactly those
        rows, carrying the same ``ShuffleStats`` accounting.
        """
        from repro.distributed.hcube import local_atom_name
        q = paper_query(qname)
        rng = np.random.default_rng(seed)
        db = graph_database_for(q, rng.integers(0, 9, size=(50, 2)))
        sizes = {a.relation: len(db[a.relation]) for a in q.atoms}
        shares = optimize_shares(q, sizes, num_cubes=workers)
        grid = HypercubeGrid(q, shares, workers)
        routing = hcube_route(q, db, grid, impl=impl)
        shuffle = routing.materialize(db)
        assert shuffle.stats is routing.stats
        assert shuffle.worker_loads == routing.worker_loads
        coords = [grid.coordinate_of(c) for c in range(grid.num_cubes)]
        for ai, atom in enumerate(q.atoms):
            data = db[atom.relation].data
            blocks = grid.tuple_block_ids(atom, data)
            for cube in range(grid.num_cubes):
                routed = data[routing.atom_rows[ai][cube]]
                # Independent oracle: direct block-id membership filter.
                want = data[blocks == grid.cube_block_id(atom,
                                                         coords[cube])]
                assert np.array_equal(np.sort(routed, axis=0),
                                      np.sort(want, axis=0))
                # And the materialized partition is exactly that slice.
                local = shuffle.cube_databases[cube][
                    local_atom_name(atom, ai)]
                assert np.array_equal(local.data, routed)

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(0, 30), arity=st.integers(1, 4),
           seed=st.integers(0, 10_000), whole=st.booleans())
    def test_shm_roundtrip_bit_for_bit(self, rows, arity, seed, whole):
        """shm publish/resolve preserves arrays exactly (incl. empty,
        arity-1, and extreme int64 values)."""
        from repro.runtime import SharedMemoryTransport, resolve_array_ref
        rng = np.random.default_rng(seed)
        arr = rng.integers(np.iinfo(np.int64).min,
                           np.iinfo(np.int64).max,
                           size=(rows, arity), dtype=np.int64)
        sel = None if whole else rng.integers(
            0, max(rows, 1), size=rng.integers(0, rows + 1)) % max(rows, 1)
        if not whole and rows == 0:
            sel = np.empty(0, dtype=np.int64)
        with SharedMemoryTransport() as t:
            out = resolve_array_ref(t.make_ref(t.publish("a", arr), sel))
        want = arr if sel is None else arr[sel]
        assert out.dtype == np.int64
        assert np.array_equal(out, want)

    @settings(max_examples=20, deadline=None)
    @given(sizes=st.tuples(st.integers(1, 10_000), st.integers(1, 10_000),
                           st.integers(1, 10_000)),
           cubes=st.sampled_from([2, 4, 6, 8, 12]))
    def test_share_optimum_never_worse_than_uniform(self, sizes, cubes):
        """The optimizer beats (or matches) any hand-rolled vector."""
        q = paper_query("Q1")
        size_map = {f"R{i + 1}": s for i, s in enumerate(sizes)}
        best = optimize_shares(q, size_map, num_cubes=cubes)
        naive = {q.attributes[0]: cubes, q.attributes[1]: 1,
                 q.attributes[2]: 1}
        naive_copies = sum(
            size_map[a.relation] * dup_factor(a.attributes, naive)
            for a in q.atoms)
        assert best.tuple_copies <= naive_copies


class TestSPJProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           threshold=st.integers(0, 12),
           op=st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
    def test_pushdown_equals_postfilter(self, seed, threshold, op):
        q = paper_query("Q1")
        rng = np.random.default_rng(seed)
        db = graph_database_for(q, rng.integers(0, 12, size=(70, 2)))
        spj = SPJQuery(q, selections=(Predicate("b", op, threshold),))
        pushed = evaluate_spj(spj, db)
        full = leapfrog_join(q, db, materialize=True).relation
        import operator as _op
        fn = {"<": _op.lt, "<=": _op.le, ">": _op.gt, ">=": _op.ge,
              "=": _op.eq, "!=": _op.ne}[op]
        expected = {t for t in full.as_set() if fn(t[1], threshold)}
        assert pushed.as_set() == expected

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_projection_subset_of_full(self, seed):
        q = paper_query("Q1")
        rng = np.random.default_rng(seed)
        db = graph_database_for(q, rng.integers(0, 10, size=(60, 2)))
        spj = SPJQuery(q, projection=("b", "c"))
        out = evaluate_spj(spj, db)
        full = leapfrog_join(q, db, materialize=True).relation
        assert out.as_set() == {(t[1], t[2]) for t in full.as_set()}


class TestEstimatorProperties:
    @settings(max_examples=20, deadline=None)
    @given(p=st.floats(0.01, 0.9), delta=st.floats(0.01, 0.5))
    def test_required_samples_positive_and_monotone(self, p, delta):
        from repro.core import required_samples
        k = required_samples(p, delta)
        assert k >= 1
        assert required_samples(p / 2, delta) >= k
