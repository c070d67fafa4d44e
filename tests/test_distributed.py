"""Tests for repro.distributed: metrics, shares, HCube routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Database, Relation
from repro.distributed import (
    Cluster,
    CostLedger,
    CostModelParams,
    HypercubeGrid,
    Moved,
    Shares,
    Work,
    dup_factor,
    enumerate_share_vectors,
    frac_factor,
    hcube_route,
    localized_query,
    mix_hash,
    modulo_hash,
    optimize_shares,
    price,
)
from repro.distributed import local_atom_name
from repro.errors import ConfigError, OutOfMemory, PlanError
from repro.query import paper_query
from repro.query.query import Atom, JoinQuery
from repro.runtime import (
    execute_worker_task,
    iter_routed_tasks,
    merge_task_results,
)
from repro.wcoj import leapfrog_join


def one_attribute_partition(rel, key, workers):
    """Per-cube slices and stats of ``rel`` routed on ``key`` alone."""
    q = JoinQuery([Atom(rel.name, rel.attributes)], name="partition")
    shares = {a: 1 for a in rel.attributes}
    shares[key] = workers
    db = Database([rel])
    routing = hcube_route(q, db, HypercubeGrid(q, shares, workers))
    name = local_atom_name(q.atoms[0], 0)
    return ([cdb[name] for cdb in routing.materialize(db).cube_databases],
            routing.stats)


def triangle_case(seed=0, n=150, dom=20):
    q = paper_query("Q1")
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    db = Database([Relation(f"R{i}", ("x", "y"), edges) for i in (1, 2, 3)])
    return q, db


class TestCostModelParams:
    def test_alpha_lookup(self):
        """Each HCube implementation ships tuples at its own alpha."""
        p = CostModelParams()
        for impl, alpha in (("push", p.alpha_push), ("pull", p.alpha_pull),
                            ("merge", p.alpha_merge)):
            b = price([Moved("communication", 1000, impl)], p)
            assert b.communication == 1000 / alpha

    def test_unknown_impl(self):
        with pytest.raises(ConfigError):
            Moved("communication", 10, "teleport")

    def test_relative_magnitudes(self):
        # Push must be much slower per tuple (the Fig. 9 gap).
        p = CostModelParams()
        assert p.alpha_pull / p.alpha_push >= 10
        assert p.alpha_merge >= p.alpha_pull
        assert p.trie_merge_rate > p.trie_build_rate


class TestCostLedger:
    def test_shuffle_charges_comm(self):
        p = CostModelParams()
        ledger = CostLedger(params=p)
        ledger.record(Moved("communication", 1000, "pull", blocks=2))
        assert ledger.breakdown().communication \
            == 1000 / p.alpha_pull + 2 * p.block_latency
        assert ledger.shuffled_tuples == 1000

    def test_only_communication_counts_as_shuffled(self):
        ledger = CostLedger()
        ledger.record(Moved("precompute", 50, "pull"),
                      Moved("optimization", 7, "pull"),
                      Moved("communication", 3, "merge"))
        assert ledger.shuffled_tuples == 3

    def test_worker_work_is_makespan(self):
        params = CostModelParams(beta_work=100.0)
        b = price([Work("computation", {0: 100.0, 1: 300.0})], params)
        assert b.computation == 3.0
        assert price([Work("computation", {})], params).computation == 0.0

    def test_work_shared_by_workers(self):
        params = CostModelParams(trie_build_rate=10.0)
        b = price([Work("computation", 600, rate="trie_build", workers=3)],
                  params)
        assert b.computation == 20.0

    def test_phase_routing(self):
        params = CostModelParams(beta_work=1.0)
        ledger = CostLedger(params=params)
        ledger.record(Work("optimization", 1.0), Work("precompute", 2.0))
        b = ledger.breakdown()
        assert b.optimization == 1.0 and b.precompute == 2.0
        assert b.communication == b.computation == 0.0
        assert b.total == pytest.approx(3.0)
        assert ledger.shuffled_tuples == 0

    def test_unknown_phase(self):
        with pytest.raises(ConfigError):
            Work("meditation", 1.0)

    def test_unknown_impl(self):
        ledger = CostLedger()
        with pytest.raises(ConfigError):
            ledger.record(Moved("communication", 10, "teleport"))
        assert ledger.charges == []

    def test_unknown_rate(self):
        with pytest.raises(ConfigError):
            Work("computation", 1.0, rate="vibes")

    def test_breakdown_addition(self):
        from repro.distributed import CostBreakdown
        a = CostBreakdown(optimization=1, computation=2)
        b = CostBreakdown(communication=3)
        assert (a + b).total == pytest.approx(6)

    def test_as_row_keys(self):
        row = CostLedger().breakdown().as_row()
        assert list(row) == ["Optimization", "Pre-Computing",
                             "Communication", "Computation", "Total"]


class TestShareVectors:
    def test_enumeration_products_bounded(self):
        for v in enumerate_share_vectors(3, 8):
            assert np.prod(v) <= 8

    def test_enumeration_complete_small(self):
        vectors = set(enumerate_share_vectors(2, 4))
        expected = {(a, b) for a in range(1, 5) for b in range(1, 5)
                    if a * b <= 4}
        assert vectors == expected

    def test_zero_attrs(self):
        assert list(enumerate_share_vectors(0, 4)) == [()]

    def test_dup_and_frac(self):
        shares = {"a": 2, "b": 3, "c": 5}
        assert dup_factor(("a",), shares) == 15
        assert frac_factor(("a",), shares) == pytest.approx(0.5)
        assert dup_factor(("a", "b", "c"), shares) == 1


class TestOptimizeShares:
    def test_triangle_symmetric_shares(self):
        q, db = triangle_case()
        sizes = {f"R{i}": 100 for i in (1, 2, 3)}
        s = optimize_shares(q, sizes, num_cubes=8)
        assert sorted(s.as_dict.values()) == [2, 2, 2]

    def test_exact_product(self):
        q, _ = triangle_case()
        sizes = {f"R{i}": 100 for i in (1, 2, 3)}
        s = optimize_shares(q, sizes, num_cubes=6)
        assert s.num_cubes == 6

    def test_skewed_sizes_shift_shares(self):
        # A huge R1(a,b) should avoid partitioning on c (which would
        # duplicate R1).
        q, _ = triangle_case()
        s = optimize_shares(q, {"R1": 100_000, "R2": 10, "R3": 10},
                            num_cubes=4)
        assert s.as_dict["c"] == 1

    def test_memory_constraint_respected(self):
        q, _ = triangle_case()
        sizes = {f"R{i}": 1000 for i in (1, 2, 3)}
        s = optimize_shares(q, sizes, num_cubes=8, memory_tuples=1500)
        assert s.max_server_load <= 1500

    def test_memory_infeasible_is_oom(self):
        q, _ = triangle_case()
        sizes = {f"R{i}": 10_000 for i in (1, 2, 3)}
        with pytest.raises(OutOfMemory):
            optimize_shares(q, sizes, num_cubes=2, memory_tuples=10)

    def test_matches_exhaustive_cost(self):
        q, _ = triangle_case()
        sizes = {"R1": 500, "R2": 300, "R3": 100}
        s = optimize_shares(q, sizes, num_cubes=8)
        best = None
        for v in enumerate_share_vectors(3, 8):
            if int(np.prod(v)) != 8:
                continue
            shares = dict(zip(q.attributes, v))
            copies = sum(size * dup_factor(a.attributes, shares)
                         for a, size in zip(q.atoms, sizes.values()))
            best = copies if best is None else min(best, copies)
        assert s.tuple_copies == best

    def test_missing_size_rejected(self):
        q, _ = triangle_case()
        with pytest.raises(PlanError):
            optimize_shares(q, {"R1": 10}, num_cubes=4)


class TestHashes:
    def test_mix_hash_range(self):
        vals = np.arange(1000, dtype=np.int64)
        h = mix_hash(vals, 7)
        assert ((0 <= h) & (h < 7)).all()

    def test_mix_hash_single_bucket(self):
        assert (mix_hash(np.arange(10, dtype=np.int64), 1) == 0).all()

    def test_modulo_hash_paper_example(self):
        vals = np.array([1, 2, 3, 4], dtype=np.int64)
        assert modulo_hash(vals, 2).tolist() == [1, 0, 1, 0]

    def test_salt_changes_mix(self):
        vals = np.arange(100, dtype=np.int64)
        assert not np.array_equal(mix_hash(vals, 5, 0), mix_hash(vals, 5, 1))


class TestHypercubeGrid:
    def _grid(self, workers=4):
        q, _ = triangle_case()
        return HypercubeGrid(q, {"a": 2, "b": 2, "c": 2}, workers)

    def test_coordinate_roundtrip(self):
        g = self._grid()
        for c in range(g.num_cubes):
            assert g.cube_index_of(g.coordinate_of(c)) == c

    def test_worker_assignment_covers_all_cubes(self):
        g = self._grid(3)
        cubes = sorted(c for w in range(3) for c in g.cubes_of_worker(w))
        assert cubes == list(range(g.num_cubes))

    def test_missing_share_rejected(self):
        q, _ = triangle_case()
        with pytest.raises(PlanError):
            HypercubeGrid(q, {"a": 2}, 2)

    def test_bad_share_rejected(self):
        q, _ = triangle_case()
        with pytest.raises(PlanError):
            HypercubeGrid(q, {"a": 0, "b": 1, "c": 1}, 2)

    def test_out_of_range_coordinate(self):
        g = self._grid()
        with pytest.raises(PlanError):
            g.cube_index_of((5, 0, 0))


class TestHCubeShuffle:
    def test_locality_invariant(self):
        """Union of per-cube joins == global join (the HCube property)."""
        q, db = triangle_case(seed=3)
        grid = HypercubeGrid(q, {"a": 2, "b": 2, "c": 2}, 4)
        res = hcube_route(q, db, grid).materialize(db)
        local = res.local_query
        total = sum(leapfrog_join(local, cdb).count
                    for cdb in res.cube_databases)
        assert total == leapfrog_join(q, db).count

    def test_push_copies_match_dup_formula(self):
        q, db = triangle_case(seed=4)
        shares = {"a": 2, "b": 2, "c": 2}
        grid = HypercubeGrid(q, shares, 8)
        res = hcube_route(q, db, grid, impl="push")
        expected = sum(len(db[a.relation]) * dup_factor(a.attributes, shares)
                       for a in q.atoms)
        assert res.stats.tuple_copies == expected

    def test_bytes_copied_sums_per_atom_arity(self):
        """Regression: ``bytes_copied`` accumulates per atom at that
        atom's arity (it used to be overwritten with the *last* atom's
        arity applied to all copies, misaccounting mixed-arity queries).
        """
        q = JoinQuery([Atom("R", ("a", "b")), Atom("S", ("b",))],
                      name="mixed")
        rng = np.random.default_rng(8)
        db = Database([
            Relation("R", ("x", "y"), rng.integers(0, 10, size=(40, 2))),
            Relation("S", ("x",), rng.integers(0, 10, size=(25, 1))),
        ])
        grid = HypercubeGrid(q, {"a": 2, "b": 2}, 4)
        res = hcube_route(q, db, grid, impl="push")
        # Push routes each atom's tuples to every matching cube, so the
        # per-atom copy counts are the dup-factor products.
        shares = {"a": 2, "b": 2}
        copies_r = len(db["R"]) * dup_factor(("a", "b"), shares)
        copies_s = len(db["S"]) * dup_factor(("b",), shares)
        assert res.stats.tuple_copies == copies_r + copies_s
        assert res.stats.bytes_copied == copies_r * 2 * 8 + copies_s * 1 * 8

    def test_pull_not_more_than_push(self):
        q, db = triangle_case(seed=5)
        grid = HypercubeGrid(q, {"a": 2, "b": 2, "c": 2}, 4)
        push = hcube_route(q, db, grid, impl="push")
        pull = hcube_route(q, db, grid, impl="pull")
        assert pull.stats.tuple_copies <= push.stats.tuple_copies
        assert pull.stats.blocks_fetched > 0

    def test_merge_marks_prebuilt(self):
        q, db = triangle_case(seed=6)
        grid = HypercubeGrid(q, {"a": 1, "b": 1, "c": 1}, 1)
        assert hcube_route(q, db, grid, impl="merge").prebuilt_tries
        assert not hcube_route(q, db, grid, impl="pull").prebuilt_tries

    def test_oom_raised(self):
        q, db = triangle_case(seed=7)
        grid = HypercubeGrid(q, {"a": 1, "b": 1, "c": 1}, 1)
        with pytest.raises(OutOfMemory):
            hcube_route(q, db, grid, memory_tuples=10)

    def test_unknown_impl_rejected(self):
        q, db = triangle_case()
        grid = HypercubeGrid(q, {"a": 1, "b": 1, "c": 1}, 1)
        with pytest.raises(PlanError):
            hcube_route(q, db, grid, impl="zap")

    def test_localized_query_names(self):
        q, _ = triangle_case()
        lq = localized_query(q)
        assert lq.relation_names() == ("R1@0", "R2@1", "R3@2")

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000),
           pa=st.integers(1, 3), pb=st.integers(1, 3), pc=st.integers(1, 3))
    def test_locality_invariant_property(self, seed, pa, pb, pc):
        q, db = triangle_case(seed=seed, n=60, dom=9)
        grid = HypercubeGrid(q, {"a": pa, "b": pb, "c": pc}, 2)
        res = hcube_route(q, db, grid).materialize(db)
        total = sum(leapfrog_join(res.local_query, cdb).count
                    for cdb in res.cube_databases)
        assert total == leapfrog_join(q, db).count


class TestShuffleProperties:
    """Property tests: partition/shuffle invariants under random inputs."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), workers=st.integers(1, 6),
           key=st.sampled_from(("a", "b")))
    def test_hash_partition_disjoint_and_multiset_preserving(
            self, seed, workers, key):
        """A hash partition on ``key`` is the one-attribute grid."""
        rng = np.random.default_rng(seed)
        rel = Relation("R", ("a", "b"),
                       rng.integers(-25, 25, size=(80, 2)))
        parts, stats = one_attribute_partition(rel, key, workers)
        # Disjoint and complete: every tuple lands in exactly one cube.
        assert sum(len(p) for p in parts) == len(rel)
        assert stats.tuple_copies == len(rel)
        merged = np.vstack([p.data for p in parts if len(p)]) \
            if len(rel) else np.empty((0, 2), dtype=np.int64)
        from repro.data.relation import lexsorted_rows
        assert np.array_equal(lexsorted_rows(merged),
                              lexsorted_rows(rel.data.copy()))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), pa=st.integers(1, 3),
           pb=st.integers(1, 3), pc=st.integers(1, 3))
    def test_hcube_tuple_replication_matches_dup_factor(
            self, seed, pa, pb, pc):
        """Each tuple reaches exactly the cubes its wildcards demand."""
        q, db = triangle_case(seed=seed, n=60, dom=9)
        shares = {"a": pa, "b": pb, "c": pc}
        grid = HypercubeGrid(q, shares, 2)
        res = hcube_route(q, db, grid, impl="push").materialize(db)
        for ai, atom in enumerate(q.atoms):
            rel = db[atom.relation]
            name = local_atom_name(atom, ai)
            routed = sum(len(cdb[name]) for cdb in res.cube_databases)
            assert routed == len(rel) * dup_factor(atom.attributes, shares)
            for cdb in res.cube_databases:
                assert cdb[name].as_set() <= rel.as_set()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), pa=st.integers(1, 3),
           pb=st.integers(1, 3), pc=st.integers(1, 3),
           workers=st.integers(1, 5))
    def test_worker_local_evaluation_reproduces_global_count(
            self, seed, pa, pb, pc, workers):
        """Per-worker grid evaluation == global join (runtime path)."""
        q, db = triangle_case(seed=seed, n=60, dom=9)
        grid = HypercubeGrid(q, {"a": pa, "b": pb, "c": pc}, workers)
        tasks = list(iter_routed_tasks(hcube_route(q, db, grid), db,
                                       q.attributes))
        merged = merge_task_results(
            [execute_worker_task(t) for t in tasks], q.num_attributes)
        assert merged.count == leapfrog_join(q, db).count


class TestHashPartition:
    """The key partition is ``hcube_route`` on a one-attribute grid."""

    def test_partitions_disjoint_and_complete(self):
        rng = np.random.default_rng(0)
        rel = Relation("R", ("a", "b"), rng.integers(0, 50, size=(200, 2)))
        parts, stats = one_attribute_partition(rel, "a", 4)
        assert sum(len(p) for p in parts) == len(rel)
        assert stats.tuple_copies == len(rel)

    def test_same_key_same_worker(self):
        rel = Relation("R", ("a", "b"),
                       [(7, 1), (7, 2), (7, 3), (9, 1)])
        parts, _ = one_attribute_partition(rel, "a", 3)
        holders = [i for i, p in enumerate(parts)
                   if any(t[0] == 7 for t in p)]
        assert len(holders) == 1


    def test_pair_on_shared_attribute_routes_every_tuple_once(self):
        """SparkSQL's co-partition: both atoms contain the grid's one
        attribute, so nothing replicates and matching keys share a cube."""
        rng = np.random.default_rng(2)
        left = Relation("L", ("a", "b"), rng.integers(0, 20, size=(90, 2)))
        right = Relation("R", ("b", "c"), rng.integers(0, 20, size=(70, 2)))
        q = JoinQuery([Atom("L", ("a", "b")), Atom("R", ("b", "c"))],
                      name="pair")
        db = Database([left, right])
        grid = HypercubeGrid(q, {"a": 1, "b": 4, "c": 1}, 4)
        routing = hcube_route(q, db, grid)
        assert routing.stats.tuple_copies == len(left) + len(right)
        res = routing.materialize(db)
        total = 0
        for cdb in res.cube_databases:
            lpart, rpart = (cdb[local_atom_name(a, i)]
                            for i, a in enumerate(q.atoms))
            total += len(lpart.natural_join(rpart))
        assert total == len(left.natural_join(right)) > 0


class TestCluster:
    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "12")
        assert Cluster().num_workers == 12
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            Cluster()

    def test_with_workers(self):
        c = Cluster(num_workers=4)
        assert c.with_workers(9).num_workers == 9
        assert c.with_workers(9).params is c.params

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Cluster(num_workers=0)

    def test_new_ledger_uses_params(self):
        params = CostModelParams(alpha_pull=123.0)
        c = Cluster(num_workers=2, params=params)
        assert c.new_ledger().params.alpha_pull == 123.0
