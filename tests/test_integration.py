"""Cross-module integration tests, including the paper's worked examples."""

import numpy as np
import pytest

from repro.core import CardinalityEstimator, optimize_plan
from repro.data import Database, Relation
from repro.distributed import (
    Cluster,
    HypercubeGrid,
    hcube_route,
    modulo_hash,
    optimize_shares,
)
from repro.engines import (
    ADJ,
    BigJoin,
    HCubeJ,
    HCubeJCache,
    SparkSQLJoin,
    one_round_execute,
)
from repro.kernels import create_kernel
from repro.query import Atom, JoinQuery, example_query, paper_query
from repro.wcoj import leapfrog_join
from repro.workloads import graph_database_for


@pytest.fixture(scope="module")
def qex_db():
    """A database for the running example (R1 ternary, R2-R5 binary)."""
    rng = np.random.default_rng(11)
    return Database([
        Relation("R1", ("x", "y", "z"), rng.integers(0, 9, size=(150, 3))),
        Relation("R2", ("x", "y"), rng.integers(0, 9, size=(70, 2))),
        Relation("R3", ("x", "y"), rng.integers(0, 9, size=(70, 2))),
        Relation("R4", ("x", "y"), rng.integers(0, 9, size=(70, 2))),
        Relation("R5", ("x", "y"), rng.integers(0, 9, size=(70, 2))),
    ])


class TestPaperExample2:
    """Sec. II, Example 2: hypercube routing with p = (1,2,2,1,1)."""

    def test_tuple_routed_by_matching_coordinates(self, qex_db):
        query = example_query()
        shares = {"a": 1, "b": 2, "c": 2, "d": 1, "e": 1}
        grid = HypercubeGrid(query, shares, num_workers=4,
                             hash_fn=modulo_hash)
        assert grid.num_cubes == 4
        # A tuple (1, 2, 2) of R1(a,b,c): h_a(1)=0, h_b(2)=0, h_c(2)=0,
        # so it belongs to every cube with coordinate (0,0,0,*,*).
        atom = query.atoms[0]
        t = np.array([[1, 2, 2]], dtype=np.int64)
        block = grid.tuple_block_ids(atom, t)[0]
        receiving = [c for c in range(grid.num_cubes)
                     if grid.cube_block_id(atom, grid.coordinate_of(c))
                     == block]
        expected = [c for c in range(grid.num_cubes)
                    if grid.coordinate_of(c)[1] == 0
                    and grid.coordinate_of(c)[2] == 0]
        assert receiving == expected

    def test_union_of_cubes_is_exact(self, qex_db):
        query = example_query()
        shares = {"a": 1, "b": 2, "c": 2, "d": 1, "e": 1}
        grid = HypercubeGrid(query, shares, num_workers=4,
                             hash_fn=modulo_hash)
        res = hcube_route(query, qex_db, grid).materialize(qex_db)
        total = sum(leapfrog_join(res.local_query, cdb).count
                    for cdb in res.cube_databases)
        assert total == leapfrog_join(query, qex_db).count


class TestExampleQueryEndToEnd:
    def test_all_engines_agree_on_ternary_query(self, qex_db):
        query = example_query()
        cluster = Cluster(num_workers=4)
        expected = leapfrog_join(query, qex_db).count
        engines = [SparkSQLJoin(), BigJoin(), HCubeJ(), HCubeJCache(),
                   ADJ(num_samples=40)]
        for engine in engines:
            assert engine.run(query, qex_db, cluster).count == expected, \
                engine.name

    def test_adj_precomputes_fig5_bags_when_computation_heavy(self, qex_db):
        """With expensive computation, the optimizer should reach for the
        Fig. 5 candidates R2><R3 and/or R4><R5."""
        from repro.distributed import CostModelParams
        params = CostModelParams(alpha_push=1e12, alpha_pull=1e12,
                                 alpha_merge=1e12, block_latency=0.0,
                                 beta_work=1e3)
        cluster = Cluster(num_workers=4, params=params)
        query = example_query()
        report = optimize_plan(
            query, qex_db, cluster,
            estimator=CardinalityEstimator(qex_db, num_samples=40, seed=0))
        names = {c.name for c in report.plan.candidates}
        assert names <= {"R2_R3", "R4_R5"}
        assert names, "expected at least one pre-computed bag"


class TestOneRoundImplEquivalence:
    @pytest.mark.parametrize("impl", ["push", "pull", "merge"])
    def test_impls_agree(self, impl):
        query = paper_query("Q1")
        rng = np.random.default_rng(3)
        db = graph_database_for(query, rng.integers(0, 20, size=(150, 2)))
        cluster = Cluster(num_workers=4)
        ledger = cluster.new_ledger()
        outcome = one_round_execute(query, db, cluster, query.attributes,
                                    ledger, impl=impl)
        assert outcome.count == leapfrog_join(query, db).count


class TestAllCatalogQueriesAgainstOracle:
    @pytest.mark.parametrize("qname", ["Q1", "Q2", "Q4", "Q5", "Q6",
                                       "Q7", "Q8", "Q9", "Q10", "Q11"])
    def test_leapfrog_vs_binary_join(self, qname):
        query = paper_query(qname)
        rng = np.random.default_rng(17)
        db = graph_database_for(query, rng.integers(0, 12, size=(90, 2)))
        assert leapfrog_join(query, db).count == \
            create_kernel("binary").execute(query, db).count

    def test_q3_small_instance(self):
        # The 5-clique has 10 atoms: the Cartesian oracle is hopeless
        # (25^10 combos), so cross-validate against the binary-join plan.
        query = paper_query("Q3")
        rng = np.random.default_rng(5)
        db = graph_database_for(query, rng.integers(0, 6, size=(30, 2)))
        assert leapfrog_join(query, db).count == \
            create_kernel("binary").execute(query, db).count


class TestMemoryConstrainedCluster:
    def test_share_optimizer_spreads_under_memory_pressure(self):
        """Eq. 3: a tight memory budget forces higher shares."""
        query = paper_query("Q1")
        sizes = {f"R{i}": 8000 for i in (1, 2, 3)}
        free = optimize_shares(query, sizes, num_cubes=8)
        tight = optimize_shares(query, sizes, num_cubes=8,
                                memory_tuples=8000)
        assert tight.max_server_load <= 8000
        assert tight.max_server_load <= free.max_server_load + 1e-9

    def test_engines_succeed_with_adequate_memory(self):
        query = paper_query("Q1")
        rng = np.random.default_rng(23)
        db = graph_database_for(query, rng.integers(0, 30, size=(300, 2)))
        cluster = Cluster(num_workers=4, memory_tuples_per_worker=2000)
        r = HCubeJ().run(query, db, cluster)
        assert r.count == leapfrog_join(query, db).count


class TestSelfJoinSupport:
    def test_two_atoms_one_stored_relation(self):
        """Atoms may reference the same stored graph (true self-join)."""
        query = JoinQuery([Atom("E", ("a", "b")), Atom("E", ("b", "c")),
                           Atom("E", ("a", "c"))], name="tri")
        rng = np.random.default_rng(29)
        db = graph_database_for(query, rng.integers(0, 15, size=(120, 2)))
        assert len(db) == 1
        cluster = Cluster(num_workers=3)
        expected = leapfrog_join(query, db).count
        for engine in (HCubeJ(), ADJ(num_samples=20)):
            assert engine.run(query, db, cluster).count == expected
