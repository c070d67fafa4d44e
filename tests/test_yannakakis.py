"""Tests for the YannakakisJoin engine and its reducer phases
(repro.wcoj.yannakakis)."""

import numpy as np
import pytest

from repro.data import Database, Relation
from repro.distributed import Cluster
from repro.engines import YannakakisJoin
from repro.errors import OutOfMemory
from repro.ghd import optimal_hypertree
from repro.query import example_query, paper_query, parse_query
from repro.runtime import SerialExecutor
from repro.wcoj import full_reducer, leapfrog_join
from repro.workloads import graph_database_for


def case(qname, seed=0, n=120, dom=15):
    q = paper_query(qname)
    rng = np.random.default_rng(seed)
    return q, graph_database_for(q, rng.integers(0, dom, size=(n, 2)))


def yannakakis(q, db, tree=None):
    """One YannakakisJoin run on the serial executor."""
    return YannakakisJoin(hypertree=tree).run(
        q, db, Cluster(num_workers=2), executor=SerialExecutor())


def bags_of(q, db, tree):
    """Every bag's join, materialized (the reducer's input)."""
    bags = {}
    for bag in tree.bags:
        sub, attrs = bag.subquery(q)
        res = leapfrog_join(sub, db, order=attrs, materialize=True)
        bags[bag.index] = Relation(f"bag{bag.index}", attrs,
                                   res.relation.data, dedup=False)
    return bags


class TestSequentialYannakakis:
    @pytest.mark.parametrize("qname", ["Q1", "Q4", "Q5", "Q9", "Q11"])
    def test_matches_leapfrog(self, qname):
        q, db = case(qname, seed=3)
        assert yannakakis(q, db).count == leapfrog_join(q, db).count

    def test_example_query(self):
        q = example_query()
        rng = np.random.default_rng(1)
        db = Database([
            Relation("R1", ("x", "y", "z"), rng.integers(0, 8, (100, 3))),
            Relation("R2", ("x", "y"), rng.integers(0, 8, (50, 2))),
            Relation("R3", ("x", "y"), rng.integers(0, 8, (50, 2))),
            Relation("R4", ("x", "y"), rng.integers(0, 8, (50, 2))),
            Relation("R5", ("x", "y"), rng.integers(0, 8, (50, 2))),
        ])
        assert yannakakis(q, db).count == leapfrog_join(q, db).count

    def test_acyclic_path_query(self):
        q = parse_query("R1(a,b), R2(b,c), R3(c,d)")
        rng = np.random.default_rng(2)
        db = graph_database_for(q, rng.integers(0, 20, size=(150, 2)))
        assert yannakakis(q, db).count == leapfrog_join(q, db).count

    def test_stats_populated(self):
        q, db = case("Q4", seed=5)
        extra = yannakakis(q, db).extra
        tree = optimal_hypertree(q)
        assert len(extra["bag_sizes"]) == tree.num_bags
        # Full reducer: two sweeps over num_bags - 1 edges.
        assert extra["semijoin_rounds"] == 2 * (tree.num_bags - 1)

    def test_full_reducer_removes_dangling(self):
        """After reduction every bag tuple joins with every neighbor."""
        q, db = case("Q4", seed=7)
        tree = optimal_hypertree(q)
        bags = bags_of(q, db, tree)
        reduced = full_reducer(tree, bags)
        for u, v in tree.tree_edges:
            assert reduced[u].semijoin(reduced[v]) == reduced[u]
            assert reduced[v].semijoin(reduced[u]) == reduced[v]

    def test_reducer_only_shrinks(self):
        q, db = case("Q5", seed=9)
        tree = optimal_hypertree(q)
        bags = bags_of(q, db, tree)
        reduced = full_reducer(tree, bags)
        for idx, rel in reduced.items():
            assert len(rel) <= len(bags[idx])

    def test_empty_input_empty_output(self):
        q, _ = case("Q4")
        db = graph_database_for(q, np.empty((0, 2), dtype=np.int64))
        assert yannakakis(q, db).count == 0


class TestYannakakisEngine:
    def test_agrees_with_leapfrog(self):
        q, db = case("Q5", seed=11, n=200, dom=20)
        cluster = Cluster(num_workers=4)
        result = YannakakisJoin().run(q, db, cluster)
        assert result.count == leapfrog_join(q, db).count

    def test_reports_multi_round(self):
        q, db = case("Q4", seed=13)
        result = YannakakisJoin().run(q, db, Cluster(num_workers=4))
        assert result.rounds > 1
        assert result.breakdown.precompute > 0

    def test_oom_when_bags_exceed_memory(self):
        # A dense graph makes the triangle bag large; a tiny memory
        # budget must trip the EmptyHeaded failure mode.
        q, db = case("Q5", seed=15, n=400, dom=12)
        cluster = Cluster(num_workers=2, memory_tuples_per_worker=50)
        with pytest.raises(OutOfMemory):
            YannakakisJoin().run(q, db, cluster)

    def test_reuses_supplied_hypertree(self):
        q, db = case("Q4", seed=17)
        tree = optimal_hypertree(q)
        result = YannakakisJoin(hypertree=tree).run(
            q, db, Cluster(num_workers=2))
        assert result.count == leapfrog_join(q, db).count
