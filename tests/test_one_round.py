"""Focused tests for engines.one_round (shared HCube + Leapfrog path)."""

import numpy as np
import pytest

from repro.data import Database, Relation
from repro.distributed import Cluster, CostModelParams
from repro.engines import one_round_execute
from repro.errors import BudgetExceeded, OutOfMemory
from repro.query import paper_query
from repro.wcoj import leapfrog_join
from repro.workloads import graph_database_for


def tri_case(seed=0, n=150, dom=18):
    q = paper_query("Q1")
    rng = np.random.default_rng(seed)
    return q, graph_database_for(q, rng.integers(0, dom, size=(n, 2)))


class TestOneRoundExecute:
    def test_count_matches_sequential(self):
        q, db = tri_case()
        cluster = Cluster(num_workers=4)
        ledger = cluster.new_ledger()
        out = one_round_execute(q, db, cluster, q.attributes, ledger)
        assert out.count == leapfrog_join(q, db).count

    def test_level_tuples_sum_over_cubes(self):
        """Per-level counts aggregated over cubes match a global run at
        the deepest level (outputs are partitioned exactly)."""
        q, db = tri_case(seed=1)
        cluster = Cluster(num_workers=4)
        ledger = cluster.new_ledger()
        out = one_round_execute(q, db, cluster, q.attributes, ledger)
        direct = leapfrog_join(q, db)
        assert out.level_tuples[-1] == direct.stats.level_tuples[-1]

    def test_ledger_phases_charged(self):
        q, db = tri_case(seed=2)
        cluster = Cluster(num_workers=4)
        ledger = cluster.new_ledger()
        one_round_execute(q, db, cluster, q.attributes, ledger,
                          impl="push")
        b = ledger.breakdown()
        assert b.communication > 0
        assert b.computation > 0
        assert ledger.shuffled_tuples > 0

    def test_merge_charges_less_comm_than_push(self):
        q, db = tri_case(seed=3)
        cluster = Cluster(num_workers=4)
        ledgers = {}
        for impl in ("push", "merge"):
            ledger = cluster.new_ledger()
            one_round_execute(q, db, cluster, q.attributes, ledger,
                              impl=impl)
            ledgers[impl] = ledger
        assert ledgers["merge"].breakdown().communication \
            < ledgers["push"].breakdown().communication

    def test_work_budget_enforced(self):
        q, db = tri_case(seed=4, n=400, dom=25)
        cluster = Cluster(num_workers=2)
        with pytest.raises(BudgetExceeded):
            one_round_execute(q, db, cluster, q.attributes,
                              cluster.new_ledger(), work_budget=5)

    def test_memory_budget_enforced_with_push_footprint(self):
        """Push's 3x footprint trips OOM where merge fits."""
        q, db = tri_case(seed=5, n=300, dom=25)
        # Find the push max load first.
        probe = Cluster(num_workers=2)
        ledger = probe.new_ledger()
        out = one_round_execute(q, db, probe, q.attributes, ledger,
                                impl="push")
        limit = out.max_worker_tuples * 2  # between 1x and 3x footprint
        tight = Cluster(num_workers=2, memory_tuples_per_worker=limit)
        with pytest.raises(OutOfMemory):
            one_round_execute(q, db, tight, q.attributes,
                              tight.new_ledger(), impl="push")
        merged = one_round_execute(q, db, tight, q.attributes,
                                   tight.new_ledger(), impl="merge")
        assert merged.count == out.count

    def test_cache_capacity_used(self):
        q, db = tri_case(seed=6)
        cluster = Cluster(num_workers=2)
        asked = []

        def capacity(load):
            asked.append(load)
            return 100_000

        out = one_round_execute(q, db, cluster, q.attributes,
                                cluster.new_ledger(),
                                cache_capacity=capacity)
        assert asked
        assert out.cache_hits + out.cache_misses > 0

    def test_worker_work_reported(self):
        q, db = tri_case(seed=7)
        cluster = Cluster(num_workers=3)
        out = one_round_execute(q, db, cluster, q.attributes,
                                cluster.new_ledger())
        assert set(out.worker_work) == {0, 1, 2}
        assert sum(out.worker_work.values()) == out.leapfrog_work
