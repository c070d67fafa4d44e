"""A warm repeat does not re-plan: the route memo a Database holds.

``one_round_execute`` keeps the kernel choice and the routing of a query
in its database's route memo (``Database.routes``), keyed by the query's
``data_key`` plus every other route input, and ``HCubeJ`` keeps its
degree order there.  Checked here: a hit routes nothing yet still
records the kernel decision, the ``shuffle`` phase and the same ledger;
any other input misses; ``add`` / ``replace`` / ``remove`` drop the
memo, and a replaced relation's layouts die with it.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import JoinSession
from repro.data import Database, Relation
from repro.data.database import ROUTE_MEMO_ENTRIES
from repro.distributed import Cluster
from repro.engines import HCubeJ, one_round
from repro.engines import hcubej as hcubej_module
from repro.obs.metrics import METRICS
from repro.obs.tracing import Tracer, use_tracer
from repro.query import paper_query
from repro.wcoj import leapfrog_reference

ORDER = ("a", "b", "c")


def triangle_case(seed=0, n=300, dom=40):
    query = paper_query("Q1")
    edges = np.random.default_rng(seed).integers(0, dom, size=(n, 2))
    return query, Database(Relation(a.relation, ("x", "y"), edges)
                           for a in query.atoms)


@pytest.fixture
def routes(monkeypatch):
    """Counts the routes ``one_round_execute`` computes."""
    calls = []
    real = one_round.hcube_route

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(one_round, "hcube_route", counting)
    return calls


def run(query, db, engine=None, workers=2):
    return (engine or HCubeJ(order=ORDER)).run(
        query, db, Cluster(num_workers=workers))


class TestWarmHit:
    def test_a_warm_repeat_routes_nothing_and_reports_the_same(self, routes):
        query, db = triangle_case(seed=1)
        cold = run(query, db)
        warm = run(query, db)
        assert routes == [query.name]
        assert warm.count == cold.count == len(leapfrog_reference(query, db))
        assert warm.breakdown == cold.breakdown
        assert warm.shuffled_tuples == cold.shuffled_tuples
        assert warm.extra["worker_loads"] == cold.extra["worker_loads"]
        assert warm.extra["kernel"] == cold.extra["kernel"]
        assert "shuffle" in warm.extra["telemetry"].phase_seconds

    def test_a_hit_still_records_the_kernel_decision(self):
        query, db = triangle_case(seed=2)
        run(query, db)
        selected = METRICS.counter("kernel.selected.wcoj").value
        tracer = Tracer()
        with use_tracer(tracer):
            run(query, db)
        assert METRICS.counter("kernel.selected.wcoj").value == selected + 1
        spans = [s for s in tracer.spans if s.name == "kernel_select"]
        assert len(spans) == 1 and spans[0].args["kernel"] == "wcoj"

    def test_the_degree_order_is_kept_too(self, monkeypatch):
        query, db = triangle_case(seed=3)
        calls = []
        real = hcubej_module.attach_degree_order

        def counting(q, d):
            calls.append(q.name)
            return real(q, d)

        monkeypatch.setattr(hcubej_module, "attach_degree_order", counting)
        first = run(query, db, HCubeJ())
        second = run(query, db, HCubeJ())
        assert calls == [query.name]
        assert first.extra["order"] == second.extra["order"]


class TestKeys:
    def test_every_other_route_input_misses(self, routes):
        query, db = triangle_case(seed=4)
        run(query, db)
        run(query, db, HCubeJ(order=("b", "a", "c")))
        run(query, db, HCubeJ(order=ORDER, kernel="binary"))
        run(query, db, workers=3)
        assert len(routes) == 4
        run(query, db, workers=3)
        assert len(routes) == 4

    def test_the_memo_is_bounded_and_per_database(self, routes):
        query, db = triangle_case(seed=5)
        for workers in range(1, ROUTE_MEMO_ENTRIES + 3):
            run(query, db, workers=workers)
        assert len(db.routes) == ROUTE_MEMO_ENTRIES
        other = Database(db)          # same relations, its own memo
        assert len(other.routes) == 0
        run(query, other)
        assert len(routes) == ROUTE_MEMO_ENTRIES + 3


class TestInvalidation:
    @pytest.mark.parametrize("edit", ["replace", "add", "remove"])
    def test_every_edit_drops_the_memo(self, edit):
        query, db = triangle_case(seed=6)
        run(query, db, HCubeJ())
        assert len(db.routes) == 2            # the route, the degree order
        if edit == "replace":
            db.replace(Relation("R1", ("x", "y"), db["R1"].data))
        elif edit == "add":
            db.add(Relation("extra", ("x",), np.arange(3)))
        else:
            db.add(Relation("extra", ("x",), np.arange(3)))
            run(query, db)
            db.remove("extra")
        assert len(db.routes) == 0

    def test_a_replaced_relation_reroutes_and_its_layout_dies(self, routes):
        """Between two warm queries one relation gets a delta: the next
        query routes again, counts right, and nothing keeps the replaced
        relation's layout alive."""
        query, db = triangle_case(seed=7)
        with JoinSession(workers=2, backend="processes",
                         transport="shm") as session:
            job = session.query_from(query, db)
            for _ in range(2):
                assert job.run(HCubeJ(order=ORDER)).ok
            assert len(routes) == 1
            old = db["R1"]
            layout = weakref.ref(next(iter(old._layout.values())).data)
            delta = np.random.default_rng(8).integers(0, 40, size=(30, 2))
            db.replace(Relation("R1", old.attributes,
                                np.vstack([old.data, delta])))
            del old
            result = job.run(HCubeJ(order=ORDER))
            assert len(routes) == 2
            assert result.ok
            assert result.count == len(leapfrog_reference(query, db))
            gc.collect()
            assert layout() is None


def test_a_warm_adj_repeat_routes_nothing(routes):
    """ADJ keeps the database holding its pre-computed bags in the
    source database's memo, so its warm repeat reads the same routes."""
    from repro.engines import ADJ

    query, db = triangle_case(seed=9)
    cluster = Cluster(num_workers=2)
    cold = ADJ(num_samples=20).run(query, db, cluster)
    warm = ADJ(num_samples=20).run(query, db, cluster)
    assert len(routes) == 1
    assert warm.count == cold.count == len(leapfrog_reference(query, db))
    assert warm.breakdown == cold.breakdown
