"""Sampling-based cardinality estimation (Sec. IV) in action.

Run with:  python examples/cardinality_estimation.py

Shows the Lemma 2 sample-size bound and the accuracy/cost trade-off of
the estimator.
"""

import time

from repro import JoinSession
from repro.core import required_samples
from repro.data import generate_power_law_edges
from repro.query import paper_query
from repro.wcoj import leapfrog_join
from repro.workloads import graph_database_for


def main() -> None:
    query = paper_query("Q4")
    edges = generate_power_law_edges(900, seed=3)
    db = graph_database_for(query, edges)
    true = leapfrog_join(query, db).count
    print(f"query: {query.name}, graph: {edges.shape[0]} edges, "
          f"true cardinality: {true}")

    # -- Lemma 2: how many samples for a target guarantee? -----------------
    print("\nLemma 2 sample sizes k(p, delta):")
    for p, delta in ((0.2, 0.1), (0.1, 0.05), (0.05, 0.01)):
        print(f"  error {p:4.0%} @ confidence {1 - delta:4.0%}: "
              f"k = {required_samples(p, delta)}")

    # -- accuracy vs budget --------------------------------------------------
    # QueryJob.estimate is pure sampler work: the session never creates
    # an executor for it.
    print(f"\n{'samples':>8} {'estimate':>12} {'D':>7} {'time(s)':>8}")
    with JoinSession(workers=4, seed=1) as session:
        job = session.query_from(query, db)
        for k in (5, 20, 80, 400):
            t0 = time.perf_counter()
            est = job.estimate(samples=k)
            elapsed = time.perf_counter() - t0
            hi = max(est.estimate, float(true), 1.0)
            lo = max(1.0, min(est.estimate, float(true)))
            tag = " (exact)" if est.exact else ""
            print(f"{k:>8} {est.estimate:>12.0f} {hi / lo:>7.3f} "
                  f"{elapsed:>8.3f}{tag}")
        assert not session.executor_created


if __name__ == "__main__":
    main()
