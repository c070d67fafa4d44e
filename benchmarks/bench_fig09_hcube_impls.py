"""Fig. 9: HCube implementations — Push vs Pull vs Merge on Q2.

The paper reports communication improvements of up to two orders of
magnitude for Pull/Merge over Push, and a further computation win for
Merge because tries arrive pre-built.
"""

import pytest

from repro.data import dataset_names
from repro.engines import one_round_execute

from .common import bench_cluster, fmt_table, load_case, report

IMPLS = ["push", "pull", "merge"]


def _run_impl(query, db, cluster, impl):
    ledger = cluster.new_ledger()
    one_round_execute(query, db, cluster, query.attributes, ledger,
                      impl=impl)
    b = ledger.breakdown()
    return b.communication, b.computation


def test_fig09_hcube_implementations(benchmark):
    cluster = bench_cluster()

    def run():
        rows = []
        for ds in dataset_names():
            query, db = load_case(ds, "Q2")
            row = [ds.upper()]
            for impl in IMPLS:
                comm, comp = _run_impl(query, db, cluster, impl)
                row.extend([f"{comm:.4f}", f"{comp:.4f}"])
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    headers = ["dataset"]
    for impl in IMPLS:
        headers += [f"{impl} comm(s)", f"{impl} comp(s)"]
    text = fmt_table(headers, rows,
                     title="Fig. 9 — HCube implementations on Q2 "
                           "(model-seconds)")
    report("fig09_hcube_impls", text)
    for r in rows:
        push_comm, pull_comm, merge_comm = (float(r[1]), float(r[3]),
                                            float(r[5]))
        push_comp, merge_comp = float(r[2]), float(r[6])
        assert pull_comm < push_comm, f"pull must beat push comm on {r[0]}"
        assert merge_comm <= pull_comm + 1e-9
        assert merge_comp < push_comp, f"merge must beat push comp on {r[0]}"
