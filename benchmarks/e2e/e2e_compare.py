"""``run.py --compare A.json B.json``: is B a regression against A?

Both files are records written by ``run.py --out`` (ideally with
``--repeat N``, so every workload x metric has N runs).  For every
workload and end-to-end metric the medians over runs are compared using
the direction and bound declared in ``BENCHMARK.json``:

- **unresolved** — the run-to-run spread (distance between the first and
  third quartile over the median, the wider of the two sides) exceeds
  the bound, so the bound cannot be checked;
- **worse** — B's median is worse than A's by more than the bound;
- **better** — B's median is better than A's by more than the bound;
- **within bound** — anything else.

Exit code 1 on any *worse* row or when B failed a larger share of its
operations than A; ``--compare`` of a commit against itself must print
neither *worse* nor *unresolved*.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def collect(document: dict) -> tuple[dict, dict]:
    """``{(workload, metric): [values]}`` over the untraced runs, and
    ``{workload: [failed, attempted]}``."""
    values: dict = defaultdict(list)
    ops: dict = defaultdict(lambda: [0, 0])
    for run in document["runs"]:
        ops[run["workload"]][0] += run["failed"]
        ops[run["workload"]][1] += run["attempted"]
        if run.get("trace"):
            continue
        for name, m in run["metrics"].items():
            values[(run["workload"], name)].append(m["value"])
    return values, ops


def spread(values: list[float]) -> float:
    """Quartile distance over the median; 0 with fewer than two runs."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float
            ) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)``; worsening > 0 means B is worse."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worsening = change if better == "lower" else -change
    wide = max(spread(a), spread(b))
    if wide > bound:
        return "unresolved", worsening, wide
    if worsening > bound:
        return "worse", worsening, wide
    if worsening < -bound:
        return "better", worsening, wide
    return "within bound", worsening, wide


def compare(doc_a: dict, doc_b: dict, spec: dict) -> int:
    values_a, ops_a = collect(doc_a)
    values_b, ops_b = collect(doc_b)
    failed = False
    print(f"{'workload':13} {'metric':24} {'A':>13} {'B':>13} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for entry in spec["end_to_end"]:
            key = (workload, entry["name"])
            if key not in values_a or key not in values_b:
                continue
            a, b = values_a[key], values_b[key]
            word, worsening, wide = verdict(a, b, entry["better"],
                                            entry["bound"])
            failed |= word == "worse"
            print(f"{workload:13} {entry['name']:24} "
                  f"{statistics.median(a):>13.6g} "
                  f"{statistics.median(b):>13.6g} {worsening:>+8.1%} "
                  f"{wide:>7.1%} {entry['bound']:>6.0%}  {word}"
                  f"  (n={len(a)},{len(b)})")
        (fail_a, tried_a), (fail_b, tried_b) = ops_a[workload], ops_b[workload]
        ratio_a = fail_a / max(1, tried_a)
        ratio_b = fail_b / max(1, tried_b)
        word = "worse" if ratio_b > ratio_a else "within bound"
        failed |= word == "worse"
        print(f"{workload:13} {'failed_ops_ratio':24} {ratio_a:>13.6g} "
              f"{ratio_b:>13.6g} {'':>8} {'':>7} {'0':>6}  {word}")
    return 1 if failed else 0


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        return compare(json.load(fa), json.load(fb), spec)
