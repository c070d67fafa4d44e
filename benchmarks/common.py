"""Shared infrastructure for the experiment benches.

Every bench regenerates one table or figure of the paper.  Results are
printed (visible with ``pytest -s``) *and* written to
``benchmarks/results/<name>.txt`` so ``--benchmark-only`` runs leave a
readable record; EXPERIMENTS.md summarizes them against the paper.

Scales: the paper's graphs are 13M-234M edges; the analogues default to
``REPRO_BENCH_SCALE`` (1.2e-5) of that so the whole bench suite finishes
in minutes on one machine.  Budgets replace the paper's 12-hour timeout.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

from repro.distributed import Cluster
from repro.engines import EngineOptions, registry
from repro.workloads import make_testcase

RESULTS_DIR = Path(__file__).parent / "results"

#: Default edge-count scale for benches (fraction of the paper's sizes).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.2e-5"))

#: Worker count for benches (the paper uses 28).
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "8"))

#: Leapfrog work budget standing in for the paper's 12-hour timeout.
WORK_BUDGET = int(float(os.environ.get("REPRO_BENCH_WORK_BUDGET", "2e7")))

#: Intermediate-tuple budgets for the multi-round baselines.
SPARKSQL_BUDGET = int(float(os.environ.get("REPRO_BENCH_SPARK_BUDGET",
                                           "2e6")))
BIGJOIN_BUDGET = int(float(os.environ.get("REPRO_BENCH_BIGJOIN_BUDGET",
                                          "1.5e6")))

#: Samples for ADJ's optimizer inside benches.
BENCH_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "30"))

#: Per-worker memory in tuples for the Fig. 12 memory-constrained runs.
#: Sized like the paper's fixed 28 GB/worker: the mid-size datasets fit
#: under the Push implementation's footprint, EN/OK do not (their OOM is
#: the paper's Fig. 12(f) story), and the Merge implementation fits
#: everywhere.  Scales with REPRO_BENCH_SCALE.
BENCH_MEMORY = int(float(os.environ.get(
    "REPRO_BENCH_MEMORY", str(16_000 * BENCH_SCALE / 1.2e-5))))


#: Budgets relative to a test-case's total input tuples — the analogue
#: of the paper's fixed 12-hour wall, which allows an (input-relative)
#: bounded amount of intermediate materialization for every method.
SPARKSQL_INPUT_FACTOR = 10
BIGJOIN_INPUT_FACTOR = 8

#: The Fig. 12 headline lineup (the paper's five methods, in order).
#: A newly registered engine must not silently join the figure, so this
#: is deliberately pinned rather than derived from the registry.
FIG12_ENGINES = ("sparksql", "bigjoin", "hcubej", "hcubej-cache", "adj")


def bench_cluster(workers: int | None = None,
                  memory_tuples: float | None = None) -> Cluster:
    return Cluster(num_workers=workers or BENCH_WORKERS,
                   memory_tuples_per_worker=memory_tuples)


def bench_options(total_input: int | None = None,
                  **overrides) -> EngineOptions:
    """Bench-calibrated engine options.

    With ``total_input`` the multi-round budgets scale with the input
    (the Fig. 12 convention); otherwise the absolute env-var budgets
    apply.  ``overrides`` are EngineOptions field names.
    """
    opts = EngineOptions(
        samples=BENCH_SAMPLES,
        work_budget=WORK_BUDGET,
        budget_tuples=(SPARKSQL_INPUT_FACTOR * total_input
                       if total_input else SPARKSQL_BUDGET),
        budget_bindings=(BIGJOIN_INPUT_FACTOR * total_input
                         if total_input else BIGJOIN_BUDGET))
    return opts.merged_with(**overrides) if overrides else opts


def engine_lineup(total_input: int | None = None,
                  names=FIG12_ENGINES,
                  options: EngineOptions | None = None) -> list:
    """Registry-built engines for a bench run (one source of truth).

    Every engine receives the same :class:`EngineOptions`; each picks
    only the fields it declares, so the lineup stays consistent as
    engines are added to the registry.
    """
    opts = bench_options(total_input)
    if options is not None:
        opts = opts.merged_with(options)
    return [registry.create(name, opts) for name in names]


def lineup_headers(names=FIG12_ENGINES) -> list[str]:
    """Human-facing engine names for table headers, from the registry."""
    return [registry.display_name(name) for name in names]


@functools.lru_cache(maxsize=64)
def load_case(dataset: str, query_name: str, scale: float | None = None):
    """Cached test-case loading (datasets are reused across benches)."""
    return make_testcase(dataset, query_name,
                         scale=BENCH_SCALE if scale is None else scale)


def fmt_seconds(value: float | None, failure: str | None = None) -> str:
    if failure == "budget":
        return ">BUDGET"
    if failure == "oom":
        return "OOM"
    if value is None:
        return "-"
    return f"{value:10.4f}"


def fmt_table(headers: list[str], rows: list[list[str]],
              title: str = "") -> str:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
              else len(str(h)) for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).rjust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def report(name: str, text: str) -> None:
    """Print an experiment table and persist it under benchmarks/results."""
    print(f"\n=== {name} ===")
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    header = (f"# scale={BENCH_SCALE} workers={BENCH_WORKERS} "
              f"work_budget={WORK_BUDGET}\n")
    path.write_text(header + text + "\n")
