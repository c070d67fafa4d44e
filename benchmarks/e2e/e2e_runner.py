"""One workload, one process: run it, check it, return its record."""

from __future__ import annotations

import os
import traceback

from repro.runtime import available_parallelism

from e2e_frontdoor import Ops, run_batch, run_service_mix
from e2e_harness import (
    cpu_jiffies,
    environment,
    metric,
    peak_rss_mb,
    surviving_children,
)
from e2e_workloads import BATCH_WORKLOADS, HOT_CASES, WORKERS


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float, out_dir: str) -> dict:
    """Run ``name`` once and return its JSON-ready record.

    Never raises: an exception, a leak or a wrong count is a failed op
    in the record (``correct`` is then false and the run exits non-zero).
    """
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "scale": scale,
              "env": environment(pool_size=WORKERS), "metrics": {}}
    ops = Ops()
    stolen_before, total_before = cpu_jiffies()
    if available_parallelism() < WORKERS:
        # A pool of 2 on one core would record a 1-core number.
        ops.fail(f"needs {WORKERS} usable cores, "
                 f"has {available_parallelism()}")
    else:
        try:
            if trace:
                from e2e_staged import trace_workload

                body = trace_workload(name, seed, seconds, scale, ops,
                                      out_dir)
            elif name in BATCH_WORKLOADS:
                body = run_batch(BATCH_WORKLOADS[name], seed, seconds,
                                 scale, ops)
            else:
                body = run_service_mix(list(HOT_CASES), seed, seconds,
                                       scale, ops)
            record["metrics"].update(body.pop("metrics"))
            record.update(body)
        except Exception:
            ops.fail("exception:\n" + traceback.format_exc(limit=8))
        # Whatever happened above, nothing may outlive the run.
        children = surviving_children()
        if children:
            ops.fail(f"pool children still alive: {children}")
    if not trace:
        record["metrics"]["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    stolen, total = cpu_jiffies()
    record["env"].update(
        loadavg_end=list(os.getloadavg()),
        cpu_steal_ratio=(stolen - stolen_before)
        / max(1, total - total_before))
    record.update(attempted=max(1, ops.attempted), failed=ops.failed,
                  failures=ops.failures,
                  correct=ops.failed == 0 and ops.attempted > 0)
    return record
