"""Measurement helpers shared by the benchmark's workloads.

Nothing here knows a workload: summary statistics (the percentile rule),
the environment record, peak RSS and the end-of-run leak checks.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import socket
import statistics
import time

import numpy as np

#: The tail percentiles a timing may report, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75)
#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def tail_percentile(n: int) -> int | None:
    """The highest tail percentile ``n`` samples support, else None."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100.0 >= MIN_SAMPLES_BEYOND:
            return p
    return None


def summarize(values) -> dict:
    """Median, quartiles, sample count and the supported tail."""
    values = [float(v) for v in values]
    n = len(values)
    if n == 0:
        return {"n": 0}
    if n == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"n": n, "p50": med, "q1": q1, "q3": q3,
           "min": min(values), "max": max(values)}
    tail = tail_percentile(n)
    if tail is not None:
        out["tail"] = {"p": tail,
                       "value": float(np.percentile(values, tail))}
    return out


def metric(value, unit: str, samples=None) -> dict:
    """One reported metric: value + unit (+ the summary it came from)."""
    out = {"value": value, "unit": unit}
    if samples is not None:
        out.update({k: v for k, v in summarize(samples).items()
                    if k != "p50"})
    return out


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- environment -------------------------------------------------------------

def environment(pool_size: int) -> dict:
    """What the numbers were measured on (recorded at start)."""
    from repro.runtime import available_parallelism

    return {
        "nproc": os.cpu_count(),
        "available_parallelism": available_parallelism(),
        "pool_size": pool_size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def cpu_jiffies() -> tuple[int, int]:
    """``(stolen, total)`` CPU jiffies of the whole box so far.

    Stolen time is what the hypervisor kept from this VM; a run whose
    share is high was measured on a noisy host.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB.

    ``RUSAGE_CHILDREN`` only counts children that were waited for, so
    call this after the session/server is closed.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# -- leak check --------------------------------------------------------------

def port_stays_open(address, grace: float = 2.0) -> bool:
    """Whether ``address`` still listens ``grace`` seconds after a stop.

    Forked pool children inherit a server's listening socket, so the
    port only closes once they have exited too — shortly after.
    """
    deadline = time.monotonic() + grace
    while True:
        try:
            socket.create_connection(tuple(address), timeout=0.5).close()
        except OSError:
            return False
        if time.monotonic() >= deadline:
            return True
        time.sleep(0.05)


def surviving_children(grace: float = 2.0) -> list[int]:
    """Pids of pool children still alive ``grace`` seconds after close."""
    deadline = time.monotonic() + grace
    while True:
        alive = [p.pid for p in multiprocessing.active_children()]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)
